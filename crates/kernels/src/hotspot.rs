//! HotSpot — iterative thermal simulation of a chip floorplan (paper §3.2).
//!
//! "HotSpot simulates the heat dissipation in an architectural floor plan to
//! estimate processor temperature. HotSpot is a memory-bound algorithm as
//! its arithmetic intensity is low."
//!
//! The port keeps the Rodinia OpenMP version's structure: single-precision
//! temperature and power grids, an explicit finite-difference update per
//! iteration with the physical constants (`Rx`, `Ry`, `Rz`, `Cap`, ambient
//! temperature) kept live through the whole run. Those constants, together
//! with the per-thread loop controls, are the variables the paper found to
//! cause most of HotSpot's SDCs and DUEs — while corruption of the
//! temperature grid itself is *attenuated* by the open-system dissipation
//! term, the mechanism behind HotSpot's dramatic FIT reduction under a
//! small output tolerance (Fig. 3: −95 % at a 2 % tolerance).
//!
//! One cooperative step = one stencil iteration over the double-buffered
//! grid, rows statically partitioned over the logical threads.

use crate::fast::{self, FastPath};
use crate::par::{par_for_each, static_partition};
use carolfi::checkpoint::{bits_eq, fields_eq, Checkpoint};
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, StepOutcome, VarClass, VarInfo, Variable};
use rand::Rng;
use std::sync::Arc;

// Rodinia hotspot physical constants.
const CHIP_HEIGHT: f32 = 0.016;
const CHIP_WIDTH: f32 = 0.016;
const T_CHIP: f32 = 0.0005;
const FACTOR_CHIP: f32 = 0.5;
const SPEC_HEAT_SI: f32 = 1.75e6;
const K_SI: f32 = 100.0;
const MAX_PD: f32 = 3.0e6;
/// Solver tolerance driving the timestep. Rodinia ships 0.001, which yields
/// a per-iteration dissipation of ~0.1 % — physically fine but requiring the
/// hours-long runs of the real experiments for perturbations to visibly
/// decay. We run far fewer iterations per execution, so we use a coarser
/// (still stable: the update coefficient stays ≈0.13 < 1) timestep that
/// reproduces the paper's observed behaviour — injected temperature errors
/// spread over the grid while their peak magnitude attenuates — within a
/// 20–60-iteration run.
const PRECISION: f32 = 0.1;
const AMB_TEMP: f32 = 80.0;

/// HotSpot sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotspotParams {
    pub rows: usize,
    pub cols: usize,
    /// Stencil iterations (= cooperative steps).
    pub iterations: usize,
    pub logical_threads: usize,
    pub workers: usize,
    pub seed: u64,
}

impl HotspotParams {
    pub fn test() -> Self {
        HotspotParams { rows: 48, cols: 48, iterations: 20, logical_threads: 16, workers: 1, seed: 0x407 }
    }

    pub fn small() -> Self {
        HotspotParams { rows: 96, cols: 96, iterations: 120, logical_threads: 64, workers: 1, seed: 0x407 }
    }

    pub fn paper() -> Self {
        HotspotParams { rows: 160, cols: 160, iterations: 150, logical_threads: phidev::KNC_LOGICAL_THREADS, workers: 1, seed: 0x407 }
    }
}

/// Per-logical-thread loop-control block.
///
/// In the OpenMP original the stripe bounds are *recomputed from the thread
/// id at every parallel region*, so `row_start`/`row_end` are dead at the
/// interrupt points and corrupting them is masked; the sticky state is the
/// thread id and the grid-dimension copies.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    /// Dead-at-boundary bounds, rewritten each iteration (masked targets).
    row_start: u64,
    row_end: u64,
    /// Sticky thread identity and geometry copies (live targets).
    tid_local: u64,
    nthreads_local: u64,
    rows_local: u64,
    cols_local: u64,
    iter_local: u64,
    /// Inner-loop scratch, rewritten before every use (dead at interrupts).
    idx_scratch: u64,
    gr_scratch: u64,
    t_scratch: f32,
    top_scratch: f32,
    left_scratch: f32,
    delta_scratch: f32,
}

/// Live physical constants (injectable `Constant`-class scalars).
#[derive(Debug, Clone, Copy)]
struct Consts {
    step_div_cap: f32,
    rx_1: f32,
    ry_1: f32,
    rz_1: f32,
    amb: f32,
}

impl Ctrl {
    /// Every field's bit pattern, for bitwise state comparison.
    fn bits(&self) -> [u64; 13] {
        [
            self.row_start,
            self.row_end,
            self.tid_local,
            self.nthreads_local,
            self.rows_local,
            self.cols_local,
            self.iter_local,
            self.idx_scratch,
            self.gr_scratch,
            self.t_scratch.to_bits().into(),
            self.top_scratch.to_bits().into(),
            self.left_scratch.to_bits().into(),
            self.delta_scratch.to_bits().into(),
        ]
    }
}

impl Consts {
    fn bits(&self) -> [u32; 5] {
        [self.step_div_cap, self.rx_1, self.ry_1, self.rz_1, self.amb].map(f32::to_bits)
    }
}

/// The state a fault-free run writes, saved at a step boundary. The
/// constants, the power map, the raw setup parameters and `ptr_temp` are
/// never written.
struct Progress {
    t_src: Vec<f32>,
    t_dst: Vec<f32>,
    ctrl: Vec<Ctrl>,
}

/// The read-only inputs and the pre-run state, shared by a target and its
/// clones: restores copy the inputs back from here, and `reset()` restores
/// `start`.
struct Pristine {
    power: Vec<f32>,
    consts: Consts,
    raw: [f32; 6],
    start: Checkpoint,
}

/// The HotSpot fault target.
#[derive(Clone)]
pub struct Hotspot {
    p: HotspotParams,
    t_src: Vec<f32>,
    t_dst: Vec<f32>,
    power: Vec<f32>,
    consts: Consts,
    ctrl: Vec<Ctrl>,
    /// Pointer base for the grids (injectable; the segfault path).
    ptr_temp: u64,
    /// Raw setup parameters, dead once the derived constants are computed —
    /// CAROL-FI still sees them in the frame, and injections there are
    /// masked, the dominant fate of HotSpot's constant-class injections.
    raw: [f32; 6],
    done: usize,
    pristine: Arc<Pristine>,
}

impl Hotspot {
    pub fn new(p: HotspotParams) -> Self {
        assert!(p.rows > 2 && p.cols > 2 && p.iterations > 0);
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let n = p.rows * p.cols;
        // Rodinia's input files hold temperatures ≈ 323–343 K and power
        // densities up to ~0.01 W per cell; we generate the same ranges.
        let t_src: Vec<f32> = (0..n).map(|_| 323.0 + 20.0 * rng.gen::<f32>()).collect();
        let power: Vec<f32> = (0..n).map(|_| 0.01 * rng.gen::<f32>()).collect();

        let grid_height = CHIP_HEIGHT / p.rows as f32;
        let grid_width = CHIP_WIDTH / p.cols as f32;
        let cap = FACTOR_CHIP * SPEC_HEAT_SI * T_CHIP * grid_width * grid_height;
        let rx = grid_width / (2.0 * K_SI * T_CHIP * grid_height);
        let ry = grid_height / (2.0 * K_SI * T_CHIP * grid_width);
        let rz = T_CHIP / (K_SI * grid_height * grid_width);
        let max_slope = MAX_PD / (FACTOR_CHIP * T_CHIP * SPEC_HEAT_SI);
        let step = PRECISION / max_slope;

        let consts = Consts { step_div_cap: step / cap, rx_1: 1.0 / rx, ry_1: 1.0 / ry, rz_1: 1.0 / rz, amb: AMB_TEMP };
        let ctrl: Vec<Ctrl> = (0..p.logical_threads)
            .map(|t| {
                let (s, e) = static_partition(p.rows, p.logical_threads, t);
                Ctrl {
                    row_start: s as u64,
                    row_end: e as u64,
                    tid_local: t as u64,
                    nthreads_local: p.logical_threads as u64,
                    rows_local: p.rows as u64,
                    cols_local: p.cols as u64,
                    iter_local: 0,
                    idx_scratch: 0,
                    gr_scratch: 0,
                    t_scratch: 0.0,
                    top_scratch: 0.0,
                    left_scratch: 0.0,
                    delta_scratch: 0.0,
                }
            })
            .collect();
        let raw = [rx, ry, rz, cap, step, max_slope];
        let start = Checkpoint::new(0, Progress { t_src: t_src.clone(), t_dst: t_src.clone(), ctrl: ctrl.clone() });
        let pristine = Arc::new(Pristine { power: power.clone(), consts, raw, start });
        Hotspot { p, t_dst: t_src.clone(), t_src, power, consts, ctrl, ptr_temp: 0, raw, done: 0, pristine }
    }

    /// Sequential reference implementation (one full run) for tests.
    pub fn reference(p: HotspotParams) -> Vec<f32> {
        let mut h = Hotspot::new(p);
        let (rows, cols) = (p.rows, p.cols);
        for _ in 0..p.iterations {
            for r in 0..rows {
                for c in 0..cols {
                    let idx = r * cols + c;
                    let t = h.t_src[idx];
                    let top = h.t_src[if r > 0 { idx - cols } else { idx }];
                    let bottom = h.t_src[if r + 1 < rows { idx + cols } else { idx }];
                    let left = h.t_src[if c > 0 { idx - 1 } else { idx }];
                    let right = h.t_src[if c + 1 < cols { idx + 1 } else { idx }];
                    h.t_dst[idx] = t + h.consts.step_div_cap
                        * (h.power[idx]
                            + (top + bottom - 2.0 * t) * h.consts.ry_1
                            + (left + right - 2.0 * t) * h.consts.rx_1
                            + (h.consts.amb - t) * h.consts.rz_1);
                }
            }
            std::mem::swap(&mut h.t_src, &mut h.t_dst);
        }
        h.t_src
    }
}

/// One logical thread's share of one stencil iteration.
fn thread_rows(ctl: &mut Ctrl, dst_stripe: &mut [f32], src: &[f32], power: &[f32], k: &Consts, ptrs: (usize, usize)) {
    let (pt, pp) = ptrs;
    let rows_l = ctl.rows_local as usize;
    let cols_l = ctl.cols_local as usize;
    // The parallel region recomputes the stripe bounds from the sticky
    // thread identity (so an injection into row_start/row_end is dead here,
    // but a corrupted tid/nthreads/rows copy derails the recomputation).
    let nthreads = ctl.nthreads_local as usize;
    let tid = ctl.tid_local as usize;
    if nthreads == 0 || tid >= nthreads {
        panic!("corrupted thread identity: tid {tid} of {nthreads}");
    }
    let (s, e) = crate::par::static_partition(rows_l, nthreads, tid);
    ctl.row_start = s as u64;
    ctl.row_end = e as u64;
    let stripe_rows = match ctl.row_end.checked_sub(ctl.row_start) {
        Some(r) => r as usize,
        None => panic!("corrupted row bounds: start {} > end {}", ctl.row_start, ctl.row_end),
    };
    let mut fuel = Fuel::with_factor((stripe_rows as u64 + 1) * (cols_l as u64 + 1), 4.0);
    for r in 0..stripe_rows {
        fuel.burn(1);
        let gr = ctl.row_start as usize + r;
        for c in 0..cols_l {
            fuel.burn(1);
            let idx = gr * cols_l + c;
            ctl.idx_scratch = idx as u64;
            ctl.gr_scratch = gr as u64;
            let t = src[pt + idx];
            let top = src[pt + if gr > 0 { idx - cols_l } else { idx }];
            let bottom = src[pt + if gr + 1 < rows_l { idx + cols_l } else { idx }];
            let left = src[pt + if c > 0 { idx - 1 } else { idx }];
            let right = src[pt + if c + 1 < cols_l { idx + 1 } else { idx }];
            let delta = k.step_div_cap
                * (power[pp + idx] + (top + bottom - 2.0 * t) * k.ry_1 + (left + right - 2.0 * t) * k.rx_1 + (k.amb - t) * k.rz_1);
            ctl.t_scratch = t;
            ctl.top_scratch = top;
            ctl.left_scratch = left;
            ctl.delta_scratch = delta;
            dst_stripe[r * cols_l + c] = t + delta;
        }
    }
    ctl.iter_local += 1;
}

/// The stencil update of one cell, in [`thread_rows`]' operation order.
#[inline(always)]
fn cell_delta(k: &Consts, t: f32, top: f32, bottom: f32, left: f32, right: f32, power: f32) -> f32 {
    k.step_div_cap * (power + (top + bottom - 2.0 * t) * k.ry_1 + (left + right - 2.0 * t) * k.rx_1 + (k.amb - t) * k.rz_1)
}

impl FastPath for Hotspot {
    const FAST_STEPS: &'static str = "kernels/hotspot/fast_steps";

    /// The pointer base is zero and every thread's identity and geometry
    /// copies are intact. The stripe bounds are recomputed from those before
    /// every use, `iter_local` is only ever incremented, and the scratch
    /// fields are only ever written, so none of them steers a loop.
    fn control_is_pristine(&self) -> bool {
        let (nthreads, rows, cols) = (self.p.logical_threads as u64, self.p.rows as u64, self.p.cols as u64);
        self.ptr_temp == 0
            && self.ctrl.iter().enumerate().all(|(t, c)| {
                c.tid_local == t as u64 && c.nthreads_local == nthreads && c.rows_local == rows && c.cols_local == cols
            })
    }

    /// The whole grid in one pass, row by row: the two edge columns are
    /// split off so the interior is a bounds-check-free stencil over
    /// equal-length row slices. Every thread then gets the stripe bounds and
    /// the scratch values of its stripe's last cell, as [`thread_rows`]
    /// leaves them.
    fn fast_step(&mut self) -> StepOutcome {
        let (rows, cols) = (self.p.rows, self.p.cols);
        let k = &self.consts;
        let src = &self.t_src;
        let inner = cols - 2;
        for r in 0..rows {
            let up = if r > 0 { r - 1 } else { r };
            let down = if r + 1 < rows { r + 1 } else { r };
            let row = &src[r * cols..(r + 1) * cols];
            let top = &src[up * cols..(up + 1) * cols];
            let bottom = &src[down * cols..(down + 1) * cols];
            let power = &self.power[r * cols..(r + 1) * cols];
            let out = &mut self.t_dst[r * cols..(r + 1) * cols];
            out[0] = row[0] + cell_delta(k, row[0], top[0], bottom[0], row[0], row[1], power[0]);
            let last = cols - 1;
            out[last] = row[last] + cell_delta(k, row[last], top[last], bottom[last], row[last - 1], row[last], power[last]);
            let (left, mid, right) = (&row[..inner], &row[1..inner + 1], &row[2..]);
            let (top, bottom, power) = (&top[1..inner + 1], &bottom[1..inner + 1], &power[1..inner + 1]);
            let out = &mut out[1..inner + 1];
            for c in 0..inner {
                let t = mid[c];
                out[c] = t + cell_delta(k, t, top[c], bottom[c], left[c], right[c], power[c]);
            }
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let (s, e) = static_partition(rows, self.p.logical_threads, t);
            ctl.row_start = s as u64;
            ctl.row_end = e as u64;
            if e > s {
                let gr = e - 1;
                let idx = gr * cols + cols - 1;
                let t = src[idx];
                let top = src[if gr > 0 { idx - cols } else { idx }];
                let bottom = src[if gr + 1 < rows { idx + cols } else { idx }];
                let left = src[idx - 1];
                ctl.idx_scratch = idx as u64;
                ctl.gr_scratch = gr as u64;
                ctl.t_scratch = t;
                ctl.top_scratch = top;
                ctl.left_scratch = left;
                ctl.delta_scratch = cell_delta(k, t, top, bottom, left, t, self.power[idx]);
            }
            ctl.iter_local += 1;
        }
        std::mem::swap(&mut self.t_src, &mut self.t_dst);
        self.done += 1;
        if self.done >= self.p.iterations {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
}

impl FaultTarget for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn total_steps(&self) -> usize {
        self.p.iterations
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        fast::run_until(self, step_bound, fuel)
    }

    fn step(&mut self) -> StepOutcome {
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            stripe: &'a mut [f32],
        }
        let cols = self.p.cols;
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f32] = &mut self.t_dst;
            for (t, ctl) in self.ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(self.p.rows, self.p.logical_threads, t);
                let (stripe, tail) = rest.split_at_mut((e - s) * cols);
                rest = tail;
                items.push(Item { ctl, stripe });
            }
        }
        let src = &self.t_src;
        let power = &self.power;
        let consts = self.consts;
        let ptrs = (self.ptr_temp as usize, self.ptr_temp as usize);
        par_for_each(&mut items, self.p.workers, |_, item| {
            thread_rows(item.ctl, item.stripe, src, power, &consts, ptrs);
        });
        std::mem::swap(&mut self.t_src, &mut self.t_dst);
        self.done += 1;
        if self.done >= self.p.iterations {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(8 + 5 * self.ctrl.len());
        vars.push(Variable::from_slice(VarInfo::global("temp", VarClass::Matrix, file!(), 1), &mut self.t_src));
        vars.push(Variable::from_slice(VarInfo::global("temp_scratch", VarClass::Matrix, file!(), 2), &mut self.t_dst));
        vars.push(Variable::from_slice(VarInfo::global("power", VarClass::InputArray, file!(), 3), &mut self.power));
        vars.push(Variable::from_scalar(VarInfo::global("step_div_cap", VarClass::Constant, file!(), 4), &mut self.consts.step_div_cap));
        vars.push(Variable::from_scalar(VarInfo::global("rx_1", VarClass::Constant, file!(), 5), &mut self.consts.rx_1));
        vars.push(Variable::from_scalar(VarInfo::global("ry_1", VarClass::Constant, file!(), 6), &mut self.consts.ry_1));
        vars.push(Variable::from_scalar(VarInfo::global("rz_1", VarClass::Constant, file!(), 7), &mut self.consts.rz_1));
        vars.push(Variable::from_scalar(VarInfo::global("amb_temp", VarClass::Constant, file!(), 8), &mut self.consts.amb));
        vars.push(Variable::from_scalar(VarInfo::global("temp_ptr", VarClass::Pointer, file!(), 9), &mut self.ptr_temp));
        {
            let [rx, ry, rz, cap, step, slope] = &mut self.raw;
            vars.push(Variable::from_scalar(VarInfo::global("rx", VarClass::Constant, file!(), 9), rx));
            vars.push(Variable::from_scalar(VarInfo::global("ry", VarClass::Constant, file!(), 9), ry));
            vars.push(Variable::from_scalar(VarInfo::global("rz", VarClass::Constant, file!(), 9), rz));
            vars.push(Variable::from_scalar(VarInfo::global("cap", VarClass::Constant, file!(), 9), cap));
            vars.push(Variable::from_scalar(VarInfo::global("step", VarClass::Constant, file!(), 9), step));
            vars.push(Variable::from_scalar(VarInfo::global("max_slope", VarClass::Constant, file!(), 9), slope));
        }
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "hotspot_kernel";
            vars.push(Variable::from_scalar(VarInfo::local("row_start", VarClass::ControlVariable, f, t16, file!(), 10), &mut ctl.row_start));
            vars.push(Variable::from_scalar(VarInfo::local("row_end", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.row_end));
            vars.push(Variable::from_scalar(VarInfo::local("tid_local", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.tid_local));
            vars.push(Variable::from_scalar(VarInfo::local("nthreads_local", VarClass::ControlVariable, f, t16, file!(), 11), &mut ctl.nthreads_local));
            vars.push(Variable::from_scalar(VarInfo::local("rows_local", VarClass::ControlVariable, f, t16, file!(), 12), &mut ctl.rows_local));
            vars.push(Variable::from_scalar(VarInfo::local("cols_local", VarClass::ControlVariable, f, t16, file!(), 13), &mut ctl.cols_local));
            vars.push(Variable::from_scalar(VarInfo::local("iter_local", VarClass::ControlVariable, f, t16, file!(), 14), &mut ctl.iter_local));
            vars.push(Variable::from_scalar(VarInfo::local("idx", VarClass::ControlVariable, f, t16, file!(), 15), &mut ctl.idx_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("gr", VarClass::ControlVariable, f, t16, file!(), 16), &mut ctl.gr_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("t_val", VarClass::Buffer, f, t16, file!(), 17), &mut ctl.t_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("top_val", VarClass::Buffer, f, t16, file!(), 18), &mut ctl.top_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("left_val", VarClass::Buffer, f, t16, file!(), 19), &mut ctl.left_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("delta", VarClass::Buffer, f, t16, file!(), 20), &mut ctl.delta_scratch));
        }
        vars
    }

    fn output(&self) -> Output {
        // Rodinia's HotSpot writes its result with `%g` (6 significant
        // digits) and the experimental harness compares output files, so
        // sub-1e-6 relative differences are invisible. Quantising here
        // reproduces that comparison granularity.
        let data = self.t_src.iter().map(|&t| crate::quantize::sig6_f32(t)).collect();
        Output::F32Grid { dims: [self.p.rows, self.p.cols, 1], data }
    }

    fn reset(&mut self) -> bool {
        let pristine = Arc::clone(&self.pristine);
        self.restore(&pristine.start)
    }

    fn checkpoint(&self) -> Option<Checkpoint> {
        let progress = Progress { t_src: self.t_src.clone(), t_dst: self.t_dst.clone(), ctrl: self.ctrl.clone() };
        Some(Checkpoint::new(self.done, progress))
    }

    fn restore(&mut self, cp: &Checkpoint) -> bool {
        let Some(s) = cp.state::<Progress>() else { return false };
        self.t_src.clone_from(&s.t_src);
        self.t_dst.clone_from(&s.t_dst);
        self.ctrl.clone_from(&s.ctrl);
        self.power.clone_from(&self.pristine.power);
        self.consts = self.pristine.consts;
        self.raw = self.pristine.raw;
        self.ptr_temp = 0;
        self.done = cp.step();
        true
    }

    fn matches(&self, cp: &Checkpoint) -> bool {
        let Some(s) = cp.state::<Progress>() else { return false };
        self.done == cp.step()
            && self.ptr_temp == 0
            && self.consts.bits() == self.pristine.consts.bits()
            && bits_eq(&self.raw, &self.pristine.raw)
            && fields_eq(&self.ctrl, &s.ctrl, Ctrl::bits)
            && bits_eq(&self.t_src, &s.t_src)
            && bits_eq(&self.t_dst, &s.t_dst)
            && bits_eq(&self.power, &self.pristine.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::check;

    fn run_to_done(mut h: Hotspot) -> Output {
        while h.step() == StepOutcome::Continue {}
        h.output()
    }

    #[test]
    fn matches_sequential_reference_bitexactly() {
        let p = HotspotParams::test();
        let reference: Vec<f32> = Hotspot::reference(p).iter().map(|&t| crate::quantize::sig6_f32(t)).collect();
        let Output::F32Grid { data, .. } = run_to_done(Hotspot::new(p)) else { panic!() };
        assert_eq!(data, reference, "parallel stencil must be bit-identical to the sequential one");
    }

    #[test]
    fn deterministic_across_workers() {
        let p = HotspotParams::test();
        let a = run_to_done(Hotspot::new(p));
        let b = run_to_done(Hotspot::new(HotspotParams { workers: 3, ..p }));
        assert!(a.matches(&b));
    }

    #[test]
    fn temperatures_stay_physical() {
        let Output::F32Grid { data, .. } = run_to_done(Hotspot::new(HotspotParams::test())) else { panic!() };
        for &t in &data {
            assert!(t.is_finite());
            assert!((70.0..400.0).contains(&t), "temperature {t} out of physical range");
        }
    }

    #[test]
    fn grid_perturbation_attenuates() {
        // The open-system term must shrink an injected temperature error —
        // the paper's explanation of HotSpot's tolerance behaviour.
        let p = HotspotParams::test();
        let golden = run_to_done(Hotspot::new(p));
        let mut h = Hotspot::new(p);
        for _ in 0..5 {
            h.step();
        }
        let victim = (p.rows / 2) * p.cols + p.cols / 2;
        let injected = 40.0f32;
        h.t_src[victim] += injected;
        while h.step() == StepOutcome::Continue {}
        let m = h.output().mismatches(&golden);
        assert!(!m.is_empty());
        let worst = m.iter().map(|mm| (mm.got - mm.expected).abs()).fold(0.0f64, f64::max);
        assert!(worst < injected as f64 * 0.9, "perturbation grew: {worst} vs {injected}");
        // ... and it spreads beyond the struck cell.
        assert!(m.len() > 1, "stencil coupling must spread the error");
    }

    #[test]
    fn constant_corruption_is_global_and_severe() {
        let p = HotspotParams::test();
        let golden = run_to_done(Hotspot::new(p));
        let mut h = Hotspot::new(p);
        h.step();
        h.consts.amb = 8000.0; // corrupted ambient temperature
        while h.step() == StepOutcome::Continue {}
        let m = h.output().mismatches(&golden);
        assert_eq!(m.len(), p.rows * p.cols, "every cell is driven by the ambient constant");
    }

    #[test]
    fn exposes_constants_and_controls() {
        let mut h = Hotspot::new(HotspotParams::test());
        let vars = h.variables();
        // 5 live derived constants + 6 dead raw setup parameters.
        assert_eq!(vars.iter().filter(|v| v.info.class == VarClass::Constant).count(), 11);
        assert_eq!(
            vars.iter().filter(|v| v.info.class == VarClass::ControlVariable).count(),
            9 * HotspotParams::test().logical_threads
        );
    }
    #[test]
    fn run_until_fast_path_is_bit_identical_to_step() {
        let h = Hotspot::new(HotspotParams::test());
        assert!(check::fast_matches_exact(&h, 5, |_| {}));
        assert!(check::fast_matches_exact(&Hotspot::new(HotspotParams { logical_threads: 64, ..HotspotParams::test() }), 5, |_| {}));
        check::guard_holds_in_clean_states(&h);
    }

    #[test]
    fn float_faults_in_data_and_constants_flow_through_both_paths() {
        let h = Hotspot::new(HotspotParams::test());
        let last = h.t_src.len() - 1;
        for v in check::F32_FAULTS {
            for cell in [0, 47, 100, last] {
                assert!(check::fast_matches_exact(&h, 5, |h| h.t_src[cell] = v));
            }
            assert!(check::fast_matches_exact(&h, 5, |h| h.t_dst[100] = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.power[47] = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.consts.step_div_cap = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.consts.amb = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.consts.ry_1 = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.raw[2] = v));
            assert!(check::fast_matches_exact(&h, 5, |h| h.ctrl[3].delta_scratch = v));
        }
    }

    #[test]
    fn corrupted_control_falls_back_to_the_exact_path() {
        let h = Hotspot::new(HotspotParams::test());
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ptr_temp = 1));
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ctrl[3].tid_local = 4));
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ctrl[3].nthreads_local = 15));
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ctrl[3].rows_local = 40));
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ctrl[15].cols_local = 47));
        assert!(!check::fast_matches_exact(&h, 5, |h| h.ctrl[0].cols_local = 1 << 40));
        // Dead or write-only control does not steer a loop, so the fast
        // path stays on and must still leave the same bytes behind.
        assert!(check::fast_matches_exact(&h, 5, |h| h.ctrl[2].row_start = 9));
        assert!(check::fast_matches_exact(&h, 5, |h| h.ctrl[2].row_end = u64::MAX));
        assert!(check::fast_matches_exact(&h, 5, |h| h.ctrl[2].iter_local ^= 1 << 40));
        assert!(check::fast_matches_exact(&h, 5, |h| h.ctrl[2].idx_scratch = u64::MAX));
    }

    #[test]
    fn corrupted_cols_local_ends_the_same_in_every_build_profile() {
        // Index and fuel arithmetic on an injected integer overflows. The
        // kernels wrap in every build profile, so a test build records the
        // crash and timeout a release build records — not an overflow panic.
        let run = |cols: u64| {
            let mut h = Hotspot::new(HotspotParams::test());
            h.step();
            h.ctrl[0].cols_local = cols;
            let _quiet = carolfi::panic_guard::silence_panics();
            check::ending(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.run_until(usize::MAX, &mut Fuel::new(u64::MAX));
            })))
        };
        assert_eq!(run(1 << 63), "panic: index out of bounds: the len is 2304 but the index is 9223372036854775808");
        assert_eq!(run(u64::MAX), "timeout", "a wrapped fuel budget times out");
    }
}
