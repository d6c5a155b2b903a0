//! DGEMM — blocked dense matrix multiplication (paper §3.2).
//!
//! "DGEMM is an optimized version of a matrix multiplication algorithm […] a
//! compute-bound program that is often used to rank supercomputers."
//!
//! The port computes `C = A × B` over double-precision square matrices with
//! a blocked k-loop: each cooperative step multiplies one k-panel, so a run
//! takes `⌈n / block⌉` steps. Rows of `C` are statically partitioned over
//! the logical threads (the paper's 228 OpenMP threads); every logical
//! thread carries **nine private integer loop-control variables** — the
//! population the paper singles out: "each of the 228 threads active in
//! parallel on the Xeon Phi allocates those nine integers to have its own
//! copy of the loop control variables" (§6, DGEMM). Corrupting them skips or
//! repeats panels (line/square SDCs) or drives indexing out of bounds
//! (crash DUEs); corrupted loop *bounds* that spin without touching memory
//! exhaust the fuel watchdog (timeout DUEs).

use crate::fast::{self, FastPath};
use crate::par::{par_for_each, static_partition};
use carolfi::checkpoint::{bits_eq, fields_eq, Checkpoint};
use carolfi::fuel::Fuel;
use carolfi::output::Output;
use carolfi::target::{FaultTarget, StepOutcome, VarClass, VarInfo, Variable};
use rand::Rng;
use std::sync::Arc;

/// DGEMM sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct DgemmParams {
    /// Matrix dimension (n × n).
    pub n: usize,
    /// k-panel width per step.
    pub block: usize,
    /// Logical (OpenMP-style) threads.
    pub logical_threads: usize,
    /// OS worker threads for the inner loops.
    pub workers: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl DgemmParams {
    /// Tiny instance for unit tests.
    pub fn test() -> Self {
        DgemmParams { n: 48, block: 8, logical_threads: 16, workers: 1, seed: 0xD6E3 }
    }

    /// Small instance for fast campaigns.
    pub fn small() -> Self {
        DgemmParams { n: 128, block: 16, logical_threads: 64, workers: 1, seed: 0xD6E3 }
    }

    /// Paper-shaped instance (228 logical threads).
    pub fn paper() -> Self {
        DgemmParams { n: 256, block: 16, logical_threads: phidev::KNC_LOGICAL_THREADS, workers: 1, seed: 0xD6E3 }
    }
}

/// Per-logical-thread control block: the nine integers of paper §6.
#[derive(Debug, Clone, Copy)]
struct Ctrl {
    /// Next k-panel this thread processes.
    kb: u64,
    /// First row of the thread's C stripe.
    row_start: u64,
    /// One past the last row of the stripe.
    row_end: u64,
    /// Thread-local copy of the matrix dimension (kept in a register by the
    /// original OpenMP code; injectable like any local).
    n_local: u64,
    /// Thread-local copy of the panel width.
    block_local: u64,
    /// Thread-local copy of the panel count.
    nb_local: u64,
    /// Resume cursors for the i/j/k loops (zero at step boundaries in a
    /// fault-free run).
    i_cur: u64,
    j_cur: u64,
    k_cur: u64,
    /// Accumulator / index scratch, rewritten before every use.
    acc_scratch: f64,
    aidx_scratch: u64,
}

impl Ctrl {
    /// Every field's bit pattern, for bitwise state comparison.
    fn bits(&self) -> [u64; 11] {
        [
            self.kb,
            self.row_start,
            self.row_end,
            self.n_local,
            self.block_local,
            self.nb_local,
            self.i_cur,
            self.j_cur,
            self.k_cur,
            self.acc_scratch.to_bits(),
            self.aidx_scratch,
        ]
    }
}

/// The state a fault-free run writes, saved at a step boundary. `ptr_a`
/// stays 0 and the inputs `a`/`b` are never written.
struct Progress {
    c: Vec<f64>,
    ctrl: Vec<Ctrl>,
}

/// The read-only inputs and the pre-run state, shared by a target and its
/// clones: restores copy the inputs back from here, and `reset()` restores
/// `start`.
struct Pristine {
    a: Vec<f64>,
    b: Vec<f64>,
    start: Checkpoint,
}

/// The DGEMM fault target.
#[derive(Clone)]
pub struct Dgemm {
    p: DgemmParams,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    ctrl: Vec<Ctrl>,
    /// Pointer base for the input matrices (the C code's pointer local;
    /// injectable — the segfault path).
    ptr_a: u64,
    done: usize,
    total: usize,
    pristine: Arc<Pristine>,
}

impl Dgemm {
    pub fn new(p: DgemmParams) -> Self {
        assert!(p.n > 0 && p.block > 0 && p.logical_threads > 0);
        let mut rng = carolfi::rng::fork(p.seed, 0);
        let a: Vec<f64> = (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let nb = p.n.div_ceil(p.block);
        let ctrl: Vec<Ctrl> = (0..p.logical_threads)
            .map(|t| {
                let (s, e) = static_partition(p.n, p.logical_threads, t);
                Ctrl {
                    kb: 0,
                    row_start: s as u64,
                    row_end: e as u64,
                    n_local: p.n as u64,
                    block_local: p.block as u64,
                    nb_local: nb as u64,
                    i_cur: 0,
                    j_cur: 0,
                    k_cur: 0,
                    acc_scratch: 0.0,
                    aidx_scratch: 0,
                }
            })
            .collect();
        let c = vec![0.0; p.n * p.n];
        let start = Checkpoint::new(0, Progress { c: c.clone(), ctrl: ctrl.clone() });
        let pristine = Arc::new(Pristine { a: a.clone(), b: b.clone(), start });
        Dgemm { p, a, b, c, ctrl, ptr_a: 0, done: 0, total: nb, pristine }
    }

    /// Reference (unblocked, sequential) product for correctness tests.
    pub fn reference(p: DgemmParams) -> Vec<f64> {
        let g = Dgemm::new(p);
        let n = p.n;
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += g.a[i * n + k] * g.b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

/// One logical thread's share of one step: multiply its C stripe by one
/// k-panel. All reads are driven by the (injectable) control block; writes
/// land in the thread's pre-partitioned physical stripe, so corrupted
/// control can produce wrong values or panics but never a data race.
fn thread_panel(ctl: &mut Ctrl, c_stripe: &mut [f64], a: &[f64], b: &[f64], n_phys: usize, pa: usize) {
    if ctl.kb >= ctl.nb_local {
        return; // finished all panels (or corrupted past the end — work lost)
    }
    let n_l = ctl.n_local as usize;
    let block_l = ctl.block_local as usize;
    let k0 = (ctl.kb as usize).saturating_mul(block_l);
    let rows = match ctl.row_end.checked_sub(ctl.row_start) {
        Some(r) => r as usize,
        None => panic!("corrupted row bounds: start {} > end {}", ctl.row_start, ctl.row_end),
    };
    // Fuel bounds the loop *counts* (a corrupted bound that spins without
    // touching memory); OOB indexing panics on its own.
    let mut fuel = Fuel::with_factor((rows as u64 + 1) * (n_phys as u64 + 1), 4.0);
    let i0 = if rows == 0 { 0 } else { (ctl.i_cur as usize) % rows };
    for i in i0..rows {
        fuel.burn(1);
        ctl.i_cur = i as u64;
        let arow = (ctl.row_start as usize + i) * n_l;
        let crow = i * n_l;
        let j0 = (ctl.j_cur as usize) % n_l.max(1);
        for j in j0..n_l {
            fuel.burn(1);
            let mut acc = 0.0;
            let kstart = k0 + (ctl.k_cur as usize) % block_l.max(1);
            for k in kstart..k0 + block_l {
                acc += a[pa + arow + k] * b[pa + k * n_l + j];
            }
            ctl.k_cur = 0;
            ctl.acc_scratch = acc;
            ctl.aidx_scratch = (arow + j) as u64;
            c_stripe[crow + j] += acc;
        }
        ctl.j_cur = 0;
    }
    ctl.i_cur = 0;
    ctl.kb += 1;
}

impl FastPath for Dgemm {
    const FAST_STEPS: &'static str = "kernels/dgemm/fast_steps";

    /// The pointer base is zero and every thread's nine control integers
    /// hold exactly the values a clean run has at this step boundary.
    fn control_is_pristine(&self) -> bool {
        if self.ptr_a != 0 || !self.p.n.is_multiple_of(self.p.block) {
            return false;
        }
        let step = self.done as u64;
        let (n, block, nb) = (self.p.n as u64, self.p.block as u64, self.total as u64);
        self.ctrl.iter().enumerate().all(|(t, c)| {
            let (s, e) = static_partition(self.p.n, self.p.logical_threads, t);
            c.kb == step
                && c.row_start == s as u64
                && c.row_end == e as u64
                && c.n_local == n
                && c.block_local == block
                && c.nb_local == nb
                && c.i_cur == 0
                && c.j_cur == 0
                && c.k_cur == 0
        })
    }

    /// Every thread multiplies its C stripe by the current k-panel with no
    /// resume-cursor writes and no fuel burns, register-blocked over output
    /// columns ([`fast::panel_products`]); each product starts at `0.0` and
    /// sums `k` in ascending order, exactly like [`thread_panel`].
    fn fast_step(&mut self) -> StepOutcome {
        let n = self.p.n;
        let block = self.p.block;
        if self.done < self.total {
            let k0 = self.done * block;
            let panel = &self.b[k0 * n..(k0 + block) * n];
            for ctl in self.ctrl.iter_mut() {
                let (rs, re) = (ctl.row_start as usize, ctl.row_end as usize);
                for i in rs..re {
                    let ap = &self.a[i * n + k0..i * n + k0 + block];
                    fast::panel_products(ap, panel, n, 0, &mut self.c[i * n..i * n + n], |c, acc| *c += acc);
                }
                // The exact path rewrites its scratch every iteration; only
                // the last element's values survive the step.
                if re > rs {
                    ctl.acc_scratch = fast::column_product(&self.a[(re - 1) * n + k0..(re - 1) * n + k0 + block], panel, n, n - 1);
                    ctl.aidx_scratch = ((re - 1) * n + (n - 1)) as u64;
                }
                ctl.kb += 1;
            }
        }
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
}

impl FaultTarget for Dgemm {
    fn name(&self) -> &'static str {
        "dgemm"
    }

    fn total_steps(&self) -> usize {
        self.total
    }

    fn steps_executed(&self) -> usize {
        self.done
    }

    fn step(&mut self) -> StepOutcome {
        let n = self.p.n;
        // Zip each logical thread's control block with its physical C stripe.
        struct Item<'a> {
            ctl: &'a mut Ctrl,
            stripe: &'a mut [f64],
        }
        let mut items: Vec<Item<'_>> = Vec::with_capacity(self.ctrl.len());
        {
            let mut rest: &mut [f64] = &mut self.c;
            let mut prev_end = 0usize;
            for (t, ctl) in self.ctrl.iter_mut().enumerate() {
                let (s, e) = static_partition(n, self.p.logical_threads, t);
                debug_assert_eq!(s, prev_end);
                let (stripe, tail) = rest.split_at_mut((e - s) * n);
                rest = tail;
                prev_end = e;
                items.push(Item { ctl, stripe });
            }
        }
        let a = &self.a;
        let b = &self.b;
        let pa = self.ptr_a as usize;
        par_for_each(&mut items, self.p.workers, |_, item| {
            thread_panel(item.ctl, item.stripe, a, b, n, pa);
        });
        self.done += 1;
        if self.done >= self.total {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn run_until(&mut self, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
        fast::run_until(self, step_bound, fuel)
    }

    fn variables(&mut self) -> Vec<Variable<'_>> {
        let mut vars = Vec::with_capacity(3 + 9 * self.ctrl.len());
        vars.push(Variable::from_slice(VarInfo::global("matrix_a", VarClass::Matrix, file!(), 30), &mut self.a));
        vars.push(Variable::from_slice(VarInfo::global("matrix_b", VarClass::Matrix, file!(), 31), &mut self.b));
        vars.push(Variable::from_slice(VarInfo::global("matrix_c", VarClass::Matrix, file!(), 32), &mut self.c));
        vars.push(Variable::from_scalar(VarInfo::global("matrix_ptr", VarClass::Pointer, file!(), 33), &mut self.ptr_a));
        for (t, ctl) in self.ctrl.iter_mut().enumerate() {
            let t16 = t as u16;
            let f = "gemm_kernel";
            vars.push(Variable::from_scalar(VarInfo::local("kb", VarClass::ControlVariable, f, t16, file!(), 60), &mut ctl.kb));
            vars.push(Variable::from_scalar(VarInfo::local("row_start", VarClass::ControlVariable, f, t16, file!(), 61), &mut ctl.row_start));
            vars.push(Variable::from_scalar(VarInfo::local("row_end", VarClass::ControlVariable, f, t16, file!(), 62), &mut ctl.row_end));
            vars.push(Variable::from_scalar(VarInfo::local("n_local", VarClass::ControlVariable, f, t16, file!(), 63), &mut ctl.n_local));
            vars.push(Variable::from_scalar(VarInfo::local("block_local", VarClass::ControlVariable, f, t16, file!(), 64), &mut ctl.block_local));
            vars.push(Variable::from_scalar(VarInfo::local("nb_local", VarClass::ControlVariable, f, t16, file!(), 65), &mut ctl.nb_local));
            vars.push(Variable::from_scalar(VarInfo::local("i_cur", VarClass::ControlVariable, f, t16, file!(), 66), &mut ctl.i_cur));
            vars.push(Variable::from_scalar(VarInfo::local("j_cur", VarClass::ControlVariable, f, t16, file!(), 67), &mut ctl.j_cur));
            vars.push(Variable::from_scalar(VarInfo::local("k_cur", VarClass::ControlVariable, f, t16, file!(), 68), &mut ctl.k_cur));
            vars.push(Variable::from_scalar(VarInfo::local("acc", VarClass::Buffer, f, t16, file!(), 69), &mut ctl.acc_scratch));
            vars.push(Variable::from_scalar(VarInfo::local("a_idx", VarClass::Buffer, f, t16, file!(), 70), &mut ctl.aidx_scratch));
        }
        vars
    }

    fn output(&self) -> Output {
        Output::F64Grid { dims: [self.p.n, self.p.n, 1], data: self.c.clone() }
    }

    fn reset(&mut self) -> bool {
        let pristine = Arc::clone(&self.pristine);
        self.restore(&pristine.start)
    }

    fn checkpoint(&self) -> Option<Checkpoint> {
        Some(Checkpoint::new(self.done, Progress { c: self.c.clone(), ctrl: self.ctrl.clone() }))
    }

    fn restore(&mut self, cp: &Checkpoint) -> bool {
        let Some(s) = cp.state::<Progress>() else { return false };
        self.a.clone_from(&self.pristine.a);
        self.b.clone_from(&self.pristine.b);
        self.c.clone_from(&s.c);
        self.ctrl.clone_from(&s.ctrl);
        self.ptr_a = 0;
        self.done = cp.step();
        true
    }

    fn matches(&self, cp: &Checkpoint) -> bool {
        let Some(s) = cp.state::<Progress>() else { return false };
        self.done == cp.step()
            && self.ptr_a == 0
            && fields_eq(&self.ctrl, &s.ctrl, Ctrl::bits)
            && bits_eq(&self.c, &s.c)
            && bits_eq(&self.a, &self.pristine.a)
            && bits_eq(&self.b, &self.pristine.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::check;

    fn run_to_done(mut g: Dgemm) -> Output {
        while g.step() == StepOutcome::Continue {}
        g.output()
    }

    #[test]
    fn run_until_fast_path_is_bit_identical_to_step() {
        let g = Dgemm::new(DgemmParams::test());
        assert!(check::fast_matches_exact(&g, 2, |_| {}));
        // A width that leaves columns outside the register blocks.
        assert!(check::fast_matches_exact(&Dgemm::new(DgemmParams { n: 44, block: 4, ..DgemmParams::test() }), 3, |_| {}));
        check::guard_holds_in_clean_states(&g);
    }

    #[test]
    fn float_faults_in_data_flow_through_both_paths() {
        let g = Dgemm::new(DgemmParams::test());
        let n = DgemmParams::test().n;
        for v in check::F64_FAULTS {
            for idx in [0, 3 * n + 17, n * n - 1] {
                assert!(check::fast_matches_exact(&g, 2, |g| g.a[idx] = v));
                assert!(check::fast_matches_exact(&g, 2, |g| g.b[idx] = v));
                assert!(check::fast_matches_exact(&g, 2, |g| g.c[idx] = v));
            }
            assert!(check::fast_matches_exact(&g, 2, |g| g.ctrl[5].acc_scratch = v));
        }
    }

    #[test]
    fn corrupted_control_falls_back_to_the_exact_path() {
        let g = Dgemm::new(DgemmParams::test());
        // Thread 3 repeats a panel.
        assert!(!check::fast_matches_exact(&g, 2, |g| g.ctrl[3].kb = 0));
        assert!(!check::fast_matches_exact(&g, 2, |g| g.ctrl[3].i_cur = 1));
        assert!(!check::fast_matches_exact(&g, 2, |g| g.ctrl[0].row_end = 2));
        assert!(!check::fast_matches_exact(&g, 2, |g| g.ctrl[7].block_local = 4));
        assert!(!check::fast_matches_exact(&g, 2, |g| g.ptr_a = 8));
        // The scratch index is only ever written.
        assert!(check::fast_matches_exact(&g, 2, |g| g.ctrl[7].aidx_scratch = u64::MAX));
    }

    #[test]
    fn matches_reference_product() {
        let p = DgemmParams::test();
        let reference = Dgemm::reference(p);
        let out = run_to_done(Dgemm::new(p));
        let Output::F64Grid { data, .. } = out else { panic!() };
        for (i, (&got, &exp)) in data.iter().zip(&reference).enumerate() {
            assert!((got - exp).abs() <= 1e-10 * exp.abs().max(1.0), "element {i}: {got} vs {exp}");
        }
    }

    #[test]
    fn is_deterministic_across_runs_and_workers() {
        let p = DgemmParams::test();
        let a = run_to_done(Dgemm::new(p));
        let b = run_to_done(Dgemm::new(p));
        let c = run_to_done(Dgemm::new(DgemmParams { workers: 4, ..p }));
        assert!(a.matches(&b));
        assert!(a.matches(&c));
    }

    #[test]
    fn exposes_nine_controls_per_thread() {
        let p = DgemmParams::test();
        let mut g = Dgemm::new(p);
        let vars = g.variables();
        let controls = vars.iter().filter(|v| v.info.class == VarClass::ControlVariable).count();
        assert_eq!(controls, 9 * p.logical_threads);
        let matrices = vars.iter().filter(|v| v.info.class == VarClass::Matrix).count();
        assert_eq!(matrices, 3);
    }

    #[test]
    fn total_steps_is_panel_count() {
        let p = DgemmParams::test();
        assert_eq!(Dgemm::new(p).total_steps(), p.n.div_ceil(p.block));
    }

    #[test]
    fn corrupted_row_bounds_panic() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut g = Dgemm::new(DgemmParams::test());
        g.step();
        g.ctrl[0].row_start = 1000;
        g.ctrl[0].row_end = 0;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.step()));
        assert!(r.is_err());
    }

    #[test]
    fn corrupted_kb_skips_work_silently() {
        let p = DgemmParams::test();
        let golden = run_to_done(Dgemm::new(p));
        let mut g = Dgemm::new(p);
        g.step();
        g.ctrl[3].kb = g.ctrl[3].nb_local; // thread 3 believes it is done
        while g.step() == StepOutcome::Continue {}
        let m = g.output().mismatches(&golden);
        assert!(!m.is_empty(), "missing panels must corrupt thread 3's stripe");
        // All corrupted elements lie inside thread 3's row stripe.
        let (s, e) = static_partition(p.n, p.logical_threads, 3);
        for mm in &m {
            assert!(mm.coord[0] >= s && mm.coord[0] < e);
        }
    }

    #[test]
    fn corrupted_n_local_causes_due_or_sdc_not_hang() {
        let _quiet = carolfi::panic_guard::silence_panics();
        let mut g = Dgemm::new(DgemmParams::test());
        g.step();
        g.ctrl[1].n_local = u64::MAX / 2;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| while g.step() == StepOutcome::Continue {}));
        // Either a crash DUE (OOB) or fuel timeout; must not hang.
        assert!(r.is_err());
    }
}
