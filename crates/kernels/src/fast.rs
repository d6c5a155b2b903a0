//! Clean-state fast steps of DGEMM, HotSpot, LUD and NW (DESIGN.md §13.1).
//!
//! Each of these kernels has two ways to execute a step.
//! [`FaultTarget::step`] is the exact path: it reads every loop bound,
//! cursor and pointer base from the injectable state, burns watchdog fuel
//! per iteration and writes every scratch variable on every iteration, so
//! any injected fault plays out the way it would in the original program. [`FastPath::fast_step`] is the same
//! step specialised to a clean control state: it may hoist bookkeeping,
//! drop fuel burns that cannot fire and reorder loops, but it computes every
//! float in the exact path's operation order and leaves every byte of state
//! — outputs, scratch fields (the last element's values), cursors — exactly
//! as [`FaultTarget::step`] would.
//!
//! [`FastPath::control_is_pristine`] is the guard between the two: it holds
//! only while every injectable integer that steers the loops still has its
//! fault-free value at this step boundary. Data (arrays, float constants)
//! is never guarded; it flows through both paths identically.

use carolfi::fuel::Fuel;
use carolfi::target::{FaultTarget, StepOutcome};
use std::ops::{Add, Mul};

/// A kernel with a clean-state fast step.
pub(crate) trait FastPath: FaultTarget {
    /// The telemetry counter of this kernel's fast steps,
    /// `kernels/<name>/fast_steps`.
    const FAST_STEPS: &'static str;

    /// True when every injectable integer that steers this kernel's loops
    /// holds the value a fault-free run has at the current step boundary,
    /// so [`FastPath::fast_step`] is observably identical to `step()`.
    fn control_is_pristine(&self) -> bool;

    /// One step, valid only while [`FastPath::control_is_pristine`] holds.
    fn fast_step(&mut self) -> StepOutcome;
}

/// The `run_until` of every kernel with a fast path: the trait default's
/// accounting (one fuel unit burned before each step, `Done` returned the
/// moment a step reports it), taking the fast step whenever the guard holds
/// and the exact step otherwise, and counting fast steps in
/// [`FastPath::FAST_STEPS`]. A fault that corrupts control drops every
/// later step to the exact path until the state is clean again.
pub(crate) fn run_until<T: FastPath>(target: &mut T, step_bound: usize, fuel: &mut Fuel) -> StepOutcome {
    while target.steps_executed() < step_bound {
        fuel.burn(1);
        let out = if target.control_is_pristine() {
            carolfi::obs::incr(T::FAST_STEPS, 1);
            target.fast_step()
        } else {
            target.step()
        };
        if let StepOutcome::Done = out {
            return StepOutcome::Done;
        }
    }
    StepOutcome::Continue
}

/// Output columns one register block of [`panel_products`] accumulates.
const J_BLOCK: usize = 8;

/// The panel product of the DGEMM and LUD fast steps: for each column `j`
/// of `out` (matrix column `j0 + j`), `apply(out[j], acc)` where
/// `acc = Σ x[k] · panel[k][j0 + j]` over the rows of `panel` (row length
/// `n`). Every `acc` starts at `0.0` and sums `k` in ascending order, the
/// order of the exact paths' scalar loops, but [`J_BLOCK`] columns at a
/// time in independent accumulators that read the panel rows directly.
pub(crate) fn panel_products<T>(x: &[T], panel: &[T], n: usize, j0: usize, out: &mut [T], apply: impl Fn(&mut T, T))
where
    T: Copy + Default + Add<Output = T> + Mul<Output = T>,
{
    let mut blocks = out.chunks_exact_mut(J_BLOCK);
    let mut j = j0;
    for block in &mut blocks {
        let mut acc = [T::default(); J_BLOCK];
        for (&xk, row) in x.iter().zip(panel.chunks_exact(n)) {
            let cols: &[T; J_BLOCK] = row[j..j + J_BLOCK].try_into().expect("a block is J_BLOCK columns");
            for (s, &y) in acc.iter_mut().zip(cols) {
                *s = *s + xk * y;
            }
        }
        for (o, s) in block.iter_mut().zip(acc) {
            apply(o, s);
        }
        j += J_BLOCK;
    }
    for (jj, o) in blocks.into_remainder().iter_mut().enumerate() {
        apply(o, column_product(x, panel, n, j + jj));
    }
}

/// One column of [`panel_products`]: `Σ x[k] · panel[k][j]` from `0.0`,
/// `k` ascending.
pub(crate) fn column_product<T>(x: &[T], panel: &[T], n: usize, j: usize) -> T
where
    T: Copy + Default + Add<Output = T> + Mul<Output = T>,
{
    let mut acc = T::default();
    for (&xk, row) in x.iter().zip(panel.chunks_exact(n)) {
        acc = acc + xk * row[j];
    }
    acc
}

/// Test drivers shared by the kernels' fast-path unit tests.
#[cfg(test)]
pub(crate) mod check {
    use super::*;
    use carolfi::checkpoint::Timeline;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Injected into float data and constants: NaN payloads of both signs,
    /// a negative zero, both infinities and a huge finite value.
    pub const F32_FAULTS: [f32; 6] =
        [f32::from_bits(0x7fa0_1234), f32::from_bits(0xffc0_0bad), -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e30];
    /// The same faults in double precision.
    pub const F64_FAULTS: [f64; 6] = [
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::from_bits(0xfff4_0000_0000_0bad),
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e30,
    ];

    /// Asserts `a` and `b` have run the same number of steps and hold the
    /// same bytes in every injectable variable, naming the first variable
    /// that differs.
    fn assert_same_state<T: FaultTarget>(a: &mut T, b: &mut T, what: &str) {
        assert_eq!(a.steps_executed(), b.steps_executed(), "{}: {what}: step counts differ", a.name());
        let name = a.name();
        for (x, y) in a.variables().iter().zip(&b.variables()) {
            if let Some(at) = x.bytes.iter().zip(y.bytes.iter()).position(|(p, q)| p != q) {
                let (var, thread, elem) = (x.info.name, x.info.thread, at / x.elem_size);
                panic!("{name}: {what}: `{var}` (thread {thread:?}) differs at element {elem}");
            }
        }
    }

    /// How a run ended: finished, or the panic it raised.
    pub fn ending(r: std::thread::Result<()>) -> String {
        match r {
            Ok(()) => "finished".into(),
            Err(p) if carolfi::fuel::is_timeout(p.as_ref()) => "timeout".into(),
            Err(p) => match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
                (Some(s), _) => format!("panic: {s}"),
                (_, Some(s)) => format!("panic: {s}"),
                _ => "panic".into(),
            },
        }
    }

    /// Runs one copy of `fresh` through `run_until` (fast steps while the
    /// guard holds) and one through `step()` alone: to step `mid`, then
    /// `corrupt` both the same way, then to the end. Asserts bit-identical
    /// state (every injectable byte, the step count and, when neither
    /// copy's inputs were corrupted, everything a checkpoint covers) at
    /// `mid` and at the end, the same ending, and one fuel unit per step.
    /// Returns whether the guard held right after the corruption.
    pub fn fast_matches_exact<T: FastPath + Clone>(fresh: &T, mid: usize, corrupt: impl Fn(&mut T)) -> bool {
        let mut slow = fresh.clone();
        let mut fast = fresh.clone();
        assert!(fast.control_is_pristine(), "{}: guard fails on a fresh target", fast.name());
        let mut fuel = Fuel::new(u64::MAX);
        assert_eq!(fast.run_until(mid, &mut fuel), StepOutcome::Continue);
        for _ in 0..mid {
            slow.step();
        }
        assert_same_state(&mut fast, &mut slow, "mid-run divergence");
        let cp = slow.checkpoint().expect("kernels take checkpoints");
        assert!(fast.matches(&cp), "{}: mid-run checkpointed state diverged", fast.name());

        corrupt(&mut slow);
        corrupt(&mut fast);
        let pristine = fast.control_is_pristine();
        let (e_fast, e_slow) = {
            let _quiet = carolfi::panic_guard::silence_panics();
            let r_fast = catch_unwind(AssertUnwindSafe(|| {
                fast.run_until(usize::MAX, &mut fuel);
            }));
            let r_slow = catch_unwind(AssertUnwindSafe(|| while slow.step() == StepOutcome::Continue {}));
            (ending(r_fast), ending(r_slow))
        };
        assert_eq!(e_fast, e_slow, "{}: the runs ended differently", fast.name());
        if e_fast == "finished" {
            assert_same_state(&mut fast, &mut slow, "final state divergence");
            let cp = slow.checkpoint().expect("kernels take checkpoints");
            assert_eq!(fast.matches(&cp), slow.matches(&cp), "{}: final checkpointed state diverged", fast.name());
            assert_eq!(u64::MAX - fuel.remaining(), slow.steps_executed() as u64, "one fuel unit per step");
        }
        pristine
    }

    /// The guard must hold in every clean state a campaign starts a fast
    /// run from — after `new`, at every step boundary of a clean run,
    /// after `reset()` and after `restore()` of every golden checkpoint —
    /// or the fast path silently never runs.
    pub fn guard_holds_in_clean_states<T: FastPath + Clone>(fresh: &T) {
        let mut t = fresh.clone();
        let name = t.name();
        loop {
            assert!(t.control_is_pristine(), "{name}: guard fails at clean step {}", t.steps_executed());
            if t.step() == StepOutcome::Done {
                break;
            }
        }
        let golden = t.output();
        let corrupt_all = |t: &mut T| {
            for v in t.variables() {
                for b in v.bytes.iter_mut() {
                    *b ^= 0x55;
                }
            }
        };
        corrupt_all(&mut t);
        assert!(t.reset());
        assert!(t.control_is_pristine(), "{name}: guard fails after reset()");
        let timeline = Timeline::record(&mut t, &golden);
        assert!(timeline.len() > 1, "{name}: the fast path no longer reproduces the golden output");
        for cp in timeline.points() {
            corrupt_all(&mut t);
            assert!(t.restore(cp));
            assert!(t.control_is_pristine(), "{name}: guard fails after restoring step {}", cp.step());
        }
    }
}
