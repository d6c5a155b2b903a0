//! The Supervisor: runs one victim execution with one fault, classifies the
//! outcome.
//!
//! Mirrors CAROL-FI's workflow (paper §5.1):
//!
//! 1. launch the program (construct the [`FaultTarget`]);
//! 2. let it run at full speed until a pre-sampled interrupt time
//!    (`inject_step`);
//! 3. run the Flip-script (the [`FaultApplicator`]) against the enumerated
//!    thread/frame/variable state;
//! 4. resume at full speed, under a watchdog;
//! 5. on completion compare the output with the golden copy and log
//!    Masked / SDC / DUE.
//!
//! Crashes (panics) and watchdog expiries become DUEs; any output bit
//! mismatch becomes an SDC with a [`DiffSummary`].

use crate::checkpoint::Golden;
use crate::fuel::{is_timeout, watchdog_budget, Fuel};
use crate::models::{FaultApplicator, InjectionDetail};
use crate::output::Output;
use crate::record::{DiffSummary, DueKind};
use crate::target::{FaultTarget, StepOutcome};
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Classified result of a single supervised run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// Output bit-identical to golden.
    Masked,
    /// The applicator reported the fault never reached architectural state.
    HardwareMasked,
    /// Output mismatch.
    Sdc(DiffSummary),
    /// Crash or watchdog expiry.
    Due(DueCause),
}

/// Cause of a DUE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DueCause {
    Panic(String),
    Timeout,
}

impl From<DueCause> for DueKind {
    fn from(c: DueCause) -> DueKind {
        match c {
            DueCause::Panic(message) => DueKind::Crash { message },
            DueCause::Timeout => DueKind::Timeout,
        }
    }
}

/// Supervisor knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Step boundary at which the interrupt fires.
    pub inject_step: usize,
    /// Watchdog limit as a multiple of the nominal step count (CAROL-FI's
    /// user-defined time limit). 4× mirrors the paper's mean overhead
    /// headroom.
    ///
    /// The budget covers the *whole* run: pre-injection steps count against
    /// `max_steps = ceil(total × factor)` just like post-injection ones.
    /// This is deliberate, and pinned by a test
    /// (`late_injection_watchdog_budget_covers_the_whole_run`): CAROL-FI's
    /// real watchdog is a wall-clock limit on the entire victim execution,
    /// so a fault injected at step 0.9·N has ≈(factor − 0.9)·N steps of
    /// headroom, not factor·N — and the fault-free prefix can consume at
    /// most `total` of the budget, leaving at least (factor − 1)·N after any
    /// injection point. Charging the factor against post-injection steps
    /// only would also reclassify some late-window timeout DUEs and break
    /// bit-identity with every journaled campaign.
    pub watchdog_factor: f64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig { inject_step: 0, watchdog_factor: 4.0 }
    }
}

/// Everything `run_trial` learned about one execution.
#[derive(Debug, Clone)]
pub struct TrialResult {
    pub outcome: TrialOutcome,
    /// What the applicator corrupted, if it reached architectural state.
    pub injection: Option<InjectionDetail>,
    /// Step boundary the fault was applied at.
    pub inject_step: usize,
    /// Steps the run executed before finishing or dying.
    pub executed_steps: usize,
    pub stats: TrialStats,
}

/// How a trial reached its outcome, for the campaign report. Telemetry
/// only — never serialized into a [`crate::record::TrialRecord`], so it can
/// never change a record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialStats {
    /// True when the output (or, for a converged trial, the whole state)
    /// was proven bit-identical by a chunked bitwise compare, without an
    /// elementwise scan.
    pub fast_compare: bool,
    /// Fault-free prefix steps skipped by forking from a golden checkpoint.
    pub forked_steps: usize,
    /// True when the trial was stopped at a checkpoint boundary because its
    /// state had re-converged to the golden run's.
    pub converged: bool,
}

/// Campaign-wide sums of [`TrialStats`], shared by a runner's workers and
/// copied into its [`obs::CampaignReport`] at the end.
#[derive(Debug, Default)]
pub struct StatsTally {
    fast_compares: AtomicU64,
    forked_steps: AtomicU64,
    converged: AtomicU64,
}

impl StatsTally {
    pub fn add(&self, s: TrialStats) {
        self.fast_compares.fetch_add(s.fast_compare as u64, Ordering::Relaxed);
        self.forked_steps.fetch_add(s.forked_steps as u64, Ordering::Relaxed);
        self.converged.fetch_add(s.converged as u64, Ordering::Relaxed);
    }

    /// Writes the sums into `report`.
    pub fn fill(&self, report: &mut obs::CampaignReport) {
        report.fast_path_compares = self.fast_compares.load(Ordering::Relaxed);
        report.forked_steps = self.forked_steps.load(Ordering::Relaxed);
        report.converged = self.converged.load(Ordering::Relaxed);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> DueCause {
    if is_timeout(payload.as_ref()) {
        return DueCause::Timeout;
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    DueCause::Panic(msg)
}

/// How the unwind-guarded part of a trial ended.
enum Ended {
    /// The applicator declined: the fault never reached architectural state.
    HardwareMasked,
    /// The state matched the golden checkpoint at this step boundary.
    Converged(usize),
    /// The run finished and produced this output.
    Finished(Output),
}

/// Runs one faulted execution of `target` and classifies it against `golden`.
///
/// The target is constructed by the caller (so beam trials can pre-configure
/// device state); `run_trial` consumes it. Pooled campaign runners use
/// [`run_trial_mut`] instead, which borrows the target so it can be
/// `reset()` and reused.
pub fn run_trial<'g, T: FaultTarget>(
    mut target: T,
    golden: impl Into<Golden<'g>>,
    applicator: &mut dyn FaultApplicator,
    cfg: TrialConfig,
    rng: &mut StdRng,
) -> TrialResult {
    run_trial_mut(&mut target, golden, applicator, cfg, rng)
}

/// [`run_trial`] over a borrowed target.
///
/// The target must be pristine (fresh or just `reset()`). The caller keeps
/// ownership, so a pooled target can be `reset()` and reused for the next
/// trial — unless the outcome was a DUE, after which the state may be torn
/// mid-`step` and the pool must rebuild via its factory.
///
/// When `golden` carries a checkpoint [`Timeline`](crate::checkpoint::Timeline),
/// the trial forks from the latest checkpoint at or before the injection
/// step and stops, Masked, at the first later checkpoint its state matches
/// (see [`crate::checkpoint`]); the result is identical to running from
/// step 0 to the end.
pub fn run_trial_mut<'g, T: FaultTarget>(
    target: &mut T,
    golden: impl Into<Golden<'g>>,
    applicator: &mut dyn FaultApplicator,
    cfg: TrialConfig,
    rng: &mut StdRng,
) -> TrialResult {
    let golden: Golden<'_> = golden.into();
    let timeline = golden.timeline;
    let _trial_span = obs::span!("trial");
    let total = target.total_steps().max(1);
    // Whole-run watchdog budget, precomputed as an integer step count
    // (saturating u128 math — see `fuel::watchdog_budget`; the old f64
    // formula lost precision past 2^53 steps).
    let max_steps = watchdog_budget(total, cfg.watchdog_factor);
    let inject_step = cfg.inject_step.min(total.saturating_sub(1));

    let mut injection: Option<InjectionDetail> = None;
    // Both phases' fuel lives outside the unwind boundary so
    // `executed_steps` can be reconstructed after a crash or timeout. The
    // pre-injection phase is fault-free and was never subject to a timeout
    // check, so its fuel is effectively unbounded; its spend is charged
    // against the whole-run budget when the watchdog arms below.
    let mut pre_fuel = Fuel::new(u64::MAX);
    let mut post_budget = 0u64;
    let mut post_fuel = Fuel::new(0);
    let mut forked = 0usize;

    let run = catch_unwind(AssertUnwindSafe(|| {
        // Phase 1: full speed until the interrupt — one fuel
        // decrement-and-branch per step, no supervisor bookkeeping. A trial
        // forks from the latest golden checkpoint at or before the
        // interrupt, and the skipped prefix is charged to the fuel as if it
        // had run. If the program finishes before the interrupt fires,
        // CAROL-FI logs these as faults injected at the very end; we apply
        // the fault to the final state so the output comparison still sees
        // it (matches injecting into a result buffer).
        {
            let _span = obs::span!("pre_phase");
            if let Some(cp) = timeline.fork_point(inject_step) {
                if target.restore(cp) {
                    forked = cp.step();
                    pre_fuel = Fuel::new(u64::MAX - forked as u64);
                }
            }
            target.run_until(inject_step, &mut pre_fuel);
        }

        // Phase 2: the Flip-script.
        let mut vars = target.variables();
        {
            let _span = obs::span!("fault_apply");
            injection = applicator.apply(&mut vars, rng);
        }
        drop(vars);
        if injection.is_none() {
            return Ended::HardwareMasked; // no need to resume
        }

        // Phase 3: resume at full speed under the watchdog. The remaining
        // budget is the whole-run budget minus the fault-free prefix
        // (`Fuel::burn` zeroes itself before raising the timeout, so a DUE
        // reports exactly `max_steps` executed — identical to the old
        // check-then-step loop).
        let _span = obs::span!("post_phase");
        if target.steps_executed() >= inject_step {
            let spent_pre = u64::MAX - pre_fuel.remaining();
            post_budget = max_steps.saturating_sub(spent_pre);
            post_fuel = Fuel::new(post_budget);
            // The cutoff: at every golden checkpoint from the interrupt on,
            // a victim whose state is bit-identical to the golden state runs
            // the golden tail from there — unless that tail would overrun
            // the watchdog budget, in which case the full run is a timeout
            // and must run on to it. `spent + tail` stays constant along a
            // golden-identical run, so one overrun settles every later
            // boundary too.
            for cp in timeline.at_or_after(inject_step) {
                if target.run_until(cp.step(), &mut post_fuel) == StepOutcome::Done {
                    break;
                }
                let spent = spent_pre + (post_budget - post_fuel.remaining());
                let tail = timeline.steps().saturating_sub(cp.step()) as u64;
                if spent.saturating_add(tail) > max_steps {
                    break;
                }
                if target.matches(cp) {
                    return Ended::Converged(cp.step());
                }
            }
            target.run_until(usize::MAX, &mut post_fuel);
        }
        Ended::Finished(target.output())
    }));
    let mut executed = ((u64::MAX - pre_fuel.remaining()) + (post_budget - post_fuel.remaining())) as usize;
    if forked > 0 {
        obs::incr("supervisor/forked_steps", forked as u64);
    }

    let mut fast_compare = false;
    let mut converged = false;
    let outcome = match run {
        Err(payload) => {
            let cause = panic_message(payload);
            if cause == DueCause::Timeout {
                obs::incr("watchdog.fired", 1);
            }
            TrialOutcome::Due(cause)
        }
        Ok(Ended::HardwareMasked) => TrialOutcome::HardwareMasked,
        Ok(Ended::Converged(boundary)) => {
            // The full run would execute the golden tail from `boundary` and
            // report exactly this many steps.
            executed += timeline.steps() - boundary;
            fast_compare = true;
            converged = true;
            obs::incr("supervisor/converged", 1);
            TrialOutcome::Masked
        }
        Ok(Ended::Finished(output)) => {
            let _span = obs::span!("compare");
            // Fast path: prove bit-identity word-at-a-time before paying for
            // an elementwise scan. `bits_equal` agrees with `mismatches` on
            // equality exactly (both compare bit patterns), so the recorded
            // outcome is unchanged — only the cost of reaching it.
            if output.bits_equal(golden.output) {
                fast_compare = true;
                obs::incr("compare/fast_path", 1);
                TrialOutcome::Masked
            } else {
                let mismatches = output.mismatches(golden.output);
                if mismatches.is_empty() {
                    TrialOutcome::Masked
                } else {
                    TrialOutcome::Sdc(DiffSummary::from_mismatches(&mismatches, output.dims()))
                }
            }
        }
    };

    let stats = TrialStats { fast_compare, forked_steps: forked, converged };
    TrialResult { outcome, injection, inject_step, executed_steps: executed, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{bits_eq, Checkpoint, Timeline};
    use crate::models::{CarolFiApplicator, FaultModel};
    use crate::rng::fork;
    use crate::target::{StepOutcome, VarClass, VarInfo, Variable};

    /// A toy victim: sums a vector in `n` steps, output is the running sums.
    struct Summer {
        data: Vec<f64>,
        acc: Vec<f64>,
        cursor: u64,
        done: usize,
        crash_on_negative: bool,
    }

    impl Summer {
        fn new(n: usize) -> Self {
            Summer { data: (0..n).map(|i| i as f64).collect(), acc: vec![0.0; n], cursor: 0, done: 0, crash_on_negative: false }
        }
    }

    impl FaultTarget for Summer {
        fn name(&self) -> &'static str {
            "summer"
        }
        fn total_steps(&self) -> usize {
            self.data.len()
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let i = self.cursor as usize; // corrupted cursor => OOB panic (DUE)
            let prev = if i == 0 { 0.0 } else { self.acc[i - 1] };
            let v = self.data[i];
            if self.crash_on_negative && v < 0.0 {
                panic!("negative input");
            }
            self.acc[i] = prev + v;
            self.cursor += 1;
            self.done += 1;
            if self.done >= self.data.len() {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn variables(&mut self) -> Vec<Variable<'_>> {
            vec![
                Variable::from_slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), &mut self.data),
                Variable::from_scalar(
                    VarInfo::local("cursor", VarClass::ControlVariable, "sum_loop", 0, file!(), line!()),
                    &mut self.cursor,
                ),
            ]
        }
        fn output(&self) -> Output {
            Output::F64Grid { dims: [self.acc.len(), 1, 1], data: self.acc.clone() }
        }
    }

    fn golden(n: usize) -> Output {
        let mut s = Summer::new(n);
        while s.step() == StepOutcome::Continue {}
        s.output()
    }

    struct NopApplicator;
    impl FaultApplicator for NopApplicator {
        fn apply(&mut self, _: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
            None
        }
    }

    #[test]
    fn hardware_masked_when_applicator_declines() {
        let g = golden(16);
        let mut rng = fork(0, 0);
        let res = run_trial(Summer::new(16), &g, &mut NopApplicator, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        assert_eq!(res.outcome, TrialOutcome::HardwareMasked);
    }

    #[test]
    fn corrupting_unconsumed_data_yields_sdc() {
        let g = golden(16);
        let _quiet = crate::panic_guard::silence_panics();
        // Run many seeds; data corruption after step 2 must yield SDCs (any
        // later element change propagates to all following prefix sums) and
        // cursor corruption may yield DUEs. No trial may corrupt the harness.
        let mut sdc = 0;
        let mut due = 0;
        let mut masked = 0;
        for seed in 0..200 {
            let mut rng = fork(seed, 1);
            let mut app = CarolFiApplicator::new(FaultModel::Random);
            let res = run_trial(Summer::new(16), &g, &mut app, TrialConfig { inject_step: 2, ..Default::default() }, &mut rng);
            match res.outcome {
                TrialOutcome::Sdc(_) => sdc += 1,
                TrialOutcome::Due(_) => due += 1,
                TrialOutcome::Masked => masked += 1,
                TrialOutcome::HardwareMasked => unreachable!(),
            }
        }
        assert!(sdc > 0, "expected some SDCs, got sdc={sdc} due={due} masked={masked}");
        assert!(due > 0, "expected some DUEs from cursor corruption");
    }

    #[test]
    fn masked_when_fault_hits_already_consumed_data() {
        // Inject a Zero fault into data[0] after it was consumed: prefix sums
        // no longer read it, so the output is untouched => Masked.
        struct PinpointZero;
        impl FaultApplicator for PinpointZero {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[0]; // "data"
                for b in &mut v.bytes[0..8] {
                    *b = 0;
                }
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: None,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "zero".into(),
                })
            }
        }
        let g = golden(16);
        let mut rng = fork(3, 0);
        let res = run_trial(Summer::new(16), &g, &mut PinpointZero, TrialConfig { inject_step: 8, ..Default::default() }, &mut rng);
        // data[0] = 0.0 already, so zeroing it is bit-identical => Masked,
        // and the bitwise fast path alone proves it.
        assert_eq!(res.outcome, TrialOutcome::Masked);
        assert!(res.stats.fast_compare, "masked trials classify via the fast path");
    }

    #[test]
    fn oob_cursor_becomes_crash_due() {
        struct HugeCursor;
        impl FaultApplicator for HugeCursor {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[1]; // "cursor"
                v.bytes.copy_from_slice(&u64::MAX.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "random".into(),
                })
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        let mut rng = fork(4, 0);
        let res = run_trial(Summer::new(16), &g, &mut HugeCursor, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        match res.outcome {
            TrialOutcome::Due(DueCause::Panic(msg)) => assert!(msg.contains("index out of bounds"), "{msg}"),
            other => panic!("expected crash DUE, got {other:?}"),
        }
    }

    #[test]
    fn stuck_cursor_becomes_timeout_due() {
        // A cursor pointing back to 0 re-executes forever (done stops
        // matching data.len() only via cursor; here `done` still advances —
        // so emulate a stuck step by resetting cursor below inject point and
        // relying on the watchdog max_steps).
        struct StuckCursor;
        impl FaultApplicator for StuckCursor {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[1];
                v.bytes.copy_from_slice(&0u64.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "zero".into(),
                })
            }
        }
        // Summer with `done` tied to cursor so resetting it loops forever.
        struct LoopySummer(Summer);
        impl FaultTarget for LoopySummer {
            fn name(&self) -> &'static str {
                "loopy"
            }
            fn total_steps(&self) -> usize {
                self.0.total_steps()
            }
            fn steps_executed(&self) -> usize {
                self.0.done
            }
            fn step(&mut self) -> StepOutcome {
                let i = self.0.cursor as usize;
                let prev = if i == 0 { 0.0 } else { self.0.acc[i - 1] };
                self.0.acc[i] = prev + self.0.data[i];
                self.0.cursor += 1;
                self.0.done += 1;
                if self.0.cursor as usize >= self.0.data.len() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            fn variables(&mut self) -> Vec<Variable<'_>> {
                self.0.variables()
            }
            fn output(&self) -> Output {
                self.0.output()
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        let mut rng = fork(5, 0);
        let res = run_trial(
            LoopySummer(Summer::new(16)),
            &g,
            &mut StuckCursor,
            TrialConfig { inject_step: 8, watchdog_factor: 4.0 },
            &mut rng,
        );
        // Resetting cursor to 0 just recomputes the prefix (eventually Done)
        // — executed steps grow but finish under 4x. Output is recomputed
        // identically => Masked is acceptable; what we assert is that the
        // watchdog bound was respected and no hang occurred.
        assert!(res.executed_steps <= 4 * 16 + 1);
    }

    #[test]
    fn late_injection_watchdog_budget_covers_the_whole_run() {
        // Pins the watchdog accounting documented on
        // `TrialConfig::watchdog_factor`: pre-injection steps are charged
        // against `max_steps`, mirroring CAROL-FI's whole-run wall-clock
        // limit. Changing this would reclassify late-window timeout DUEs and
        // break bit-identity with journaled campaigns.
        struct Endless {
            limit: u64,
            done: usize,
        }
        impl FaultTarget for Endless {
            fn name(&self) -> &'static str {
                "endless"
            }
            fn total_steps(&self) -> usize {
                16
            }
            fn steps_executed(&self) -> usize {
                self.done
            }
            fn step(&mut self) -> StepOutcome {
                self.done += 1;
                if (self.done as u64) >= self.limit {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            fn variables(&mut self) -> Vec<Variable<'_>> {
                vec![Variable::from_scalar(
                    VarInfo::local("limit", VarClass::ControlVariable, "loop", 0, file!(), line!()),
                    &mut self.limit,
                )]
            }
            fn output(&self) -> Output {
                Output::F64Grid { dims: [1, 1, 1], data: vec![0.0] }
            }
        }
        struct MaxLimit;
        impl FaultApplicator for MaxLimit {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                let v = &mut vars[0];
                v.bytes.copy_from_slice(&u64::MAX.to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: v.info.thread,
                    decl: String::new(),
                    elem_index: 0,
                    bits: vec![],
                    mechanism: "test".into(),
                })
            }
        }
        let _quiet = crate::panic_guard::silence_panics();
        let g = Output::F64Grid { dims: [1, 1, 1], data: vec![0.0] };
        let mut rng = fork(9, 0);
        let res = run_trial(
            Endless { limit: 16, done: 0 },
            &g,
            &mut MaxLimit,
            TrialConfig { inject_step: 14, watchdog_factor: 4.0 },
            &mut rng,
        );
        assert_eq!(res.outcome, TrialOutcome::Due(DueCause::Timeout));
        // Budget is ceil(16 × 4.0) = 64 steps for the whole run: the 14
        // fault-free steps before the interrupt leave 50 of headroom after
        // it, not another full 64.
        assert_eq!(res.executed_steps, 64);
    }

    #[test]
    fn internal_crash_flag_becomes_due() {
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden(16);
        struct MakeNegative;
        impl FaultApplicator for MakeNegative {
            fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
                // Set data[15] = -1.0.
                let v = &mut vars[0];
                v.bytes[15 * 8..16 * 8].copy_from_slice(&(-1.0f64).to_le_bytes());
                Some(InjectionDetail {
                    var_name: v.info.name.into(),
                    var_class: v.info.class,
                    frame: v.info.frame.label().into(),
                    thread: None,
                    decl: String::new(),
                    elem_index: 15,
                    bits: vec![],
                    mechanism: "test".into(),
                })
            }
        }
        let mut s = Summer::new(16);
        s.crash_on_negative = true;
        let mut rng = fork(6, 0);
        let res = run_trial(s, &g, &mut MakeNegative, TrialConfig { inject_step: 4, ..Default::default() }, &mut rng);
        assert!(matches!(res.outcome, TrialOutcome::Due(DueCause::Panic(_))));
    }

    /// A checkpointable victim: prefix sums, one element per step. Its step
    /// counter is the cursor, and a nonzero `spin` burns steps without
    /// advancing it, so a fault there spends extra steps before the run
    /// reaches the next boundary in the golden state.
    #[derive(Clone)]
    struct Prefix {
        data: Vec<f64>,
        acc: Vec<f64>,
        cursor: u64,
        spin: u64,
    }

    impl Prefix {
        fn new() -> Self {
            Prefix { data: (0..16).map(f64::from).collect(), acc: vec![0.0; 16], cursor: 0, spin: 0 }
        }
    }

    impl FaultTarget for Prefix {
        fn name(&self) -> &'static str {
            "prefix"
        }
        fn total_steps(&self) -> usize {
            self.data.len()
        }
        fn steps_executed(&self) -> usize {
            self.cursor as usize
        }
        fn step(&mut self) -> StepOutcome {
            if self.spin > 0 {
                self.spin -= 1;
                return StepOutcome::Continue;
            }
            let i = self.cursor as usize;
            self.acc[i] = if i == 0 { 0.0 } else { self.acc[i - 1] } + self.data[i];
            self.cursor += 1;
            if self.cursor as usize >= self.data.len() {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn variables(&mut self) -> Vec<Variable<'_>> {
            vec![
                Variable::from_slice(VarInfo::global("acc", VarClass::Matrix, file!(), line!()), &mut self.acc),
                Variable::from_scalar(VarInfo::local("spin", VarClass::ControlVariable, "loop", 0, file!(), line!()), &mut self.spin),
            ]
        }
        fn output(&self) -> Output {
            Output::F64Grid { dims: [self.acc.len(), 1, 1], data: self.acc.clone() }
        }
        fn checkpoint(&self) -> Option<Checkpoint> {
            Some(Checkpoint::new(self.cursor as usize, self.clone()))
        }
        fn restore(&mut self, cp: &Checkpoint) -> bool {
            let Some(s) = cp.state::<Prefix>() else { return false };
            self.clone_from(s);
            true
        }
        fn matches(&self, cp: &Checkpoint) -> bool {
            cp.state::<Prefix>().is_some_and(|s| {
                self.cursor == s.cursor
                    && self.spin == s.spin
                    && bits_eq(&self.acc, &s.acc)
                    && bits_eq(&self.data, &s.data)
            })
        }
    }

    /// Applies a fixed edit to the enumerated variables.
    struct Poke(fn(&mut [Variable<'_>]));
    impl FaultApplicator for Poke {
        fn apply(&mut self, vars: &mut [Variable<'_>], _: &mut StdRng) -> Option<InjectionDetail> {
            (self.0)(vars);
            Some(InjectionDetail {
                var_name: vars[0].info.name.into(),
                var_class: vars[0].info.class,
                frame: vars[0].info.frame.label().into(),
                thread: None,
                decl: String::new(),
                elem_index: 0,
                bits: vec![],
                mechanism: "test".into(),
            })
        }
    }

    /// The trial with and without the golden timeline, which must agree.
    fn both_ways(poke: fn(&mut [Variable<'_>]), cfg: TrialConfig) -> (TrialResult, TrialResult) {
        let mut probe = Prefix::new();
        let g = {
            let mut t = Prefix::new();
            while t.step() == StepOutcome::Continue {}
            t.output()
        };
        let timeline = Timeline::record(&mut probe, &g);
        assert_eq!(timeline.len(), 16, "one checkpoint per step of a 16-step run");
        let forked = run_trial(Prefix::new(), Golden::new(&g, &timeline), &mut Poke(poke), cfg, &mut fork(1, 0));
        let full = run_trial(Prefix::new(), &g, &mut Poke(poke), cfg, &mut fork(1, 0));
        assert_eq!((full.stats.forked_steps, full.stats.converged), (0, false));
        assert_eq!(forked.outcome, full.outcome);
        assert_eq!(forked.executed_steps, full.executed_steps);
        (forked, full)
    }

    fn spin_8(vars: &mut [Variable<'_>]) {
        vars[1].bytes.copy_from_slice(&8u64.to_le_bytes());
    }

    #[test]
    fn a_delayed_victim_converges_and_reports_the_full_run_steps() {
        // Spinning 8 steps at step 8 leaves the state golden again at the
        // step-9 boundary, after 8 + 9 steps of fuel. The full run spends
        // the 7-step golden tail on top: 24 executed.
        let (forked, _) = both_ways(spin_8, TrialConfig { inject_step: 8, watchdog_factor: 4.0 });
        assert_eq!(forked.outcome, TrialOutcome::Masked);
        assert!(forked.stats.converged);
        assert_eq!(forked.stats.forked_steps, 8, "forked from the step-8 checkpoint");
        assert_eq!(forked.executed_steps, 24);
    }

    #[test]
    fn converged_but_over_budget_still_times_out() {
        let _quiet = crate::panic_guard::silence_panics();
        // The same spin under a 20-step budget: the state re-converges at
        // step 9 with 17 steps spent, but the golden tail needs 7 more, so
        // the full run is a timeout DUE and the cutoff must not hide it.
        let (forked, _) = both_ways(spin_8, TrialConfig { inject_step: 8, watchdog_factor: 1.25 });
        assert_eq!(forked.outcome, TrialOutcome::Due(DueCause::Timeout));
        assert!(!forked.stats.converged);
        assert_eq!(forked.executed_steps, 20, "executed_steps == max_steps");
    }

    #[test]
    fn a_signed_zero_flip_is_not_convergence() {
        // acc[0] is 0.0 and never written again: flipping its sign bit
        // leaves a state that is equal as floats but not as bits, and the
        // output carries it. An `f64 ==` cutoff would call it Masked.
        let (forked, _) = both_ways(|v| v[0].bytes[7] ^= 0x80, TrialConfig { inject_step: 4, watchdog_factor: 4.0 });
        assert!(matches!(forked.outcome, TrialOutcome::Sdc(_)), "{:?}", forked.outcome);
        assert!(!forked.stats.converged);
    }

    #[test]
    fn a_mismatched_golden_disables_the_timeline() {
        let wrong = Output::F64Grid { dims: [16, 1, 1], data: vec![0.0; 16] };
        let timeline = Timeline::record(&mut Prefix::new(), &wrong);
        assert!(timeline.is_empty(), "a timeline must reproduce the caller's golden output");
        let res = run_trial(
            Prefix::new(),
            Golden::new(&wrong, &timeline),
            &mut Poke(spin_8),
            TrialConfig { inject_step: 8, watchdog_factor: 4.0 },
            &mut fork(1, 0),
        );
        assert_eq!(res.stats.forked_steps, 0);
        assert!(!res.stats.converged);
        // Summer-style targets take no checkpoints at all.
        assert!(Timeline::record(&mut Summer::new(16), &golden(16)).is_empty());
    }
}
