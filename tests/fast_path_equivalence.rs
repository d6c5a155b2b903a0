//! Equivalence pin for the kernels' clean-state fast steps.
//!
//! The `run_until` of DGEMM, HotSpot, LUD and NW takes a specialised fast
//! step while the kernel's control state is clean and the exact `step()`
//! otherwise; LavaMD and CLAMR only ever run `step()`. That is pure
//! performance work: for every kernel, inject and beam, with and without
//! the golden timeline, a trial's record must be byte-identical to the one
//! the same kernel produces when it only ever runs `step()`.

use phi_reliability::beamsim::campaign::{engine_for, execute_strike};
use phi_reliability::beamsim::BeamConfig;
use phi_reliability::carolfi::campaign::execute_trial;
use phi_reliability::carolfi::checkpoint::Checkpoint;
use phi_reliability::carolfi::target::{StepOutcome, Variable};
use phi_reliability::carolfi::{CampaignConfig, FaultTarget, Golden, Output, TargetPool, Timeline, TrialRecord};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A kernel without its fast steps: every method is forwarded except
/// `run_until`, which falls back to the trait default, a loop over `step()`.
struct StepOnly(Box<dyn FaultTarget>);

impl FaultTarget for StepOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn total_steps(&self) -> usize {
        self.0.total_steps()
    }
    fn steps_executed(&self) -> usize {
        self.0.steps_executed()
    }
    fn step(&mut self) -> StepOutcome {
        self.0.step()
    }
    fn variables(&mut self) -> Vec<Variable<'_>> {
        self.0.variables()
    }
    fn output(&self) -> Output {
        self.0.output()
    }
    fn progress(&self) -> f64 {
        self.0.progress()
    }
    fn reset(&mut self) -> bool {
        self.0.reset()
    }
    fn checkpoint(&self) -> Option<Checkpoint> {
        self.0.checkpoint()
    }
    fn restore(&mut self, cp: &Checkpoint) -> bool {
        self.0.restore(cp)
    }
    fn matches(&self, cp: &Checkpoint) -> bool {
        self.0.matches(cp)
    }
}

fn step_only(b: Benchmark) -> StepOnly {
    StepOnly(build(b, SizeClass::Test))
}

/// Per kernel at Test size: the golden output, the golden timeline recorded
/// with fast steps and the one recorded with `step()` only, and the step
/// count. Recorded once for the whole test binary.
struct Kernel {
    bench: Benchmark,
    golden: Output,
    fast_timeline: Timeline,
    exact_timeline: Timeline,
    total_steps: usize,
}

fn kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        Benchmark::ALL
            .into_iter()
            .map(|bench| {
                let golden = golden(bench, SizeClass::Test);
                let mut probe = build(bench, SizeClass::Test);
                let fast_timeline = Timeline::record(&mut probe, &golden);
                let exact_timeline = Timeline::record(&mut step_only(bench), &golden);
                assert!(!fast_timeline.is_empty(), "{bench}: the fast steps no longer reproduce the golden output");
                assert_eq!(fast_timeline.len(), exact_timeline.len(), "{bench}");
                Kernel { bench, golden, fast_timeline, exact_timeline, total_steps: probe.total_steps().max(1) }
            })
            .collect()
    })
}

fn json(r: &TrialRecord) -> String {
    serde_json::to_string(r).expect("records serialize")
}

proptest! {
    #[test]
    fn fast_injections_match_step_only_runs(trial in 0usize..1_000_000, seed: u64) {
        let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
        for k in kernels() {
            let b = k.bench;
            let cfg = CampaignConfig { seed, n_windows: b.n_windows(), ..Default::default() };
            for timeline in [false, true] {
                let (fast_golden, exact_golden) = if timeline {
                    (Golden::new(&k.golden, &k.fast_timeline), Golden::new(&k.golden, &k.exact_timeline))
                } else {
                    (Golden::from(&k.golden), Golden::from(&k.golden))
                };
                let fast = execute_trial(b.label(), &mut build(b, SizeClass::Test), fast_golden, &cfg, k.total_steps, trial).0;
                let exact = execute_trial(b.label(), &mut step_only(b), exact_golden, &cfg, k.total_steps, trial).0;
                prop_assert_eq!(json(&fast), json(&exact), "{} trial {} seed {} timeline {}", b, trial, seed, timeline);
            }
        }
    }

    #[test]
    fn fast_strikes_match_step_only_runs(strike in 0usize..1_000_000, seed: u64) {
        let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
        for k in kernels() {
            let b = k.bench;
            let cfg = BeamConfig { seed, n_windows: b.n_windows(), engine: engine_for(b.label()), ..Default::default() };
            for timeline in [false, true] {
                let (fast_golden, exact_golden) = if timeline {
                    (Golden::new(&k.golden, &k.fast_timeline), Golden::new(&k.golden, &k.exact_timeline))
                } else {
                    (Golden::from(&k.golden), Golden::from(&k.golden))
                };
                let pool = TargetPool::new(|| build(b, SizeClass::Test));
                let fast = execute_strike(b.label(), &pool, fast_golden, &cfg, k.total_steps, strike).0;
                let pool = TargetPool::new(|| step_only(b));
                let exact = execute_strike(b.label(), &pool, exact_golden, &cfg, k.total_steps, strike).0;
                prop_assert_eq!(json(&fast), json(&exact), "{} strike {} seed {} timeline {}", b, strike, seed, timeline);
            }
        }
    }
}
