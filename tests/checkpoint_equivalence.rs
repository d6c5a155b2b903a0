//! Equivalence pin for golden-checkpoint forking and the convergence
//! cutoff.
//!
//! A trial driven with the golden timeline forks from the checkpoint nearest
//! its injection step and stops at the first boundary where its state is
//! golden again. Both are pure performance work: for every kernel, inject
//! and beam, the record must be the one the same target produces with
//! checkpoints disabled (a bare golden output, run from step 0 to the end).

use phi_reliability::beamsim::campaign::{engine_for, execute_strike};
use phi_reliability::beamsim::BeamConfig;
use phi_reliability::carolfi::campaign::{execute_trial, execute_trial_attempt};
use phi_reliability::carolfi::{CampaignConfig, FaultTarget, Golden, Output, TargetPool, Timeline, TrialRecord};
use phi_reliability::kernels::{build, golden, Benchmark, SizeClass};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Golden output, timeline and step count of every kernel at Test size,
/// recorded once for the whole test binary.
fn goldens() -> &'static [(Benchmark, Output, Timeline, usize)] {
    static GOLDENS: OnceLock<Vec<(Benchmark, Output, Timeline, usize)>> = OnceLock::new();
    GOLDENS.get_or_init(|| {
        Benchmark::ALL
            .into_iter()
            .map(|b| {
                let g = golden(b, SizeClass::Test);
                let mut probe = build(b, SizeClass::Test);
                let timeline = Timeline::record(&mut probe, &g);
                assert!(!timeline.is_empty(), "{b}: no golden timeline");
                (b, g, timeline, probe.total_steps().max(1))
            })
            .collect()
    })
}

fn json(r: &TrialRecord) -> String {
    serde_json::to_string(r).expect("records serialize")
}

proptest! {
    #[test]
    fn checkpointed_injections_match_full_runs(trial in 0usize..1_000_000, seed: u64) {
        let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
        for (b, g, timeline, total_steps) in goldens() {
            let cfg = CampaignConfig { seed, n_windows: b.n_windows(), ..Default::default() };
            let mut target = build(*b, SizeClass::Test);
            let forked = execute_trial(b.label(), &mut target, Golden::new(g, timeline), &cfg, *total_steps, trial).0;
            let mut target = build(*b, SizeClass::Test);
            let full = execute_trial(b.label(), &mut target, g, &cfg, *total_steps, trial).0;
            prop_assert_eq!(json(&forked), json(&full), "{} trial {} seed {}", b, trial, seed);
        }
    }

    #[test]
    fn checkpointed_strikes_match_full_runs(strike in 0usize..1_000_000, seed: u64) {
        let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
        for (b, g, timeline, total_steps) in goldens() {
            let cfg = BeamConfig { seed, n_windows: b.n_windows(), engine: engine_for(b.label()), ..Default::default() };
            let pool = TargetPool::new(|| build(*b, SizeClass::Test));
            let forked = execute_strike(b.label(), &pool, Golden::new(g, timeline), &cfg, *total_steps, strike).0;
            let pool = TargetPool::new(|| build(*b, SizeClass::Test));
            let full = execute_strike(b.label(), &pool, g, &cfg, *total_steps, strike).0;
            prop_assert_eq!(json(&forked), json(&full), "{} strike {} seed {}", b, strike, seed);
        }
    }
}

#[test]
fn every_kernel_forks_and_converges() {
    // The optimisation must actually engage for each kernel: a timeline
    // that silently came out empty, or a `matches` that never holds,
    // would keep the records right and the speed gone.
    let _quiet = phi_reliability::carolfi::panic_guard::silence_panics();
    for (b, g, timeline, total_steps) in goldens() {
        let cfg = CampaignConfig { seed: 2017, n_windows: b.n_windows(), ..Default::default() };
        let (mut forked, mut converged) = (0, 0);
        for trial in 0..200 {
            let mut target = build(*b, SizeClass::Test);
            let stats =
                execute_trial_attempt(b.label(), &mut target, Golden::new(g, timeline), &cfg, *total_steps, trial, 0, false).1;
            forked += stats.forked_steps;
            converged += stats.converged as usize;
        }
        assert!(forked > 0, "{b}: no trial forked from a checkpoint");
        assert!(converged > 0, "{b}: no trial converged in 200");
    }
}
