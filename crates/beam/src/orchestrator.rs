//! Durable, sharded, resumable beam campaigns.
//!
//! [`run_beam_campaign_stored`] is the journal-backed counterpart of
//! [`crate::run_beam_campaign`], built on the same `phi-store` plumbing as
//! `carolfi::orchestrator`: strikes shard by global index (which pins their
//! RNG stream, struck resource and architectural effect), every strike
//! record is journaled before the next one starts, and an interrupted
//! campaign resumes from its per-shard cursors into an aggregate
//! bit-identical to the uninterrupted run. The MCA log — a live-campaign
//! by-product — is rebuilt from the journaled mechanism labels on
//! completion ([`crate::campaign::mca_from_records`]).

use crate::campaign::{execute_strike, mca_from_records, outcome_key, report_for, synth_due_strike, BeamCampaign, BeamConfig};
use carolfi::orchestrator::{drive_isolated, drive_shards, open_journal, StoreConfig, StoredRun};
use carolfi::checkpoint::{Golden, Timeline};
use carolfi::output::Output;
use carolfi::supervisor::StatsTally;
use carolfi::target::FaultTarget;
use carolfi::warden::IsolateConfig;
use std::sync::atomic::AtomicU64;
use store::{CampaignMeta, ShardPlan};

/// Journal-backed, sharded, resumable version of
/// [`crate::run_beam_campaign`]. For a fixed `cfg.seed` the completed
/// aggregate is bit-identical to the single-shot run, for any shard count,
/// worker count or interruption pattern.
pub fn run_beam_campaign_stored<T, F>(
    benchmark: &str,
    factory: F,
    golden: &Output,
    cfg: &BeamConfig,
    store_cfg: &StoreConfig,
) -> std::io::Result<StoredRun<BeamCampaign>>
where
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    let _quiet = carolfi::panic_guard::silence_panics();
    let mut probe = factory();
    let total_steps = probe.total_steps().max(1);
    let timeline = Timeline::record(&mut probe, golden);
    let golden = Golden::new(golden, &timeline);
    let pool = carolfi::TargetPool::new(&factory);
    pool.seed(probe);
    let stats = StatsTally::default();
    let wall = std::time::Instant::now();
    let busy_ns = AtomicU64::new(0);

    let meta = CampaignMeta {
        kind: "beam".into(),
        benchmark: benchmark.into(),
        seed: cfg.seed,
        trials: cfg.strikes,
        shards: store_cfg.shards,
        n_windows: cfg.n_windows,
        version: store::journal::FORMAT_VERSION,
    };
    let (writer, progress, prior) = open_journal(store_cfg, meta)?;
    let plan = ShardPlan::new(cfg.strikes, store_cfg.shards);
    carolfi::monitor::begin_campaign(benchmark, "beam", &plan, &progress);
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };

    let run = drive_shards(plan, &progress, prior, writer, store_cfg, workers, &busy_ns, |strike| {
        let (record, _mca, _resource, trial_stats) = execute_strike(benchmark, &pool, golden, cfg, total_steps, strike);
        stats.add(trial_stats);
        record
    })?;
    Ok(match run {
        StoredRun::Paused { completed, total } => StoredRun::Paused { completed, total },
        StoredRun::Complete(records) => {
            carolfi::monitor::complete_campaign();
            let mca = mca_from_records(&cfg.engine, &records);
            let mut report = report_for(benchmark, &records, workers, busy_ns.into_inner(), wall.elapsed().as_nanos() as u64);
            report.pool_hits = pool.hits();
            report.pool_rebuilds = pool.rebuilds();
            stats.fill(&mut report);
            StoredRun::Complete(BeamCampaign {
                benchmark: benchmark.to_string(),
                records,
                mca,
                sigma_raw: cfg.sigma_raw,
                environment: cfg.environment,
                report,
            })
        }
    })
}

/// Process-isolated version of [`run_beam_campaign_stored`]: the opt-in
/// `--isolate` backend for beam campaigns. The calling binary must re-exec
/// itself in worker mode (see [`carolfi::warden::worker_active`] /
/// [`carolfi::warden::serve`]) and execute strikes by global index; this
/// function supervises those workers and journals the results. Worker
/// deaths are quarantined into deterministic DUE records
/// ([`crate::campaign::synth_due_strike`]) and the campaign completes.
///
/// Journal metadata is identical to [`run_beam_campaign_stored`]'s, so the
/// two backends can resume each other's journals; `total_steps` is the
/// victim's step count (the parent never builds a target).
pub fn run_beam_campaign_isolated(
    benchmark: &str,
    total_steps: usize,
    cfg: &BeamConfig,
    store_cfg: &StoreConfig,
    iso: &IsolateConfig,
) -> std::io::Result<StoredRun<BeamCampaign>> {
    let total_steps = total_steps.max(1);
    let wall = std::time::Instant::now();
    let busy_ns = AtomicU64::new(0);

    let meta = CampaignMeta {
        kind: "beam".into(),
        benchmark: benchmark.into(),
        seed: cfg.seed,
        trials: cfg.strikes,
        shards: store_cfg.shards,
        n_windows: cfg.n_windows,
        version: store::journal::FORMAT_VERSION,
    };
    let (writer, progress, prior) = open_journal(store_cfg, meta)?;
    let plan = ShardPlan::new(cfg.strikes, store_cfg.shards);
    carolfi::monitor::begin_campaign(benchmark, "beam", &plan, &progress);
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };

    let run = drive_isolated(
        plan,
        &progress,
        prior,
        writer,
        store_cfg,
        workers,
        &busy_ns,
        iso,
        |strike, kind| synth_due_strike(benchmark, cfg, total_steps, strike, kind),
        |record| Some(outcome_key(&record.outcome)),
    )?;
    Ok(match run {
        StoredRun::Paused { completed, total } => StoredRun::Paused { completed, total },
        StoredRun::Complete(records) => {
            carolfi::monitor::complete_campaign();
            let mca = mca_from_records(&cfg.engine, &records);
            let report = report_for(benchmark, &records, workers, busy_ns.into_inner(), wall.elapsed().as_nanos() as u64);
            StoredRun::Complete(BeamCampaign {
                benchmark: benchmark.to_string(),
                records,
                mca,
                sigma_raw: cfg.sigma_raw,
                environment: cfg.environment,
                report,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_beam_campaign;
    use kernels::{build, golden, Benchmark, SizeClass};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-beam-orchestrator").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sharded_beam_campaign_matches_single_shot_including_mca() {
        let b = Benchmark::Dgemm;
        let g = golden(b, SizeClass::Test);
        let cfg = BeamConfig { strikes: 240, seed: 11, n_windows: b.n_windows(), ..Default::default() };
        let single = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

        let mut sc = StoreConfig::new(tmp("shards-5"));
        sc.shards = 5;
        let stored = run_beam_campaign_stored(b.label(), || build(b, SizeClass::Test), &g, &cfg, &sc)
            .unwrap()
            .expect_complete();
        assert_eq!(single.records.len(), stored.records.len());
        for (x, y) in single.records.iter().zip(&stored.records) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.mechanism, y.mechanism);
            assert_eq!(x.outcome, y.outcome);
        }
        assert_eq!(single.mca.events(), stored.mca.events(), "MCA log must survive the journal round-trip");
        assert_eq!(single.report.outcomes, stored.report.outcomes);
    }

    #[test]
    fn interrupted_beam_campaign_resumes_bit_identically() {
        let b = Benchmark::Nw;
        let g = golden(b, SizeClass::Test);
        let cfg = BeamConfig { strikes: 150, seed: 3, n_windows: b.n_windows(), ..Default::default() };
        let uninterrupted = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);

        let mut sc = StoreConfig::new(tmp("interrupt"));
        sc.shards = 3;
        sc.checkpoint_every = 10;
        sc.budget = Some(40);
        let mut rounds = 0;
        let stored = loop {
            rounds += 1;
            assert!(rounds < 30, "campaign never completed");
            match run_beam_campaign_stored(b.label(), || build(b, SizeClass::Test), &g, &cfg, &sc).unwrap() {
                StoredRun::Complete(c) => break c,
                StoredRun::Paused { .. } => sc.resume = true,
            }
        };
        assert!(rounds > 1, "budget of 40/150 should pause at least once");
        assert_eq!(uninterrupted.records.len(), stored.records.len());
        for (x, y) in uninterrupted.records.iter().zip(&stored.records) {
            assert_eq!(x.mechanism, y.mechanism);
            assert_eq!(x.inject_step, y.inject_step);
            assert_eq!(x.outcome, y.outcome);
        }
        assert_eq!(uninterrupted.mca.events(), stored.mca.events());
    }

    /// Worker entry for the isolated beam test below: when spawned by a
    /// warden (socket env set) it serves real strike-executions by global
    /// index, aborting on the scripted strike; as an ordinary test run it
    /// is a no-op. Spec format: `<mode>,<seed>,<strikes>`.
    #[test]
    fn beam_isolated_worker_entry() {
        let Some(spec) = carolfi::warden::worker_spec() else { return };
        let mut parts = spec.split(',');
        let mode = parts.next().unwrap().to_string();
        let seed: u64 = parts.next().unwrap().parse().unwrap();
        let strikes: usize = parts.next().unwrap().parse().unwrap();
        let b = Benchmark::Dgemm;
        let cfg = BeamConfig { strikes, seed, n_windows: b.n_windows(), ..Default::default() };
        let g = golden(b, SizeClass::Test);
        let factory = || build(b, SizeClass::Test);
        let probe = factory();
        let total_steps = probe.total_steps().max(1);
        let pool = carolfi::TargetPool::new(&factory);
        pool.seed(probe);
        let abort_on: Option<usize> = mode.strip_prefix("abort-").map(|n| n.parse().unwrap());
        let result = carolfi::warden::serve(|strike, attempt| {
            if abort_on == Some(strike) {
                std::process::abort();
            }
            crate::campaign::execute_strike_attempt(b.label(), &pool, &g, &cfg, total_steps, strike, attempt, false).0
        });
        std::process::exit(if result.is_ok() { 0 } else { 1 });
    }

    #[test]
    fn isolated_beam_campaign_matches_in_process_and_quarantines_deaths() {
        use carolfi::record::{DueKind, OutcomeRecord};
        let b = Benchmark::Dgemm;
        let g = golden(b, SizeClass::Test);
        let cfg = BeamConfig { strikes: 60, seed: 11, workers: 2, n_windows: b.n_windows(), ..Default::default() };
        let reference = run_beam_campaign(b.label(), || build(b, SizeClass::Test), &g, &cfg);
        let total_steps = build(b, SizeClass::Test).total_steps().max(1);

        let mut sc = StoreConfig::new(tmp("isolated"));
        sc.shards = 2;
        let mut iso = IsolateConfig::new(
            std::env::current_exe().expect("test binary path"),
            vec![
                "orchestrator::tests::beam_isolated_worker_entry".into(),
                "--exact".into(),
                "--test-threads=1".into(),
                "--nocapture".into(),
            ],
            format!("abort-7,{},{}", cfg.seed, cfg.strikes),
        );
        iso.backoff_base = std::time::Duration::from_millis(1);
        iso.backoff_cap = std::time::Duration::from_millis(10);

        let stored = run_beam_campaign_isolated(b.label(), total_steps, &cfg, &sc, &iso).unwrap().expect_complete();
        assert_eq!(stored.records.len(), cfg.strikes);
        assert_eq!(stored.records[7].outcome, OutcomeRecord::Due(DueKind::Signal { signo: 6 }), "SIGABRT strike");
        for (x, y) in reference.records.iter().zip(&stored.records) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.mechanism, y.mechanism, "strike identity is deterministic even for quarantined strikes");
            assert_eq!(x.inject_step, y.inject_step);
            if x.trial != 7 {
                assert_eq!(x.outcome, y.outcome, "strike {}", x.trial);
            }
        }
        // MCA reconstruction rests only on mechanism labels, which survive
        // quarantine, so it must match the in-process log.
        assert_eq!(stored.mca.events(), mca_from_records(&cfg.engine, &reference.records).events());
    }
}
