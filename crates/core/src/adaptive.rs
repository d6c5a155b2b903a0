//! Adaptive (planner-driven) stored campaigns.
//!
//! [`run_campaign_adaptive`] is the confidence-interval-driven counterpart
//! of [`crate::run_campaign_stored`]: instead of executing a fixed trial
//! range, an [`AllocationPlanner`] picks which trials to run next — one
//! *batch* at a time, each batch drawn from the stratum whose outcome
//! estimate is least converged — and stops once every stratum's interval is
//! inside the target width. The fixed trial count becomes a *horizon*: the
//! planner may only allocate indices below `cfg.trials`, and every trial it
//! does allocate keeps the exact RNG stream / fault model / injection time
//! the fixed-count campaign would have given that index.
//!
//! Determinism: the planner is required to be a pure function of its
//! construction parameters and the sequence of observed records, and batch
//! records are journaled in the decision's trial order regardless of worker
//! scheduling. A version-2 journal is therefore a pure function of
//! `(spec, seed)` — interrupting and resuming an adaptive campaign (any
//! number of times, any worker count) reproduces the *byte-identical*
//! journal and result, because resume re-derives every decision from the
//! replayed planner and cross-checks it against the journaled
//! [`JournalEntry::Plan`] records before continuing.

use crate::campaign::{execute_trial_attempt, report_for, Campaign, CampaignConfig};
use crate::checkpoint::{Golden, Timeline};
use crate::monitor::PlannerStatus;
use crate::orchestrator::{panic_message, DurableJournal, StoreConfig, StoredRun};
use crate::output::Output;
use crate::record::TrialRecord;
use crate::supervisor::StatsTally;
use crate::target::FaultTarget;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use store::{CampaignMeta, Journal, JournalEntry, JournalWriter, ShardCursor, ShardPlan, ShardProgress, ShardState};

/// One allocation decision: the batch of trial indices the planner wants
/// executed next, plus the gauges that justified the pick (journaled for
/// replay cross-checking and surfaced as a `plan` obs event).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// Decision ordinal, gapless from 0.
    pub batch: u64,
    /// Label of the stratum this batch samples.
    pub stratum: String,
    /// The stratum's widest outcome-class CI width at decision time (the
    /// quantity the planner is minimizing).
    pub widest_ci: f64,
    /// Open strata (width above target) at decision time.
    pub strata_open: u64,
    /// Campaign-global trial indices to execute, in execution order.
    pub trials: Vec<usize>,
}

/// Strategy interface of the adaptive orchestrator. Implementations live
/// above this crate (the Wilson-interval planner is in `sdc-analysis`);
/// the orchestrator only requires the *purity contract*: after any sequence
/// of `next_batch`/`observe` calls, the next decision must be a pure
/// function of the construction parameters and the records observed so far.
/// That contract is what makes a version-2 journal replayable.
pub trait AllocationPlanner {
    /// Feeds one completed trial back into planner state. Called in journal
    /// (execution) order, both live and during resume replay.
    fn observe(&mut self, record: &TrialRecord);
    /// The next batch to execute, or `None` when every stratum is converged
    /// (or exhausted its share of the horizon).
    fn next_batch(&mut self) -> Option<PlanDecision>;
    /// Live gauges for `CampaignReport` / `phi-top` / the serve event bus.
    fn gauges(&self) -> PlannerStatus;
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// An allocation decision as replayed from the journal.
struct JournaledPlan {
    batch: u64,
    stratum: String,
    widest_ci: f64,
    trials: Vec<usize>,
}

/// Opens (or creates) the version-2 journal for `meta`, replays it, and
/// parses the surviving entries. Returns the writer, the journaled
/// allocation decisions in order, the trial records in execution order and
/// whether the campaign was already sealed.
fn open_adaptive_journal(
    store_cfg: &StoreConfig,
    meta: CampaignMeta,
) -> std::io::Result<(JournalWriter, Vec<JournaledPlan>, Vec<TrialRecord>, bool)> {
    let dir = &store_cfg.dir;
    let (mut writer, entries) = if Journal::exists(dir) {
        if !store_cfg.resume {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("journal already exists at {} (pass --resume to continue it)", dir.display()),
            ));
        }
        let (writer, scan) = JournalWriter::resume(dir)?;
        match &scan.meta {
            Some(m) if *m == meta => {}
            Some(m) => {
                return Err(invalid(format!(
                    "journal at {} belongs to a different campaign (journal: {m:?}, requested: {meta:?})",
                    dir.display()
                )))
            }
            None => return Err(invalid(format!("journal at {} has no meta entry", dir.display()))),
        }
        (writer, scan.entries)
    } else {
        (JournalWriter::create(dir, meta.clone())?, Vec::new())
    };
    writer.batch = store_cfg.batch;
    // The shard machinery validates the gapless execution sequence and
    // checkpoint consistency; adaptive campaigns are always single-shard.
    let progress = ShardProgress::replay(1, &entries)?;
    let sealed = progress.all_done();
    let mut plans = Vec::new();
    for entry in &entries {
        if let JournalEntry::Plan { batch, stratum, widest_ci, trials } = entry {
            plans.push(JournaledPlan {
                batch: *batch,
                stratum: stratum.clone(),
                widest_ci: *widest_ci,
                trials: trials.clone(),
            });
        }
    }
    let mut records = Vec::with_capacity(progress.shards[0].payloads.len());
    for (seq, payload) in progress.shards[0].payloads.iter().enumerate() {
        let record: TrialRecord =
            serde_json::from_str(payload).map_err(|e| invalid(format!("seq {seq}: bad trial payload: {e}")))?;
        records.push(record);
    }
    // Unlike the fixed-count journal, `seq` is execution order, not the
    // trial index: the k-th record must instead carry the k-th index the
    // journaled decisions allocated.
    let mut flat = plans.iter().flat_map(|p| p.trials.iter().copied());
    for (seq, record) in records.iter().enumerate() {
        match flat.next() {
            Some(expected) if record.trial == expected => {}
            Some(expected) => {
                return Err(invalid(format!(
                    "seq {seq}: payload carries trial {}, journaled decisions allocated {expected}",
                    record.trial
                )))
            }
            None => return Err(invalid(format!("seq {seq}: trial record with no covering allocation decision"))),
        }
    }
    Ok((writer, plans, records, sealed))
}

/// Replays the journaled decisions through `planner`, cross-checking each
/// one, and feeds it the journaled records in execution order. Returns the
/// in-flight decision and how many of its trials are already journaled, if
/// the journal stops mid-batch.
fn replay_decisions(
    planner: &mut dyn AllocationPlanner,
    plans: &[JournaledPlan],
    records: &[TrialRecord],
) -> std::io::Result<Option<(PlanDecision, usize)>> {
    let mut pending = None;
    let mut cursor = 0usize;
    for (i, journaled) in plans.iter().enumerate() {
        let decision = planner.next_batch().ok_or_else(|| {
            invalid(format!("journal holds decision #{} but the planner is already converged", journaled.batch))
        })?;
        // Bitwise CI comparison: the planner contract is exact replay, and
        // JSON round-trips f64 losslessly (shortest round-trip formatting).
        if decision.batch != journaled.batch
            || decision.stratum != journaled.stratum
            || decision.widest_ci.to_bits() != journaled.widest_ci.to_bits()
            || decision.trials != journaled.trials
        {
            return Err(invalid(format!(
                "journaled decision #{} (stratum {}, {} trials) does not match the replayed planner \
                 (stratum {}, {} trials) — journal was produced by a different planner or spec",
                journaled.batch,
                journaled.stratum,
                journaled.trials.len(),
                decision.stratum,
                decision.trials.len()
            )));
        }
        let have = (records.len() - cursor).min(decision.trials.len());
        for record in &records[cursor..cursor + have] {
            planner.observe(record);
        }
        cursor += have;
        if have < decision.trials.len() {
            if i + 1 != plans.len() {
                return Err(invalid(format!("decision #{} is incomplete but later decisions follow it", journaled.batch)));
            }
            pending = Some((decision, have));
        }
    }
    Ok(pending)
}

/// Planner-driven version of [`crate::run_campaign_stored`].
///
/// Each loop turn asks `planner` for a batch, journals the decision as a
/// [`JournalEntry::Plan`], executes the batch on the worker pool, journals
/// the records *in decision order* (worker scheduling never leaks into the
/// journal), feeds them back through [`AllocationPlanner::observe`], and
/// checkpoints. The campaign completes when the planner returns `None` —
/// usually well short of the `cfg.trials` horizon.
///
/// `store_cfg.budget` pauses at batch granularity: a batch that starts
/// before the budget runs out finishes (bounded overshoot of one batch), so
/// pauses always land on a checkpointed batch boundary. A resumed run
/// replays the planner against the journal — validating every journaled
/// decision — and then continues as if never interrupted: the completed
/// journal and the result are byte-identical for any interruption pattern.
pub fn run_campaign_adaptive<T, F>(
    benchmark: &str,
    factory: F,
    golden: &Output,
    cfg: &CampaignConfig,
    store_cfg: &StoreConfig,
    planner: &mut dyn AllocationPlanner,
) -> std::io::Result<StoredRun<Campaign>>
where
    T: FaultTarget,
    F: Fn() -> T + Sync,
{
    assert!(!cfg.models.is_empty(), "campaign needs at least one fault model");
    let _quiet = crate::panic_guard::silence_panics();
    let mut probe = factory();
    let total_steps = probe.total_steps().max(1);
    let timeline = Timeline::record(&mut probe, golden);
    let golden = Golden::new(golden, &timeline);
    let pool = crate::pool::TargetPool::new(&factory);
    pool.seed(probe);
    let stats = StatsTally::default();
    let wall = std::time::Instant::now();
    let busy_ns = AtomicU64::new(0);

    let meta = CampaignMeta {
        kind: "inject".into(),
        benchmark: benchmark.into(),
        seed: cfg.seed,
        trials: cfg.trials,
        shards: 1,
        n_windows: cfg.n_windows,
        version: store::journal::ADAPTIVE_FORMAT_VERSION,
    };
    let (writer, plans, mut records, sealed) = open_adaptive_journal(store_cfg, meta)?;
    let mut writer = DurableJournal::new(writer);
    let progress = ShardProgress {
        shards: vec![ShardState { completed: records.len() as u64, done: sealed, payloads: Vec::new() }],
    };
    crate::monitor::begin_campaign(benchmark, "inject", &ShardPlan::new(cfg.trials, 1), &progress);
    let mut pending = replay_decisions(planner, &plans, &records)?;
    crate::monitor::planner_update(planner.gauges());

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };

    let complete = if sealed {
        if pending.is_some() {
            return Err(invalid("sealed adaptive journal ends mid-batch".into()));
        }
        true
    } else {
        let mut executed = records.len();
        let mut spent = 0usize;
        loop {
            let (decision, done_in_batch) = match pending.take() {
                // An in-flight journaled batch is finished unconditionally
                // (its Plan entry is already durable).
                Some(p) => p,
                None => {
                    if store_cfg.budget.is_some_and(|b| spent >= b) {
                        break false;
                    }
                    match planner.next_batch() {
                        None => break true,
                        Some(decision) => {
                            let entry = JournalEntry::Plan {
                                batch: decision.batch,
                                stratum: decision.stratum.clone(),
                                widest_ci: decision.widest_ci,
                                trials: decision.trials.clone(),
                            };
                            store::retry_transient(|| writer.append(&entry))?;
                            if obs::enabled() {
                                obs::event(
                                    "plan",
                                    &format!(
                                        "{{\"batch\":{},\"stratum\":{:?},\"widest_ci\":{},\"strata_open\":{},\"trials\":{}}}",
                                        decision.batch,
                                        decision.stratum,
                                        decision.widest_ci,
                                        decision.strata_open,
                                        decision.trials.len()
                                    ),
                                );
                            }
                            (decision, 0)
                        }
                    }
                }
            };

            // Execute the batch's remaining trials in parallel. Results land
            // in per-trial slots so the journal below sees decision order,
            // whatever the worker interleaving was.
            let todo = &decision.trials[done_in_batch..];
            let slots: Vec<parking_lot::Mutex<Option<Result<TrialRecord, String>>>> =
                todo.iter().map(|_| parking_lot::Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let batch_workers = workers.min(todo.len().max(1));
            crossbeam::thread::scope(|scope| {
                for _ in 0..batch_workers {
                    scope.spawn(|_| {
                        let mut local_busy = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= todo.len() {
                                break;
                            }
                            let trial = todo[i];
                            let t0 = std::time::Instant::now();
                            // Same harness-panic containment as the sharded
                            // driver: a poisoned trial must not take down the
                            // batch before its predecessors are journaled.
                            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let mut target = pool.acquire();
                                let (record, trial_stats) = execute_trial_attempt(
                                    benchmark,
                                    &mut target,
                                    golden,
                                    cfg,
                                    total_steps,
                                    trial,
                                    0,
                                    true,
                                );
                                pool.release(target, record.outcome.is_due());
                                (record, trial_stats)
                            }));
                            local_busy += t0.elapsed().as_nanos() as u64;
                            match out {
                                Ok((record, trial_stats)) => {
                                    stats.add(trial_stats);
                                    *slots[i].lock() = Some(Ok(record));
                                }
                                Err(payload) => {
                                    obs::incr("shard/panicked", 1);
                                    *slots[i].lock() = Some(Err(panic_message(payload.as_ref())));
                                }
                            }
                        }
                        busy_ns.fetch_add(local_busy, Ordering::Relaxed);
                    });
                }
            })
            .expect("adaptive batch worker panicked outside a trial");

            // Journal in decision order, stopping at the first panicked
            // trial: the durable prefix stays a valid campaign prefix and a
            // resume re-runs the batch tail.
            let mut failure: Option<String> = None;
            for (k, slot) in slots.into_iter().enumerate() {
                match slot.into_inner().expect("batch slot missing") {
                    Ok(record) => {
                        let payload = serde_json::to_string(&record)
                            .map_err(|e| std::io::Error::other(format!("trial {}: serialize failed: {e}", record.trial)))?;
                        store::retry_transient(|| {
                            writer.append(&JournalEntry::Trial { shard: 0, seq: executed as u64, payload: payload.clone() })
                        })?;
                        crate::monitor::tick(0);
                        planner.observe(&record);
                        records.push(record);
                        executed += 1;
                        spent += 1;
                    }
                    Err(msg) => {
                        failure = Some(format!("trial {}: {msg}", todo[k]));
                        break;
                    }
                }
            }
            if let Some(msg) = failure {
                store::retry_transient(|| writer.sync())?;
                return Err(std::io::Error::other(format!("harness panic: {msg} (journal is resumable)")));
            }

            let cursor = ShardCursor { shard: 0, completed: executed as u64, next_stream: executed as u64 };
            store::retry_transient(|| {
                writer.append(&JournalEntry::Checkpoint(cursor))?;
                writer.sync()
            })?;
            crate::monitor::planner_update(planner.gauges());
        }
    };

    if !complete {
        writer.close()?;
        return Ok(StoredRun::Paused { completed: records.len() as u64, total: cfg.trials });
    }
    if !sealed {
        store::retry_transient(|| {
            writer.append(&JournalEntry::ShardDone { shard: 0 })?;
            writer.sync()
        })?;
        obs::incr("shard/completed", 1);
        crate::monitor::shard_sealed(0);
    }
    writer.close()?;
    crate::monitor::complete_campaign();
    let gauges = planner.gauges();
    let mut report = report_for(benchmark, &records, workers, busy_ns.into_inner(), wall.elapsed().as_nanos() as u64);
    report.pool_hits = pool.hits();
    report.pool_rebuilds = pool.rebuilds();
    stats.fill(&mut report);
    report.strata_total = gauges.strata_total as usize;
    report.strata_open = gauges.strata_open as usize;
    report.widest_ci = gauges.widest_ci;
    Ok(StoredRun::Complete(Campaign { benchmark: benchmark.to_string(), records, report }))
}
