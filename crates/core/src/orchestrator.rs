//! Durable, sharded, resumable injection campaigns.
//!
//! [`run_campaign_stored`] is the journal-backed counterpart of
//! [`crate::run_campaign`]: the campaign's trial range splits into
//! contiguous shards (`store::ShardPlan`), a work-queue scheduler fans the
//! shards out to worker threads, and every completed trial is appended to a
//! checksummed journal (`store::JournalWriter`) before the next one starts.
//! A crash, OOM or kill loses at most the in-flight record; re-running with
//! `resume = true` scans the journal, skips completed shards, continues
//! partial shards from their cursors, and — because a trial's global index
//! fully determines its RNG stream, fault model and injection time — the
//! merged aggregate is bit-identical to an uninterrupted single-shot run,
//! with no trial re-executed or double-counted (the journal's per-shard
//! sequence numbers are validated gapless on every open).

use crate::campaign::{execute_trial_attempt, outcome_key, report_for, Campaign, CampaignConfig};
use crate::checkpoint::{Golden, Timeline};
use crate::output::Output;
use crate::record::{DueKind, TrialRecord};
use crate::supervisor::StatsTally;
use crate::target::FaultTarget;
use crate::warden::{IsolateConfig, IsolatedTrial, Warden};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use store::{
    CampaignMeta, CommitCounter, Journal, JournalEntry, JournalWriter, ShardCursor, ShardPlan, ShardProgress, StopFlag,
};

/// Durability/orchestration knobs, shared by the injection and beam stored
/// campaign runners.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Journal directory for this campaign.
    pub dir: PathBuf,
    /// Shard count recorded in the journal; a resumed run must use the same
    /// value (checked against the journal meta).
    pub shards: usize,
    /// Continue an existing journal instead of demanding a fresh directory.
    pub resume: bool,
    /// Trials between durable checkpoints (cursor entry + fsync) per shard.
    pub checkpoint_every: u64,
    /// Maximum trials to execute in this invocation; when the budget runs
    /// out the campaign checkpoints and returns [`StoredRun::Paused`].
    /// `None` = run to completion.
    pub budget: Option<usize>,
    /// Journal group-commit policy. Defaults from the environment
    /// (`PHI_BATCH_BYTES` / `PHI_BATCH_DELAY_MS`); segment bytes are
    /// identical under every policy, only write boundaries change.
    pub batch: store::BatchPolicy,
}

impl StoreConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            shards: 8,
            resume: false,
            checkpoint_every: 64,
            budget: None,
            batch: store::BatchPolicy::from_env(),
        }
    }
}

/// Outcome of a stored campaign invocation.
#[derive(Debug)]
pub enum StoredRun<C> {
    /// Every shard finished; the aggregate is bit-identical to the
    /// single-shot run with the same seed.
    Complete(C),
    /// The trial budget ran out (or a stop was requested) mid-campaign; the
    /// journal holds `completed` of `total` trials and a later `resume`
    /// invocation will continue from the shard cursors.
    Paused { completed: u64, total: usize },
}

impl<C> StoredRun<C> {
    /// Unwraps `Complete`, panicking on `Paused` (test helper).
    pub fn expect_complete(self) -> C {
        match self {
            StoredRun::Complete(c) => c,
            StoredRun::Paused { completed, total } => {
                panic!("campaign paused at {completed}/{total} trials; expected completion")
            }
        }
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Opens (or creates) the journal for `meta`, replays shard progress and
/// parses the surviving trial payloads. Orchestration plumbing shared with
/// `beamsim`'s stored campaign runner.
pub fn open_journal(
    store_cfg: &StoreConfig,
    meta: CampaignMeta,
) -> std::io::Result<(JournalWriter, ShardProgress, Vec<Vec<TrialRecord>>)> {
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
    let progress = ShardProgress::replay(meta.shards, &entries)?;
    let plan = ShardPlan::new(meta.trials, meta.shards);
    let mut prior: Vec<Vec<TrialRecord>> = Vec::with_capacity(meta.shards);
    for (shard, state) in progress.shards.iter().enumerate() {
        let range = plan.range(shard);
        if state.completed as usize > range.len() {
            return Err(invalid(format!("shard {shard}: journal has {} trials, plan allows {}", state.completed, range.len())));
        }
        let mut records = Vec::with_capacity(state.payloads.len());
        for (seq, payload) in state.payloads.iter().enumerate() {
            let record: TrialRecord = serde_json::from_str(payload)
                .map_err(|e| invalid(format!("shard {shard} seq {seq}: bad trial payload: {e}")))?;
            if record.trial != range.start + seq {
                return Err(invalid(format!(
                    "shard {shard} seq {seq}: payload carries trial {}, expected {}",
                    record.trial,
                    range.start + seq
                )));
            }
            records.push(record);
        }
        prior.push(records);
    }
    Ok((writer, progress, prior))
}

/// A campaign journal whose counters report what is durable: `store/trials`
/// and `planner/batches` count a trial or plan line once the writer has
/// committed it, never while it sits in the group-commit buffer where a
/// crash would lose it.
pub(crate) struct DurableJournal {
    writer: JournalWriter,
    trials: CommitCounter,
    plans: CommitCounter,
}

impl DurableJournal {
    pub(crate) fn new(writer: JournalWriter) -> Self {
        DurableJournal { writer, trials: CommitCounter::default(), plans: CommitCounter::default() }
    }

    pub(crate) fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        self.writer.append(entry)?;
        match entry {
            JournalEntry::Trial { .. } => self.trials.appended(),
            JournalEntry::Plan { .. } => self.plans.appended(),
            _ => {}
        }
        self.settle();
        Ok(())
    }

    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        self.writer.sync()?;
        self.settle();
        Ok(())
    }

    /// Retires the writer; everything appended is then committed.
    pub(crate) fn close(self) -> std::io::Result<()> {
        let DurableJournal { writer, trials, plans } = self;
        writer.close()?;
        obs::incr("store/trials", trials.uncommitted());
        obs::incr("planner/batches", plans.uncommitted());
        Ok(())
    }

    fn settle(&mut self) {
        let trials = self.trials.settle(&self.writer);
        let plans = self.plans.settle(&self.writer);
        if trials > 0 {
            obs::incr("store/trials", trials);
        }
        if plans > 0 {
            obs::incr("planner/batches", plans);
        }
    }
}

/// Extracts a displayable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drives the shard queue for a stored campaign: pulls shard tasks, executes
/// trials via `run_one`, journals each record, checkpoints periodically and
/// on stop. Returns the per-shard record vectors (prior + new) or the first
/// I/O error any worker hit.
///
/// `run_one(global_trial_index) -> TrialRecord` must be pure in the trial
/// index (this is what the determinism invariant rests on). Orchestration
/// plumbing shared with `beamsim`'s stored campaign runner.
///
/// Failure containment: a **panic** out of `run_one` (harness bug, warden
/// infrastructure giving out) fails only its own shard — the shard
/// checkpoints what it has, records a diagnostic and stops pulling trials,
/// while sibling shards run to completion and seal. The run then returns an
/// error naming the failed shards, and a later `resume` continues exactly
/// from their cursors. **I/O errors** still stop every shard: they signal a
/// problem with the journal itself, which all shards share.
#[allow(clippy::too_many_arguments)]
pub fn drive_shards(
    plan: ShardPlan,
    progress: &ShardProgress,
    mut prior: Vec<Vec<TrialRecord>>,
    writer: JournalWriter,
    store_cfg: &StoreConfig,
    workers: usize,
    busy_ns: &AtomicU64,
    run_one: impl Fn(usize) -> TrialRecord + Sync,
) -> std::io::Result<StoredRun<Vec<TrialRecord>>> {
    let stop = StopFlag::new();
    let spent = AtomicUsize::new(0);
    let journal = parking_lot::Mutex::new(DurableJournal::new(writer));
    let io_error: parking_lot::Mutex<Option<std::io::Error>> = parking_lot::Mutex::new(None);
    let shard_panics: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());
    let new_records: Vec<parking_lot::Mutex<Vec<TrialRecord>>> = (0..plan.shards).map(|_| parking_lot::Mutex::new(Vec::new())).collect();

    let tasks: Vec<usize> = (0..plan.shards)
        .filter(|&s| !progress.shards[s].done && (progress.shards[s].completed as usize) < plan.range(s).len())
        .collect();

    let fail = |e: std::io::Error| {
        let mut slot = io_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        stop.request_stop();
    };

    store::run_tasks(tasks, workers, &stop, |shard, stop| {
        let range = plan.range(shard);
        let start = progress.shards[shard].completed as usize;
        obs::incr(if start == 0 { "shard/started" } else { "shard/resumed" }, 1);
        let checkpoint = |completed: usize, sync: bool| -> std::io::Result<()> {
            let cursor = ShardCursor {
                shard,
                completed: completed as u64,
                next_stream: (range.start + completed) as u64,
            };
            store::retry_transient(|| {
                let mut j = journal.lock();
                j.append(&JournalEntry::Checkpoint(cursor))?;
                if sync {
                    j.sync()?;
                }
                Ok(())
            })
        };
        let mut completed = start;
        for (seq, trial) in range.clone().enumerate().skip(start) {
            let out_of_budget = store_cfg.budget.is_some_and(|b| spent.fetch_add(1, Ordering::SeqCst) >= b);
            if stop.should_stop() || out_of_budget {
                stop.request_stop();
                if completed > start {
                    if let Err(e) = checkpoint(completed, true) {
                        fail(e);
                    }
                }
                return;
            }
            let t0 = std::time::Instant::now();
            // A harness panic (as opposed to a victim panic, which the
            // supervisor converts into a crash DUE long before here) must
            // not unwind across the scheduler and take sibling shards down:
            // checkpoint this shard's progress, record the diagnostic, and
            // let the others seal. The run stays resumable.
            let record = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(trial))) {
                Ok(record) => record,
                Err(payload) => {
                    obs::incr("shard/panicked", 1);
                    if completed > start {
                        if let Err(e) = checkpoint(completed, true) {
                            fail(e);
                        }
                    }
                    shard_panics
                        .lock()
                        .push(format!("shard {shard}: trial {trial}: {}", panic_message(payload.as_ref())));
                    return;
                }
            };
            busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let payload = match serde_json::to_string(&record) {
                Ok(p) => p,
                Err(e) => {
                    fail(std::io::Error::other(format!("trial {trial}: serialize failed: {e}")));
                    return;
                }
            };
            if let Err(e) = store::retry_transient(|| {
                journal.lock().append(&JournalEntry::Trial { shard, seq: seq as u64, payload: payload.clone() })
            }) {
                fail(e);
                return;
            }
            new_records[shard].lock().push(record);
            completed += 1;
            crate::monitor::tick(shard);
            if ((completed - start) as u64).is_multiple_of(store_cfg.checkpoint_every) {
                if let Err(e) = checkpoint(completed, true) {
                    fail(e);
                    return;
                }
            }
        }
        // Shard range exhausted: seal it.
        let seal = (|| -> std::io::Result<()> {
            checkpoint(completed, false)?;
            store::retry_transient(|| {
                let mut j = journal.lock();
                j.append(&JournalEntry::ShardDone { shard })?;
                j.sync()
            })
        })();
        match seal {
            Ok(()) => {
                obs::incr("shard/completed", 1);
                crate::monitor::shard_sealed(shard);
            }
            Err(e) => fail(e),
        }
    });

    // Retire the writer explicitly so a failed final flush surfaces as an
    // error here instead of being swallowed by `Drop`. Worker-observed
    // errors still take precedence — they name the root cause.
    let closed = journal.into_inner().close();
    if let Some(e) = io_error.lock().take() {
        return Err(e);
    }
    let panics = std::mem::take(&mut *shard_panics.lock());
    if !panics.is_empty() {
        return Err(std::io::Error::other(format!(
            "{} shard(s) failed on harness panics (journal is resumable): {}",
            panics.len(),
            panics.join("; ")
        )));
    }
    closed?;

    // Merge prior + new per shard; any shard short of its range means the
    // run was paused (budget/stop) rather than finished.
    let mut total_completed = 0u64;
    let mut complete = true;
    for (shard, fresh) in new_records.into_iter().enumerate() {
        let fresh = fresh.into_inner();
        prior[shard].extend(fresh);
        total_completed += prior[shard].len() as u64;
        if prior[shard].len() < plan.range(shard).len() {
            complete = false;
        }
    }
    if !complete {
        return Ok(StoredRun::Paused { completed: total_completed, total: plan.trials });
    }
    let mut records: Vec<TrialRecord> = prior.into_iter().flatten().collect();
    records.sort_by_key(|r| r.trial);
    for (i, r) in records.iter().enumerate() {
        if r.trial != i {
            return Err(invalid(format!("aggregate is not gapless: position {i} holds trial {}", r.trial)));
        }
    }
    Ok(StoredRun::Complete(records))
}

/// Journal-backed, sharded, resumable version of [`crate::run_campaign`].
///
/// For a fixed `cfg.seed`, the completed aggregate is bit-identical to
/// `run_campaign` with the same config, for any shard count, worker count,
/// interruption pattern or number of resume invocations. Targets are pooled
/// across trials (reset-in-place, factory rebuild after a DUE) exactly like
/// the in-memory runner.
pub fn run_campaign_stored<T, F>(
    benchmark: &str,
    factory: F,
    golden: &Output,
    cfg: &CampaignConfig,
    store_cfg: &StoreConfig,
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
        shards: store_cfg.shards,
        n_windows: cfg.n_windows,
        version: store::journal::FORMAT_VERSION,
    };
    let (writer, progress, prior) = open_journal(store_cfg, meta)?;
    let plan = ShardPlan::new(cfg.trials, store_cfg.shards);
    crate::monitor::begin_campaign(benchmark, "inject", &plan, &progress);
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };

    let run = drive_shards(plan, &progress, prior, writer, store_cfg, workers, &busy_ns, |trial| {
        let mut target = pool.acquire();
        let (record, trial_stats) = execute_trial_attempt(benchmark, &mut target, golden, cfg, total_steps, trial, 0, true);
        pool.release(target, record.outcome.is_due());
        stats.add(trial_stats);
        record
    })?;
    Ok(match run {
        StoredRun::Paused { completed, total } => StoredRun::Paused { completed, total },
        StoredRun::Complete(records) => {
            crate::monitor::complete_campaign();
            let mut report = report_for(benchmark, &records, workers, busy_ns.into_inner(), wall.elapsed().as_nanos() as u64);
            report.pool_hits = pool.hits();
            report.pool_rebuilds = pool.rebuilds();
            stats.fill(&mut report);
            StoredRun::Complete(Campaign { benchmark: benchmark.to_string(), records, report })
        }
    })
}

/// [`drive_shards`] with process isolation: every trial executes in a child
/// worker process supervised by a [`Warden`]. Victim deaths (abort, fatal
/// signal, wall-clock hang) are classified and — after the warden's
/// crash-loop quarantine threshold — recorded as synthetic DUE records via
/// `synth(trial, kind)`, so a pathological trial costs bounded wall clock
/// and the campaign still completes. Warden infrastructure failures
/// (exhausted spawn retries, socket breakage) panic out of the trial closure
/// and are contained by [`drive_shards`]' per-shard panic isolation: only
/// that shard fails, and the run stays resumable.
///
/// Wardens are pooled per orchestrator call: a worker process is reused
/// across trials (and across shards) until it dies.
///
/// `key` maps a completed record to its outcome-class counter, which the
/// *supervisor* increments exactly once per trial index. Workers execute
/// with outcome counting disabled (`execute_trial_attempt(..,
/// count_outcomes: false)`), so a trial retried after a kill or torn reply
/// never double-counts, and a worker that died mid-trial never leaks a
/// half-counted attempt — the count happens only where the winning record
/// is journaled. Return `None` to skip counting (record types without a
/// static class).
#[allow(clippy::too_many_arguments)]
pub fn drive_isolated(
    plan: ShardPlan,
    progress: &ShardProgress,
    prior: Vec<Vec<TrialRecord>>,
    writer: JournalWriter,
    store_cfg: &StoreConfig,
    workers: usize,
    busy_ns: &AtomicU64,
    iso: &IsolateConfig,
    synth: impl Fn(usize, DueKind) -> TrialRecord + Sync,
    key: impl Fn(&TrialRecord) -> Option<&'static str> + Sync,
) -> std::io::Result<StoredRun<Vec<TrialRecord>>> {
    let wardens: parking_lot::Mutex<Vec<Warden>> = parking_lot::Mutex::new(Vec::new());
    drive_shards(plan, progress, prior, writer, store_cfg, workers, busy_ns, |trial| {
        let mut warden = match wardens.lock().pop().map(Ok).unwrap_or_else(|| Warden::new(iso.clone())) {
            Ok(w) => w,
            Err(e) => panic!("trial {trial}: warden setup failed: {e}"),
        };
        match warden.run_trial(trial) {
            Ok(IsolatedTrial::Completed(record)) => {
                wardens.lock().push(warden);
                if let Some(k) = key(&record) {
                    obs::incr(k, 1);
                }
                *record
            }
            Ok(IsolatedTrial::Quarantined { kind, .. }) => {
                // The warden already emitted the diagnostic through telemetry
                // (`warden/quarantined`, `warden_quarantine` event); here the
                // death folds into the campaign as a deterministic DUE record.
                wardens.lock().push(warden);
                synth(trial, kind)
            }
            Err(e) => panic!("trial {trial}: warden infrastructure failed: {e}"),
        }
    })
}

/// Process-isolated version of [`run_campaign_stored`]: the opt-in
/// `--isolate` backend. The calling binary must re-exec itself in worker
/// mode (see [`crate::warden::worker_active`] / [`crate::warden::serve`])
/// and execute trials by global index; this function supervises those
/// workers and journals the results.
///
/// The journal metadata is identical to [`run_campaign_stored`]'s, so a
/// campaign can be started in-process and resumed isolated (or vice versa),
/// and for a fixed seed the non-DUE aggregate is bit-identical to the
/// in-process run. `total_steps` is the victim's step count (the parent
/// never builds a target, so it cannot probe it).
pub fn run_campaign_isolated(
    benchmark: &str,
    total_steps: usize,
    cfg: &CampaignConfig,
    store_cfg: &StoreConfig,
    iso: &IsolateConfig,
) -> std::io::Result<StoredRun<Campaign>> {
    assert!(!cfg.models.is_empty(), "campaign needs at least one fault model");
    let total_steps = total_steps.max(1);
    let wall = std::time::Instant::now();
    let busy_ns = AtomicU64::new(0);

    let meta = CampaignMeta {
        kind: "inject".into(),
        benchmark: benchmark.into(),
        seed: cfg.seed,
        trials: cfg.trials,
        shards: store_cfg.shards,
        n_windows: cfg.n_windows,
        version: store::journal::FORMAT_VERSION,
    };
    let (writer, progress, prior) = open_journal(store_cfg, meta)?;
    let plan = ShardPlan::new(cfg.trials, store_cfg.shards);
    crate::monitor::begin_campaign(benchmark, "inject", &plan, &progress);
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
        |trial, kind| crate::campaign::synth_due_record(benchmark, cfg, total_steps, trial, kind),
        |record| record.model.map(|m| outcome_key(m, &record.outcome)),
    )?;
    Ok(match run {
        StoredRun::Paused { completed, total } => StoredRun::Paused { completed, total },
        StoredRun::Complete(records) => {
            crate::monitor::complete_campaign();
            let report = report_for(benchmark, &records, workers, busy_ns.into_inner(), wall.elapsed().as_nanos() as u64);
            StoredRun::Complete(Campaign { benchmark: benchmark.to_string(), records, report })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{execute_trial, run_campaign};
    use crate::target::{StepOutcome, VarClass, VarInfo, Variable};

    /// Tiny deterministic victim (mirror of the campaign-test victim).
    struct Victim {
        data: Vec<u32>,
        ctrl: u64,
        done: usize,
    }
    impl Victim {
        fn new() -> Self {
            Victim { data: (0..64u32).collect(), ctrl: 0, done: 0 }
        }
    }
    impl FaultTarget for Victim {
        fn name(&self) -> &'static str {
            "victim"
        }
        fn total_steps(&self) -> usize {
            8
        }
        fn steps_executed(&self) -> usize {
            self.done
        }
        fn step(&mut self) -> StepOutcome {
            let base = (self.ctrl as usize) * 8;
            for i in 0..8 {
                self.data[base + i] = self.data[base + i].wrapping_mul(3).wrapping_add(1);
            }
            self.ctrl += 1;
            self.done += 1;
            if self.done >= 8 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
        fn variables(&mut self) -> Vec<Variable<'_>> {
            vec![
                Variable::from_slice(VarInfo::global("data", VarClass::Matrix, file!(), line!()), &mut self.data),
                Variable::from_scalar(VarInfo::local("ctrl", VarClass::ControlVariable, "loop", 0, file!(), line!()), &mut self.ctrl),
            ]
        }
        fn output(&self) -> Output {
            Output::I32Grid { dims: [8, 8, 1], data: self.data.iter().map(|&x| x as i32).collect() }
        }
        fn reset(&mut self) -> bool {
            for (i, v) in self.data.iter_mut().enumerate() {
                *v = i as u32;
            }
            self.ctrl = 0;
            self.done = 0;
            true
        }
    }

    fn golden() -> Output {
        let mut v = Victim::new();
        while v.step() == StepOutcome::Continue {}
        v.output()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-orchestrator").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_records(a: &[TrialRecord], b: &[TrialRecord]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.model, y.model);
            assert_eq!(x.inject_step, y.inject_step);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.executed_steps, y.executed_steps);
        }
    }

    /// Appends `n` one-trial plans with their trials, then "crashes": the
    /// writer is leaked, so nothing still in its group-commit buffer reaches
    /// the journal. Returns the `(trials, plans)` counted and the ones a
    /// rescan of the journal finds.
    fn crash_after(name: &str, batch_bytes: usize, n: u64) -> ((u64, u64), (u64, u64)) {
        let dir = tmp(name);
        let meta = CampaignMeta {
            kind: "inject".into(),
            benchmark: "victim".into(),
            seed: 1,
            trials: n as usize,
            shards: 1,
            n_windows: 4,
            version: store::journal::ADAPTIVE_FORMAT_VERSION,
        };
        let mut writer = JournalWriter::create(&dir, meta).unwrap();
        writer.batch = store::BatchPolicy { max_bytes: batch_bytes, max_delay: std::time::Duration::from_secs(3600) };
        let mut journal = DurableJournal::new(writer);
        for seq in 0..n {
            let plan = JournalEntry::Plan { batch: seq, stratum: "s".into(), widest_ci: 1.0, trials: vec![seq as usize] };
            journal.append(&plan).unwrap();
            journal.append(&JournalEntry::Trial { shard: 0, seq, payload: format!("{{\"trial\":{seq}}}") }).unwrap();
        }
        let counted = (n - journal.trials.uncommitted(), n - journal.plans.uncommitted());
        std::mem::forget(journal);
        let entries = Journal::scan(&dir).unwrap().entries;
        let trials = entries.iter().filter(|e| matches!(e, JournalEntry::Trial { .. })).count() as u64;
        let plans = entries.iter().filter(|e| matches!(e, JournalEntry::Plan { .. })).count() as u64;
        (counted, (trials, plans))
    }

    #[test]
    fn a_crash_after_buffering_counts_nothing_it_lost() {
        // Nothing committed: the whole run sits in the buffer when it dies.
        let (counted, found) = crash_after("crash-buffered", 1 << 20, 5);
        assert_eq!(found, (0, 0), "the crash lost every buffered line");
        assert_eq!(counted, (0, 0));

        // Some batches committed, a tail still buffered: the counters equal
        // what a rescan of the journal finds, never what was appended.
        let (counted, found) = crash_after("crash-partial", 256, 9);
        assert!(found.0 > 0 && found.0 < 9, "{} of 9 trials committed", found.0);
        assert_eq!(counted, found);
    }

    #[test]
    fn any_shard_count_matches_the_single_shot_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 96, seed: 41, ..Default::default() };
        let single = run_campaign("victim", Victim::new, &g, &cfg);
        for shards in [1usize, 3, 7] {
            let mut sc = StoreConfig::new(tmp(&format!("shards-{shards}")));
            sc.shards = shards;
            let stored = run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap().expect_complete();
            assert_same_records(&single.records, &stored.records);
            assert_eq!(single.report.outcomes, stored.report.outcomes);
        }
    }

    #[test]
    fn interrupted_resume_matches_uninterrupted_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 80, seed: 5, ..Default::default() };
        let uninterrupted = run_campaign("victim", Victim::new, &g, &cfg);

        let mut sc = StoreConfig::new(tmp("interrupt"));
        sc.shards = 4;
        sc.checkpoint_every = 7;
        sc.budget = Some(13); // exhaust the budget repeatedly
        let mut rounds = 0;
        let stored = loop {
            rounds += 1;
            assert!(rounds < 50, "campaign never completed");
            match run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap() {
                StoredRun::Complete(c) => break c,
                StoredRun::Paused { completed, total } => {
                    assert!(completed < total as u64);
                    sc.resume = true;
                }
            }
        };
        assert!(rounds > 2, "budget of 13/80 should take several rounds, took {rounds}");
        assert_same_records(&uninterrupted.records, &stored.records);
    }

    #[test]
    fn fresh_run_refuses_existing_journal() {
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 1, ..Default::default() };
        let sc = StoreConfig::new(tmp("refuse"));
        run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap().expect_complete();
        let err = run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn resume_refuses_a_different_campaign() {
        let g = golden();
        let cfg = CampaignConfig { trials: 8, seed: 1, ..Default::default() };
        let mut sc = StoreConfig::new(tmp("meta-mismatch"));
        run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap().expect_complete();
        sc.resume = true;
        let other = CampaignConfig { trials: 8, seed: 2, ..Default::default() };
        let err = run_campaign_stored("victim", Victim::new, &g, &other, &sc).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
    }

    #[test]
    fn resume_of_a_complete_journal_is_a_cheap_no_op() {
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 9, ..Default::default() };
        let mut sc = StoreConfig::new(tmp("noop-resume"));
        sc.shards = 3;
        let first = run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap().expect_complete();
        sc.resume = true;
        sc.budget = Some(0); // no execution allowed: everything must come from the journal
        let second = run_campaign_stored("victim", Victim::new, &g, &cfg, &sc).unwrap().expect_complete();
        assert_same_records(&first.records, &second.records);
    }

    #[test]
    fn harness_panic_fails_only_its_shard_and_the_run_stays_resumable() {
        let _quiet = crate::panic_guard::silence_panics();
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 7, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);

        let mut sc = StoreConfig::new(tmp("panic-shard"));
        sc.shards = 3;
        sc.checkpoint_every = 2;
        let meta = CampaignMeta {
            kind: "inject".into(),
            benchmark: "victim".into(),
            seed: cfg.seed,
            trials: cfg.trials,
            shards: sc.shards,
            n_windows: cfg.n_windows,
            version: store::journal::FORMAT_VERSION,
        };
        let busy = AtomicU64::new(0);
        let run_real = |trial: usize| {
            let mut t = Victim::new();
            execute_trial("victim", &mut t, &g, &cfg, 8, trial).0
        };

        // First pass: trial 12 (shard 1) hits a harness bug.
        let (writer, progress, prior) = open_journal(&sc, meta.clone()).unwrap();
        let err = drive_shards(ShardPlan::new(cfg.trials, sc.shards), &progress, prior, writer, &sc, 3, &busy, |trial| {
            if trial == 12 {
                panic!("injected harness bug at trial {trial}");
            }
            run_real(trial)
        })
        .unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
        assert!(err.to_string().contains("injected harness bug"), "{err}");

        // Sibling shards sealed despite the panic; the panicking shard kept
        // its checkpointed progress and nothing else.
        sc.resume = true;
        let (writer, progress, prior) = open_journal(&sc, meta).unwrap();
        assert!(progress.shards[0].done, "shard 0 must seal despite shard 1's panic");
        assert!(progress.shards[2].done, "shard 2 must seal despite shard 1's panic");
        assert!(!progress.shards[1].done);
        assert_eq!(progress.shards[1].completed, 4, "shard 1 completed trials 8..12 before the panic");

        // Resume finishes the failed shard and the aggregate matches the
        // uninterrupted in-process run.
        let records = drive_shards(ShardPlan::new(cfg.trials, sc.shards), &progress, prior, writer, &sc, 3, &busy, run_real)
            .unwrap()
            .expect_complete();
        assert_same_records(&reference.records, &records);
    }

    /// Worker entry for the isolated-campaign self-exec tests below: when
    /// spawned by a warden (socket env set) it serves real `Victim` trials
    /// by global index, with misbehavior scripted by the spec; as an
    /// ordinary test run it is a no-op.
    ///
    /// Spec format: `<mode>,<seed>,<trials>` where `mode` is `plain` or
    /// `+`-joined directives like `abort-5+hang-9`.
    #[test]
    fn isolated_worker_entry() {
        let Some(spec) = crate::warden::worker_spec() else { return };
        let mut parts = spec.split(',');
        let mode = parts.next().unwrap().to_string();
        let seed: u64 = parts.next().unwrap().parse().unwrap();
        let trials: usize = parts.next().unwrap().parse().unwrap();
        let cfg = CampaignConfig { trials, seed, ..Default::default() };
        let g = golden();
        let mut abort_on = None;
        let mut hang_on = None;
        for directive in mode.split('+') {
            match directive.split_once('-') {
                Some(("abort", n)) => abort_on = Some(n.parse::<usize>().unwrap()),
                Some(("hang", n)) => hang_on = Some(n.parse::<usize>().unwrap()),
                _ => {}
            }
        }
        let result = crate::warden::serve(|trial, attempt| {
            if abort_on == Some(trial) {
                std::process::abort();
            }
            if hang_on == Some(trial) {
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
            let mut target = Victim::new();
            crate::campaign::execute_trial_attempt("victim", &mut target, &g, &cfg, 8, trial, attempt, false).0
        });
        std::process::exit(if result.is_ok() { 0 } else { 1 });
    }

    /// IsolateConfig pointing back at this test binary, filtered down to
    /// the worker entry above.
    fn iso_cfg(mode: &str, cfg: &CampaignConfig) -> IsolateConfig {
        let mut iso = IsolateConfig::new(
            std::env::current_exe().expect("test binary path"),
            vec![
                "orchestrator::tests::isolated_worker_entry".into(),
                "--exact".into(),
                "--test-threads=1".into(),
                "--nocapture".into(),
            ],
            format!("{mode},{},{}", cfg.seed, cfg.trials),
        );
        iso.backoff_base = std::time::Duration::from_millis(1);
        iso.backoff_cap = std::time::Duration::from_millis(10);
        iso
    }

    #[test]
    fn isolated_campaign_matches_the_in_process_run() {
        let g = golden();
        let cfg = CampaignConfig { trials: 24, seed: 11, workers: 2, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);
        let mut sc = StoreConfig::new(tmp("isolated-match"));
        sc.shards = 3;
        let stored = run_campaign_isolated("victim", 8, &cfg, &sc, &iso_cfg("plain", &cfg)).unwrap().expect_complete();
        assert_eq!(reference.records.len(), stored.records.len());
        for (a, b) in reference.records.iter().zip(&stored.records) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "trial {} must be bit-identical across execution backends",
                a.trial
            );
        }
        assert_eq!(reference.report.outcomes, stored.report.outcomes);
    }

    #[test]
    fn crashing_and_hanging_victims_become_dues_and_the_campaign_completes() {
        use crate::record::OutcomeRecord;
        let g = golden();
        let cfg = CampaignConfig { trials: 12, seed: 23, workers: 2, ..Default::default() };
        let reference = run_campaign("victim", Victim::new, &g, &cfg);
        let mut sc = StoreConfig::new(tmp("isolated-dues"));
        sc.shards = 2;
        let mut iso = iso_cfg("abort-5+hang-9", &cfg);
        iso.trial_wall = std::time::Duration::from_millis(400);
        let stored = run_campaign_isolated("victim", 8, &cfg, &sc, &iso).unwrap().expect_complete();
        assert_eq!(stored.records.len(), 12);
        assert_eq!(stored.records[5].outcome, OutcomeRecord::Due(DueKind::Signal { signo: 6 }), "SIGABRT victim");
        assert_eq!(stored.records[9].outcome, OutcomeRecord::Due(DueKind::Killed), "wall-clock-killed victim");
        for (a, b) in reference.records.iter().zip(&stored.records) {
            if a.trial == 5 || a.trial == 9 {
                // Quarantined trials keep their deterministic identity even
                // though the victim never reported back.
                assert_eq!(a.model, b.model);
                assert_eq!(a.inject_step, b.inject_step);
                assert_eq!(a.window, b.window);
                continue;
            }
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "well-behaved trial {} must be bit-identical",
                a.trial
            );
        }
    }
}
