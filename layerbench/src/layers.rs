//! Timed calls into each execution layer's public functions. Every call
//! checks the campaign it ran against the in-memory reference.

use crate::check::{Checker, Kind, Spec};
use crate::trace::Tracer;
use bench::spec::journal_records;
use bench::{render_result, run_spec, PlanSpec, SpecRun};
use carolfi::adaptive::{AllocationPlanner, PlanDecision};
use carolfi::monitor::PlannerStatus;
use carolfi::orchestrator::StoredRun;
use carolfi::record::TrialRecord;
use carolfi::{run_coordinator, run_executor, ConnectTarget, CoordConfig, ExecutorConfig};
use kernels::build;
use sdc_analysis::planner::WilsonPlanner;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one campaign through one layer did.
#[derive(Debug)]
pub struct Outcome {
    /// Trials (or strikes) completed.
    pub trials: usize,
    /// Wall time of the campaign, including reading its result back.
    pub wall_s: f64,
    /// The part of `wall_s` spent in `render_result`.
    pub render_s: f64,
    /// Bytes of journal segments on disk.
    pub journal_bytes: u64,
    pub check: Result<(), String>,
    pub report: Option<obs::CampaignReport>,
    pub records: Vec<TrialRecord>,
}

impl Outcome {
    /// Wall time until the records were complete, without reading the
    /// result back: the figure the layer overhead ratios compare.
    pub fn run_s(&self) -> f64 {
        self.wall_s - self.render_s
    }

    fn failed(reason: String, wall_s: f64) -> Self {
        Outcome {
            trials: 0,
            wall_s,
            render_s: 0.0,
            journal_bytes: 0,
            check: Err(reason),
            report: None,
            records: Vec::new(),
        }
    }
}

/// Shared state of one benchmark run.
pub struct Ctx {
    pub checker: Checker,
    pub tracer: Tracer,
    pub work: PathBuf,
    seq: AtomicU64,
}

impl Ctx {
    pub fn new(work: PathBuf) -> Self {
        Ctx {
            checker: Checker::default(),
            tracer: Tracer::new(false),
            work,
            seq: AtomicU64::new(0),
        }
    }

    /// A fresh directory path under the run's work directory.
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.work.join(format!("{what}-{n}"))
    }

    pub fn next_tag(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// Bytes of every journal segment under `dir`, recursively.
pub fn journal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let path = e.path();
        let Ok(meta) = e.metadata() else { continue };
        if meta.is_dir() {
            total += journal_bytes(&path);
        } else {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") && name.ends_with(".jsonl") {
                total += meta.len();
            }
        }
    }
    total
}

/// `run_campaign` / `run_beam_campaign` on all cores, in memory.
pub fn in_memory(ctx: &Ctx, spec: &Spec) -> Outcome {
    let g = ctx.checker.golden(spec.bench, spec.size);
    let (b, size) = (spec.bench, spec.size.class());
    let p = spec.parsed(false, None);
    let tag = ctx.next_tag();
    let t = Instant::now();
    let (records, report) = match spec.kind {
        Kind::Inject => {
            let _s = ctx.tracer.span("campaign", "run_campaign", tag);
            let c =
                carolfi::run_campaign(spec.label(), || build(b, size), &g, &p.campaign_config());
            (c.records, c.report)
        }
        Kind::Beam => {
            let _s = ctx.tracer.span("beamsim", "run_beam_campaign", tag);
            let c =
                beamsim::run_beam_campaign(spec.label(), || build(b, size), &g, &p.beam_config());
            (c.records, c.report)
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    let doc = bench::spec_result(
        spec.kind.campaign_kind(),
        1,
        spec.label(),
        spec.seed,
        0.0,
        &records,
    );
    let check = ctx
        .checker
        .check_records(spec, &records)
        .and_then(|()| ctx.checker.check_doc(spec, &doc));
    Outcome {
        trials: records.len(),
        wall_s,
        render_s: 0.0,
        journal_bytes: 0,
        check,
        report: Some(report),
        records,
    }
}

fn spec_records(run: SpecRun) -> Result<Vec<TrialRecord>, String> {
    match run {
        SpecRun::Inject(records) => Ok(records),
        SpecRun::Beam(c) => Ok(c.records),
        SpecRun::Paused { completed, total } => Err(format!("paused at {completed}/{total}")),
    }
}

/// `run_spec` through the durable store (optionally `--isolate`), then
/// `render_result` on its journal. With `pause_at`, the campaign first
/// pauses on that trial budget and is then resumed to completion.
pub fn stored(ctx: &Ctx, spec: &Spec, isolate: bool, pause_at: Option<usize>) -> Outcome {
    let dir = ctx.fresh_dir(if isolate { "isolate" } else { "stored" });
    let p = spec.parsed(isolate, None);
    let (layer, name) = if isolate {
        ("warden", "run_spec_isolated")
    } else {
        ("store", "run_spec")
    };
    let tag = ctx.next_tag();
    let t = Instant::now();
    let run = {
        let _s = ctx.tracer.span(layer, name, tag);
        match pause_at {
            None => run_spec(&p, &dir, false, None),
            Some(budget) => match run_spec(&p, &dir, false, Some(budget)) {
                Ok(SpecRun::Paused { .. }) => run_spec(&p, &dir, true, None),
                Ok(_) => Err(std::io::Error::other("budgeted run did not pause")),
                Err(e) => Err(e),
            },
        }
    };
    let r = Instant::now();
    let doc = {
        let _s = ctx.tracer.span("analysis", "render_result", tag);
        render_result(&dir, 0.0)
    };
    let render_s = r.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let records = match run.map_err(|e| e.to_string()).and_then(spec_records) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(format!("{} {name}: {e}", spec.label()), wall_s),
    };
    let check = match doc {
        Ok(doc) => ctx
            .checker
            .check_records(spec, &records)
            .and_then(|()| ctx.checker.check_doc(spec, &doc)),
        Err(e) => Err(format!("{} render_result: {e}", spec.label())),
    };
    Outcome {
        trials: records.len(),
        wall_s,
        render_s,
        journal_bytes: journal_bytes(&dir),
        check,
        report: None,
        records,
    }
}

/// Times `next_batch` + `observe` of the planner it wraps.
pub struct TimedPlanner<P> {
    pub inner: P,
    pub decide_ns: u64,
    pub batches: u64,
}

impl<P: AllocationPlanner> AllocationPlanner for TimedPlanner<P> {
    fn observe(&mut self, record: &TrialRecord) {
        let t = Instant::now();
        self.inner.observe(record);
        self.decide_ns += t.elapsed().as_nanos() as u64;
    }

    fn next_batch(&mut self) -> Option<PlanDecision> {
        let t = Instant::now();
        let d = self.inner.next_batch();
        self.decide_ns += t.elapsed().as_nanos() as u64;
        self.batches += d.is_some() as u64;
        d
    }

    fn gauges(&self) -> PlannerStatus {
        self.inner.gauges()
    }
}

/// Time the planner spent deciding, and the batches it decided.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanStats {
    pub decide_ns: u64,
    pub batches: u64,
}

/// `run_campaign_adaptive` with a `WilsonPlanner` configured by `plan` over
/// the horizon `spec.count`, then `render_result` on its journal.
pub fn adaptive(ctx: &Ctx, spec: &Spec, plan: &PlanSpec) -> (Outcome, PlanStats) {
    let dir = ctx.fresh_dir("adaptive");
    let g = ctx.checker.golden(spec.bench, spec.size);
    let (b, size) = (spec.bench, spec.size.class());
    let p = spec.parsed(false, Some(plan.clone()));
    let ccfg = p.campaign_config();
    let sc = p.store_config(&dir, false, None);
    let tag = ctx.next_tag();
    let t = Instant::now();
    let (run, planner) = {
        let _s = ctx.tracer.span("planner", "run_campaign_adaptive", tag);
        let total_steps = {
            let _k = ctx.tracer.span("kernels", "build", tag);
            build(b, size).total_steps().max(1)
        };
        let inner = WilsonPlanner::for_injection(&ccfg, total_steps, plan.ci, plan.batch)
            .with_method(plan.method);
        let mut planner = TimedPlanner {
            inner,
            decide_ns: 0,
            batches: 0,
        };
        let run = carolfi::run_campaign_adaptive(
            spec.label(),
            || build(b, size),
            &g,
            &ccfg,
            &sc,
            &mut planner,
        );
        (run, planner)
    };
    let r = Instant::now();
    let doc = {
        let _s = ctx.tracer.span("analysis", "render_result", tag);
        render_result(&dir, 0.0)
    };
    let render_s = r.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let stats = PlanStats {
        decide_ns: planner.decide_ns,
        batches: planner.batches,
    };
    let campaign = match run {
        Ok(StoredRun::Complete(c)) => c,
        Ok(StoredRun::Paused { .. }) => {
            return (
                Outcome::failed(format!("{} adaptive: paused", spec.label()), wall_s),
                stats,
            )
        }
        Err(e) => {
            return (
                Outcome::failed(format!("{} adaptive: {e}", spec.label()), wall_s),
                stats,
            )
        }
    };
    let check = match doc {
        Ok(doc) => ctx.checker.check_adaptive(spec, &campaign.records, &doc),
        Err(e) => Err(format!("{} adaptive render_result: {e}", spec.label())),
    };
    let check = check.and_then(|()| closed(spec, campaign.report.strata_open));
    let out = Outcome {
        trials: campaign.records.len(),
        wall_s,
        render_s,
        journal_bytes: journal_bytes(&dir),
        check,
        report: Some(campaign.report),
        records: campaign.records,
    };
    (out, stats)
}

/// An adaptive campaign that ran out of horizon never reached its target.
fn closed(spec: &Spec, strata_open: usize) -> Result<(), String> {
    if strata_open == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} adaptive: horizon exhausted with {strata_open} strata open",
            spec.label()
        ))
    }
}

/// The `serve::Runner` the daemon runs, counting its slices.
pub struct CountingRunner {
    pub slices: AtomicU64,
}

impl serve::Runner for CountingRunner {
    fn validate(&self, spec: &str) -> Result<serve::SpecInfo, String> {
        bench::SpecRunner.validate(spec)
    }

    fn run_slice(
        &self,
        spec: &str,
        journal: &Path,
        budget: usize,
    ) -> std::io::Result<serve::SliceRun> {
        self.slices.fetch_add(1, Ordering::Relaxed);
        bench::SpecRunner.run_slice(spec, journal, budget)
    }
}

/// An in-process `phi-serve` daemon and its one client.
pub struct ServeSession {
    server: serve::Server,
    pub runner: Arc<CountingRunner>,
    socket: PathBuf,
    /// Time spent in `Submit` round trips.
    pub submit_ns: u64,
    pub submits: u64,
}

impl ServeSession {
    /// Starts the daemon (the registry root and socket live under the
    /// run's work directory).
    pub fn start(ctx: &Ctx) -> std::io::Result<ServeSession> {
        let root = ctx.fresh_dir("serve");
        std::fs::create_dir_all(&root)?;
        let socket = root.join("s.sock");
        let runner = Arc::new(CountingRunner {
            slices: AtomicU64::new(0),
        });
        let _s = ctx.tracer.span("serve", "start", 0);
        let cfg = serve::ServeConfig::new(socket.clone(), root.join("registry"));
        let server = serve::Server::start(cfg, runner.clone(), Arc::new(serve::EventBus::new()))?;
        Ok(ServeSession {
            server,
            runner,
            socket,
            submit_ns: 0,
            submits: 0,
        })
    }

    /// Submits one campaign and waits for its result document.
    pub fn run(&mut self, ctx: &Ctx, spec: &Spec, plan: Option<PlanSpec>) -> Outcome {
        use serve::proto::{roundtrip, ClientRequest, ServerReply};
        let adaptive = plan.is_some();
        let wire = serde_json::to_string(&spec.wire(false, plan)).expect("specs serialize");
        let tag = ctx.next_tag();
        let t = Instant::now();
        let id = {
            let _s = ctx.tracer.span("serve", "submit", tag);
            let r = roundtrip(&self.socket, &ClientRequest::Submit { spec: wire });
            self.submit_ns += t.elapsed().as_nanos() as u64;
            self.submits += 1;
            match r {
                Ok(ServerReply::Submitted { id }) => id,
                other => {
                    return Outcome::failed(
                        format!("{} serve submit: {other:?}", spec.label()),
                        t.elapsed().as_secs_f64(),
                    )
                }
            }
        };
        let reply = {
            let _s = ctx.tracer.span("serve", "result", tag);
            roundtrip(
                &self.socket,
                &ClientRequest::Result {
                    id: id.clone(),
                    wait_ms: 120_000,
                },
            )
        };
        let wall_s = t.elapsed().as_secs_f64();
        let doc = match reply {
            Ok(ServerReply::Result { result, .. }) => result,
            other => {
                return Outcome::failed(format!("{} serve result: {other:?}", spec.label()), wall_s)
            }
        };
        let dir = self.server.registry().journal_dir(&id);
        let records = match journal_records(&dir) {
            Ok((_, r)) => r,
            Err(e) => {
                return Outcome::failed(format!("{} serve journal: {e}", spec.label()), wall_s)
            }
        };
        let check = if adaptive {
            ctx.checker.check_adaptive(spec, &records, &doc)
        } else {
            ctx.checker
                .check_records(spec, &records)
                .and_then(|()| ctx.checker.check_doc(spec, &doc))
        };
        Outcome {
            trials: records.len(),
            wall_s,
            render_s: 0.0,
            journal_bytes: journal_bytes(&dir),
            check,
            report: None,
            records,
        }
    }

    pub fn stop(self) {
        self.server.stop();
    }
}

/// What a distributed campaign reports besides its outcome.
#[derive(Debug, Default, Clone)]
pub struct DistStats {
    /// Coordinator bind to the first trial an executor starts.
    pub setup_s: f64,
    pub leases: u64,
    pub merged: u64,
    pub duplicates: u64,
    /// Per executor: wall time ÷ trials streamed, in ms.
    pub executor_trial_ms: Vec<f64>,
}

/// One campaign through an in-process `phi-coord` coordinator and
/// one localhost executor per core over TCP, then `render_result`.
pub fn distributed(ctx: &Ctx, spec: &Spec) -> (Outcome, DistStats) {
    let dir = ctx.fresh_dir("dist");
    let p = spec.parsed(false, None);
    let meta = store::CampaignMeta {
        kind: "inject".into(),
        benchmark: spec.label().into(),
        seed: spec.seed,
        trials: spec.count,
        shards: crate::check::SHARDS,
        n_windows: spec.bench.n_windows(),
        version: store::journal::FORMAT_VERSION,
    };
    let spec_json = serde_json::to_string(&p.spec).expect("specs serialize");
    let tag = ctx.next_tag();
    let mut stats = DistStats::default();
    let t = Instant::now();
    let first_trial: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let result = {
        let _s = ctx.tracer.span("dist", "campaign", tag);
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => return (Outcome::failed(format!("dist bind: {e}"), 0.0), stats),
        };
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let mut ccfg = CoordConfig::new(dir.join("central"), meta, spec_json);
        ccfg.linger = Duration::from_secs(5);
        std::thread::scope(|scope| {
            let coord = scope.spawn(move || run_coordinator(listener, &ccfg));
            let handles: Vec<_> = (0..crate::workloads::nproc())
                .map(|i| {
                    let ecfg = ExecutorConfig::new(
                        format!("ex{i}"),
                        dir.join(format!("ex{i}")),
                        ConnectTarget::Addr(addr.clone()),
                    );
                    let first = first_trial.clone();
                    scope.spawn(move || {
                        let t = Instant::now();
                        let r = run_executor(&ecfg, |_meta, spec| executor_runner(spec, first));
                        (r, t.elapsed().as_secs_f64())
                    })
                })
                .collect();
            let execs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("executor thread"))
                .collect();
            (coord.join().expect("coordinator thread"), execs)
        })
    };
    let r = Instant::now();
    let render = {
        let _s = ctx.tracer.span("analysis", "render_result", tag);
        render_result(&dir.join("central"), 0.0)
    };
    let render_s = r.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    if let Some(first) = *first_trial.lock().expect("executor threads have ended") {
        stats.setup_s = first.duration_since(t).as_secs_f64();
    }
    let (coord, execs) = result;
    for (r, wall) in &execs {
        match r {
            Ok(s) if s.streamed > 0 => stats.executor_trial_ms.push(wall * 1e3 / s.streamed as f64),
            Ok(_) => {}
            Err(e) => {
                return (
                    Outcome::failed(format!("{} dist executor: {e}", spec.label()), wall_s),
                    stats,
                )
            }
        }
    }
    match coord {
        Ok(s) => {
            stats.leases = s.leases_granted;
            stats.merged = s.merged;
            stats.duplicates = s.duplicates;
        }
        Err(e) => {
            return (
                Outcome::failed(format!("{} dist coordinator: {e}", spec.label()), wall_s),
                stats,
            )
        }
    }
    let records = match journal_records(&dir.join("central")) {
        Ok((_, r)) => r,
        Err(e) => {
            return (
                Outcome::failed(format!("{} dist journal: {e}", spec.label()), wall_s),
                stats,
            )
        }
    };
    let check = match render {
        Ok(doc) => ctx
            .checker
            .check_records(spec, &records)
            .and_then(|()| ctx.checker.check_doc(spec, &doc)),
        Err(e) => Err(format!("{} dist render_result: {e}", spec.label())),
    };
    let out = Outcome {
        trials: records.len(),
        wall_s,
        render_s,
        journal_bytes: journal_bytes(&dir.join("central")),
        check,
        report: None,
        records,
    };
    (out, stats)
}

/// The executor's per-trial runner: the same pooled `execute_trial` path
/// the `phi-coord` binary's executor role runs.
fn executor_runner(spec: &str, first: Arc<Mutex<Option<Instant>>>) -> impl FnMut(u64) -> String {
    let p = bench::parse_spec(spec).expect("the coordinator hands out the spec it was given");
    let (b, size) = (p.benchmark, p.size);
    let label = b.label();
    let ccfg = p.campaign_config();
    let g = kernels::golden(b, size);
    let pool = carolfi::TargetPool::new(move || build(b, size));
    let total_steps = {
        let probe = pool.acquire();
        let steps = probe.total_steps().max(1);
        pool.release(probe, false);
        steps
    };
    move |global: u64| {
        first
            .lock()
            .expect("no executor panics while holding the first-trial stamp")
            .get_or_insert_with(Instant::now);
        let mut target = pool.acquire();
        let (record, _) = carolfi::campaign::execute_trial(
            label,
            &mut target,
            &g,
            &ccfg,
            total_steps,
            global as usize,
        );
        pool.release(target, record.outcome.is_due());
        serde_json::to_string(&record).expect("trial records serialize")
    }
}

/// `Warden::new` plus the first `Warden::run_trial` (worker spawn included),
/// in seconds; the warden shuts its worker down before returning.
pub fn warden_startup(ctx: &Ctx, spec: &Spec) -> Result<f64, String> {
    let p = spec.parsed(true, None);
    let iso = p.isolate_config().map_err(|e| e.to_string())?;
    let _s = ctx.tracer.span("warden", "startup", 0);
    let t = Instant::now();
    let mut w = carolfi::Warden::new(iso).map_err(|e| e.to_string())?;
    w.run_trial(0).map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64();
    w.shutdown();
    Ok(s)
}
