//! The traced layer pass: measures every layer on the workload's own
//! kernels and size, each against the layer beneath it. Layers the
//! workload's end-to-end campaigns do not use are measured here on a
//! reduced count of the same spec, so every traced run reports every
//! per-layer metric.

use crate::check::{Kind, Size, Spec, Tally};
use crate::layers::{self, journal_bytes, Ctx, ServeSession};
use crate::workloads::Plan;
use carolfi::models::{CarolFiApplicator, FaultApplicator, FaultModel, InjectionDetail};
use carolfi::record::TrialRecord;
use carolfi::supervisor::{run_trial, TrialConfig};
use carolfi::target::{FaultTarget, Variable};
use carolfi::{Fuel, TargetPool};
use kernels::{build, golden, Benchmark};
use std::time::Instant;
use store::{BatchPolicy, Journal, JournalEntry, JournalWriter};

/// One per-layer metric: name, value, unit and, for ratios, their base.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, "");
    }

    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: &'static str,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }
}

/// The middle value, or the mean of the two middle values; 0 for an
/// empty sample.
pub fn median(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 || n == 0 {
        return quantile(v, 0.5);
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    (s[n / 2 - 1] + s[n / 2]) / 2.0
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let idx = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[idx]
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Trials per kernel the layer pass runs through each layer.
fn pass_count(plan: &Plan) -> usize {
    match plan.size {
        Size::Small => 32,
        Size::Test => 512,
    }
}

/// Trials per kernel the layer pass sends through `phi-coord`.
const DIST_PASS: usize = 16;

/// Applies a fault that changes nothing (one bit flipped twice), so the
/// supervised run pays for supervision and the golden compare without an
/// outcome change.
struct NullFault;

impl FaultApplicator for NullFault {
    fn apply(
        &mut self,
        vars: &mut [Variable<'_>],
        _: &mut rand::rngs::StdRng,
    ) -> Option<InjectionDetail> {
        let v = &mut vars[0];
        v.bytes[0] ^= 1;
        v.bytes[0] ^= 1;
        Some(InjectionDetail {
            var_name: v.info.name.into(),
            var_class: v.info.class,
            frame: v.info.frame.label().into(),
            thread: v.info.thread,
            decl: String::new(),
            elem_index: 0,
            bits: vec![],
            mechanism: "null".into(),
        })
    }
}

/// ZOFI's injector overhead for every kernel at Test and Small size: raw
/// run (build, then `run_until` to the end at full speed), supervised
/// masked trial and supervised trial with a real fault, each the median of
/// a few repetitions.
fn injector_overhead(ctx: &Ctx, plan: &Plan, m: &mut Metrics) {
    let _quiet = carolfi::panic_guard::silence_panics();
    let mut headline = Vec::new();
    for size in [Size::Test, Size::Small] {
        let reps = if size == Size::Test { 9 } else { 3 };
        for b in Benchmark::ALL {
            let class = size.class();
            let g = golden(b, class);
            let inject_step = build(b, class).total_steps() / 2;
            let (mut raw, mut masked, mut fault) = (Vec::new(), Vec::new(), Vec::new());
            for rep in 0..reps {
                let t = Instant::now();
                let mut target = build(b, class);
                target.run_until(usize::MAX, &mut Fuel::new(u64::MAX));
                std::hint::black_box(target.output().len());
                raw.push(t.elapsed().as_secs_f64());

                let cfg = TrialConfig {
                    inject_step,
                    ..Default::default()
                };
                let _s = ctx.tracer.span("supervisor", "run_trial", rep);
                let mut rng = carolfi::rng::fork(plan.seed, rep);
                let t = Instant::now();
                std::hint::black_box(
                    run_trial(build(b, class), &g, &mut NullFault, cfg, &mut rng).executed_steps,
                );
                masked.push(t.elapsed().as_secs_f64());

                let mut rng = carolfi::rng::fork(plan.seed, rep);
                let mut app = CarolFiApplicator::new(FaultModel::Single);
                let t = Instant::now();
                std::hint::black_box(
                    run_trial(build(b, class), &g, &mut app, cfg, &mut rng).executed_steps,
                );
                fault.push(t.elapsed().as_secs_f64());
            }
            let base = median(&raw);
            let key = format!("supervisor.injector_overhead.{}.{}", size.tag(), b.label());
            m.note(
                format!("{key}.masked"),
                ratio(median(&masked), base),
                "ratio",
                "over the raw run",
            );
            m.note(
                format!("{key}.fault"),
                ratio(median(&fault), base),
                "ratio",
                "over the raw run",
            );
            if size == plan.size {
                headline.push(ratio(median(&masked), base));
            }
        }
    }
    m.note(
        "supervisor.injector_overhead",
        median(&headline),
        "ratio",
        "supervised masked trial over the raw run",
    );
}

/// Kernel set-up costs: `build` and `golden` per kernel.
fn kernel_costs(ctx: &Ctx, plan: &Plan, m: &mut Metrics) {
    let (mut builds, mut goldens) = (Vec::new(), Vec::new());
    for &b in &plan.kernels {
        for rep in 0..5 {
            let t = Instant::now();
            {
                let _s = ctx.tracer.span("kernels", "build", rep);
                std::hint::black_box(build(b, plan.size.class()).total_steps());
            }
            builds.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            {
                let _s = ctx.tracer.span("kernels", "golden", rep);
                std::hint::black_box(golden(b, plan.size.class()));
            }
            goldens.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.put("kernels.build_us", median(&builds), "us");
    m.put("kernels.golden_ms", median(&goldens), "ms");
}

/// Per-trial in-process costs, gathered by driving `TargetPool` and
/// `execute_trial` one trial at a time.
#[derive(Default)]
struct TrialCosts {
    /// `execute_trial` wall per trial.
    trial_us: Vec<f64>,
    reset_us: Vec<f64>,
    acquires: u64,
    rebuilds: u64,
    pre_us: f64,
    trial_sum_us: f64,
    fast: u64,
    compared: u64,
}

fn trial_costs(ctx: &Ctx, specs: &[Spec], tally: &mut Tally) -> TrialCosts {
    let _quiet = carolfi::panic_guard::silence_panics();
    let mut c = TrialCosts::default();
    for spec in specs {
        let g = ctx.checker.golden(spec.bench, spec.size);
        let (b, size) = (spec.bench, spec.size.class());
        let cfg = spec.parsed(false, None).campaign_config();
        let pool = TargetPool::new(move || build(b, size));
        let probe = pool.acquire();
        let total_steps = probe.total_steps().max(1);
        pool.seed(probe);
        let mut records = Vec::with_capacity(spec.count);
        for trial in 0..spec.count {
            let _t = ctx.tracer.span("campaign", "trial", trial as u64);
            let hits = pool.hits();
            let t = Instant::now();
            let mut target = {
                let _s = ctx.tracer.span("pool", "acquire", trial as u64);
                pool.acquire()
            };
            if pool.hits() > hits {
                c.reset_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let t = Instant::now();
            let (record, fast) = {
                let _s = ctx.tracer.span("supervisor", "execute_trial", trial as u64);
                carolfi::campaign::execute_trial(
                    spec.label(),
                    &mut target,
                    &g,
                    &cfg,
                    total_steps,
                    trial,
                )
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            {
                let _s = ctx.tracer.span("store", "encode_record", trial as u64);
                let payload = serde_json::to_string(&record).expect("trial records serialize");
                std::hint::black_box(
                    store::encode_record(&JournalEntry::Trial {
                        shard: 0,
                        seq: trial as u64,
                        payload,
                    })
                    .ok(),
                );
            }
            {
                let _s = ctx.tracer.span("pool", "release", trial as u64);
                pool.release(target, record.outcome.is_due());
            }
            c.trial_us.push(us);
            c.trial_sum_us += us;
            c.fast += fast as u64;
            c.compared += (record.outcome.is_masked() || record.outcome.is_sdc()) as u64;
            records.push(record);
        }
        c.acquires += pool.hits() + pool.rebuilds();
        c.rebuilds += pool.rebuilds();
        tally.record(ctx.checker.check_records(spec, &records));
        // The fault-free pre-phase of every trial, on a pristine target.
        for r in &records {
            let mut target = pool.acquire();
            let t = Instant::now();
            let mut fuel = Fuel::new(u64::MAX);
            target.run_until(r.inject_step, &mut fuel);
            c.pre_us += t.elapsed().as_secs_f64() * 1e6;
            pool.release(target, false);
        }
    }
    c
}

/// Per-strike beam costs through `execute_strike`.
fn strike_costs(ctx: &Ctx, specs: &[Spec], m: &mut Metrics, tally: &mut Tally) {
    let _quiet = carolfi::panic_guard::silence_panics();
    let (mut strike_us, mut ran, mut ran_masked) = (Vec::new(), 0u64, 0u64);
    for spec in specs {
        let g = ctx.checker.golden(spec.bench, spec.size);
        let (b, size) = (spec.bench, spec.size.class());
        let cfg = spec.parsed(false, None).beam_config();
        let pool = TargetPool::new(move || build(b, size));
        let probe = pool.acquire();
        let total_steps = probe.total_steps().max(1);
        pool.seed(probe);
        let mut records = Vec::with_capacity(spec.count);
        for strike in 0..spec.count {
            let t = Instant::now();
            let (record, ..) = {
                let _s = ctx.tracer.span("beamsim", "execute_strike", strike as u64);
                beamsim::campaign::execute_strike(
                    spec.label(),
                    &pool,
                    &g,
                    &cfg,
                    total_steps,
                    strike,
                )
            };
            strike_us.push(t.elapsed().as_secs_f64() * 1e6);
            if record.executed_steps > 0 {
                ran += 1;
                ran_masked += record.outcome.is_masked() as u64;
            }
            records.push(record);
        }
        tally.record(ctx.checker.check_records(spec, &records));
    }
    m.put("beamsim.strike_us.p50", median(&strike_us), "us");
    m.note(
        "beamsim.hw_masked_ratio",
        ratio(ran_masked as f64, ran as f64),
        "ratio",
        "masked strikes over strikes that ran the kernel",
    );
}

/// Appends between the journal probe's syncs.
const SYNC_EVERY: usize = 16;

/// Direct journal probe over the records of each spec's in-memory run:
/// `encode_record`, `JournalWriter::append` and `sync` under the default
/// batch policy, then `Journal::scan`.
fn journal_probe(ctx: &Ctx, runs: &[(Spec, Vec<TrialRecord>)], m: &mut Metrics, tally: &mut Tally) {
    let (mut encode_us, mut append_us, mut sync_ms, mut scan_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut records) = (0u64, 0usize);
    for (spec, run) in runs {
        let dir = ctx.fresh_dir("journal");
        let meta = store::CampaignMeta {
            kind: "inject".into(),
            benchmark: spec.label().into(),
            seed: spec.seed,
            trials: spec.count,
            shards: 1,
            n_windows: spec.bench.n_windows(),
            version: store::journal::FORMAT_VERSION,
        };
        let mut w = match JournalWriter::create(&dir, meta) {
            Ok(w) => w,
            Err(e) => {
                tally.record(Err(format!("journal create: {e}")));
                continue;
            }
        };
        let mut payloads = Vec::with_capacity(run.len());
        let mut ok = Ok(());
        for (seq, r) in run.iter().enumerate() {
            let payload = serde_json::to_string(r).expect("trial records serialize");
            let entry = JournalEntry::Trial {
                shard: 0,
                seq: seq as u64,
                payload: payload.clone(),
            };
            let t = Instant::now();
            std::hint::black_box(store::encode_record(&entry).ok());
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let r = {
                let _s = ctx.tracer.span("store", "append", seq as u64);
                w.append(&entry)
            };
            append_us.push(t.elapsed().as_secs_f64() * 1e6);
            ok = ok.and(r.map_err(|e| e.to_string()));
            if (seq + 1) % SYNC_EVERY == 0 {
                let t = Instant::now();
                let r = {
                    let _s = ctx.tracer.span("store", "sync", seq as u64);
                    w.sync()
                };
                sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ok = ok.and(r.map_err(|e| e.to_string()));
            }
            payloads.push(payload);
        }
        ok = ok.and(w.close().map_err(|e| e.to_string()));
        let t = Instant::now();
        let scan = {
            let _s = ctx.tracer.span("store", "scan", 0);
            Journal::scan(&dir)
        };
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let check = ok
            .and_then(|()| scan.map_err(|e| e.to_string()))
            .and_then(|scan| {
                let got: Vec<String> = scan
                    .entries
                    .into_iter()
                    .filter_map(|e| match e {
                        JournalEntry::Trial { payload, .. } => Some(payload),
                        _ => None,
                    })
                    .collect();
                crate::check::compare_streams(&payloads, &got)
            });
        tally.record(check.map_err(|e| format!("{} journal probe: {e}", spec.label())));
        bytes += journal_bytes(&dir);
        records += payloads.len();
    }
    m.put("store.encode_us", mean(&encode_us), "us");
    m.put("store.append_us.p50", median(&append_us), "us");
    m.put("store.append_us.p99", quantile(&append_us, 0.99), "us");
    m.put("store.sync_ms", median(&sync_ms), "ms");
    m.put("store.scan_ms", median(&scan_ms), "ms");
    m.put(
        "store.bytes_per_record",
        ratio(bytes as f64, records as f64),
        "B",
    );
}

/// Stored wall of `spec` under an explicit batch policy, through
/// `run_campaign_stored`.
fn stored_with_batch(ctx: &Ctx, spec: &Spec, batch: BatchPolicy, tally: &mut Tally) -> f64 {
    let dir = ctx.fresh_dir("batch");
    let p = spec.parsed(false, None);
    let mut sc = p.store_config(&dir, false, None);
    sc.batch = batch;
    let g = ctx.checker.golden(spec.bench, spec.size);
    let (b, size) = (spec.bench, spec.size.class());
    let t = Instant::now();
    let run = {
        let _s = ctx.tracer.span("store", "run_campaign_stored", 0);
        carolfi::run_campaign_stored(
            spec.label(),
            || build(b, size),
            &g,
            &p.campaign_config(),
            &sc,
        )
    };
    let wall = t.elapsed().as_secs_f64();
    let check = match run {
        Ok(carolfi::orchestrator::StoredRun::Complete(c)) => {
            ctx.checker.check_records(spec, &c.records)
        }
        Ok(_) => Err("stored run paused without a budget".into()),
        Err(e) => Err(e.to_string()),
    };
    tally.record(check.map_err(|e| format!("{} batch policy run: {e}", spec.label())));
    wall
}

/// Every trial of `spec` through one `Warden`, each right after the same
/// trial in process: the warden's wall per trial and its excess over the
/// in-process `execute_trial`, in microseconds. The first trial, which pays
/// for the worker spawn, is left out.
fn warden_trials(ctx: &Ctx, spec: &Spec) -> Result<(Vec<f64>, Vec<f64>), String> {
    let _quiet = carolfi::panic_guard::silence_panics();
    let g = ctx.checker.golden(spec.bench, spec.size);
    let (b, size) = (spec.bench, spec.size.class());
    let cfg = spec.parsed(false, None).campaign_config();
    let pool = TargetPool::new(move || build(b, size));
    let probe = pool.acquire();
    let total_steps = probe.total_steps().max(1);
    pool.seed(probe);
    let iso = spec
        .parsed(true, None)
        .isolate_config()
        .map_err(|e| e.to_string())?;
    let mut warden = carolfi::Warden::new(iso).map_err(|e| e.to_string())?;
    let (mut wall, mut ipc, mut records) = (Vec::new(), Vec::new(), Vec::new());
    for trial in 0..spec.count {
        let mut target = pool.acquire();
        let t = Instant::now();
        let (record, _) = carolfi::campaign::execute_trial(
            spec.label(),
            &mut target,
            &g,
            &cfg,
            total_steps,
            trial,
        );
        let inproc = t.elapsed().as_secs_f64() * 1e6;
        pool.release(target, record.outcome.is_due());
        let t = Instant::now();
        let r = {
            let _s = ctx.tracer.span("warden", "run_trial", trial as u64);
            warden.run_trial(trial)
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        match r.map_err(|e| e.to_string())? {
            carolfi::IsolatedTrial::Completed(rec) => records.push(*rec),
            other => return Err(format!("trial {trial} not completed: {other:?}")),
        }
        if trial > 0 {
            wall.push(us);
            ipc.push(us - inproc);
        }
    }
    warden.shutdown();
    ctx.checker.check_records(spec, &records)?;
    Ok((wall, ipc))
}

/// Runs the layer pass and returns every per-layer metric except self
/// times and tracing overhead.
pub fn layer_pass(ctx: &Ctx, plan: &Plan, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let n = pass_count(plan);
    let inject: Vec<Spec> = plan
        .kernels
        .iter()
        .map(|&b| plan.spec(Kind::Inject, b, n, 5))
        .collect();
    let beam: Vec<Spec> = plan
        .kernels
        .iter()
        .map(|&b| plan.spec(Kind::Beam, b, n, 5))
        .collect();
    for s in inject.iter().chain(&beam) {
        ctx.checker.prepare(s);
    }

    kernel_costs(ctx, plan, &mut m);
    injector_overhead(ctx, plan, &mut m);

    let before = obs::snapshot().unwrap_or_default();
    let c = trial_costs(ctx, &inject, tally);
    m.put("pool.reset_us", median(&c.reset_us), "us");
    m.note(
        "pool.rebuild_ratio",
        ratio(c.rebuilds as f64, c.acquires as f64),
        "ratio",
        "rebuilds over acquires",
    );
    m.put("supervisor.trial_us.p50", median(&c.trial_us), "us");
    m.put("supervisor.trial_us.p99", quantile(&c.trial_us, 0.99), "us");
    m.note(
        "supervisor.pre_phase_share",
        ratio(c.pre_us, c.trial_sum_us),
        "ratio",
        "pristine pre-phase over trial time",
    );
    let after = obs::snapshot().unwrap_or_default();
    let compare = after
        .hists
        .get("compare")
        .map(|h| (h.count, h.sum_ns))
        .unwrap_or((0, 0));
    let compare0 = before
        .hists
        .get("compare")
        .map(|h| (h.count, h.sum_ns))
        .unwrap_or((0, 0));
    let (cn, cs) = (compare.0 - compare0.0, compare.1 - compare0.1);
    m.put(
        "supervisor.compare_us",
        ratio(cs as f64 / 1e3, cn as f64),
        "us",
    );
    m.note(
        "supervisor.fast_compare_ratio",
        ratio(c.fast as f64, c.compared as f64),
        "ratio",
        "bitwise-only compares over compares",
    );

    strike_costs(ctx, &beam, &mut m, tally);

    // Each spec through every layer back to back, so a layer and the layer
    // beneath it see the same machine state.
    let spawned0 = obs::snapshot()
        .map(|s| s.counter("warden/spawned"))
        .unwrap_or(0);
    let mut session = ServeSession::start(ctx)
        .map_err(|e| tally.record(Err(format!("serve start: {e}"))))
        .ok();
    let (mut mem_wall, mut busy, mut capacity) = (0.0, 0.0, 0.0);
    let mut mem_runs = Vec::new();
    let (mut stored_wall, mut batched, mut unbatched, mut iso_wall, mut served) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in &inject {
        let o = layers::in_memory(ctx, s);
        mem_wall += o.run_s();
        if let Some(r) = &o.report {
            busy += r.busy_ns as f64;
            capacity += r.wall_ns as f64 * r.workers as f64;
        }
        tally.record(o.check);
        mem_runs.push((*s, o.records));
        let o = layers::stored(ctx, s, false, None);
        stored_wall += o.run_s();
        tally.record(o.check);
        batched += stored_with_batch(ctx, s, BatchPolicy::default(), tally);
        unbatched += stored_with_batch(ctx, s, BatchPolicy::unbatched(), tally);
        let o = layers::stored(ctx, s, true, None);
        iso_wall += o.run_s();
        tally.record(o.check);
        if let Some(session) = session.as_mut() {
            let o = session.run(ctx, s, None);
            served += o.run_s();
            tally.record(o.check);
        }
    }
    m.note(
        "campaign.utilization",
        ratio(busy, capacity),
        "ratio",
        "busy time over wall x workers",
    );
    m.note(
        "store.overhead_ratio",
        ratio(stored_wall, mem_wall),
        "ratio",
        "stored over in-memory",
    );
    m.note(
        "store.writethrough_ratio",
        ratio(unbatched, batched),
        "ratio",
        "write-through over batched",
    );
    m.note(
        "warden.overhead_ratio",
        ratio(iso_wall, stored_wall),
        "ratio",
        "isolated over stored",
    );
    if let Some(session) = session {
        let slices = session
            .runner
            .slices
            .load(std::sync::atomic::Ordering::Relaxed);
        m.put(
            "serve.submit_ms",
            ratio(session.submit_ns as f64 / 1e6, session.submits as f64),
            "ms",
        );
        m.put("serve.slices", slices as f64, "count");
        m.note(
            "serve.slice_overhead_ms",
            ratio((served - stored_wall) * 1e3, slices as f64),
            "ms",
            "(served - stored wall) per slice",
        );
        m.note(
            "serve.overhead_ratio",
            ratio(served, stored_wall),
            "ratio",
            "served over stored",
        );
        session.stop();
    }
    journal_probe(ctx, &mem_runs, &mut m, tally);

    // Adaptive planner over the first kernel, against fixed-count stored.
    let spec = plan.spec(Kind::Inject, plan.kernels[0], plan.horizon, 1);
    let (o, stats) = layers::adaptive(ctx, &spec, &plan.plan_block());
    let adaptive_rate = ratio(o.trials as f64, o.run_s());
    tally.record(o.check);
    m.put(
        "planner.decide_us",
        ratio(stats.decide_ns as f64 / 1e3, stats.batches as f64),
        "us",
    );
    m.put("planner.batches", stats.batches as f64, "count");
    let fixed_rate = ratio((n * inject.len()) as f64, stored_wall);
    m.note(
        "planner.overhead_ratio",
        ratio(adaptive_rate, fixed_rate),
        "ratio",
        "adaptive over fixed-count stored trials/s",
    );

    // Warden round trips, each right after the same trial in process.
    let (mut wall_us, mut ipc_us) = (Vec::new(), Vec::new());
    for s in &inject {
        match warden_trials(ctx, s) {
            Ok((wall, ipc)) => {
                wall_us.extend(wall);
                ipc_us.extend(ipc);
            }
            Err(e) => tally.record(Err(format!("{} warden: {e}", s.label()))),
        }
    }
    m.put("warden.trial_wall_us.p50", median(&wall_us), "us");
    m.put("warden.trial_wall_us.p99", quantile(&wall_us, 0.99), "us");
    m.note(
        "warden.ipc_us",
        median(&ipc_us),
        "us",
        "Warden::run_trial minus in-process execute_trial, same index",
    );
    let spawned = obs::snapshot()
        .map(|s| s.counter("warden/spawned"))
        .unwrap_or(0)
        - spawned0;
    m.put("warden.spawned", spawned as f64, "count");

    // phi-coord: a reduced count per kernel, against stored at that count.
    let (mut dist_wall, mut base_wall, mut trial_ms) = (0.0, 0.0, Vec::new());
    let (mut leases, mut merged, mut dups) = (0u64, 0u64, 0u64);
    for &b in &plan.kernels {
        let s = plan.spec(Kind::Inject, b, DIST_PASS, 6);
        let base = layers::stored(ctx, &s, false, None);
        base_wall += base.run_s();
        tally.record(base.check);
        let (o, st) = layers::distributed(ctx, &s);
        dist_wall += o.run_s();
        tally.record(o.check);
        trial_ms.extend(st.executor_trial_ms);
        leases += st.leases;
        merged += st.merged;
        dups += st.duplicates;
    }
    m.put("dist.trial_ms", mean(&trial_ms), "ms");
    m.put("dist.leases", leases as f64, "count");
    m.note(
        "dist.duplicate_ratio",
        ratio(dups as f64, merged as f64),
        "ratio",
        "duplicate trials over merged trials",
    );
    m.note(
        "dist.overhead_ratio",
        ratio(dist_wall, base_wall),
        "ratio",
        "distributed over stored",
    );

    let render_ms: Vec<f64> = ctx
        .tracer
        .durations_us("analysis", "render_result")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    m.put("analysis.render_ms", median(&render_ms), "ms");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.99), 4.0);
    }
}
