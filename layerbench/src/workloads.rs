//! The three workloads. Each is a closed loop: one caller runs or submits a
//! campaign and waits for its result before the next. A run repeats the
//! workload's round of campaigns until its time is up; every round runs the
//! same campaigns, all generated from the workload seed.

use crate::check::{Kind, Size, Spec, Tally};
use crate::layers::{self, Ctx, Outcome, ServeSession};
use bench::PlanSpec;
use kernels::{build, golden, Benchmark};
use sdc_analysis::planner::DEFAULT_BATCH;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresSmall,
    JournalTest,
    ServicesTest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "figures-small" => Some(Workload::FiguresSmall),
            "journal-test" => Some(Workload::JournalTest),
            "services-test" => Some(Workload::ServicesTest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresSmall => "figures-small",
            Workload::JournalTest => "journal-test",
            Workload::ServicesTest => "services-test",
        }
    }
}

/// Counts, kernels and targets of one workload's round.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub size: Size,
    pub kernels: Vec<Benchmark>,
    pub inject: usize,
    pub beam: usize,
    /// Kernels, horizon and target CI width of the adaptive campaigns.
    pub adaptive_kernels: Vec<Benchmark>,
    pub horizon: usize,
    pub ci: f64,
    /// Trials of the campaign paused on a budget and resumed (journal-test).
    pub resumed: usize,
    /// Trials per kernel through `phi-coord` (services-test).
    pub dist: usize,
    /// Trials per kernel through `phi-serve` (services-test).
    pub served: usize,
    pub seed: u64,
}

/// splitmix64: derives every campaign seed from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let base = Plan {
            workload,
            size: Size::Test,
            kernels: Benchmark::ALL.to_vec(),
            inject: 0,
            beam: 0,
            adaptive_kernels: Vec::new(),
            horizon: 4000,
            ci: 0.3,
            resumed: 0,
            dist: 0,
            served: 0,
            seed,
        };
        match workload {
            Workload::FiguresSmall => Plan {
                size: Size::Small,
                inject: 96,
                beam: 320,
                adaptive_kernels: vec![Benchmark::Lavamd, Benchmark::Lud, Benchmark::Nw],
                horizon: 2000,
                ..base
            },
            Workload::JournalTest => Plan {
                inject: 256,
                beam: 1024,
                adaptive_kernels: vec![
                    Benchmark::Dgemm,
                    Benchmark::Lavamd,
                    Benchmark::Lud,
                    Benchmark::Nw,
                ],
                resumed: 256,
                ..base
            },
            Workload::ServicesTest => Plan {
                kernels: vec![Benchmark::Dgemm, Benchmark::Hotspot],
                inject: 256,
                beam: 1024,
                adaptive_kernels: vec![Benchmark::Dgemm, Benchmark::Hotspot],
                served: 512,
                dist: 16,
                ..base
            },
        }
    }

    /// The plan of round `i`: the same campaigns on fresh seeds, so a run
    /// covers as many inputs as its time allows.
    pub fn for_round(&self, i: usize) -> Plan {
        Plan {
            seed: mix(self.seed, (1 << 32) | i as u64),
            ..self.clone()
        }
    }

    /// The campaign of `kind` on kernel `b` with `count` trials; `role`
    /// keeps the seeds of different campaigns on one kernel apart.
    pub fn spec(&self, kind: Kind, b: Benchmark, count: usize, role: u64) -> Spec {
        let stream = role * 64 + b as u64 * 2 + (kind == Kind::Beam) as u64;
        Spec {
            kind,
            bench: b,
            size: self.size,
            count,
            seed: mix(self.seed, stream),
        }
    }

    pub fn inject_specs(&self) -> Vec<Spec> {
        self.kernels
            .iter()
            .map(|&b| self.spec(Kind::Inject, b, self.inject, 0))
            .collect()
    }

    pub fn beam_specs(&self) -> Vec<Spec> {
        self.kernels
            .iter()
            .map(|&b| self.spec(Kind::Beam, b, self.beam, 0))
            .collect()
    }

    pub fn adaptive_specs(&self) -> Vec<Spec> {
        self.adaptive_kernels
            .iter()
            .map(|&b| self.spec(Kind::Inject, b, self.horizon, 1))
            .collect()
    }

    pub fn resumed_spec(&self) -> Option<Spec> {
        (self.resumed > 0).then(|| self.spec(Kind::Inject, Benchmark::Dgemm, self.resumed, 2))
    }

    pub fn served_specs(&self) -> Vec<Spec> {
        if self.served == 0 {
            return Vec::new();
        }
        self.kernels
            .iter()
            .map(|&b| self.spec(Kind::Inject, b, self.served, 3))
            .collect()
    }

    pub fn dist_specs(&self) -> Vec<Spec> {
        if self.dist == 0 {
            return Vec::new();
        }
        self.kernels
            .iter()
            .map(|&b| self.spec(Kind::Inject, b, self.dist, 4))
            .collect()
    }

    pub fn plan_block(&self) -> PlanSpec {
        PlanSpec {
            ci: self.ci,
            batch: DEFAULT_BATCH,
            method: Default::default(),
        }
    }

    /// Every fixed-count campaign a round checks against a full
    /// in-memory reference.
    pub fn fixed_specs(&self) -> Vec<Spec> {
        let mut v = self.inject_specs();
        v.extend(self.beam_specs());
        v.extend(self.resumed_spec());
        v.extend(self.served_specs());
        v.extend(self.dist_specs());
        v
    }

    /// A human-readable description of the sizes, for the provenance record.
    pub fn describe(&self) -> String {
        let kernels: Vec<&str> = self.kernels.iter().map(|b| b.label()).collect();
        let adaptive: Vec<&str> = self.adaptive_kernels.iter().map(|b| b.label()).collect();
        let mut s = format!(
            "size={} kernels={} inject={} beam={} adaptive={} horizon={} ci={}",
            self.size.tag(),
            kernels.join(","),
            self.inject,
            self.beam,
            adaptive.join(","),
            self.horizon,
            self.ci
        );
        if self.resumed > 0 {
            s.push_str(&format!(" resumed={}", self.resumed));
        }
        if self.served > 0 {
            s.push_str(&format!(
                " served={} dist={} executors={}",
                self.served,
                self.dist,
                nproc()
            ));
        }
        s
    }
}

/// Totals of one round.
#[derive(Debug, Default, Clone)]
pub struct Round {
    pub inject_trials: usize,
    pub inject_wall: f64,
    pub beam_strikes: usize,
    pub beam_wall: f64,
    pub ci_trials: usize,
    pub ci_wall: f64,
    pub journal_bytes: u64,
    pub journal_trials: usize,
    /// Start-up samples taken during the round (seconds).
    pub setup: Vec<f64>,
    /// Peak resident memory of the process during the round.
    pub peak_rss_mb: f64,
}

impl Round {
    /// Wall time of the round's campaigns.
    pub fn measured(&self) -> f64 {
        self.inject_wall + self.beam_wall + self.ci_wall
    }

    fn inject(&mut self, o: &Outcome) {
        self.inject_trials += o.trials;
        self.inject_wall += o.wall_s;
        self.journal(o);
    }

    fn beam(&mut self, o: &Outcome) {
        self.beam_strikes += o.trials;
        self.beam_wall += o.wall_s;
        self.journal(o);
    }

    fn adaptive(&mut self, o: &Outcome) {
        self.ci_trials += o.trials;
        self.ci_wall += o.wall_s;
        self.journal(o);
    }

    fn journal(&mut self, o: &Outcome) {
        if o.journal_bytes > 0 {
            self.journal_bytes += o.journal_bytes;
            self.journal_trials += o.trials;
        }
    }
}

/// Golden runs and probe builds of every kernel the round uses, in seconds:
/// the work each campaign does before its first trial.
pub fn kernel_setup(ctx: &Ctx, plan: &Plan) -> f64 {
    let t = Instant::now();
    let mut kernels = plan.kernels.clone();
    for b in &plan.adaptive_kernels {
        if !kernels.contains(b) {
            kernels.push(*b);
        }
    }
    for b in kernels {
        let size = plan.size.class();
        {
            let _s = ctx.tracer.span("kernels", "golden", b as u64);
            std::hint::black_box(golden(b, size));
        }
        let _s = ctx.tracer.span("kernels", "build", b as u64);
        std::hint::black_box(build(b, size).total_steps());
    }
    t.elapsed().as_secs_f64()
}

/// Which end-to-end total a campaign counts toward.
#[derive(Clone, Copy)]
enum Sink {
    Inject,
    Beam,
    Adaptive,
}

impl Round {
    /// Takes a kernel set-up sample, runs one campaign and books it. The
    /// sample before every campaign spreads the set-up samples over the
    /// whole round.
    fn run(
        &mut self,
        ctx: &Ctx,
        plan: &Plan,
        tally: &mut Tally,
        sink: Sink,
        campaign: impl FnOnce() -> Outcome,
    ) {
        self.setup.push(kernel_setup(ctx, plan));
        let o = campaign();
        match sink {
            Sink::Inject => self.inject(&o),
            Sink::Beam => self.beam(&o),
            Sink::Adaptive => self.adaptive(&o),
        }
        tally.record(o.check);
    }
}

/// Runs one round of the workload.
pub fn round(ctx: &Ctx, plan: &Plan, tally: &mut Tally) -> Round {
    let mut r = Round::default();
    let mut services_setup = 0.0;
    match plan.workload {
        Workload::FiguresSmall => {
            for s in plan.inject_specs() {
                r.run(ctx, plan, tally, Sink::Inject, || {
                    layers::in_memory(ctx, &s)
                });
            }
            for s in plan.beam_specs() {
                r.run(ctx, plan, tally, Sink::Beam, || layers::in_memory(ctx, &s));
            }
            for s in plan.adaptive_specs() {
                r.run(ctx, plan, tally, Sink::Adaptive, || {
                    layers::adaptive(ctx, &s, &plan.plan_block()).0
                });
            }
        }
        Workload::JournalTest => {
            for s in plan.inject_specs() {
                r.run(ctx, plan, tally, Sink::Inject, || {
                    layers::stored(ctx, &s, false, None)
                });
            }
            if let Some(s) = plan.resumed_spec() {
                r.run(ctx, plan, tally, Sink::Inject, || {
                    layers::stored(ctx, &s, false, Some(s.count / 2))
                });
            }
            for s in plan.beam_specs() {
                r.run(ctx, plan, tally, Sink::Beam, || {
                    layers::stored(ctx, &s, false, None)
                });
            }
            for s in plan.adaptive_specs() {
                r.run(ctx, plan, tally, Sink::Adaptive, || {
                    layers::adaptive(ctx, &s, &plan.plan_block()).0
                });
            }
        }
        Workload::ServicesTest => {
            match layers::warden_startup(ctx, &plan.inject_specs()[0]) {
                Ok(s) => services_setup += s,
                Err(e) => tally.record(Err(format!("warden start-up: {e}"))),
            }
            for s in plan.inject_specs() {
                r.run(ctx, plan, tally, Sink::Inject, || {
                    layers::stored(ctx, &s, true, None)
                });
            }
            for s in plan.beam_specs() {
                r.run(ctx, plan, tally, Sink::Beam, || {
                    layers::stored(ctx, &s, true, None)
                });
            }
            let t = Instant::now();
            match ServeSession::start(ctx) {
                Ok(mut session) => {
                    services_setup += t.elapsed().as_secs_f64();
                    for s in plan.served_specs() {
                        r.run(ctx, plan, tally, Sink::Inject, || {
                            session.run(ctx, &s, None)
                        });
                    }
                    for s in plan.beam_specs() {
                        r.run(ctx, plan, tally, Sink::Beam, || session.run(ctx, &s, None));
                    }
                    for s in plan.adaptive_specs() {
                        r.run(ctx, plan, tally, Sink::Adaptive, || {
                            session.run(ctx, &s, Some(plan.plan_block()))
                        });
                    }
                    session.stop();
                }
                Err(e) => tally.record(Err(format!("serve start: {e}"))),
            }
            let mut dist_setup = None;
            for s in plan.dist_specs() {
                r.run(ctx, plan, tally, Sink::Inject, || {
                    let (o, stats) = layers::distributed(ctx, &s);
                    dist_setup.get_or_insert(stats.setup_s);
                    o
                });
            }
            services_setup += dist_setup.unwrap_or(0.0);
        }
    }
    // Service start-up happens once per round; charge it to every
    // kernel-setup sample so each sample is a whole start-up.
    for s in &mut r.setup {
        *s += services_setup;
    }
    r
}
