//! `layerbench` — the layered campaign benchmark.
//!
//! ```text
//! layerbench --workload <figures-small|journal-test|services-test>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs the workload's round of campaigns until `--seconds` have passed,
//! checks every campaign against the in-memory reference, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod layers;
mod perlayer;
mod trace;
mod workloads;

use check::Tally;
use layers::Ctx;
use perlayer::{median, ratio, Metrics};
use std::path::{Path, PathBuf};
use workloads::{Plan, Round, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("layerbench: {msg}");
    eprintln!("usage: layerbench --workload <figures-small|journal-test|services-test> --seed <n> --seconds <n> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{arg}: expected a value")));
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage(&format!("--seed: bad value {value:?}"))),
                )
            }
            "--seconds" => {
                seconds = Some(match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => usage(&format!("--seconds: bad value {value:?}")),
                })
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => usage(&format!("unknown argument {arg:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// One memory figure of this process from `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the system and resets the process's peak
/// resident set size to its current size, so the next `VmHWM` reading is
/// the peak of one round.
fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CRC-32 over the repository's crate sources and manifests, in path
/// order: identifies the code measured where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:08x} ({} files)", store::crc32(&bytes), files.len())
}

/// The commit of the working directory, never one found above it.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_provenance(args: &Args, plan: &Plan) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# machine nproc={} cpu=\"{}\"",
        workloads::nproc(),
        cpu_model()
    );
    println!(
        "# build rustc=\"{}\" profile={profile} git={} source_crc={}",
        env!("LAYERBENCH_RUSTC"),
        git_commit(),
        source_digest(Path::new("."))
    );
    println!("# sizes {}", plan.describe());
}

/// Runs rounds until their campaigns have taken `seconds` (at least
/// `min_rounds`). Each round gets fresh seeds; its in-memory references are
/// computed before it starts and dropped after it ends. With `traced`,
/// rounds alternate between tracing off and on.
fn run_rounds(
    ctx: &Ctx,
    plan: &Plan,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
    tally: &mut Tally,
) -> (Vec<Round>, Vec<Round>) {
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut i = 0;
    while i < min_rounds || measured < seconds {
        let rp = plan.for_round(i);
        for s in rp.fixed_specs() {
            ctx.checker.prepare(&s);
        }
        let on = traced && i % 2 == 1;
        if on {
            obs::install(std::sync::Arc::new(obs::CounterRecorder::new()));
        }
        ctx.tracer.set(on);
        reset_peak_rss();
        let mut r = {
            let _s = ctx.tracer.span("campaign", "round", i as u64);
            workloads::round(ctx, &rp, tally)
        };
        ctx.tracer.set(false);
        r.peak_rss_mb = status_mb("VmHWM:");
        measured += r.measured();
        println!(
            "# round {i}{}: inject {:.1}/s beam {:.1}/s ci {:.3}s {} trials, setup {:.4}s, peak rss {:.1} MB",
            if on { " traced" } else { "" },
            rate(r.inject_trials, r.inject_wall),
            rate(r.beam_strikes, r.beam_wall),
            r.ci_wall,
            r.ci_trials,
            median(&r.setup),
            r.peak_rss_mb
        );
        if on {
            obs::uninstall();
            with_trace.push(r);
        } else {
            plain.push(r);
        }
        ctx.checker.clear();
        // Journals of a finished round are no longer needed.
        if let Ok(entries) = std::fs::read_dir(&ctx.work) {
            for e in entries.flatten() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
        i += 1;
    }
    (plain, with_trace)
}

fn rate(num: usize, den: f64) -> f64 {
    ratio(num as f64, den)
}

fn inject_rate(rounds: &[Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| rate(r.inject_trials, r.inject_wall))
            .collect::<Vec<_>>(),
    )
}

fn end_to_end(rounds: &[Round]) -> Metrics {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup.iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.put("inject_trials_per_s", inject_rate(rounds), "trials/s");
    m.put(
        "beam_strikes_per_s",
        med(&|r| rate(r.beam_strikes, r.beam_wall)),
        "strikes/s",
    );
    m.put("time_to_ci_s", med(&|r| r.ci_wall), "s");
    m.put("trials_to_ci", med(&|r| r.ci_trials as f64), "trials");
    m.put(
        "journal_bytes_per_trial",
        med(&|r| rate(r.journal_bytes as usize, r.journal_trials as f64)),
        "B",
    );
    m.put("setup_s", median(&setup), "s");
    // Later rounds start from whatever thread stacks and heap arenas the
    // earlier ones left resident, so only the first round has a start
    // state that repeats from run to run.
    m.put("peak_rss_mb", rounds[0].peak_rss_mb, "MB");
    m
}

fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    // Isolated campaigns re-execute this binary as their warden worker.
    bench::maybe_run_worker();
    let args = parse_args();

    // All files the run writes, warden sockets included, stay under the
    // working directory.
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("layerbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &work);

    let plan = Plan::new(args.workload, args.seed);
    print_provenance(&args, &plan);
    let ctx = Ctx::new(work.clone());
    let mut tally = Tally::default();

    let metrics = if !args.trace {
        let (rounds, _) = run_rounds(&ctx, &plan, args.seconds, 3, false, &mut tally);
        println!("# rounds {}", rounds.len());
        end_to_end(&rounds)
    } else {
        let (plain, traced) = run_rounds(&ctx, &plan, args.seconds / 2.0, 4, true, &mut tally);
        println!("# rounds {} untraced, {} traced", plain.len(), traced.len());
        obs::install(std::sync::Arc::new(obs::CounterRecorder::new()));
        ctx.tracer.set(true);
        let mut m = perlayer::layer_pass(&ctx, &plan, &mut tally);
        ctx.tracer.set(false);
        obs::uninstall();
        m.note(
            "obs.tracing_overhead",
            ratio(inject_rate(&traced), inject_rate(&plain)),
            "ratio",
            "traced over untraced inject_trials_per_s",
        );
        let spans = ctx.tracer.spans();
        for (layer, ns) in trace::self_time_ns(&spans) {
            m.put(format!("{layer}.self_ms"), ns as f64 / 1e6, "ms");
        }
        m.note(
            "unattributed",
            trace::unattributed_share(&spans),
            "ratio",
            "trial time no child span covers",
        );
        let path = root.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("layerbench: write {}: {e}", path.display()),
        }
        m
    };
    let _ = std::fs::remove_dir_all(&work);

    for m in &metrics.0 {
        let base = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{:<48} {:>14.4} {}{base}", m.name, m.value, m.unit);
    }
    let fraction = ratio(tally.failed as f64, tally.attempted as f64);
    println!(
        "{:<48} {:>14.4} ratio  ({} of {} campaigns)",
        "failed_fraction", fraction, tally.failed, tally.attempted
    );
    for r in &tally.reasons {
        println!("# failure: {r}");
    }
    println!("{}", json_line(&tally, &metrics));
}
