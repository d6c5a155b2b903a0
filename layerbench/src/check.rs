//! Correctness check: every campaign the benchmark runs is compared, byte
//! for byte, against the in-memory reference for the same (kind, kernel,
//! size, count, seed). The reference is `run_campaign` / `run_beam_campaign`,
//! computed before the campaign under test is timed; an adaptive campaign's
//! records are compared against `execute_trial` for the same campaign-global
//! indices, which is the record `run_campaign` produces at that index.

use bench::{spec_result, CampaignKind, CampaignSpec, ParsedSpec, PlanSpec};
use carolfi::output::Output;
use carolfi::record::TrialRecord;
use carolfi::target::FaultTarget;
use kernels::{build, golden, Benchmark, SizeClass};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One campaign, as the benchmark generates it from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    pub kind: Kind,
    pub bench: Benchmark,
    pub size: Size,
    pub count: usize,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Inject,
    Beam,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size {
    Test,
    Small,
}

impl Size {
    pub fn class(self) -> SizeClass {
        match self {
            Size::Test => SizeClass::Test,
            Size::Small => SizeClass::Small,
        }
    }

    pub fn tag(self) -> &'static str {
        match self {
            Size::Test => "test",
            Size::Small => "small",
        }
    }
}

impl Kind {
    pub fn campaign_kind(self) -> CampaignKind {
        match self {
            Kind::Inject => CampaignKind::Inject,
            Kind::Beam => CampaignKind::Beam,
        }
    }
}

/// Journal shards of every stored campaign (the figure binaries' default).
pub const SHARDS: usize = 8;

impl Spec {
    pub fn label(&self) -> &'static str {
        self.bench.label()
    }

    /// The wire spec the program receives for this campaign.
    pub fn wire(&self, isolate: bool, plan: Option<PlanSpec>) -> CampaignSpec {
        CampaignSpec {
            kind: self.kind.campaign_kind(),
            version: if plan.is_some() { 2 } else { 1 },
            benchmark: self.label().to_string(),
            trials: self.count,
            seed: self.seed,
            size: self.size.tag().to_string(),
            shards: SHARDS,
            isolate,
            models: Vec::new(),
            tolerance: 0.0,
            plan,
        }
    }

    pub fn parsed(&self, isolate: bool, plan: Option<PlanSpec>) -> ParsedSpec {
        bench::validate_spec(self.wire(isolate, plan)).expect("generated specs are valid")
    }
}

fn lines(records: &[TrialRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("trial records serialize"))
        .collect()
}

/// Compares two serialized record streams line by line.
pub fn compare_streams(expected: &[String], got: &[String]) -> Result<(), String> {
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        if e != g {
            return Err(format!("record {i} differs from the in-memory reference"));
        }
    }
    if expected.len() != got.len() {
        return Err(format!(
            "{} records, reference has {}",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Compares two result documents byte for byte.
pub fn compare_docs(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err("result document differs from the in-memory reference".into())
    }
}

struct Reference {
    lines: Vec<String>,
    doc: String,
}

/// No thread panics while it holds a cache lock, so a lock never poisons.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no thread panics while holding a reference cache lock")
}

/// Golden outputs and the in-memory references of the current round.
#[derive(Default)]
pub struct Checker {
    goldens: Mutex<HashMap<(Benchmark, Size), Arc<Output>>>,
    refs: Mutex<HashMap<Spec, Arc<Reference>>>,
}

impl Checker {
    pub fn golden(&self, b: Benchmark, size: Size) -> Arc<Output> {
        if let Some(g) = locked(&self.goldens).get(&(b, size)) {
            return g.clone();
        }
        let g = Arc::new(golden(b, size.class()));
        locked(&self.goldens).insert((b, size), g.clone());
        g
    }

    fn reference(&self, spec: &Spec) -> Arc<Reference> {
        if let Some(r) = locked(&self.refs).get(spec) {
            return r.clone();
        }
        let (b, size) = (spec.bench, spec.size.class());
        let g = self.golden(spec.bench, spec.size);
        let p = spec.parsed(false, None);
        let records = match spec.kind {
            Kind::Inject => {
                carolfi::run_campaign(spec.label(), || build(b, size), &g, &p.campaign_config())
                    .records
            }
            Kind::Beam => {
                beamsim::run_beam_campaign(spec.label(), || build(b, size), &g, &p.beam_config())
                    .records
            }
        };
        let doc = spec_result(
            spec.kind.campaign_kind(),
            1,
            spec.label(),
            spec.seed,
            0.0,
            &records,
        );
        let r = Arc::new(Reference {
            lines: lines(&records),
            doc,
        });
        locked(&self.refs).insert(*spec, r.clone());
        r
    }

    /// Computes the reference for `spec` ahead of timing.
    pub fn prepare(&self, spec: &Spec) {
        self.reference(spec);
    }

    /// Drops every reference (golden outputs stay).
    pub fn clear(&self) {
        locked(&self.refs).clear();
    }

    pub fn check_records(&self, spec: &Spec, got: &[TrialRecord]) -> Result<(), String> {
        compare_streams(&self.reference(spec).lines, &lines(got))
            .map_err(|e| format!("{} {}: {e}", spec.label(), kind_tag(spec.kind)))
    }

    pub fn check_doc(&self, spec: &Spec, got: &str) -> Result<(), String> {
        compare_docs(&self.reference(spec).doc, got)
            .map_err(|e| format!("{} {}: {e}", spec.label(), kind_tag(spec.kind)))
    }

    /// The in-memory records of the given injection trials of `spec`,
    /// serialized, computed on all cores with a fresh target per trial.
    fn trial_lines(&self, spec: &Spec, trials: &[usize]) -> Vec<String> {
        let g = self.golden(spec.bench, spec.size);
        let cfg = spec.parsed(false, None).campaign_config();
        let total_steps = build(spec.bench, spec.size.class()).total_steps().max(1);
        let _quiet = carolfi::panic_guard::silence_panics();
        let chunk = trials.len().div_ceil(crate::workloads::nproc()).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = trials
                .chunks(chunk)
                .map(|part| {
                    let (g, cfg) = (&g, &cfg);
                    scope.spawn(move || {
                        part.iter()
                            .map(|&trial| {
                                let mut target = build(spec.bench, spec.size.class());
                                let (record, _) = carolfi::campaign::execute_trial(
                                    spec.label(),
                                    &mut target,
                                    g,
                                    cfg,
                                    total_steps,
                                    trial,
                                );
                                serde_json::to_string(&record).expect("trial records serialize")
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference threads do not panic"))
                .collect()
        })
    }

    /// Checks an adaptive campaign over the horizon `spec`: its records, in
    /// decision order, and its result document.
    pub fn check_adaptive(
        &self,
        spec: &Spec,
        got: &[TrialRecord],
        doc: &str,
    ) -> Result<(), String> {
        let indices: Vec<usize> = got.iter().map(|r| r.trial).collect();
        let expected = self.trial_lines(spec, &indices);
        let fail = |e: String| format!("{} adaptive: {e}", spec.label());
        compare_streams(&expected, &lines(got)).map_err(fail)?;
        let records: Vec<TrialRecord> = expected
            .iter()
            .map(|l| serde_json::from_str(l).expect("reference records parse"))
            .collect();
        let want = spec_result(
            CampaignKind::Inject,
            2,
            spec.label(),
            spec.seed,
            0.0,
            &records,
        );
        compare_docs(&want, doc).map_err(fail)
    }
}

fn kind_tag(kind: Kind) -> &'static str {
    match kind {
        Kind::Inject => "inject",
        Kind::Beam => "beam",
    }
}

/// Campaigns attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            kind: Kind::Inject,
            bench: Benchmark::Nw,
            size: Size::Test,
            count: 12,
            seed: 5,
        }
    }

    fn reference_records(s: &Spec) -> Vec<TrialRecord> {
        let g = golden(s.bench, s.size.class());
        let mut cfg = s.parsed(false, None).campaign_config();
        cfg.workers = 2;
        carolfi::run_campaign(s.label(), || build(s.bench, s.size.class()), &g, &cfg).records
    }

    #[test]
    fn an_identical_stream_passes() {
        let s = spec();
        let checker = Checker::default();
        let records = reference_records(&s);
        assert_eq!(checker.check_records(&s, &records), Ok(()));
        let doc = spec_result(CampaignKind::Inject, 1, s.label(), s.seed, 0.0, &records);
        assert_eq!(checker.check_doc(&s, &doc), Ok(()));
    }

    #[test]
    fn a_corrupted_record_stream_fails() {
        let s = spec();
        let checker = Checker::default();
        let mut records = reference_records(&s);
        records[3].executed_steps += 1;
        assert!(checker.check_records(&s, &records).is_err());
        let doc = spec_result(CampaignKind::Inject, 1, s.label(), s.seed, 0.0, &records);
        assert!(
            checker.check_doc(&s, &doc).is_err(),
            "the records CRC in the result document must differ"
        );
    }

    #[test]
    fn a_missing_or_reordered_record_fails() {
        let s = spec();
        let checker = Checker::default();
        let records = reference_records(&s);
        assert!(checker
            .check_records(&s, &records[..records.len() - 1])
            .is_err());
        let mut swapped = records.clone();
        swapped.swap(0, 1);
        assert!(checker.check_records(&s, &swapped).is_err());
    }

    #[test]
    fn adaptive_records_are_checked_per_index() {
        let s = spec();
        let checker = Checker::default();
        let records = reference_records(&s);
        let picked = vec![records[7].clone(), records[2].clone()];
        let doc = spec_result(CampaignKind::Inject, 2, s.label(), s.seed, 0.0, &picked);
        assert_eq!(checker.check_adaptive(&s, &picked, &doc), Ok(()));
        let mut bad = picked.clone();
        bad[1].inject_step ^= 1;
        assert!(checker.check_adaptive(&s, &bad, &doc).is_err());
    }

    /// Rewrites one trial record inside a stored journal with a valid line
    /// checksum, so the store accepts it and only the check can notice.
    #[test]
    fn a_tampered_journal_fails_the_check() {
        let s = spec();
        let checker = Checker::default();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        bench::run_spec(&s.parsed(false, None), &dir, false, None).unwrap();
        let records = bench::spec::journal_records(&dir).unwrap().1;
        assert_eq!(checker.check_records(&s, &records), Ok(()));
        assert_eq!(
            checker.check_doc(&s, &bench::render_result(&dir, 0.0).unwrap()),
            Ok(())
        );

        let seg = dir.join("seg-00000.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut tampered = String::new();
        let mut done = false;
        for line in text.lines() {
            match store::decode_record::<store::JournalEntry>(line.as_bytes()) {
                Some(store::JournalEntry::Trial {
                    shard,
                    seq,
                    payload,
                }) if !done => {
                    let mut r: TrialRecord = serde_json::from_str(&payload).unwrap();
                    r.executed_steps += 1;
                    let entry = store::JournalEntry::Trial {
                        shard,
                        seq,
                        payload: serde_json::to_string(&r).unwrap(),
                    };
                    tampered.push_str(
                        std::str::from_utf8(&store::encode_record(&entry).unwrap()).unwrap(),
                    );
                    done = true;
                }
                _ => {
                    tampered.push_str(line);
                    tampered.push('\n');
                }
            }
        }
        std::fs::write(&seg, tampered).unwrap();
        let records = bench::spec::journal_records(&dir).unwrap().1;
        assert!(checker.check_records(&s, &records).is_err());
        assert!(checker
            .check_doc(&s, &bench::render_result(&dir, 0.0).unwrap())
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("x".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
