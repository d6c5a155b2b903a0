//! Byte-compatibility pins for the JSON record codec.
//!
//! Everything under `tests/fixtures/codec/` was written by the earlier
//! codec, which lowered every value to a `Content` tree before rendering it
//! and parsed every document into one before decoding it (see the README
//! there). The one-pass encoder and parser must reproduce those bytes
//! exactly: trial payloads, journal and ledger lines, warden, dist and
//! serve frames, campaign specs, and the `result.json` rendered from a
//! journal directory.

use bench::spec::{render_result, CampaignSpec};
use phi_reliability::carolfi::dist::{CoordMsg, ExecutorMsg};
use phi_reliability::carolfi::output::Output;
use phi_reliability::carolfi::record::TrialRecord;
use phi_reliability::carolfi::warden::{Reply, Request};
use phi_reliability::store::{decode_record, encode_record, JournalEntry, LedgerEntry};
use serve::proto::{ClientRequest, ServerReply};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec").join(name)
}

/// Fixture files whose names end in `suffix`, sorted.
fn fixtures_ending(suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(fixture(""))
        .expect("fixture directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no *{suffix} fixtures");
    names
}

/// Decodes every line of a JSON-lines fixture as a `T` and checks that
/// encoding it again gives the line back; returns the lines.
fn reencode_lines<T: Serialize + for<'de> Deserialize<'de>>(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(!lines.is_empty(), "{name} is empty");
    for (i, line) in lines.iter().enumerate() {
        let value: T = serde_json::from_str(line).unwrap_or_else(|e| panic!("{name}:{}: {e}", i + 1));
        assert_eq!(&serde_json::to_string(&value).unwrap(), line, "{name}:{}", i + 1);
    }
    lines
}

/// Decodes every checksummed line of a journal-format file as a `T` and
/// checks that `encode_record` gives the line back; returns the lines.
fn reencode_records<T: Serialize + for<'de> Deserialize<'de>>(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).unwrap();
    let lines: Vec<Vec<u8>> = bytes.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    assert!(!lines.is_empty(), "{} is empty", path.display());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.last(), Some(&b'\n'), "{}:{}: torn line", path.display(), i + 1);
        let record: T = decode_record(&line[..line.len() - 1])
            .unwrap_or_else(|| panic!("{}:{}: does not decode", path.display(), i + 1));
        assert_eq!(&encode_record(&record).unwrap(), line, "{}:{}", path.display(), i + 1);
    }
    lines
}

#[test]
fn trial_payloads_reencode_byte_for_byte() {
    // One Test-size inject and beam campaign per kernel, plus hand-made
    // edge records (non-finite floats, every DUE kind, hostile strings,
    // integer extremes).
    let names = fixtures_ending(".payloads.jsonl");
    assert_eq!(names.len(), 13, "{names:?}");
    for name in names {
        reencode_lines::<TrialRecord>(&name);
    }
}

#[test]
fn journal_lines_reencode_byte_for_byte() {
    for name in fixtures_ending(".journal.jsonl") {
        reencode_records::<JournalEntry>(&fixture(&name));
    }
    // The Trial entry wrapping each payload line is the journal line.
    for name in fixtures_ending(".payloads.jsonl") {
        let payloads = reencode_lines::<TrialRecord>(&name);
        let journal = std::fs::read(fixture(&name.replace(".payloads.", ".journal."))).unwrap();
        let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), payloads.len(), "{name}");
        for (i, (payload, line)) in payloads.into_iter().zip(lines).enumerate() {
            let entry = JournalEntry::Trial { shard: i % 3, seq: i as u64, payload };
            assert_eq!(encode_record(&entry).unwrap(), line, "{name}:{}", i + 1);
        }
    }
    reencode_records::<LedgerEntry>(&fixture("ledger.jsonl"));
}

#[test]
fn frames_specs_and_values_reencode_byte_for_byte() {
    reencode_lines::<Request>("warden-requests.jsonl");
    reencode_lines::<Reply>("warden-replies.jsonl");
    reencode_lines::<ExecutorMsg>("executor-msgs.jsonl");
    reencode_lines::<CoordMsg>("coord-msgs.jsonl");
    reencode_lines::<ClientRequest>("client-requests.jsonl");
    reencode_lines::<ServerReply>("server-replies.jsonl");
    reencode_lines::<CampaignSpec>("specs.jsonl");
    reencode_lines::<Output>("outputs.jsonl");
    reencode_lines::<Vec<i64>>("i64.jsonl");
    reencode_lines::<Vec<u64>>("u64.jsonl");
}

#[test]
fn rendering_an_old_journal_reproduces_its_result_document() {
    // (journal directory, tolerance the result was rendered with)
    for (name, tolerance) in [("journal-inject-dgemm", 0.0), ("journal-adaptive-nw", 0.0), ("journal-beam-hotspot", 0.01)] {
        let dir = fixture(name);
        let expected = std::fs::read_to_string(fixture(&format!("{name}.result.json"))).unwrap();
        assert_eq!(render_result(&dir, tolerance).unwrap(), expected.trim_end(), "{name}");
        for seg in std::fs::read_dir(&dir).unwrap() {
            reencode_records::<JournalEntry>(&seg.unwrap().path());
        }
    }
}
