//! Property tests for the first-writer-wins distributed merge.
//!
//! The distributed contract (DESIGN.md §14): however executor streams
//! interleave, duplicate, or get re-dispatched, the coordinator's journal
//! must replay to exactly the aggregate a single-host run produces, and
//! re-importing an already-merged stream must change nothing. These
//! properties drive `store::Importer` with arbitrary schedules and pin
//! both invariants.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use store::journal::{CampaignMeta, Journal, JournalWriter, FORMAT_VERSION};
use store::merge::{Importer, Offer};
use store::shard::{ShardPlan, ShardProgress};

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-merge-props").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn meta(trials: usize, shards: usize) -> CampaignMeta {
    CampaignMeta {
        kind: "inject".into(),
        benchmark: "victim".into(),
        seed: 7,
        trials,
        shards,
        n_windows: 4,
        version: FORMAT_VERSION,
    }
}

/// The canonical payload of a global trial index — what a deterministic
/// executor would compute for it no matter which lease delivered it.
fn payload(global: usize) -> String {
    format!("{{\"trial\":{global}}}")
}

/// Concatenated bytes of every journal segment in `dir`, in segment order.
fn segment_bytes(dir: &Path) -> Vec<u8> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("seg-"))
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for n in names {
        bytes.extend(std::fs::read(dir.join(n)).unwrap());
    }
    bytes
}

/// Replays `dir` and asserts its per-shard payloads are exactly the
/// canonical aggregate of `plan` — the byte-identity half of the contract.
fn assert_canonical(dir: &Path, plan: &ShardPlan) -> Result<(), TestCaseError> {
    let scan = Journal::scan(dir).unwrap();
    let progress = ShardProgress::replay(plan.shards, &scan.entries).unwrap();
    for shard in 0..plan.shards {
        let want: Vec<String> = plan.range(shard).map(payload).collect();
        prop_assert_eq!(&progress.shards[shard].payloads, &want);
    }
    Ok(())
}

proptest! {
    /// Any interleaving of in-order executor streams — including arbitrary
    /// re-offers of already-merged trials, as produced by straggler
    /// re-dispatch and reconnect replays — merges to the canonical
    /// aggregate, with every duplicate counted and none journaled.
    #[test]
    fn interleaved_duplicated_streams_merge_to_the_canonical_aggregate(
        trials in 1usize..48,
        shards in 1usize..5,
        schedule in prop::collection::vec((any::<u64>(), any::<bool>(), any::<u64>()), 0..160),
    ) {
        let dir = tmp(&format!("interleave-{trials}-{shards}-{}", schedule.len()));
        let plan = ShardPlan::new(trials, shards);
        let progress = ShardProgress::replay(shards, &[]).unwrap();
        let mut w = JournalWriter::create(&dir, meta(trials, shards)).unwrap();
        let mut imp = Importer::new(&plan, &progress);

        let mut expected_dups = 0u64;
        for (sel, dup, pick) in schedule {
            let shard = (sel % shards as u64) as usize;
            let next = imp.next_seq(shard);
            if dup && next > 0 {
                // Re-offer something the merge already holds (a straggler
                // replaying its range from the start, say).
                let seq = pick % next;
                prop_assert_eq!(imp.offer(&mut w, shard, seq, &payload(plan.range(shard).start + seq as usize)).unwrap(), Offer::Duplicate);
                expected_dups += 1;
            } else if !imp.range_complete(shard) {
                prop_assert_eq!(imp.offer(&mut w, shard, next, &payload(plan.range(shard).start + next as usize)).unwrap(), Offer::Accepted);
            }
        }
        // Whatever the schedule left unfinished, a final drain (the
        // coordinator re-dispatching every open range) completes it.
        for shard in 0..shards {
            while !imp.range_complete(shard) {
                let next = imp.next_seq(shard);
                imp.offer(&mut w, shard, next, &payload(plan.range(shard).start + next as usize)).unwrap();
            }
        }
        // Merged counts what the journal committed: every trial once the
        // group-commit buffer is down.
        prop_assert_eq!(imp.accepted + imp.pending(), trials as u64);
        w.sync().unwrap();
        imp.settle(&w);
        prop_assert_eq!(imp.accepted, trials as u64);
        prop_assert_eq!(imp.duplicates, expected_dups);
        w.close().unwrap();

        assert_canonical(&dir, &plan)?;
    }

    /// Re-importing the complete stream into a resumed journal is a no-op:
    /// every offer is a duplicate, no bytes are appended. This is the
    /// coordinator-restart path — segments uploaded twice cost nothing.
    #[test]
    fn re_import_after_resume_is_idempotent(
        trials in 1usize..40,
        shards in 1usize..5,
    ) {
        let dir = tmp(&format!("idempotent-{trials}-{shards}"));
        let plan = ShardPlan::new(trials, shards);
        let progress = ShardProgress::replay(shards, &[]).unwrap();
        let mut w = JournalWriter::create(&dir, meta(trials, shards)).unwrap();
        let mut imp = Importer::new(&plan, &progress);
        for shard in 0..shards {
            for (seq, global) in plan.range(shard).enumerate() {
                imp.offer(&mut w, shard, seq as u64, &payload(global)).unwrap();
            }
        }
        w.close().unwrap();
        let before = segment_bytes(&dir);

        let (mut w, scan) = JournalWriter::resume(&dir).unwrap();
        let progress = ShardProgress::replay(shards, &scan.entries).unwrap();
        let mut imp = Importer::new(&plan, &progress);
        for shard in 0..shards {
            prop_assert!(imp.range_complete(shard));
            for (seq, global) in plan.range(shard).enumerate() {
                prop_assert_eq!(imp.offer(&mut w, shard, seq as u64, &payload(global)).unwrap(), Offer::Duplicate);
            }
        }
        prop_assert_eq!(imp.accepted, 0);
        prop_assert_eq!(imp.duplicates, trials as u64);
        drop(w);

        prop_assert_eq!(segment_bytes(&dir), before);
        assert_canonical(&dir, &plan)?;
    }

    /// A gapped offer (an executor skipping ahead of the lease cursor) is a
    /// protocol violation: rejected without journaling, cursor unmoved —
    /// and the merge still completes canonically afterwards.
    #[test]
    fn gapped_offers_are_rejected_without_corrupting_the_merge(
        trials in 2usize..40,
        gap in 1u64..8,
    ) {
        let dir = tmp(&format!("gap-{trials}-{gap}"));
        let plan = ShardPlan::new(trials, 1);
        let progress = ShardProgress::replay(1, &[]).unwrap();
        let mut w = JournalWriter::create(&dir, meta(trials, 1)).unwrap();
        let mut imp = Importer::new(&plan, &progress);

        let ahead = imp.next_seq(0) + gap;
        if ahead < trials as u64 {
            let err = imp.offer(&mut w, 0, ahead, &payload(ahead as usize)).unwrap_err();
            prop_assert!(err.to_string().contains("gapless"), "{}", err);
        } else {
            let err = imp.offer(&mut w, 0, ahead, &payload(ahead as usize)).unwrap_err();
            prop_assert!(err.to_string().contains("past its range"), "{}", err);
        }
        prop_assert_eq!(imp.next_seq(0), 0);
        prop_assert_eq!(imp.accepted, 0);

        for (seq, global) in plan.range(0).enumerate() {
            imp.offer(&mut w, 0, seq as u64, &payload(global)).unwrap();
        }
        w.close().unwrap();
        assert_canonical(&dir, &plan)?;
    }
}
