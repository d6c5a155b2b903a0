//! Durable campaign store (`phi-store`, imported as `store`).
//!
//! The paper's evidence rests on long campaigns — 90 000+ CAROL-FI
//! injections, beam runs accumulating ≥100 SDC+DUE events per benchmark —
//! and a monolithic in-process loop loses everything on a crash, OOM or
//! ctrl-c. This crate provides the three primitives that turn a one-shot
//! batch loop into a resumable, shardable pipeline:
//!
//! * [`journal`] — an append-only, crash-safe campaign journal: checksummed
//!   JSONL segment files holding per-trial records plus periodic shard-cursor
//!   checkpoints. Opening scans the segments, keeps every complete record and
//!   drops the torn tail (Memento-style detectable recoverability: the
//!   journal's durable prefix is always a valid campaign prefix).
//! * [`shard`] — deterministic campaign sharding: a campaign's trial range
//!   splits into per-shard sub-ranges such that N shards executed in any
//!   order, interleaving or process lifetime merge into an aggregate
//!   bit-identical to the single-shot run (trials keep their global index,
//!   which is also their RNG stream id).
//! * [`queue`] — a work-queue scheduler (crossbeam channel over scoped worker
//!   threads) with cooperative stop, used by the `carolfi`/`beamsim`
//!   orchestrators to drain shard tasks.
//!
//! Layering: `phi-store` sits below the campaign crates. Trial payloads are
//! opaque pre-serialized JSON strings — nothing in here knows what a trial
//! is, which is also what lets `parse_logs` treat injection and beam
//! journals uniformly.

pub mod journal;
pub mod ledger;
pub mod merge;
pub mod queue;
pub mod shard;

pub use journal::{
    decode_record, encode_record, is_transient, retry_transient, transient_backoff, BatchPolicy, CampaignMeta, CommitCounter,
    Journal, JournalEntry, JournalScan, JournalWriter, ShardCursor, ADAPTIVE_FORMAT_VERSION, MAX_TRANSIENT_RETRIES,
};
pub use ledger::{LeaseState, LedgerEntry, LedgerScan, LedgerWriter, LEDGER_FILE};
pub use merge::{Importer, Offer};
pub use queue::{run_tasks, StopFlag};
pub use shard::{ShardPlan, ShardProgress, ShardState};

/// Lookup tables for slicing-by-8 CRC-32: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight table reads
/// fold eight input bytes at once. Built at compile time.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-line checksum of
/// the journal format. Slicing-by-8: eight bytes per step, then the tail
/// bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::crc32;
    use proptest::prelude::*;

    /// The plain bytewise table-driven CRC-32, kept as the oracle for the
    /// sliced one.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = super::CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        for v in [&b"123456789"[..], b"", b"The quick brown fox jumps over the lazy dog"] {
            assert_eq!(crc32_bytewise(v), crc32(v));
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"journal line payload".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), reference, "flip at bit {i} undetected");
        }
    }

    proptest! {
        #[test]
        fn sliced_crc32_equals_the_bytewise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..4104),
            offset in 0usize..8,
        ) {
            // Every length 0..=4096 at every alignment within a word.
            let slice = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
