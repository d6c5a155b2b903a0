//! Property tests for the campaign-service wire protocol: any
//! request/reply frame survives a socket round-trip byte-exactly, and the
//! codec rejects oversized and truncated frames instead of hanging or
//! misparsing.

use carolfi::warden::{read_frame_blocking, write_frame, MAX_FRAME};
use proptest::prelude::*;
use serve::proto::{CampaignStatus, ClientRequest, ServerReply};
use std::io::Write as _;
use std::os::unix::net::UnixStream;

/// Decodes a `(selector, a, b)` triple into a request, exercising every
/// verb and awkward id/spec characters (quotes, newlines, non-ASCII).
fn request(sel: u64, a: u64, b: u64) -> ClientRequest {
    let id = format!("c{:04}", a % 10_000);
    match sel % 6 {
        0 => ClientRequest::Submit {
            spec: format!("{{\"benchmark\":\"q\\\"uote\\nnewline-µ\",\"trials\":{a},\"seed\":{b}}}"),
        },
        1 => ClientRequest::Status { id },
        2 => ClientRequest::List,
        3 => ClientRequest::Events { id, gauge_ms: b },
        4 => ClientRequest::Result { id, wait_ms: b },
        _ => ClientRequest::Cancel { id },
    }
}

fn status(a: u64, b: u64) -> CampaignStatus {
    CampaignStatus {
        id: format!("c{:04}", a % 10_000),
        state: ["queued", "running", "done", "failed", "cancelled"][(b % 5) as usize].to_string(),
        kind: if a.is_multiple_of(2) { "inject" } else { "beam" }.to_string(),
        benchmark: "hotspot-µ".to_string(),
        completed: a,
        total: a.wrapping_add(b),
        error: if b.is_multiple_of(3) { String::new() } else { format!("error \"{b}\"\nwith newline") },
    }
}

/// Decodes a triple into a reply (the `Gauges` variant is exercised by the
/// service integration tests; its payload types have their own round-trip
/// coverage in carolfi/obs).
fn reply(sel: u64, a: u64, b: u64) -> ServerReply {
    match sel % 7 {
        0 => ServerReply::Submitted { id: format!("c{a}") },
        1 => ServerReply::Rejected { reason: format!("queue full ({b} waiting) — µ") },
        2 => ServerReply::Status { status: status(a, b) },
        3 => ServerReply::List { campaigns: vec![status(a, b), status(b, a)] },
        4 => ServerReply::Event { id: format!("c{a}"), kind: "trial".into(), payload: format!("{{\"t\":{b}}}") },
        5 => ServerReply::Result { id: format!("c{a}"), result: format!("{{\"crc\":{b},\"rows\":\"x\\ny\"}}") },
        _ => ServerReply::Error { reason: format!("unknown campaign id \"c{b}\"") },
    }
}

fn roundtrip_frame<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(msg: &T) -> T {
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    write_frame(&mut a, msg).expect("write frame");
    read_frame_blocking(&mut b).expect("read frame")
}

/// A `Write` that keeps every `write` call's bytes separately.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The bytes of each `write` call `write_frame` makes for `msg`, and the
/// frame it should have written: 4-byte LE length, then the JSON.
fn frame_writes<T: serde::Serialize>(msg: &T) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut w = CountingWriter::default();
    write_frame(&mut w, msg).expect("write frame");
    let json = serde_json::to_string(msg).unwrap();
    let mut expected = (json.len() as u32).to_le_bytes().to_vec();
    expected.extend_from_slice(json.as_bytes());
    (w.writes, expected)
}

proptest! {
    #[test]
    fn every_frame_is_one_write(
        triples in prop::collection::vec((0u64..42, any::<u64>(), any::<u64>()), 1..20),
    ) {
        for &(s, a, b) in &triples {
            for (writes, expected) in [frame_writes(&request(s, a, b)), frame_writes(&reply(s, a, b))] {
                prop_assert_eq!(writes, vec![expected]);
            }
        }
    }

    #[test]
    fn requests_roundtrip(
        triples in prop::collection::vec((0u64..6, any::<u64>(), any::<u64>()), 1..20),
    ) {
        for &(s, a, b) in &triples {
            let req = request(s, a, b);
            prop_assert_eq!(roundtrip_frame(&req), req);
        }
    }

    #[test]
    fn replies_roundtrip_byte_exactly(
        triples in prop::collection::vec((0u64..7, any::<u64>(), any::<u64>()), 1..20),
    ) {
        for &(s, a, b) in &triples {
            let msg = reply(s, a, b);
            let back = roundtrip_frame(&msg);
            // ServerReply has no PartialEq (Gauges embeds float-bearing
            // snapshots); serialized equality is the wire-level contract.
            prop_assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&msg).unwrap()
            );
        }
    }

    #[test]
    fn oversized_length_headers_are_rejected(excess in 1u64..(1 << 20)) {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        let len = (MAX_FRAME as u64 + excess) as u32;
        a.write_all(&len.to_le_bytes()).expect("write header");
        let err = read_frame_blocking::<ClientRequest>(&mut b).expect_err("oversized frame must be rejected");
        prop_assert!(err.to_string().contains("cap"), "unexpected error: {err}");
    }
}

#[test]
fn oversized_writes_are_rejected_at_the_sender() {
    let (mut a, _b) = UnixStream::pair().expect("socketpair");
    let req = ClientRequest::Submit { spec: "x".repeat(MAX_FRAME) };
    let err = write_frame(&mut a, &req).expect_err("oversized frame must not be sent");
    assert!(err.to_string().contains("cap"), "unexpected error: {err}");
}

#[test]
fn truncated_frames_error_instead_of_hanging() {
    // Header promises 100 bytes, the peer dies after 40: the reader must
    // surface EOF, not block forever or misparse.
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    a.write_all(&100u32.to_le_bytes()).expect("write header");
    a.write_all(&[b'{'; 40]).expect("write partial body");
    drop(a);
    let err = read_frame_blocking::<ClientRequest>(&mut b).expect_err("truncated frame must error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "unexpected error: {err}");
}

#[test]
fn truncated_length_header_errors() {
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    a.write_all(&[7u8, 0]).expect("write half a header");
    drop(a);
    assert!(read_frame_blocking::<ClientRequest>(&mut b).is_err());
}
