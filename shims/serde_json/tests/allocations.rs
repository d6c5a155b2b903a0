//! Decoding builds the value and nothing else: no intermediate tree, no
//! clone of one, and no copy of a key or an escape-free string beyond the
//! `String` the value itself holds. Measured with a counting allocator, so
//! this file is its own test binary with a single test.

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes allocated while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    shard: usize,
    seq: u64,
    payload: String,
}

#[test]
fn decoding_allocates_only_what_the_value_holds() {
    // A long array: only the Vec's own doublings, which sum to less than
    // twice its final capacity. A parsed tree (32 bytes per node) plus a
    // clone of it would add 64 bytes per element on top.
    let n = 10_000usize;
    let numbers: Vec<u64> = (0..n as u64).map(|i| i * 1_000_003).collect();
    let owned: String = serde_json::to_string(&numbers).unwrap();
    let (back, bytes) = allocated_by(|| serde_json::from_str::<Vec<u64>>(&owned).unwrap());
    assert_eq!(back, numbers);
    assert!(bytes < 2 * 8 * back.capacity(), "decoding {n} numbers allocated {bytes} bytes");

    // Borrowed input, one line sliced out of a larger buffer: the keys
    // match in place, and the escape-free payload is copied exactly once,
    // into the String the entry owns.
    let entry = Entry { shard: 2, seq: 7, payload: "x".repeat(4096) };
    let text = format!("{}\n{}\n", serde_json::to_string(&entry).unwrap(), serde_json::to_string(&numbers).unwrap());
    let line: &str = text.lines().next().unwrap();
    let (back, bytes) = allocated_by(|| serde_json::from_str::<Entry>(line).unwrap());
    assert_eq!(back, entry);
    assert_eq!(bytes, 4096, "only the payload String is allocated");

    // With escapes the payload is unescaped into one buffer: its size plus
    // the growth of that single buffer, not one copy per stage.
    let escaped = Entry { shard: 0, seq: 0, payload: "\"q\"\\".repeat(1024) };
    let json = serde_json::to_string(&escaped).unwrap();
    let (back, bytes) = allocated_by(|| serde_json::from_str::<Entry>(&json).unwrap());
    assert_eq!(back, escaped);
    assert!(bytes < 3 * escaped.payload.len(), "unescaping {} bytes allocated {bytes}", escaped.payload.len());
}
