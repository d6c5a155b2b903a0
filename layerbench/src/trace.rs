//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer's
//! public functions: layer, call name, start, end, parent span and the
//! trial or campaign id. They stay in memory and are written out once, when
//! the run ends. With tracing off a span costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every layer a span can be charged to, named after the repository's
/// modules.
pub const LAYERS: [&str; 11] = [
    "kernels",
    "pool",
    "supervisor",
    "campaign",
    "beamsim",
    "store",
    "planner",
    "warden",
    "serve",
    "dist",
    "analysis",
];

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Trial index or campaign ordinal the span belongs to.
    pub tag: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    rec: Option<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, layer: &'static str, name: &'static str, tag: u64) -> Guard<'_> {
        if !self.on() {
            return Guard {
                tracer: self,
                rec: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied().unwrap_or(0);
            o.push(id);
            p
        });
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        Guard {
            tracer: self,
            rec: Some(SpanRec {
                id,
                parent,
                layer,
                name,
                tag,
                start_ns,
                end_ns: start_ns,
            }),
        }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Durations in microseconds of every span with this layer and name.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.layer, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = self.tracer.t0.elapsed().as_nanos() as u64;
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(pos) = o.iter().rposition(|&id| id == rec.id) {
                    o.remove(pos);
                }
            });
            self.tracer
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(rec);
        }
    }
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover. Children open on the parent's thread, so they nest
/// inside it without overlapping each other.
pub fn self_time_ns(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.layer).or_default() += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Share of the time inside spans named `trial` that no child span covers.
pub fn unattributed_share(spans: &[SpanRec]) -> f64 {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let (mut total, mut bare) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "trial") {
        total += s.dur_ns();
        bare += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    if total == 0 {
        0.0
    } else {
        bare as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            SpanRec {
                id: 1,
                parent: 0,
                layer: "campaign",
                name: "trial",
                tag: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                id: 2,
                parent: 1,
                layer: "pool",
                name: "acquire",
                tag: 0,
                start_ns: 0,
                end_ns: 30,
            },
            SpanRec {
                id: 3,
                parent: 1,
                layer: "supervisor",
                name: "execute_trial",
                tag: 0,
                start_ns: 30,
                end_ns: 90,
            },
            SpanRec {
                id: 4,
                parent: 3,
                layer: "store",
                name: "encode",
                tag: 0,
                start_ns: 40,
                end_ns: 50,
            },
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["campaign"], 10);
        assert_eq!(st["pool"], 30);
        assert_eq!(st["supervisor"], 50);
        assert_eq!(st["store"], 10);
        assert!((unattributed_share(&spans) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("pool", "acquire", 0));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_guards_link_parents() {
        let t = Tracer::new(true);
        {
            let _a = t.span("campaign", "trial", 7);
            let _b = t.span("pool", "acquire", 7);
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "trial").unwrap();
        let inner = spans.iter().find(|s| s.name == "acquire").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
    }
}
