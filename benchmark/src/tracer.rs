//! Spans recorded from outside: the benchmark wraps each call into a
//! crate's public function, keeps the records in memory, folds them
//! into per-round summaries between rounds and writes the first traced
//! rounds as Chrome trace-event JSON at exit. Nothing inside the
//! measured crates is instrumented (`simdize_telemetry` stays off).

use crate::stats::{median, percentile_sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// How many records of the first traced rounds go to the trace file;
/// every round of the fastest workload would be a gigabyte document.
const KEEP: usize = 40_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Layer name, `<crate>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span in the same round, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// What one round recorded under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameFold {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur_ns: u64,
    /// Sum of self times (duration minus direct children), ns.
    pub self_ns: u64,
    /// Median duration, ns.
    pub p50_ns: u64,
}

/// One round's spans folded by name.
pub type RoundFold = BTreeMap<&'static str, NameFold>;

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    recs: Vec<Rec>,
    open: Vec<u32>,
    op: u32,
    folds: Vec<RoundFold>,
    kept: Vec<Rec>,
}

impl Tracer {
    /// A recorder for thread `tid`; tracers that end up in one trace
    /// file share `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            recs: Vec::new(),
            open: Vec::new(),
            op: 0,
            folds: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a root span `name` belonging to op `op`.
    pub fn op<T>(&mut self, op: u32, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        self.span(name, f)
    }

    /// Runs `f` inside a span `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.recs.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.recs.push(Rec {
            name,
            parent,
            op: self.op,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        // The clock reads sit innermost, so the record bookkeeping
        // above lands in the parent's self time, not in this span.
        self.recs[idx as usize].start_ns = self.now_ns();
        let out = f(self);
        self.recs[idx as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Folds the spans recorded since the last call into one
    /// [`RoundFold`] and forgets them, after copying them to the trace
    /// file's records while those number fewer than [`KEEP`].
    pub fn end_round(&mut self) {
        assert!(self.open.is_empty(), "round ended inside a span");
        self.folds.push(fold(&self.recs));
        let mut keep = self.recs.len().min(KEEP.saturating_sub(self.kept.len()));
        // Cut between ops, so no kept span names a parent past the cut.
        while keep < self.recs.len() && self.recs[keep].parent != NO_PARENT {
            keep -= 1;
        }
        // Parent indices are relative to the round; rebase them.
        let base = self.kept.len() as u32;
        self.kept.extend(self.recs[..keep].iter().map(|r| Rec {
            parent: if r.parent == NO_PARENT {
                NO_PARENT
            } else {
                r.parent + base
            },
            ..*r
        }));
        self.recs.clear();
    }

    /// The per-round folds so far.
    pub fn folds(&self) -> &[RoundFold] {
        &self.folds
    }

    /// This tracer's share of the trace file: its thread id and the
    /// kept records.
    pub fn kept(&self) -> (u32, &[Rec]) {
        (self.tid, &self.kept)
    }
}

/// Folds one round's records by name.
pub fn fold(recs: &[Rec]) -> RoundFold {
    let mut self_ns: Vec<u64> = recs.iter().map(|r| r.end_ns - r.start_ns).collect();
    for r in recs {
        if r.parent != NO_PARENT {
            let p = r.parent as usize;
            self_ns[p] = self_ns[p].saturating_sub(r.end_ns - r.start_ns);
        }
    }
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut out = RoundFold::new();
    for (r, own) in recs.iter().zip(&self_ns) {
        let dur = r.end_ns - r.start_ns;
        let f = out.entry(r.name).or_default();
        f.count += 1;
        f.dur_ns += dur;
        f.self_ns += own;
        durs.entry(r.name).or_default().push(dur);
    }
    for (name, mut d) in durs {
        d.sort_unstable();
        out.get_mut(name).expect("same keys").p50_ns = percentile_sorted(&d, 0.5);
    }
    out
}

/// Median over rounds of `f` applied to each round that recorded
/// `name`; 0 when no round did.
fn median_over(folds: &[RoundFold], name: &str, f: impl Fn(&RoundFold, &NameFold) -> f64) -> f64 {
    let vals: Vec<f64> = folds
        .iter()
        .filter_map(|r| r.get(name).map(|n| f(r, n)))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        median(&vals)
    }
}

/// Median over rounds of the per-round median duration of `name`, µs.
pub fn p50_us(folds: &[RoundFold], name: &str) -> f64 {
    median_over(folds, name, |_, n| n.p50_ns as f64 / 1e3)
}

/// Median over rounds of the per-round mean self time of `name`, µs.
pub fn mean_self_us(folds: &[RoundFold], name: &str) -> f64 {
    median_over(folds, name, |_, n| n.self_ns as f64 / n.count as f64 / 1e3)
}

/// Median over rounds of the per-round mean duration of `name`, µs.
pub fn mean_dur_us(folds: &[RoundFold], name: &str) -> f64 {
    median_over(folds, name, |_, n| n.dur_ns as f64 / n.count as f64 / 1e3)
}

/// Median over rounds of `name`'s self time as a share of the total
/// duration of the `root` spans of the same round.
pub fn share(folds: &[RoundFold], name: &str, root: &str) -> f64 {
    median_over(folds, name, |r, n| match r.get(root) {
        Some(root) if root.dur_ns > 0 => n.self_ns as f64 / root.dur_ns as f64,
        _ => 0.0,
    })
}

/// Renders the kept records of several tracers as one Chrome
/// trace-event document (`chrome://tracing`, Perfetto).
pub fn render_chrome(process: &str, threads: &[(u32, &[Rec])]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (tid, recs) in threads {
        for (idx, r) in recs.iter().enumerate() {
            let parent = if r.parent == NO_PARENT {
                -1
            } else {
                r.parent as i64
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{},\"span\":{idx},\"parent\":{parent}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.op,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Rec {
        Rec {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] > a [10,60] > b [20,30]; op > c [70,90]
        let recs = [
            rec("op", NO_PARENT, 0, 100),
            rec("a", 0, 10, 60),
            rec("b", 1, 20, 30),
            rec("c", 0, 70, 90),
        ];
        let f = fold(&recs);
        assert_eq!(f["op"].self_ns, 30);
        assert_eq!(f["a"].self_ns, 40);
        assert_eq!(f["b"].self_ns, 10);
        assert_eq!(f["c"].self_ns, 20);
        let total: u64 = f.values().map(|n| n.self_ns).sum();
        assert_eq!(total, f["op"].dur_ns);
        let folds = [f];
        assert_eq!(share(&folds, "a", "op"), 0.4);
        assert_eq!(p50_us(&folds, "c"), 0.02);
        assert_eq!(p50_us(&folds, "absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_folds_per_round() {
        let mut t = Tracer::new(Instant::now(), 3);
        for op in 0..4 {
            let v = t.op(op, "op", |t| t.span("inner", |_| 7) + 1);
            assert_eq!(v, 8);
        }
        t.end_round();
        t.op(9, "op", |t| t.span("inner", |_| ()));
        t.end_round();
        assert_eq!(t.folds().len(), 2);
        assert_eq!(t.folds()[0]["op"].count, 4);
        assert_eq!(t.folds()[0]["inner"].count, 4);
        assert_eq!(t.folds()[1]["op"].count, 1);
        // Both rounds fit under KEEP; the second round's parent index
        // is rebased onto the first's records.
        let (tid, kept) = t.kept();
        assert_eq!((tid, kept.len()), (3, 10));
        assert_eq!(kept[1].parent, 0);
        assert_eq!(kept[3].op, 1);
        assert_eq!((kept[9].name, kept[9].parent), ("inner", 8));
        assert!(kept.iter().all(|r| r.end_ns >= r.start_ns));
    }

    #[test]
    fn chrome_document_parses_and_carries_every_span() {
        let recs = [
            rec("op", NO_PARENT, 1000, 5000),
            rec("ir.parse", 0, 1500, 2500),
        ];
        let doc = render_chrome("compile-cold", &[(1, &recs)]);
        let json = simdize_telemetry::json::parse(&doc).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        let parse = &events[2];
        assert_eq!(parse.get("name").and_then(|n| n.as_str()), Some("ir.parse"));
        assert_eq!(parse.get("ts").and_then(|n| n.as_f64()), Some(1.5));
        assert_eq!(parse.get("dur").and_then(|n| n.as_f64()), Some(1.0));
        let args = parse.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|n| n.as_f64()), Some(0.0));
    }
}
