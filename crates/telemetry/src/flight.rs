//! The flight recorder: a fixed-capacity, lock-striped ring buffer of
//! recent request summaries for postmortem capture.
//!
//! The server records one [`FlightEntry`] per handled request — trace
//! id, verb, latency, the pipeline attributes the request tagged, and
//! the error if it failed. The recorder keeps only the last
//! `capacity` entries, so its memory is bounded at roughly
//! `capacity × sizeof(entry)` regardless of uptime (error strings are
//! truncated on record for the same reason). Writes go to one of
//! `stripes` independent mutexes chosen round-robin by the global
//! sequence number, so concurrent request threads rarely contend;
//! [`dump`](FlightRecorder::dump) merges the stripes back into
//! admission order. The dump is rendered as versioned JSON
//! ([`FLIGHT_SCHEMA`]) on server error responses, on SIGINT drain, and
//! for the `dump` wire verb.

use crate::json::Writer;
use crate::trace::write_attrs;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The versioned schema identifier of a rendered flight dump.
pub const FLIGHT_SCHEMA: &str = "simdize-flight/v1";

/// Error strings longer than this are truncated on record so one
/// pathological request cannot inflate the recorder's memory bound.
const MAX_ERROR_LEN: usize = 256;

/// One request's postmortem summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Admission order (assigned by the recorder; later = newer).
    pub seq: u64,
    /// The request's wire trace id (`c<conn>-<seq>`).
    pub trace_id: String,
    /// The verb that ran.
    pub verb: String,
    /// Wall-clock microseconds the request took.
    pub latency_us: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Pipeline attributes the request tagged (policy, isa, …).
    pub attrs: BTreeMap<String, String>,
    /// The error message when `ok` is false (truncated to 256 chars).
    pub error: Option<String>,
}

/// A fixed-capacity lock-striped ring buffer of [`FlightEntry`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<Mutex<VecDeque<FlightEntry>>>,
    seq: AtomicU64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` entries across
    /// `stripes` independently-locked segments (both clamped to ≥ 1).
    /// Capacity is rounded up to a multiple of the stripe count so
    /// round-robin admission keeps exactly the newest entries.
    pub fn new(capacity: usize, stripes: usize) -> FlightRecorder {
        let stripes = stripes.max(1);
        let capacity = capacity.max(1);
        let per_stripe = capacity.div_ceil(stripes);
        FlightRecorder {
            stripes: (0..stripes)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_stripe)))
                .collect(),
            seq: AtomicU64::new(0),
            capacity: per_stripe * stripes,
        }
    }

    /// The number of entries the recorder retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many requests have been recorded over the recorder's
    /// lifetime (not how many are currently retained).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Admits one entry, evicting the oldest entry of its stripe when
    /// full. The entry's `seq` is assigned here; the caller's value is
    /// ignored. Sequence numbers stripe round-robin, so across stripes
    /// the recorder retains exactly the newest `capacity` admissions.
    pub fn record(&self, mut entry: FlightEntry) {
        entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(err) = &mut entry.error {
            if err.len() > MAX_ERROR_LEN {
                let mut cut = MAX_ERROR_LEN;
                while !err.is_char_boundary(cut) {
                    cut -= 1;
                }
                err.truncate(cut);
                err.push('…');
            }
        }
        let per_stripe = self.capacity / self.stripes.len();
        let stripe = (entry.seq as usize) % self.stripes.len();
        let mut q = self.stripes[stripe]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while q.len() >= per_stripe {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// Every retained entry, oldest first.
    pub fn dump(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = Vec::new();
        for stripe in &self.stripes {
            let q = stripe.lock().unwrap_or_else(|e| e.into_inner());
            entries.extend(q.iter().cloned());
        }
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// The versioned JSON rendering ([`FLIGHT_SCHEMA`]) of the dump.
    pub fn render_json(&self) -> String {
        let mut w = Writer::default();
        w.obj()
            .field("schema", FLIGHT_SCHEMA)
            .field("capacity", self.capacity);
        w.field("recorded", self.recorded()).key("entries").arr();
        for e in self.dump() {
            w.obj()
                .field("seq", e.seq)
                .field("trace_id", &e.trace_id)
                .field("verb", &e.verb);
            w.field("latency_us", e.latency_us)
                .field("ok", e.ok)
                .key("attrs");
            write_attrs(&mut w, &e.attrs);
            w.field("error", e.error.as_ref()).end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn entry(trace: &str, verb: &str, ok: bool) -> FlightEntry {
        FlightEntry {
            seq: 0,
            trace_id: trace.to_string(),
            verb: verb.to_string(),
            latency_us: 42,
            ok,
            attrs: BTreeMap::new(),
            error: if ok { None } else { Some("bad".to_string()) },
        }
    }

    #[test]
    fn retains_exactly_the_newest_capacity_entries() {
        let rec = FlightRecorder::new(8, 4);
        for i in 0..30 {
            rec.record(entry(&format!("c1-{i}"), "run", true));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 8);
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (22..30).collect::<Vec<u64>>());
        assert_eq!(rec.recorded(), 30);
    }

    #[test]
    fn capacity_rounds_up_to_stripe_multiple() {
        let rec = FlightRecorder::new(10, 4);
        assert_eq!(rec.capacity(), 12);
        let tiny = FlightRecorder::new(0, 0);
        assert_eq!(tiny.capacity(), 1);
        tiny.record(entry("c1-1", "ping", true));
        tiny.record(entry("c1-2", "ping", true));
        assert_eq!(tiny.dump().len(), 1);
        assert_eq!(tiny.dump()[0].trace_id, "c1-2");
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let rec = FlightRecorder::new(512, 8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..64 {
                        rec.record(entry(&format!("c{t}-{i}"), "run", true));
                    }
                });
            }
        });
        let dump = rec.dump();
        assert_eq!(dump.len(), 512);
        // Admission order is strictly increasing and gap-free.
        for (i, e) in dump.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn rendered_json_is_versioned_and_carries_errors() {
        let rec = FlightRecorder::new(4, 2);
        let mut e = entry("c7-9", "verify", false);
        e.attrs.insert("policy".to_string(), "lazy".to_string());
        rec.record(e);
        let doc = json::parse(&rec.render_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(FLIGHT_SCHEMA));
        assert_eq!(doc.get("capacity").unwrap().as_f64(), Some(4.0));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("trace_id").unwrap().as_str(), Some("c7-9"));
        assert_eq!(entries[0].get("error").unwrap().as_str(), Some("bad"));
        assert_eq!(
            entries[0]
                .get("attrs")
                .unwrap()
                .get("policy")
                .unwrap()
                .as_str(),
            Some("lazy")
        );
    }

    #[test]
    fn long_errors_are_truncated_on_record() {
        let rec = FlightRecorder::new(2, 1);
        let mut e = entry("c1-1", "run", false);
        e.error = Some("x".repeat(10_000));
        rec.record(e);
        let got = rec.dump()[0].error.clone().unwrap();
        assert!(
            got.chars().count() <= 257,
            "error not truncated: {}",
            got.len()
        );
        assert!(got.ends_with('…'));
    }
}
