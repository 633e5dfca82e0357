//! Per-request phase spans and the lock-free journal behind
//! `GET /v1/requests`.
//!
//! Each handled request accumulates a [`SpanSet`]: microseconds spent
//! in each pipeline phase (parse, pool lookup, store load, compile,
//! evaluate, encode) plus the elaboration-cache hit/miss deltas the
//! request caused. Completed sets land in a [`SpanRecorder`] — a
//! fixed-size ring of all-atomic slots claimed by an atomic cursor, so
//! recording never takes a lock and never allocates: a busy server
//! keeps the newest `capacity` requests, and a total `recorded` counter
//! is exact even when the ring wraps.
//!
//! Slot writes use a seqlock: the sequence number goes odd while a
//! writer fills the slot and even (and larger) when it finishes, so a
//! reader that sees a torn slot — mid-write, or overwritten during the
//! read — detects the seq change and skips it rather than reporting
//! garbage.

use crate::json::Json;
use crate::metrics::{Histogram, ENDPOINT_NAMES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pipeline phases, in journal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Body parse + argument validation.
    Parse = 0,
    /// Content-key resolution (model parse on a first sight) and the
    /// session-pool lookup, including waits on a slot.
    Pool = 1,
    /// Artifact-store load attempt.
    StoreLoad = 2,
    /// Model compile (check + transform + flatten).
    Compile = 3,
    /// Evaluation proper: estimate, sweep points, or optimizer search.
    Evaluate = 4,
    /// Response body encode.
    Encode = 5,
}

/// Phase labels, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; 6] = [
    "parse",
    "pool",
    "store_load",
    "compile",
    "evaluate",
    "encode",
];

/// How many recent requests the journal keeps.
pub const JOURNAL_CAPACITY: usize = 256;

const TRACE_WORDS: usize = crate::http::MAX_TRACE_LEN / 8;

/// Accumulating span set for one in-flight request.
#[derive(Debug)]
pub struct SpanSet {
    started: Instant,
    last: Instant,
    phase_us: [u64; PHASE_NAMES.len()],
    elab_hits: u64,
    elab_misses: u64,
}

impl SpanSet {
    /// Start the clock for a new request.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            last: now,
            phase_us: [0; PHASE_NAMES.len()],
            elab_hits: 0,
            elab_misses: 0,
        }
    }

    /// Attribute the time since the previous mark to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        self.phase_us[phase as usize] += now
            .duration_since(self.last)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.last = now;
    }

    /// Attribute an externally measured duration to `phase` (used when
    /// a callee reports its own sub-timings, e.g. the pool checkout
    /// splitting store load from compile).
    pub fn add_us(&mut self, phase: Phase, us: u64) {
        self.phase_us[phase as usize] += us;
    }

    /// Reset the inter-mark clock to now, after a stretch accounted
    /// for via [`SpanSet::add_us`].
    pub fn resync(&mut self) {
        self.last = Instant::now();
    }

    /// Record the elaboration-cache hits/misses this request caused.
    pub fn set_elab(&mut self, hits: u64, misses: u64) {
        self.elab_hits = hits;
        self.elab_misses = misses;
    }

    /// Microseconds attributed to `phase` so far.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase as usize]
    }

    /// Total wall time since [`SpanSet::start`], in microseconds.
    pub fn total_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// One all-atomic journal slot (see the module docs for the seqlock
/// protocol).
#[derive(Debug, Default)]
struct Slot {
    /// 0 = never written; odd = write in progress; even > 0 = stable.
    seq: AtomicU64,
    trace: [AtomicU64; TRACE_WORDS],
    trace_len: AtomicU64,
    endpoint: AtomicU64,
    status: AtomicU64,
    total_us: AtomicU64,
    phase_us: [AtomicU64; PHASE_NAMES.len()],
    elab_hits: AtomicU64,
    elab_misses: AtomicU64,
}

/// Decoded copy of one journal slot.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The request's trace ID.
    pub trace: String,
    /// Index into [`ENDPOINT_NAMES`].
    pub endpoint: usize,
    /// Response status code.
    pub status: u16,
    /// Total request wall time, µs.
    pub total_us: u64,
    /// Per-phase µs, indexed like [`PHASE_NAMES`].
    pub phase_us: [u64; PHASE_NAMES.len()],
    /// Elaboration-cache hits this request caused.
    pub elab_hits: u64,
    /// Elaboration-cache misses this request caused.
    pub elab_misses: u64,
}

/// Lock-free ring of recent requests plus aggregated per-phase
/// histograms.
#[derive(Debug)]
pub struct SpanRecorder {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    recorded: AtomicU64,
    phase_hist: [Histogram; PHASE_NAMES.len()],
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::with_capacity(JOURNAL_CAPACITY)
    }
}

impl SpanRecorder {
    /// A recorder keeping the newest `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            phase_hist: Default::default(),
        }
    }

    /// Record one completed request. Atomics only: safe from any
    /// worker thread, never blocks, never allocates.
    pub fn record(&self, trace: &str, endpoint: usize, status: u16, spans: &SpanSet) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        for (i, &us) in spans.phase_us.iter().enumerate() {
            if us > 0 {
                self.phase_hist[i].record_us(us);
            }
        }

        let idx = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        let slot = &self.slots[idx];
        // Odd sequence: readers (and any concurrent writer colliding on
        // a wrapped ring) will see this slot as in-flight and skip it.
        slot.seq.fetch_add(1, Ordering::Acquire);
        let bytes = trace.as_bytes();
        let take = bytes.len().min(TRACE_WORDS * 8);
        slot.trace_len.store(take as u64, Ordering::Relaxed);
        for (w, word_slot) in slot.trace.iter().enumerate() {
            let mut word = [0u8; 8];
            let start = w * 8;
            if start < take {
                let end = (start + 8).min(take);
                word[..end - start].copy_from_slice(&bytes[start..end]);
            }
            word_slot.store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        slot.endpoint.store(endpoint as u64, Ordering::Relaxed);
        slot.status.store(u64::from(status), Ordering::Relaxed);
        slot.total_us.store(spans.total_us(), Ordering::Relaxed);
        for (i, &us) in spans.phase_us.iter().enumerate() {
            slot.phase_us[i].store(us, Ordering::Relaxed);
        }
        slot.elab_hits.store(spans.elab_hits, Ordering::Relaxed);
        slot.elab_misses.store(spans.elab_misses, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release);
    }

    /// Total requests ever recorded — exact even after the ring wraps.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Stable journal entries, newest first. Slots mid-write or torn
    /// by a concurrent wrap are skipped, not misreported.
    pub fn entries(&self) -> Vec<JournalEntry> {
        let cursor = self.cursor.load(Ordering::Relaxed) as usize;
        let len = self.slots.len();
        let mut out = Vec::with_capacity(cursor.min(len));
        for back in 1..=cursor.min(len) {
            let slot = &self.slots[(cursor - back) % len];
            if let Some(entry) = self.read_slot(slot) {
                out.push(entry);
            }
        }
        out
    }

    fn read_slot(&self, slot: &Slot) -> Option<JournalEntry> {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 || seq % 2 == 1 {
            return None;
        }
        let mut raw = [0u64; TRACE_WORDS];
        for (w, word_slot) in slot.trace.iter().enumerate() {
            raw[w] = word_slot.load(Ordering::Relaxed);
        }
        let trace_len = (slot.trace_len.load(Ordering::Relaxed) as usize).min(TRACE_WORDS * 8);
        let endpoint =
            (slot.endpoint.load(Ordering::Relaxed) as usize).min(ENDPOINT_NAMES.len() - 1);
        let status = slot.status.load(Ordering::Relaxed) as u16;
        let total_us = slot.total_us.load(Ordering::Relaxed);
        let mut phase_us = [0u64; PHASE_NAMES.len()];
        for (i, p) in slot.phase_us.iter().enumerate() {
            phase_us[i] = p.load(Ordering::Relaxed);
        }
        let elab_hits = slot.elab_hits.load(Ordering::Relaxed);
        let elab_misses = slot.elab_misses.load(Ordering::Relaxed);
        // The fence keeps the relaxed data loads above from being
        // reordered past the confirming sequence load below.
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq {
            return None; // torn by a concurrent wrap
        }
        let mut bytes = Vec::with_capacity(trace_len);
        for word in raw {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.truncate(trace_len);
        let trace = String::from_utf8(bytes).unwrap_or_default();
        Some(JournalEntry {
            trace,
            endpoint,
            status,
            total_us,
            phase_us,
            elab_hits,
            elab_misses,
        })
    }

    /// The `GET /v1/requests` body: newest-first journal plus the
    /// exact lifetime count.
    pub fn journal_json(&self) -> Json {
        let entries: Vec<Json> = self.entries().iter().map(entry_json).collect();
        Json::object([
            ("recorded", Json::from(self.recorded())),
            ("capacity", Json::from(self.slots.len())),
            ("requests", Json::Array(entries)),
        ])
    }

    /// Aggregated per-phase histograms (the `phases` section of
    /// `/v1/metrics`).
    pub fn phases_json(&self) -> Json {
        Json::object(
            PHASE_NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, self.phase_hist[i].snapshot().to_json())),
        )
    }
}

fn entry_json(entry: &JournalEntry) -> Json {
    let phases = Json::object(
        PHASE_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, Json::from(entry.phase_us[i]))),
    );
    Json::object([
        ("trace_id", Json::from(entry.trace.as_str())),
        ("endpoint", Json::from(ENDPOINT_NAMES[entry.endpoint])),
        ("status", Json::from(u64::from(entry.status))),
        ("total_us", Json::from(entry.total_us)),
        ("phases", phases),
        (
            "elab",
            Json::object([
                ("hits", Json::from(entry.elab_hits)),
                ("misses", Json::from(entry.elab_misses)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spans_with(phase: Phase, us: u64) -> SpanSet {
        let mut s = SpanSet::start();
        s.add_us(phase, us);
        s
    }

    #[test]
    fn journal_keeps_newest_first_with_full_fidelity() {
        let rec = SpanRecorder::with_capacity(8);
        for i in 0..3u64 {
            let mut s = spans_with(Phase::Evaluate, 100 + i);
            s.set_elab(i, 1);
            rec.record(&format!("t-{i}"), 1, 200, &s);
        }
        let entries = rec.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].trace, "t-2", "newest first");
        assert_eq!(entries[2].trace, "t-0");
        assert_eq!(entries[0].phase_us[Phase::Evaluate as usize], 102);
        assert_eq!(entries[0].elab_hits, 2);
        let json = rec.journal_json();
        assert_eq!(json.get("recorded").unwrap().as_f64(), Some(3.0));
        let first = &json.get("requests").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("trace_id").unwrap().as_str(), Some("t-2"));
        assert_eq!(first.get("endpoint").unwrap().as_str(), Some("estimate"));
        assert_eq!(
            first
                .get("phases")
                .unwrap()
                .get("evaluate")
                .unwrap()
                .as_f64(),
            Some(102.0)
        );
    }

    #[test]
    fn ring_wrap_keeps_only_capacity_but_counts_everything() {
        let rec = SpanRecorder::with_capacity(4);
        for i in 0..10u64 {
            rec.record(&format!("t-{i}"), 0, 200, &spans_with(Phase::Parse, 1));
        }
        assert_eq!(rec.recorded(), 10, "count survives the wrap");
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].trace, "t-9");
        assert_eq!(entries[3].trace, "t-6");
    }

    #[test]
    fn concurrent_recording_never_loses_the_count() {
        // The satellite contract: a tiny ring hammered from many
        // threads wraps constantly, yet the recorded total is exact
        // and every readable entry is internally consistent.
        let rec = Arc::new(SpanRecorder::with_capacity(4));
        let threads = 8;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut s = spans_with(Phase::Evaluate, i + 1);
                    s.add_us(Phase::Parse, 1);
                    rec.record(&format!("t-{t}-{i}"), 1, 200, &s);
                }
            }));
        }
        // Concurrent readers must never see torn garbage.
        let reader = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while rec.recorded() < threads as u64 * per_thread {
                    for e in rec.entries() {
                        assert!(e.trace.starts_with("t-"), "torn trace: {:?}", e.trace);
                        assert_eq!(e.status, 200);
                        seen += 1;
                    }
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(rec.recorded(), threads as u64 * per_thread);
        // Every surviving slot is stable and well-formed.
        let entries = rec.entries();
        assert_eq!(entries.len(), 4);
        for e in &entries {
            assert!(e.trace.starts_with("t-"));
            assert_eq!(e.phase_us[Phase::Parse as usize], 1);
        }
    }

    #[test]
    fn long_traces_truncate_instead_of_overflowing() {
        let rec = SpanRecorder::with_capacity(2);
        let long = "x".repeat(100);
        rec.record(&long, 0, 200, &SpanSet::start());
        let entries = rec.entries();
        assert_eq!(entries[0].trace.len(), TRACE_WORDS * 8);
        assert!(long.starts_with(&entries[0].trace));
    }

    #[test]
    fn span_set_marks_accumulate_by_phase() {
        let mut s = SpanSet::start();
        s.mark(Phase::Parse);
        s.add_us(Phase::Compile, 250);
        s.resync();
        s.mark(Phase::Evaluate);
        assert_eq!(s.phase_us(Phase::Compile), 250);
        assert!(s.total_us() >= s.phase_us(Phase::Parse));
        let hist = {
            let rec = SpanRecorder::with_capacity(2);
            rec.record("t", 1, 200, &s);
            rec.phases_json()
        };
        assert_eq!(
            hist.get("compile")
                .unwrap()
                .get("observations")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
