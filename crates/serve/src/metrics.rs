//! Service metrics: lock-free request counters and latency histograms,
//! surfaced over the wire by `GET /v1/metrics`.
//!
//! Everything here is an atomic counter — recording a request costs a
//! handful of relaxed `fetch_add`s, so the hot path never takes a lock
//! for observability. The histogram uses fixed log-spaced upper bounds
//! (10µs .. 10s), which brackets everything from a cache-hit analytic
//! estimate to a cold compile + big simulated sweep.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in microseconds (log-spaced); the
/// final implicit bucket is overflow.
pub const BUCKET_BOUNDS_US: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A latency histogram with fixed log-spaced buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    total_us: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation given directly in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters, for quantile estimation
    /// and Prometheus rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            total_us: self.total_us.load(Ordering::Relaxed),
        }
    }

    fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

/// Non-atomic copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (one overflow bucket past the last bound).
    pub counts: [u64; BUCKET_BOUNDS_US.len() + 1],
    /// Sum of all recorded values, in microseconds.
    pub total_us: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `q`-quantile (0 < q <= 1) in microseconds, or
    /// `None` when nothing has been recorded.
    ///
    /// The buckets are log-spaced, so interpolation within a bucket is
    /// geometric (`lo * (hi/lo)^f`) rather than linear — linear
    /// interpolation over a decade-wide bucket would systematically
    /// overestimate low quantiles. The first bucket interpolates over
    /// `(bound/10, bound]` and the overflow bucket over one further
    /// decade, keeping the decade spacing uniform at the edges.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        quantile_from_counts(&BUCKET_BOUNDS_US, &self.counts, q)
    }

    /// The histogram section of the metrics body, including quantile
    /// estimates once observations exist.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("bounds_us", Json::from(BUCKET_BOUNDS_US.to_vec())),
            ("counts", Json::from(self.counts.to_vec())),
            ("total_us", Json::from(self.total_us)),
            ("observations", Json::from(self.observations())),
        ];
        if let (Some(p50), Some(p90), Some(p99)) = (
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
        ) {
            members.push(("p50_us", Json::from(p50)));
            members.push(("p90_us", Json::from(p90)));
            members.push(("p99_us", Json::from(p99)));
        }
        Json::object(members)
    }
}

/// Quantile estimation over log-bucketed counts: `bounds` are the
/// bucket upper bounds, `counts` has one extra overflow entry. Shared
/// by the server and by `prophet metrics` reading a remote histogram.
pub fn quantile_from_counts(bounds: &[u64], counts: &[u64], q: f64) -> Option<f64> {
    let n: u64 = counts.iter().sum();
    if n == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
        return None;
    }
    let rank = q * n as f64;
    let mut cumulative = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let next = cumulative + count;
        if rank <= next as f64 {
            let fraction = (rank - cumulative as f64) / count as f64;
            // Bucket i spans (lo, hi]: log-spaced decades, extended one
            // decade below the first bound and one above the last.
            let hi = bounds
                .get(i)
                .copied()
                .unwrap_or_else(|| bounds.last().map_or(10, |&last| last.saturating_mul(10)))
                as f64;
            let lo = if i == 0 {
                hi / 10.0
            } else {
                bounds[i - 1] as f64
            };
            return Some(lo * (hi / lo).powf(fraction));
        }
        cumulative = next;
    }
    None
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl EndpointMetrics {
    /// Record one handled request and whether it was answered with an
    /// error status.
    pub fn record(&self, latency: Duration, error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Error responses recorded so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("requests", Json::from(self.requests())),
            ("errors", Json::from(self.errors())),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// All service metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `POST /v1/check`.
    pub check: EndpointMetrics,
    /// `POST /v1/estimate`.
    pub estimate: EndpointMetrics,
    /// `POST /v1/sweep`.
    pub sweep: EndpointMetrics,
    /// `POST /v1/optimize`.
    pub optimize: EndpointMetrics,
    /// `GET /v1/models`.
    pub models: EndpointMetrics,
    /// `GET /v1/metrics`.
    pub metrics: EndpointMetrics,
    /// `GET /v1/requests` (the span journal).
    pub requests: EndpointMetrics,
    /// Everything else (404s, bad requests, shutdown).
    pub other: EndpointMetrics,
}

/// Endpoint labels, in the order [`Metrics::to_json`] emits them. The
/// span recorder stores an index into this table per journal entry.
pub const ENDPOINT_NAMES: [&str; 8] = [
    "check", "estimate", "sweep", "optimize", "models", "metrics", "requests", "other",
];

/// The [`ENDPOINT_NAMES`] index for a request, `other` as fallback.
pub fn endpoint_index(method: &str, path: &str) -> usize {
    match (method, path) {
        ("POST", "/v1/check") => 0,
        ("POST", "/v1/estimate") => 1,
        ("POST", "/v1/sweep") => 2,
        ("POST", "/v1/optimize") => 3,
        ("GET", "/v1/models") => 4,
        ("GET", "/v1/metrics") => 5,
        ("GET", "/v1/requests") => 6,
        _ => ENDPOINT_NAMES.len() - 1,
    }
}

impl Metrics {
    /// The endpoint counters for a request path, or `other`.
    pub fn endpoint(&self, method: &str, path: &str) -> &EndpointMetrics {
        self.by_index(endpoint_index(method, path))
    }

    /// The endpoint counters for an [`ENDPOINT_NAMES`] index.
    pub fn by_index(&self, index: usize) -> &EndpointMetrics {
        match index {
            0 => &self.check,
            1 => &self.estimate,
            2 => &self.sweep,
            3 => &self.optimize,
            4 => &self.models,
            5 => &self.metrics,
            6 => &self.requests,
            _ => &self.other,
        }
    }

    /// The per-endpoint section of the `/v1/metrics` body.
    pub fn to_json(&self) -> Json {
        Json::object(
            ENDPOINT_NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, self.by_index(i).to_json())),
        )
    }

    /// Flat `name -> value` counter pairs, the unit of the persistent
    /// metrics checkpoint. Only monotone counters belong here — gauges
    /// and histograms are since-boot by design.
    pub fn flat_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(ENDPOINT_NAMES.len() * 2);
        for (i, name) in ENDPOINT_NAMES.iter().enumerate() {
            let ep = self.by_index(i);
            out.push((format!("endpoints.{name}.requests"), ep.requests()));
            out.push((format!("endpoints.{name}.errors"), ep.errors()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_latency() {
        let h = Histogram::default();
        h.record(Duration::from_micros(5)); // bucket 0
        h.record(Duration::from_micros(50)); // bucket 1
        h.record(Duration::from_secs(100)); // overflow bucket
        let json = h.to_json();
        let counts = json.get("counts").unwrap().as_array().unwrap();
        assert_eq!(counts[0].as_f64(), Some(1.0));
        assert_eq!(counts[1].as_f64(), Some(1.0));
        assert_eq!(counts.last().unwrap().as_f64(), Some(1.0));
        assert_eq!(json.get("observations").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn quantiles_interpolate_geometrically_within_a_bucket() {
        // 100 observations, all in the (10, 100]µs bucket: the p50 sits
        // halfway through the bucket in log space, i.e. 10 * 10^0.5.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record_us(50);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile_us(0.50).unwrap();
        assert!((p50 - 10.0 * 10f64.sqrt()).abs() < 1e-9, "{p50}");
        // p100 is the bucket's upper bound exactly.
        let p100 = snap.quantile_us(1.0).unwrap();
        assert!((p100 - 100.0).abs() < 1e-9, "{p100}");
    }

    #[test]
    fn quantiles_pin_a_known_mixed_distribution() {
        // 90 fast (≤10µs bucket) + 10 slow ((1ms, 10ms] bucket):
        // p50 lands mid-way (in log space) through the fast bucket,
        // p99 lands 90% through the slow bucket.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record_us(5);
        }
        for _ in 0..10 {
            h.record_us(5_000);
        }
        let snap = h.snapshot();
        // Fast bucket spans (1, 10]: rank 50 of 90 → fraction 5/9.
        let p50 = snap.quantile_us(0.50).unwrap();
        assert!((p50 - 10f64.powf(5.0 / 9.0)).abs() < 1e-9, "{p50}");
        // Slow bucket spans (1_000, 10_000]: rank 99 is the 9th of its
        // 10 observations → fraction 0.9.
        let p99 = snap.quantile_us(0.99).unwrap();
        assert!((p99 - 1_000.0 * 10f64.powf(0.9)).abs() < 1e-6, "{p99}");
        // Empty histograms and q=0 yield no estimate.
        assert!(Histogram::default().snapshot().quantile_us(0.5).is_none());
        assert!(snap.quantile_us(0.0).is_none());
    }

    #[test]
    fn quantiles_extend_one_decade_into_the_overflow_bucket() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record_us(50_000_000); // past the 10s bound
        }
        let snap = h.snapshot();
        // Overflow spans (1e7, 1e8] by convention: p100 = 1e8.
        let p100 = snap.quantile_us(1.0).unwrap();
        assert!((p100 - 1e8).abs() < 1e-3, "{p100}");
    }

    #[test]
    fn histogram_json_includes_quantiles_once_observed() {
        let h = Histogram::default();
        assert!(h.to_json().get("p50_us").is_none(), "empty: no estimate");
        h.record_us(50);
        let json = h.to_json();
        for key in ["p50_us", "p90_us", "p99_us"] {
            assert!(json.get(key).unwrap().as_f64().is_some(), "{key}");
        }
    }

    #[test]
    fn endpoint_names_round_trip_through_indices() {
        let m = Metrics::default();
        m.endpoint("GET", "/v1/requests")
            .record(Duration::ZERO, false);
        assert_eq!(m.requests.requests(), 1, "journal hits its own counter");
        for &name in &ENDPOINT_NAMES {
            assert!(m.to_json().get(name).is_some(), "{name}");
        }
        assert_eq!(endpoint_index("GET", "/v1/requests"), 6);
        assert_eq!(endpoint_index("PUT", "/nope"), ENDPOINT_NAMES.len() - 1);
        // Flat counters cover every endpoint twice (requests + errors).
        let flat = m.flat_counters();
        assert_eq!(flat.len(), ENDPOINT_NAMES.len() * 2);
        let journal = flat
            .iter()
            .find(|(n, _)| n == "endpoints.requests.requests")
            .unwrap();
        assert_eq!(journal.1, 1);
    }

    #[test]
    fn endpoint_routing_and_counts() {
        let m = Metrics::default();
        m.endpoint("POST", "/v1/estimate")
            .record(Duration::from_micros(3), false);
        m.endpoint("POST", "/v1/estimate")
            .record(Duration::from_micros(3), true);
        m.endpoint("GET", "/nope").record(Duration::ZERO, true);
        assert_eq!(m.estimate.requests(), 2);
        assert_eq!(m.other.requests(), 1);
        let json = m.to_json();
        let est = json.get("estimate").unwrap();
        assert_eq!(est.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(est.get("errors").unwrap().as_f64(), Some(1.0));
    }
}
