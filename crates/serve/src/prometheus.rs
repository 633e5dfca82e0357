//! Prometheus text exposition (format 0.0.4) for
//! `GET /v1/metrics?format=prometheus`, on the shard and the router.
//!
//! The JSON metrics document is the one source: a server builds it
//! once per request and either encodes it or [`render`]s it through a
//! declarative family table ([`SHARD_FAMILIES`], [`fleet_families`]).
//! Each row names an exposed family, its [`Kind`], and a path into the
//! document, so the two views cannot drift apart — a JSON leaf no row
//! samples is a test failure ([`unsampled_leaves`]).
//!
//! The exposition contract the tests lint for: every series is preceded
//! by a `# TYPE` line for its family, histogram `_bucket` series are
//! cumulative and monotone with a closing `le="+Inf"` bucket equal to
//! `_count`, bucket bounds are rendered in seconds, and label values
//! escape `\`, `"` and newlines.

use crate::json::Json;
use std::borrow::Cow;
use std::fmt::Write as _;

/// How a family's series are read from the document and exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A number leaf (a bool as 0/1), exposed as a counter.
    Counter,
    /// A number leaf (a bool as 0/1), exposed as a gauge.
    Gauge,
    /// A histogram object (`bounds_us`/`counts`/`total_us`), exposed as
    /// `_bucket`/`_sum`/`_count` series in seconds.
    Histogram,
    /// A histogram object's `p50_us`/`p90_us`/`p99_us` estimates,
    /// exposed as gauges in seconds under a `quantile` label.
    Quantiles,
}

impl Kind {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Quantiles => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One row of a family table: an exposed family and where its series
/// live in the JSON metrics document.
#[derive(Debug, Clone)]
pub struct Family {
    /// The exposed family name.
    pub name: &'static str,
    /// Its type, and how a matched node becomes series.
    pub kind: Kind,
    /// `/`-separated path into the document. A segment is one of
    ///
    /// * `key` — that member;
    /// * `pre{label}suf` — every member named `pre`+X+`suf`, binding X
    ///   to `label` (`{endpoint}` alone matches every member);
    /// * `[label=member]` — every array element, binding the element's
    ///   string `member` to `label`.
    ///
    /// Labels appear on each series in path order. A missing member,
    /// `null`, or a node of the wrong shape yields no series.
    pub path: Cow<'static, str>,
}

const fn row(name: &'static str, kind: Kind, path: &'static str) -> Family {
    Family {
        name,
        kind,
        path: Cow::Borrowed(path),
    }
}

/// The shard's `/v1/metrics` document as an exposition.
#[rustfmt::skip]
pub const SHARD_FAMILIES: &[Family] = &[
    row("prophet_requests_total",                      Kind::Counter,   "endpoints/{endpoint}/requests"),
    row("prophet_request_errors_total",                Kind::Counter,   "endpoints/{endpoint}/errors"),
    row("prophet_request_duration_seconds",            Kind::Histogram, "endpoints/{endpoint}/latency"),
    row("prophet_request_duration_quantile_seconds",   Kind::Quantiles, "endpoints/{endpoint}/latency"),
    row("prophet_phase_duration_seconds",              Kind::Histogram, "phases/{phase}"),
    row("prophet_journal_recorded_total",              Kind::Counter,   "journal/recorded"),
    row("prophet_session_pool_size",                   Kind::Gauge,     "session_pool/size"),
    row("prophet_session_pool_compiles_total",         Kind::Counter,   "session_pool/compiles"),
    row("prophet_session_pool_reuses_total",           Kind::Counter,   "session_pool/reuses"),
    row("prophet_session_pool_evictions_total",        Kind::Counter,   "session_pool/evictions"),
    row("prophet_session_pool_budget_evictions_total", Kind::Counter,   "session_pool/budget_evictions"),
    row("prophet_session_pool_retained_bytes",         Kind::Gauge,     "session_pool/retained_bytes"),
    row("prophet_elab_hits_total",                     Kind::Counter,   "elab/hits"),
    row("prophet_elab_misses_total",                   Kind::Counter,   "elab/misses"),
    row("prophet_elab_bypasses_total",                 Kind::Counter,   "elab/bypasses"),
    row("prophet_store_disk_hits_total",               Kind::Counter,   "store/disk_hits"),
    row("prophet_store_disk_misses_total",             Kind::Counter,   "store/disk_misses"),
    row("prophet_store_writes_total",                  Kind::Counter,   "store/writes"),
    row("prophet_store_write_errors_total",            Kind::Counter,   "store/write_errors"),
    row("prophet_store_evictions_total",               Kind::Counter,   "store/evictions"),
    row("prophet_metrics_checkpoints_total",           Kind::Counter,   "lifetime/checkpoints"),
    row("prophet_requests_lifetime_total",             Kind::Counter,   "lifetime/counters/endpoints.{endpoint}.requests"),
    row("prophet_request_errors_lifetime_total",       Kind::Counter,   "lifetime/counters/endpoints.{endpoint}.errors"),
];

/// The router's own sections of its aggregated `/v1/metrics` document.
#[rustfmt::skip]
pub const ROUTER_FAMILIES: &[Family] = &[
    row("prophet_router_requests_total",                    Kind::Counter,   "router/endpoints/{endpoint}/requests"),
    row("prophet_router_request_errors_total",              Kind::Counter,   "router/endpoints/{endpoint}/errors"),
    row("prophet_router_request_duration_seconds",          Kind::Histogram, "router/endpoints/{endpoint}/latency"),
    row("prophet_router_request_duration_quantile_seconds", Kind::Quantiles, "router/endpoints/{endpoint}/latency"),
    row("prophet_router_epoch",                             Kind::Gauge,     "router/routing/epoch"),
    row("prophet_router_shards",                            Kind::Gauge,     "router/routing/shards"),
    row("prophet_router_healthy_shards",                    Kind::Gauge,     "router/routing/healthy"),
    row("prophet_router_forwards_total",                    Kind::Counter,   "router/routing/forwards"),
    row("prophet_router_retries_total",                     Kind::Counter,   "router/routing/retries"),
    row("prophet_router_no_shard_total",                    Kind::Counter,   "router/routing/no_shard"),
    row("prophet_router_shard_healthy",                     Kind::Gauge,     "shards/[shard=addr]/healthy"),
    row("prophet_router_shard_consecutive_failures",        Kind::Gauge,     "shards/[shard=addr]/consecutive_failures"),
    row("prophet_router_shard_last_probe_ms_ago",           Kind::Gauge,     "shards/[shard=addr]/last_probe_ms_ago"),
    row("prophet_router_shard_downs_total",                 Kind::Counter,   "shards/[shard=addr]/downs"),
    row("prophet_router_shard_probes_total",                Kind::Counter,   "shards/[shard=addr]/probes"),
];

/// Where each reachable shard's own document sits in the router's.
const SHARD_SECTION: &str = "shards/[shard=addr]/metrics";

/// The router's exposition table: [`ROUTER_FAMILIES`], then every
/// [`SHARD_FAMILIES`] row placed under each shard's `metrics` section,
/// so shard series carry a leading `shard="addr"` label. An
/// unreachable shard's section has no `metrics`, hence no series.
pub fn fleet_families() -> Vec<Family> {
    let shard_rows = SHARD_FAMILIES.iter().map(|family| Family {
        path: Cow::Owned(format!("{SHARD_SECTION}/{}", family.path)),
        ..family.clone()
    });
    ROUTER_FAMILIES.iter().cloned().chain(shard_rows).collect()
}

/// Render `doc` through `table`: per row, one `# TYPE` line followed by
/// all of the family's series in document order; rows that match no
/// series are left out entirely.
pub fn render(doc: &Json, table: &[Family]) -> String {
    let mut out = String::new();
    for family in table {
        let opened = out.len();
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.type_name());
        let series_start = out.len();
        for_each_node(doc, family, &mut |labels, node| {
            write_series(&mut out, family, labels, node);
        });
        if out.len() == series_start {
            out.truncate(opened);
        }
    }
    out
}

/// The number and bool leaves of `doc` that no row of `table` renders
/// a series from, as `/`-joined paths — the JSON/Prometheus parity
/// check. A histogram row samples its whole object: bounds, counts,
/// total, observations, and the quantile estimates derived from them.
pub fn unsampled_leaves(doc: &Json, table: &[Family]) -> Vec<String> {
    let mut sampled: Vec<&Json> = Vec::new();
    let mut scratch = String::new();
    for family in table {
        for_each_node(doc, family, &mut |labels, node| {
            if write_series(&mut scratch, family, labels, node) {
                sampled.push(node);
            }
        });
    }
    let mut out = Vec::new();
    collect_unsampled(doc, String::new(), &sampled, &mut out);
    out
}

fn collect_unsampled(node: &Json, at: String, sampled: &[&Json], out: &mut Vec<String>) {
    if sampled.iter().any(|&s| std::ptr::eq(s, node)) {
        return;
    }
    match node {
        Json::Number(_) | Json::Bool(_) => out.push(at),
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_unsampled(item, format!("{at}/{i}"), sampled, out);
            }
        }
        Json::Object(members) => {
            for (key, child) in members {
                collect_unsampled(child, format!("{at}/{key}"), sampled, out);
            }
        }
        Json::Null | Json::String(_) => {}
    }
}

type Labels<'p, 'd> = [(&'p str, &'d str)];

/// Call `visit` on every node `family.path` matches, with the labels
/// the path bound on the way there.
fn for_each_node<'p, 'd>(
    doc: &'d Json,
    family: &'p Family,
    visit: &mut dyn FnMut(&Labels<'p, 'd>, &'d Json),
) {
    let segments: Vec<&str> = family.path.split('/').collect();
    walk(doc, &segments, &mut Vec::new(), visit);
}

fn walk<'p, 'd>(
    node: &'d Json,
    path: &[&'p str],
    labels: &mut Vec<(&'p str, &'d str)>,
    visit: &mut dyn FnMut(&Labels<'p, 'd>, &'d Json),
) {
    let Some((&segment, rest)) = path.split_first() else {
        return visit(labels, node);
    };
    if let Some(spec) = segment.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let (label, member) = spec
            .split_once('=')
            .expect("array segments read `[label=member]`");
        for item in node.as_array().unwrap_or_default() {
            if let Some(value) = item.get(member).and_then(Json::as_str) {
                labels.push((label, value));
                walk(item, rest, labels, visit);
                labels.pop();
            }
        }
    } else if let Some((prefix, tail)) = segment.split_once('{') {
        let (label, suffix) = tail
            .split_once('}')
            .expect("pattern segments read `pre{label}suf`");
        if let Json::Object(members) = node {
            for (name, child) in members {
                if let Some(value) = name
                    .strip_prefix(prefix)
                    .and_then(|rest| rest.strip_suffix(suffix))
                {
                    labels.push((label, value));
                    walk(child, rest, labels, visit);
                    labels.pop();
                }
            }
        }
    } else if let Some(child) = node.get(segment) {
        walk(child, rest, labels, visit);
    }
}

/// Append the series one matched node yields; `false` when the node
/// has the wrong shape for the family's kind (and nothing is written).
fn write_series(out: &mut String, family: &Family, labels: &Labels, node: &Json) -> bool {
    let name = family.name;
    match family.kind {
        Kind::Counter | Kind::Gauge => {
            let value = match node {
                Json::Number(n) => *n,
                Json::Bool(b) => f64::from(u8::from(*b)),
                _ => return false,
            };
            sample(out, name, "", labels, None, value);
        }
        Kind::Histogram => {
            let Some((bounds, counts, total_us)) = histogram_from_json(node) else {
                return false;
            };
            let mut cumulative = 0u64;
            for (i, &count) in counts.iter().enumerate() {
                cumulative += count;
                let le = match bounds.get(i) {
                    Some(&bound) => seconds(bound as f64),
                    None => "+Inf".to_string(),
                };
                sample(
                    out,
                    name,
                    "_bucket",
                    labels,
                    Some(("le", &le)),
                    cumulative as f64,
                );
            }
            sample(out, name, "_sum", labels, None, total_us as f64 / 1e6);
            sample(out, name, "_count", labels, None, cumulative as f64);
        }
        Kind::Quantiles => {
            let mut any = false;
            for (key, quantile) in [("p50_us", "0.5"), ("p90_us", "0.9"), ("p99_us", "0.99")] {
                if let Some(us) = node.get(key).and_then(Json::as_f64) {
                    sample(
                        out,
                        name,
                        "",
                        labels,
                        Some(("quantile", quantile)),
                        us / 1e6,
                    );
                    any = true;
                }
            }
            return any;
        }
    }
    true
}

/// Append one `name{labels} value` line.
fn sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &Labels,
    extra: Option<(&str, &str)>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let mut separator = '{';
    for (key, label) in labels.iter().chain(extra.iter()) {
        out.push(separator);
        separator = ',';
        let _ = write!(out, "{key}=\"{}\"", escape_label(label));
    }
    if separator == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a microsecond quantity in seconds, trimming to a compact
/// decimal (`10` not `10.000000`, `0.00001` not `1e-5`).
fn seconds(us: f64) -> String {
    let s = us / 1e6;
    if s == s.trunc() && s.abs() < 1e15 {
        format!("{}", s as i64)
    } else {
        // `{}` on f64 prints the shortest round-tripping decimal,
        // which for our magnitudes never falls back to exponent form.
        let text = format!("{s}");
        if text.contains('e') || text.contains('E') {
            format!("{s:.9}")
        } else {
            text
        }
    }
}

/// Decode a histogram section (`{"bounds_us": [...], "counts": [...],
/// "total_us": N}`) of a metrics document.
pub fn histogram_from_json(json: &Json) -> Option<(Vec<u64>, Vec<u64>, u64)> {
    let nums = |key: &str| -> Option<Vec<u64>> {
        json.get(key)?
            .as_array()?
            .iter()
            .map(|v| v.as_f64().map(|f| f as u64))
            .collect()
    };
    let bounds = nums("bounds_us")?;
    let counts = nums("counts")?;
    if counts.len() != bounds.len() + 1 {
        return None;
    }
    let total_us = json.get("total_us")?.as_f64()? as u64;
    Some((bounds, counts, total_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn label_escaping_covers_backslash_quote_newline() {
        assert_eq!(escape_label(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
        let doc = crate::json::parse(r#"{"shards":[{"addr":"a\"b","up":1}]}"#).unwrap();
        let text = render(&doc, &[row("m", Kind::Gauge, "shards/[shard=addr]/up")]);
        assert_eq!(text, "# TYPE m gauge\nm{shard=\"a\\\"b\"} 1\n");
    }

    #[test]
    fn histogram_series_are_cumulative_with_inf_equal_to_count() {
        let h = Histogram::default();
        h.record_us(5); // bucket 0 (<= 10µs)
        h.record_us(50); // bucket 1
        h.record_us(50);
        let doc = Json::object([("estimate", h.snapshot().to_json())]);
        let text = render(&doc, &[row("d", Kind::Histogram, "{endpoint}")]);
        assert!(text.starts_with("# TYPE d histogram\n"), "{text}");
        assert!(
            text.contains("d_bucket{endpoint=\"estimate\",le=\"0.00001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("d_bucket{endpoint=\"estimate\",le=\"0.0001\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("d_bucket{endpoint=\"estimate\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("d_count{endpoint=\"estimate\"} 3"), "{text}");
        // Sum is in seconds: 105µs.
        assert!(
            text.contains("d_sum{endpoint=\"estimate\"} 0.000105"),
            "{text}"
        );
    }

    #[test]
    fn paths_bind_labels_and_skip_what_they_cannot_sample() {
        let doc = crate::json::parse(
            r#"{"counters": {"endpoints.check.requests": 4, "endpoints.check.errors": 1,
                             "other": 9},
                "shards": [{"addr": "a", "up": true, "age": null, "m": {"x": {"n": 2}}},
                           {"addr": "b", "up": false, "age": 7},
                           {"up": true}],
                "empty": {}}"#,
        )
        .unwrap();
        let table = [
            row(
                "req",
                Kind::Counter,
                "counters/endpoints.{endpoint}.requests",
            ),
            row("up", Kind::Gauge, "shards/[shard=addr]/up"),
            row("age", Kind::Gauge, "shards/[shard=addr]/age"),
            row("n", Kind::Counter, "shards/[shard=addr]/m/{k}/n"),
            row("none", Kind::Counter, "empty/{k}"),
            row("missing", Kind::Counter, "nope/x"),
        ];
        assert_eq!(
            render(&doc, &table),
            "# TYPE req counter\nreq{endpoint=\"check\"} 4\n\
             # TYPE up gauge\nup{shard=\"a\"} 1\nup{shard=\"b\"} 0\n\
             # TYPE age gauge\nage{shard=\"b\"} 7\n\
             # TYPE n counter\nn{shard=\"a\",k=\"x\"} 2\n"
        );
        assert_eq!(
            unsampled_leaves(&doc, &table),
            [
                "/counters/endpoints.check.errors",
                "/counters/other",
                "/shards/2/up"
            ]
        );
    }

    #[test]
    fn seconds_rendering_avoids_exponent_form() {
        for &us in crate::metrics::BUCKET_BOUNDS_US.iter() {
            let text = seconds(us as f64);
            assert!(!text.contains('e') && !text.contains('E'), "{text}");
            let parsed: f64 = text.parse().unwrap();
            assert!((parsed - us as f64 / 1e6).abs() < 1e-12);
        }
        assert_eq!(seconds(10_000_000.0), "10");
    }

    #[test]
    fn shard_histograms_round_trip_through_json() {
        let h = Histogram::default();
        h.record_us(42);
        let json = h.snapshot().to_json();
        let (bounds, counts, total) = histogram_from_json(&json).unwrap();
        assert_eq!(bounds, crate::metrics::BUCKET_BOUNDS_US.to_vec());
        assert_eq!(counts.iter().sum::<u64>(), 1);
        assert_eq!(total, 42);
    }
}
