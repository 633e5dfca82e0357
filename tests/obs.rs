//! End-to-end observability tests over real spawned `prophet`
//! binaries: trace IDs propagated router → shard and echoed on every
//! response, phase spans landing in the owning shard's request
//! journal, lifetime metrics surviving a `kill -9` via the store
//! checkpoint, and the fleet Prometheus exposition passing a format
//! lint.

use prophet::serve::client::{self, Connection};
use prophet::serve::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned `prophet` binary with a parsed listen address. Killed on
/// drop so a failing test never leaks server processes.
struct Proc {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `prophet <args>` and parse the `listening on http://ADDR`
/// line both `serve` and `router` print first.
fn spawn(args: &[&str]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable listen line: {line:?}"));
    std::thread::spawn(move || std::io::copy(&mut stdout.into_inner(), &mut std::io::sink()));
    Proc { child, addr }
}

fn estimate_body(model: &str) -> Json {
    Json::object([
        ("model_name", Json::from(model)),
        ("nodes", Json::from(2usize)),
        ("backend", Json::from("analytic")),
    ])
}

fn field(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing `{key}` in {v}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("non-number at {path:?} in {v}"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance (a): a client-chosen trace ID rides `X-Prophet-Trace`
/// through the router to the owning shard, comes back as a response
/// header on the routed answer, and lands in the shard's request
/// journal with compile/evaluate phase spans and elab counters.
#[test]
fn trace_ids_follow_a_request_through_the_fleet() {
    let shard = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let shard_list = shard.addr.to_string();
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shard_list,
    ]);

    let raw = Connection::connect(router.addr)
        .unwrap()
        .send(
            "POST",
            "/v1/estimate",
            Some(&estimate_body("sample").encode()),
            &[("x-prophet-trace", "t-123")],
        )
        .unwrap();
    assert_eq!(raw.status, 200, "{}", raw.body);
    assert_eq!(
        raw.trace.as_deref(),
        Some("t-123"),
        "router must echo the client's trace ID"
    );

    // The owning shard journaled the request under the same trace,
    // with the compile and evaluate phases timed and the elaboration
    // cache miss counted (first evaluation of this SP point).
    let journal = client::get(shard.addr, "/v1/requests").unwrap().body;
    let rows = journal.get("requests").unwrap().as_array().unwrap();
    let row = rows
        .iter()
        .find(|r| r.get("trace_id").unwrap().as_str() == Some("t-123"))
        .unwrap_or_else(|| panic!("trace t-123 missing from the shard journal: {journal}"));
    assert_eq!(row.get("endpoint").unwrap().as_str(), Some("estimate"));
    assert_eq!(field(row, &["status"]), 200.0);
    assert!(
        field(row, &["phases", "compile"]) > 0.0,
        "first estimate compiles: {row}"
    );
    assert!(field(row, &["phases", "evaluate"]) > 0.0, "{row}");
    assert!(
        field(row, &["elab", "misses"]) >= 1.0,
        "first SP point elaborates: {row}"
    );

    // Error envelopes carry the trace too: a bad body bounced by the
    // router names the trace both in the header and the JSON body.
    let err = Connection::connect(router.addr)
        .unwrap()
        .send(
            "POST",
            "/v1/estimate",
            Some("{}"),
            &[("x-prophet-trace", "t-err-9")],
        )
        .unwrap();
    assert_eq!(err.status, 400, "{}", err.body);
    assert_eq!(err.trace.as_deref(), Some("t-err-9"));
    let envelope = prophet::serve::json::parse(&err.body).unwrap();
    assert_eq!(
        envelope.get("trace_id").and_then(|t| t.as_str()),
        Some("t-err-9"),
        "{envelope}"
    );

    // Without a client-supplied header the server generates one.
    let fresh = client::post(router.addr, "/v1/estimate", &estimate_body("sample")).unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.body);
    let generated = fresh.trace.expect("generated trace header");
    assert!(generated.starts_with("t-"), "{generated}");
    assert_ne!(generated, "t-123");
}

/// Acceptance (b): a shard running with `--store` checkpoints its
/// counters; `kill -9` (no graceful drain) and a restart on the same
/// store report lifetime counters at least as large as before the
/// kill, while since-boot counters restart from zero.
#[test]
fn lifetime_metrics_survive_a_kill_dash_nine() {
    let dir = temp_dir("lifetime");
    let store = dir.to_str().unwrap().to_string();
    let serve_args = |addr: &str| {
        vec![
            "serve".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--workers".to_string(),
            "2".to_string(),
            "--store".to_string(),
            store.clone(),
        ]
    };
    let mut shard = {
        let args = serve_args("127.0.0.1:0");
        spawn(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };

    const ESTIMATES: u64 = 3;
    for _ in 0..ESTIMATES {
        let r = client::post(shard.addr, "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    // Wait for a checkpoint written *after* the traffic: counters are
    // monotone within a boot, so any later checkpoint covers it. The
    // polling itself keeps changing the counters, so the checkpoint
    // thread keeps writing.
    let c0 = field(
        &client::get(shard.addr, "/v1/metrics").unwrap().body,
        &["lifetime", "checkpoints"],
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let pre_kill = loop {
        let metrics = client::get(shard.addr, "/v1/metrics").unwrap().body;
        if field(&metrics, &["lifetime", "checkpoints"]) > c0 {
            break metrics;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint landed after the traffic: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let pre_kill_lifetime = field(
        &pre_kill,
        &["lifetime", "counters", "endpoints.estimate.requests"],
    );
    assert!(pre_kill_lifetime >= ESTIMATES as f64, "{pre_kill}");

    // SIGKILL: no drain, no final checkpoint — only what the periodic
    // checkpointer already persisted survives.
    shard.child.kill().expect("kill -9 the shard");
    let addr = shard.addr;
    drop(shard);

    let revived = {
        let args = serve_args(&addr.to_string());
        spawn(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };
    let metrics = client::get(revived.addr, "/v1/metrics").unwrap().body;
    assert!(
        field(
            &metrics,
            &["lifetime", "counters", "endpoints.estimate.requests"]
        ) >= ESTIMATES as f64,
        "lifetime counters must survive the kill: {metrics}"
    );
    assert_eq!(
        field(&metrics, &["endpoints", "estimate", "requests"]),
        0.0,
        "since-boot counters restart from zero: {metrics}"
    );
}

/// Parse-and-check one Prometheus text exposition: every series has a
/// preceding `# TYPE` for its family, every value parses as a float,
/// histogram buckets are cumulative and monotone, and the `+Inf`
/// bucket equals `_count`.
fn lint_prometheus(text: &str) {
    let mut types: HashMap<String, String> = HashMap::new();
    // (family + non-le labels) -> [(bound, cumulative count)]
    let mut buckets: HashMap<String, Vec<(f64, u64)>> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name").to_string();
            let kind = parts.next().expect("family kind").to_string();
            assert!(
                types.insert(name, kind).is_none(),
                "duplicate # TYPE: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{line}"));
        let name = series.split('{').next().unwrap();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                types.contains_key(base).then(|| base.to_string())
            })
            .unwrap_or_else(|| name.to_string());
        assert!(
            types.contains_key(&family),
            "series `{series}` has no # TYPE line"
        );
        let labels = series
            .split_once('{')
            .map(|(_, l)| l.trim_end_matches('}'))
            .unwrap_or("");
        if let Some(base) = name.strip_suffix("_bucket") {
            let mut le = None;
            let others: Vec<&str> = labels
                .split(',')
                .filter(|kv| match kv.strip_prefix("le=") {
                    Some(v) => {
                        le = Some(v.trim_matches('"').to_string());
                        false
                    }
                    None => true,
                })
                .collect();
            let le = le.unwrap_or_else(|| panic!("bucket without le: {line}"));
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| panic!("{line}"))
            };
            buckets
                .entry(format!("{base}{{{}}}", others.join(",")))
                .or_default()
                .push((bound, value as u64));
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(format!("{base}{{{labels}}}"), value as u64);
        }
    }
    assert!(!types.is_empty(), "no families in the exposition");
    for (key, series) in &buckets {
        let mut sorted = series.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for pair in sorted.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "non-cumulative buckets for {key}: {series:?}"
            );
        }
        let inf = sorted.last().unwrap();
        assert!(inf.0.is_infinite(), "missing +Inf bucket for {key}");
        assert_eq!(
            Some(&inf.1),
            counts.get(key),
            "+Inf bucket != _count for {key}"
        );
    }
}

/// Acceptance (c): the router's `?format=prometheus` aggregates every
/// shard under `shard="addr"` labels, and both the fleet and shard
/// expositions pass the format lint.
#[test]
fn prometheus_expositions_pass_lint_and_cover_the_fleet() {
    let shard_a = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let shard_b = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let shard_list = format!("{},{}", shard_a.addr, shard_b.addr);
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shard_list,
    ]);
    // Spread traffic: different models hash to different shards often
    // enough, and every request counts on the router regardless.
    for model in ["sample", "jacobi", "kernel6"] {
        let r = client::post(router.addr, "/v1/estimate", &estimate_body(model)).unwrap();
        assert_eq!(r.status, 200, "{model}: {}", r.body);
    }

    let fleet = Connection::connect(router.addr)
        .unwrap()
        .send("GET", "/v1/metrics?format=prometheus", None, &[])
        .unwrap();
    assert_eq!(fleet.status, 200, "{}", fleet.body);
    lint_prometheus(&fleet.body);
    for addr in [shard_a.addr, shard_b.addr] {
        assert!(
            fleet.body.contains(&format!(
                "prophet_router_shard_healthy{{shard=\"{addr}\"}} 1"
            )),
            "{}",
            fleet.body
        );
        assert!(
            fleet.body.contains(&format!(
                "prophet_requests_total{{shard=\"{addr}\",endpoint=\"estimate\"}}"
            )),
            "{}",
            fleet.body
        );
    }
    assert!(
        fleet
            .body
            .contains("prophet_router_requests_total{endpoint=\"estimate\"} 3"),
        "{}",
        fleet.body
    );
    assert!(
        fleet
            .body
            .contains("# TYPE prophet_phase_duration_seconds histogram"),
        "{}",
        fleet.body
    );

    // The shard's own exposition passes the same lint.
    let shard = Connection::connect(shard_a.addr)
        .unwrap()
        .send("GET", "/v1/metrics?format=prometheus", None, &[])
        .unwrap();
    assert_eq!(shard.status, 200, "{}", shard.body);
    lint_prometheus(&shard.body);
    assert!(
        shard.body.contains("# TYPE prophet_requests_total counter"),
        "{}",
        shard.body
    );
}

/// With one of two shards killed, the fleet exposition still lints,
/// reports the dead shard unhealthy, carries none of its shard-family
/// series (its section has no `metrics` to render), and keeps the live
/// shard's.
#[test]
fn fleet_exposition_with_a_shard_down_keeps_the_live_shard() {
    use prophet::serve::prometheus::SHARD_FAMILIES;
    let live = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let dead = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let (live_addr, dead_addr) = (live.addr, dead.addr);
    let shard_list = format!("{live_addr},{dead_addr}");
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shard_list,
    ]);
    let r = client::post(router.addr, "/v1/estimate", &estimate_body("sample")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    drop(dead); // kill -9 and reap

    // The prober marks the dead shard down within a few sweeps.
    let down = format!("prophet_router_shard_healthy{{shard=\"{dead_addr}\"}} 0\n");
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let fleet = Connection::connect(router.addr)
            .unwrap()
            .send("GET", "/v1/metrics?format=prometheus", None, &[])
            .unwrap();
        assert_eq!(fleet.status, 200, "{}", fleet.body);
        if fleet.body.contains(&down) {
            break fleet.body;
        }
        assert!(
            Instant::now() < deadline,
            "dead shard never marked down:\n{}",
            fleet.body
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    lint_prometheus(&text);
    let is_shard_family = |line: &str| {
        SHARD_FAMILIES.iter().any(|family| {
            line.strip_prefix(family.name)
                .is_some_and(|rest| rest.starts_with(['{', '_']))
        })
    };
    let dead_label = format!("shard=\"{dead_addr}\"");
    let live_label = format!("shard=\"{live_addr}\"");
    for line in text.lines() {
        assert!(
            !(is_shard_family(line) && line.contains(&dead_label)),
            "dead shard series in the exposition: {line}"
        );
    }
    for family in [
        "prophet_requests_total",
        "prophet_phase_duration_seconds_bucket",
    ] {
        assert!(
            text.lines()
                .any(|line| line.starts_with(family) && line.contains(&live_label)),
            "live shard lost `{family}`:\n{text}"
        );
    }
    assert!(
        text.contains(&format!("prophet_router_shard_healthy{{{live_label}}} 1\n")),
        "{text}"
    );
}

/// The `prophet metrics` CLI renders both document shapes: a shard's
/// endpoint table and a router's per-shard breakdown.
#[test]
fn metrics_cli_renders_shard_and_router_documents() {
    let shard = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let shard_list = shard.addr.to_string();
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shard_list,
    ]);
    let r = client::post(router.addr, "/v1/estimate", &estimate_body("sample")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let run = |url: String| {
        let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
            .args(["metrics", &url])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Shard shape: endpoint table with quantile columns + counters.
    let out = run(format!("http://{}", shard.addr));
    assert!(out.contains("endpoint"), "{out}");
    assert!(out.contains("p99(ms)"), "{out}");
    assert!(out.contains("estimate"), "{out}");
    assert!(out.contains("pool: size 1"), "{out}");
    assert!(out.contains("journal:"), "{out}");
    // Router shape: routing summary, fleet totals, nested shard table.
    let out = run(router.addr.to_string());
    assert!(out.contains("router: 1 shard(s), 1 healthy"), "{out}");
    assert!(out.contains("fleet:"), "{out}");
    assert!(out.contains(&format!("shard {}", shard.addr)), "{out}");
    assert!(out.contains("estimate"), "{out}");
}
