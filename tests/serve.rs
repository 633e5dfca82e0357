//! Integration tests for the prediction service: a real listener on an
//! ephemeral port, real sockets, and the `prophet serve` binary itself.
//!
//! The headline assertion is the serve-path payoff of the compile-once
//! stack: two sequential `POST /v1/estimate` requests for the same model
//! compile the session **exactly once**, and the second request lands on
//! the elaboration cache — both visible over the wire through
//! `GET /v1/metrics`.

use prophet::serve::client;
use prophet::serve::json::Json;
use prophet::serve::server::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

fn start() -> prophet::serve::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..Default::default()
    })
    .expect("bind an ephemeral port")
}

fn estimate_body(model: &str, nodes: usize) -> Json {
    Json::object([
        ("model_name", Json::from(model)),
        ("nodes", Json::from(nodes)),
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

/// The acceptance criterion: same model twice → one compile, and the
/// second request reuses both the session and its elaborations.
#[test]
fn two_estimates_compile_once_and_hit_the_elab_cache() {
    let server = start();
    let addr = server.addr();
    let body = estimate_body("jacobi", 4);

    let first = client::post(addr, "/v1/estimate", &body).expect("first estimate");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(
        first
            .body
            .get("session")
            .unwrap()
            .get("reused")
            .unwrap()
            .as_bool(),
        Some(false)
    );

    let second = client::post(addr, "/v1/estimate", &body).expect("second estimate");
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(
        second
            .body
            .get("session")
            .unwrap()
            .get("reused")
            .unwrap()
            .as_bool(),
        Some(true),
        "second request must reuse the pooled session: {}",
        second.body
    );
    // Same scenario → same prediction, bit for bit.
    assert_eq!(
        field(&first.body, &["predicted_time"]).to_bits(),
        field(&second.body, &["predicted_time"]).to_bits()
    );

    // The wire-visible proof, via the metrics endpoint: one compile,
    // one reuse, and elaboration hits > 0 after the second request.
    let metrics = client::get(addr, "/v1/metrics").expect("metrics").body;
    assert_eq!(field(&metrics, &["session_pool", "size"]), 1.0, "{metrics}");
    assert_eq!(
        field(&metrics, &["session_pool", "compiles"]),
        1.0,
        "{metrics}"
    );
    assert_eq!(
        field(&metrics, &["session_pool", "reuses"]),
        1.0,
        "{metrics}"
    );
    assert_eq!(field(&metrics, &["elab", "misses"]), 1.0, "{metrics}");
    assert!(
        field(&metrics, &["elab", "hits"]) > 0.0,
        "second estimate must be an elaboration-cache hit: {metrics}"
    );
    // Request accounting: two estimates, zero errors.
    assert_eq!(field(&metrics, &["endpoints", "estimate", "requests"]), 2.0);
    assert_eq!(field(&metrics, &["endpoints", "estimate", "errors"]), 0.0);
    assert_eq!(
        field(
            &metrics,
            &["endpoints", "estimate", "latency", "observations"]
        ),
        2.0
    );
    server.shutdown();
}

#[test]
fn check_estimate_sweep_agree_with_the_library() {
    let server = start();
    let addr = server.addr();

    // check: the bundled sample model conforms.
    let check = client::post(
        addr,
        "/v1/check",
        &Json::object([("model_name", Json::from("sample"))]),
    )
    .unwrap();
    assert_eq!(check.status, 200, "{}", check.body);
    assert_eq!(check.body.get("ok").unwrap().as_bool(), Some(true));

    // estimate over the wire == Session::evaluate in process.
    let est = client::post(addr, "/v1/estimate", &estimate_body("sample", 2)).unwrap();
    let expected = prophet::core::Session::new(prophet::serve::api::demo_model("sample").unwrap())
        .unwrap()
        .evaluate(
            &prophet::core::Scenario::new(prophet::machine::SystemParams::flat_mpi(2, 1))
                .without_trace(),
        )
        .unwrap()
        .predicted_time;
    assert_eq!(
        field(&est.body, &["predicted_time"]).to_bits(),
        expected.to_bits()
    );

    // sweep: table shape and speedup normalization.
    let sweep = client::post(
        addr,
        "/v1/sweep",
        &Json::object([
            ("model_name", Json::from("jacobi")),
            ("nodes", Json::from(vec![1usize, 2, 4])),
            ("backend", Json::from("analytic")),
        ]),
    )
    .unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let points = sweep.body.get("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 3);
    assert_eq!(field(&points[0], &["speedup"]), 1.0);
    assert_eq!(field(&sweep.body, &["failures"]), 0.0);

    // Bad requests are typed errors, not dropped connections.
    let bad = client::post(
        addr,
        "/v1/estimate",
        &Json::object([("nodes", Json::from(2usize))]),
    )
    .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.get("error").is_some());
    let missing = client::get(addr, "/v1/nope").unwrap();
    assert_eq!(missing.status, 404);
    server.shutdown();
}

#[test]
fn concurrent_load_compiles_each_model_once() {
    let server = start();
    let addr = server.addr();
    // 3 models × 4 threads × 2 requests each, all at once.
    std::thread::scope(|scope| {
        for model in ["sample", "jacobi", "pipeline"] {
            for _ in 0..4 {
                scope.spawn(move || {
                    for nodes in [1usize, 2] {
                        let r = client::post(addr, "/v1/estimate", &estimate_body(model, nodes))
                            .expect("estimate under load");
                        assert_eq!(r.status, 200, "{}", r.body);
                    }
                });
            }
        }
    });
    let metrics = client::get(addr, "/v1/metrics").unwrap().body;
    assert_eq!(
        field(&metrics, &["session_pool", "compiles"]),
        3.0,
        "one compile per distinct model under concurrency: {metrics}"
    );
    assert_eq!(
        field(&metrics, &["session_pool", "reuses"]),
        21.0,
        "{metrics}"
    );
    assert_eq!(
        field(&metrics, &["endpoints", "estimate", "requests"]),
        24.0
    );
    server.shutdown();
}

/// Spawn the real `prophet serve` binary on an ephemeral port and drive
/// it over the socket: the CI smoke path.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_serve(extra: &[&str]) -> ServeProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    // "prophet-serve listening on http://127.0.0.1:PORT"
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable listen line: {line:?}"));
    ServeProcess {
        child,
        addr,
        stdout,
    }
}

#[test]
fn serve_binary_serves_and_drains_gracefully() {
    let mut proc = spawn_serve(&["--workers", "2"]);
    let addr = proc.addr;

    let body = estimate_body("sample", 2);
    let first = client::post(addr, "/v1/estimate", &body).expect("estimate against the binary");
    assert_eq!(first.status, 200, "{}", first.body);
    let second = client::post(addr, "/v1/estimate", &body).unwrap();
    assert_eq!(
        second
            .body
            .get("session")
            .unwrap()
            .get("reused")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    let metrics = client::get(addr, "/v1/metrics").unwrap().body;
    assert_eq!(
        field(&metrics, &["session_pool", "compiles"]),
        1.0,
        "{metrics}"
    );
    assert!(field(&metrics, &["elab", "hits"]) > 0.0, "{metrics}");

    // Graceful shutdown over the wire: the process drains and exits 0.
    let ack = client::post(addr, "/v1/shutdown", &Json::object::<&str>([])).unwrap();
    assert_eq!(ack.status, 200);
    let status = proc.child.wait().expect("binary exits");
    assert!(status.success(), "{status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut proc.stdout, &mut rest).unwrap();
    assert!(rest.contains("drained"), "missing drain message: {rest:?}");
}

/// Ask the running server to shut down and wait for a clean exit.
fn drain(mut proc: ServeProcess) {
    let ack = client::post(proc.addr, "/v1/shutdown", &Json::object::<&str>([])).unwrap();
    assert_eq!(ack.status, 200);
    assert!(proc.child.wait().expect("binary exits").success());
}

/// The PR acceptance criterion: restarting `prophet serve --store DIR`
/// after a prior run serves its first estimate without recompiling —
/// `/v1/metrics` reports a store disk hit and **zero** compiles, driven
/// against the spawned binary twice over the same store directory.
#[test]
fn serve_restart_warm_starts_from_the_store() {
    let dir = std::env::temp_dir().join(format!("prophet-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_flag = dir.to_str().unwrap();
    let body = estimate_body("sample", 2);

    // Run 1: cold store — the estimate compiles and writes back.
    let predicted_cold;
    {
        let proc = spawn_serve(&["--workers", "2", "--store", store_flag]);
        let first = client::post(proc.addr, "/v1/estimate", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        predicted_cold = field(&first.body, &["predicted_time"]);
        let metrics = client::get(proc.addr, "/v1/metrics").unwrap().body;
        assert_eq!(
            field(&metrics, &["session_pool", "compiles"]),
            1.0,
            "{metrics}"
        );
        assert_eq!(field(&metrics, &["store", "disk_misses"]), 1.0, "{metrics}");
        assert_eq!(field(&metrics, &["store", "writes"]), 1.0, "{metrics}");
        drain(proc);
    }

    // Run 2: the same store directory — the pool warm-starts at boot,
    // so the *first* estimate is already a pool reuse: a store disk
    // hit, zero compile events anywhere, bit-identical prediction.
    {
        let proc = spawn_serve(&["--workers", "2", "--store", store_flag]);
        let first = client::post(proc.addr, "/v1/estimate", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(
            first
                .body
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(true),
            "warm-started session must be reused by the first request: {}",
            first.body
        );
        assert_eq!(
            field(&first.body, &["predicted_time"]).to_bits(),
            predicted_cold.to_bits(),
            "the loaded artifact must predict bit-identically"
        );
        let metrics = client::get(proc.addr, "/v1/metrics").unwrap().body;
        assert_eq!(
            field(&metrics, &["session_pool", "compiles"]),
            0.0,
            "restart must not recompile: {metrics}"
        );
        assert!(
            field(&metrics, &["store", "disk_hits"]) >= 1.0,
            "restart must hit the store: {metrics}"
        );
        drain(proc);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `prophet warm` → `prophet serve --store`: the CI warm-start smoke.
/// A store populated offline serves its first estimate as a pool reuse
/// with zero pool compiles: the boot loaded it from disk.
#[test]
fn warm_then_serve_boots_hot() {
    let dir = std::env::temp_dir().join(format!("prophet-warm-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_flag = dir.to_str().unwrap().to_string();

    // Emit a model file and warm it into the store.
    let model_path =
        std::env::temp_dir().join(format!("prophet-warm-model-{}.xml", std::process::id()));
    let demo = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["demo", "jacobi"])
        .output()
        .unwrap();
    assert!(demo.status.success());
    std::fs::write(&model_path, &demo.stdout).unwrap();
    let warm = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["warm", "--store", &store_flag])
        .arg(&model_path)
        .output()
        .unwrap();
    assert!(warm.status.success(), "{warm:?}");
    let out = String::from_utf8_lossy(&warm.stdout);
    assert!(out.contains("warmed `jacobi`"), "{out}");

    let proc = spawn_serve(&["--workers", "2", "--store", &store_flag]);
    let first = client::post(proc.addr, "/v1/estimate", &estimate_body("jacobi", 4)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(
        first
            .body
            .get("session")
            .unwrap()
            .get("reused")
            .unwrap()
            .as_bool(),
        Some(true),
        "{}",
        first.body
    );
    let metrics = client::get(proc.addr, "/v1/metrics").unwrap().body;
    assert_eq!(
        field(&metrics, &["session_pool", "compiles"]),
        0.0,
        "{metrics}"
    );
    assert!(field(&metrics, &["store", "disk_hits"]) >= 1.0, "{metrics}");
    drain(proc);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&model_path);
}

#[test]
fn metrics_has_no_store_section_without_a_store() {
    let server = start();
    let metrics = client::get(server.addr(), "/v1/metrics").unwrap().body;
    assert!(
        metrics.get("store").is_none(),
        "store counters must only exist under --store: {metrics}"
    );
    server.shutdown();
}

#[test]
fn serve_binary_rejects_bad_flags_as_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["serve", "--workers", "lots"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`lots`"),
        "must name the offending token: {err}"
    );
    assert!(err.contains("usage:"), "{err}");

    // `--addr` with its value forgotten must not silently fall back to
    // the default address — with or without another flag following.
    for args in [
        &["serve", "--addr"][..],
        &["serve", "--addr", "--workers", "4"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("missing value after `--addr`"),
            "{args:?}: {err}"
        );
    }

    // An unbindable address is a runtime failure, not a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["serve", "--addr", "256.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot bind"),
        "{out:?}"
    );
}

/// Keep-alive against the real binary: many requests ride one TCP
/// connection (the transport the router pools toward its shards).
#[test]
fn binary_serves_many_requests_per_connection() {
    let proc = spawn_serve(&["--workers", "1"]);
    let mut conn = client::Connection::connect(proc.addr).expect("connect");
    for _ in 0..5 {
        let r = conn.get("/v1/models").expect("keep-alive request");
        assert_eq!(r.status, 200);
    }
    assert_eq!(
        conn.reconnects(),
        0,
        "five requests must reuse one connection"
    );
    drain(proc);
}

/// The `PROPHET_TOKEN` environment variable guards shutdown exactly
/// like `--token`: 401 without the bearer header, drain with it.
#[test]
fn binary_token_env_guards_shutdown() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .env("PROPHET_TOKEN", "env-s3cret")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr: SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable listen line: {line:?}"));

    let bare = client::post(addr, "/v1/shutdown", &Json::object::<&str>([])).unwrap();
    assert_eq!(bare.status, 401, "{}", bare.body);
    // The service endpoints stay open without the token.
    assert_eq!(client::get(addr, "/v1/models").unwrap().status, 200);
    let ack = client::Connection::connect(addr)
        .unwrap()
        .send(
            "POST",
            "/v1/shutdown",
            Some("{}"),
            &[("authorization", "Bearer env-s3cret")],
        )
        .unwrap();
    assert_eq!(ack.status, 200, "{}", ack.body);
    assert!(child.wait().expect("binary exits").success());
}

/// Read one length-framed response off a pipelined connection.
fn read_framed_response(reader: &mut BufReader<std::net::TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; length];
    std::io::Read::read_exact(reader, &mut body).expect("framed body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

/// HTTP/1.1 pipelining: two complete requests in a single write must
/// come back as two in-order responses on the same connection — the
/// keep-alive loop's buffered reader may not drop bytes that arrive
/// behind the request it is parsing.
#[test]
fn pipelined_requests_in_one_write_both_answered() {
    let server = start();
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(
        b"GET /v1/models HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /v1/metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(s);
    let (status, body) = read_framed_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("models"), "{body}");
    let (status, body) = read_framed_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("requests"), "metrics body: {body}");
}

/// Request-smuggling frames bounce with 400 over a real socket: any
/// `Transfer-Encoding`, conflicting duplicate `Content-Length`, and
/// non-digit lengths. The connection closes after the 400, so the
/// ambiguous bytes are discarded, never parsed as a next request.
#[test]
fn smuggling_frames_bounce_on_the_direct_path() {
    let server = start();
    let addr = server.addr();
    let frames: [&[u8]; 3] = [
        b"POST /v1/check HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
        b"POST /v1/check HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n{}",
        b"POST /v1/check HTTP/1.1\r\nhost: t\r\ncontent-length: +2\r\n\r\n{}",
    ];
    for frame in frames {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(frame).unwrap();
        let mut resp = String::new();
        std::io::Read::read_to_string(&mut s, &mut resp).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "frame {:?} got {resp}",
            String::from_utf8_lossy(frame)
        );
        assert!(
            resp.contains("connection: close"),
            "ambiguous framing must close the connection: {resp}"
        );
    }
    // The server keeps serving afterwards.
    assert_eq!(client::get(addr, "/v1/models").unwrap().status, 200);
}

/// Raw-socket client hygiene: a malformed request gets a 400 and the
/// server keeps serving on the same port.
#[test]
fn malformed_requests_do_not_wedge_the_binary() {
    let mut proc = spawn_serve(&["--workers", "1"]);
    let addr = proc.addr;
    {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 5\r\n\r\n{oops")
            .unwrap();
        let mut resp = String::new();
        std::io::Read::read_to_string(&mut s, &mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }
    let ok = client::get(addr, "/v1/models").unwrap();
    assert_eq!(ok.status, 200);
    client::post(addr, "/v1/shutdown", &Json::object::<&str>([])).unwrap();
    assert!(proc.child.wait().unwrap().success());
}
