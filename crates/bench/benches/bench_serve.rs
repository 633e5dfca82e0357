//! Load generator for the prediction service: N client threads hammer
//! `POST /v1/estimate` and `POST /v1/sweep` over real loopback sockets
//! — each thread on one persistent keep-alive [`Connection`], so the
//! bench measures request throughput, not TCP connect throughput —
//! then the metrics endpoint is used to *prove* the serve-path
//! contracts: the model compiled exactly once into the session pool,
//! repeat evaluations were elaboration-cache hits, and keep-alive held
//! (zero reconnects under sustained load).
//!
//! The CI smoke run of this bench (tiny `PROPHET_BENCH_BUDGET_MS`) is
//! therefore a wire-level guard on session-pool reuse, not just a
//! timing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use prophet_serve::client::{self, Connection};
use prophet_serve::json::Json;
use prophet_serve::server::{serve, ServerConfig};
use std::net::SocketAddr;

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 8;

fn estimate_body(nodes: usize) -> Json {
    Json::object([
        ("model_name", Json::from("jacobi")),
        ("nodes", Json::from(nodes)),
        ("backend", Json::from("analytic")),
    ])
}

fn sweep_body() -> Json {
    Json::object([
        ("model_name", Json::from("jacobi")),
        ("nodes", Json::from(vec![1usize, 2, 4, 8])),
        ("backend", Json::from("analytic")),
        ("workers", Json::from(2usize)),
    ])
}

/// Fire `CLIENT_THREADS × REQUESTS_PER_THREAD` requests at `addr`, all
/// concurrently, each thread over one keep-alive connection, panicking
/// on any non-200 — and on any mid-burst reconnect, which would mean
/// the server dropped a pooled connection.
fn hammer(addr: SocketAddr, body: &Json, path: &str) {
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            scope.spawn(|| {
                let mut conn = Connection::new(addr);
                for _ in 0..REQUESTS_PER_THREAD {
                    let r = conn.post(path, body).expect("request");
                    assert_eq!(r.status, 200, "{}", r.body);
                }
                assert_eq!(conn.reconnects(), 0, "keep-alive must hold for a burst");
            });
        }
    });
}

/// [`hammer`] for a GET endpoint.
fn hammer_get(addr: SocketAddr, path: &str) {
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            scope.spawn(|| {
                let mut conn = Connection::new(addr);
                for _ in 0..REQUESTS_PER_THREAD {
                    assert_eq!(conn.get(path).expect("request").status, 200);
                }
                assert_eq!(conn.reconnects(), 0, "keep-alive must hold for a burst");
            });
        }
    });
}

fn metric(metrics: &Json, path: &[&str]) -> f64 {
    let mut cur = metrics;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    cur.as_f64().expect("numeric metric")
}

fn bench_serve(c: &mut Criterion) {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENT_THREADS,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Guard the serve contracts before timing anything: a concurrent
    // burst of estimates for one model must compile one session, and
    // every evaluation after the first per SP point must be served by
    // the shared elaboration cache (4 distinct nodes values => 4
    // misses, all other evaluations hits).
    {
        std::thread::scope(|scope| {
            for t in 0..CLIENT_THREADS {
                scope.spawn(move || {
                    let mut conn = Connection::new(addr);
                    for i in 0..REQUESTS_PER_THREAD {
                        let nodes = 1usize << ((t + i) % 4); // 1,2,4,8
                        let r = conn
                            .post("/v1/estimate", &estimate_body(nodes))
                            .expect("estimate");
                        assert_eq!(r.status, 200, "{}", r.body);
                    }
                    assert_eq!(conn.reconnects(), 0, "keep-alive must hold");
                });
            }
        });
        let total = (CLIENT_THREADS * REQUESTS_PER_THREAD) as f64;
        let metrics = client::get(addr, "/v1/metrics").expect("metrics").body;
        assert_eq!(
            metric(&metrics, &["session_pool", "compiles"]),
            1.0,
            "one model hammered from {CLIENT_THREADS} threads must compile once: {metrics}"
        );
        assert_eq!(
            metric(&metrics, &["session_pool", "reuses"]),
            total - 1.0,
            "{metrics}"
        );
        assert_eq!(metric(&metrics, &["elab", "misses"]), 4.0, "{metrics}");
        assert_eq!(
            metric(&metrics, &["elab", "hits"]),
            total - 4.0,
            "every repeat SP point must be an elaboration-cache hit: {metrics}"
        );
    }

    let requests = (CLIENT_THREADS * REQUESTS_PER_THREAD) as u64;
    let mut group = c.benchmark_group("serve/loopback");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests));
    group.bench_function("estimate_x32", |b| {
        b.iter(|| hammer(addr, &estimate_body(8), "/v1/estimate"))
    });
    group.bench_function("sweep4_x32", |b| {
        b.iter(|| hammer(addr, &sweep_body(), "/v1/sweep"))
    });
    group.bench_function("metrics_x32", |b| {
        b.iter(|| hammer_get(addr, "/v1/metrics"))
    });
    group.finish();

    // However much the timed sections hammered, the pool never compiled
    // a second session for the same model.
    let metrics = client::get(addr, "/v1/metrics").expect("metrics").body;
    assert_eq!(
        metric(&metrics, &["session_pool", "compiles"]),
        1.0,
        "session-pool reuse must survive sustained load: {metrics}"
    );
    server.shutdown();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
