//! Load generator for the scale-out front door: a two-shard fleet
//! behind an in-process `prophet-router`, hammered from concurrent
//! keep-alive clients. Before timing anything it *proves* the routing
//! contracts over real loopback sockets — every bundled model compiles
//! exactly once fleet-wide (digest pinning), both shards stay healthy,
//! and routed answers match direct-to-shard answers — so the CI smoke
//! run (tiny `PROPHET_BENCH_BUDGET_MS`) is a wire-level guard on
//! digest routing, not just a timing.
//!
//! The timed sections compare routed vs direct throughput (the
//! router's forwarding overhead) and the aggregated-metrics fan-out.
//! Between them, bursts keep answering 200 while a third shard joins
//! and leaves through `POST /v1/shards` mid-burst.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use prophet_router::{start, RouterConfig};
use prophet_serve::client::{self, Connection};
use prophet_serve::json::Json;
use prophet_serve::server::{serve, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 8;

/// Six of the bundled demo workloads — the digest-pinning guard
/// spreads them across the fleet.
const MODELS: [&str; 6] = [
    "sample",
    "kernel6",
    "jacobi",
    "lapw0",
    "pipeline",
    "master_worker",
];

fn estimate_body(model: &str, nodes: usize) -> Json {
    Json::object([
        ("model_name", Json::from(model)),
        ("nodes", Json::from(nodes)),
        ("backend", Json::from("analytic")),
    ])
}

/// Fire `CLIENT_THREADS × REQUESTS_PER_THREAD` estimates at `addr`,
/// each thread over one keep-alive connection, rotating through the
/// bundled models; panics on any non-200.
fn hammer_estimates(addr: SocketAddr) {
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            scope.spawn(move || {
                let mut conn = Connection::new(addr);
                for i in 0..REQUESTS_PER_THREAD {
                    let model = MODELS[(t + i) % MODELS.len()];
                    let r = conn
                        .post("/v1/estimate", &estimate_body(model, 8))
                        .expect("estimate");
                    assert_eq!(r.status, 200, "{model}: {}", r.body);
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

// Each serve worker owns one connection at a time, and the router keeps
// a keep-alive connection per router worker per shard — plus health
// probes and the handoff's warm/evict dials during a live reshape. Size
// each shard's worker pool above that sum, or the handoff connections
// starve behind pooled keep-alives and every reconfigure stalls on the
// idle timeout instead of measuring real rebalance overhead.
const SHARD_WORKERS: usize = 2 * CLIENT_THREADS;

fn bench_router(c: &mut Criterion) {
    let shard_a = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SHARD_WORKERS,
        ..Default::default()
    })
    .expect("bind shard a");
    let shard_b = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SHARD_WORKERS,
        ..Default::default()
    })
    .expect("bind shard b");
    let router = start(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENT_THREADS,
        shards: vec![shard_a.addr(), shard_b.addr()],
        probe_interval: Duration::from_millis(100),
        ..Default::default()
    })
    .expect("bind router");
    let addr = router.addr();

    // Guard the routing contracts before timing anything: hammering
    // every bundled model from concurrent threads through the router
    // must compile each model exactly once *fleet-wide* (digest
    // pinning — a round-robin balancer would compile up to one per
    // shard), with every repeat a session reuse, and both shards
    // answering their metrics fan-out.
    {
        hammer_estimates(addr);
        let metrics = client::get(addr, "/v1/metrics").expect("metrics").body;
        let total = (CLIENT_THREADS * REQUESTS_PER_THREAD) as f64;
        assert_eq!(
            metric(&metrics, &["fleet", "session_compiles"]),
            MODELS.len() as f64,
            "each model must compile exactly once fleet-wide: {metrics}"
        );
        assert_eq!(
            metric(&metrics, &["fleet", "session_reuses"]),
            total - MODELS.len() as f64,
            "{metrics}"
        );
        assert_eq!(metric(&metrics, &["router", "routing", "shards"]), 2.0);
        assert_eq!(
            metric(&metrics, &["router", "routing", "healthy"]),
            2.0,
            "both shards must be healthy under load: {metrics}"
        );
        assert!(
            metric(&metrics, &["router", "routing", "forwards"]) >= total,
            "{metrics}"
        );
    }

    // Routed-only timed sections first, so digest pinning can still be
    // asserted strictly afterwards (direct-to-shard traffic below
    // compiles models on whichever shard it hits).
    let requests = (CLIENT_THREADS * REQUESTS_PER_THREAD) as u64;
    let mut group = c.benchmark_group("router/loopback");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests));
    group.bench_function("routed_estimate_x32", |b| b.iter(|| hammer_estimates(addr)));
    group.bench_function("aggregated_metrics", |b| {
        b.iter(|| {
            let r = client::get(addr, "/v1/metrics").expect("metrics");
            assert_eq!(r.status, 200);
        })
    });
    group.bench_function("shards_view", |b| {
        b.iter(|| {
            let r = client::get(addr, "/v1/shards").expect("shards");
            assert_eq!(r.status, 200);
        })
    });
    group.finish();

    // However hard the fleet was hammered through the router, digest
    // pinning held: still exactly one compile per model across both
    // shards.
    let metrics = client::get(addr, "/v1/metrics").expect("metrics").body;
    assert_eq!(
        metric(&metrics, &["fleet", "session_compiles"]),
        MODELS.len() as f64,
        "digest pinning must survive sustained load: {metrics}"
    );

    // Live reshaping: each round fires one membership mutation (a third
    // shard alternately joining and leaving through POST /v1/shards)
    // *while* a client burst runs through the epoch swap and the
    // warm-before/evict-after handoff. (Runs after the strict pinning
    // assert above: handoff primes are legitimate extra compiles.)
    let shard_c = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SHARD_WORKERS,
        ..Default::default()
    })
    .expect("bind shard c");
    let joiner = shard_c.addr().to_string();
    for round in 0..8 {
        let verb = if round % 2 == 0 { "add" } else { "remove" };
        std::thread::scope(|scope| {
            let joiner = &joiner;
            scope.spawn(move || {
                let body = Json::object([(verb, Json::Array(vec![Json::from(joiner.clone())]))]);
                let r = client::post(addr, "/v1/shards", &body).expect("reconfigure");
                assert_eq!(r.status, 200, "live {verb}: {}", r.body);
            });
            hammer_estimates(addr);
        });
    }
    // An even number of alternating add/remove rounds settles the fleet
    // back on the two founding shards, with every mid-swap request
    // answered 200 (hammer_estimates asserts).
    let shards_view = client::get(addr, "/v1/shards").expect("shards").body;
    assert_eq!(
        metric(&shards_view, &["routing", "shards"]),
        2.0,
        "{shards_view}"
    );

    // Finally the same burst straight at one shard: the difference to
    // the routed number is the forwarding overhead. (This compiles the
    // models shard_a did not own, so it runs after the pinning checks.)
    let mut group = c.benchmark_group("router/loopback");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests));
    group.bench_function("direct_estimate_x32", |b| {
        b.iter(|| hammer_estimates(shard_a.addr()))
    });
    group.finish();

    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
    shard_c.shutdown();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
