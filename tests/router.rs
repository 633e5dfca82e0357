//! Integration tests for the scale-out router: real `prophet serve`
//! shard binaries plus the real `prophet router` binary, all over
//! loopback sockets.
//!
//! The headline scenario is the PR acceptance criterion in one story:
//! digest-pinned traffic across a two-shard fleet (each model compiles
//! exactly once fleet-wide), a shard killed mid-traffic with **zero**
//! client-visible failures, aggregated metrics reflecting both shards,
//! and the killed shard's replacement warm-starting from the shared
//! artifact store — first estimate served with a disk hit and zero
//! compiles.

use prophet::check::McfConfig;
use prophet::core::ArtifactKey;
use prophet::router::{route_key, Ring};
use prophet::serve::client::{self, Connection};
use prophet::serve::json::Json;
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
    // Drain the rest of stdout in the background so the child never
    // blocks on a full pipe.
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

/// Six of the bundled demo models — enough distinct digests to spread
/// across the fleet while keeping the kill-phase traffic quick.
const MODELS: [&str; 6] = [
    "sample",
    "kernel6",
    "jacobi",
    "lapw0",
    "pipeline",
    "master_worker",
];

#[test]
fn fleet_pins_by_digest_survives_a_kill_and_warm_restarts() {
    let token = "fleet-secret";
    let dir = std::env::temp_dir().join(format!("prophet-router-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();

    // Two shards sharing one artifact store, one router in front.
    let serve_args = |addr: &str| {
        vec![
            "serve".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--workers".to_string(),
            "2".to_string(),
            "--store".to_string(),
            store.clone(),
            "--token".to_string(),
            token.to_string(),
        ]
    };
    let spawn_shard = |addr: &str| {
        let args = serve_args(addr);
        spawn(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };
    let shard_a = spawn_shard("127.0.0.1:0");
    let shard_b = spawn_shard("127.0.0.1:0");
    let shard_list = format!("{},{}", shard_a.addr, shard_b.addr);
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shard_list,
        "--token",
        token,
        "--probe-ms",
        "100",
    ]);

    // Phase 1 — digest pinning: every model twice through the router;
    // the *fleet* compiles each exactly once, repeats are session
    // reuses on whichever shard owns the digest.
    for model in MODELS {
        for round in 0..2 {
            let r = client::post(router.addr, "/v1/estimate", &estimate_body(model))
                .unwrap_or_else(|e| panic!("estimate {model}: {e}"));
            assert_eq!(r.status, 200, "{model}: {}", r.body);
            assert_eq!(
                r.body
                    .get("session")
                    .unwrap()
                    .get("reused")
                    .unwrap()
                    .as_bool(),
                Some(round > 0),
                "{model} round {round}: repeats must pin to the compiling shard"
            );
        }
    }
    let metrics = client::get(router.addr, "/v1/metrics").unwrap().body;
    assert_eq!(
        field(&metrics, &["fleet", "session_compiles"]),
        MODELS.len() as f64,
        "each model must compile exactly once fleet-wide: {metrics}"
    );
    assert_eq!(
        field(&metrics, &["fleet", "session_reuses"]),
        MODELS.len() as f64,
        "{metrics}"
    );
    // Aggregation reflects both shards: two entries, both healthy, each
    // carrying its own metrics document.
    let shard_sections = metrics.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shard_sections.len(), 2, "{metrics}");
    for section in shard_sections {
        assert_eq!(section.get("healthy").unwrap().as_bool(), Some(true));
        assert!(section.get("metrics").is_some(), "{metrics}");
    }
    assert_eq!(field(&metrics, &["router", "routing", "healthy"]), 2.0);

    // Phase 2 — kill the shard owning `sample` (computed with the same
    // ring the router uses) while traffic runs; no client may see it.
    let ring = Ring::new(&[shard_a.addr.to_string(), shard_b.addr.to_string()]);
    let sample_key = route_key(ArtifactKey::of(
        &prophet::serve::api::demo_model("sample").unwrap(),
        &McfConfig::default(),
    ));
    let (mut owner, survivor) = if ring.route(sample_key) == 0 {
        (shard_a, shard_b)
    } else {
        (shard_b, shard_a)
    };
    let router_addr = router.addr;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|worker| {
                scope.spawn(move || {
                    for i in 0..8 {
                        let model = MODELS[(worker + i) % MODELS.len()];
                        let r = client::post(router_addr, "/v1/estimate", &estimate_body(model))
                            .unwrap_or_else(|e| panic!("{model} during kill: {e}"));
                        assert_eq!(
                            r.status, 200,
                            "{model} during kill must fail over invisibly: {}",
                            r.body
                        );
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        owner.child.kill().expect("kill the owning shard");
        for worker in workers {
            worker.join().expect("no client-visible failure");
        }
    });
    // The fleet keeps answering the dead shard's models afterwards too
    // — and thanks to the shared store, the survivor picked them up
    // from the owner's write-backs (disk hits) instead of recompiling.
    let r = client::post(router_addr, "/v1/estimate", &estimate_body("sample")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let survivor_metrics = client::get(survivor.addr, "/v1/metrics").unwrap().body;
    assert!(
        field(&survivor_metrics, &["store", "disk_hits"]) >= 1.0,
        "failed-over models must load from the shared store: {survivor_metrics}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let shards = client::get(router_addr, "/v1/shards").unwrap().body;
        if field(&shards, &["routing", "healthy"]) == 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never marked the killed shard down: {shards}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Phase 3 — a replacement shard on the dead shard's address warm-
    // starts from the shared store: its first estimate is a pool reuse
    // backed by a disk hit, with zero compiles on the new process.
    let owner_addr = owner.addr;
    drop(owner); // reap the killed child before rebinding its port
    let revived = spawn_shard(&owner_addr.to_string());
    let first = client::post(revived.addr, "/v1/estimate", &estimate_body("sample")).unwrap();
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
        "replacement shard must serve from the warm-started pool: {}",
        first.body
    );
    let revived_metrics = client::get(revived.addr, "/v1/metrics").unwrap().body;
    assert_eq!(
        field(&revived_metrics, &["session_pool", "compiles"]),
        0.0,
        "replacement must not recompile anything: {revived_metrics}"
    );
    assert!(
        field(&revived_metrics, &["store", "disk_hits"]) >= 1.0,
        "replacement must boot from its siblings' write-backs: {revived_metrics}"
    );
    // The router's prober marks the revived address back up on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let shards = client::get(router_addr, "/v1/shards").unwrap().body;
        if field(&shards, &["routing", "healthy"]) == 2.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never marked the revived shard up: {shards}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let r = client::post(router_addr, "/v1/estimate", &estimate_body("sample")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    // Phase 4 — fleet shutdown is token-guarded end to end: a bare
    // request bounces with 401 at the router; the bearer token drains
    // router and shards alike (the router forwards the header).
    let bare = client::post(router_addr, "/v1/shutdown", &Json::object::<&str>([])).unwrap();
    assert_eq!(bare.status, 401, "{}", bare.body);
    let ack = Connection::connect(router_addr)
        .unwrap()
        .send(
            "POST",
            "/v1/shutdown",
            Some("{}"),
            &[("authorization", &format!("Bearer {token}"))],
        )
        .unwrap();
    assert_eq!(ack.status, 200, "{}", ack.body);
    let mut fleet = [router, revived, survivor];
    for proc in &mut fleet {
        let status = proc.child.wait().expect("process exits");
        assert!(status.success(), "graceful drain must exit 0: {status:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inline model XML for `main: start → <two composites> → end`; the
/// composites call `body` (or `main` itself, a nesting cycle).
fn nested_model_xml(name: &str, cyclic: bool) -> String {
    let mut b = prophet::uml::ModelBuilder::new(name);
    let main = b.main_diagram();
    let body = if cyclic {
        main
    } else {
        let body = b.diagram("Body");
        b.action(body, "Work", "0.5");
        body
    };
    let start = b.initial(main, "start");
    let first = b.call_activity(main, "First", body);
    let second = b.call_activity(main, "Second", body);
    let end = b.final_node(main, "end");
    b.flow(main, start, first);
    b.flow(main, first, second);
    b.flow(main, second, end);
    prophet::uml::xmi::model_to_xml(&b.build())
}

#[test]
fn nesting_cycles_get_the_checkers_422_and_shared_bodies_compile() {
    let shard = spawn(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let shards = shard.addr.to_string();
    let router = spawn(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--shards",
        &shards,
        "--probe-ms",
        "100",
    ]);
    let body = |xml: String| {
        Json::object([
            ("model", Json::from(xml)),
            ("nodes", Json::from(2usize)),
            ("backend", Json::from("analytic")),
        ])
    };
    for (port, addr) in [("shard", shard.addr), ("router", router.addr)] {
        // Keying a cyclic model used to recurse without end; now the
        // checker sees it and rejects it.
        let r = client::post(
            addr,
            "/v1/estimate",
            &body(nested_model_xml("cyclic", true)),
        )
        .unwrap_or_else(|e| panic!("{port}: {e}"));
        assert_eq!(r.status, 422, "{port}: {}", r.body);
        assert!(r.body.to_string().contains("PP014"), "{port}: {}", r.body);

        // A body called twice is one diagram in the XML: the model that
        // compiles is the one sent, and it runs the body twice.
        let r = client::post(
            addr,
            "/v1/estimate",
            &body(nested_model_xml("shared", false)),
        )
        .unwrap_or_else(|e| panic!("{port}: {e}"));
        assert_eq!(r.status, 200, "{port}: {}", r.body);
        assert_eq!(field(&r.body, &["predicted_time"]), 1.0, "{port}");
    }
}
