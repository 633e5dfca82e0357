//! # prophet-router
//!
//! Digest-routed **scale-out** for the prediction service: one HTTP
//! front door that spreads `(model, MCF)` content keys across N
//! `prophet serve` shards, so the fleet's compile-once behavior scales
//! horizontally without any shard coordinating with another.
//!
//! ```text
//!             clients
//!                │
//!         prophet router          (this crate)
//!      resolve model/MCF → ArtifactKey → ring
//!        ╱        │        ╲
//!   shard A    shard B    shard C     (prophet serve)
//!      ╲          │        ╱
//!        shared --store DIR           (optional warm-start)
//! ```
//!
//! * [`ring`] — the consistent-hash ring: stable shard placement by
//!   address label, with a deterministic failover order,
//! * [`shard`] — per-shard keep-alive connection pools,
//! * [`health`] — mark-down on failure, probed recovery with backoff,
//! * [`api`] — the [`RouterState`] handler: digest forwarding,
//!   retry-on-next-shard, aggregated `/v1/metrics`, fleet shutdown.
//!
//! The router serves on the exact server core the shards use
//! ([`prophet_serve::serve_with`]): same accept loop, worker pool,
//! keep-alive handling and graceful drain — it is "just" a different
//! [`Handler`](prophet_serve::Handler).
//!
//! **Why routing by content digest matters:** each shard pools compiled
//! sessions by the `(model, MCF)` digest pair. A round-robin balancer
//! would compile every model on every shard (N× the compile work, N×
//! the memory); the digest ring sends every repeat of a model to the
//! shard that already holds it, so the fleet as a whole still compiles
//! each model once. With a shared `--store` directory, even that one
//! compile is amortized across restarts *and replacements*: a cold
//! shard warm-starts from its siblings' write-backs.

#![forbid(unsafe_code)]

pub mod api;
pub mod health;
pub mod ring;
pub mod shard;

pub use api::RouterState;
pub use ring::{route_key, Ring};

use prophet_serve::{serve_with, ServerConfig, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default interval between health-probe sweeps.
pub const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` selects the available parallelism.
    pub workers: usize,
    /// The backend shard addresses. Order does not matter (the ring
    /// hashes addresses, not positions), but every router in front of
    /// the same fleet must list the same addresses.
    pub shards: Vec<SocketAddr>,
    /// Operator bearer token: guards the router's `POST /v1/shutdown`
    /// and is forwarded to the shards on the broadcast.
    pub token: Option<String>,
    /// Interval between health-probe sweeps over the fleet.
    pub probe_interval: Duration,
    /// Socket timeout for both client connections and shard forwards.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".to_string(),
            workers: 0,
            shards: Vec::new(),
            token: None,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            io_timeout: prophet_serve::server::DEFAULT_IO_TIMEOUT,
        }
    }
}

/// Bind and start the router: the shared server core over a
/// [`RouterState`], plus the background health prober (which stops
/// with the server's shutdown signal).
///
/// # Errors
/// Rejects an empty shard list; propagates the bind failure.
pub fn start(config: &RouterConfig) -> io::Result<ServerHandle<RouterState>> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one --shards address",
        ));
    }
    let state = Arc::new(RouterState::new(
        config.shards.clone(),
        config.token.clone(),
        config.probe_interval,
        config.io_timeout,
    ));
    let handle = serve_with(
        &ServerConfig {
            addr: config.addr.clone(),
            workers: config.workers,
            io_timeout: config.io_timeout,
            store: None,
            token: None, // the router's handler enforces its own token
            partition: None,
        },
        Arc::clone(&state),
    )?;
    let shutdown = handle.shutdown_signal();
    std::thread::spawn(move || prober_loop(&state, &shutdown));
    Ok(handle)
}

/// Poll slice while waiting out a probe interval, so the prober notices
/// shutdown promptly (mirrors the server core's idle polling).
const PROBE_POLL: Duration = Duration::from_millis(25);

/// The health prober: sweep the fleet every probe interval — healthy
/// shards every sweep, down shards on their backoff — until the server
/// drains.
fn prober_loop(state: &RouterState, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        let next_sweep = Instant::now() + state.probe_interval();
        let now = Instant::now();
        for shard in state.view().shards() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            if !shard.health().probe_due(now) {
                continue;
            }
            if shard.probe() {
                shard.health().mark_up();
            } else {
                shard.health().mark_down(state.probe_interval());
            }
        }
        while Instant::now() < next_sweep {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(PROBE_POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_serve::client;
    use prophet_serve::json::Json;
    use prophet_serve::server;

    /// A running shard on an ephemeral port.
    fn shard() -> ServerHandle {
        server::serve(&server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        })
        .expect("bind shard")
    }

    /// A router over the given shards, probing fast for test speed.
    fn router(shards: Vec<SocketAddr>) -> ServerHandle<RouterState> {
        start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            shards,
            probe_interval: Duration::from_millis(50),
            ..Default::default()
        })
        .expect("bind router")
    }

    fn estimate_body(name: &str) -> Json {
        Json::object([
            ("model_name", Json::from(name)),
            ("nodes", Json::from(2usize)),
        ])
    }

    #[test]
    fn refuses_to_start_without_shards() {
        let err = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        })
        .expect_err("no shards must not bind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn repeats_of_a_model_pin_to_one_shard() {
        let (a, b) = (shard(), shard());
        let router = router(vec![a.addr(), b.addr()]);
        for round in 0..3 {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(
                r.body
                    .get("session")
                    .unwrap()
                    .get("reused")
                    .unwrap()
                    .as_bool(),
                Some(round > 0),
                "round {round}: repeats must land on the shard that compiled"
            );
        }
        // Exactly one shard compiled; the fleet total is one compile.
        let metrics = client::get(router.addr(), "/v1/metrics").unwrap().body;
        let fleet = metrics.get("fleet").unwrap();
        assert_eq!(
            fleet.get("session_compiles").unwrap().as_f64(),
            Some(1.0),
            "{metrics}"
        );
        assert_eq!(fleet.get("session_reuses").unwrap().as_f64(), Some(2.0));
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn optimize_routes_to_the_shard_that_compiled() {
        let (a, b) = (shard(), shard());
        let router = router(vec![a.addr(), b.addr()]);
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("jacobi")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        // An inverse query on the same model lands on the warm shard:
        // digest routing + the pool mean zero extra compiles.
        let body = Json::object([
            ("model_name", Json::from("jacobi")),
            (
                "nodes",
                Json::Array((1..=16usize).map(Json::from).collect()),
            ),
            (
                "cpus",
                Json::Array(vec![Json::from(1usize), Json::from(2usize)]),
            ),
        ]);
        let r = client::post(router.addr(), "/v1/optimize", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(
            r.body
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(true),
            "optimize must reuse the estimate's compiled session"
        );
        assert!(
            !r.body
                .get("frontier")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{}",
            r.body
        );
        let metrics = client::get(router.addr(), "/v1/metrics").unwrap().body;
        let fleet = metrics.get("fleet").unwrap();
        assert_eq!(fleet.get("session_compiles").unwrap().as_f64(), Some(1.0));
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    /// The router runs the same request parser as the shards
    /// (`serve_with` shares the serve core), so request-smuggling
    /// frames — `Transfer-Encoding`, conflicting `Content-Length`
    /// duplicates, `+`-prefixed lengths — bounce with 400 *at the
    /// router*, before anything is forwarded.
    #[test]
    fn smuggling_frames_bounce_on_the_routed_path() {
        use std::io::{Read, Write};
        let a = shard();
        let router = router(vec![a.addr()]);
        let frames: [&[u8]; 3] = [
            b"POST /v1/check HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
            b"POST /v1/check HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n{}",
            b"POST /v1/check HTTP/1.1\r\nhost: t\r\ncontent-length: +2\r\n\r\n{}",
        ];
        for frame in frames {
            let mut s = std::net::TcpStream::connect(router.addr()).unwrap();
            s.write_all(frame).unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(
                resp.starts_with("HTTP/1.1 400"),
                "frame {:?} got {resp}",
                String::from_utf8_lossy(frame)
            );
        }
        // The router keeps routing afterwards.
        assert_eq!(
            client::get(router.addr(), "/v1/models").unwrap().status,
            200
        );
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn killed_shard_fails_over_without_client_errors() {
        let (a, b) = (shard(), shard());
        let (addr_a, addr_b) = (a.addr(), b.addr());
        // Probe so rarely that failover must come from the request
        // path's retry, never from the prober winning the race.
        let router = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            shards: vec![addr_a, addr_b],
            probe_interval: Duration::from_secs(300),
            ..Default::default()
        })
        .expect("bind router");
        // Wait out the prober's initial sweep so it cannot run after
        // the kill below.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let shards = client::get(router.addr(), "/v1/shards").unwrap().body;
            let swept = shards
                .get("shards")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .all(|s| s.get("probes").unwrap().as_f64() >= Some(1.0));
            if swept {
                break;
            }
            assert!(Instant::now() < deadline, "initial sweep never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Find which shard owns "sample", then kill exactly that one.
        let owner = router.state().owner_of(prophet_core::ArtifactKey::of(
            &prophet_serve::api::demo_model("sample").unwrap(),
            &Default::default(),
        ));
        let (owned, other) = if owner == 0 { (a, b) } else { (b, a) };
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        owned.shutdown();
        // The very next request must still succeed: transport failure →
        // mark-down → retry on the ring successor.
        for _ in 0..3 {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
            assert_eq!(r.status, 200, "failover must hide the kill: {}", r.body);
        }
        let shards = client::get(router.addr(), "/v1/shards").unwrap().body;
        let routing = shards.get("routing").unwrap();
        assert!(
            routing.get("retries").unwrap().as_f64().unwrap() >= 1.0,
            "{shards}"
        );
        assert_eq!(routing.get("healthy").unwrap().as_f64(), Some(1.0));
        router.shutdown();
        other.shutdown();
    }

    #[test]
    fn all_shards_down_answers_502_and_recovery_is_probed() {
        let a = shard();
        let addr_a = a.addr();
        let router = router(vec![addr_a]);
        a.shutdown();
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 502, "{}", r.body);
        assert!(r.body.get("error").is_some());
        // Bring a shard back on the same address: the prober marks it
        // up within a few 50 ms sweeps, without any client traffic.
        let revived = server::serve(&server::ServerConfig {
            addr: addr_a.to_string(),
            workers: 1,
            ..Default::default()
        })
        .expect("rebind shard address");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let shards = client::get(router.addr(), "/v1/shards").unwrap().body;
            let healthy = shards.get("routing").unwrap().get("healthy").unwrap();
            if healthy.as_f64() == Some(1.0) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "prober never marked up: {shards}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        router.shutdown();
        revived.shutdown();
    }

    #[test]
    fn invalid_bodies_bounce_at_the_router() {
        let a = shard();
        let router = router(vec![a.addr()]);
        for (body, status) in [
            ("not json", 400),
            ("[]", 400),
            ("{}", 400),
            (r#"{"model_name":"nope"}"#, 404),
            (r#"{"model":"<model><broken"}"#, 422),
        ] {
            let raw = client::Connection::connect(router.addr())
                .unwrap()
                .send("POST", "/v1/estimate", Some(body), &[])
                .unwrap();
            assert_eq!(raw.status, status, "{body} -> {}", raw.body);
        }
        // None of those reached the shard: its estimate endpoint (which
        // health probes never touch) stayed at zero requests.
        let metrics = client::get(router.addr(), "/v1/metrics").unwrap().body;
        let estimate_hits = metrics.get("shards").unwrap().as_array().unwrap()[0]
            .get("metrics")
            .unwrap()
            .get("endpoints")
            .unwrap()
            .get("estimate")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_f64();
        assert_eq!(estimate_hits, Some(0.0), "{metrics}");
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn shutdown_broadcast_is_token_checked_and_drains_the_fleet() {
        let token = "fleet-s3cret";
        let a = server::serve(&server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            token: Some(token.to_string()),
            ..Default::default()
        })
        .expect("bind shard");
        let router = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            shards: vec![a.addr()],
            token: Some(token.to_string()),
            probe_interval: Duration::from_millis(50),
            ..Default::default()
        })
        .expect("bind router");
        let bare = client::post(router.addr(), "/v1/shutdown", &Json::object::<&str>([])).unwrap();
        assert_eq!(bare.status, 401, "{}", bare.body);
        let ok = client::Connection::connect(router.addr())
            .unwrap()
            .send(
                "POST",
                "/v1/shutdown",
                Some("{}"),
                &[("authorization", "Bearer fleet-s3cret")],
            )
            .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body);
        // The broadcast carried the token: the shard acknowledged.
        assert!(ok.body.contains("\"ok\":true"), "{}", ok.body);
        router.wait();
        a.wait(); // the shard drains too: the broadcast reached it
    }

    #[test]
    fn trace_ids_flow_through_to_the_owning_shard() {
        let a = shard();
        let router = router(vec![a.addr()]);
        let raw = client::Connection::connect(router.addr())
            .unwrap()
            .send(
                "POST",
                "/v1/estimate",
                Some(&estimate_body("sample").encode()),
                &[("x-prophet-trace", "t-router-1")],
            )
            .unwrap();
        assert_eq!(raw.status, 200, "{}", raw.body);
        assert_eq!(
            raw.trace.as_deref(),
            Some("t-router-1"),
            "the router must echo the client's trace ID"
        );
        // The shard saw the same trace: its journal carries the entry.
        let journal = client::get(a.addr(), "/v1/requests").unwrap().body;
        let rows = journal.get("requests").unwrap().as_array().unwrap();
        assert!(
            rows.iter()
                .any(|r| r.get("trace_id").unwrap().as_str() == Some("t-router-1")),
            "shard journal must hold the propagated trace: {journal}"
        );
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn fleet_prometheus_exposition_covers_every_shard() {
        let (a, b) = (shard(), shard());
        let router = router(vec![a.addr(), b.addr()]);
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let raw = client::Connection::connect(router.addr())
            .unwrap()
            .send("GET", "/v1/metrics?format=prometheus", None, &[])
            .unwrap();
        assert_eq!(raw.status, 200, "{}", raw.body);
        for addr in [a.addr(), b.addr()] {
            assert!(
                raw.body.contains(&format!(
                    "prophet_router_shard_healthy{{shard=\"{addr}\"}} 1"
                )),
                "{}",
                raw.body
            );
            assert!(
                raw.body.contains(&format!(
                    "prophet_requests_total{{shard=\"{addr}\",endpoint=\"estimate\"}}"
                )),
                "{}",
                raw.body
            );
        }
        assert!(
            raw.body
                .contains("# TYPE prophet_request_duration_seconds histogram"),
            "{}",
            raw.body
        );
        assert!(
            raw.body
                .contains("prophet_router_requests_total{endpoint=\"estimate\"} 1"),
            "{}",
            raw.body
        );
        // Exactly one shard served the estimate; the fleet total is 1.
        let estimates: u64 = [a.addr(), b.addr()]
            .iter()
            .map(|&addr| {
                let line =
                    format!("prophet_requests_total{{shard=\"{addr}\",endpoint=\"estimate\"}} ");
                raw.body
                    .lines()
                    .find_map(|l| l.strip_prefix(line.as_str()))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(estimates, 1, "{}", raw.body);
        // Unknown formats bounce with the shard's wording.
        let bad = client::Connection::connect(router.addr())
            .unwrap()
            .send("GET", "/v1/metrics?format=xml", None, &[])
            .unwrap();
        assert_eq!(bad.status, 400, "{}", bad.body);
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn every_fleet_metric_is_an_exposed_series() {
        use prophet_serve::prometheus::{fleet_families, render, unsampled_leaves};
        // Shards with a store, so the `store` rows have sections too.
        let dir =
            std::env::temp_dir().join(format!("prophet-router-parity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(prophet_core::ArtifactStore::open(&dir).expect("temp store opens"));
        let stored_shard = || {
            server::serve(&server::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                store: Some(Arc::clone(&store)),
                ..Default::default()
            })
            .expect("bind shard")
        };
        let (a, b) = (stored_shard(), stored_shard());
        let router = router(vec![a.addr(), b.addr()]);
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        // Wait out the prober's first sweep, so probe ages are numbers.
        let deadline = Instant::now() + Duration::from_secs(10);
        let doc = loop {
            let doc = client::get(router.addr(), "/v1/metrics").unwrap().body;
            let swept = doc
                .get("shards")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .all(|shard| {
                    shard
                        .get("last_probe_ms_ago")
                        .and_then(Json::as_f64)
                        .is_some()
                });
            if swept {
                break doc;
            }
            assert!(Instant::now() < deadline, "prober never swept: {doc}");
            std::thread::sleep(Duration::from_millis(10));
        };

        let table = fleet_families();
        let unsampled: Vec<String> = unsampled_leaves(&doc, &table)
            .into_iter()
            .filter(|leaf| !leaf.starts_with("/fleet/"))
            .collect();
        assert!(
            unsampled.is_empty(),
            "JSON leaves with no series: {unsampled:?}"
        );
        let text = render(&doc, &table);
        for family in &table {
            assert!(
                text.contains(&format!("# TYPE {} ", family.name)),
                "`{}` rendered no series:\n{text}",
                family.name
            );
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn removed_shard_is_released_once_no_request_holds_it() {
        let (a, b) = (shard(), shard());
        let router = router(vec![a.addr(), b.addr()]);
        // Traffic on both, so each handle pools a live connection.
        for name in ["sample", "jacobi", "kernel6", "lapw0"] {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body(name)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let leaver = router
            .state()
            .view()
            .shards()
            .iter()
            .find(|shard| shard.addr() == b.addr())
            .map(Arc::downgrade)
            .expect("b is a member");

        let leave = Json::object([(
            "remove",
            Json::Array(vec![Json::from(b.addr().to_string())]),
        )]);
        let r = client::post(router.addr(), "/v1/shards", &leave).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        // Only a request in flight (or the prober mid-sweep) may still
        // hold the retired view; once they finish, the handle is gone.
        let deadline = Instant::now() + Duration::from_secs(10);
        while leaver.upgrade().is_some() {
            assert!(
                Instant::now() < deadline,
                "the removed shard was never released"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let r = client::post(router.addr(), "/v1/estimate", &estimate_body("sample")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shard_entries_report_probe_age_and_failure_streak() {
        let a = shard();
        let router = router(vec![a.addr()]);
        // Wait out the prober's first sweep so the age field is live.
        let deadline = Instant::now() + Duration::from_secs(10);
        let entry = loop {
            let shards = client::get(router.addr(), "/v1/shards").unwrap().body;
            let entry = shards.get("shards").unwrap().as_array().unwrap()[0].clone();
            if entry.get("probes").unwrap().as_f64() >= Some(1.0) {
                break entry;
            }
            assert!(Instant::now() < deadline, "prober never swept: {shards}");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(
            entry.get("last_probe_ms_ago").unwrap().as_f64().is_some(),
            "a probed shard reports its probe age: {entry}"
        );
        assert_eq!(
            entry.get("consecutive_failures").unwrap().as_f64(),
            Some(0.0),
            "{entry}"
        );
        router.shutdown();
        a.shutdown();
    }

    /// Every bundled model's name and content key.
    fn bundled_keys() -> Vec<(&'static str, prophet_core::ArtifactKey)> {
        prophet_serve::api::demo_models()
            .into_iter()
            .map(|(name, _)| {
                let body = Json::object([("model_name", Json::from(name))]);
                (name, prophet_serve::api::resolve_key(&body).unwrap())
            })
            .collect()
    }

    /// A fresh shard that the ring over `[a, it]` hands at least one of
    /// `keys`, with the bundled models it takes. Placement hangs on the
    /// ephemeral port; each model lands on the joiner with probability
    /// about 1/2, so the first candidate almost always qualifies.
    fn joiner_taking_some(
        a: &ServerHandle,
        keys: &[(&'static str, prophet_core::ArtifactKey)],
    ) -> (ServerHandle, Vec<(&'static str, prophet_core::ArtifactKey)>) {
        loop {
            let b = shard();
            let ring = Ring::new(&[a.addr().to_string(), b.addr().to_string()]);
            let moving: Vec<_> = keys
                .iter()
                .copied()
                .filter(|&(_, key)| ring.route(route_key(key)) == 1)
                .collect();
            if !moving.is_empty() {
                return (b, moving);
            }
            b.shutdown();
        }
    }

    /// Fleet-wide session compiles, as the router aggregates them.
    fn fleet_compiles(router: SocketAddr) -> f64 {
        client::get(router, "/v1/metrics")
            .unwrap()
            .body
            .get("fleet")
            .unwrap()
            .get("session_compiles")
            .unwrap()
            .as_f64()
            .unwrap()
    }

    #[test]
    fn join_then_leave_moves_keys_with_warm_handoff() {
        let a = shard();
        let router = router(vec![a.addr()]);
        let keys = bundled_keys();
        let names: Vec<&str> = keys.iter().map(|&(name, _)| name).collect();
        let (b, moving) = joiner_taking_some(&a, &keys);
        for &name in &names {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body(name)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        assert_eq!(fleet_compiles(router.addr()), names.len() as f64);

        // Join b: the handoff warms every moved key on b before the
        // swap, then evicts it from a after.
        let join = Json::object([("add", Json::Array(vec![Json::from(b.addr().to_string())]))]);
        let r = client::post(router.addr(), "/v1/shards", &join).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body.get("epoch").unwrap().as_f64(), Some(1.0));
        assert_eq!(r.body.get("shards").unwrap().as_f64(), Some(2.0));
        let moved = r.body.get("moved").unwrap().as_f64().unwrap();
        assert_eq!(
            moved,
            moving.len() as f64,
            "exactly the keys the post-join ring hands to the joiner move"
        );
        let state = router.state();
        for &(_, key) in &moving {
            assert_eq!(state.view().shards()[state.owner_of(key)].addr(), b.addr());
        }
        assert_eq!(r.body.get("primed").unwrap().as_f64(), Some(moved));
        assert_eq!(r.body.get("evicted").unwrap().as_f64(), Some(moved));

        // Every repeat is a pool reuse: moved keys were pre-warmed on
        // the joiner, unmoved keys stayed warm on a.
        for &name in &names {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body(name)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(
                r.body
                    .get("session")
                    .unwrap()
                    .get("reused")
                    .unwrap()
                    .as_bool(),
                Some(true),
                "{name} must be warm right after the join"
            );
        }
        // Without a shared store each prime is one compile on the
        // joiner — and nothing else compiled.
        assert_eq!(fleet_compiles(router.addr()), names.len() as f64 + moved);
        assert_eq!(state.recipe_count(), names.len(), "one recipe per key");

        // Leave a: everything it still owned moves to b, pre-warmed
        // again, so clients never see a cold (or failed) request.
        let leave = Json::object([(
            "remove",
            Json::Array(vec![Json::from(a.addr().to_string())]),
        )]);
        let r = client::post(router.addr(), "/v1/shards", &leave).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body.get("epoch").unwrap().as_f64(), Some(2.0));
        for &name in &names {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body(name)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(
                r.body
                    .get("session")
                    .unwrap()
                    .get("reused")
                    .unwrap()
                    .as_bool(),
                Some(true),
                "{name} must be warm right after the leave"
            );
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_request_holding_the_retired_view_finds_its_key_still_pooled() {
        let a = shard();
        let router = router(vec![a.addr()]);
        let keys = bundled_keys();
        let (b, moving) = joiner_taking_some(&a, &keys);
        for &(name, _) in &keys {
            let r = client::post(router.addr(), "/v1/estimate", &estimate_body(name)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let state = router.state();
        // A request that loaded the view just before the swap.
        let retired = state.view();
        let join = Json::object([("add", Json::Array(vec![Json::from(b.addr().to_string())]))]);
        let router_addr = router.addr();
        let reconfigure =
            std::thread::spawn(move || client::post(router_addr, "/v1/shards", &join));
        let deadline = Instant::now() + Duration::from_secs(10);
        while state.view().epoch == 0 {
            assert!(Instant::now() < deadline, "the join never swapped the view");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Long enough for an eviction that does not wait to land.
        std::thread::sleep(Duration::from_millis(200));
        for &(name, key) in &moving {
            let body = estimate_body(name).encode();
            let req = prophet_serve::http::Request {
                method: "POST".into(),
                path: "/v1/estimate".into(),
                query: String::new(),
                headers: Vec::new(),
                body,
                keep_alive: true,
                trace: format!("retired-{name}"),
            };
            let r = state.forward_on(&retired, key, &req);
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(
                r.body.contains(r#""reused":true"#),
                "{name} on the retired view must reach a warm old owner: {}",
                r.body
            );
        }
        drop(retired);
        let report = reconfigure.join().unwrap().unwrap().body;
        let moved = report.get("moved").unwrap().as_f64().unwrap();
        assert_eq!(moved, moving.len() as f64, "{report}");
        assert_eq!(report.get("evicted").unwrap().as_f64(), Some(moved));
        assert!(
            report.get("drain_ms").unwrap().as_f64().unwrap() >= 200.0,
            "the eviction waited for the retired view: {report}"
        );
        // One compile per model plus one prime per moved key: the
        // requests on the retired view compiled nothing.
        assert_eq!(fleet_compiles(router.addr()), keys.len() as f64 + moved);
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn repeated_keys_keep_one_recipe() {
        let a = shard();
        let router = router(vec![a.addr()]);
        let sample = prophet_serve::api::demo_model("sample").unwrap();
        let xml = prophet_core::Session::new(sample).unwrap().model_xml();
        let inline = Json::object([("model", Json::from(xml)), ("nodes", Json::from(2usize))]);
        for round in 0..8 {
            let body = if round % 2 == 0 {
                estimate_body("sample")
            } else {
                inline.clone()
            };
            let r = client::post(router.addr(), "/v1/estimate", &body).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        assert_eq!(router.state().recipe_count(), 1);
        assert_eq!(fleet_compiles(router.addr()), 1.0);
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn reconfigure_is_validated_and_token_guarded() {
        let token = "fleet-s3cret";
        let a = server::serve(&server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            token: Some(token.to_string()),
            ..Default::default()
        })
        .expect("bind shard");
        let router = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            shards: vec![a.addr()],
            token: Some(token.to_string()),
            probe_interval: Duration::from_millis(50),
            ..Default::default()
        })
        .expect("bind router");
        let a_label = a.addr().to_string();
        let join = Json::object([(
            "add",
            Json::Array(vec![Json::from("127.0.0.9:7099".to_string())]),
        )]);
        // No token: 401 before any validation.
        let bare = client::post(router.addr(), "/v1/shards", &join).unwrap();
        assert_eq!(bare.status, 401, "{}", bare.body);
        let send = |body: &Json| {
            client::Connection::connect(router.addr())
                .unwrap()
                .send(
                    "POST",
                    "/v1/shards",
                    Some(&body.encode()),
                    &[("authorization", "Bearer fleet-s3cret")],
                )
                .unwrap()
        };
        // 400: nothing to do, malformed address.
        assert_eq!(send(&Json::object::<&str>([])).status, 400);
        let bad = Json::object([("add", Json::Array(vec![Json::from("not-an-addr")]))]);
        assert_eq!(send(&bad).status, 400);
        // 409: duplicate join, double join, unknown leave, overlap,
        // emptied fleet.
        let dup = Json::object([("add", Json::Array(vec![Json::from(a_label.clone())]))]);
        assert_eq!(send(&dup).status, 409);
        let twice = Json::object([(
            "add",
            Json::Array(vec![
                Json::from("127.0.0.9:7099".to_string()),
                Json::from("127.0.0.9:7099".to_string()),
            ]),
        )]);
        assert_eq!(send(&twice).status, 409);
        let unknown = Json::object([(
            "remove",
            Json::Array(vec![Json::from("127.0.0.9:7099".to_string())]),
        )]);
        assert_eq!(send(&unknown).status, 409);
        let overlap = Json::object([
            (
                "add",
                Json::Array(vec![Json::from("127.0.0.9:7099".to_string())]),
            ),
            (
                "remove",
                Json::Array(vec![Json::from("127.0.0.9:7099".to_string())]),
            ),
        ]);
        assert_eq!(send(&overlap).status, 409);
        let empties = Json::object([("remove", Json::Array(vec![Json::from(a_label)]))]);
        assert_eq!(send(&empties).status, 409);
        // None of the rejects touched the fleet: still epoch 0, one
        // shard.
        let shards = client::get(router.addr(), "/v1/shards").unwrap().body;
        let routing = shards.get("routing").unwrap();
        assert_eq!(routing.get("epoch").unwrap().as_f64(), Some(0.0));
        assert_eq!(routing.get("shards").unwrap().as_f64(), Some(1.0));
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn models_and_unknown_routes_behave() {
        let a = shard();
        let router = router(vec![a.addr()]);
        let models = client::get(router.addr(), "/v1/models").unwrap();
        assert_eq!(models.status, 200);
        assert_eq!(
            models.body.get("models").unwrap().as_array().unwrap().len(),
            10
        );
        assert_eq!(client::get(router.addr(), "/nope").unwrap().status, 404);
        assert_eq!(
            client::get(router.addr(), "/v1/estimate").unwrap().status,
            405
        );
        router.shutdown();
        a.shutdown();
    }
}
