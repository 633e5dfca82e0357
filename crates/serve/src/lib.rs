//! # prophet-serve
//!
//! The prediction **service** layer: a long-running, concurrent HTTP
//! server over the compile-once engine, so "what if" questions cost a
//! request, not a process start.
//!
//! The paper's workflow is interactive by intent — check a UML
//! performance model once, then probe many machine configurations. The
//! library stack already makes the second half cheap
//! ([`Session`](prophet_core::Session) compiles once;
//! its [`ElaborationCache`](prophet_core::ElaborationCache) flattens
//! each SP point once); this crate keeps those artifacts **alive
//! between questions**:
//!
//! * [`pool`] — the [`SessionPool`]: sessions keyed
//!   by `(model digest, MCF digest)` content hashes, compiled on first
//!   request, shared by every connection and worker thread afterwards.
//!   **Why reuse is cheap:** a pooled hit skips parse → check →
//!   `to_program` entirely (no service path emits C++, so none runs
//!   `to_cpp`), and lands on the session's
//!   elaboration cache, so a repeated estimate pays one intern-table
//!   lookup plus the evaluation itself (see the elab-cache docs in
//!   `prophet_estimator::elab` for the keying and memory bounds).
//!   With a persistent artifact store attached
//!   (`prophet_core::store`, CLI `prophet serve --store DIR`), reuse
//!   survives restarts too: the pool warm-starts from disk at boot,
//!   consults the store on misses, and writes fresh compiles back,
//! * [`json`] — a std-only JSON encoder + hardened recursive-descent
//!   decoder (depth-limited, escape-complete), mirroring how
//!   `prophet-xml` stands in for an XML dependency,
//! * [`http`] — a bounded HTTP/1.1 subset over `std::net`,
//! * [`server`] — accept loop + fixed worker pool + graceful drain,
//! * [`api`] — the endpoints (`/v1/check`, `/v1/estimate`, `/v1/sweep`,
//!   `/v1/models`, `/v1/metrics`, `/v1/shutdown`),
//! * [`metrics`] — lock-free request counters and latency histograms,
//!   including the pool/elab counters that let a load test *prove* the
//!   compile-once contract over the wire,
//! * [`spans`] — per-request phase spans (parse, pool, store load,
//!   compile, evaluate, encode) in a lock-free ring journal behind
//!   `GET /v1/requests`, keyed by the `X-Prophet-Trace` trace ID every
//!   request carries (see `docs/OBSERVABILITY.md`),
//! * [`prometheus`] — text-exposition rendering for
//!   `GET /v1/metrics?format=prometheus`,
//! * [`client`] — the tiny blocking client the tests, benches and CI
//!   smoke checks drive the real socket with.
//!
//! ## Quickstart
//!
//! ```
//! use prophet_serve::{client, json::Json, server};
//!
//! let handle = server::serve(&server::ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     workers: 2,
//!     ..Default::default()
//! })?;
//! let addr = handle.addr();
//!
//! let body = Json::object([
//!     ("model_name", Json::from("jacobi")),
//!     ("nodes", Json::from(4usize)),
//!     ("backend", Json::from("analytic")),
//! ]);
//! let first = client::post(addr, "/v1/estimate", &body).unwrap();
//! assert_eq!(first.status, 200);
//!
//! // The second request reuses the compiled session.
//! let second = client::post(addr, "/v1/estimate", &body).unwrap();
//! assert_eq!(
//!     second.body.get("session").unwrap().get("reused").unwrap().as_bool(),
//!     Some(true)
//! );
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prometheus;
pub mod server;
pub mod spans;

pub use json::Json;
pub use pool::{PoolStats, SessionPool};
pub use server::{serve, serve_with, Handler, ServerConfig, ServerHandle};
