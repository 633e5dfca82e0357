//! Endpoint handlers: JSON in, JSON out, every model routed through the
//! shared [`SessionPool`].
//!
//! | endpoint | body | answers |
//! |---|---|---|
//! | `POST /v1/check` | `{model\|model_name, mcf?}` | checker diagnostics |
//! | `POST /v1/estimate` | `+ nodes/cpus/processes/threads/seed/backend` | one prediction |
//! | `POST /v1/sweep` | `+ nodes: [..], workers` | an SP-grid table |
//! | `POST /v1/optimize` | `+ objective/deadline/max_cost/...` | the Pareto frontier of an inverse query |
//! | `GET /v1/models` | — | bundled demo workloads, by name |
//! | `GET /v1/metrics` | — | request/latency/pool/elab/store counters |
//! | `GET /v1/requests` | — | recent-request span journal (trace IDs) |
//! | `POST /v1/warm` | `{model\|model_name, mcf?}` | prime the pool (token-guarded) |
//! | `POST /v1/evict` | `{keys: [{model, mcf}, ..]}` | drop pooled sessions (token-guarded) |
//! | `POST /v1/shutdown` | — | acknowledges, then drains the server |
//!
//! `/v1/warm` and `/v1/evict` are the shard half of the router's
//! rebalance handoff: when fleet membership changes, the router warms
//! each moved key's *new* owner (a disk hit under a shared store, a
//! compile otherwise), then evicts it from the old owner's pool — both
//! behind the same operator token as `/v1/shutdown`.
//!
//! `GET /v1/metrics?format=prometheus` answers the same counters as
//! text exposition; every request is measured into per-phase spans and
//! journaled under its trace ID (see `docs/OBSERVABILITY.md`).
//!
//! Models are passed either inline (`"model": "<xml...>"`) or by bundled
//! name (`"model_name": "jacobi"`); both resolve to the same content
//! key, so clients repeating a model — in either spelling — share one
//! compiled session.

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::metrics::{self, Metrics};
use crate::pool::SessionPool;
use crate::prometheus::{self, SHARD_FAMILIES};
use crate::spans::{Phase, SpanRecorder, SpanSet};
use prophet_check::{check_model, McfConfig, Severity};
use prophet_core::{
    render_chain_inline, ArtifactKey, Backend, Scenario, Session, SweepConfig, SweepPoint,
};
use prophet_machine::SystemParams;
use prophet_opt::{OptError, OptimizeRequest, OptimizeSession};
use prophet_uml::Model;
use prophet_workloads::models;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, OnceLock};

/// Everything the handlers share across connections.
#[derive(Debug, Default)]
pub struct AppState {
    /// Compiled sessions, keyed by model/MCF content.
    pub pool: SessionPool,
    /// Request counters and latency histograms.
    pub metrics: Metrics,
    /// Per-request phase spans: the `GET /v1/requests` ring journal
    /// plus the aggregated per-phase histograms of `/v1/metrics`.
    pub spans: SpanRecorder,
    /// Lifetime counter baseline loaded from the store's metrics
    /// checkpoint at boot (empty without `--store`): the `lifetime`
    /// section of `/v1/metrics` reports baseline + since-boot, so
    /// monotone counters survive a restart.
    pub baseline: Vec<(String, u64)>,
    /// Metrics checkpoints written this boot (by the checkpoint thread
    /// `server::serve` runs when a store is attached).
    pub checkpoints: std::sync::atomic::AtomicU64,
    /// Operator bearer token guarding `POST /v1/shutdown`; `None`
    /// leaves the endpoint open (single-operator dev setups).
    pub shutdown_token: Option<String>,
}

impl AppState {
    /// State over a caller-built pool (e.g. one backed by a persistent
    /// artifact store); metrics start at zero.
    pub fn with_pool(pool: SessionPool) -> Self {
        Self {
            pool,
            ..Self::default()
        }
    }

    /// Since-boot counters merged with the boot-time baseline: the
    /// lifetime values `/v1/metrics` reports and the checkpoint thread
    /// persists. Checkpoints store *lifetime* values, so counters stay
    /// monotone across any number of restarts.
    pub fn lifetime_counters(&self) -> Vec<(String, u64)> {
        let mut out = self.metrics.flat_counters();
        for (name, value) in &self.baseline {
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = v.saturating_add(*value),
                None => out.push((name.clone(), *value)),
            }
        }
        out
    }
}

/// Whether a request carries `Authorization: Bearer <expected>`.
/// Shared with the router, which guards its own shutdown the same way.
pub fn bearer_authorized(req: &Request, expected: &str) -> bool {
    req.header("authorization")
        .and_then(|h| h.strip_prefix("Bearer "))
        .map(str::trim)
        == Some(expected)
}

/// The bundled demo workloads servable by name, with the same default
/// parameterizations as `prophet demo`.
pub fn demo_models() -> Vec<(&'static str, &'static str)> {
    vec![
        ("sample", "the paper's Figure-5/8 sample model"),
        ("kernel6", "Livermore kernel 6 (general linear recurrence)"),
        ("jacobi", "distributed Jacobi relaxation with halo exchange"),
        ("lapw0", "LAPW0 material-science phase (ASKALON case study)"),
        ("pipeline", "point-to-point ring pipeline"),
        ("master_worker", "master/worker task farm"),
        (
            "task_farm",
            "iterative broadcast/reduce task farm with stateful steering",
        ),
        (
            "branching_pipeline",
            "pipeline with parity-branched stage costs",
        ),
        ("halo_ring", "wrap-around ring halo exchange with step norm"),
        (
            "mapreduce",
            "scatter/map/shuffle/reduce job with paired shuffle",
        ),
    ]
}

/// A bundled demo model with its content key under the default MCF.
struct Bundled {
    name: &'static str,
    model: Model,
    key: ArtifactKey,
}

/// The bundled model table, built on first use.
///
/// Each model carries its content key, so a `model_name` request derives
/// no key at all.
fn bundled(name: &str) -> Option<&'static Bundled> {
    static CACHE: OnceLock<Vec<Bundled>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        [
            ("sample", models::sample_model()),
            ("kernel6", models::kernel6_model(1000, 10, 1e-9)),
            ("jacobi", models::jacobi_model(1_000_000, 20, 1e-8)),
            ("lapw0", models::lapw0_model(64, 32, 1e-4)),
            ("pipeline", models::pipeline_model(32, 0.01, 4096)),
            ("master_worker", models::master_worker_model(64, 0.01, 256)),
            ("task_farm", models::task_farm_model(8, 0.002, 512)),
            (
                "branching_pipeline",
                models::branching_pipeline_model(24, 0.004, 2048),
            ),
            ("halo_ring", models::halo_ring_model(16, 0.003, 4096)),
            ("mapreduce", models::mapreduce_model(4096, 1e-6, 64)),
        ]
        .into_iter()
        .map(|(name, model)| {
            let key = ArtifactKey::of(&model, &McfConfig::default());
            Bundled { name, model, key }
        })
        .collect()
    });
    cache.iter().find(|b| b.name == name)
}

/// A bundled demo model by name (a clone of the table entry).
pub fn demo_model(name: &str) -> Option<Model> {
    bundled(name).map(|b| b.model.clone())
}

/// An error response: status + `{"error": message}` body.
fn error_response(status: u16, message: impl Into<String>) -> Response {
    Response::json(
        status,
        Json::object([("error", Json::from(message.into()))]).encode(),
    )
}

/// Route one request. The bool is the shutdown signal: `true` after a
/// `POST /v1/shutdown` has been acknowledged.
///
/// Every request — including errors and 404s — leaves a span-set entry
/// in the journal under its trace ID, recorded after the response is
/// built so the entry carries the final status and total time.
pub fn handle(state: &AppState, req: &Request) -> (Response, bool) {
    let mut spans = SpanSet::start();
    let (response, stop) = route(state, req, &mut spans);
    state.spans.record(
        &req.trace,
        metrics::endpoint_index(&req.method, &req.path),
        response.status,
        &spans,
    );
    (response, stop)
}

fn route(state: &AppState, req: &Request, spans: &mut SpanSet) -> (Response, bool) {
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/check") => handle_check(req, spans),
        ("POST", "/v1/estimate") => handle_estimate(state, req, spans),
        ("POST", "/v1/sweep") => handle_sweep(state, req, spans),
        ("POST", "/v1/optimize") => handle_optimize(state, req, spans),
        ("GET", "/v1/models") => handle_models(),
        ("GET", "/v1/metrics") => handle_metrics(state, req),
        ("GET", "/v1/requests") => handle_requests(state),
        ("POST", "/v1/warm") => handle_warm(state, req, spans),
        ("POST", "/v1/evict") => handle_evict(state, req),
        ("POST", "/v1/shutdown") => {
            // Shutdown is operator-only when a token is configured: the
            // prediction endpoints stay open, but draining the fleet
            // requires `Authorization: Bearer <token>`.
            if let Some(expected) = &state.shutdown_token {
                if !bearer_authorized(req, expected) {
                    return (
                        error_response(401, "shutdown requires a valid bearer token"),
                        false,
                    );
                }
            }
            let ack = Response::json(200, Json::object([("ok", Json::from(true))]).encode());
            return (ack, true);
        }
        (
            _,
            "/v1/check" | "/v1/estimate" | "/v1/sweep" | "/v1/optimize" | "/v1/models"
            | "/v1/metrics" | "/v1/requests" | "/v1/warm" | "/v1/evict" | "/v1/shutdown",
        ) => error_response(405, format!("{} not allowed here", req.method)),
        _ => error_response(404, format!("no such endpoint `{}`", req.path)),
    };
    (response, false)
}

/// Parse the request body as a JSON object.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let body = json::parse(&req.body).map_err(|e| error_response(400, e.to_string()))?;
    match body {
        Json::Object(_) => Ok(body),
        other => Err(error_response(
            400,
            format!("request body must be a JSON object, got {other}"),
        )),
    }
}

/// Resolve the model named or embedded in a request body.
pub fn resolve_model(body: &Json) -> Result<Model, Response> {
    match (body.get("model"), body.get("model_name")) {
        (Some(_), Some(_)) => Err(error_response(
            400,
            "pass either `model` (inline XML) or `model_name`, not both",
        )),
        (Some(xml), None) => {
            let xml = xml
                .as_str()
                .ok_or_else(|| error_response(400, "`model` must be an XML string"))?;
            prophet_uml::xmi::model_from_xml(xml)
                .map_err(|e| error_response(422, format!("model XML does not parse: {e}")))
        }
        (None, Some(name)) => {
            let name = name
                .as_str()
                .ok_or_else(|| error_response(400, "`model_name` must be a string"))?;
            demo_model(name).ok_or_else(|| {
                let known: Vec<&str> = demo_models().iter().map(|(n, _)| *n).collect();
                error_response(
                    404,
                    format!(
                        "unknown model `{name}`; bundled models: {}",
                        known.join(", ")
                    ),
                )
            })
        }
        (None, None) => Err(error_response(
            400,
            "missing `model` (inline XML) or `model_name`",
        )),
    }
}

/// Resolve the optional `mcf` member.
pub fn resolve_mcf(body: &Json) -> Result<McfConfig, Response> {
    match body.get("mcf") {
        None => Ok(McfConfig::default()),
        Some(xml) => {
            let xml = xml
                .as_str()
                .ok_or_else(|| error_response(400, "`mcf` must be an XML string"))?;
            McfConfig::from_xml(xml)
                .map_err(|e| error_response(422, format!("MCF XML does not parse: {e}")))
        }
    }
}

/// The parsed model and MCF of a request body.
fn resolve_inputs(body: &Json) -> Result<(Model, McfConfig), Response> {
    Ok((resolve_model(body)?, resolve_mcf(body)?))
}

/// How many distinct non-bundled inputs the key memo holds. A full memo
/// clears, which bounds its memory under model churn without an
/// eviction list.
pub const KEY_MEMO_CAPACITY: usize = 256;

/// The raw `model`, `model_name` and `mcf` members of a request body,
/// absent members as `None`.
type Members<'a> = [Option<&'a str>; 3];

/// An owned copy of [`Members`], as the key memo keeps it.
type Spelling = [Option<String>; 3];

/// Memoized content keys of inline models and explicit MCFs, keyed by
/// the exact member strings: a lookup hashes them (with a per-process
/// random seed, as the members come from clients) to find the entry,
/// and a hit needs every member to be equal, so a hash collision is a
/// miss, never a wrong key.
#[derive(Default)]
struct KeyMemo {
    seed: RandomState,
    entries: Mutex<HashMap<u64, (Spelling, ArtifactKey)>>,
}

fn key_memo() -> &'static KeyMemo {
    static MEMO: OnceLock<KeyMemo> = OnceLock::new();
    MEMO.get_or_init(KeyMemo::default)
}

/// The key-bearing members of `body`, or `None` when one of them is not
/// a string (such a body is an error, which the slow path reports).
fn members(body: &Json) -> Option<Members<'_>> {
    let mut members = [None; 3];
    for (slot, name) in members.iter_mut().zip(["model", "model_name", "mcf"]) {
        if let Some(value) = body.get(name) {
            *slot = Some(value.as_str()?);
        }
    }
    Some(members)
}

/// A request's content key, plus the parsed inputs when deriving the
/// key had to parse them, so that a pool miss right after does not
/// parse twice.
///
/// A bare `model_name` reads the key cached next to the bundled model.
/// Anything else goes through the key memo; a miss runs
/// [`resolve_model`], [`resolve_mcf`] and [`ArtifactKey::of`], returns
/// their errors unchanged and memoizes only a success.
fn resolve_input(body: &Json) -> Result<(ArtifactKey, Option<(Model, McfConfig)>), Response> {
    let members = members(body);
    if let Some([None, Some(name), None]) = members {
        if let Some(bundled) = bundled(name) {
            return Ok((bundled.key, None));
        }
    }
    let memo = key_memo();
    let memo_slot = members.map(|m| (m, memo.seed.hash_one(m)));
    if let Some((m, hash)) = memo_slot {
        let entries = memo.entries.lock().expect("key memo lock");
        if let Some((spelling, key)) = entries.get(&hash) {
            if spelling.iter().map(Option::as_deref).eq(m) {
                return Ok((*key, None));
            }
        }
    }
    let (model, mcf) = resolve_inputs(body)?;
    let key = ArtifactKey::of(&model, &mcf);
    if let Some((m, hash)) = memo_slot {
        let mut entries = memo.entries.lock().expect("key memo lock");
        if entries.len() >= KEY_MEMO_CAPACITY {
            entries.clear();
        }
        entries.insert(hash, (m.map(|v| v.map(str::to_string)), key));
    }
    Ok((key, Some((model, mcf))))
}

/// The `(model, MCF)` content key of a request body — the key the
/// router routes by and the shard pools by, so both must derive it
/// here.
///
/// Only the first sight of an input in a process pays the canonical
/// [`ArtifactKey::of`]: bundled names read a key cached at startup, and
/// inline models and explicit MCFs hit a bounded memo of their exact
/// member strings ([`KEY_MEMO_CAPACITY`]).
///
/// # Errors
/// Exactly the answers [`resolve_model`] and [`resolve_mcf`] give for
/// the body; errors are never memoized.
pub fn resolve_key(body: &Json) -> Result<ArtifactKey, Response> {
    resolve_input(body).map(|(key, _)| key)
}

/// A `usize` member with a default; rejects non-integers.
fn usize_member(body: &Json, key: &str, default: usize) -> Result<usize, Response> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| error_response(400, format!("`{key}` must be a non-negative integer"))),
    }
}

/// An optional `f64` member; rejects non-numbers.
fn f64_member(body: &Json, key: &str) -> Result<Option<f64>, Response> {
    match body.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| error_response(400, format!("`{key}` must be a number"))),
    }
}

/// An axis of counts (the `nodes`/`cpus` arrays of sweep and optimize):
/// every element must be a positive integer, repeats collapse to one
/// point. A zero is rejected here by name — left through, it used to
/// reach `SystemParams::validate` as a degenerate per-point failure row
/// instead of the 400 the request deserves.
fn count_axis(body: &Json, key: &str) -> Result<Option<Vec<usize>>, Response> {
    let Some(v) = body.get(key) else {
        return Ok(None);
    };
    let items = v.as_array().filter(|a| !a.is_empty()).ok_or_else(|| {
        error_response(400, format!("`{key}` must be a non-empty array of counts"))
    })?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let n = item.as_usize().ok_or_else(|| {
            error_response(
                400,
                format!("bad count {item} in `{key}`: must be an integer"),
            )
        })?;
        if n == 0 {
            return Err(error_response(
                400,
                format!("bad count `0` in `{key}`: counts must be at least 1"),
            ));
        }
        if !out.contains(&n) {
            out.push(n);
        }
    }
    Ok(Some(out))
}

/// System parameters from a request body (defaults matching the CLI).
fn resolve_sp(body: &Json) -> Result<SystemParams, Response> {
    let nodes = usize_member(body, "nodes", 1)?;
    let cpus = usize_member(body, "cpus", 1)?;
    let sp = SystemParams {
        nodes,
        cpus_per_node: cpus,
        processes: usize_member(body, "processes", nodes * cpus)?,
        threads_per_process: usize_member(body, "threads", 1)?,
    };
    sp.validate()
        .map_err(|e| error_response(422, e.to_string()))?;
    Ok(sp)
}

/// The evaluation backend from a request body.
fn resolve_backend(body: &Json) -> Result<Backend, Response> {
    match body.get("backend") {
        None => Ok(Backend::default()),
        Some(v) => v
            .as_str()
            .ok_or_else(|| error_response(400, "`backend` must be a string"))?
            .parse()
            .map_err(|e: String| error_response(400, e)),
    }
}

/// The pooled session for a request body's model/MCF, attributing the
/// checkout's time to the pool / store-load / compile spans: the pool
/// checkout reports how long it spent on disk and compiling, and the
/// remainder of the wall time (key resolution, lock waits, blocking on
/// another thread's in-flight compile) is pool time.
///
/// The pool is looked up by key first: a pooled hit parses no XML and
/// clones no model.
fn resolve_session(
    state: &AppState,
    body: &Json,
    spans: &mut SpanSet,
) -> Result<(Arc<Session>, bool), Response> {
    let start = std::time::Instant::now();
    let (key, parsed) = resolve_input(body)?;
    let result = state.pool.checkout_keyed(key, || match parsed {
        Some(inputs) => Ok(inputs),
        // The key came from the bundled table or the memo, both of
        // which only hold inputs that resolved, so this resolves too.
        None => resolve_inputs(body).map_err(|r| r.body),
    });
    let total_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let timing = match &result {
        Ok((_, _, timing)) => *timing,
        Err(_) => Default::default(),
    };
    spans.add_us(Phase::StoreLoad, timing.store_us);
    spans.add_us(Phase::Compile, timing.compile_us);
    spans.add_us(
        Phase::Pool,
        total_us.saturating_sub(timing.store_us + timing.compile_us),
    );
    spans.resync();
    result
        .map(|(session, reused, _)| (session, reused))
        .map_err(|chain| error_response(422, chain))
}

fn handle_check(req: &Request, spans: &mut SpanSet) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let (model, mcf) = match resolve_inputs(&body) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    spans.mark(Phase::Parse);
    // The check endpoint reports *all* findings, warnings included, so
    // it runs the checker directly instead of compiling a session
    // (which would drop warnings on failing models).
    let diagnostics = check_model(&model, &mcf);
    let errors = diagnostics.iter().filter(|d| d.is_error()).count();
    let items: Vec<Json> = diagnostics
        .iter()
        .map(|d| {
            Json::object([
                ("rule", Json::from(d.rule.as_str())),
                (
                    "severity",
                    Json::from(match d.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    }),
                ),
                ("location", Json::from(d.location.as_str())),
                ("message", Json::from(d.message.as_str())),
            ])
        })
        .collect();
    spans.mark(Phase::Evaluate);
    let encoded = Json::object([
        ("model", Json::from(model.name.as_str())),
        ("ok", Json::from(errors == 0)),
        ("errors", Json::from(errors)),
        ("diagnostics", Json::Array(items)),
    ])
    .encode();
    spans.mark(Phase::Encode);
    Response::json(200, encoded)
}

fn sp_json(sp: SystemParams) -> Json {
    Json::object([
        ("nodes", Json::from(sp.nodes)),
        ("cpus", Json::from(sp.cpus_per_node)),
        ("processes", Json::from(sp.processes)),
        ("threads", Json::from(sp.threads_per_process)),
    ])
}

fn elab_json(session: &Session) -> Json {
    let stats = session.elab_stats();
    Json::object([
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("bypasses", Json::from(stats.bypasses)),
    ])
}

fn handle_estimate(state: &AppState, req: &Request, spans: &mut SpanSet) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let (sp, backend) = match resolve_sp(&body).and_then(|sp| Ok((sp, resolve_backend(&body)?))) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    // `seed` predates the deterministic engine: still validated so old
    // clients keep their 400s, but no prediction reads it.
    if body
        .get("seed")
        .is_some_and(|seed| seed.as_usize().is_none())
    {
        return error_response(400, "`seed` must be a non-negative integer");
    }
    let scenario = Scenario::new(sp).with_backend(backend).without_trace();
    spans.mark(Phase::Parse);
    let (session, reused) = match resolve_session(state, &body, spans) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let elab_before = session.elab_stats();
    let evaluation = match session.evaluate(&scenario) {
        Ok(e) => e,
        Err(e) => return error_response(422, render_chain_inline(&e)),
    };
    let elab_after = session.elab_stats();
    spans.set_elab(
        elab_after.hits.saturating_sub(elab_before.hits),
        elab_after.misses.saturating_sub(elab_before.misses),
    );
    spans.mark(Phase::Evaluate);
    // A model can evaluate "successfully" to inf/NaN (e.g. an
    // overflowing cost expression). The JSON encoder would render that
    // as `"predicted_time": null` inside a 200 — a silent lie. Fail
    // loudly instead, naming the model and the SP point.
    if !evaluation.predicted_time.is_finite() {
        return error_response(
            500,
            format!(
                "model `{}` produced a non-finite prediction ({}) at nodes={} cpus={}",
                session.program().name,
                evaluation.predicted_time,
                sp.nodes,
                sp.cpus_per_node
            ),
        );
    }
    let encoded = Json::object([
        ("model", Json::from(session.program().name.as_str())),
        ("backend", Json::from(backend.to_string())),
        ("predicted_time", Json::from(evaluation.predicted_time)),
        (
            "events_processed",
            Json::from(evaluation.report.events_processed as u64),
        ),
        ("sp", sp_json(sp)),
        ("session", Json::object([("reused", Json::from(reused))])),
        ("elab", elab_json(&session)),
    ])
    .encode();
    spans.mark(Phase::Encode);
    Response::json(200, encoded)
}

fn handle_sweep(state: &AppState, req: &Request, spans: &mut SpanSet) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let nodes = match count_axis(&body, "nodes") {
        Ok(Some(nodes)) => nodes,
        Ok(None) => return error_response(400, "`nodes` must be a non-empty array of node counts"),
        Err(r) => return r,
    };
    let cpus = match usize_member(&body, "cpus", 1) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let workers = match usize_member(&body, "workers", 0) {
        Ok(w) => w,
        Err(r) => return r,
    };
    let backend = match resolve_backend(&body) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let points: Vec<SweepPoint> = nodes
        .into_iter()
        .map(|n| SweepPoint {
            sp: SystemParams::flat_mpi(n, cpus),
        })
        .collect();
    spans.mark(Phase::Parse);
    let (session, reused) = match resolve_session(state, &body, spans) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let config = SweepConfig {
        threads: workers,
        backend,
        ..Default::default()
    };
    let elab_before = session.elab_stats();
    let report = session.sweep_with(&points, &config, |_, _| {});
    let elab_after = session.elab_stats();
    spans.set_elab(
        elab_after.hits.saturating_sub(elab_before.hits),
        elab_after.misses.saturating_sub(elab_before.misses),
    );
    spans.mark(Phase::Evaluate);
    // Same guard as estimate: an Ok(inf/NaN) point must not reach the
    // encoder as a null time (and would poison every speedup column).
    if let Some(p) = report
        .points
        .iter()
        .find(|p| matches!(&p.outcome, Ok(t) if !t.is_finite()))
    {
        return error_response(
            500,
            format!(
                "model `{}` produced a non-finite prediction at nodes={} cpus={}",
                session.program().name,
                p.sp.nodes,
                p.sp.cpus_per_node
            ),
        );
    }
    let base = report.points.iter().find_map(|p| p.time());
    let rows: Vec<Json> = report
        .points
        .iter()
        .map(|p| {
            let mut row = vec![
                ("nodes".to_string(), Json::from(p.sp.nodes)),
                ("processes".to_string(), Json::from(p.sp.processes)),
            ];
            match &p.outcome {
                Ok(time) => {
                    row.push(("time".to_string(), Json::from(*time)));
                    if let Some(base) = base {
                        row.push(("speedup".to_string(), Json::from(base / time)));
                    }
                }
                Err(e) => row.push(("error".to_string(), Json::from(render_chain_inline(e)))),
            }
            Json::Object(row)
        })
        .collect();
    let encoded = Json::object([
        ("model", Json::from(session.program().name.as_str())),
        ("backend", Json::from(backend.to_string())),
        ("failures", Json::from(report.failures())),
        ("points", Json::Array(rows)),
        ("session", Json::object([("reused", Json::from(reused))])),
        ("elab", elab_json(&session)),
    ])
    .encode();
    spans.mark(Phase::Encode);
    Response::json(200, encoded)
}

fn handle_optimize(state: &AppState, req: &Request, spans: &mut SpanSet) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let mut oreq = OptimizeRequest::default();
    match count_axis(&body, "nodes") {
        Ok(Some(nodes)) => oreq.nodes = nodes,
        Ok(None) => {}
        Err(r) => return r,
    }
    match count_axis(&body, "cpus") {
        Ok(Some(cpus)) => oreq.cpus = cpus,
        Ok(None) => {}
        Err(r) => return r,
    }
    if let Some(v) = body.get("objective") {
        let s = match v.as_str() {
            Some(s) => s,
            None => return error_response(400, "`objective` must be a string"),
        };
        oreq.objective = match s.parse() {
            Ok(o) => o,
            Err(e) => return error_response(400, e),
        };
    }
    if let Some(v) = body.get("verify") {
        let s = match v.as_str() {
            Some(s) => s,
            None => return error_response(400, "`verify` must be a string"),
        };
        oreq.verify = match s.parse() {
            Ok(m) => m,
            Err(e) => return error_response(400, e),
        };
    }
    // Unlike estimate/sweep, a missing `backend` means the cheap
    // analytic search oracle, not the simulation default.
    if body.get("backend").is_some() {
        oreq.backend = match resolve_backend(&body) {
            Ok(b) => b,
            Err(r) => return r,
        };
    }
    let floats: [(&str, &mut Option<f64>); 2] = [
        ("deadline", &mut oreq.constraints.deadline),
        ("max_cost", &mut oreq.constraints.max_cost),
    ];
    for (key, slot) in floats {
        match f64_member(&body, key) {
            Ok(Some(v)) => *slot = Some(v),
            Ok(None) => {}
            Err(r) => return r,
        }
    }
    let weights: [(&str, &mut f64); 3] = [
        ("node_weight", &mut oreq.weights.per_node),
        ("cpu_weight", &mut oreq.weights.per_cpu),
        ("margin", &mut oreq.margin),
    ];
    for (key, slot) in weights {
        match f64_member(&body, key) {
            Ok(Some(v)) => *slot = v,
            Ok(None) => {}
            Err(r) => return r,
        }
    }
    oreq.stride = match usize_member(&body, "stride", oreq.stride) {
        Ok(s) => s,
        Err(r) => return r,
    };
    oreq.workers = match usize_member(&body, "workers", 0) {
        Ok(w) => w,
        Err(r) => return r,
    };
    // Validate before compiling: a malformed request should not cost
    // (or pollute the pool with) a session.
    let oreq = match oreq.normalized() {
        Ok(r) => r,
        Err(e) => return error_response(400, e.to_string()),
    };
    spans.mark(Phase::Parse);
    let (session, reused) = match resolve_session(state, &body, spans) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let elab_before = session.elab_stats();
    let report = match session.optimize(&oreq) {
        Ok(r) => r,
        Err(OptError::Request(msg)) => {
            return error_response(400, format!("invalid optimize request: {msg}"))
        }
        Err(e @ OptError::NonFinite { .. }) => {
            return error_response(500, format!("model `{}`: {e}", session.program().name))
        }
        Err(e) => return error_response(422, render_chain_inline(&e)),
    };
    let elab_after = session.elab_stats();
    spans.set_elab(
        elab_after.hits.saturating_sub(elab_before.hits),
        elab_after.misses.saturating_sub(elab_before.misses),
    );
    spans.mark(Phase::Evaluate);
    let frontier: Vec<Json> = report
        .frontier
        .iter()
        .map(|p| {
            let mut row = vec![
                ("nodes".to_string(), Json::from(p.sp.nodes)),
                ("cpus".to_string(), Json::from(p.sp.cpus_per_node)),
                ("processes".to_string(), Json::from(p.sp.processes)),
                ("cost".to_string(), Json::from(p.cost)),
                ("time".to_string(), Json::from(p.time)),
                ("speedup".to_string(), Json::from(p.speedup)),
            ];
            if let Some(v) = p.verified_time {
                row.push(("verified_time".to_string(), Json::from(v)));
            }
            Json::Object(row)
        })
        .collect();
    let best = match report.best {
        Some(i) => Json::from(i),
        None => Json::Null,
    };
    let baseline = match &report.baseline {
        Some((sp, time)) => Json::object([("sp", sp_json(*sp)), ("time", Json::from(*time))]),
        None => Json::Null,
    };
    let encoded = Json::object([
        ("model", Json::from(session.program().name.as_str())),
        ("backend", Json::from(report.backend.to_string())),
        ("objective", Json::from(report.objective.to_string())),
        ("frontier", Json::Array(frontier)),
        ("best", best),
        ("baseline", baseline),
        (
            "search",
            Json::object([
                ("oracle_evals", Json::from(report.oracle_evals)),
                ("grid_size", Json::from(report.grid_size)),
                ("cells_skipped", Json::from(report.cells_skipped)),
                ("cells_refined", Json::from(report.cells_refined)),
                ("verifier_evals", Json::from(report.verifier_evals)),
            ]),
        ),
        ("session", Json::object([("reused", Json::from(reused))])),
        ("elab", elab_json(&session)),
    ])
    .encode();
    spans.mark(Phase::Encode);
    Response::json(200, encoded)
}

fn handle_models() -> Response {
    let items: Vec<Json> = demo_models()
        .into_iter()
        .map(|(name, description)| {
            Json::object([
                ("name", Json::from(name)),
                ("description", Json::from(description)),
            ])
        })
        .collect();
    Response::json(200, Json::object([("models", Json::Array(items))]).encode())
}

/// `GET /v1/metrics`: the metrics document, built once and either
/// encoded as JSON or rendered through [`SHARD_FAMILIES`]
/// (`?format=prometheus`).
fn handle_metrics(state: &AppState, req: &Request) -> Response {
    let exposition = match req.query_param("format") {
        Some("prometheus") => true,
        None | Some("json") => false,
        Some(other) => {
            return error_response(
                400,
                format!("unknown metrics format `{other}`; use `json` or `prometheus`"),
            )
        }
    };
    let pool = state.pool.stats();
    let elab = state.pool.elab_stats();
    let mut members = vec![
        ("endpoints".to_string(), state.metrics.to_json()),
        ("phases".to_string(), state.spans.phases_json()),
        (
            "journal".to_string(),
            Json::object([("recorded", Json::from(state.spans.recorded()))]),
        ),
        (
            "session_pool".to_string(),
            Json::object([
                ("size", Json::from(pool.size)),
                ("compiles", Json::from(pool.compiles)),
                ("reuses", Json::from(pool.reuses)),
                ("evictions", Json::from(state.pool.evictions())),
                ("budget_evictions", Json::from(pool.budget_evictions)),
                ("retained_bytes", Json::from(pool.retained_bytes)),
            ]),
        ),
        (
            "elab".to_string(),
            Json::object([
                ("hits", Json::from(elab.hits)),
                ("misses", Json::from(elab.misses)),
                ("bypasses", Json::from(elab.bypasses)),
            ]),
        ),
    ];
    // The `store` section exists exactly when the server runs with a
    // persistent artifact store (`prophet serve --store DIR`).
    if let Some(store) = state.pool.store_stats() {
        members.push((
            "store".to_string(),
            Json::object([
                ("disk_hits", Json::from(store.disk_hits)),
                ("disk_misses", Json::from(store.disk_misses)),
                ("writes", Json::from(store.writes)),
                ("write_errors", Json::from(store.write_errors)),
                ("evictions", Json::from(store.evictions)),
            ]),
        ));
    }
    // Lifetime counters: boot-time checkpoint baseline + since-boot.
    // Always present — without a store the baseline is empty and the
    // values coincide with the since-boot `endpoints` section.
    members.push((
        "lifetime".to_string(),
        Json::object([
            (
                "checkpoints",
                Json::from(state.checkpoints.load(std::sync::atomic::Ordering::Relaxed)),
            ),
            (
                "counters",
                Json::Object(
                    state
                        .lifetime_counters()
                        .into_iter()
                        .map(|(name, value)| (name, Json::from(value)))
                        .collect(),
                ),
            ),
        ]),
    ));
    let doc = Json::Object(members);
    if exposition {
        Response::prometheus(prometheus::render(&doc, SHARD_FAMILIES))
    } else {
        Response::json(200, doc.encode())
    }
}

fn handle_requests(state: &AppState) -> Response {
    Response::json(200, state.spans.journal_json().encode())
}

/// Require the operator bearer token (the `/v1/shutdown` one) on a
/// mutation endpoint. `None` token leaves the endpoint open, matching
/// shutdown's single-operator dev default.
fn operator_guard(state: &AppState, req: &Request, what: &str) -> Option<Response> {
    if let Some(expected) = &state.shutdown_token {
        if !bearer_authorized(req, expected) {
            return Some(error_response(
                401,
                format!("{what} requires a valid bearer token"),
            ));
        }
    }
    None
}

/// `POST /v1/warm`: prime the pool for a model/MCF without answering a
/// prediction. Same body shape as `/v1/check`; the checkout goes
/// store-first, so under a shared store a warm is a disk hit, not a
/// recompile. The router drives this during rebalance handoff.
fn handle_warm(state: &AppState, req: &Request, spans: &mut SpanSet) -> Response {
    if let Some(denied) = operator_guard(state, req, "warm") {
        return denied;
    }
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    spans.mark(Phase::Parse);
    let (_, reused) = match resolve_session(state, &body, spans) {
        Ok(pair) => pair,
        Err(r) => return r,
    };
    let key = match resolve_key(&body) {
        Ok(key) => key,
        Err(r) => return r,
    };
    let encoded = Json::object([
        ("ok", Json::from(true)),
        ("reused", Json::from(reused)),
        (
            "key",
            Json::object([
                ("model", Json::from(format!("{:016x}", key.model))),
                ("mcf", Json::from(format!("{:016x}", key.mcf))),
            ]),
        ),
    ])
    .encode();
    spans.mark(Phase::Encode);
    Response::json(200, encoded)
}

/// One `{model, mcf}` digest pair from the evict body, 16-hex each.
fn parse_evict_key(item: &Json) -> Result<crate::pool::PoolKey, Response> {
    let digest = |name: &str| -> Result<u64, Response> {
        let s = item.get(name).and_then(Json::as_str).ok_or_else(|| {
            error_response(400, format!("each key needs a `{name}` hex-digest string"))
        })?;
        u64::from_str_radix(s, 16)
            .map_err(|_| error_response(400, format!("bad `{name}` digest `{s}`: not 64-bit hex")))
    };
    Ok(crate::pool::PoolKey {
        model: digest("model")?,
        mcf: digest("mcf")?,
    })
}

/// `POST /v1/evict`: drop pooled sessions by digest key
/// (`{"keys": [{"model": "<16 hex>", "mcf": "<16 hex>"}, ...]}`). Keys
/// not in the pool count as requested but not evicted — eviction is
/// idempotent, so the router can re-drive a handoff safely.
fn handle_evict(state: &AppState, req: &Request) -> Response {
    if let Some(denied) = operator_guard(state, req, "evict") {
        return denied;
    }
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let Some(items) = body.get("keys").and_then(Json::as_array) else {
        return error_response(400, "missing `keys`: an array of {model, mcf} digest pairs");
    };
    let mut evicted = 0usize;
    for item in items {
        match parse_evict_key(item) {
            Ok(key) => {
                if state.pool.evict(key) {
                    evicted += 1;
                }
            }
            Err(r) => return r,
        }
    }
    Response::json(
        200,
        Json::object([
            ("requested", Json::from(items.len())),
            ("evicted", Json::from(evicted)),
        ])
        .encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.into(),
            keep_alive: true,
            trace: "t-test".into(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: String::new(),
            keep_alive: true,
            trace: "t-test".into(),
        }
    }

    fn body_of(r: &Response) -> Json {
        json::parse(&r.body).expect("handler bodies are JSON")
    }

    #[test]
    fn estimate_by_name_then_reuse() {
        let state = AppState::default();
        let req = post("/v1/estimate", r#"{"model_name":"sample","nodes":2}"#);
        let (first, _) = handle(&state, &req);
        assert_eq!(first.status, 200, "{}", first.body);
        let first = body_of(&first);
        assert_eq!(first.get("model").unwrap().as_str(), Some("sample"));
        assert_eq!(
            first
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        let (second, _) = handle(&state, &req);
        let second = body_of(&second);
        assert_eq!(
            second
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(
            second.get("predicted_time").unwrap().as_f64(),
            first.get("predicted_time").unwrap().as_f64()
        );
        // Same SP twice: the second evaluation is an elab-cache hit.
        assert_eq!(
            second.get("elab").unwrap().get("hits").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn estimate_inline_model_and_name_share_a_session() {
        let state = AppState::default();
        let xml = prophet_uml::xmi::model_to_xml(&models::sample_model());
        let by_xml = Json::object([("model", Json::from(xml))]).encode();
        let (r1, _) = handle(&state, &post("/v1/estimate", &by_xml));
        assert_eq!(r1.status, 200, "{}", r1.body);
        let (r2, _) = handle(&state, &post("/v1/estimate", r#"{"model_name":"sample"}"#));
        assert_eq!(
            body_of(&r2)
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(true),
            "inline XML and model_name must resolve to the same content key"
        );
    }

    #[test]
    fn a_named_then_an_inline_request_share_one_pooled_session() {
        let state = AppState::default();
        let xml = prophet_uml::xmi::model_to_xml(&models::jacobi_model(1_000_000, 20, 1e-8));
        let by_xml = Json::object([("model", Json::from(xml))]).encode();
        let reused = |body: &str| {
            let (r, _) = handle(&state, &post("/v1/estimate", body));
            assert_eq!(r.status, 200, "{}", r.body);
            body_of(&r)
                .get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool()
        };
        assert_eq!(reused(r#"{"model_name":"jacobi"}"#), Some(false));
        assert_eq!(reused(&by_xml), Some(true));
        assert_eq!(reused(&by_xml), Some(true));
        let stats = state.pool.stats();
        assert_eq!((stats.compiles, stats.reuses), (1, 2), "{stats:?}");
    }

    #[test]
    fn bundled_keys_are_the_canonical_keys() {
        for (name, _) in demo_models() {
            let canonical = ArtifactKey::of(&demo_model(name).unwrap(), &McfConfig::default());
            assert_eq!(bundled(name).unwrap().key, canonical, "{name}");
            let body = Json::object([("model_name", Json::from(name))]);
            assert_eq!(resolve_key(&body).unwrap(), canonical, "{name}");
            // An explicit default MCF takes the memo path to the same key.
            let mcf = McfConfig::default().to_xml();
            let body = Json::object([("model_name", Json::from(name)), ("mcf", Json::from(mcf))]);
            assert_eq!(resolve_key(&body).unwrap(), canonical, "{name} + mcf");
        }
    }

    /// Whether the key memo holds an entry for exactly `body`'s members.
    fn memoized(body: &Json) -> bool {
        let members = members(body).expect("string members");
        key_memo()
            .entries
            .lock()
            .unwrap()
            .values()
            .any(|(spelling, _)| spelling.iter().map(Option::as_deref).eq(members))
    }

    #[test]
    fn unparsable_inputs_fail_the_same_way_and_are_never_memoized() {
        for body in [
            Json::object([("model", Json::from("<model><broken"))]),
            Json::object([
                ("model_name", Json::from("sample")),
                ("mcf", Json::from("<mcf><broken")),
            ]),
        ] {
            let first = resolve_key(&body).unwrap_err();
            assert_eq!(first.status, 422, "{}", first.body);
            for _ in 0..3 {
                let again = resolve_key(&body).unwrap_err();
                assert_eq!((again.status, &again.body), (first.status, &first.body));
            }
            assert!(!memoized(&body), "an error was memoized: {}", first.body);
        }
    }

    #[test]
    fn the_key_memo_stays_bounded_and_agrees_after_clearing() {
        let inline = |i: usize| {
            let mut b = prophet_uml::ModelBuilder::new(&format!("memo{i}"));
            let main = b.main_diagram();
            let start = b.initial(main, "start");
            let work = b.action(main, "Work", &format!("{i}.5"));
            let end = b.final_node(main, "end");
            b.flow(main, start, work);
            b.flow(main, work, end);
            let model = b.build();
            let key = ArtifactKey::of(&model, &McfConfig::default());
            let xml = prophet_uml::xmi::model_to_xml(&model);
            (Json::object([("model", Json::from(xml))]), key)
        };
        let inputs: Vec<(Json, ArtifactKey)> = (0..KEY_MEMO_CAPACITY + 40).map(inline).collect();
        for (body, key) in &inputs {
            assert_eq!(resolve_key(body).unwrap(), *key);
            assert!(key_memo().entries.lock().unwrap().len() <= KEY_MEMO_CAPACITY);
        }
        // The tail went in after the memo last cleared; whatever a
        // concurrent test did since, every answer is the canonical key,
        // memoized or not.
        for (body, key) in inputs.iter().rev().take(40) {
            assert_eq!(resolve_key(body).unwrap(), *key);
            assert_eq!(resolve_key(body).unwrap(), *key);
        }
        assert!(key_memo().entries.lock().unwrap().len() <= KEY_MEMO_CAPACITY);
    }

    #[test]
    fn estimate_rejects_bad_requests() {
        let state = AppState::default();
        for (body, status) in [
            ("not json", 400),
            ("[1,2]", 400),
            ("{}", 400),
            (r#"{"model_name":"nope"}"#, 404),
            (r#"{"model_name":"sample","model":"<x/>"}"#, 400),
            (r#"{"model_name":"sample","nodes":-1}"#, 400),
            (r#"{"model_name":"sample","backend":"quantum"}"#, 400),
            (r#"{"model_name":"sample","seed":-1}"#, 400),
            (r#"{"model_name":"sample","seed":"7"}"#, 400),
            (r#"{"model_name":"sample","nodes":4,"processes":2}"#, 422),
            (r#"{"model":"<model><broken"}"#, 422),
        ] {
            let (r, _) = handle(&state, &post("/v1/estimate", body));
            assert_eq!(r.status, status, "{body} -> {}", r.body);
            assert!(body_of(&r).get("error").is_some(), "{body}");
        }
    }

    #[test]
    fn estimate_seed_changes_no_prediction() {
        let state = AppState::default();
        let predict = |name: &str, backend: &str, seed: Option<&str>| {
            let seed = seed.map(|s| format!(r#","seed":{s}"#)).unwrap_or_default();
            let body =
                format!(r#"{{"model_name":"{name}","nodes":2,"backend":"{backend}"{seed}}}"#);
            let (r, _) = handle(&state, &post("/v1/estimate", &body));
            (
                r.status,
                body_of(&r).get("predicted_time").and_then(Json::as_f64),
            )
        };
        for (name, _) in demo_models() {
            for backend in ["simulation", "analytic"] {
                let (status, plain) = predict(name, backend, None);
                assert_eq!(status, 200, "{name}/{backend}");
                let (status, seeded) = predict(name, backend, Some("7"));
                assert_eq!(status, 200, "{name}/{backend} with seed");
                assert_eq!(
                    seeded.map(f64::to_bits),
                    plain.map(f64::to_bits),
                    "{name}/{backend}: the seed must not move the prediction"
                );
            }
        }
    }

    #[test]
    fn check_reports_diagnostics() {
        let (ok, _) = handle(
            &AppState::default(),
            &post("/v1/check", r#"{"model_name":"sample"}"#),
        );
        let ok = body_of(&ok);
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));

        // A model with an unparsable cost expression fails PP006.
        let xml = prophet_uml::xmi::model_to_xml(&models::sample_model())
            .replace("value=\"FA1()\"", "value=\"FA1() +\"");
        let req = Json::object([("model", Json::from(xml))]).encode();
        let (bad, _) = handle(&AppState::default(), &post("/v1/check", &req));
        assert_eq!(bad.status, 200, "{}", bad.body);
        let bad = body_of(&bad);
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        let diags = bad.get("diagnostics").unwrap().as_array().unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.get("rule").unwrap().as_str() == Some("PP006")),
            "{bad}"
        );
    }

    #[test]
    fn sweep_returns_a_speedup_table() {
        let state = AppState::default();
        let (r, _) = handle(
            &state,
            &post(
                "/v1/sweep",
                r#"{"model_name":"jacobi","nodes":[1,2,4],"backend":"analytic"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let body = body_of(&r);
        let points = body.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(body.get("failures").unwrap().as_f64(), Some(0.0));
        assert_eq!(points[0].get("speedup").unwrap().as_f64(), Some(1.0));
        assert!(points[2].get("speedup").unwrap().as_f64().unwrap() > 1.0);
        // A zero node count is a client error, rejected up front by
        // name — not a 200 with a per-point failure row.
        let (r, _) = handle(
            &state,
            &post("/v1/sweep", r#"{"model_name":"jacobi","nodes":[0,1]}"#),
        );
        assert_eq!(r.status, 400, "{}", r.body);
        let err = body_of(&r)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(err.contains("bad count `0` in `nodes`"), "{err}");
        // Repeated node counts collapse to one point each.
        let (r, _) = handle(
            &state,
            &post(
                "/v1/sweep",
                r#"{"model_name":"jacobi","nodes":[2,2,4,2],"backend":"analytic"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let body = body_of(&r);
        assert_eq!(body.get("points").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn optimize_returns_a_frontier_and_reuses_warm_sessions() {
        let state = AppState::default();
        // Warm the pool the way a client would: one estimate first.
        let (r, _) = handle(
            &state,
            &post(
                "/v1/estimate",
                r#"{"model_name":"jacobi","backend":"analytic"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let compiles_before = state.pool.stats().compiles;

        // A dense nodes axis: wide cells give the incumbent something
        // to dominate, so the search visibly prunes.
        let nodes: Vec<Json> = (1..=32usize).map(Json::from).collect();
        let oreq = Json::object([
            ("model_name", Json::from("jacobi")),
            ("nodes", Json::Array(nodes)),
            (
                "cpus",
                Json::Array(vec![
                    Json::from(1usize),
                    Json::from(2usize),
                    Json::from(4usize),
                ]),
            ),
            ("deadline", Json::from(0.02)),
        ])
        .encode();
        let (r, _) = handle(&state, &post("/v1/optimize", &oreq));
        assert_eq!(r.status, 200, "{}", r.body);
        let body = body_of(&r);
        assert_eq!(body.get("backend").unwrap().as_str(), Some("analytic"));
        assert_eq!(body.get("objective").unwrap().as_str(), Some("min_time"));
        let frontier = body.get("frontier").unwrap().as_array().unwrap();
        assert!(!frontier.is_empty(), "{body}");
        // Frontier shape: cost strictly ascending, time strictly descending.
        let costs: Vec<f64> = frontier
            .iter()
            .map(|p| p.get("cost").unwrap().as_f64().unwrap())
            .collect();
        let times: Vec<f64> = frontier
            .iter()
            .map(|p| p.get("time").unwrap().as_f64().unwrap())
            .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
        assert!(times.windows(2).all(|w| w[0] > w[1]), "{times:?}");
        let best = body.get("best").unwrap().as_usize().unwrap();
        assert!(best < frontier.len());
        let search = body.get("search").unwrap();
        let evals = search.get("oracle_evals").unwrap().as_f64().unwrap();
        let grid = search.get("grid_size").unwrap().as_f64().unwrap();
        assert_eq!(grid, 96.0);
        assert!(evals < grid, "lazy search must not evaluate the full grid");
        // Warm-model optimize: the session came from the pool, with
        // zero additional compiles.
        assert_eq!(
            body.get("session")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(state.pool.stats().compiles, compiles_before);
    }

    #[test]
    fn optimize_rejects_bad_requests() {
        let state = AppState::default();
        for (body, needle) in [
            (
                r#"{"model_name":"jacobi","nodes":[0,2]}"#,
                "bad count `0` in `nodes`",
            ),
            (
                r#"{"model_name":"jacobi","cpus":[]}"#,
                "`cpus` must be a non-empty array",
            ),
            (
                r#"{"model_name":"jacobi","nodes":[1.5]}"#,
                "must be an integer",
            ),
            (
                r#"{"model_name":"jacobi","objective":"fastest"}"#,
                "unknown objective",
            ),
            (
                r#"{"model_name":"jacobi","verify":"twice"}"#,
                "unknown verify mode",
            ),
            (r#"{"model_name":"jacobi","margin":1.5}"#, "margin"),
            (r#"{"model_name":"jacobi","stride":0}"#, "stride"),
            (
                r#"{"model_name":"jacobi","deadline":"soon"}"#,
                "`deadline` must be a number",
            ),
            (r#"{"model_name":"jacobi","deadline":-1}"#, "deadline"),
        ] {
            let (r, _) = handle(&state, &post("/v1/optimize", body));
            assert_eq!(r.status, 400, "{body} -> {}", r.body);
            let err = body_of(&r)
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert!(err.contains(needle), "{body} -> {err}");
        }
        // Bad requests never reach compilation.
        assert_eq!(state.pool.stats().compiles, 0);
    }

    #[test]
    fn optimize_constraints_and_verification() {
        let state = AppState::default();
        let (r, _) = handle(
            &state,
            &post(
                "/v1/optimize",
                r#"{"model_name":"jacobi","nodes":[1,2,4,8],"cpus":[1,2],"objective":"min_cost","max_cost":6,"verify":"sim"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let body = body_of(&r);
        let frontier = body.get("frontier").unwrap().as_array().unwrap();
        assert!(!frontier.is_empty(), "{body}");
        for p in frontier {
            assert!(p.get("cost").unwrap().as_f64().unwrap() <= 6.0, "{p}");
            let sim = p.get("verified_time").unwrap().as_f64().unwrap();
            let analytic = p.get("time").unwrap().as_f64().unwrap();
            assert!(
                ((sim - analytic) / analytic).abs() <= 1e-9,
                "verified {sim} vs oracle {analytic}"
            );
        }
        // min_cost: best is the cheapest frontier point, index 0.
        assert_eq!(body.get("best").unwrap().as_usize(), Some(0));
        let verifs = body
            .get("search")
            .unwrap()
            .get("verifier_evals")
            .unwrap()
            .as_usize()
            .unwrap();
        assert_eq!(verifs, frontier.len());
    }

    /// The sample model with two costs rewritten to `1e308` each: every
    /// individual op time passes the flattener's finiteness guard, but
    /// the analytic backend's running sum overflows to `inf` — the
    /// evaluator reports success with a non-finite prediction.
    fn overflowing_model_xml() -> String {
        prophet_uml::xmi::model_to_xml(&models::sample_model())
            .replace("0.04 + 0.01 * P", "1e308")
            .replace("body=\"0.5\"", "body=\"1e308\"")
    }

    #[test]
    fn non_finite_predictions_are_a_500_not_a_null() {
        let state = AppState::default();
        let body = Json::object([
            ("model", Json::from(overflowing_model_xml())),
            ("backend", Json::from("analytic")),
        ])
        .encode();
        let (r, _) = handle(&state, &post("/v1/estimate", &body));
        assert_eq!(r.status, 500, "{}", r.body);
        let err = body_of(&r)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(err.contains("non-finite"), "{err}");
        assert!(err.contains("sample"), "names the model: {err}");
        assert!(err.contains("nodes=1"), "names the SP point: {err}");

        let sweep = Json::object([
            ("model", Json::from(overflowing_model_xml())),
            ("backend", Json::from("analytic")),
            (
                "nodes",
                Json::Array(vec![Json::from(1usize), Json::from(2usize)]),
            ),
        ])
        .encode();
        let (r, _) = handle(&state, &post("/v1/sweep", &sweep));
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(body_of(&r)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("non-finite"));

        let (r, _) = handle(&state, &post("/v1/optimize", &body));
        assert_eq!(r.status, 500, "{}", r.body);
        let err = body_of(&r)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn models_metrics_and_routing() {
        let state = AppState::default();
        let (r, _) = handle(&state, &get("/v1/models"));
        let names: Vec<String> = body_of(&r)
            .get("models")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"jacobi".to_string()));
        assert!(names.contains(&"halo_ring".to_string()));
        // Every listed model actually resolves and compiles.
        for name in &names {
            Session::new(demo_model(name).unwrap()).unwrap();
        }

        let (r, _) = handle(&state, &get("/v1/metrics"));
        let metrics = body_of(&r);
        assert!(metrics.get("session_pool").is_some());
        assert!(metrics.get("elab").is_some());

        let (r, _) = handle(&state, &get("/nope"));
        assert_eq!(r.status, 404);
        let (r, _) = handle(&state, &get("/v1/estimate"));
        assert_eq!(r.status, 405);
        let (r, _) = handle(&state, &post("/v1/requests", ""));
        assert_eq!(r.status, 405);
        let (r, shutdown) = handle(&state, &post("/v1/shutdown", ""));
        assert_eq!(r.status, 200);
        assert!(shutdown);
    }

    fn post_auth(path: &str, body: &str, token: &str) -> Request {
        let mut req = post(path, body);
        req.headers
            .push(("authorization".into(), format!("Bearer {token}")));
        req
    }

    #[test]
    fn warm_and_evict_manage_the_pool_behind_the_operator_token() {
        let state = AppState {
            shutdown_token: Some("sekrit".into()),
            ..AppState::default()
        };

        // Both mutations share the shutdown token guard.
        let (r, _) = handle(&state, &post("/v1/warm", r#"{"model_name":"sample"}"#));
        assert_eq!(r.status, 401);
        let (r, _) = handle(&state, &post("/v1/evict", r#"{"keys":[]}"#));
        assert_eq!(r.status, 401);
        let (r, _) = handle(&state, &get("/v1/warm"));
        assert_eq!(r.status, 405);

        // A cold warm compiles into the pool; a second one is a reuse.
        let warm = post_auth("/v1/warm", r#"{"model_name":"sample"}"#, "sekrit");
        let (r, _) = handle(&state, &warm);
        assert_eq!(r.status, 200, "{}", r.body);
        let first = body_of(&r);
        assert_eq!(first.get("reused").unwrap().as_bool(), Some(false));
        let key = first.get("key").unwrap();
        let model_hex = key.get("model").unwrap().as_str().unwrap().to_string();
        let mcf_hex = key.get("mcf").unwrap().as_str().unwrap().to_string();
        assert_eq!(model_hex.len(), 16);
        let (r, _) = handle(&state, &warm);
        assert_eq!(body_of(&r).get("reused").unwrap().as_bool(), Some(true));
        assert_eq!(state.pool.stats().size, 1);

        // Evict by the digest pair the warm reported; unknown keys are
        // counted as requested but not evicted, and re-evicting is a
        // no-op — the handoff driver can replay safely.
        let body = format!(
            r#"{{"keys":[{{"model":"{model_hex}","mcf":"{mcf_hex}"}},{{"model":"dead","mcf":"beef"}}]}}"#
        );
        let (r, _) = handle(&state, &post_auth("/v1/evict", &body, "sekrit"));
        assert_eq!(r.status, 200, "{}", r.body);
        let evicted = body_of(&r);
        assert_eq!(evicted.get("requested").unwrap().as_f64(), Some(2.0));
        assert_eq!(evicted.get("evicted").unwrap().as_f64(), Some(1.0));
        assert_eq!(state.pool.stats().size, 0);
        let (r, _) = handle(&state, &post_auth("/v1/evict", &body, "sekrit"));
        assert_eq!(body_of(&r).get("evicted").unwrap().as_f64(), Some(0.0));

        // Malformed bodies are 400s, not panics.
        let (r, _) = handle(&state, &post_auth("/v1/evict", r#"{}"#, "sekrit"));
        assert_eq!(r.status, 400);
        let bad = r#"{"keys":[{"model":"nothex!","mcf":"0"}]}"#;
        let (r, _) = handle(&state, &post_auth("/v1/evict", bad, "sekrit"));
        assert_eq!(r.status, 400);

        // The eviction shows up in both metrics renderings.
        let (r, _) = handle(&state, &get("/v1/metrics"));
        let pool = body_of(&r);
        let pool = pool.get("session_pool").unwrap();
        assert_eq!(pool.get("evictions").unwrap().as_f64(), Some(1.0));
        let mut prom = get("/v1/metrics");
        prom.query = "format=prometheus".into();
        let (r, _) = handle(&state, &prom);
        assert!(r.body.contains("prophet_session_pool_evictions_total 1"));
    }

    #[test]
    fn journal_records_every_request_with_phase_spans() {
        let state = AppState::default();
        let mut req = post("/v1/estimate", r#"{"model_name":"sample","nodes":2}"#);
        req.trace = "t-journal-1".into();
        let (r, _) = handle(&state, &req);
        assert_eq!(r.status, 200, "{}", r.body);

        let (r, _) = handle(&state, &get("/v1/requests"));
        assert_eq!(r.status, 200);
        let journal = body_of(&r);
        assert_eq!(journal.get("recorded").unwrap().as_f64(), Some(1.0));
        let rows = journal.get("requests").unwrap().as_array().unwrap();
        let row = &rows[0];
        assert_eq!(row.get("trace_id").unwrap().as_str(), Some("t-journal-1"));
        assert_eq!(row.get("endpoint").unwrap().as_str(), Some("estimate"));
        assert_eq!(row.get("status").unwrap().as_f64(), Some(200.0));
        assert!(row.get("total_us").unwrap().as_f64().unwrap() > 0.0);
        let phases = row.get("phases").unwrap();
        for name in crate::spans::PHASE_NAMES {
            assert!(phases.get(name).is_some(), "{name}");
        }
        // A cold estimate compiled: the compile span is measurable.
        assert!(
            phases.get("compile").unwrap().as_f64().unwrap() > 0.0,
            "{phases}"
        );
        // One SP point, first evaluation: one elab miss, zero hits.
        let elab = row.get("elab").unwrap();
        assert_eq!(elab.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(elab.get("hits").unwrap().as_f64(), Some(0.0));

        // Errors are journaled too, under their own trace and status.
        let mut bad = post("/v1/estimate", "not json");
        bad.trace = "t-journal-2".into();
        handle(&state, &bad);
        let (r, _) = handle(&state, &get("/v1/requests"));
        let rows = body_of(&r);
        let rows = rows.get("requests").unwrap().as_array().unwrap();
        // Newest first: the 400, then the journal GET, then the 200.
        assert_eq!(rows[0].get("status").unwrap().as_f64(), Some(400.0));
        assert_eq!(
            rows[0].get("trace_id").unwrap().as_str(),
            Some("t-journal-2")
        );
        assert_eq!(rows[1].get("endpoint").unwrap().as_str(), Some("requests"));

        // The aggregated phase histograms saw the compile too.
        let (r, _) = handle(&state, &get("/v1/metrics"));
        let metrics = body_of(&r);
        let compile = metrics.get("phases").unwrap().get("compile").unwrap();
        assert!(compile.get("observations").unwrap().as_f64().unwrap() >= 1.0);
        assert!(metrics.get("journal").unwrap().get("recorded").is_some());
    }

    #[test]
    fn lifetime_counters_merge_the_boot_baseline() {
        let state = AppState {
            baseline: vec![
                ("endpoints.estimate.requests".to_string(), 5),
                ("endpoints.estimate.errors".to_string(), 2),
            ],
            ..AppState::default()
        };
        // Live traffic is recorded by the server layer; simulate one
        // since-boot estimate.
        state
            .metrics
            .endpoint("POST", "/v1/estimate")
            .record(std::time::Duration::from_micros(40), false);
        let (r, _) = handle(&state, &get("/v1/metrics"));
        let body = body_of(&r);
        let lifetime = body.get("lifetime").unwrap();
        assert_eq!(lifetime.get("checkpoints").unwrap().as_f64(), Some(0.0));
        let counters = lifetime.get("counters").unwrap();
        assert_eq!(
            counters
                .get("endpoints.estimate.requests")
                .unwrap()
                .as_f64(),
            Some(6.0),
            "baseline 5 + live 1"
        );
        assert_eq!(
            counters.get("endpoints.estimate.errors").unwrap().as_f64(),
            Some(2.0)
        );
        // The since-boot section stays since-boot.
        let est = body.get("endpoints").unwrap().get("estimate").unwrap();
        assert_eq!(est.get("requests").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn metrics_render_as_prometheus_text() {
        let state = AppState::default();
        let (r, _) = handle(&state, &post("/v1/estimate", r#"{"model_name":"sample"}"#));
        assert_eq!(r.status, 200, "{}", r.body);
        state
            .metrics
            .endpoint("POST", "/v1/estimate")
            .record(std::time::Duration::from_micros(40), false);

        let mut req = get("/v1/metrics");
        req.query = "format=prometheus".into();
        let (r, _) = handle(&state, &req);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        for needle in [
            "# TYPE prophet_requests_total counter",
            "prophet_requests_total{endpoint=\"estimate\"} 1",
            "# TYPE prophet_request_duration_seconds histogram",
            "prophet_request_duration_seconds_bucket{endpoint=\"estimate\",le=\"+Inf\"} 1",
            "# TYPE prophet_phase_duration_seconds histogram",
            "prophet_phase_duration_seconds_bucket{phase=\"compile\"",
            "prophet_requests_lifetime_total{endpoint=\"estimate\"} 1",
            "# TYPE prophet_session_pool_compiles_total counter",
            "prophet_session_pool_compiles_total 1",
        ] {
            assert!(
                r.body.contains(needle),
                "missing `{needle}` in:\n{}",
                r.body
            );
        }

        // `?format=json` is the default spelling; anything else is 400.
        let mut req = get("/v1/metrics");
        req.query = "format=json".into();
        let (r, _) = handle(&state, &req);
        assert_eq!(r.status, 200);
        let mut req = get("/v1/metrics");
        req.query = "format=xml".into();
        let (r, _) = handle(&state, &req);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(body_of(&r)
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown metrics format"));
    }

    /// A deterministic shard state for the exposition tests: one pooled
    /// estimate (compiled on a scratch state, so its wall-clock spans
    /// stay out), fixed endpoint latencies, and fixed phase spans.
    fn pinned_state() -> AppState {
        let scratch = AppState::default();
        let (r, _) = handle(
            &scratch,
            &post("/v1/estimate", r#"{"model_name":"sample"}"#),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let state = AppState::with_pool(scratch.pool);
        for (method, path, us, error) in [
            ("POST", "/v1/estimate", 40, false),
            ("POST", "/v1/estimate", 40, false),
            ("POST", "/v1/estimate", 3_000, true),
            ("POST", "/v1/check", 5, false),
            ("GET", "/v1/metrics", 250, false),
            ("GET", "/nope", 2, true),
        ] {
            state
                .metrics
                .endpoint(method, path)
                .record(std::time::Duration::from_micros(us), error);
        }
        let mut spans = SpanSet::start();
        spans.add_us(Phase::Parse, 7);
        spans.add_us(Phase::Pool, 30);
        spans.add_us(Phase::Evaluate, 1_500);
        spans.add_us(Phase::Encode, 12);
        state.spans.record("t-pinned", 1, 200, &spans);
        state
    }

    #[test]
    fn shard_exposition_matches_the_pinned_text() {
        let state = pinned_state();
        let mut req = get("/v1/metrics");
        req.query = "format=prometheus".into();
        let (r, _) = handle(&state, &req);
        assert_eq!(r.status, 200);
        let expected = include_str!("../tests/data/shard_exposition.prom");
        if r.body != expected {
            let first = r
                .body
                .lines()
                .zip(expected.lines())
                .position(|(got, want)| got != want);
            panic!(
                "exposition drifted (first differing line {first:?}):\n{}",
                r.body
            );
        }
    }

    #[test]
    fn every_shard_metric_is_an_exposed_series() {
        let dir = std::env::temp_dir().join(format!("prophet-api-parity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(prophet_core::ArtifactStore::open(&dir).expect("temp store opens"));
        let pinned = pinned_state();
        let state = AppState {
            pool: SessionPool::with_store(crate::pool::DEFAULT_CAPACITY, store),
            ..pinned
        };
        let (r, _) = handle(&state, &post("/v1/estimate", r#"{"model_name":"jacobi"}"#));
        assert_eq!(r.status, 200, "{}", r.body);
        let (r, _) = handle(&state, &get("/v1/metrics"));
        let doc = body_of(&r);
        assert!(
            doc.get("store").is_some(),
            "the store section must be covered too"
        );

        let unsampled = prometheus::unsampled_leaves(&doc, SHARD_FAMILIES);
        assert!(
            unsampled.is_empty(),
            "JSON leaves with no series: {unsampled:?}"
        );
        let text = prometheus::render(&doc, SHARD_FAMILIES);
        for family in SHARD_FAMILIES {
            assert!(
                text.contains(&format!("# TYPE {} ", family.name)),
                "`{}` rendered no series:\n{text}",
                family.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
