//! The traced run (`--trace 1`): where each workload's time goes.
//!
//! Three sources, all recorded in memory and written out at the end:
//!
//! 1. **In-process layer calls.** The workload's own requests are
//!    replayed through each layer's public function, one call per span:
//!    HTTP framing, JSON, model resolve, content key, ring routing, pool
//!    checkout, check and transform, store save and load, elaboration,
//!    batch prepare and replay, the analytic pass, the DES kernel and
//!    the optimizer. A span records name, start, end, parent and request;
//!    a layer's self time is its span minus its children.
//! 2. **The fleet's own journals.** Service phases run with trace IDs,
//!    and each shard's `/v1/requests` journal is drained while they run
//!    and joined to the client's latencies by trace ID, which splits a
//!    request into router hop and shard phases. Counters come from
//!    `/v1/metrics` and `/v1/shards` deltas.
//! 3. **Untraced reference phases** of the same load in the same run:
//!    the difference to the traced phase is the tracing overhead.

use crate::fleet::{self, get_json, number, Fleet};
use crate::load::{self, Pace, Phase, Req};
use crate::models;
use crate::rng::Rng;
use crate::service::{self, Probe};
use crate::stats::{median, quantile, us_since};
use crate::sweep::{self, Expected};
use crate::wire::{request_bytes, Client};
use crate::{Ctx, Report};
use prophet_check::{check_model, McfConfig};
use prophet_core::ring::{route_key, Ring};
use prophet_core::{transform, ArtifactKey, ArtifactStore, Backend, Session};
use prophet_estimator::{
    analytic, BatchProgram, BatchScratch, ElaborationCache, Estimator, EstimatorOptions,
};
use prophet_machine::{CommParams, MachineModel, SystemParams};
use prophet_serve::json::{self, Json};
use prophet_serve::{api, http, SessionPool};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Edit sessions replayed through the in-process layers.
const EDIT_LAYER_SESSIONS: usize = 12;

// ---------------------------------------------------------------- spans

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.open(name, Some(parent), request);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Self time (µs) of every span, grouped by name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"request\": {}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

// -------------------------------------------------------- layer replay

/// What the in-process replay counted besides span times.
#[derive(Default)]
struct Counts {
    body_bytes: Vec<f64>,
    elab_ops: Vec<f64>,
    sim_events: Vec<f64>,
    sim_us: Vec<f64>,
    batch_attempts: u64,
    batch_fallbacks: u64,
    oracle_evals: Vec<f64>,
    eval_fraction: Vec<f64>,
}

/// One request to replay: its path and body, and the SP points and
/// backend its evaluation covers.
struct Replay {
    path: &'static str,
    body: String,
    points: Vec<SystemParams>,
    backend: Backend,
}

/// Replay `requests` through every layer's public function. `pool` is
/// the in-process pool the checkouts go through, `ring` the fleet's
/// placement ring, and `store` a scratch store for save/load.
fn replay_layers(
    tracer: &mut Tracer,
    counts: &mut Counts,
    requests: &[Replay],
    pool: &SessionPool,
    ring: &Ring,
    store: &ArtifactStore,
) -> Result<(), String> {
    let options = EstimatorOptions {
        trace: false,
        ..EstimatorOptions::default()
    };
    let mut scratch = BatchScratch::new();
    let mut seen_models: Vec<ArtifactKey> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let root = tracer.open("request", None, i as u64);
        let raw = request_bytes("POST", r.path, &r.body, None);
        counts.body_bytes.push(r.body.len() as f64);
        let req = tracer
            .time("serve.http.read", root, || {
                http::read_request(&mut raw.as_slice())
            })
            .map_err(|e| e.message)?;
        let body = tracer
            .time("serve.json.parse", root, || json::parse(&req.body))
            .map_err(|e| e.to_string())?;
        let model = tracer
            .time("serve.resolve_model", root, || api::resolve_model(&body))
            .map_err(|r| r.body)?;
        let mcf = tracer
            .time("serve.resolve_mcf", root, || api::resolve_mcf(&body))
            .map_err(|r| r.body)?;
        let key = tracer.time("core.key", root, || ArtifactKey::of(&model, &mcf));
        tracer.time("router.route", root, || ring.successors(route_key(key)));
        let (session, _, _) = tracer.time("serve.pool.checkout", root, || {
            pool.checkout_timed(&model, &mcf)
        })?;

        // Compile-side layers, once per distinct model.
        if !seen_models.contains(&key) {
            seen_models.push(key);
            tracer.time("check.model", root, || check_model(&model, &mcf));
            tracer
                .time("core.to_cpp", root, || transform::to_cpp(&model))
                .map_err(|e| e.to_string())?;
            tracer
                .time("core.to_program", root, || transform::to_program(&model))
                .map_err(|e| e.to_string())?;
            tracer
                .time("store.save", root, || store.save_session(&session))
                .map_err(|e| e.to_string())?;
            if tracer
                .time("store.load", root, || store.load_session(key))
                .is_none()
            {
                return Err("store load after save missed".into());
            }
            let report = tracer
                .time("opt.search", root, || {
                    prophet_opt::optimize(&session, &sweep::optimize_request(1))
                })
                .map_err(|e| e.to_string())?;
            counts.oracle_evals.push(report.oracle_evals as f64);
            counts
                .eval_fraction
                .push(report.oracle_evals as f64 / report.grid_size.max(1) as f64);
        }

        // Evaluation layers, per SP point, on cold elaborations.
        let program = session.program();
        let mut last = 0.0;
        for &sp in &r.points {
            let machine =
                MachineModel::new(sp, CommParams::default()).map_err(|e| e.to_string())?;
            let cache = ElaborationCache::new();
            let ops = tracer
                .time("estimator.elab", root, || {
                    cache.get_or_flatten(program, &machine, options.limits)
                })
                .map_err(|e| e.to_string())?;
            counts
                .elab_ops
                .push(ops.iter().map(|rank| rank.len()).sum::<usize>() as f64);
            let a = tracer
                .time("estimator.analytic", root, || {
                    analytic::evaluate_ops(&program.name, &ops, &machine, &options)
                })
                .map_err(|e| e.to_string())?;
            counts.batch_attempts += 1;
            match tracer.time("estimator.batch_prepare", root, || {
                BatchProgram::prepare(&ops, &machine)
            }) {
                Ok(batch) => {
                    tracer
                        .time("estimator.batch_replay", root, || {
                            batch.evaluate(&program.name, &mut scratch)
                        })
                        .map_err(|e| e.to_string())?;
                }
                Err(_) => counts.batch_fallbacks += 1,
            }
            let t = Instant::now();
            let s = tracer
                .time("sim.run", root, || {
                    Estimator::run_ops(&program.name, &ops, &machine, &options)
                })
                .map_err(|e| e.to_string())?;
            counts.sim_us.push(us_since(t));
            counts.sim_events.push(s.report.events_processed as f64);
            last = match r.backend {
                Backend::Analytic => a.predicted_time,
                Backend::Simulation => s.predicted_time,
            };
        }

        let response = Json::object([
            ("model", Json::from(program.name.as_str())),
            ("backend", Json::from(r.backend.to_string())),
            ("predicted_time", Json::from(last)),
            ("points", Json::from(r.points.len())),
        ]);
        let encoded = tracer.time("serve.json.encode", root, || response.encode());
        let mut sink = Vec::with_capacity(encoded.len() + 160);
        tracer
            .time("serve.http.write", root, || {
                http::Response::json(200, encoded).write_to(&mut sink)
            })
            .map_err(|e| e.to_string())?;
        tracer.close(root);
    }
    Ok(())
}

fn replays_of(probes: &[Probe]) -> Vec<Replay> {
    probes
        .iter()
        .map(|p| Replay {
            path: "/v1/estimate",
            body: p.body.clone(),
            points: vec![p.sp],
            backend: p.backend,
        })
        .collect()
}

// ------------------------------------------------------ fleet journals

/// One shard's journal entry for a traced request.
struct Entry {
    shard: usize,
    total_us: f64,
    phases: [f64; 6],
}

const PHASES: [&str; 6] = [
    "parse",
    "pool",
    "store_load",
    "compile",
    "evaluate",
    "encode",
];

/// Drain both shards' journals until `stop`, keeping entries whose
/// trace ID starts with `prefix`.
fn drain(shards: [SocketAddr; 2], prefix: &str, stop: &AtomicBool) -> HashMap<String, Entry> {
    let mut out = HashMap::new();
    loop {
        let last = stop.load(Ordering::SeqCst);
        for (shard, addr) in shards.iter().enumerate() {
            let Ok(doc) = get_json(*addr, "/v1/requests") else {
                continue;
            };
            for row in doc.get("requests").and_then(Json::as_array).unwrap_or(&[]) {
                let Some(id) = row.get("trace_id").and_then(Json::as_str) else {
                    continue;
                };
                if !id.starts_with(prefix) || out.contains_key(id) {
                    continue;
                }
                let mut phases = [0.0; 6];
                for (i, name) in PHASES.iter().enumerate() {
                    phases[i] = number(row, &["phases", name]).unwrap_or(0.0);
                }
                out.insert(
                    id.to_string(),
                    Entry {
                        shard,
                        total_us: number(row, &["total_us"]).unwrap_or(0.0),
                        phases,
                    },
                );
            }
        }
        if last {
            return out;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Run one traced load phase while draining the journals.
fn traced_phase(
    fleet: &Fleet,
    target: SocketAddr,
    streams: &[&[Req]],
    cycle: bool,
    pace: Pace,
    duration: Duration,
    prefix: &str,
) -> (Phase, HashMap<String, Entry>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| drain(fleet.shards, prefix, &stop));
        let phase = load::run(target, streams, cycle, pace, duration, Some(prefix));
        stop.store(true, Ordering::SeqCst);
        (phase, drainer.join().expect("journal drainer panicked"))
    })
}

/// Counter snapshot of the fleet: summed shard counters plus the
/// router's routing counters.
fn counters(fleet: &Fleet) -> Result<HashMap<&'static str, f64>, String> {
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for shard in fleet.shards {
        let m = get_json(shard, "/v1/metrics")?;
        for (name, path) in [
            ("compiles", ["session_pool", "compiles"]),
            ("reuses", ["session_pool", "reuses"]),
            ("bypasses", ["session_pool", "bypasses"]),
            ("elab_hits", ["elab", "hits"]),
            ("elab_misses", ["elab", "misses"]),
            ("elab_bypasses", ["elab", "bypasses"]),
        ] {
            *out.entry(name).or_default() += number(&m, &path).unwrap_or(0.0);
        }
    }
    let routing = get_json(fleet.router, "/v1/shards")?;
    for name in ["forwards", "retries"] {
        out.insert(name, number(&routing, &["routing", name]).unwrap_or(0.0));
    }
    Ok(out)
}

/// A "where the time goes" table: rows of self time that should add up
/// to the end-to-end figure, and what they leave unexplained.
struct Table {
    title: String,
    e2e_us: f64,
    rows: Vec<(String, f64)>,
}

/// Largest unexplained share of a table that still counts as reconciled.
pub const RECONCILE_LIMIT_PCT: f64 = 25.0;

impl Table {
    fn remainder(&self) -> f64 {
        self.e2e_us - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    fn render(&self) -> Vec<String> {
        let mut out = vec![format!("where the time goes: {}", self.title)];
        let share = |v: f64| 100.0 * v / self.e2e_us;
        for (name, v) in &self.rows {
            out.push(format!("  {name:<32} {v:>12.1} us {:>6.1}%", share(*v)));
        }
        let rest = self.remainder();
        out.push(format!(
            "  {:<32} {rest:>12.1} us {:>6.1}%",
            "unexplained remainder",
            share(rest)
        ));
        out.push(format!(
            "  {:<32} {:>12.1} us {:>6.1}%",
            "end-to-end", self.e2e_us, 100.0
        ));
        out.push(format!(
            "  reconciled: {} (remainder within {RECONCILE_LIMIT_PCT}% of end-to-end)",
            if share(rest).abs() <= RECONCILE_LIMIT_PCT {
                "yes"
            } else {
                "no"
            }
        ));
        out
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Join client traces to journal entries: per-request means of client
/// latency, the part outside the shard, and each shard phase. Means, so
/// that the rows add up: hop is client latency minus the shard's total,
/// and what the shard did not attribute to a phase is the remainder.
fn service_table(
    title: &str,
    outside: &str,
    phase: &Phase,
    journal: &HashMap<String, Entry>,
) -> Table {
    let mut client = Vec::new();
    let mut outer = Vec::new();
    let mut phases: [Vec<f64>; 6] = Default::default();
    for t in phase.traces.iter().filter(|t| t.ok) {
        let Some(e) = journal.get(&t.id) else {
            continue;
        };
        let lat = t.done_us - t.sent_us;
        client.push(lat);
        outer.push(lat - e.total_us);
        for (i, v) in e.phases.iter().enumerate() {
            phases[i].push(*v);
        }
    }
    let mut rows = vec![(outside.to_string(), mean(&outer))];
    for (i, name) in PHASES.iter().enumerate() {
        rows.push((format!("shard.{name}"), mean(&phases[i])));
    }
    Table {
        title: format!(
            "{title} (mean per request; {} of {} traced requests joined to the journal; median {:.1} us)",
            client.len(),
            phase.traces.len(),
            median(&client)
        ),
        e2e_us: mean(&client),
        rows,
    }
}

/// The per-layer metrics every traced run reports, from the span self
/// times (mean per call) and counts of the in-process replay.
fn layer_metrics(report: &mut Report, tracer: &Tracer, counts: &Counts) {
    let times = tracer.self_times();
    let per_call = |name: &str| times.get(name).map_or(f64::NAN, |v| mean(v));
    for (metric, span) in [
        ("serve.http.read_us", "serve.http.read"),
        ("serve.http.write_us", "serve.http.write"),
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.json.encode_us", "serve.json.encode"),
        ("serve.resolve_model_us", "serve.resolve_model"),
        ("serve.resolve_mcf_us", "serve.resolve_mcf"),
        ("core.key_us", "core.key"),
        ("router.route_us", "router.route"),
        ("serve.pool.checkout_us", "serve.pool.checkout"),
        ("check.model_us", "check.model"),
        ("core.to_cpp_us", "core.to_cpp"),
        ("core.to_program_us", "core.to_program"),
        ("store.save_us", "store.save"),
        ("store.load_us", "store.load"),
        ("estimator.elab_us", "estimator.elab"),
        ("estimator.analytic_us", "estimator.analytic"),
        ("estimator.batch_prepare_us", "estimator.batch_prepare"),
        ("estimator.batch_replay_us", "estimator.batch_replay"),
        ("sim.run_us", "sim.run"),
        ("opt.search_us", "opt.search"),
    ] {
        report.metric(metric, per_call(span), "us");
    }
    report.metric("serve.json.body_bytes", median(&counts.body_bytes), "bytes");
    report.metric("estimator.elab_ops", median(&counts.elab_ops), "count");
    report.metric(
        "estimator.batch_fallback_ratio",
        counts.batch_fallbacks as f64 / counts.batch_attempts.max(1) as f64,
        "ratio",
    );
    report.metric("sim.events", median(&counts.sim_events), "count");
    report.metric(
        "sim.events_per_s",
        counts.sim_events.iter().sum::<f64>() / (counts.sim_us.iter().sum::<f64>() / 1e6),
        "1/s",
    );
    report.metric("opt.oracle_evals", median(&counts.oracle_evals), "count");
    report.metric("opt.eval_fraction", median(&counts.eval_fraction), "ratio");
}

/// The fleet-side per-layer metrics of one traced routed phase.
fn fleet_metrics(
    report: &mut Report,
    phase: &Phase,
    journal: &HashMap<String, Entry>,
    before: &HashMap<&'static str, f64>,
    after: &HashMap<&'static str, f64>,
) {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let mut hop = Vec::new();
    let mut phases: [Vec<f64>; 6] = Default::default();
    let mut per_shard = [0usize; 2];
    for t in phase.traces.iter().filter(|t| t.ok) {
        if let Some(e) = journal.get(&t.id) {
            hop.push(t.done_us - t.sent_us - e.total_us);
            for (i, v) in e.phases.iter().enumerate() {
                phases[i].push(*v);
            }
            per_shard[e.shard] += 1;
        }
    }
    let joined = (per_shard[0] + per_shard[1]).max(1) as f64;
    report.metric("router.hop_us", mean(&hop), "us");
    report.metric("router.forwards", d("forwards"), "count");
    report.metric("router.retries", d("retries"), "count");
    report.metric(
        "router.shard_share_max",
        per_shard[0].max(per_shard[1]) as f64 / joined,
        "ratio",
    );
    let checkouts = d("reuses") + d("compiles") + d("bypasses");
    report.metric(
        "serve.pool.reuse_ratio",
        d("reuses") / checkouts.max(1.0),
        "ratio",
    );
    report.metric("serve.pool.compiles", d("compiles"), "count");
    report.metric("serve.pool.bypasses", d("bypasses"), "count");
    let lookups = d("elab_hits") + d("elab_misses") + d("elab_bypasses");
    report.metric(
        "estimator.elab_hit_ratio",
        d("elab_hits") / lookups.max(1.0),
        "ratio",
    );
    // Journal phases are whole microseconds; means keep their digits.
    // Store load and compile are zero on a warm fleet, so they are
    // logged, not reported as metrics.
    for (i, name) in PHASES.iter().enumerate() {
        let value = mean(&phases[i]);
        match *name {
            "store_load" | "compile" => report.extra(&format!("shard.{name}_us"), value, "us"),
            _ => report.metric(&format!("shard.{name}_us"), value, "us"),
        }
    }
    report.metric("client.p99_us", phase.p(0.99), "us");
}

fn overhead_line(report: &mut Report, what: &str, untraced: f64, traced: f64) {
    let overhead = traced / untraced - 1.0;
    report.lines.push(format!(
        "tracing overhead ({what}): untraced {untraced:.1} us, traced {traced:.1} us, {:+.1}%",
        100.0 * overhead
    ));
    report.extra("trace.overhead_frac", overhead, "ratio");
}

/// A fresh artifact store under the output directory.
fn scratch_store(ctx: &Ctx, tag: &str) -> Result<(ArtifactStore, PathBuf), String> {
    let dir = ctx
        .out
        .join(format!("layer-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).map_err(|e| e.to_string())?;
    Ok((store, dir))
}

// ------------------------------------------------------------ workloads

pub fn traced(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut report = match workload {
        "hot_estimate" => traced_hot(ctx, &mut tracer)?,
        "edit_estimate" => traced_edit(ctx, &mut tracer)?,
        _ => traced_sweep(ctx, &mut tracer)?,
    };
    let path = ctx.out.join(format!("spans-{workload}-{}.json", ctx.seed));
    tracer.write(&path).map_err(|e| e.to_string())?;
    report.lines.push(format!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    ));
    report.correct = report.failed == 0;
    Ok(report)
}

fn traced_hot(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let probes = service::hot_probes()?;
    let reqs: Vec<Req> = probes.iter().map(|p| p.req(false)).collect();
    let streams = service::shuffled_streams(&reqs, ctx.nproc, &mut Rng::new(ctx.seed));
    let streams: Vec<&[Req]> = streams.iter().map(Vec::as_slice).collect();
    let ports = fleet::pick_ports(&models::bundled_keys())?;
    let fleet = Fleet::boot(&ctx.bin, ports)?;
    service::warm(fleet.router, &probes)?;
    service::warm(fleet.shards[0], &probes)?;

    let pace = Pace::Open(service::HOT_OPEN_RATE);
    let d = ctx.share(0.25);
    let untraced = load::run(fleet.router, &streams, true, pace, d, None);
    let before = counters(&fleet)?;
    let (routed, journal) = traced_phase(&fleet, fleet.router, &streams, true, pace, d, "r");
    let after = counters(&fleet)?;
    let (direct, direct_journal) =
        traced_phase(&fleet, fleet.shards[0], &streams, true, pace, d, "d");
    let ring = fleet::ring(&fleet.shards);
    fleet.shutdown();

    let mut report = Report::default();
    report.account("routed_open_untraced", &untraced);
    report.account("routed_open_traced", &routed);
    report.account("direct_open_traced", &direct);
    overhead_line(&mut report, "routed p50", untraced.p(0.5), routed.p(0.5));

    // In-process replay: the pool is warm, as the fleet's is.
    let pool = SessionPool::default();
    for p in &probes {
        let body = json::parse(&p.body).map_err(|e| e.to_string())?;
        let model = api::resolve_model(&body).map_err(|r| r.body)?;
        pool.checkout(&model, &McfConfig::default())?;
    }
    let (store, dir) = scratch_store(ctx, "hot")?;
    let mut counts = Counts::default();
    replay_layers(
        tracer,
        &mut counts,
        &replays_of(&probes),
        &pool,
        &ring,
        &store,
    )?;
    let _ = std::fs::remove_dir_all(dir);

    layer_metrics(&mut report, tracer, &counts);
    fleet_metrics(&mut report, &routed, &journal, &before, &after);
    for t in [
        service_table(
            "direct estimate",
            "transport+framing",
            &direct,
            &direct_journal,
        ),
        service_table("routed estimate", "router.hop", &routed, &journal),
    ] {
        report.lines.extend(t.render());
    }
    Ok(report)
}

fn traced_edit(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let warmup = service::warmup_probes()?;
    let streams = service::edit_streams(ctx)?;
    let ports = fleet::pick_ports(&models::bundled_keys())?;
    let fleet = Fleet::boot(&ctx.bin, ports)?;
    service::warm(fleet.router, &warmup)?;

    let pace = Pace::Open(service::EDIT_OPEN_RATE);
    let d = ctx.share(0.4);
    let all: Vec<&[Req]> = streams.iter().map(Vec::as_slice).collect();
    let untraced = load::run(fleet.router, &all, false, pace, d, None);
    let rest = service::remaining(&all, &untraced);
    let before = counters(&fleet)?;
    let (routed, journal) = traced_phase(&fleet, fleet.router, &rest, false, pace, d, "e");
    let after = counters(&fleet)?;
    let ring = fleet::ring(&fleet.shards);
    fleet.shutdown();

    let mut report = Report::default();
    report.account("edit_open_untraced", &untraced);
    report.account("edit_open_traced", &routed);
    overhead_line(&mut report, "routed p50", untraced.p(0.5), routed.p(0.5));

    // In-process replay of the first sessions through a pool of the
    // fleet's capacity.
    let sessions = service::edit_sessions(ctx.seed, EDIT_LAYER_SESSIONS, ctx.nproc)?;
    let probes: Vec<Probe> = sessions.into_iter().flatten().collect();
    let pool = SessionPool::with_capacity(fleet::POOL_CAPACITY);
    let (store, dir) = scratch_store(ctx, "edit")?;
    let mut counts = Counts::default();
    replay_layers(
        tracer,
        &mut counts,
        &replays_of(&probes),
        &pool,
        &ring,
        &store,
    )?;
    let _ = std::fs::remove_dir_all(dir);

    layer_metrics(&mut report, tracer, &counts);
    fleet_metrics(&mut report, &routed, &journal, &before, &after);
    report
        .lines
        .extend(service_table("routed edit estimate", "router.hop", &routed, &journal).render());
    Ok(report)
}

/// Send every model's sweep and optimize requests through the router,
/// with trace IDs, checking each answer against `expected`.
fn fleet_sweeps(
    fleet: &Fleet,
    expected: &[Expected],
    duration: Duration,
) -> (Phase, HashMap<String, Entry>) {
    let nodes: Vec<Json> = (1..=sweep::GRID_NODES).map(Json::from).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| drain(fleet.shards, "s", &stop));
        let mut client = Client::new(fleet.router);
        let mut phase = Phase::default();
        let start = Instant::now();
        while phase.sent == 0 || start.elapsed() < duration {
            for e in expected {
                for (path, backend) in [
                    ("/v1/sweep", Some(Backend::Analytic)),
                    ("/v1/sweep", Some(Backend::Simulation)),
                    ("/v1/optimize", None),
                ] {
                    let mut members = vec![("model_name", Json::from(e.name))];
                    if let Some(b) = backend {
                        members.push(("nodes", Json::Array(nodes.clone())));
                        members.push(("backend", Json::from(b.to_string())));
                    }
                    let body = Json::object(members).encode();
                    phase.sent += 1;
                    let id = format!("s-{}", phase.sent);
                    let sent_us = us_since(start);
                    let reply = client.send(&request_bytes("POST", path, &body, Some(&id)));
                    let done_us = us_since(start);
                    let ok = match &reply {
                        Ok(r) if r.status == 200 => {
                            json::parse(&r.body).is_ok_and(|doc| match backend {
                                Some(Backend::Analytic) => rows_ok(&doc, &e.analytic),
                                Some(Backend::Simulation) => rows_ok(&doc, &e.simulation),
                                None => frontier_ok(&doc, &e.frontier),
                            })
                        }
                        _ => false,
                    };
                    if ok {
                        phase.ok += 1;
                        phase.lat_us.push(done_us - sent_us);
                    } else {
                        phase.failed += 1;
                        phase.lat_us.push(f64::INFINITY);
                        if phase.errors.len() < 5 {
                            phase
                                .errors
                                .push(format!("{path} {}: wrong or failed answer", e.name));
                        }
                    }
                    phase.traces.push(load::TraceRecord {
                        id,
                        sent_us,
                        done_us,
                        ok,
                    });
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (phase, drainer.join().expect("journal drainer panicked"))
    })
}

fn rows_ok(doc: &Json, expected: &[Option<u64>]) -> bool {
    let Some(rows) = doc.get("points").and_then(Json::as_array) else {
        return false;
    };
    rows.len() == expected.len()
        && rows
            .iter()
            .zip(expected)
            .all(|(row, e)| number(row, &["time"]).map(f64::to_bits) == *e)
}

fn frontier_ok(doc: &Json, expected: &[(usize, usize, u64, u64)]) -> bool {
    let Some(rows) = doc.get("frontier").and_then(Json::as_array) else {
        return false;
    };
    let got: Vec<(usize, usize, u64, u64)> = rows
        .iter()
        .filter_map(|p| {
            Some((
                number(p, &["nodes"])? as usize,
                number(p, &["cpus"])? as usize,
                number(p, &["time"])?.to_bits(),
                number(p, &["cost"])?.to_bits(),
            ))
        })
        .collect();
    got == expected
}

/// Jobs in whole rotations for at least `duration`; each job's total µs.
fn job_loop(
    report: &mut Report,
    expected: &[Expected],
    duration: Duration,
    mut run: impl FnMut(usize) -> sweep::Job,
) -> Vec<f64> {
    let mut totals = Vec::new();
    let start = Instant::now();
    while totals.len() % expected.len() != 0 || start.elapsed() < duration {
        let job = run(totals.len() % expected.len());
        report.attempted += 1;
        report.failed += u64::from(!job.ok);
        totals.push(job.total_us);
    }
    totals
}

fn traced_sweep(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let expected = sweep::expectations(ctx.nproc)?;
    let parsed: Vec<_> = expected.iter().map(|e| sweep::parse(&e.xml)).collect();
    let mut report = Report::default();

    // Tracing overhead: the same jobs, with and without a span around
    // each job.
    let d = ctx.share(0.25);
    let untraced = job_loop(&mut report, &expected, d, |m| {
        sweep::run_job(&expected[m], parsed[m].clone(), ctx.nproc)
    });
    let traced = job_loop(&mut report, &expected, d, |m| {
        let root = tracer.open("job", None, m as u64);
        let job = tracer.time("sweep.job", root, || {
            sweep::run_job(&expected[m], parsed[m].clone(), ctx.nproc)
        });
        tracer.close(root);
        job
    });
    overhead_line(&mut report, "job p50", median(&untraced), median(&traced));

    // Where the time goes, serially (one worker), per model.
    let options = EstimatorOptions {
        trace: false,
        ..EstimatorOptions::default()
    };
    let mut per_model: Vec<[f64; 8]> = Vec::new();
    for model in &parsed {
        let compile = || Session::compile(model.clone(), McfConfig::default());
        let session = compile().map_err(|e| e.to_string())?;
        let t = Instant::now();
        session.sweep_with(
            &sweep::grid(),
            &sweep::sweep_config(Backend::Analytic, 1),
            |_, _| {},
        );
        let analytic_e2e = us_since(t);
        let t = Instant::now();
        session.sweep_with(
            &sweep::grid(),
            &sweep::sweep_config(Backend::Simulation, 1),
            |_, _| {},
        );
        let des_e2e = us_since(t);
        let t = Instant::now();
        let opt_report = prophet_opt::optimize(&session, &sweep::optimize_request(1))
            .map_err(|e| e.to_string())?;
        let opt_e2e = us_since(t);

        let fresh = compile().map_err(|e| e.to_string())?;
        let (mut elab, mut prep, mut replay, mut sim) = (0.0, 0.0, 0.0, 0.0);
        let mut scratch = BatchScratch::new();
        for p in sweep::grid() {
            let machine =
                MachineModel::new(p.sp, CommParams::default()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let cached =
                fresh
                    .elab_cache()
                    .get_or_flatten(fresh.program(), &machine, options.limits);
            elab += us_since(t);
            let Ok(ops) = cached else { continue };
            let t = Instant::now();
            if let Ok(batch) = BatchProgram::prepare(&ops, &machine) {
                prep += us_since(t);
                let t = Instant::now();
                let _ = std::hint::black_box(batch.evaluate(&fresh.program().name, &mut scratch));
                replay += us_since(t);
            }
            let t = Instant::now();
            let _ = std::hint::black_box(Estimator::run_ops(
                &fresh.program().name,
                &ops,
                &machine,
                &options,
            ));
            sim += us_since(t);
        }
        // The optimizer's oracle work, priced at this model's per-point
        // elaboration and batch cost.
        let per_point = (elab + prep + replay) / sweep::GRID_NODES as f64;
        let oracle = opt_report.oracle_evals as f64 * per_point;
        per_model.push([
            analytic_e2e,
            elab,
            prep,
            replay,
            des_e2e,
            sim,
            opt_e2e,
            oracle,
        ]);
    }
    let col = |i: usize| mean(&per_model.iter().map(|r| r[i]).collect::<Vec<_>>());
    let tables = [
        Table {
            title: "64-point analytic sweep (1 worker, cold elaborations, mean over models)".into(),
            e2e_us: col(0),
            rows: vec![
                ("estimator.elab".into(), col(1)),
                ("estimator.batch_prepare".into(), col(2)),
                ("estimator.batch_replay".into(), col(3)),
            ],
        },
        Table {
            title: "64-point DES sweep (1 worker, warm elaborations, mean over models)".into(),
            e2e_us: col(4),
            rows: vec![("sim.run".into(), col(5))],
        },
        Table {
            title: "optimize (1 worker, default 16x4 lattice, mean over models)".into(),
            e2e_us: col(6),
            rows: vec![("oracle evaluations (elab+batch)".into(), col(7))],
        },
    ];

    // Service layers for the same jobs: their /v1/sweep and
    // /v1/optimize requests through a fleet, and in-process.
    let ports = fleet::pick_ports(&models::bundled_keys())?;
    let fleet = Fleet::boot(&ctx.bin, ports)?;
    let before = counters(&fleet)?;
    let (phase, journal) = fleet_sweeps(&fleet, &expected, ctx.share(0.2));
    let after = counters(&fleet)?;
    let ring = fleet::ring(&fleet.shards);
    fleet.shutdown();
    report.account("fleet_sweeps_traced", &phase);

    let replays: Vec<Replay> = expected
        .iter()
        .map(|e| Replay {
            path: "/v1/sweep",
            body: Json::object([
                ("model_name", Json::from(e.name)),
                (
                    "nodes",
                    Json::Array((1..=sweep::GRID_NODES).map(Json::from).collect()),
                ),
                ("backend", Json::from("analytic")),
            ])
            .encode(),
            points: sweep::grid().iter().map(|p| p.sp).collect(),
            backend: Backend::Analytic,
        })
        .collect();
    let (store, dir) = scratch_store(ctx, "sweep")?;
    let mut counts = Counts::default();
    replay_layers(
        tracer,
        &mut counts,
        &replays,
        &SessionPool::default(),
        &ring,
        &store,
    )?;
    let _ = std::fs::remove_dir_all(dir);

    layer_metrics(&mut report, tracer, &counts);
    fleet_metrics(&mut report, &phase, &journal, &before, &after);
    for t in tables {
        report.lines.extend(t.render());
    }
    report.lines.push(format!(
        "job latency p50 {:.1} us, p90 {:.1} us over {} traced jobs",
        median(&traced),
        quantile(&traced, 0.9),
        traced.len()
    ));
    Ok(report)
}
