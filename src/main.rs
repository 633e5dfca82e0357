//! `prophet` — command-line front-end to the Performance Prophet
//! reproduction.
//!
//! ```text
//! prophet check     <model.xml> [--mcf <mcf.xml>]
//! prophet transform <model.xml> [--full] [--skeleton]
//! prophet estimate  <model.xml> [--nodes N] [--cpus C] [--processes P]
//!                   [--threads T] [--backend simulation|analytic]
//!                   [--trace <tf.txt>] [--timeline]
//! prophet sweep     <model.xml> --nodes 1,2,4,8 [--cpus C] [--workers W]
//!                   [--backend simulation|analytic]
//! prophet optimize  <model.xml> [--nodes 1,2,...,16] [--cpus 1,2,4,8]
//!                   [--objective min_time|min_cost|max_speedup_per_cost]
//!                   [--deadline S] [--max-cost C] [--node-weight W]
//!                   [--cpu-weight W] [--backend simulation|analytic]
//!                   [--verify sim] [--margin F] [--stride K] [--workers W]
//! prophet serve     [--addr A] [--workers W] [--store DIR] [--token T]
//! prophet router    --shards H:P,H:P,... [--addr A] [--workers W]
//!                   [--token T] [--probe-ms MS]
//! prophet warm      --store DIR [--mcf <mcf.xml>] <model.xml>...
//! prophet metrics   <url> [--watch SECS]
//! prophet demo      sample|kernel6|jacobi|lapw0|pipeline|master_worker|task_farm|branching_pipeline|halo_ring|mapreduce
//! ```
//!
//! `--backend simulation` (default) replays the model on the DES kernel
//! and can record traces; `--backend analytic` computes the prediction
//! in closed form — much faster for sweeps, no trace.
//!
//! Sweeps flatten each distinct SP point once and share the elaboration
//! across workers and repeat points (the session's elaboration cache).
//!
//! `optimize` is the inverse query: instead of enumerating a grid it
//! searches the `(nodes, cpus)` lattice lazily (coarse seed, then
//! refine only cells whose bound could still contribute) and prints the
//! Pareto frontier over `(cost, time)` with the objective's pick —
//! "cheapest configuration meeting `--deadline 0.02`", "best speedup
//! per cost". `--verify sim` re-checks the frontier with the
//! simulation backend. Costs follow
//! `cost = node_weight·nodes + cpu_weight·nodes·cpus`.
//!
//! `serve` starts the long-running prediction service (prophet-serve):
//! models are compiled once into a session pool and every subsequent
//! request — any connection, any worker — reuses the compiled program
//! and its elaboration cache. `POST /v1/shutdown` drains it gracefully:
//!
//! ```text
//! prophet serve --addr 127.0.0.1:7077 --workers 4 &
//! curl -s localhost:7077/v1/estimate \
//!      -d '{"model_name":"jacobi","nodes":8,"backend":"analytic"}'
//! curl -s localhost:7077/v1/metrics        # pool + elab-cache counters
//! curl -s -X POST localhost:7077/v1/shutdown
//! ```
//!
//! With `--store DIR`, the models a server compiled persist across
//! restarts: the store keeps each model's canonical text, the pool
//! loads (compiles) every stored model at boot, so the first estimate
//! after a restart is a pool reuse with zero pool compiles (visible as
//! a `store.disk_hits` counter on `GET /v1/metrics`), and fresh compiles
//! write their model back. `warm` pre-populates such a store offline:
//!
//! ```text
//! prophet warm --store ./artifacts jacobi.xml sample.xml
//! prophet serve --store ./artifacts
//! ```
//!
//! `router` scales the service out horizontally: it consistent-hashes
//! each request's `(model, MCF)` content digest across N `serve` shards
//! (so the fleet still compiles every model exactly once), health-checks
//! the shards and retries a killed shard's traffic on its ring
//! successor, and aggregates `GET /v1/metrics` fleet-wide. Shards
//! sharing one `--store` directory warm-start from each other's
//! write-backs:
//!
//! ```text
//! prophet serve --addr 127.0.0.1:7071 --store ./artifacts &
//! prophet serve --addr 127.0.0.1:7072 --store ./artifacts &
//! prophet router --shards 127.0.0.1:7071,127.0.0.1:7072
//! ```
//!
//! `--token T` (or the `PROPHET_TOKEN` environment variable) on `serve`
//! and `router` guards `POST /v1/shutdown` behind
//! `Authorization: Bearer T`; the router forwards the header when it
//! broadcasts a fleet shutdown.
//!
//! `metrics` renders a running server's `GET /v1/metrics` document as
//! a table — per-endpoint requests/errors with p50/p90/p99 latency,
//! pool/elab/store counters, and lifetime totals — against a shard or
//! a router (whose document it renders per shard). `--watch SECS`
//! re-fetches and re-prints every SECS seconds until interrupted:
//!
//! ```text
//! prophet metrics localhost:7077
//! prophet metrics http://127.0.0.1:7070 --watch 2
//! ```
//!
//! `demo` prints a ready-made model as XML, so a full round trip is:
//!
//! ```text
//! prophet demo sample > sample.xml
//! prophet check sample.xml
//! prophet transform sample.xml
//! prophet estimate sample.xml --nodes 2 --cpus 2 --timeline
//! ```
//!
//! Exit codes: `0` success, `1` pipeline failure (unreadable model,
//! check/evaluation error), `2` usage error (unknown command, bad or
//! missing argument — the offending token is named before the usage
//! block).

#![forbid(unsafe_code)]

use prophet::check::{check_model, McfConfig};
use prophet::codegen::generate_skeleton;
use prophet::core::{
    render_chain, render_chain_inline, ArtifactKey, ArtifactStore, Backend, Scenario, Session,
    SweepConfig, SweepPoint,
};
use prophet::machine::SystemParams;
use prophet::serve::server::{serve, ServerConfig};
use prophet::trace::{render_timeline, TraceAnalysis};
use prophet::uml::Model;
use std::process::ExitCode;

/// A CLI failure, split by whose fault it is: `Usage` errors name the
/// offending token and are followed by the usage block (exit code 2);
/// `Runtime` errors come from the pipeline itself (exit code 1).
enum CliError {
    Usage(String),
    Runtime(String),
}

/// Shorthand for argument mistakes.
fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Shorthand for pipeline failures.
fn runtime_err(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  prophet check <model.xml> [--mcf <mcf.xml>]\n  prophet transform <model.xml> [--full] [--skeleton]\n  prophet estimate <model.xml> [--nodes N] [--cpus C] [--processes P] [--threads T] [--backend simulation|analytic] [--trace <file>] [--timeline]\n  prophet sweep <model.xml> --nodes 1,2,4,8 [--cpus C] [--workers W] [--backend simulation|analytic]\n  prophet optimize <model.xml> [--nodes 1,2,...,16] [--cpus 1,2,4,8] [--objective min_time|min_cost|max_speedup_per_cost] [--deadline S] [--max-cost C] [--node-weight W] [--cpu-weight W] [--backend simulation|analytic] [--verify sim] [--margin F] [--stride K] [--workers W]\n  prophet serve [--addr A] [--workers W] [--store DIR] [--partition H:P,H:P,...] [--token T]\n  prophet router --shards H:P,H:P,... [--addr A] [--workers W] [--token T] [--probe-ms MS]\n  prophet warm --store DIR [--mcf <mcf.xml>] <model.xml>...\n  prophet store gc --store DIR --max-bytes BYTES\n  prophet metrics <url> [--watch SECS]\n  prophet demo sample|kernel6|jacobi|lapw0|pipeline|master_worker|task_farm|branching_pipeline|halo_ring|mapreduce"
        .to_string()
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage_err("missing command"));
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "transform" => cmd_transform(&args[1..]),
        "estimate" => cmd_estimate(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "router" => cmd_router(&args[1..]),
        "warm" => cmd_warm(&args[1..]),
        "store" => cmd_store(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "demo" => cmd_demo(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(usage_err(format!("unknown command `{other}`"))),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The string value of `flag` — distinguishing "flag absent" (`None`)
/// from "value missing" (end of line, or another flag where the value
/// should be), naming the flag in the error.
fn value_flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        None => Err(usage_err(format!("missing value after `{flag}`"))),
        Some(v) if v.starts_with("--") => Err(usage_err(format!(
            "missing value after `{flag}` (found flag `{v}` instead)"
        ))),
        Some(v) => Ok(Some(v)),
    }
}

/// [`value_flag`], parsed — additionally rejecting unparsable values
/// with the offending token named.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    match value_flag(args, flag)? {
        None => Ok(None),
        Some(value) => value
            .parse()
            .map(Some)
            .map_err(|_| usage_err(format!("invalid value `{value}` for `{flag}`"))),
    }
}

/// Parse a comma-separated count list (`--nodes 1,2,4`): every entry
/// must be a positive integer — zero would flow into the engine as a
/// degenerate `SystemParams` — and repeats are deduplicated (first
/// occurrence wins), so `1,2,4,2,1` evaluates three points, not five.
/// `noun` names the entries in errors ("node count", "cpu count").
fn count_list(noun: &str, flag: &str, list: &str) -> Result<Vec<usize>, CliError> {
    let mut out = Vec::new();
    for s in list.split(',') {
        let n: usize = s
            .trim()
            .parse()
            .map_err(|_| usage_err(format!("bad {noun} `{s}` in `{flag} {list}`")))?;
        if n == 0 {
            return Err(usage_err(format!(
                "bad {noun} `0` in `{flag} {list}`: counts must be at least 1"
            )));
        }
        if !out.contains(&n) {
            out.push(n);
        }
    }
    Ok(out)
}

fn load_model(args: &[String]) -> Result<Model, CliError> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| usage_err("missing <model.xml> argument"))?;
    let xml = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read `{path}`: {e}")))?;
    prophet::uml::xmi::model_from_xml(&xml)
        .map_err(|e| runtime_err(format!("cannot parse `{path}`: {e}")))
}

/// Compile a session, rendering the full error chain on failure.
fn compile(model: Model) -> Result<Session, CliError> {
    Session::new(model).map_err(|e| runtime_err(render_chain(&e)))
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let model = load_model(args)?;
    let mcf = match value_flag(args, "--mcf")? {
        Some(mcf_path) => {
            let mcf_xml = std::fs::read_to_string(mcf_path)
                .map_err(|e| runtime_err(format!("cannot read `{mcf_path}`: {e}")))?;
            McfConfig::from_xml(&mcf_xml).map_err(|e| runtime_err(e.to_string()))?
        }
        None => McfConfig::default(),
    };
    let diags = check_model(&model, &mcf);
    if diags.is_empty() {
        println!(
            "model `{}` conforms ({} elements)",
            model.name,
            model.element_count()
        );
        return Ok(());
    }
    for d in &diags {
        println!("{d}");
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    if errors > 0 {
        Err(runtime_err(format!("{errors} error(s)")))
    } else {
        println!("{} warning(s), no errors", diags.len());
        Ok(())
    }
}

fn cmd_transform(args: &[String]) -> Result<(), CliError> {
    let model = load_model(args)?;
    if has_flag(args, "--skeleton") {
        let skel = generate_skeleton(&model).map_err(|e| runtime_err(e.to_string()))?;
        println!("{skel}");
        return Ok(());
    }
    let unit = prophet::core::transform::to_cpp(&model).map_err(|e| runtime_err(e.to_string()))?;
    if has_flag(args, "--full") {
        println!("{}", unit.full_text());
    } else {
        println!("{}", unit.model_text());
    }
    Ok(())
}

fn system_from(args: &[String]) -> Result<SystemParams, CliError> {
    let nodes = parsed_flag(args, "--nodes")?.unwrap_or(1);
    let cpus = parsed_flag(args, "--cpus")?.unwrap_or(1);
    let processes = parsed_flag(args, "--processes")?.unwrap_or(nodes * cpus);
    let threads = parsed_flag(args, "--threads")?.unwrap_or(1);
    let sp = SystemParams {
        nodes,
        cpus_per_node: cpus,
        processes,
        threads_per_process: threads,
    };
    sp.validate().map_err(|e| runtime_err(e.to_string()))?;
    Ok(sp)
}

fn backend_from(args: &[String]) -> Result<Backend, CliError> {
    match value_flag(args, "--backend")? {
        Some(s) => s.parse().map_err(usage_err),
        None => Ok(Backend::default()),
    }
}

fn cmd_estimate(args: &[String]) -> Result<(), CliError> {
    let sp = system_from(args)?;
    let backend = backend_from(args)?;
    if backend == Backend::Analytic && (has_flag(args, "--trace") || has_flag(args, "--timeline")) {
        return Err(usage_err(
            "the analytic backend records no trace; drop --trace/--timeline or use --backend simulation",
        ));
    }
    let session = compile(load_model(args)?)?;
    let run = session
        .evaluate(&Scenario::new(sp).with_backend(backend))
        .map_err(|e| runtime_err(render_chain(&e)))?;
    println!(
        "model `{}` on {} node(s) × {} cpu(s), {} process(es) × {} thread(s)",
        session.program().name,
        sp.nodes,
        sp.cpus_per_node,
        sp.processes,
        sp.threads_per_process
    );
    println!("backend: {backend}");
    println!("predicted execution time: {:.6} s", run.predicted_time);
    if backend == Backend::Simulation {
        println!(
            "simulation: {} events, {} processes completed",
            run.report.events_processed, run.report.processes_completed
        );
        let analysis = TraceAnalysis::analyze(&run.trace);
        println!("\nelement profile:");
        for p in analysis.profile.iter().take(12) {
            println!(
                "  {:<18} count={:<5} total={:.6}s mean={:.6}s",
                p.element, p.count, p.total_time, p.mean_time
            );
        }
        if let Some(path) = value_flag(args, "--trace")? {
            std::fs::write(path, run.trace.to_text())
                .map_err(|e| runtime_err(format!("cannot write `{path}`: {e}")))?;
            println!("\ntrace written to {path}");
        }
        if has_flag(args, "--timeline") {
            println!("\n{}", render_timeline(&analysis, sp.processes, 72));
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    // Validate every flag before paying the compile cost, so argument
    // mistakes get argument errors (not compile errors) and get them fast.
    let nodes_list = value_flag(args, "--nodes")?
        .ok_or_else(|| usage_err("sweep requires --nodes 1,2,4,..."))?;
    let cpus: usize = parsed_flag(args, "--cpus")?.unwrap_or(1);
    // `--threads` means threads-per-process (SP) in `estimate`; reject it
    // here rather than silently reinterpreting it as the worker pool.
    if has_flag(args, "--threads") {
        return Err(usage_err(
            "sweep evaluates flat-MPI points; use --workers W for the worker-thread pool",
        ));
    }
    let threads: usize = parsed_flag(args, "--workers")?.unwrap_or(0);
    let backend = backend_from(args)?;
    let points: Vec<SweepPoint> = count_list("node count", "--nodes", nodes_list)?
        .into_iter()
        .map(|n| SweepPoint {
            sp: SystemParams::flat_mpi(n, cpus),
        })
        .collect();
    // Unlike the legacy CLI, sweep now gates on the model checker just
    // like `estimate` always has: a model with check errors won't sweep.
    let session = compile(load_model(args)?)?;
    // Stream completion progress to stderr while workers fill the grid.
    let mut done = 0usize;
    let total = points.len();
    let config = SweepConfig {
        threads,
        backend,
        ..Default::default()
    };
    let report = session.sweep_with(&points, &config, |_, _| {
        done += 1;
        eprint!("\r{done}/{total} configurations evaluated");
    });
    if total > 0 {
        eprintln!();
    }
    println!(
        "{:>8} {:>8} {:>14} {:>9}",
        "nodes", "P", "time(s)", "speedup"
    );
    let base = report.points.iter().find_map(|r| r.time());
    for r in &report.points {
        match &r.outcome {
            Ok(t) => {
                let speedup = base.map(|b| b / t).unwrap_or(1.0);
                println!(
                    "{:>8} {:>8} {:>14.6} {:>9.2}",
                    r.sp.nodes, r.sp.processes, t, speedup
                );
            }
            Err(e) => println!(
                "{:>8} {:>8}  failed: {}",
                r.sp.nodes,
                r.sp.processes,
                render_chain_inline(e)
            ),
        }
    }
    Ok(())
}

/// `prophet optimize`: the inverse query — search the `(nodes, cpus)`
/// lattice instead of sweeping it, and print the Pareto frontier over
/// `(cost, predicted time)` plus the objective's pick.
fn cmd_optimize(args: &[String]) -> Result<(), CliError> {
    use prophet::opt::{Constraints, CostWeights, OptError, OptimizeRequest, OptimizeSession};
    let mut req = OptimizeRequest::default();
    if let Some(list) = value_flag(args, "--nodes")? {
        req.nodes = count_list("node count", "--nodes", list)?;
    }
    if let Some(list) = value_flag(args, "--cpus")? {
        req.cpus = count_list("cpu count", "--cpus", list)?;
    }
    if let Some(objective) = value_flag(args, "--objective")? {
        req.objective = objective.parse().map_err(usage_err)?;
    }
    if let Some(verify) = value_flag(args, "--verify")? {
        req.verify = verify.parse().map_err(usage_err)?;
    }
    req.constraints = Constraints {
        deadline: parsed_flag(args, "--deadline")?,
        max_cost: parsed_flag(args, "--max-cost")?,
    };
    let defaults = CostWeights::default();
    req.weights = CostWeights {
        per_node: parsed_flag(args, "--node-weight")?.unwrap_or(defaults.per_node),
        per_cpu: parsed_flag(args, "--cpu-weight")?.unwrap_or(defaults.per_cpu),
    };
    if let Some(margin) = parsed_flag(args, "--margin")? {
        req.margin = margin;
    }
    if let Some(stride) = parsed_flag(args, "--stride")? {
        req.stride = stride;
    }
    req.workers = parsed_flag(args, "--workers")?.unwrap_or(0);
    // Unlike estimate/sweep, the search oracle defaults to the cheap
    // analytic backend; `--backend simulation` searches with the
    // expensive twin directly.
    if let Some(backend) = value_flag(args, "--backend")? {
        req.backend = backend.parse().map_err(usage_err)?;
    }
    // Range mistakes (zero counts, margin ≥ 1, negative weights...) are
    // argument errors: surface them before paying the compile.
    let req = req.normalized().map_err(|e| usage_err(e.to_string()))?;
    let session = compile(load_model(args)?)?;
    let report = session.optimize(&req).map_err(|e| match e {
        OptError::Request(_) => usage_err(e.to_string()),
        other => runtime_err(render_chain(&other)),
    })?;
    println!(
        "model `{}`: {} frontier over the {}-point lattice (oracle: {})",
        session.program().name,
        report.objective,
        report.grid_size,
        report.backend
    );
    let verified = report.frontier.iter().any(|p| p.verified_time.is_some());
    print!(
        "{:>8} {:>6} {:>8} {:>10} {:>14} {:>9}",
        "nodes", "cpus", "P", "cost", "time(s)", "speedup"
    );
    println!(
        "{}",
        if verified {
            format!(" {:>14}", "sim(s)")
        } else {
            String::new()
        }
    );
    for p in &report.frontier {
        print!(
            "{:>8} {:>6} {:>8} {:>10.2} {:>14.6} {:>9.2}",
            p.sp.nodes, p.sp.cpus_per_node, p.sp.processes, p.cost, p.time, p.speedup
        );
        match p.verified_time {
            Some(t) => println!(" {t:>14.6}"),
            None => println!(),
        }
    }
    match report.best_point() {
        Some(best) => println!(
            "best ({}): {} node(s) × {} cpu(s) — time {:.6} s, cost {:.2}, speedup {:.2}",
            report.objective,
            best.sp.nodes,
            best.sp.cpus_per_node,
            best.time,
            best.cost,
            best.speedup
        ),
        None => println!("no feasible configuration meets the constraints"),
    }
    println!(
        "oracle evaluations: {} of {} lattice points ({} cells skipped, {} refined{})",
        report.oracle_evals,
        report.grid_size,
        report.cells_skipped,
        report.cells_refined,
        if report.verifier_evals > 0 {
            format!("; {} sim verifications", report.verifier_evals)
        } else {
            String::new()
        }
    );
    Ok(())
}

/// The operator token for `serve`/`router`: `--token` wins, the
/// `PROPHET_TOKEN` environment variable is the fallback (so process
/// lists don't have to show the secret).
fn token_from(args: &[String]) -> Result<Option<String>, CliError> {
    match value_flag(args, "--token")? {
        Some(token) => Ok(Some(token.to_string())),
        None => Ok(std::env::var("PROPHET_TOKEN")
            .ok()
            .filter(|t| !t.is_empty())),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let addr = value_flag(args, "--addr")?.unwrap_or("127.0.0.1:7077");
    let workers: usize = parsed_flag(args, "--workers")?.unwrap_or(0);
    let token = token_from(args)?;
    let store_dir = value_flag(args, "--store")?;
    let store = store_dir
        .map(|dir| {
            ArtifactStore::open(dir)
                .map(std::sync::Arc::new)
                .map_err(|e| runtime_err(format!("cannot open store `{dir}`: {e}")))
        })
        .transpose()?;
    // `--partition H:P,H:P,...` names the whole fleet; this shard's
    // own label is its `--addr`, which must appear in the list.
    let partition = value_flag(args, "--partition")?
        .map(|list| {
            let fleet: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            if !fleet.contains(&addr.to_string()) {
                return Err(usage_err(format!(
                    "`--partition {list}` does not contain this shard's --addr `{addr}`"
                )));
            }
            Ok((fleet, addr.to_string()))
        })
        .transpose()?;
    let server = serve(&ServerConfig {
        addr: addr.to_string(),
        workers,
        store,
        token,
        partition,
        ..Default::default()
    })
    .map_err(|e| runtime_err(format!("cannot bind `{addr}`: {e}")))?;
    // The actual address first (port 0 resolves here) so scripts and
    // tests can parse where to connect.
    println!("prophet-serve listening on http://{}", server.addr());
    if let Some(dir) = store_dir {
        // serve() warm-started the pool from the store before any
        // worker spawned; everything loaded is a pool entry already.
        println!(
            "store `{dir}`: {} session(s) warm-started",
            server.state().pool.stats().size
        );
    }
    println!("endpoints: POST /v1/check /v1/estimate /v1/sweep /v1/optimize — GET /v1/models /v1/metrics");
    println!("POST /v1/shutdown for graceful drain");
    // Parks until a shutdown request arrives, then drains in-flight
    // requests before returning.
    server.wait();
    println!("prophet-serve drained and stopped");
    Ok(())
}

/// `prophet router`: the scale-out front door over N `serve` shards.
fn cmd_router(args: &[String]) -> Result<(), CliError> {
    let addr = value_flag(args, "--addr")?.unwrap_or("127.0.0.1:7070");
    let workers: usize = parsed_flag(args, "--workers")?.unwrap_or(0);
    let probe_ms: u64 = parsed_flag(args, "--probe-ms")?.unwrap_or(500);
    if probe_ms == 0 {
        return Err(usage_err("`--probe-ms` must be at least 1"));
    }
    let token = token_from(args)?;
    let shard_list = value_flag(args, "--shards")?
        .ok_or_else(|| usage_err("router requires --shards HOST:PORT,HOST:PORT,..."))?;
    let shards: Vec<std::net::SocketAddr> = shard_list
        .split(',')
        .map(|s| {
            s.trim().parse().map_err(|_| {
                usage_err(format!(
                    "bad shard address `{s}` in `--shards {shard_list}`"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let router = prophet::router::start(&prophet::router::RouterConfig {
        addr: addr.to_string(),
        workers,
        shards: shards.clone(),
        token,
        probe_interval: std::time::Duration::from_millis(probe_ms),
        ..Default::default()
    })
    .map_err(|e| runtime_err(format!("cannot bind `{addr}`: {e}")))?;
    println!("prophet-router listening on http://{}", router.addr());
    println!(
        "routing {} shard(s): {}",
        shards.len(),
        shards
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "endpoints: POST /v1/check /v1/estimate /v1/sweep /v1/optimize — GET /v1/models /v1/metrics /v1/shards"
    );
    println!("POST /v1/shutdown broadcasts to the fleet, then drains the router");
    router.wait();
    println!("prophet-router drained and stopped");
    Ok(())
}

/// `prophet warm`: pre-populate a persistent artifact store offline, so
/// a later `prophet serve --store` (or any `Session::compile_stored`
/// caller) finds every given model stored.
fn cmd_warm(args: &[String]) -> Result<(), CliError> {
    let store_dir =
        value_flag(args, "--store")?.ok_or_else(|| usage_err("warm requires --store <dir>"))?;
    let mcf = match value_flag(args, "--mcf")? {
        Some(mcf_path) => {
            let mcf_xml = std::fs::read_to_string(mcf_path)
                .map_err(|e| runtime_err(format!("cannot read `{mcf_path}`: {e}")))?;
            McfConfig::from_xml(&mcf_xml).map_err(|e| runtime_err(e.to_string()))?
        }
        None => McfConfig::default(),
    };

    // Positional arguments are model files; every flag above takes a
    // value, so skip flag/value pairs rather than everything non-`--`.
    const VALUE_FLAGS: [&str; 2] = ["--store", "--mcf"];
    let mut model_paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if VALUE_FLAGS.contains(&arg) {
            i += 2;
            continue;
        }
        if arg.starts_with("--") {
            return Err(usage_err(format!("unknown flag `{arg}` for warm")));
        }
        model_paths.push(arg);
        i += 1;
    }
    if model_paths.is_empty() {
        return Err(usage_err("missing <model.xml> argument"));
    }

    let store = ArtifactStore::open(store_dir)
        .map_err(|e| runtime_err(format!("cannot open store `{store_dir}`: {e}")))?;
    for path in model_paths {
        let xml = std::fs::read_to_string(path)
            .map_err(|e| runtime_err(format!("cannot read `{path}`: {e}")))?;
        let model = prophet::uml::xmi::model_from_xml(&xml)
            .map_err(|e| runtime_err(format!("cannot parse `{path}`: {e}")))?;
        // `hit` comes from the load *succeeding*, not the file existing:
        // a corrupt or stale-version entry is evicted by the load and
        // re-written here. Not `compile_stored`, which swallows write
        // errors that warm must report.
        let loaded = store.load_session(ArtifactKey::of(&model, &mcf));
        let hit = loaded.is_some();
        let session = match loaded {
            Some(session) => session,
            None => {
                let session = Session::compile(model, mcf.clone())
                    .map_err(|e| runtime_err(render_chain(&e)))?;
                store.save_session(&session).map_err(|e| {
                    runtime_err(format!("cannot write store entry for `{path}`: {e}"))
                })?;
                session
            }
        };
        println!(
            "warmed `{}` from {path}: {}",
            session.program().name,
            if hit { "already stored" } else { "stored" },
        );
    }
    let stats = store.stats();
    println!(
        "store `{store_dir}`: {} write(s), {} disk hit(s)",
        stats.writes, stats.disk_hits
    );
    Ok(())
}

/// `prophet store`: persistent-artifact-store maintenance.
fn cmd_store(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("gc") => cmd_store_gc(&args[1..]),
        Some(other) => Err(usage_err(format!("unknown store subcommand `{other}`"))),
        None => Err(usage_err("store requires a subcommand: gc")),
    }
}

/// `prophet store gc`: shrink a store under a byte budget. Corrupt
/// entries go first (they can never be loaded again anyway), then the
/// least-recently-used live entries until the store fits.
fn cmd_store_gc(args: &[String]) -> Result<(), CliError> {
    let dir =
        value_flag(args, "--store")?.ok_or_else(|| usage_err("store gc requires --store <dir>"))?;
    let max_bytes: u64 = parsed_flag(args, "--max-bytes")?
        .ok_or_else(|| usage_err("store gc requires --max-bytes <bytes>"))?;
    let store = ArtifactStore::open(dir)
        .map_err(|e| runtime_err(format!("cannot open store `{dir}`: {e}")))?;
    let report = store.gc(max_bytes);
    println!(
        "store `{dir}`: scanned {} entries ({} bytes)",
        report.entries_scanned, report.bytes_scanned
    );
    println!(
        "evicted {} corrupt, {} by LRU; reclaimed {} bytes",
        report.corrupt_evicted, report.lru_evicted, report.bytes_reclaimed
    );
    println!(
        "retained {} entries ({} bytes) under the {max_bytes}-byte budget",
        report.entries_retained, report.bytes_retained
    );
    Ok(())
}

/// `prophet metrics`: fetch a running server's `/v1/metrics` JSON and
/// render it as tables — against a shard or a router (whose fleet
/// document is rendered per shard). `--watch SECS` loops forever.
fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    // `--watch` takes a value, so extract the positional url by
    // skipping flag/value pairs (the warm command's discipline) — a
    // value like `2` must not be mistaken for the url.
    let mut url: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--watch" {
            i += 2;
            continue;
        }
        if arg.starts_with("--") {
            return Err(usage_err(format!("unknown flag `{arg}` for metrics")));
        }
        if url.is_some() {
            return Err(usage_err(format!("unexpected extra argument `{arg}`")));
        }
        url = Some(arg);
        i += 1;
    }
    let url = url.ok_or_else(|| usage_err("missing <url> argument"))?;
    let watch: Option<u64> = parsed_flag(args, "--watch")?;
    if watch == Some(0) {
        return Err(usage_err(
            "invalid value `0` for `--watch`: must be at least 1 second",
        ));
    }
    let addr = resolve_url(url)?;
    loop {
        let answer = prophet::serve::client::get(addr, "/v1/metrics")
            .map_err(|e| runtime_err(format!("cannot fetch metrics from `{url}`: {e}")))?;
        if answer.status != 200 {
            return Err(runtime_err(format!(
                "`{url}` answered {}: {}",
                answer.status,
                answer.body.encode()
            )));
        }
        if answer.body.get("router").is_some() {
            render_router_metrics(&answer.body);
        } else {
            render_service_metrics(&answer.body, "");
        }
        let Some(secs) = watch else { return Ok(()) };
        std::thread::sleep(std::time::Duration::from_secs(secs));
        println!();
    }
}

/// Resolve `HOST:PORT` (an optional `http://` prefix is stripped) to a
/// socket address, naming the token on failure.
fn resolve_url(url: &str) -> Result<std::net::SocketAddr, CliError> {
    use std::net::ToSocketAddrs;
    let trimmed = url
        .strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/');
    trimmed
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| {
            usage_err(format!(
                "bad server url `{url}`; expected HOST:PORT or http://HOST:PORT"
            ))
        })
}

/// A numeric field of a metrics document, `0` when absent.
fn metric(json: &prophet::serve::json::Json, key: &str) -> u64 {
    json.get(key)
        .and_then(|v| v.as_f64())
        .map(|v| v.max(0.0) as u64)
        .unwrap_or(0)
}

/// Render one serve-shaped metrics document (endpoints, pool, elab,
/// store, lifetime), indented so the router renderer can nest it.
fn render_service_metrics(doc: &prophet::serve::json::Json, indent: &str) {
    use prophet::serve::json::Json;
    println!(
        "{indent}{:<10} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "endpoint", "requests", "errors", "p50(ms)", "p90(ms)", "p99(ms)"
    );
    if let Some(Json::Object(endpoints)) = doc.get("endpoints") {
        for (name, section) in endpoints {
            let requests = metric(section, "requests");
            if requests == 0 {
                continue;
            }
            let latency = section.get("latency");
            let quantile = |key: &str| {
                latency
                    .and_then(|l| l.get(key))
                    .and_then(|v| v.as_f64())
                    .map_or_else(|| "-".to_string(), |us| format!("{:.2}", us / 1000.0))
            };
            println!(
                "{indent}{name:<10} {requests:>9} {:>7} {:>10} {:>10} {:>10}",
                metric(section, "errors"),
                quantile("p50_us"),
                quantile("p90_us"),
                quantile("p99_us"),
            );
        }
    }
    if let Some(pool) = doc.get("session_pool") {
        println!(
            "{indent}pool: size {} ({} bytes) — compiles {}, reuses {}, budget evictions {}",
            metric(pool, "size"),
            metric(pool, "retained_bytes"),
            metric(pool, "compiles"),
            metric(pool, "reuses"),
            metric(pool, "budget_evictions"),
        );
    }
    if let Some(elab) = doc.get("elab") {
        println!(
            "{indent}elab cache: hits {}, misses {}, bypasses {}",
            metric(elab, "hits"),
            metric(elab, "misses"),
            metric(elab, "bypasses"),
        );
    }
    if let Some(store) = doc.get("store") {
        println!(
            "{indent}store: disk hits {}, misses {}, writes {} ({} failed), evictions {}",
            metric(store, "disk_hits"),
            metric(store, "disk_misses"),
            metric(store, "writes"),
            metric(store, "write_errors"),
            metric(store, "evictions"),
        );
    }
    if let Some(journal) = doc.get("journal") {
        println!(
            "{indent}journal: {} request(s) recorded",
            metric(journal, "recorded")
        );
    }
    if let Some(lifetime) = doc.get("lifetime") {
        let total: u64 = match lifetime.get("counters") {
            Some(Json::Object(counters)) => counters
                .iter()
                .filter(|(name, _)| name.ends_with(".requests"))
                .map(|(_, v)| v.as_f64().map(|f| f.max(0.0) as u64).unwrap_or(0))
                .sum(),
            _ => 0,
        };
        println!(
            "{indent}lifetime: {} request(s) across restarts, {} checkpoint(s) this boot",
            total,
            metric(lifetime, "checkpoints"),
        );
    }
}

/// Render a router-shaped metrics document: routing summary, fleet
/// totals, then each shard's section nested under its address.
fn render_router_metrics(doc: &prophet::serve::json::Json) {
    if let Some(routing) = doc.get("router").and_then(|r| r.get("routing")) {
        println!(
            "router: {} shard(s), {} healthy — forwards {}, retries {}, no-shard {}",
            metric(routing, "shards"),
            metric(routing, "healthy"),
            metric(routing, "forwards"),
            metric(routing, "retries"),
            metric(routing, "no_shard"),
        );
    }
    if let Some(fleet) = doc.get("fleet") {
        println!(
            "fleet: {} request(s) ({} errors), {} compile(s), {} reuse(s), {} disk hit(s)",
            metric(fleet, "requests"),
            metric(fleet, "errors"),
            metric(fleet, "session_compiles"),
            metric(fleet, "session_reuses"),
            metric(fleet, "store_disk_hits"),
        );
    }
    let Some(shards) = doc.get("shards").and_then(|s| s.as_array()) else {
        return;
    };
    for shard in shards {
        let addr = shard
            .get("addr")
            .and_then(|a| a.as_str())
            .unwrap_or("<unknown>");
        let healthy = shard.get("healthy").and_then(|h| h.as_bool());
        println!(
            "\nshard {addr} — {}",
            if healthy == Some(true) {
                "healthy"
            } else {
                "DOWN"
            }
        );
        match shard.get("metrics") {
            Some(metrics) => render_service_metrics(metrics, "  "),
            None => {
                if let Some(error) = shard.get("error").and_then(|e| e.as_str()) {
                    println!("  unreachable: {error}");
                }
            }
        }
    }
}

fn cmd_demo(args: &[String]) -> Result<(), CliError> {
    let which = args.first().map(String::as_str).unwrap_or("sample");
    // One registry for `demo` and the service's GET /v1/models, so the
    // CLI and the wire always agree on the bundled workloads.
    let model = prophet::serve::api::demo_model(which)
        .ok_or_else(|| usage_err(format!("unknown demo `{which}`")))?;
    println!("{}", prophet::uml::xmi::model_to_xml(&model));
    Ok(())
}
