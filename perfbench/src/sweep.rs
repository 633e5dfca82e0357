//! `sweep_optimize`: the library workload, in-process and without
//! sockets. Each job takes the next bundled model in a seeded rotation
//! and runs compile, a 64-point analytic sweep (cold elaborations), a
//! 64-point simulation sweep over the same grid (warm elaborations) and
//! a lazy optimize over the default lattice, with `nproc` workers.

use crate::models;
use crate::stats::{median, quantile, us_since};
use crate::{Ctx, Report};
use prophet_check::McfConfig;
use prophet_core::{mpi_grid, Backend, Session, SweepConfig, SweepPoint, SweepReport};
use prophet_opt::{OptimizeReport, OptimizeRequest};
use prophet_uml::Model;
use std::time::Instant;

/// Points per sweep: nodes 1..=64, one cpu per node.
pub const GRID_NODES: usize = 64;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything a job on one model must reproduce.
pub struct Expected {
    pub name: &'static str,
    pub xml: String,
    /// Per grid point, analytic then simulation: predicted-time bits or
    /// the fact that the point fails.
    pub analytic: Vec<Option<u64>>,
    pub simulation: Vec<Option<u64>>,
    /// The lazy frontier as `(nodes, cpus, time bits, cost bits)`.
    pub frontier: Vec<(usize, usize, u64, u64)>,
}

pub fn grid() -> Vec<SweepPoint> {
    mpi_grid(&(1..=GRID_NODES).collect::<Vec<_>>(), 1)
}

pub fn sweep_config(backend: Backend, threads: usize) -> SweepConfig {
    SweepConfig {
        threads,
        backend,
        ..SweepConfig::default()
    }
}

pub fn optimize_request(workers: usize) -> OptimizeRequest {
    OptimizeRequest {
        workers,
        ..OptimizeRequest::default()
    }
}

pub fn frontier(report: &OptimizeReport) -> Vec<(usize, usize, u64, u64)> {
    report
        .frontier
        .iter()
        .map(|p| {
            (
                p.sp.nodes,
                p.sp.cpus_per_node,
                p.time.to_bits(),
                p.cost.to_bits(),
            )
        })
        .collect()
}

pub fn parse(xml: &str) -> Model {
    prophet_uml::xmi::model_from_xml(xml).expect("bundled model XML parses")
}

/// Expected answers for every model: each sweep point evaluated on its
/// own, and the lazy frontier checked once against brute force.
pub fn expectations(workers: usize) -> Result<Vec<Expected>, String> {
    let mut out = Vec::new();
    for name in models::names() {
        let xml = prophet_uml::xmi::model_to_xml(&models::bundled(name));
        let session = Session::compile(parse(&xml), McfConfig::default())
            .map_err(|e| format!("{name}: {e}"))?;
        let single = |backend| -> Vec<Option<u64>> {
            grid()
                .iter()
                .map(|p| models::expected(&session, p.sp, backend).ok())
                .collect()
        };
        let analytic = single(Backend::Analytic);
        let simulation = single(Backend::Simulation);
        let req = optimize_request(workers);
        let lazy = prophet_opt::optimize(&session, &req).map_err(|e| format!("{name}: {e}"))?;
        let brute = prophet_opt::brute_force(&session, &req).map_err(|e| format!("{name}: {e}"))?;
        if frontier(&lazy) != frontier(&brute) {
            return Err(format!("{name}: lazy frontier differs from brute force"));
        }
        out.push(Expected {
            name,
            xml,
            analytic,
            simulation,
            frontier: frontier(&lazy),
        });
    }
    Ok(out)
}

/// Whether every row of `report` matches the single evaluations.
pub fn rows_match(report: &SweepReport, expected: &[Option<u64>]) -> bool {
    report.points.len() == expected.len()
        && report
            .points
            .iter()
            .zip(expected)
            .all(|(p, e)| p.time().map(f64::to_bits) == *e)
}

/// Parse every model and run one warm-up job on it: the set-up a job
/// loop needs before its timings settle.
fn setup_once(expected: &[Expected], workers: usize) -> Result<f64, String> {
    let start = Instant::now();
    for e in expected {
        if !run_job(e, parse(&e.xml), workers).ok {
            return Err(format!("{}: warm-up job answered wrong", e.name));
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// One timed job's durations in µs, and whether its answers matched.
pub struct Job {
    pub compile_us: f64,
    pub analytic_us: f64,
    pub des_us: f64,
    pub optimize_us: f64,
    pub total_us: f64,
    pub ok: bool,
}

pub fn run_job(e: &Expected, model: Model, workers: usize) -> Job {
    let start = Instant::now();
    let Ok(session) = Session::compile(model, McfConfig::default()) else {
        return Job {
            compile_us: us_since(start),
            analytic_us: 0.0,
            des_us: 0.0,
            optimize_us: 0.0,
            total_us: us_since(start),
            ok: false,
        };
    };
    let compile_us = us_since(start);
    let t = Instant::now();
    let analytic = session.sweep_with(
        &grid(),
        &sweep_config(Backend::Analytic, workers),
        |_, _| {},
    );
    let analytic_us = us_since(t);
    let t = Instant::now();
    let des = session.sweep_with(
        &grid(),
        &sweep_config(Backend::Simulation, workers),
        |_, _| {},
    );
    let des_us = us_since(t);
    let t = Instant::now();
    let lazy = prophet_opt::optimize(&session, &optimize_request(workers));
    let optimize_us = us_since(t);
    let total_us = us_since(start);
    let ok = rows_match(&analytic, &e.analytic)
        && rows_match(&des, &e.simulation)
        && lazy.is_ok_and(|r| frontier(&r) == e.frontier);
    Job {
        compile_us,
        analytic_us,
        des_us,
        optimize_us,
        total_us,
        ok,
    }
}

/// `sweep_optimize`, timed.
pub fn timed(ctx: &Ctx) -> Result<Report, String> {
    let expected = expectations(ctx.nproc)?;
    let setups = (0..SETUPS)
        .map(|_| setup_once(&expected, ctx.nproc))
        .collect::<Result<Vec<_>, _>>()?;
    let n = expected.len();
    let first = (ctx.seed % n as u64) as usize;
    // Models are parsed before the clock starts; each job owns a copy.
    let parsed: Vec<Model> = expected.iter().map(|e| parse(&e.xml)).collect();

    // Whole rotations only, so every model weighs the same in each;
    // the metrics are the median rotation.
    let mut jobs = Vec::new();
    let mut rotations: Vec<(f64, f64, f64)> = Vec::new();
    let start = Instant::now();
    while rotations.is_empty() || start.elapsed() < ctx.share(1.0) {
        let began = Instant::now();
        let totals: Vec<f64> = (0..n)
            .map(|i| {
                let m = (first + i) % n;
                let job = run_job(&expected[m], parsed[m].clone(), ctx.nproc);
                let total = job.total_us;
                jobs.push(job);
                total
            })
            .collect();
        let rate = n as f64 / began.elapsed().as_secs_f64();
        rotations.push((rate, median(&totals), quantile(&totals, 0.9)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rot = |f: fn(&(f64, f64, f64)) -> f64| median(&rotations.iter().map(f).collect::<Vec<_>>());

    let mut report = Report::default();
    report.attempted = jobs.len() as u64;
    report.failed = jobs.iter().filter(|j| !j.ok).count() as u64;
    report.correct = report.failed == 0;
    let col = |f: fn(&Job) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    report.lines.push(format!(
        "phase jobs: sent={} ok={} failed={} rotations={} elapsed={elapsed:.3}s",
        jobs.len(),
        jobs.len() as u64 - report.failed,
        report.failed,
        rotations.len()
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput", rot(|r| r.0), "1/s");
    report.metric("latency_p50_us", rot(|r| r.1), "us");
    report.extra("latency_p90_us", rot(|r| r.2), "us");
    report.metric(
        "rss_mb",
        crate::fleet::peak_rss_mib("/proc/self/status"),
        "MiB",
    );
    report.extra("compile_us", median(&col(|j| j.compile_us)), "us");
    report.extra(
        "sweep_analytic_ms",
        median(&col(|j| j.analytic_us)) / 1e3,
        "ms",
    );
    report.extra("sweep_des_ms", median(&col(|j| j.des_us)) / 1e3, "ms");
    report.extra("optimize_ms", median(&col(|j| j.optimize_us)) / 1e3, "ms");
    report.extra(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}
