//! Cache-equivalence suite: the elaboration cache is a pure
//! memoization.
//!
//! For every bundled workload model, an SP sweep served from the
//! session's `ElaborationCache` must be **bit-identical** to the
//! uncached reference evaluation of every point — `Estimator::run` for
//! the simulation, `elaborate` + `BatchProgram::prepare` + `evaluate`
//! for the analytic backend — and the hit/miss
//! counters must match the predicted S-vs-S×R pattern: R sweeps over S
//! SP points on both backends perform exactly S elaborations (the first
//! sweep's misses); every other evaluation is a hit.

use prophet::core::{Backend, ElabStats, Scenario, Session, SweepConfig};
use prophet::estimator::{
    elaborate, BatchProgram, BatchScratch, ElabForm, Estimator, EstimatorOptions,
};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::uml::Model;
use prophet::workloads::models::{
    branching_pipeline_model, halo_ring_model, jacobi_model, kernel6_model, lapw0_model,
    mapreduce_model, master_worker_model, pipeline_model, sample_model, task_farm_model,
};

/// How many times each grid is swept (the R of S×R).
const REPEATS: u64 = 4;

fn flat_grid() -> Vec<SystemParams> {
    [1, 2, 3, 4, 6, 8, 12, 16]
        .map(|n| SystemParams::flat_mpi(n, 1))
        .to_vec()
}

fn hybrid_grid() -> Vec<SystemParams> {
    [1, 2, 3, 4, 6, 8, 12, 16]
        .map(|n| SystemParams {
            nodes: n,
            cpus_per_node: 2,
            processes: n,
            threads_per_process: 2,
        })
        .to_vec()
}

/// Every bundled workload model with an 8-point grid.
fn cases() -> Vec<(&'static str, Model, Vec<SystemParams>)> {
    vec![
        ("kernel6", kernel6_model(500, 10, 2e-9), flat_grid()),
        ("sample", sample_model(), flat_grid()),
        ("jacobi", jacobi_model(50_000, 3, 1e-8), flat_grid()),
        ("pipeline", pipeline_model(8, 0.01, 1024), flat_grid()),
        (
            "master_worker",
            master_worker_model(16, 0.005, 128),
            flat_grid(),
        ),
        ("lapw0", lapw0_model(32, 8, 1e-5), hybrid_grid()),
        ("task_farm", task_farm_model(8, 0.002, 512), flat_grid()),
        (
            "branching_pipeline",
            branching_pipeline_model(24, 0.004, 2048),
            flat_grid(),
        ),
        ("halo_ring", halo_ring_model(16, 0.003, 4096), flat_grid()),
        ("mapreduce", mapreduce_model(4096, 1e-6, 64), flat_grid()),
    ]
}

fn sweep_times(session: &Session, grid: &[SystemParams], backend: Backend) -> Vec<Option<f64>> {
    let config = SweepConfig {
        backend,
        ..Default::default()
    };
    let points: Vec<_> = grid
        .iter()
        .map(|&sp| prophet::core::SweepPoint { sp })
        .collect();
    session.sweep_with(&points, &config, |_, _| {}).times()
}

/// The uncached reference for [`sweep_times`]: every point elaborated
/// from scratch and evaluated on `backend`, bypassing the session's
/// cache.
fn reference_times(session: &Session, grid: &[SystemParams], backend: Backend) -> Vec<Option<f64>> {
    let program = session.program();
    let options = EstimatorOptions {
        trace: false,
        ..Default::default()
    };
    let mut scratch = BatchScratch::new();
    grid.iter()
        .map(|&sp| {
            let machine = MachineModel::new(sp, CommParams::default()).unwrap();
            let evaluation = match backend {
                Backend::Simulation => Estimator::run(program, &machine, &options),
                Backend::Analytic => elaborate(program, &machine, options.limits, ElabForm::Lean)
                    .map_err(Into::into)
                    .and_then(|ops| BatchProgram::prepare(&ops, &machine))
                    .and_then(|batch| batch.evaluate(&program.name, &mut scratch)),
            };
            evaluation.ok().map(|e| e.predicted_time)
        })
        .collect()
}

fn assert_bit_identical(name: &str, backend: Backend, a: &[Option<f64>], b: &[Option<f64>]) {
    assert_eq!(a.len(), b.len(), "{name}/{backend}");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        match (x, y) {
            (Some(x), Some(y)) => assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}/{backend} point {i}: cached {x:?} != uncached {y:?}"
            ),
            (None, None) => {}
            other => panic!("{name}/{backend} point {i}: outcome kind diverged: {other:?}"),
        }
    }
}

/// Headline equivalence: cached sweeps are bit-identical to the
/// uncached reference for every model × backend, on the first sweep
/// (all misses) and on a repeat (all hits).
#[test]
fn cached_sweeps_are_bit_identical_to_uncached() {
    for (name, model, grid) in cases() {
        let session = Session::new(model).unwrap_or_else(|e| panic!("{name}: {e}"));
        for backend in [Backend::Simulation, Backend::Analytic] {
            let uncached = reference_times(&session, &grid, backend);
            assert!(
                uncached.iter().all(Option::is_some),
                "{name}/{backend}: {uncached:?}"
            );
            for _ in 0..2 {
                let cached = sweep_times(&session, &grid, backend);
                assert_bit_identical(name, backend, &cached, &uncached);
            }
        }
    }
}

/// Counter contract: R sweeps over S SP points × both backends = S misses,
/// everything else hits — the flatten-once sweep pattern.
#[test]
fn counters_match_the_s_vs_sxr_pattern() {
    for (name, model, grid) in cases() {
        let session = Session::new(model).unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = grid.len() as u64;
        let r = REPEATS;
        assert_eq!(session.elab_stats(), ElabStats::default(), "{name}");

        // R sweeps on the simulation backend: S misses, S×(R−1) hits.
        for _ in 0..r {
            sweep_times(&session, &grid, Backend::Simulation);
        }
        let stats = session.elab_stats();
        assert_eq!(stats.misses, s, "{name}: {stats:?}");
        assert_eq!(stats.hits, s * (r - 1), "{name}: {stats:?}");
        assert_eq!(stats.bypasses, 0, "{name}: {stats:?}");

        // The analytic backend reuses the same elaborations: no new
        // misses, S more hits — S×R×2 evaluations, S flattens total.
        for _ in 0..r {
            sweep_times(&session, &grid, Backend::Analytic);
        }
        let stats = session.elab_stats();
        assert_eq!(stats.misses, s, "{name}: backends must share: {stats:?}");
        assert_eq!(stats.hits, s * (2 * r - 1), "{name}: {stats:?}");
        assert_eq!(stats.lookups(), s * r * 2, "{name}: {stats:?}");
    }
}

/// Single-scenario path: `Session::evaluate` shares the same cache as
/// sweeps. Untraced and analytic evaluations reuse the sweep's lean
/// entry; a traced simulation needs the trace markers, so it fills its
/// own traced entry exactly once.
#[test]
fn evaluate_and_sweep_share_one_cache() {
    let session = Session::new(jacobi_model(50_000, 3, 1e-8)).unwrap();
    let grid = flat_grid();
    sweep_times(&session, &grid, Backend::Simulation);
    let before = session.elab_stats();

    // Traced at a swept point: one miss for the traced form ...
    let e = session.evaluate(&Scenario::new(grid[3])).unwrap();
    assert!(!e.trace.is_empty());
    let stats = session.elab_stats();
    assert_eq!(stats.misses, before.misses + 1, "{stats:?}");
    assert_eq!(stats.hits, before.hits, "{stats:?}");
    // ... then a hit, with the same trace.
    let again = session.evaluate(&Scenario::new(grid[3])).unwrap();
    let stats = session.elab_stats();
    assert_eq!(stats.misses, before.misses + 1, "{stats:?}");
    assert_eq!(stats.hits, before.hits + 1, "{stats:?}");
    assert_eq!(again.trace.events, e.trace.events);

    // Untraced and analytic evaluations at that point still hit the
    // sweep's lean entry, and agree with the traced run.
    for scenario in [
        Scenario::new(grid[3]).without_trace(),
        Scenario::new(grid[3]).with_backend(Backend::Analytic),
    ] {
        let lean = session.evaluate(&scenario).unwrap();
        assert!(lean.trace.is_empty());
        assert_eq!(lean.predicted_time.to_bits(), e.predicted_time.to_bits());
    }
    let stats = session.elab_stats();
    assert_eq!(stats.misses, before.misses + 1, "{stats:?}");
    assert_eq!(stats.hits, before.hits + 3, "{stats:?}");

    // The cached traced run equals an uncached traced run exactly.
    let machine = MachineModel::new(grid[3], CommParams::default()).unwrap();
    let uncached =
        Estimator::run(session.program(), &machine, &EstimatorOptions::default()).unwrap();
    assert_eq!(e.trace.events, uncached.trace.events);
    assert_eq!(
        e.trace.end_time.to_bits(),
        uncached.trace.end_time.to_bits()
    );
    assert_eq!(e.report.events_processed, uncached.report.events_processed);
    assert_eq!(
        e.predicted_time.to_bits(),
        uncached.predicted_time.to_bits()
    );

    // A comm-parameter change is part of the key: a miss, not a stale hit.
    let misses = session.elab_stats().misses;
    let fast = session
        .evaluate(&Scenario::new(grid[3]).with_comm(CommParams::fast_interconnect()))
        .unwrap();
    assert_eq!(session.elab_stats().misses, misses + 1);
    // And the prediction differs (jacobi communicates), proving the
    // cache did not serve the default-comm elaboration.
    assert_ne!(fast.predicted_time.to_bits(), e.predicted_time.to_bits());
}
