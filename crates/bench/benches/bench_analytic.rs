//! Analytic-backend benchmarks: the sweep-throughput win of resolving
//! predictions in closed form instead of replaying them on the DES
//! kernel, guarded by a cross-backend agreement check so the speedup is
//! never measured against wrong answers.

use criterion::{criterion_group, criterion_main, Criterion};
use prophet_core::{mpi_grid, Backend, Scenario, Session, SweepConfig, SweepPoint};
use prophet_estimator::{
    analytic, elaborate, BatchProgram, BatchScratch, ElabForm, EstimatorOptions,
};
use prophet_machine::{CommParams, MachineModel, SystemParams};
use prophet_workloads::models::jacobi_model;

fn grid_64() -> Vec<SweepPoint> {
    // 64 points: node counts 1..=16 at 1/2/4/8 cpus each.
    let nodes: Vec<usize> = (1..=16).collect();
    let mut points = Vec::new();
    for cpus in [1usize, 2, 4, 8] {
        points.extend(mpi_grid(&nodes, cpus));
    }
    points
}

fn config(backend: Backend) -> SweepConfig {
    SweepConfig {
        threads: 1, // serial: measure per-point engine cost, not fan-out
        backend,
        ..Default::default()
    }
}

fn bench_analytic(c: &mut Criterion) {
    let session = Session::new(jacobi_model(100_000, 10, 1e-8)).expect("compile");
    let big = grid_64();

    // Agreement guard: the analytic sweep must reproduce the simulated
    // sweep within the conformance tolerance (1e-9 relative, the
    // contract pinned by tests/conformance.rs) before we time anything.
    let sim = session.sweep_with(&big, &config(Backend::Simulation), |_, _| {});
    let ana = session.sweep_with(&big, &config(Backend::Analytic), |_, _| {});
    assert_eq!(sim.failures(), 0);
    assert_eq!(ana.failures(), 0);
    for (s, a) in sim.times().iter().zip(ana.times().iter()) {
        let (s, a) = (s.unwrap(), a.unwrap());
        assert!(
            (s - a).abs() <= s.abs().max(a.abs()) * 1e-9,
            "backends diverge: simulation {s} vs analytic {a}"
        );
    }

    let scenario = Scenario::new(SystemParams::flat_mpi(8, 1)).without_trace();
    let mut group = c.benchmark_group("analytic/jacobi_evaluate");
    group.bench_function("simulation", |b| {
        b.iter(|| session.evaluate(&scenario).unwrap().predicted_time)
    });
    group.bench_function("analytic", |b| {
        b.iter(|| {
            session
                .evaluate(&scenario.clone().with_backend(Backend::Analytic))
                .unwrap()
                .predicted_time
        })
    });
    group.finish();

    let mut group = c.benchmark_group("analytic/jacobi_64pt_sweep");
    group.sample_size(10);
    group.bench_function("simulation", |b| {
        b.iter(|| session.sweep_with(&big, &config(Backend::Simulation), |_, _| {}))
    });
    group.bench_function("analytic", |b| {
        b.iter(|| session.sweep_with(&big, &config(Backend::Analytic), |_, _| {}))
    });
    group.finish();

    // Elaboration-cache contract on the repeated-sweep workload: the
    // same 8-point grid swept 8 times. The uncached reference re-flattens
    // and re-prepares every one of the 64 evaluations (serially, into one
    // reused scratch); cached, only the first 8 flatten — and since
    // flattening dominates the analytic per-point cost (the PR 2 finding
    // that motivated the cache), the cached sweep must be at least 1.5×
    // the uncached throughput. Measured best-of-3 to shrug off scheduler
    // noise before the timed comparison groups run.
    let grid8 = mpi_grid(&[1, 2, 4, 8, 16, 32, 64, 128], 1);
    let cached_8_times = || {
        for _ in 0..8 {
            assert_eq!(
                session
                    .sweep_with(&grid8, &config(Backend::Analytic), |_, _| {})
                    .failures(),
                0
            );
        }
    };
    let limits = EstimatorOptions::default().limits;
    let uncached_8_times = || {
        let program = session.program();
        let mut scratch = BatchScratch::new();
        for _ in 0..8 {
            for point in &grid8 {
                let machine = MachineModel::new(point.sp, CommParams::default()).unwrap();
                let ops = elaborate(program, &machine, limits, ElabForm::Lean).unwrap();
                let batch = BatchProgram::prepare(&ops, &machine).unwrap();
                let evaluation = batch.evaluate(&program.name, &mut scratch).unwrap();
                std::hint::black_box(evaluation.predicted_time);
            }
        }
    };
    let best_of_3 = |pass: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                pass();
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    cached_8_times(); // warm the cache and the branch predictors

    // Shared CI runners can deschedule a whole measurement window, so
    // give the wall-clock guard a few attempts before declaring the
    // speedup gone (the deterministic flatten-count contract is pinned
    // separately in bench_sweep); measured speedup is ~27x on a 2-core
    // VM.
    let mut speedup = 0.0f64;
    for _ in 0..3 {
        let cached = best_of_3(&cached_8_times);
        let uncached = best_of_3(&uncached_8_times);
        speedup = speedup.max(uncached.as_secs_f64() / cached.as_secs_f64());
        if speedup >= 1.5 {
            break;
        }
    }
    assert!(
        speedup >= 1.5,
        "cached repeated sweep must be >= 1.5x uncached in at least one of \
         3 attempts, best was {speedup:.2}x"
    );
    println!("elab cache speedup on 8pt x 8 analytic sweeps: {speedup:.2}x");

    let mut group = c.benchmark_group("analytic/jacobi_8pt_x8_sweep");
    group.sample_size(10);
    group.bench_function("elab_cached", |b| b.iter(cached_8_times));
    group.bench_function("elab_uncached", |b| b.iter(uncached_8_times));
    group.finish();

    // Batch-path floor: a cached analytic sweep replays each point
    // through `prophet_estimator::batch` (compacted ops, statically
    // matched messages, reused scratch), while the per-point pass runs
    // the reference walker (`analytic::evaluate_ops`) over the same
    // cached op lists. Both sides run warm on the same elab cache, so
    // the ratio isolates the batch walk itself. The floor is 3x
    // (typical measured speedup is well above 5x); same best-of-3 x
    // 3-attempt shape as the elab-cache guard above to shrug off
    // shared-runner scheduler noise.
    let batch_pass = || {
        assert_eq!(
            session
                .sweep_with(&big, &config(Backend::Analytic), |_, _| {})
                .failures(),
            0
        );
    };
    let walker_options = EstimatorOptions {
        trace: false,
        ..Default::default()
    };
    let per_point_pass = || {
        for point in &big {
            let machine = MachineModel::new(point.sp, CommParams::default()).unwrap();
            let ops = session
                .elab_cache()
                .get_or_flatten(session.program(), &machine, walker_options.limits)
                .unwrap();
            let walked =
                analytic::evaluate_ops(&session.program().name, &ops, &machine, &walker_options);
            std::hint::black_box(walked.unwrap().predicted_time);
        }
    };
    batch_pass(); // warm: compiles the BatchProgram into the elab cache
    per_point_pass();
    let mut batch_speedup = 0.0f64;
    for _ in 0..3 {
        let batch = best_of_3(&batch_pass);
        let per_point = best_of_3(&per_point_pass);
        batch_speedup = batch_speedup.max(per_point.as_secs_f64() / batch.as_secs_f64());
        if batch_speedup >= 3.0 {
            break;
        }
    }
    assert!(
        batch_speedup >= 3.0,
        "batched analytic sweep must be >= 3x the per-point walker on the 64pt \
         grid in at least one of 3 attempts, best was {batch_speedup:.2}x"
    );
    println!("batch evaluation speedup on 64pt analytic sweep: {batch_speedup:.2}x");

    // The DES sweeps the same 64-point grid without a failure.
    assert_eq!(
        session
            .sweep_with(&big, &config(Backend::Simulation), |_, _| {})
            .failures(),
        0
    );
}

criterion_group!(benches, bench_analytic);
criterion_main!(benches);
