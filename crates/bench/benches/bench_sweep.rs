//! SP sweeps: serial vs parallel execution of
//! independent simulations, the compile-once [`Session`] path vs
//! recompiling per call (the pre-`Session` workflow), and the
//! flatten-once elaboration cache vs per-evaluation elaboration.

use criterion::{criterion_group, criterion_main, Criterion};
use prophet_core::{
    flatten_invocations, mpi_grid, transform_invocations, Backend, Session, SweepConfig, SweepPoint,
};
use prophet_estimator::{Estimator, EstimatorOptions};
use prophet_machine::{CommParams, MachineModel};
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

fn bench_sweep(c: &mut Criterion) {
    let model = jacobi_model(100_000, 10, 1e-8);
    let session = Session::new(model.clone()).expect("compile");
    let points = mpi_grid(&[1, 2, 4, 8, 16], 1);

    // Guard the compile-once contract before timing anything: a 64-point
    // sweep through a Session performs check + transform exactly once
    // (one `to_program`, at compile time — zero more during the sweep,
    // however many points it has). The transform
    // counter is thread-local, so run this guard sweep with `threads: 1`:
    // every evaluation then happens on this thread and any re-transform
    // would be counted here.
    let before = transform_invocations();
    let report = Session::new(model.clone()).expect("compile").sweep_with(
        &grid_64(),
        &SweepConfig {
            threads: 1,
            ..Default::default()
        },
        |_, _| {},
    );
    assert_eq!(report.points.len(), 64);
    assert_eq!(report.failures(), 0);
    assert_eq!(
        transform_invocations() - before,
        1,
        "session sweep must transform exactly once"
    );

    // Guard the flatten-once elaboration contract (the CI smoke run of
    // this bench is the gate): 4 cached sweeps over 8 SP points
    // elaborate exactly once per distinct SP point — misses == points,
    // every later evaluation is a hit, and a repeat sweep performs zero
    // `flatten_for_process` calls at all (pure cache hits).
    {
        let session = Session::new(model.clone()).expect("compile");
        let grid8 = mpi_grid(&[1, 2, 4, 8, 16, 32, 64, 128], 1);
        let repeats = 4;
        for _ in 0..repeats {
            assert_eq!(session.sweep(&grid8).failures(), 0);
        }
        let stats = session.elab_stats();
        assert_eq!(
            stats.misses,
            grid8.len() as u64,
            "cached sweep must flatten exactly once per distinct SP point: {stats:?}"
        );
        assert_eq!(
            stats.hits,
            (grid8.len() * (repeats - 1)) as u64,
            "every repeat evaluation must be a cache hit: {stats:?}"
        );
        let flattens_before = flatten_invocations();
        assert_eq!(session.sweep(&grid8).failures(), 0);
        assert_eq!(
            flatten_invocations() - flattens_before,
            0,
            "a repeat sweep over cached SP points must not flatten at all"
        );
    }

    let serial = SweepConfig {
        threads: 1,
        ..Default::default()
    };
    let parallel = SweepConfig::default();

    let mut group = c.benchmark_group("sweep/jacobi_5pts");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| session.sweep_with(&points, &serial, |_, _| {}))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| session.sweep_with(&points, &parallel, |_, _| {}))
    });
    group.bench_function("session_sweep", |b| b.iter(|| session.sweep(&points)));
    // The single-shot workflow for comparison: what every sweep cost
    // before compile-once sessions — check + both transforms paid again
    // on each call.
    group.bench_function("recompiling_sweep", |b| {
        b.iter(|| Session::new(model.clone()).expect("compile").sweep(&points))
    });
    group.finish();

    let mut group = c.benchmark_group("sweep/jacobi_64pts");
    group.sample_size(10);
    let big = grid_64();
    group.bench_function("session_sweep", |b| b.iter(|| session.sweep(&big)));
    group.finish();

    // The repeated-sweep workload the elaboration cache exists for: the
    // same 8-point grid swept 4 times. Cached, the 8 elaborations are
    // amortized across all 32 evaluations (and across bench iterations);
    // the uncached reference (`Estimator::run` per point) re-flattens
    // every evaluation.
    let grid8 = mpi_grid(&[1, 2, 4, 8, 16, 32, 64, 128], 1);
    let cached_4_times = || {
        for _ in 0..4 {
            assert_eq!(session.sweep_with(&grid8, &serial, |_, _| {}).failures(), 0);
        }
    };
    let untraced = EstimatorOptions {
        trace: false,
        ..Default::default()
    };
    let uncached_4_times = || {
        for _ in 0..4 {
            for point in &grid8 {
                let machine = MachineModel::new(point.sp, CommParams::default()).unwrap();
                let evaluation = Estimator::run(session.program(), &machine, &untraced).unwrap();
                std::hint::black_box(evaluation.predicted_time);
            }
        }
    };
    let mut group = c.benchmark_group("sweep/jacobi_8pts_x4");
    group.sample_size(10);
    group.bench_function("elab_cached", |b| b.iter(cached_4_times));
    group.bench_function("elab_uncached", |b| b.iter(uncached_4_times));
    group.finish();

    // Every dispatch path sweeps the 64-point grid without a failure.
    let analytic_serial = SweepConfig {
        threads: 1,
        backend: Backend::Analytic,
        ..Default::default()
    };
    for config in [&serial, &parallel, &analytic_serial] {
        assert_eq!(session.sweep_with(&big, config, |_, _| {}).failures(), 0);
    }
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
