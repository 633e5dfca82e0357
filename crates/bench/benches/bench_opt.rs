//! Optimizer benchmarks: the lazy SP-lattice search win of pruning
//! cells through analytic cost bounds instead of evaluating the full
//! grid, guarded by a frontier-identity check so the speedup is never
//! measured against a wrong Pareto set.

use criterion::{criterion_group, criterion_main, Criterion};
use prophet_core::{Backend, Session};
use prophet_opt::{Constraints, OptimizeRequest, OptimizeSession};
use prophet_workloads::models::jacobi_model;

/// The benchmark lattice: serve-scale jacobi over a dense 96-point
/// grid with a deadline that rules out the slow single-node corner and
/// a budget that truncates each cpus column's tail without evaluating
/// it. Under these constraints the lazy search settles the frontier
/// from well under half the lattice.
fn request(backend: Backend) -> OptimizeRequest {
    OptimizeRequest {
        nodes: (1..=32).collect(),
        cpus: vec![1, 2, 4],
        constraints: Constraints {
            deadline: Some(0.03),
            max_cost: Some(48.0),
        },
        backend,
        ..Default::default()
    }
}

fn bench_opt(c: &mut Criterion) {
    let session = Session::new(jacobi_model(1_000_000, 20, 1e-8)).expect("compile");
    let req = request(Backend::Analytic);

    // Identity guard: the lazy frontier must be bit-identical to the
    // exhaustive reference (same contract as tests/opt.rs) before we
    // time anything, and the laziness itself is the headline — at most
    // half the lattice may be evaluated.
    let lazy = session.optimize(&req).expect("lazy search succeeds");
    let full = session
        .optimize_brute_force(&req)
        .expect("brute force succeeds");
    assert_eq!(full.oracle_evals, full.grid_size, "reference is exhaustive");
    assert!(!lazy.frontier.is_empty(), "frontier must be non-empty");
    assert_eq!(
        lazy.frontier.len(),
        full.frontier.len(),
        "lazy and brute-force frontiers differ in size"
    );
    for (a, b) in lazy.frontier.iter().zip(full.frontier.iter()) {
        assert_eq!(a.sp, b.sp, "frontier SP points diverge");
        assert_eq!(
            a.time.to_bits(),
            b.time.to_bits(),
            "frontier times diverge at nodes={} cpus={}",
            a.sp.nodes,
            a.sp.cpus_per_node
        );
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "frontier costs diverge at nodes={} cpus={}",
            a.sp.nodes,
            a.sp.cpus_per_node
        );
    }
    assert!(
        2 * lazy.oracle_evals <= lazy.grid_size,
        "lazy search must evaluate at most half the lattice, \
         evaluated {} of {}",
        lazy.oracle_evals,
        lazy.grid_size
    );
    println!(
        "lazy optimize: {} of {} lattice points evaluated, {}-point frontier",
        lazy.oracle_evals,
        lazy.grid_size,
        lazy.frontier.len()
    );

    let mut group = c.benchmark_group("opt/jacobi_96pt_lattice");
    group.sample_size(10);
    group.bench_function("lazy", |b| b.iter(|| session.optimize(&req).unwrap()));
    group.bench_function("brute_force", |b| {
        b.iter(|| session.optimize_brute_force(&req).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_opt);
criterion_main!(benches);
