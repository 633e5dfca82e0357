//! Differential conformance: the analytic backend vs the DES simulation
//! backend on every bundled workload model, across an SP grid.
//!
//! Two independent engines computing the same predictions from the same
//! Program IR give us an oracle for the whole pipeline: any divergence
//! beyond the contract below is a bug in one of them.
//!
//! ## The contract (pinned here, stated in `prophet_estimator::analytic`)
//!
//! * **Deterministic, communication-free models** (kernel6, sample):
//!   predicted times are **bit-equal** — both backends accumulate the
//!   same compute costs through the same floating-point operations.
//! * **Deterministic message-passing models** (jacobi, pipeline,
//!   master_worker, lapw0): predicted times agree within
//!   [`REL_TOL`] = 1e-9 relative — the kernel reaches an arrival time
//!   `a` by holding `a − now` while the analytic pass computes `a`
//!   directly, so the two may round differently in the last ulp per
//!   message hop.
//!
//! Divergences are reported per model × SP point, all at once, so a
//! regression shows the full blast radius instead of the first victim.

use prophet::core::{Backend, Scenario, Session};
use prophet::machine::SystemParams;
use prophet::uml::Model;
use prophet::workloads::models::{
    jacobi_model, kernel6_model, lapw0_model, master_worker_model, pipeline_model, sample_model,
};
use proptest::prelude::*;

/// Stated tolerance for deterministic message-passing models (relative).
const REL_TOL: f64 = 1e-9;

fn flat(n: usize) -> SystemParams {
    SystemParams::flat_mpi(n, 1)
}

fn hybrid(nodes: usize, cpus: usize, procs: usize, threads: usize) -> SystemParams {
    SystemParams {
        nodes,
        cpus_per_node: cpus,
        processes: procs,
        threads_per_process: threads,
    }
}

struct Case {
    name: &'static str,
    model: Model,
    grid: Vec<SystemParams>,
    /// `true` → bit-equal required (communication-free deterministic);
    /// `false` → within [`REL_TOL`] relative.
    exact: bool,
}

/// Every bundled workload model with its conformance grid (≥ 4 SP
/// points each).
fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "kernel6",
            model: kernel6_model(500, 10, 2e-9),
            grid: vec![flat(1), flat(2), flat(4), flat(8)],
            exact: true,
        },
        Case {
            name: "sample",
            model: sample_model(),
            grid: vec![flat(1), flat(2), flat(4), flat(8)],
            exact: true,
        },
        Case {
            name: "jacobi",
            model: jacobi_model(200_000, 5, 1e-8),
            grid: vec![flat(1), flat(2), flat(4), flat(8)],
            exact: false,
        },
        Case {
            name: "pipeline",
            model: pipeline_model(20, 0.01, 1024),
            grid: vec![flat(1), flat(2), flat(4), flat(8)],
            exact: false,
        },
        Case {
            name: "master_worker",
            model: master_worker_model(64, 0.005, 128),
            grid: vec![flat(1), flat(2), flat(4), flat(8)],
            exact: false,
        },
        Case {
            name: "lapw0",
            model: lapw0_model(64, 16, 1e-5),
            // Hybrid MPI+OpenMP grid: one rank per node (the analytic CPU
            // model assumes ranks do not contend for node CPUs).
            grid: vec![
                hybrid(1, 1, 1, 1),
                hybrid(2, 1, 2, 1),
                hybrid(2, 2, 2, 2),
                hybrid(4, 2, 4, 2),
            ],
            exact: false,
        },
    ]
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    (a - b).abs() / scale
}

/// The headline test: evaluate every model on both backends across its
/// grid and report all divergences at once.
#[test]
fn analytic_matches_simulation_across_all_models() {
    let mut divergences = Vec::new();
    for case in cases() {
        let session = Session::new(case.model).expect("model compiles");
        for sp in &case.grid {
            let scenario = Scenario::new(*sp).without_trace();
            let sim = session
                .evaluate(&scenario)
                .unwrap_or_else(|e| panic!("{} sim {sp:?}: {e}", case.name));
            let ana = session
                .evaluate(&scenario.clone().with_backend(Backend::Analytic))
                .unwrap_or_else(|e| panic!("{} analytic {sp:?}: {e}", case.name));

            // The analytic backend must never touch the DES kernel.
            assert_eq!(ana.report.events_processed, 0, "{}", case.name);
            assert!(ana.report.facilities.is_empty(), "{}", case.name);
            assert!(ana.trace.is_empty(), "{}", case.name);

            let (s, a) = (sim.predicted_time, ana.predicted_time);
            let ok = if case.exact {
                s.to_bits() == a.to_bits()
            } else {
                rel_diff(s, a) <= REL_TOL
            };
            if !ok {
                divergences.push(format!(
                    "model={} sp={}x{}x{}x{}: simulation={s:.12e} analytic={a:.12e} rel={:.3e} ({})",
                    case.name,
                    sp.nodes,
                    sp.cpus_per_node,
                    sp.processes,
                    sp.threads_per_process,
                    rel_diff(s, a),
                    if case.exact { "exact required" } else { "tol 1e-9" },
                ));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// Both backends must agree on *failures* too: a model that deadlocks
/// under simulation must deadlock analytically.
#[test]
fn backends_agree_on_deadlock() {
    // Rank 0 waits for a message rank 1 never sends.
    use prophet::estimator::{
        evaluate_analytic, Estimator, EstimatorError, EstimatorOptions, MpiOp, Program, Step,
    };
    use prophet::machine::{CommParams, MachineModel};

    let mut p = Program::new("stuck");
    p.body = Step::Branch(vec![(
        Some(prophet::expr::parse_expression("pid == 0").unwrap()),
        Step::Mpi {
            name: "r".into(),
            op: MpiOp::Recv {
                src: prophet::expr::parse_expression("1").unwrap(),
                tag: 0,
            },
        },
    )]);
    let m = MachineModel::new(flat(2), CommParams::default()).unwrap();
    let opts = EstimatorOptions::default();
    let sim = Estimator::run(&p, &m, &opts).unwrap_err();
    let ana = evaluate_analytic(&p, &m, &opts).unwrap_err();
    for (which, err) in [("simulation", sim), ("analytic", ana)] {
        match err {
            EstimatorError::Sim(prophet::sim::SimError::Deadlock { blocked, .. }) => {
                assert!(
                    blocked.iter().any(|b| b.contains("rank0")),
                    "{which}: {blocked:?}"
                );
            }
            other => panic!("{which}: expected deadlock, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Determinism properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch-vs-walker differential: analytic sweeps replay each point
    /// through `prophet_estimator::batch` (compact ops, static message
    /// matching, reused scratch). Every sweep point must be
    /// **bit-identical** to the reference walker,
    /// `evaluate_analytic`, which elaborates uncached — across models,
    /// random grids with repeated points (exercising elab-cache hits
    /// and scratch reuse), and worker counts (exercising the chunked
    /// work-stealing dispatch).
    #[test]
    fn batch_sweep_is_bit_identical_to_per_point_evaluation(
        model_idx in 0usize..6,
        picks in proptest::collection::vec(0usize..4, 1..16),
        threads in 0usize..4,
    ) {
        use prophet::core::{SweepConfig, SweepPoint};
        use prophet::estimator::{evaluate_analytic, EstimatorOptions};
        use prophet::machine::{CommParams, MachineModel};
        let (name, model, grid): (_, Model, Vec<SystemParams>) = match model_idx {
            0 => ("kernel6", kernel6_model(100, 5, 2e-9), vec![flat(1), flat(2), flat(4), flat(8)]),
            1 => ("sample", sample_model(), vec![flat(1), flat(2), flat(4), flat(8)]),
            2 => ("jacobi", jacobi_model(50_000, 3, 1e-8), vec![flat(1), flat(2), flat(4), flat(8)]),
            3 => ("pipeline", pipeline_model(10, 0.01, 1024), vec![flat(1), flat(2), flat(4), flat(8)]),
            4 => ("master_worker", master_worker_model(32, 0.005, 128), vec![flat(1), flat(2), flat(4), flat(8)]),
            _ => (
                "lapw0",
                lapw0_model(32, 8, 1e-5),
                // Hybrid grid: thread teams exercise the pre-priced
                // FCFS lock schedules of the batch compilation.
                vec![hybrid(1, 1, 1, 1), hybrid(2, 1, 2, 1), hybrid(2, 2, 2, 2), hybrid(4, 2, 4, 2)],
            ),
        };
        let session = Session::new(model).expect("model compiles");
        let points: Vec<SweepPoint> = picks.iter().map(|&i| SweepPoint { sp: grid[i] }).collect();
        let report = session.sweep_with(
            &points,
            &SweepConfig {
                backend: Backend::Analytic,
                threads,
                ..Default::default()
            },
            |_, _| {},
        );
        prop_assert_eq!(report.points.len(), points.len());
        for (point, result) in points.iter().zip(&report.points) {
            let batch = result
                .time()
                .unwrap_or_else(|| panic!("{name} sweep failed at {:?}", point.sp));
            let machine = MachineModel::new(point.sp, CommParams::default()).unwrap();
            let walker = evaluate_analytic(session.program(), &machine, &EstimatorOptions::default())
                .unwrap_or_else(|e| panic!("{name} walker {:?}: {e}", point.sp))
                .predicted_time;
            prop_assert_eq!(
                batch.to_bits(),
                walker.to_bits(),
                "{} at {:?}: batch {} vs walker {}",
                name, point.sp, batch, walker
            );
        }
    }
}
