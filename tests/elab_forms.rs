//! Lean/traced elaboration equivalence: the two elaboration forms
//! differ only in `Enter`/`Exit` trace markers.
//!
//! Traced simulations replay the traced form, every other evaluation
//! the lean form. For each of the ten bundled models over an SP grid
//! (`lapw0` on hybrid points with thread teams):
//!
//! * the lean form equals the traced form with its markers removed,
//!   recursively through `Threads` arms,
//! * an untraced DES run gives a bit-identical `predicted_time` and the
//!   same `events_processed` on either form,
//! * op-limit failures are identical: the lean form counts its omitted
//!   markers toward `max_ops`, so every limit fails (or passes) with the
//!   same error in both forms.

use prophet::core::Session;
use prophet::estimator::{
    elaborate, ElabForm, Estimator, EstimatorOptions, FlattenLimits, PrimOp, RankOps,
};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::serve::api::{demo_model, demo_models};

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

/// The SP points each bundled model is elaborated at. `lapw0` runs its
/// thread teams, including an oversubscribed node.
fn grid(name: &str) -> Vec<SystemParams> {
    if name == "lapw0" {
        vec![
            hybrid(1, 1, 1, 1),
            hybrid(2, 2, 2, 2),
            hybrid(4, 2, 4, 2),
            hybrid(2, 2, 2, 4),
        ]
    } else {
        vec![flat(1), flat(3), flat(4), flat(8)]
    }
}

/// Every bundled model, compiled, with its grid.
fn sessions() -> Vec<(&'static str, Session, Vec<SystemParams>)> {
    let all: Vec<_> = demo_models()
        .into_iter()
        .map(|(name, _)| {
            let session =
                Session::new(demo_model(name).unwrap()).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, session, grid(name))
        })
        .collect();
    assert_eq!(all.len(), 10);
    all
}

/// `ops` without its `Enter`/`Exit` markers, inside thread arms too.
fn strip_markers(ops: &[PrimOp]) -> Vec<PrimOp> {
    ops.iter()
        .filter(|op| !matches!(op, PrimOp::Enter(_) | PrimOp::Exit(_)))
        .map(|op| match op {
            PrimOp::Threads { element, arms } => PrimOp::Threads {
                element: *element,
                arms: arms.iter().map(|arm| strip_markers(arm)).collect(),
            },
            other => other.clone(),
        })
        .collect()
}

fn has_markers(ops: &[PrimOp]) -> bool {
    ops.iter().any(|op| match op {
        PrimOp::Enter(_) | PrimOp::Exit(_) => true,
        PrimOp::Threads { arms, .. } => arms.iter().any(|arm| has_markers(arm)),
        _ => false,
    })
}

/// Ops counted toward `max_ops`: thread-arm ops included.
fn op_count(ops: &[PrimOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            PrimOp::Threads { arms, .. } => 1 + arms.iter().map(|arm| op_count(arm)).sum::<usize>(),
            _ => 1,
        })
        .sum()
}

fn has_threads(ops: &[PrimOp]) -> bool {
    ops.iter().any(|op| matches!(op, PrimOp::Threads { .. }))
}

fn both_forms(
    session: &Session,
    machine: &MachineModel,
    limits: FlattenLimits,
) -> (Result<RankOps, String>, Result<RankOps, String>) {
    let form =
        |form| elaborate(session.program(), machine, limits, form).map_err(|e| e.to_string());
    (form(ElabForm::Traced), form(ElabForm::Lean))
}

#[test]
fn lean_form_is_the_traced_form_without_markers() {
    let mut team_points = 0;
    for (name, session, grid) in sessions() {
        for sp in grid {
            let machine = MachineModel::new(sp, CommParams::default()).unwrap();
            let (traced, lean) = both_forms(&session, &machine, FlattenLimits::default());
            let traced = traced.unwrap_or_else(|e| panic!("{name} {sp:?}: {e}"));
            let lean = lean.unwrap_or_else(|e| panic!("{name} {sp:?}: {e}"));
            assert_eq!(lean.len(), traced.len(), "{name} {sp:?}");
            for (pid, (l, t)) in lean.iter().zip(traced.iter()).enumerate() {
                assert!(has_markers(t), "{name} {sp:?} rank {pid}: no markers");
                assert!(
                    !has_markers(l),
                    "{name} {sp:?} rank {pid}: lean has markers"
                );
                assert_eq!(&l[..], &strip_markers(t)[..], "{name} {sp:?} rank {pid}");
                team_points += usize::from(has_threads(l));
            }
        }
    }
    assert!(team_points > 0, "no thread team was elaborated");
}

#[test]
fn untraced_des_is_bit_identical_on_either_form() {
    let untraced = EstimatorOptions {
        trace: false,
        ..Default::default()
    };
    for (name, session, grid) in sessions() {
        let program = session.program();
        for sp in grid {
            let machine = MachineModel::new(sp, CommParams::default()).unwrap();
            let (traced, lean) = both_forms(&session, &machine, untraced.limits);
            let run = |ops: &RankOps| {
                Estimator::run_ops(&program.name, ops, &machine, &untraced)
                    .unwrap_or_else(|e| panic!("{name} {sp:?}: {e}"))
            };
            let on_traced = run(&traced.unwrap());
            let on_lean = run(&lean.unwrap());
            assert_eq!(
                on_lean.predicted_time.to_bits(),
                on_traced.predicted_time.to_bits(),
                "{name} {sp:?}: lean {} vs traced {}",
                on_lean.predicted_time,
                on_traced.predicted_time
            );
            assert_eq!(
                on_lean.report.events_processed, on_traced.report.events_processed,
                "{name} {sp:?}"
            );
            assert!(on_lean.trace.is_empty() && on_traced.trace.is_empty());
        }
    }
}

#[test]
fn op_limit_errors_are_identical_in_both_forms() {
    // Every `max_ops` from 1 up to past the largest rank's op count
    // (thread-arm ops included): each limit
    // either fails in both forms with the same error (wherever the
    // overflowing op falls, marker or not) or passes in both.
    let cases = [
        ("jacobi", flat(4)),
        ("sample", flat(2)),
        ("lapw0", hybrid(2, 2, 2, 2)),
        ("task_farm", flat(3)),
    ];
    for (name, sp) in cases {
        let session = Session::new(demo_model(name).unwrap()).unwrap();
        let machine = MachineModel::new(sp, CommParams::default()).unwrap();
        let (full, _) = both_forms(&session, &machine, FlattenLimits::default());
        let longest = full.unwrap().iter().map(|r| op_count(r)).max().unwrap();
        let mut failures = 0;
        for max_ops in 1..=longest + 1 {
            let limits = FlattenLimits {
                max_ops,
                ..Default::default()
            };
            match both_forms(&session, &machine, limits) {
                (Err(traced), Err(lean)) => {
                    assert_eq!(lean, traced, "{name} max_ops={max_ops}");
                    assert!(lean.contains("exceeds"), "{name}: {lean}");
                    failures += 1;
                }
                (Ok(traced), Ok(lean)) => {
                    for (l, t) in lean.iter().zip(traced.iter()) {
                        assert_eq!(&l[..], &strip_markers(t)[..], "{name} max_ops={max_ops}");
                    }
                }
                (traced, lean) => panic!(
                    "{name} max_ops={max_ops}: traced {:?} vs lean {:?}",
                    traced.err(),
                    lean.err()
                ),
            }
        }
        assert_eq!(failures, longest - 1, "{name}: only the full limit passes");
    }
}
