//! Error-path coverage for the unified `prophet_core::Error`: `source()`
//! chains, `Display` formats, invalid-SP and parse-failure scenarios
//! through the `Session` engine.

use prophet_core::{render_chain, Error, Scenario, Session};
use prophet_machine::SystemParams;
use prophet_uml::{Model, ModelBuilder};
use std::error::Error as StdError;

fn good_model() -> Model {
    let mut b = ModelBuilder::new("ok");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "Work", "1.0");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, f);
    b.build()
}

fn bad_cost_model() -> Model {
    let mut b = ModelBuilder::new("bad");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "Oops", "1 +");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, f);
    b.build()
}

fn invalid_sp() -> SystemParams {
    // processes < nodes is rejected by validation.
    SystemParams {
        nodes: 4,
        cpus_per_node: 1,
        processes: 2,
        threads_per_process: 1,
    }
}

#[test]
fn machine_error_chains_through_source() {
    let session = Session::new(good_model()).unwrap();
    let err = session.evaluate(&Scenario::new(invalid_sp())).unwrap_err();
    assert!(matches!(err, Error::Machine(_)));
    // Top level names the stage...
    assert_eq!(
        err.to_string(),
        "machine model rejected the system parameters"
    );
    // ...and source() carries the cause, with the real detail inside.
    let source = err.source().expect("machine errors have a source");
    assert!(
        source.to_string().contains("processes must be >= nodes"),
        "unexpected source: {source}"
    );
    // The rendered chain shows both levels.
    let chain = render_chain(&err);
    assert!(chain.contains("caused by:"), "{chain}");
    assert!(chain.contains("processes must be >= nodes"), "{chain}");
}

#[test]
fn parse_error_chains_through_source() {
    let err = Session::from_model_xml("<model><unclosed>").unwrap_err();
    assert!(matches!(err, Error::Parse(_)));
    assert_eq!(err.to_string(), "model XML does not parse");
    assert!(
        err.source().is_some(),
        "parse errors must carry the XML error"
    );
}

#[test]
fn check_error_lists_diagnostics_and_has_no_source() {
    let err = Session::new(bad_cost_model()).unwrap_err();
    let diags = err
        .diagnostics()
        .expect("check failure carries diagnostics");
    assert!(!diags.is_empty());
    // Display embeds the findings directly, so there is no deeper source.
    assert!(err.to_string().contains("model check failed"));
    assert!(err.source().is_none());
}

#[test]
fn estimate_error_chains_through_source() {
    // A receive that can never be matched deadlocks the simulation.
    let mut b = ModelBuilder::new("stuck");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let r = b.mpi(
        main,
        "r0",
        "recv",
        &[("src", prophet_uml::TagValue::Expr("1".into()))],
    );
    let f = b.final_node(main, "end");
    b.flow(main, i, r);
    b.flow(main, r, f);
    let session = Session::new(b.build()).unwrap();
    let err = session
        .evaluate(&Scenario::new(SystemParams::flat_mpi(2, 1)))
        .unwrap_err();
    assert!(matches!(err, Error::Estimate(_)));
    assert_eq!(err.to_string(), "performance evaluation failed");
    // The chain now descends through EstimatorError into the kernel's
    // SimError: Error → "evaluation failed" → "deadlock …".
    let source = err.source().expect("estimate errors have a source");
    let inner = source.source().expect("estimator errors have a source");
    assert!(
        inner.to_string().contains("deadlock"),
        "unexpected inner source: {inner}"
    );
    assert!(
        prophet_core::render_chain(&err).contains("deadlock"),
        "render_chain must surface the kernel detail"
    );
}

#[test]
fn flatten_error_chains_to_the_offending_expression() {
    // A cost expression referencing an undefined variable fails at
    // elaboration time; the chain must surface the expression error:
    // Error → EstimatorError → FlattenError → ExprError.
    let mut b = ModelBuilder::new("badcost");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "A1", "no_such_var * 2");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, f);
    let session = Session::new(b.build()).unwrap();
    let err = session
        .evaluate(&Scenario::new(SystemParams::flat_mpi(1, 1)))
        .unwrap_err();
    let mut chain = Vec::new();
    let mut cur: Option<&dyn std::error::Error> = Some(&err);
    while let Some(e) = cur {
        chain.push(e.to_string());
        cur = e.source();
    }
    assert_eq!(chain.len(), 4, "{chain:?}");
    assert!(chain[1].contains("elaboration"), "{chain:?}");
    assert!(chain[2].contains("cost of `A1`"), "{chain:?}");
    assert!(chain[3].contains("no_such_var"), "{chain:?}");
}

#[test]
fn sweep_reports_typed_errors_per_point() {
    let session = Session::new(good_model()).unwrap();
    let points = [
        prophet_core::SweepPoint {
            sp: SystemParams::flat_mpi(2, 1),
        },
        prophet_core::SweepPoint { sp: invalid_sp() },
    ];
    let report = session.sweep(&points);
    assert!(report.points[0].outcome.is_ok());
    assert!(matches!(report.points[1].outcome, Err(Error::Machine(_))));
    assert_eq!(report.failures(), 1);
    assert_eq!(report.times(), vec![Some(1.0), None]);
}
