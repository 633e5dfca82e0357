//! Cross-crate end-to-end scenarios beyond the figure goldens:
//! determinism, sweep consistency, estimator/codegen agreement, and
//! failure-path behaviour.

use prophet::core::{mpi_grid, to_cpp, Backend, Error, Scenario, Session, SweepConfig};
use prophet::estimator::{Estimator, EstimatorOptions};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::serve::api::{demo_model, demo_models};
use prophet::trace::TraceAnalysis;
use prophet::uml::{ModelBuilder, TagValue, VarType};
use prophet::workloads::models::{jacobi_model, master_worker_model, sample_model};

#[test]
fn determinism_across_full_pipeline() {
    let run = || {
        let session = Session::new(jacobi_model(100_000, 5, 1e-8)).unwrap();
        let r = session
            .evaluate(&Scenario::new(SystemParams::flat_mpi(4, 1)))
            .unwrap();
        (
            r.predicted_time,
            r.report.events_processed,
            r.trace.to_text(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn serial_and_parallel_sweeps_agree_on_real_model() {
    // Every bundled model over the 64-point grid, on both backends, by
    // 1, 2 and 4 sweep workers: bit-identical predictions, the same
    // failures and the same elaboration-cache counts. Each worker count
    // sweeps a fresh session, simulation first, then analytic.
    let nodes: Vec<usize> = (1..=64).collect();
    let points = mpi_grid(&nodes, 1);
    for (name, _) in demo_models() {
        let run = |threads: usize| {
            let session = Session::new(demo_model(name).unwrap()).unwrap();
            let outcomes: Vec<Vec<Result<u64, String>>> = [Backend::Simulation, Backend::Analytic]
                .into_iter()
                .map(|backend| {
                    let config = SweepConfig {
                        threads,
                        backend,
                        ..Default::default()
                    };
                    let report = session.sweep_with(&points, &config, |_, _| {});
                    report
                        .points
                        .iter()
                        .map(|p| match &p.outcome {
                            Ok(time) => Ok(time.to_bits()),
                            Err(e) => Err(e.to_string()),
                        })
                        .collect()
                })
                .collect();
            (outcomes, session.elab_stats())
        };
        let serial = run(1);
        assert_eq!(serial.1.misses, 64, "{name}: {:?}", serial.1);
        for threads in [2, 4] {
            assert!(run(threads) == serial, "{name}: {threads} workers disagree");
        }
    }
}

#[test]
fn estimator_and_cpp_expose_same_cost_functions() {
    let session = Session::new(sample_model()).unwrap();
    let cpp = to_cpp(session.model()).unwrap();
    // Every function in the IR appears as a C++ definition.
    for f in &session.program().functions {
        assert!(
            cpp.cost_functions.contains(&format!("double {}(", f.name)),
            "function {} missing from C++",
            f.name
        );
    }
}

#[test]
fn comm_params_shift_the_crossover() {
    // Same model, slower network → worse time at high P.
    let session = Session::new(jacobi_model(200_000, 10, 1e-8)).unwrap();
    let time = |comm: CommParams, p: usize| {
        session
            .evaluate(&Scenario::new(SystemParams::flat_mpi(p, 1)).with_comm(comm))
            .unwrap()
            .predicted_time
    };
    let slow16 = time(CommParams::default(), 16);
    let fast16 = time(CommParams::fast_interconnect(), 16);
    assert!(fast16 < slow16, "fast {fast16} !< slow {slow16}");
    // At P = 1 the network is irrelevant.
    let slow1 = time(CommParams::default(), 1);
    let fast1 = time(CommParams::fast_interconnect(), 1);
    assert!((slow1 - fast1).abs() < 1e-12);
}

#[test]
fn master_worker_gather_cost_grows_with_p() {
    let session = Session::new(master_worker_model(64, 0.0, 1 << 16)).unwrap(); // zero compute
    let t = |p: usize| {
        session
            .evaluate(&Scenario::new(SystemParams::flat_mpi(p, 1)))
            .unwrap()
            .predicted_time
    };
    assert!(
        t(8) > t(2),
        "collective-only time must grow with P: {} vs {}",
        t(8),
        t(2)
    );
}

#[test]
fn trace_is_well_formed_for_hybrid_runs() {
    let sp = SystemParams {
        nodes: 2,
        cpus_per_node: 2,
        processes: 2,
        threads_per_process: 2,
    };
    let run = Session::new(prophet::workloads::models::lapw0_model(32, 8, 1e-5))
        .unwrap()
        .evaluate(&Scenario::new(sp))
        .unwrap();
    let analysis = TraceAnalysis::analyze(&run.trace);
    assert!(analysis.unmatched.is_empty(), "{:?}", analysis.unmatched);
    assert!(analysis.efficiency(2) > 0.0);
}

#[test]
fn direct_estimator_use_without_session() {
    // The estimator is usable as a library on hand-built IR.
    use prophet::estimator::{Program, Step};
    use prophet::expr::parse_expression;
    let mut program = Program::new("direct");
    program.body = Step::Exec {
        name: "only".into(),
        cost: Some(parse_expression("1.25").unwrap()),
        code: vec![],
    };
    let machine = MachineModel::new(SystemParams::default(), CommParams::default()).unwrap();
    let eval = Estimator::new(machine, EstimatorOptions::default())
        .evaluate(&program)
        .unwrap();
    assert_eq!(eval.predicted_time, 1.25);
}

#[test]
fn failure_paths_are_reported_not_panicked() {
    // Unparsable guard.
    let mut b = ModelBuilder::new("badguard");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let d = b.decision(main, "dec");
    let x = b.action(main, "X", "1");
    let y = b.action(main, "Y", "1");
    let mg = b.merge(main, "m");
    let f = b.final_node(main, "end");
    b.flow(main, i, d);
    b.guarded_flow(main, d, x, "GV >=");
    b.guarded_flow(main, d, y, "else");
    b.flow(main, x, mg);
    b.flow(main, y, mg);
    b.flow(main, mg, f);
    assert!(matches!(Session::new(b.build()), Err(Error::Check(_))));

    // Rank out of range at elaboration time.
    let mut b = ModelBuilder::new("badrank");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let s = b.mpi(
        main,
        "s0",
        "send",
        &[
            ("dest", TagValue::Expr("99".into())),
            ("size", TagValue::Expr("8".into())),
        ],
    );
    let f = b.final_node(main, "end");
    b.flow(main, i, s);
    b.flow(main, s, f);
    let session = Session::new(b.build()).unwrap();
    let result = session.evaluate(&Scenario::new(SystemParams::flat_mpi(2, 1)));
    assert!(matches!(result, Err(Error::Estimate(_))));
}

#[test]
fn locals_are_per_process() {
    // A local accumulates per process via code fragments; guards on it
    // must behave identically on every rank (SPMD state isolation).
    let mut b = ModelBuilder::new("locals");
    b.local("acc", VarType::Double, Some("0"));
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "Bump", "0.1");
    b.attach_code(a, "acc = acc + pid;");
    let d = b.decision(main, "check");
    let hot = b.action(main, "Hot", "1.0");
    let cold = b.action(main, "Cold", "0.5");
    let mg = b.merge(main, "m");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, d);
    b.guarded_flow(main, d, hot, "acc > 1.5");
    b.guarded_flow(main, d, cold, "else");
    b.flow(main, hot, mg);
    b.flow(main, cold, mg);
    b.flow(main, mg, f);

    let run = Session::new(b.build())
        .unwrap()
        .evaluate(&Scenario::new(SystemParams::flat_mpi(4, 1)))
        .unwrap();
    let analysis = TraceAnalysis::analyze(&run.trace);
    // pids 0,1 take Cold (acc = 0,1), pids 2,3 take Hot (acc = 2,3).
    assert_eq!(analysis.element("Hot").unwrap().count, 2);
    assert_eq!(analysis.element("Cold").unwrap().count, 2);
}
