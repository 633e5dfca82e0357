//! Experiment F2: the Figure-2 architecture exercised end to end.
//!
//! Teuta side: model (XML) + MCF + SP  →  Model Checker  →  Model
//! Traverser (XML + C++ representations)  →  Performance Estimator
//! (machine model from SP, simulation)  →  TF  →  visualization data.

use prophet::check::{check_model, McfConfig};
use prophet::core::{to_cpp, Scenario, Session};
use prophet::machine::SystemParams;
use prophet::trace::{render_timeline, TraceAnalysis, TraceFile};
use prophet::workloads::models::sample_model;

#[test]
fn full_architecture_roundtrip() {
    // --- Teuta: author the model, persist as Models (XML). -------------
    let model = sample_model();
    let xml = prophet::uml::xmi::model_to_xml(&model);
    assert!(xml.contains("<diagram name=\"SA\">"));

    // --- MCF: configure the checker from an XML file. -------------------
    let mcf = McfConfig::from_xml(r#"<mcf><rule id="PP013" severity="warning"/></mcf>"#).unwrap();
    let model_back = prophet::uml::xmi::model_from_xml(&xml).expect("model xml parses");
    let diags = check_model(&model_back, &mcf);
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");

    // --- Compile once (a different session, reloaded from XML). ---------
    let session = Session::compile(model_back, mcf).expect("compile");

    // PMP generated by the traverser-driven backend.
    assert!(to_cpp(session.model())
        .expect("C++ backend")
        .program
        .contains("a1.execute(uid, pid, tid, FA1());"));

    // --- Evaluate with the SP of this experiment. -----------------------
    let run = session
        .evaluate(&Scenario::new(SystemParams::flat_mpi(2, 2)))
        .expect("evaluate");

    // SP flowed into the machine model: flat MPI on 2 nodes × 2 cpus
    // means 4 ranks, and all of them ran to completion.
    assert_eq!(run.report.processes_completed, 4);

    // --- TF: serialize, reparse, analyze (Teuta's charts/animator). -----
    let tf_text = run.trace.to_text();
    let tf = TraceFile::from_text(&tf_text).expect("TF parses");
    assert_eq!(tf.events, run.trace.events);

    let tf_xml = run.trace.to_xml();
    let tf2 = TraceFile::from_xml(&tf_xml).expect("TF XML parses");
    assert_eq!(tf2.events, run.trace.events);

    let analysis = TraceAnalysis::analyze(&tf);
    assert!(analysis.unmatched.is_empty(), "{:?}", analysis.unmatched);
    assert!(analysis.element("A1").is_some());
    assert!(analysis.element("SA").is_some());

    let art = render_timeline(&analysis, 2, 40);
    assert!(art.contains("p0") && art.contains("p1"));
}

#[test]
fn xml_and_direct_models_predict_identically() {
    let direct = Session::new(sample_model()).unwrap();
    let via_xml = Session::from_model_xml(&direct.model_xml()).unwrap();
    let scenario = Scenario::default();
    let a = direct.evaluate(&scenario).unwrap();
    let b = via_xml.evaluate(&scenario).unwrap();
    assert_eq!(a.predicted_time, b.predicted_time);
    let cpp = |s: &Session| to_cpp(s.model()).unwrap().model_text();
    assert_eq!(cpp(&direct), cpp(&via_xml));
    assert_eq!(a.trace.len(), b.trace.len());
}

#[test]
fn mcf_can_relax_the_gate() {
    // A model with an unreachable island: PP013 error would not trigger
    // (warning by default), but let's force it to error and then disable.
    let mut b = prophet::uml::ModelBuilder::new("island");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "A", "1");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, f);
    b.action(main, "Island", "1");
    let model = b.build();

    let mut strict = McfConfig::default();
    strict.set_severity("PP013", prophet::check::Severity::Error);
    assert!(
        Session::compile(model.clone(), strict).is_err(),
        "strict MCF must gate"
    );

    let mut relaxed = McfConfig::default();
    relaxed.disable("PP013");
    let session = Session::compile(model, relaxed).expect("relaxed MCF must pass");
    assert!(session.evaluate(&Scenario::default()).is_ok());
}
