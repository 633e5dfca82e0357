//! Golden tests pinning each figure of the paper to an executable
//! artifact (Figures 1–8).

use prophet::codegen::{build_flow_tree, generate_cpp};
use prophet::core::transform::{to_cpp, to_program};
use prophet::core::{Scenario, Session};
use prophet::trace::TraceAnalysis;
use prophet::uml::{
    performance_profile, ExplicitStackNavigator, ModelBuilder, RecordingHandler,
    StereotypeApplication, TagValue, TraceMessage, Traverser,
};
use prophet::workloads::models::{kernel6_model, sample_model};

// ---------------------------------------------------------------- F1 --

#[test]
fn stereotype_fig1() {
    // Figure 1(a): definition of <<action+>> on metaclass Action with
    // tags id : Integer, type : String, time : Double.
    let profile = performance_profile();
    let st = profile.get("action+").expect("defined");
    assert_eq!(st.display_name(), "<<action+>>");
    for (tag, ty) in [("id", "Integer"), ("type", "String"), ("time", "Double")] {
        assert_eq!(st.tag(tag).unwrap().tag_type.to_string(), ty);
    }

    // Figure 1(b): usage `SampleAction «action+» {id = 1, type = SAMPLE,
    // time = 10}`.
    let usage = StereotypeApplication::new("action+")
        .with("id", TagValue::Int(1))
        .with("type", TagValue::Str("SAMPLE".into()))
        .with("time", TagValue::Num(10.0));
    assert_eq!(
        usage.display(),
        "<<action+>> {id = 1, type = SAMPLE, time = 10}"
    );
}

// ---------------------------------------------------------------- F3 --

#[test]
fn kernel6_model_shape_fig3() {
    // Figure 3(c): kernel 6 modeled by ONE <<action+>> with cost fn FK6.
    let model = kernel6_model(1000, 10, 1e-9);
    let k6 = model.element_by_name("Kernel6").expect("element exists");
    assert_eq!(k6.stereotype_name(), Some("action+"));
    assert_eq!(k6.cost_expr(), Some("FK6(KN, KM)"));
    // Exactly one performance element: the detailed loop nest of
    // Figure 3(b) is deliberately NOT modeled.
    assert_eq!(model.performance_elements().len(), 1);
}

// ---------------------------------------------------------------- F4 --

#[test]
fn kernel6_cpp_fig4() {
    // Figure 4(c): `ActionPlus kernel6(...); kernel6.execute(...,FK6(...));`
    let unit = to_cpp(&kernel6_model(1000, 10, 1e-9)).unwrap();
    assert!(
        unit.program.contains("ActionPlus kernel6("),
        "{}",
        unit.program
    );
    assert!(
        unit.program
            .contains("kernel6.execute(uid, pid, tid, FK6(KN, KM));"),
        "{}",
        unit.program
    );
}

// ---------------------------------------------------------------- F5 --

#[test]
fn figure5_phase_order() {
    // The generated unit must show the Figure-5 phase order: globals →
    // cost functions → locals → declarations → flow.
    let unit = generate_cpp(&sample_model()).unwrap();
    let text = unit.model_text();
    let pos = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("missing {needle}"))
    };
    let globals = pos("int GV = 0;");
    let costs = pos("double FA1()");
    let decls = pos("ActionPlus a1(");
    let flow = pos("a1.execute");
    assert!(globals < costs && costs < decls && decls < flow);
}

#[test]
fn transformation_scales_structurally() {
    // Models of very different sizes transform without structural limits
    // (full scaling curves live in bench_transform).
    for width in [10usize, 100, 1000] {
        let mut b = ModelBuilder::new("wide");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let mut prev = i;
        for k in 0..width {
            let a = b.action(main, &format!("A{k}"), "0.001");
            b.flow(main, prev, a);
            prev = a;
        }
        let f = b.final_node(main, "end");
        b.flow(main, prev, f);
        let model = b.build();
        let unit = to_cpp(&model).unwrap();
        assert_eq!(unit.program.matches(".execute(").count(), width);
        let program = to_program(&model).unwrap();
        assert_eq!(program.body.leaf_count(), width);
    }
}

// ---------------------------------------------------------------- F6 --

#[test]
fn traverser_sequence_fig6() {
    // Figure 6 message protocol: navigationCommand →
    // getCurrentElement(ce) → visitElement(ce), for every element.
    let model = sample_model();
    let mut nav = ExplicitStackNavigator::new(model.main_diagram());
    let mut sink = RecordingHandler::default();
    let mut traverser = Traverser::recording();
    traverser.traverse(&model, &mut nav, &mut sink);

    let mut i = 0;
    let msgs = &traverser.protocol;
    let mut rounds = 0;
    while i < msgs.len() {
        assert_eq!(msgs[i], TraceMessage::NavigationCommand);
        if i + 1 >= msgs.len() {
            break;
        }
        match &msgs[i + 1] {
            TraceMessage::GetCurrentElement(ce)
                if !ce.starts_with("diagram:") && !ce.starts_with("/diagram:") =>
            {
                assert_eq!(msgs[i + 2], TraceMessage::VisitElement(ce.clone()));
                rounds += 1;
                i += 3;
            }
            TraceMessage::GetCurrentElement(_) => i += 2,
            other => panic!("unexpected {other:?}"),
        }
    }
    // 8 main elements + 2 sub elements, two phases each.
    assert_eq!(rounds, 20);
}

// ------------------------------------------------------------- F7/F8 --

#[test]
fn sample_model_structure_fig7() {
    let model = sample_model();
    // Elements of Figure 7(a).
    for name in ["A1", "A2", "A4", "SA", "SA1", "SA2"] {
        assert!(model.element_by_name(name).is_some(), "missing {name}");
    }
    // Globals GV and P (right-down corner of Figure 7(a)).
    let globals: Vec<_> = model.globals().map(|v| v.name.as_str()).collect();
    assert_eq!(globals, vec!["GV", "P"]);
    // Figure 7(b): code associated with A1 assigns GV and P.
    assert_eq!(
        model.element_by_name("A1").unwrap().code_fragment(),
        Some("GV = 1; P = 4;")
    );
    // Figure 7(c): cost function associated with A1 is parameterized.
    assert!(model
        .functions
        .iter()
        .any(|f| f.name == "FA1" && f.body.contains("P")));
    // SA is hierarchical: its body is the separate diagram "SA".
    let flow = build_flow_tree(&model, model.main_diagram()).unwrap();
    assert!(format!("{flow:?}").contains("Composite"));
}

#[test]
fn sample_model_cpp_fig8() {
    // The complete Figure-8 listing shape, pinned as a golden test.
    let unit = to_cpp(&sample_model()).unwrap();
    let text = unit.model_text();

    // (a) globals + one cost function per element {A1, A2, A4, SA1, SA2}.
    assert!(text.contains("int GV = 0;"));
    assert!(text.contains("int P = 4;"));
    for f in ["FA1", "FA2", "FA4", "FSA1", "FSA2"] {
        assert!(
            text.contains(&format!("double {f}(")),
            "missing {f}:\n{text}"
        );
    }
    // FSA2 takes pid as a parameter (Figure 8(a)).
    assert!(text.contains("double FSA2(double pid)"));

    // (b) declarations for executable elements only (SA has none).
    for decl in [
        "ActionPlus a1(\"A1\"",
        "ActionPlus a2(\"A2\"",
        "ActionPlus a4(\"A4\"",
        "ActionPlus sA1(\"SA1\"",
        "ActionPlus sA2(\"SA2\"",
    ] {
        assert!(text.contains(decl), "missing `{decl}`:\n{text}");
    }
    assert!(
        !text.contains("ActionPlus sA(\"SA\""),
        "SA must not be declared"
    );

    // (b) flow: code associated with A1 precedes its execute; SA's C++ is
    // nested inside the main flow; branch is if/else.
    let pos = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("missing {needle}"))
    };
    assert!(pos("GV = 1;") < pos("a1.execute"));
    assert!(pos("if (GV == 1) {") < pos("{ // Activity SA"));
    assert!(pos("{ // Activity SA") < pos("sA1.execute"));
    assert!(pos("sA1.execute") < pos("sA2.execute(uid, pid, tid, FSA2(pid));"));
    assert!(pos("} else {") < pos("a2.execute"));
    assert!(pos("a2.execute") < pos("a4.execute"));
}

#[test]
fn sample_model_executes_fig7_semantics() {
    let run = Session::new(sample_model())
        .unwrap()
        .evaluate(&Scenario::default())
        .unwrap();
    let a = TraceAnalysis::analyze(&run.trace);
    // GV = 1 → SA branch; A2 never runs; A4 always runs.
    assert!(a.element("SA").is_some());
    assert!(a.element("A2").is_none());
    assert!(a.element("A4").is_some());
}
