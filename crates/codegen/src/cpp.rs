//! The Figure-5 transformation algorithm: UML model → C++ (PMP).
//!
//! The emission follows the paper's phases exactly (line numbers refer to
//! the algorithm listing in Figure 5):
//!
//! 1. lines 1–8: identify and select performance modeling elements by
//!    stereotype name, in the document order the Figure-6 traverser
//!    gives the XML representation ([`prophet_uml::xmi::document_order`]),
//!    so a model and its XML parse declare them alike,
//! 2. lines 9–12: globals,
//! 3. lines 13–18: cost functions,
//! 4. lines 20–23: locals,
//! 5. lines 24–28: performance-modeling-element declarations,
//! 6. lines 29–35: the execution flow (`execute()` calls, `if-else-if`
//!    for decisions, nested blocks for composites).
//!
//! The output shape is pinned to Figure 8 by golden tests in the
//! workspace (`sample_model_cpp_fig8`).

use crate::flow::{build_flow_tree, FlowNode};
use prophet_expr::cpp::{expr_to_cpp, fragment_to_cpp, function_to_cpp};
use prophet_expr::{parse_expression, parse_statements, FunctionDef};
use prophet_uml::xmi::document_order;
use prophet_uml::{ElementId, Model, NodeKind, TagValue};
use std::fmt;

/// Transformation failure (malformed model; the checker should have
/// caught it, but codegen never panics on user data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

/// The generated C++ compilation unit, split into the sections the paper
/// shows in Figure 8(a) and 8(b).
#[derive(Debug, Clone)]
pub struct CppUnit {
    /// Model name.
    pub model_name: String,
    /// Section: global variable definitions (Figure 8(a) lines 24–25).
    pub globals: String,
    /// Section: cost function definitions (Figure 8(a) lines 31–54).
    pub cost_functions: String,
    /// Section: the program body — locals, declarations, flow
    /// (Figure 8(b)).
    pub program: String,
}

impl CppUnit {
    /// The complete PMP translation unit, including the runtime prelude.
    pub fn full_text(&self) -> String {
        format!(
            "{}\n// === Performance Model of Program (PMP): {} ===\n\n// Global variables\n{}\n// Cost functions\n{}\n{}",
            crate::runtime::runtime_prelude(),
            self.model_name,
            self.globals,
            self.cost_functions,
            self.program
        )
    }

    /// The model-specific text only (no prelude) — what Figure 8 shows.
    pub fn model_text(&self) -> String {
        format!(
            "// Global variables\n{}\n// Cost functions\n{}\n{}",
            self.globals, self.cost_functions, self.program
        )
    }
}

/// C++ class representing a stereotype in the PMP (the paper maps
/// `<<action+>>` to class `ActionPlus`, Figure 4(b)).
pub fn class_of_stereotype(stereotype: &str) -> &'static str {
    match stereotype {
        "action+" => "ActionPlus",
        "activity+" => "ActivityPlus",
        "loop+" => "LoopPlus",
        "parallel+" => "ParallelPlus",
        "critical+" => "CriticalPlus",
        "send" => "MpiSend",
        "recv" => "MpiRecv",
        "broadcast" => "MpiBroadcast",
        "reduce" => "MpiReduce",
        "allreduce" => "MpiAllreduce",
        "scatter" => "MpiScatter",
        "gather" => "MpiGather",
        "barrier" => "MpiBarrier",
        _ => "ActionPlus",
    }
}

/// Instance name: the paper lower-cases the element name's first letter
/// (`Kernel6` → `kernel6`, Figure 4(c)).
pub fn instance_name(element_name: &str) -> String {
    let mut chars = element_name.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Run the Figure-5 algorithm over `model`.
pub fn generate_cpp(model: &Model) -> Result<CppUnit, CodegenError> {
    // --- Lines 1–8: identify and select performance modeling elements, ---
    // in document order, each with its document-order ordinal (the id
    // its XML parse gives it).
    let mut ordinal = 0;
    let mut perf_elements = Vec::new();
    for did in document_order(model) {
        for &eid in &model.diagram(did).nodes {
            if model.element(eid).is_performance_element() {
                perf_elements.push((eid, ordinal));
            }
            ordinal += 1;
        }
    }

    // --- Lines 9–12: globals. ---
    let mut globals = String::new();
    for v in model.globals() {
        match &v.init {
            Some(init) => {
                globals.push_str(&format!("{} {} = {};\n", v.var_type.name(), v.name, init))
            }
            None => globals.push_str(&format!("{} {};\n", v.var_type.name(), v.name)),
        }
    }

    // --- Lines 13–18: cost functions. ---
    // Functions declared on the model come first; elements whose `cost`
    // tag is an inline expression (not a plain call to a declared
    // function) get a synthesized function, so every element executes via
    // a named cost function exactly as in Figure 8.
    let mut cost_functions = String::new();
    for f in &model.functions {
        let body = parse_expression(&f.body)
            .map_err(|e| CodegenError(format!("cost function `{}`: {e}", f.name)))?;
        let def = FunctionDef::new(f.name.clone(), f.params.clone(), body);
        cost_functions.push_str(&function_to_cpp(&def));
        cost_functions.push('\n');
    }

    // --- Program section. ---
    let mut program = String::new();
    program.push_str("// Program\n");
    program.push_str(&format!(
        "void {}(int uid, int pid, int tid) {{\n",
        sanitize(&model.name)
    ));

    // Lines 20–23: locals.
    let locals: Vec<_> = model.locals().collect();
    if !locals.is_empty() {
        program.push_str("  // Local variables\n");
        for v in &locals {
            match &v.init {
                Some(init) => {
                    program.push_str(&format!("  {} {} = {};\n", v.var_type.name(), v.name, init))
                }
                None => program.push_str(&format!("  {} {};\n", v.var_type.name(), v.name)),
            }
        }
    }

    // Lines 24–28: declare performance modeling elements.
    program.push_str("  // Declare performance modeling elements\n");
    for &(eid, ordinal) in &perf_elements {
        let el = model.element(eid);
        // Composites are structural in the C++ flow (nested blocks); only
        // executable elements get object declarations — matching Figure 8
        // where SA has no declaration but SA1/SA2 do.
        if is_executable(model, eid) {
            let class = class_of_stereotype(el.stereotype_name().unwrap_or("action+"));
            let id_tag = match el.tag("id") {
                Some(TagValue::Int(i)) => i.to_string(),
                _ => ordinal.to_string(),
            };
            program.push_str(&format!(
                "  {class} {}(\"{}\", {id_tag});\n",
                instance_name(&el.name),
                el.name
            ));
        }
    }

    // Lines 29–35: define elements and their control flow.
    program.push_str("  // Execution flow of performance modeling elements\n");
    let flow = build_flow_tree(model, model.main_diagram()).map_err(CodegenError)?;
    emit_flow(model, &flow, 1, &mut program)?;
    program.push_str("}\n");

    Ok(CppUnit {
        model_name: model.name.clone(),
        globals,
        cost_functions,
        program,
    })
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Executable = produces an `execute()` call (actions and MPI blocks).
fn is_executable(model: &Model, eid: ElementId) -> bool {
    let el = model.element(eid);
    matches!(el.kind, NodeKind::Action)
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// The cost argument of `execute()`: the `cost` tag expression, or the
/// literal `time` tag, or `0` when neither is given.
fn cost_argument(model: &Model, eid: ElementId) -> Result<String, CodegenError> {
    let el = model.element(eid);
    if let Some(src) = el.cost_expr() {
        let expr = parse_expression(src)
            .map_err(|e| CodegenError(format!("cost of `{}`: {e}", el.name)))?;
        return Ok(expr_to_cpp(&expr));
    }
    if let Some(TagValue::Num(t)) = el.tag("time") {
        return Ok(format!("{t}"));
    }
    if let Some(TagValue::Int(t)) = el.tag("time") {
        return Ok(format!("{t}"));
    }
    Ok("0".into())
}

fn emit_flow(
    model: &Model,
    flow: &FlowNode,
    indent: usize,
    out: &mut String,
) -> Result<(), CodegenError> {
    match flow {
        FlowNode::Empty => Ok(()),
        FlowNode::Seq(items) => {
            for item in items {
                emit_flow(model, item, indent, out)?;
            }
            Ok(())
        }
        FlowNode::Exec(eid) => {
            let el = model.element(eid.0.into_id());
            // Associated code fragment first (Figure 8(b) lines 72–75),
            // then the execute() call (line 76).
            if let Some(code) = el.code_fragment() {
                let stmts = parse_statements(code)
                    .map_err(|e| CodegenError(format!("code fragment of `{}`: {e}", el.name)))?;
                pad(out, indent);
                out.push_str(&format!("// Code associated with {}\n", el.name));
                out.push_str(&fragment_to_cpp(&stmts, indent));
            }
            let cost = cost_argument(model, *eid)?;
            pad(out, indent);
            out.push_str(&format!(
                "{}.execute(uid, pid, tid, {cost});\n",
                instance_name(&el.name)
            ));
            Ok(())
        }
        FlowNode::Branch(arms) => {
            // Figure 8(b) lines 77–87: if-else-if chain.
            let mut first = true;
            for (guard, arm) in arms {
                match guard {
                    Some(g) => {
                        let expr = parse_expression(g)
                            .map_err(|e| CodegenError(format!("guard `{g}`: {e}")))?;
                        if first {
                            pad(out, indent);
                            out.push_str(&format!("if ({}) {{\n", expr_to_cpp(&expr)));
                        } else {
                            pad(out, indent);
                            out.push_str(&format!("}} else if ({}) {{\n", expr_to_cpp(&expr)));
                        }
                    }
                    None => {
                        if first {
                            // A branch whose first arm is `else` is a
                            // degenerate unconditional block.
                            pad(out, indent);
                            out.push_str("if (true) {\n");
                        } else {
                            pad(out, indent);
                            out.push_str("} else {\n");
                        }
                    }
                }
                emit_flow(model, arm, indent + 1, out)?;
                first = false;
            }
            pad(out, indent);
            out.push_str("}\n");
            Ok(())
        }
        FlowNode::Parallel(arms) => {
            pad(out, indent);
            out.push_str("// Concurrent flows (fork/join)\n");
            pad(out, indent);
            out.push_str("#pragma omp parallel sections\n");
            pad(out, indent);
            out.push_str("{\n");
            for arm in arms {
                pad(out, indent + 1);
                out.push_str("#pragma omp section\n");
                pad(out, indent + 1);
                out.push_str("{\n");
                emit_flow(model, arm, indent + 2, out)?;
                pad(out, indent + 1);
                out.push_str("}\n");
            }
            pad(out, indent);
            out.push_str("}\n");
            Ok(())
        }
        FlowNode::Composite { element, body } => {
            let el = model.element(*element);
            match el.stereotype_name() {
                Some("loop+") => {
                    let count = el
                        .tag("iterations")
                        .and_then(TagValue::as_expr)
                        .ok_or_else(|| {
                            CodegenError(format!("loop `{}` has no iterations tag", el.name))
                        })?;
                    let expr = parse_expression(count)
                        .map_err(|e| CodegenError(format!("iterations of `{}`: {e}", el.name)))?;
                    let var = match el.tag("variable") {
                        Some(TagValue::Str(v)) => v.clone(),
                        _ => format!("i_{}", instance_name(&el.name)),
                    };
                    pad(out, indent);
                    out.push_str(&format!(
                        "for (int {var} = 0; {var} < {}; ++{var}) {{ // {}\n",
                        expr_to_cpp(&expr),
                        el.name
                    ));
                    emit_flow(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                Some("parallel+") => {
                    let threads = el.tag("threads").and_then(TagValue::as_expr);
                    pad(out, indent);
                    match threads {
                        Some(t) => {
                            let expr = parse_expression(t).map_err(|e| {
                                CodegenError(format!("threads of `{}`: {e}", el.name))
                            })?;
                            out.push_str(&format!(
                                "#pragma omp parallel num_threads({}) // {}\n",
                                expr_to_cpp(&expr),
                                el.name
                            ));
                        }
                        None => out.push_str(&format!("#pragma omp parallel // {}\n", el.name)),
                    }
                    pad(out, indent);
                    out.push_str("{\n");
                    emit_flow(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                Some("critical+") => {
                    pad(out, indent);
                    out.push_str(&format!("#pragma omp critical // {}\n", el.name));
                    pad(out, indent);
                    out.push_str("{\n");
                    emit_flow(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                _ => {
                    // <<activity+>>: nested block (Figure 8(b) lines 79–82).
                    pad(out, indent);
                    out.push_str(&format!("{{ // Activity {}\n", el.name));
                    emit_flow(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
            }
            Ok(())
        }
    }
}

/// Tiny helper to keep `Exec(eid)` ergonomic above.
trait IntoId {
    fn into_id(self) -> ElementId;
}
impl IntoId for usize {
    fn into_id(self) -> ElementId {
        ElementId(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_uml::{ModelBuilder, VarType};

    #[test]
    fn instance_naming_matches_figure4() {
        assert_eq!(instance_name("Kernel6"), "kernel6");
        assert_eq!(instance_name("A1"), "a1");
        assert_eq!(instance_name("SA"), "sA");
    }

    #[test]
    fn kernel6_figure4_shape() {
        // Figure 4(c): `ActionPlus kernel6(...); kernel6.execute(...,FK6(...));`
        let mut b = ModelBuilder::new("kernel6_model");
        b.function("FK6", &[], "1.6e-9 * N * N * M");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let k = b.action(main, "Kernel6", "FK6()");
        let f = b.final_node(main, "end");
        b.flow(main, i, k);
        b.flow(main, k, f);
        let unit = generate_cpp(&b.build()).unwrap();
        assert!(
            unit.program.contains("ActionPlus kernel6(\"Kernel6\", 1);"),
            "{}",
            unit.program
        );
        assert!(
            unit.program
                .contains("kernel6.execute(uid, pid, tid, FK6());"),
            "{}",
            unit.program
        );
        assert!(
            unit.cost_functions.contains("double FK6(){ return"),
            "{}",
            unit.cost_functions
        );
    }

    #[test]
    fn globals_and_locals_sections() {
        let mut b = ModelBuilder::new("vars");
        b.global("GV", VarType::Int, Some("0"));
        b.global("P", VarType::Int, Some("4"));
        b.local("t", VarType::Double, None);
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let unit = generate_cpp(&b.build()).unwrap();
        assert_eq!(unit.globals, "int GV = 0;\nint P = 4;\n");
        assert!(unit.program.contains("  double t;\n"), "{}", unit.program);
    }

    #[test]
    fn branch_becomes_if_else_if() {
        let mut b = ModelBuilder::new("branchy");
        b.global("GV", VarType::Int, Some("0"));
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "dec");
        let x = b.action(main, "X", "1");
        let y = b.action(main, "Y", "2");
        let z = b.action(main, "Z", "3");
        let mg = b.merge(main, "merge");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, x, "GV == 1");
        b.guarded_flow(main, d, y, "GV == 2");
        b.guarded_flow(main, d, z, "else");
        b.flow(main, x, mg);
        b.flow(main, y, mg);
        b.flow(main, z, mg);
        b.flow(main, mg, f);
        let unit = generate_cpp(&b.build()).unwrap();
        let p = &unit.program;
        assert!(p.contains("if (GV == 1) {"), "{p}");
        assert!(p.contains("} else if (GV == 2) {"), "{p}");
        assert!(p.contains("} else {"), "{p}");
    }

    #[test]
    fn code_fragment_emitted_before_execute() {
        let mut b = ModelBuilder::new("frag");
        b.global("GV", VarType::Int, Some("0"));
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1");
        b.attach_code(a, "GV = 1;");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let unit = generate_cpp(&b.build()).unwrap();
        let frag_pos = unit.program.find("GV = 1;").expect("fragment present");
        let exec_pos = unit.program.find("a1.execute").expect("execute present");
        assert!(frag_pos < exec_pos, "{}", unit.program);
    }

    #[test]
    fn loop_composite_becomes_for() {
        let mut b = ModelBuilder::new("loopy");
        let main = b.main_diagram();
        let body = b.diagram("body");
        let i = b.initial(main, "start");
        let lp = b.loop_activity(main, "KLoop", body, "100");
        let f = b.final_node(main, "end");
        b.flow(main, i, lp);
        b.flow(main, lp, f);
        b.action(body, "Step", "0.5");
        let unit = generate_cpp(&b.build()).unwrap();
        assert!(
            unit.program
                .contains("for (int i_kLoop = 0; i_kLoop < 100; ++i_kLoop) { // KLoop"),
            "{}",
            unit.program
        );
        assert!(unit.program.contains("step.execute"), "{}", unit.program);
    }

    #[test]
    fn parallel_region_becomes_pragma() {
        let mut b = ModelBuilder::new("omp");
        let main = b.main_diagram();
        let body = b.diagram("body");
        let i = b.initial(main, "start");
        let pr = b.parallel_activity(main, "Region", body, "threads");
        let f = b.final_node(main, "end");
        b.flow(main, i, pr);
        b.flow(main, pr, f);
        b.action(body, "Work", "1.0 / threads");
        let unit = generate_cpp(&b.build()).unwrap();
        assert!(
            unit.program
                .contains("#pragma omp parallel num_threads(threads) // Region"),
            "{}",
            unit.program
        );
    }

    #[test]
    fn time_tag_used_when_no_cost() {
        let mut b = ModelBuilder::new("timed");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.timed_action(main, "SampleAction", 10.0);
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let unit = generate_cpp(&b.build()).unwrap();
        assert!(
            unit.program
                .contains("sampleAction.execute(uid, pid, tid, 10);"),
            "{}",
            unit.program
        );
    }

    #[test]
    fn mpi_elements_use_mpi_classes() {
        use prophet_uml::TagValue;
        let mut b = ModelBuilder::new("mpi");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let s = b.mpi(
            main,
            "send0",
            "send",
            &[("dest", TagValue::Expr("pid + 1".into()))],
        );
        let f = b.final_node(main, "end");
        b.flow(main, i, s);
        b.flow(main, s, f);
        let unit = generate_cpp(&b.build()).unwrap();
        assert!(
            unit.program.contains("MpiSend send0(\"send0\""),
            "{}",
            unit.program
        );
    }

    #[test]
    fn bad_cost_reported_not_panicked() {
        let mut b = ModelBuilder::new("bad");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1 +");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let err = generate_cpp(&b.build()).unwrap_err();
        assert!(err.0.contains("A1"), "{err}");
    }

    #[test]
    fn full_text_includes_prelude() {
        let mut b = ModelBuilder::new("mini");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "A1", "1");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let unit = generate_cpp(&b.build()).unwrap();
        let full = unit.full_text();
        assert!(full.contains("class ActionPlus"), "prelude missing");
        assert!(full.contains("PMP"), "section banner missing");
    }
}
