//! Program-code skeleton generation — the paper's stated future work.
//!
//! Section 5: "In future we plan to extend our approach to enable the
//! automatic generation of the program code based on the UML model."
//! This module implements that extension: from the same flow tree as the
//! PMP backend it emits a compilable **C + MPI/OpenMP program skeleton**
//! — real control flow, real MPI calls, `TODO` bodies where the modeled
//! code blocks go.
//!
//! The skeleton and the performance model are two projections of one
//! model, so they stay structurally consistent by construction.

use crate::cpp::instance_name;
use crate::flow::{build_flow_tree, FlowNode};
use crate::CodegenError;
use prophet_expr::cpp::expr_to_cpp;
use prophet_expr::parse_expression;
use prophet_uml::{Model, NodeKind, TagValue};

/// Generate a C + MPI/OpenMP skeleton program for `model`.
pub fn generate_skeleton(model: &Model) -> Result<String, CodegenError> {
    let mut out = String::new();
    out.push_str("/* Program skeleton generated from the UML performance model.\n");
    out.push_str(&format!(" * Model: {}\n", model.name));
    out.push_str(" * Each TODO marks a code block whose performance the model\n");
    out.push_str(" * describes with a cost function. */\n");
    out.push_str("#include <mpi.h>\n#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n");
    if uses_openmp(model) {
        out.push_str("#include <omp.h>\n");
    }
    out.push('\n');

    // Globals.
    for v in model.globals() {
        match &v.init {
            Some(init) => out.push_str(&format!("{} {} = {};\n", v.var_type.name(), v.name, init)),
            None => out.push_str(&format!("{} {};\n", v.var_type.name(), v.name)),
        }
    }
    out.push('\n');

    // One function stub per modeled code block.
    for el in model.elements() {
        if el.kind == NodeKind::Action && el.stereotype_name() == Some("action+") {
            out.push_str(&format!(
                "/* Code block modeled by <<action+>> {} */\nvoid block_{}(int pid, int tid) {{\n    /* TODO: implement {} */\n}}\n\n",
                el.name,
                instance_name(&el.name),
                el.name
            ));
        }
    }

    out.push_str("int main(int argc, char** argv) {\n");
    out.push_str("    int pid = 0, P = 1;\n");
    out.push_str("    MPI_Init(&argc, &argv);\n");
    out.push_str("    MPI_Comm_rank(MPI_COMM_WORLD, &pid);\n");
    out.push_str("    MPI_Comm_size(MPI_COMM_WORLD, &P);\n");
    // Locals.
    for v in model.locals() {
        match &v.init {
            Some(init) => out.push_str(&format!(
                "    {} {} = {};\n",
                v.var_type.name(),
                v.name,
                init
            )),
            None => out.push_str(&format!("    {} {} = 0;\n", v.var_type.name(), v.name)),
        }
    }
    let flow = build_flow_tree(model, model.main_diagram()).map_err(CodegenError)?;
    emit(model, &flow, 1, &mut out)?;
    out.push_str("    MPI_Finalize();\n    return 0;\n}\n");
    Ok(out)
}

fn uses_openmp(model: &Model) -> bool {
    model
        .elements()
        .iter()
        .any(|e| matches!(e.stereotype_name(), Some("parallel+" | "critical+")))
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

fn tag_cpp(
    model: &Model,
    eid: prophet_uml::ElementId,
    tag: &str,
    default: &str,
) -> Result<String, CodegenError> {
    let el = model.element(eid);
    match el.tag(tag) {
        Some(TagValue::Expr(src)) | Some(TagValue::Str(src)) => {
            let e = parse_expression(src)
                .map_err(|e| CodegenError(format!("tag `{tag}` of `{}`: {e}", el.name)))?;
            Ok(expr_to_cpp(&e))
        }
        Some(TagValue::Int(i)) => Ok(i.to_string()),
        Some(TagValue::Num(n)) => Ok(n.to_string()),
        _ => Ok(default.to_string()),
    }
}

fn emit(
    model: &Model,
    flow: &FlowNode,
    indent: usize,
    out: &mut String,
) -> Result<(), CodegenError> {
    match flow {
        FlowNode::Empty => Ok(()),
        FlowNode::Seq(items) => {
            for i in items {
                emit(model, i, indent, out)?;
            }
            Ok(())
        }
        FlowNode::Exec(eid) => {
            let el = model.element(*eid);
            match el.stereotype_name() {
                Some("send") => {
                    let dest = tag_cpp(model, *eid, "dest", "0")?;
                    let size = tag_cpp(model, *eid, "size", "0")?;
                    let tag = tag_cpp(model, *eid, "tag", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Send(buf_{0}, (int)({size}), MPI_BYTE, (int)({dest}), {tag}, MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("recv") => {
                    let src = tag_cpp(model, *eid, "src", "0")?;
                    let tag = tag_cpp(model, *eid, "tag", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Recv(buf_{0}, BUFSIZ, MPI_BYTE, (int)({src}), {tag}, MPI_COMM_WORLD, MPI_STATUS_IGNORE); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("broadcast") => {
                    let root = tag_cpp(model, *eid, "root", "0")?;
                    let size = tag_cpp(model, *eid, "size", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Bcast(buf_{0}, (int)({size}), MPI_BYTE, (int)({root}), MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("reduce") => {
                    let root = tag_cpp(model, *eid, "root", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Reduce(sendbuf_{0}, recvbuf_{0}, 1, MPI_DOUBLE, MPI_SUM, (int)({root}), MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("allreduce") => {
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Allreduce(sendbuf_{0}, recvbuf_{0}, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("scatter") => {
                    let root = tag_cpp(model, *eid, "root", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Scatter(sendbuf_{0}, 1, MPI_DOUBLE, recvbuf_{0}, 1, MPI_DOUBLE, (int)({root}), MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("gather") => {
                    let root = tag_cpp(model, *eid, "root", "0")?;
                    pad(out, indent);
                    out.push_str(&format!(
                        "MPI_Gather(sendbuf_{0}, 1, MPI_DOUBLE, recvbuf_{0}, 1, MPI_DOUBLE, (int)({root}), MPI_COMM_WORLD); /* {1} */\n",
                        instance_name(&el.name),
                        el.name
                    ));
                }
                Some("barrier") => {
                    pad(out, indent);
                    out.push_str(&format!("MPI_Barrier(MPI_COMM_WORLD); /* {} */\n", el.name));
                }
                _ => {
                    // Associated code fragment (if any) becomes real code.
                    if let Some(code) = el.code_fragment() {
                        let stmts = prophet_expr::parse_statements(code).map_err(|e| {
                            CodegenError(format!("code fragment of `{}`: {e}", el.name))
                        })?;
                        out.push_str(&prophet_expr::cpp::fragment_to_cpp(&stmts, indent * 2));
                    }
                    pad(out, indent);
                    out.push_str(&format!("block_{}(pid, 0);\n", instance_name(&el.name)));
                }
            }
            Ok(())
        }
        FlowNode::Branch(arms) => {
            let mut first = true;
            for (guard, arm) in arms {
                pad(out, indent);
                match guard {
                    Some(g) => {
                        let e = parse_expression(g)
                            .map_err(|err| CodegenError(format!("guard `{g}`: {err}")))?;
                        if first {
                            out.push_str(&format!("if ({}) {{\n", expr_to_cpp(&e)));
                        } else {
                            out.push_str(&format!("}} else if ({}) {{\n", expr_to_cpp(&e)));
                        }
                    }
                    None => out.push_str(if first { "if (1) {\n" } else { "} else {\n" }),
                }
                emit(model, arm, indent + 1, out)?;
                first = false;
            }
            pad(out, indent);
            out.push_str("}\n");
            Ok(())
        }
        FlowNode::Parallel(arms) => {
            pad(out, indent);
            out.push_str("#pragma omp parallel sections\n");
            pad(out, indent);
            out.push_str("{\n");
            for arm in arms {
                pad(out, indent + 1);
                out.push_str("#pragma omp section\n");
                pad(out, indent + 1);
                out.push_str("{\n");
                emit(model, arm, indent + 2, out)?;
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
                    let count = tag_cpp(model, *element, "iterations", "0")?;
                    let var = match el.tag("variable") {
                        Some(TagValue::Str(v)) => v.clone(),
                        _ => format!("i_{}", instance_name(&el.name)),
                    };
                    pad(out, indent);
                    out.push_str(&format!(
                        "for (int {var} = 0; {var} < (int)({count}); ++{var}) {{ /* {} */\n",
                        el.name
                    ));
                    emit(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                Some("parallel+") => {
                    let threads = tag_cpp(model, *element, "threads", "")?;
                    pad(out, indent);
                    if threads.is_empty() {
                        out.push_str(&format!("#pragma omp parallel /* {} */\n", el.name));
                    } else {
                        out.push_str(&format!(
                            "#pragma omp parallel num_threads((int)({threads})) /* {} */\n",
                            el.name
                        ));
                    }
                    pad(out, indent);
                    out.push_str("{\n");
                    emit(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                Some("critical+") => {
                    pad(out, indent);
                    out.push_str(&format!("#pragma omp critical /* {} */\n", el.name));
                    pad(out, indent);
                    out.push_str("{\n");
                    emit(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
                _ => {
                    pad(out, indent);
                    out.push_str(&format!("{{ /* activity {} */\n", el.name));
                    emit(model, body, indent + 1, out)?;
                    pad(out, indent);
                    out.push_str("}\n");
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_uml::{ModelBuilder, TagValue, VarType};

    fn mpi_model() -> Model {
        let mut b = ModelBuilder::new("skel");
        b.global("GV", VarType::Int, Some("0"));
        let main = b.main_diagram();
        let body = b.diagram("iter");
        let i = b.initial(main, "start");
        let setup = b.action(main, "Setup", "0.1");
        b.attach_code(setup, "GV = 1;");
        let lp = b.loop_activity(main, "Iterate", body, "10");
        let f = b.final_node(main, "end");
        b.flow(main, i, setup);
        b.flow(main, setup, lp);
        b.flow(main, lp, f);

        let work = b.action(body, "Work", "0.01");
        let bar = b.mpi(body, "Sync", "barrier", &[]);
        b.flow(body, work, bar);
        b.build()
    }

    #[test]
    fn skeleton_has_mpi_scaffolding() {
        let s = generate_skeleton(&mpi_model()).unwrap();
        for needle in [
            "#include <mpi.h>",
            "MPI_Init(&argc, &argv);",
            "MPI_Comm_rank(MPI_COMM_WORLD, &pid);",
            "MPI_Barrier(MPI_COMM_WORLD); /* Sync */",
            "MPI_Finalize();",
        ] {
            assert!(s.contains(needle), "missing `{needle}`:\n{s}");
        }
    }

    #[test]
    fn skeleton_has_block_stubs_and_flow() {
        let s = generate_skeleton(&mpi_model()).unwrap();
        assert!(s.contains("void block_setup(int pid, int tid)"), "{s}");
        assert!(s.contains("/* TODO: implement Setup */"), "{s}");
        assert!(s.contains("block_setup(pid, 0);"), "{s}");
        assert!(
            s.contains("for (int i_iterate = 0; i_iterate < (int)(10); ++i_iterate)"),
            "{s}"
        );
        // Code fragment became real code before the block call.
        let frag = s.find("GV = 1;\n").expect("fragment");
        let call = s.find("block_setup(pid, 0);").expect("call");
        // The fragment also appears in globals? No — only in main. First
        // occurrence after main's start must precede the call.
        assert!(frag < call, "{s}");
    }

    #[test]
    fn skeleton_openmp_only_when_needed() {
        let s = generate_skeleton(&mpi_model()).unwrap();
        assert!(!s.contains("#include <omp.h>"), "{s}");

        let mut b = ModelBuilder::new("omp");
        let main = b.main_diagram();
        let region = b.diagram("r");
        let i = b.initial(main, "start");
        let pr = b.parallel_activity(main, "R", region, "4");
        let f = b.final_node(main, "end");
        b.flow(main, i, pr);
        b.flow(main, pr, f);
        b.action(region, "W", "0.1");
        let s = generate_skeleton(&b.build()).unwrap();
        assert!(s.contains("#include <omp.h>"), "{s}");
        assert!(
            s.contains("#pragma omp parallel num_threads((int)(4)) /* R */"),
            "{s}"
        );
    }

    #[test]
    fn skeleton_point_to_point() {
        let mut b = ModelBuilder::new("ptp");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let d = b.decision(main, "who");
        let s0 = b.mpi(
            main,
            "S0",
            "send",
            &[
                ("dest", TagValue::Expr("pid + 1".into())),
                ("size", TagValue::Expr("1024".into())),
            ],
        );
        let r0 = b.mpi(
            main,
            "R0",
            "recv",
            &[("src", TagValue::Expr("pid - 1".into()))],
        );
        let m = b.merge(main, "m");
        let f = b.final_node(main, "end");
        b.flow(main, i, d);
        b.guarded_flow(main, d, s0, "pid == 0");
        b.guarded_flow(main, d, r0, "else");
        b.flow(main, s0, m);
        b.flow(main, r0, m);
        b.flow(main, m, f);
        let s = generate_skeleton(&b.build()).unwrap();
        assert!(s.contains("if (pid == 0) {"), "{s}");
        assert!(
            s.contains(
                "MPI_Send(buf_s0, (int)(1024), MPI_BYTE, (int)(pid + 1), 0, MPI_COMM_WORLD)"
            ),
            "{s}"
        );
        assert!(s.contains("MPI_Recv(buf_r0, BUFSIZ, MPI_BYTE, (int)(pid - 1), 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE)"), "{s}");
    }
}
