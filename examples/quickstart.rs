//! Quickstart: the full Performance Prophet pipeline on a small model.
//!
//! Builds a UML performance model programmatically (the stand-in for
//! Teuta's drawing space), checks it, transforms it to C++ (the PMP of
//! the paper's Figure 8) *and* to the executable IR, evaluates it by
//! simulation, and prints the predicted time plus an ASCII timeline.
//!
//! Run with: `cargo run --release --example quickstart`

use prophet_core::{mpi_grid, to_cpp, Backend, Scenario, Session, SweepConfig};
use prophet_machine::SystemParams;
use prophet_trace::{render_timeline, TraceAnalysis};
use prophet_uml::{ModelBuilder, VarType};

fn main() {
    // --- 1. Specify the performance model (Figure 1/3 style). ---------
    let mut b = ModelBuilder::new("quickstart");
    b.global("WORK", VarType::Double, Some("2.0"));
    b.function("FInit", &[], "0.25");
    b.function("FSolve", &["w"], "w / P"); // scales with process count
    b.function("FWrite", &[], "0.5");

    let main = b.main_diagram();
    let start = b.initial(main, "start");
    let init = b.action(main, "InitPhase", "FInit()");
    let solve = b.action(main, "SolvePhase", "FSolve(WORK)");
    let write = b.action(main, "WriteResults", "FWrite()");
    let end = b.final_node(main, "end");
    b.flow(main, start, init);
    b.flow(main, init, solve);
    b.flow(main, solve, write);
    b.flow(main, write, end);

    // --- 2. Compile once: check → transform (both targets). -----------
    let session = Session::new(b.build()).expect("compile");

    println!("=== model checker ===");
    if session.diagnostics().is_empty() {
        println!("no findings");
    }
    for d in session.diagnostics() {
        println!("{d}");
    }

    println!("\n=== generated C++ (PMP, Figure 8 shape) ===");
    let cpp = to_cpp(session.model()).expect("C++ backend");
    println!("{}", cpp.model_text());

    // --- 3. Evaluate a scenario (the SP of Figure 2). -----------------
    let run = session
        .evaluate(&Scenario::new(SystemParams::flat_mpi(4, 1)))
        .expect("evaluate");

    println!("=== prediction ===");
    println!("predicted execution time: {:.6} s", run.predicted_time);
    println!(
        "events processed: {}, processes completed: {}",
        run.report.events_processed, run.report.processes_completed
    );

    let analysis = TraceAnalysis::analyze(&run.trace);
    println!("\n=== element profile (Charts data) ===");
    for p in &analysis.profile {
        println!(
            "{:<14} count={:<3} total={:.4}s mean={:.4}s",
            p.element, p.count, p.total_time, p.mean_time
        );
    }

    println!("\n=== timeline (Animator stand-in) ===");
    print!("{}", render_timeline(&analysis, 4, 64));

    println!("\n=== trace file (TF) head ===");
    for line in run.trace.to_text().lines().take(8) {
        println!("{line}");
    }

    // --- 4. Sweep an SP grid on the analytic backend. ------------------
    // Closed-form evaluation of the same compiled program: no DES
    // kernel, no trace — the fast engine for many-point sweeps, and it
    // agrees with the simulation within the conformance contract
    // (exactly, for this communication-free model).
    let report = session.sweep_with(
        &mpi_grid(&[1, 2, 4, 8], 1),
        &SweepConfig {
            backend: Backend::Analytic,
            ..Default::default()
        },
        |_, _| {},
    );
    println!("\n=== analytic SP sweep ===");
    for point in &report.points {
        println!(
            "P={:<3} predicted {:.6} s",
            point.sp.processes,
            point.time().expect("sweep point evaluates")
        );
    }
}
