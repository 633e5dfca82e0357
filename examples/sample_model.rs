//! The Figure 7/8 sample model, reproduced end to end.
//!
//! Prints: the model's XML representation (`Models (XML)`), the checker
//! verdict, the generated C++ (compare with the paper's Figure 8), the
//! predicted time, and the per-element profile.
//!
//! Run with: `cargo run --release --example sample_model`

use prophet_core::{to_cpp, Scenario, Session};
use prophet_trace::TraceAnalysis;
use prophet_workloads::models::sample_model;

fn main() {
    let session = Session::new(sample_model()).expect("compile");

    println!("=== Models (XML) ===");
    println!("{}", session.model_xml());

    println!("=== Model Checker ===");
    println!(
        "{} finding(s){}",
        session.diagnostics().len(),
        if session.diagnostics().is_empty() {
            " — model conforms"
        } else {
            ":"
        }
    );
    for d in session.diagnostics() {
        println!("  {d}");
    }

    println!("\n=== Generated C++ (compare with Figure 8) ===");
    let cpp = to_cpp(session.model()).expect("C++ backend");
    println!("{}", cpp.model_text());

    let run = session.evaluate(&Scenario::default()).expect("evaluate");

    println!("=== Evaluation ===");
    println!("predicted time: {:.6} s", run.predicted_time);

    let analysis = TraceAnalysis::analyze(&run.trace);
    println!("\nelement profile:");
    for p in &analysis.profile {
        println!("  {:<10} total={:.4}s", p.element, p.total_time);
    }
    println!(
        "\nBranch taken: {} (A1's associated code sets GV = 1, so the model\nexecutes activity SA rather than action A2 — Figure 7(a) semantics).",
        if analysis.element("SA1").is_some() { "SA" } else { "A2" }
    );
}
