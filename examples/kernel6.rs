//! Kernel 6 end to end — the paper's running example (Figures 3 and 4)
//! plus a prediction-accuracy check against the measured kernel.
//!
//! 1. run the *real* Livermore kernel 6 (Rust port) at a calibration size
//!    and derive seconds-per-flop (the paper's profiling step),
//! 2. build the UML model of Figure 3(c) with cost function `FK6`,
//! 3. transform it to C++ (Figure 4(c)) and to the executable IR,
//! 4. predict the runtime at *other* problem sizes and compare with
//!    fresh measurements of the real kernel.
//!
//! Run with: `cargo run --release --example kernel6`

use prophet_core::{to_cpp, Scenario, Session};
use prophet_workloads::lfk::{calibrate_kernel6, kernel6_flops, lfk_kernel6};
use prophet_workloads::models::kernel6_model;
use std::time::Instant;

fn measure(n: usize, m: usize) -> f64 {
    let mut w: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|i| 0.5 / (i % 97 + 1) as f64).collect();
    lfk_kernel6(&mut w, &b, n, 1); // warm-up
    let start = Instant::now();
    lfk_kernel6(&mut w, &b, n, m);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&w);
    secs
}

fn main() {
    // --- 1. Calibrate (profiling step of Section 3). -------------------
    let cal = calibrate_kernel6(600, 20);
    println!(
        "calibration at n={} m={}: {:.3} ms, {:.3e} s/flop",
        cal.n,
        cal.m,
        cal.seconds * 1e3,
        cal.seconds_per_flop
    );

    // --- 2/3. Model + transformation. ----------------------------------
    let model = kernel6_model(600, 20, cal.seconds_per_flop);
    let session = Session::new(model).expect("compile");
    println!("\nFigure 4(c) shape in generated C++:");
    let cpp = to_cpp(session.model()).expect("C++ backend");
    for line in cpp.program.lines().filter(|l| l.contains("kernel6")) {
        println!("  {}", line.trim());
    }

    // --- 4. Predict vs measure across sizes (experiment E1). -----------
    println!(
        "\n{:>6} {:>4} {:>14} {:>14} {:>8}",
        "n", "m", "predicted(s)", "measured(s)", "err%"
    );
    for &(n, m) in &[
        (200usize, 20usize),
        (400, 20),
        (600, 20),
        (800, 10),
        (1200, 5),
    ] {
        let session = Session::new(kernel6_model(n, m, cal.seconds_per_flop)).expect("compile");
        let predicted = session
            .evaluate(&Scenario::default())
            .expect("evaluate")
            .predicted_time;
        let measured = measure(n, m);
        let err = (predicted - measured).abs() / measured * 100.0;
        println!("{n:>6} {m:>4} {predicted:>14.6} {measured:>14.6} {err:>7.1}%");
        let _ = kernel6_flops(n, m);
    }
    println!("\n(The model is a single-coefficient linear-in-flops cost function, so");
    println!(" errors grow where cache effects kick in — exactly the fidelity the");
    println!(" paper's rough-estimation workflow targets.)");
}
