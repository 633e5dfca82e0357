//! The prediction-pipeline benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//!
//! * `hot_estimate`: repeated bundled-model estimates through a spawned
//!   two-shard fleet behind a router, every timed request a pool reuse.
//! * `edit_estimate`: never-seen model variants posted inline, with
//!   follow-up estimates, against the same fleet plus a shared store.
//! * `sweep_optimize`: in-process compile, 64-point analytic and
//!   simulation sweeps and a lazy optimize, rotating over the models.
//!
//! With `--trace 0` the run times the workload from outside and prints
//! the end-to-end metrics; with `--trace 1` it times each layer's public
//! functions on the workload's own inputs and prints the per-layer
//! metrics and a "where the time goes" table. Human-readable lines come
//! first; the last line of stdout is the result object.

mod fleet;
mod layers;
mod load;
mod models;
mod rng;
mod service;
mod stats;
mod sweep;
mod wire;

use std::path::PathBuf;
use std::time::Duration;

/// Everything a workload needs from the command line and environment.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The `prophet` release binary.
    pub bin: PathBuf,
    /// Scratch output directory (stores, span dumps, result log).
    pub out: PathBuf,
    /// Client threads and sweep/optimize workers.
    pub nproc: usize,
}

impl Ctx {
    /// A share of the run length.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    /// Whether every answer check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Further named figures, printed for people and logged, not gated.
    pub extra: Vec<Metric>,
    /// Human-readable lines (phases, tables).
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Count a load phase's requests and failures, and describe it.
    pub fn account(&mut self, name: &str, phase: &load::Phase) {
        self.attempted += phase.sent;
        self.failed += phase.failed;
        self.lines.push(phase.summary(name));
        for e in &phase.errors {
            self.lines.push(format!("  error: {e}"));
        }
        if phase.exhausted {
            self.lines
                .push(format!("  {name}: a client ran out of generated requests"));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <hot_estimate|edit_estimate|sweep_optimize> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let bin = PathBuf::from(std::env::var_os("PERFBENCH_PROPHET").unwrap_or_default());
    let out = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        bin,
        out,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let cpu_before = cpu_ticks();
    let result = match (args.workload.as_str(), args.trace) {
        ("hot_estimate", false) => service::hot(&ctx),
        ("edit_estimate", false) => service::edit(&ctx),
        ("sweep_optimize", false) => sweep::timed(&ctx),
        ("hot_estimate" | "edit_estimate" | "sweep_optimize", true) => {
            layers::traced(&ctx, &args.workload)
        }
        (other, _) => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let context = run_context(&ctx, &args, steal_share(cpu_before, cpu_ticks()));
    for line in &report.lines {
        println!("{line}");
    }
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<32} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "answers checked: {} attempted, {} failed, correct={}",
        report.attempted, report.failed, report.correct
    );
    println!("context: {context}");
    log_row(&ctx, &context, &report);
    println!("{}", result_line(&report));
}

/// The result object: `correct`, `attempted`, `failed` and the metrics.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A finite number as JSON (all digits); non-finite values as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The run context recorded with every result, as a JSON object:
/// source revision, core count, seed, run length and compiler.
fn run_context(ctx: &Ctx, args: &Args, steal: f64) -> String {
    let git_rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"git_rev\": \"{git_rev}\", \"rustc\": \"{rustc}\", \"unix_s\": {unix_s}, \"cpu_steal\": {}}}",
        args.workload, args.trace, ctx.seed, ctx.seconds, ctx.nproc, json_number(steal)
    )
}

/// The machine's aggregate CPU tick counters (`cpu` line of
/// `/proc/stat`), empty when unreadable.
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor gave to other guests (steal, the
/// eighth counter) between two samples: how noisy the machine was
/// while this run measured.
fn steal_share(before: Vec<u64>, after: Vec<u64>) -> f64 {
    let total = |t: &[u64]| t.iter().take(8).sum::<u64>();
    match (before.get(7), after.get(7)) {
        (Some(b), Some(a)) => (a - b) as f64 / (total(&after) - total(&before)).max(1) as f64,
        _ => f64::NAN,
    }
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().replace('"', "'"))
}

/// Append one row per run to `perfbench/out/results.jsonl`: the context
/// and every raw value, nothing normalized.
fn log_row(ctx: &Ctx, context: &str, report: &Report) {
    use std::io::Write as _;
    let values: Vec<String> = report
        .metrics
        .iter()
        .chain(&report.extra)
        .map(|m| format!("\"{}\": {}", m.name, json_number(m.value)))
        .collect();
    let row = format!(
        "{{\"context\": {context}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {{{}}}}}\n",
        report.correct,
        report.attempted,
        report.failed,
        values.join(", ")
    );
    let path = ctx.out.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(row.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", path.display());
    }
}
