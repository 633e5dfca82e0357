//! Perf-trajectory recording: machine-normalized throughput points
//! written as `BENCH_<area>.json` at the repo root, so successive PRs
//! leave a speed curve behind instead of only CI ratio assertions.
//!
//! Every file carries a **calibration score** — FNV-1a hashing
//! throughput measured on the same machine in the same run — and each
//! point's rate both raw (`per_sec`) and divided by that score
//! (`normalized`). The normalized number cancels (roughly) the
//! machine's single-core speed, so points recorded on different
//! hardware land on one comparable curve.
//!
//! Writing is opt-in so CI smoke runs with tiny budgets never publish
//! garbage numbers. Regenerate locally with:
//!
//! ```sh
//! PROPHET_BENCH_WRITE=1 cargo bench -p prophet-bench --bench bench_serve
//! PROPHET_BENCH_WRITE=1 cargo bench -p prophet-bench --bench bench_router
//! ```

use std::ffi::OsString;
use std::path::PathBuf;
use std::time::Instant;

/// Trajectory file schema version.
pub const SCHEMA: u32 = 1;

/// The environment variable gating file writes.
pub const WRITE_ENV: &str = "PROPHET_BENCH_WRITE";

/// Calibration: FNV-1a over a fixed pseudo-random buffer, in MiB/s —
/// a pure-ALU, cache-resident proxy for single-core speed.
pub fn calibration_mib_per_sec() -> f64 {
    const REPS: usize = 192;
    let buf: Vec<u8> = (0u32..64 * 1024)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let start = Instant::now();
    for _ in 0..REPS {
        for &byte in &buf {
            acc ^= u64::from(byte);
            acc = acc.wrapping_mul(0x100_0000_01b3);
        }
        acc = std::hint::black_box(acc);
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (REPS * buf.len()) as f64 / (1024.0 * 1024.0) / elapsed
}

/// One area's trajectory: named throughput points, normalized by a
/// calibration score measured at write time.
#[derive(Debug)]
pub struct Trajectory {
    area: String,
    points: Vec<(String, f64)>,
}

impl Trajectory {
    /// An empty trajectory for `area` (`BENCH_<area>.json`).
    pub fn new(area: impl Into<String>) -> Self {
        Self {
            area: area.into(),
            points: Vec::new(),
        }
    }

    /// Record a point's raw rate, in operations per second.
    pub fn record(&mut self, name: impl Into<String>, per_sec: f64) {
        self.points.push((name.into(), per_sec));
    }

    /// Time `work` performing `count` operations and record the rate;
    /// returns the measured operations per second.
    pub fn measure(&mut self, name: &str, count: u64, work: impl FnOnce()) -> f64 {
        let start = Instant::now();
        work();
        let per_sec = count as f64 / start.elapsed().as_secs_f64().max(1e-9);
        self.record(name, per_sec);
        per_sec
    }

    /// The serialized trajectory document.
    pub fn render(&self, calibration: f64) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA},\n"));
        out.push_str(&format!("  \"area\": \"{}\",\n", self.area));
        out.push_str(&format!(
            "  \"calibration_fnv1a_mib_per_sec\": {calibration:.2},\n"
        ));
        out.push_str("  \"points\": [\n");
        for (i, (name, per_sec)) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"per_sec\": {per_sec:.2}, \"normalized\": {:.6}}}{comma}\n",
                per_sec / calibration.max(1e-9)
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<area>.json` into [`output_dir`] when
    /// [`WRITE_ENV`]`=1`; returns the written path, `None` when gated
    /// off. Panics on I/O failure — a requested write must not vanish.
    pub fn write_if_requested(&self) -> Option<PathBuf> {
        if std::env::var(WRITE_ENV).ok().as_deref() != Some("1") {
            return None;
        }
        let path = output_dir().join(format!("BENCH_{}.json", self.area));
        std::fs::write(&path, self.render(calibration_mib_per_sec()))
            .unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
        Some(path)
    }
}

/// Where trajectory files go, resolved when the bench runs (not when it
/// is built, so a binary built in one checkout and run from another
/// writes into the one it runs in): the repo root two levels above the
/// bench crate when cargo runs the bench (`CARGO_MANIFEST_DIR` is set),
/// else the current directory.
pub fn output_dir() -> PathBuf {
    output_dir_for(std::env::var_os("CARGO_MANIFEST_DIR"))
}

fn output_dir_for(manifest_dir: Option<OsString>) -> PathBuf {
    match manifest_dir {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn calibration_is_positive_and_finite() {
        let score = calibration_mib_per_sec();
        assert!(score.is_finite() && score > 0.0, "score = {score}");
    }

    #[test]
    fn renders_valid_point_lines() {
        let mut t = Trajectory::new("demo");
        t.record("alpha", 1234.5);
        let n = t.measure("beta", 100, || std::thread::sleep(Duration::from_millis(2)));
        assert!(n > 0.0 && n < 100_000.0, "rate = {n}");
        let doc = t.render(100.0);
        assert!(doc.contains("\"area\": \"demo\""), "{doc}");
        assert!(
            doc.contains("\"name\": \"alpha\", \"per_sec\": 1234.50"),
            "{doc}"
        );
        assert!(doc.contains("\"normalized\": 12.345000"), "{doc}");
        // Two points: exactly one comma-terminated, the last one bare.
        assert_eq!(doc.matches("},\n").count(), 1, "{doc}");
        assert_eq!(doc.matches("}\n").count(), 2, "{doc}");
    }

    #[test]
    fn output_dir_is_resolved_at_run_time() {
        assert_eq!(
            output_dir_for(Some("/checkout/crates/bench".into())),
            PathBuf::from("/checkout/crates/bench/../..")
        );
        assert_eq!(output_dir_for(None), PathBuf::from("."));
        // Under cargo the run-time variable names this crate's directory.
        let here = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets it for tests");
        assert_eq!(output_dir(), PathBuf::from(here).join("../.."));
        assert!(output_dir().join("Cargo.toml").is_file());
    }

    #[test]
    fn writing_is_gated_off_by_default() {
        assert_ne!(
            std::env::var(WRITE_ENV).ok().as_deref(),
            Some("1"),
            "tests must not run with the write gate open"
        );
        assert_eq!(Trajectory::new("gated").write_if_requested(), None);
    }
}
