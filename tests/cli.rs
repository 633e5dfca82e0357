//! Integration tests for the `prophet` CLI binary, driving the same
//! workflow a user would: demo → check → transform → estimate → sweep.

use std::process::Command;

fn prophet(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_model(name: &str, which: &str) -> std::path::PathBuf {
    let (ok, xml, err) = prophet(&["demo", which]);
    assert!(ok, "demo failed: {err}");
    let path = std::env::temp_dir().join(format!("prophet-cli-test-{name}.xml"));
    std::fs::write(&path, xml).unwrap();
    path
}

/// Like [`prophet`], also returning the exact exit code: `2` for usage
/// errors (bad/missing arguments), `1` for pipeline failures.
fn prophet_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prophet"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (code, _out, err) = prophet_code(&[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing command"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_command_fails() {
    let (code, _out, err) = prophet_code(&["frobnicate"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown command `frobnicate`"), "{err}");
}

#[test]
fn usage_errors_name_the_offending_token_before_usage() {
    // Unknown subcommand: the token, then the usage block.
    let (code, _out, err) = prophet_code(&["estmate"]);
    assert_eq!(code, Some(2));
    let token_at = err.find("`estmate`").expect(&err);
    let usage_at = err.find("usage:").expect(&err);
    assert!(token_at < usage_at, "token must precede usage: {err}");

    // Missing positional argument.
    let (code, _out, err) = prophet_code(&["estimate"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing <model.xml> argument"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // Bad flag value: names both the value and its flag.
    let model = temp_model("usage-badflag", "sample");
    let (code, _out, err) = prophet_code(&["estimate", model.to_str().unwrap(), "--nodes", "many"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("invalid value `many` for `--nodes`"), "{err}");

    // Flag at the end of the line, value missing entirely.
    let (code, _out, err) = prophet_code(&["estimate", model.to_str().unwrap(), "--nodes"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing value after `--nodes`"), "{err}");

    // Unknown demo: the offending token again.
    let (code, _out, err) = prophet_code(&["demo", "quicksort"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown demo `quicksort`"), "{err}");
}

#[test]
fn pipeline_failures_exit_1_without_usage_noise() {
    // Unreadable model file: the user's arguments were fine.
    let (code, _out, err) = prophet_code(&["estimate", "/no/such/model.xml"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("usage:"), "runtime errors skip usage: {err}");

    // Semantically invalid SP: also a pipeline failure, not usage.
    let model = temp_model("exitcode-sp", "sample");
    let (code, _out, err) = prophet_code(&[
        "estimate",
        model.to_str().unwrap(),
        "--nodes",
        "4",
        "--processes",
        "2",
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn demo_check_transform_estimate_roundtrip() {
    let model = temp_model("roundtrip", "sample");
    let model = model.to_str().unwrap();

    let (ok, out, err) = prophet(&["check", model]);
    assert!(ok, "{err}");
    assert!(out.contains("conforms"), "{out}");

    let (ok, out, _) = prophet(&["transform", model]);
    assert!(ok);
    assert!(out.contains("a1.execute(uid, pid, tid, FA1());"), "{out}");
    assert!(out.contains("double FSA2(double pid)"), "{out}");

    let (ok, out, _) = prophet(&["transform", model, "--full"]);
    assert!(ok);
    assert!(out.contains("class ActionPlus"), "{out}");

    let (ok, out, _) = prophet(&[
        "estimate",
        model,
        "--nodes",
        "2",
        "--cpus",
        "1",
        "--timeline",
    ]);
    assert!(ok);
    assert!(
        out.contains("predicted execution time: 0.900000 s"),
        "{out}"
    );
    assert!(out.contains("p0"), "{out}");
}

#[test]
fn skeleton_generation() {
    let model = temp_model("skeleton", "jacobi");
    let (ok, out, err) = prophet(&["transform", model.to_str().unwrap(), "--skeleton"]);
    assert!(ok, "{err}");
    assert!(out.contains("MPI_Init(&argc, &argv);"), "{out}");
    assert!(out.contains("MPI_Allreduce"), "{out}");
    assert!(out.contains("TODO: implement Compute"), "{out}");
}

#[test]
fn sweep_prints_speedup_table() {
    let model = temp_model("sweep", "jacobi");
    let (ok, out, err) = prophet(&["sweep", model.to_str().unwrap(), "--nodes", "1,2,4"]);
    assert!(ok, "{err}");
    assert!(out.contains("speedup"), "{out}");
    // Three data rows.
    assert_eq!(out.lines().count(), 4, "{out}");
}

#[test]
fn sweep_accepts_workers_and_rejects_threads() {
    let model = temp_model("sweep-flags", "jacobi");
    let (ok, out, err) = prophet(&[
        "sweep",
        model.to_str().unwrap(),
        "--nodes",
        "1,2",
        "--workers",
        "2",
    ]);
    assert!(ok, "{err}");
    assert_eq!(out.lines().count(), 3, "{out}");

    // `--threads` means threads-per-process in `estimate`; sweep must
    // refuse it rather than silently treat it as the worker pool.
    let (ok, _out, err) = prophet(&[
        "sweep",
        model.to_str().unwrap(),
        "--nodes",
        "1,2",
        "--threads",
        "4",
    ]);
    assert!(!ok);
    assert!(err.contains("--workers"), "{err}");
}

#[test]
fn sweep_failed_points_render_on_one_row() {
    // A model whose cost divides by zero at exactly P=2: the P=2 row
    // fails, its neighbours evaluate. (A zero node count no longer
    // reaches this path — it is rejected as a usage error up front.)
    let (ok, xml, err) = prophet(&["demo", "jacobi"]);
    assert!(ok, "{err}");
    let xml = xml.replace(
        "0.00000001 * points",
        "0.00000001 * points / (P - 2) / (P - 2)",
    );
    let path = std::env::temp_dir().join("prophet-cli-test-sweep-fail.xml");
    std::fs::write(&path, xml).unwrap();
    let (ok, out, err) = prophet(&["sweep", path.to_str().unwrap(), "--nodes", "1,2,4"]);
    assert!(ok, "{err}");
    // Header + ok row + failed row + ok row: failures must not spill
    // onto extra lines (the error chain is flattened onto the row).
    assert_eq!(out.lines().count(), 4, "{out}");
    assert!(out.contains("failed:"), "{out}");
    assert!(out.contains("division by zero"), "{out}");
}

#[test]
fn sweep_rejects_zero_counts_and_collapses_repeats() {
    let model = temp_model("sweep-zero", "jacobi");
    let model = model.to_str().unwrap();
    // Zero is a usage error naming the offending token, before any
    // model work happens.
    let (code, _out, err) = prophet_code(&["sweep", model, "--nodes", "0,1"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("bad node count `0` in `--nodes 0,1`"), "{err}");
    assert!(err.contains("at least 1"), "{err}");
    // Repeated counts are one sweep point each, not duplicate rows.
    let (ok, out, err) = prophet(&["sweep", model, "--nodes", "2,2,4,2"]);
    assert!(ok, "{err}");
    assert_eq!(
        out.lines().count(),
        3,
        "header + one row per distinct count: {out}"
    );
}

#[test]
fn optimize_prints_frontier_and_best() {
    let model = temp_model("optimize", "jacobi");
    let (ok, out, err) = prophet(&[
        "optimize",
        model.to_str().unwrap(),
        "--nodes",
        "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
        "--cpus",
        "1,2",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("min_time frontier"), "{out}");
    assert!(out.contains("(oracle: analytic)"), "{out}");
    assert!(out.contains("best (min_time):"), "{out}");
    assert!(out.contains("oracle evaluations:"), "{out}");
    // Table columns present.
    for col in ["nodes", "cpus", "cost", "time(s)", "speedup"] {
        assert!(out.contains(col), "missing column {col}: {out}");
    }
}

#[test]
fn optimize_usage_errors_exit_2_and_name_the_token() {
    let model = temp_model("optimize-usage", "jacobi");
    let model = model.to_str().unwrap();
    for (args, needle) in [
        (
            vec!["optimize", model, "--objective", "fastest"],
            "unknown objective `fastest`",
        ),
        (
            vec!["optimize", model, "--nodes", "0,4"],
            "bad node count `0` in `--nodes 0,4`",
        ),
        (
            vec!["optimize", model, "--cpus", "two"],
            "bad cpu count `two`",
        ),
        (vec!["optimize", model, "--margin", "1.5"], "margin"),
        (vec!["optimize", model, "--stride", "0"], "stride"),
        (vec!["optimize", model, "--deadline", "-1"], "deadline"),
        (
            vec!["optimize", model, "--verify", "twice"],
            "unknown verify mode `twice`",
        ),
    ] {
        let (code, _out, err) = prophet_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn estimate_accepts_both_backends() {
    let model = temp_model("backends", "sample");
    let model = model.to_str().unwrap();
    // Deterministic communication-free model: both backends print the
    // exact same prediction.
    for backend in ["simulation", "analytic"] {
        let (ok, out, err) = prophet(&["estimate", model, "--nodes", "2", "--backend", backend]);
        assert!(ok, "{backend}: {err}");
        assert!(out.contains(&format!("backend: {backend}")), "{out}");
        assert!(
            out.contains("predicted execution time: 0.900000 s"),
            "{backend}: {out}"
        );
    }
}

#[test]
fn unknown_backend_rejected_with_accepted_values() {
    let model = temp_model("badbackend", "sample");
    let (ok, _out, err) = prophet(&["estimate", model.to_str().unwrap(), "--backend", "quantum"]);
    assert!(!ok);
    assert!(err.contains("unknown backend `quantum`"), "{err}");
    assert!(
        err.contains("simulation") && err.contains("analytic"),
        "rejection must list the accepted values: {err}"
    );
}

#[test]
fn analytic_backend_refuses_trace_flags() {
    let model = temp_model("analytic-trace", "sample");
    let model = model.to_str().unwrap();
    for flag in [&["--trace", "/tmp/never.txt"][..], &["--timeline"][..]] {
        let mut args = vec!["estimate", model, "--backend", "analytic"];
        args.extend_from_slice(flag);
        let (ok, _out, err) = prophet(&args);
        assert!(!ok, "{flag:?} must be rejected under --backend analytic");
        assert!(err.contains("records no trace"), "{err}");
    }
}

#[test]
fn sweep_backend_output_parity() {
    let model = temp_model("sweep-backend", "jacobi");
    let model = model.to_str().unwrap();
    let (ok, sim_out, err) = prophet(&["sweep", model, "--nodes", "1,2,4"]);
    assert!(ok, "{err}");
    let (ok, ana_out, err) =
        prophet(&["sweep", model, "--nodes", "1,2,4", "--backend", "analytic"]);
    assert!(ok, "{err}");
    // Identical table shape: same header, same number of rows, same
    // node/P columns — only the engine behind the numbers differs.
    assert_eq!(
        sim_out.lines().next(),
        ana_out.lines().next(),
        "header parity"
    );
    assert_eq!(sim_out.lines().count(), ana_out.lines().count());
    for (s, a) in sim_out.lines().zip(ana_out.lines()).skip(1) {
        let key = |row: &str| {
            row.split_whitespace()
                .take(2)
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(key(s), key(a), "row keys must match:\n{sim_out}\n{ana_out}");
    }
    // Deterministic model: the predictions agree to the printed precision.
    assert_eq!(sim_out, ana_out, "tables should be identical for jacobi");

    // Unknown backend on sweep is rejected before compiling.
    let (ok, _out, err) = prophet(&["sweep", model, "--nodes", "1,2", "--backend", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown backend"), "{err}");
}

#[test]
fn estimate_writes_trace_file() {
    let model = temp_model("trace", "sample");
    let tf_path = std::env::temp_dir().join("prophet-cli-test-trace.txt");
    let (ok, _out, err) = prophet(&[
        "estimate",
        model.to_str().unwrap(),
        "--trace",
        tf_path.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let tf = std::fs::read_to_string(&tf_path).unwrap();
    assert!(tf.starts_with("# TF model=sample"), "{tf}");
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-cli-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_populates_a_store_and_hits_on_repeat() {
    let model = temp_model("warm", "sample");
    let model = model.to_str().unwrap();
    let dir = temp_store_dir("warm");
    let store = dir.to_str().unwrap();

    let (ok, out, err) = prophet(&["warm", "--store", store, model]);
    assert!(ok, "{err}");
    assert!(out.contains("warmed `sample`"), "{out}");
    assert!(out.contains("stored"), "{out}");
    assert!(out.contains("1 write(s)"), "{out}");
    // Exactly one artifact file appears.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");

    // Warming again is idempotent: a disk hit, no new write.
    let (ok, out, err) = prophet(&["warm", "--store", store, model]);
    assert!(ok, "{err}");
    assert!(out.contains("already stored"), "{out}");
    assert!(out.contains("0 write(s)"), "{out}");
    assert!(out.contains("1 disk hit(s)"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_rewrites_a_corrupt_entry_even_without_nodes() {
    // A corrupt artifact is evicted on load; warm must then re-write it
    // (reported as `stored`, one write) — not report "already stored"
    // and leave the slot empty.
    let model = temp_model("warm-corrupt", "sample");
    let model = model.to_str().unwrap();
    let dir = temp_store_dir("warm-corrupt");
    let store = dir.to_str().unwrap();
    let (ok, _out, err) = prophet(&["warm", "--store", store, model]);
    assert!(ok, "{err}");

    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".bin"))
        .expect("artifact written")
        .path();
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&entry, &bytes).unwrap();

    let (ok, out, err) = prophet(&["warm", "--store", store, model]);
    assert!(ok, "{err}");
    assert!(!out.contains("already stored"), "{out}");
    assert!(out.contains("1 write(s)"), "{out}");
    assert!(entry.exists(), "slot must be re-filled");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_gc_shrinks_a_warmed_store_under_budget() {
    let model = temp_model("gc", "sample");
    let model = model.to_str().unwrap();
    let dir = temp_store_dir("gc");
    let store = dir.to_str().unwrap();
    let (ok, _out, err) = prophet(&["warm", "--store", store, model]);
    assert!(ok, "{err}");

    // An ample budget retains the entry...
    let (ok, out, err) = prophet(&["store", "gc", "--store", store, "--max-bytes", "100000000"]);
    assert!(ok, "{err}");
    assert!(out.contains("scanned 1 entries"), "{out}");
    assert!(out.contains("evicted 0 corrupt, 0 by LRU"), "{out}");
    assert!(out.contains("retained 1 entries"), "{out}");

    // ...a zero budget reclaims it.
    let (ok, out, err) = prophet(&["store", "gc", "--store", store, "--max-bytes", "0"]);
    assert!(ok, "{err}");
    assert!(out.contains("0 corrupt, 1 by LRU"), "{out}");
    assert!(out.contains("retained 0 entries (0 bytes)"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_gc_usage_errors_name_the_offending_token() {
    let (code, _out, err) = prophet_code(&["store"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("store requires a subcommand"), "{err}");

    let (code, _out, err) = prophet_code(&["store", "shrink"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown store subcommand `shrink`"), "{err}");

    let (code, _out, err) = prophet_code(&["store", "gc", "--max-bytes", "10"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("requires --store"), "{err}");

    let (code, _out, err) = prophet_code(&["store", "gc", "--store", "/tmp/x"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("requires --max-bytes"), "{err}");

    let (code, _out, err) =
        prophet_code(&["store", "gc", "--store", "/tmp/x", "--max-bytes", "lots"]);
    assert_eq!(code, Some(2), "{err}");
}

#[test]
fn warm_usage_errors_name_the_offending_token() {
    // Missing --store entirely.
    let model = temp_model("warm-usage", "sample");
    let model = model.to_str().unwrap();
    let (code, _out, err) = prophet_code(&["warm", model]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--store"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // --store present, value missing.
    let (code, _out, err) = prophet_code(&["warm", "--store"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing value after `--store`"), "{err}");

    // No model argument.
    let dir = temp_store_dir("warm-usage");
    let (code, _out, err) = prophet_code(&["warm", "--store", dir.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing <model.xml> argument"), "{err}");

    // The store holds model text only, so warm elaborates no SP grid:
    // `--nodes` is an unknown flag.
    let (code, _out, err) = prophet_code(&[
        "warm",
        "--store",
        dir.to_str().unwrap(),
        "--nodes",
        "1,2",
        model,
    ]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown flag `--nodes`"), "{err}");

    // Unknown flag, token named.
    let (code, _out, err) = prophet_code(&[
        "warm",
        "--store",
        dir.to_str().unwrap(),
        "--frobnicate",
        model,
    ]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_store_path_is_a_runtime_failure_not_usage() {
    // A store path that cannot become a writable directory (it names an
    // existing regular file) is the environment's fault, not the
    // arguments': exit 1, no usage block — for both `warm` and `serve`.
    let file = std::env::temp_dir().join(format!("prophet-cli-store-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let model = temp_model("store-file", "sample");

    let (code, _out, err) = prophet_code(&[
        "warm",
        "--store",
        file.to_str().unwrap(),
        model.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("cannot open store"), "{err}");
    assert!(!err.contains("usage:"), "runtime errors skip usage: {err}");

    let (code, _out, err) = prophet_code(&["serve", "--store", file.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("cannot open store"), "{err}");
    assert!(!err.contains("usage:"), "{err}");

    // `serve --store` with the value missing is a usage error (exit 2).
    let (code, _out, err) = prophet_code(&["serve", "--store"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing value after `--store`"), "{err}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn metrics_usage_errors_name_the_offending_token() {
    // Missing url entirely (the --watch value is not a url).
    for args in [&["metrics"][..], &["metrics", "--watch", "2"][..]] {
        let (code, _out, err) = prophet_code(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("missing <url> argument"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }

    // Unresolvable url: named before the usage block.
    let (code, _out, err) = prophet_code(&["metrics", "not a url"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("bad server url `not a url`"), "{err}");

    // --watch value missing, unparsable, or zero.
    let (code, _out, err) = prophet_code(&["metrics", "127.0.0.1:1", "--watch"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("missing value after `--watch`"), "{err}");
    let (code, _out, err) = prophet_code(&["metrics", "127.0.0.1:1", "--watch", "soon"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("invalid value `soon` for `--watch`"), "{err}");
    let (code, _out, err) = prophet_code(&["metrics", "127.0.0.1:1", "--watch", "0"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`--watch`"), "{err}");

    // Unknown flag, token named.
    let (code, _out, err) = prophet_code(&["metrics", "127.0.0.1:1", "--frobnicate"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");

    // An unreachable server is the environment's fault, not the
    // arguments': exit 1, no usage block.
    let (code, _out, err) = prophet_code(&["metrics", "127.0.0.1:1"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("cannot fetch metrics"), "{err}");
    assert!(!err.contains("usage:"), "runtime errors skip usage: {err}");
}

#[test]
fn check_reports_errors_on_broken_model() {
    // Corrupt a valid model by injecting an unparsable cost expression.
    let model = temp_model("broken", "sample");
    let xml = std::fs::read_to_string(&model).unwrap();
    let broken = xml.replace("value=\"FA1()\"", "value=\"FA1() +\"");
    let path = std::env::temp_dir().join("prophet-cli-test-broken.xml");
    std::fs::write(&path, broken).unwrap();
    let (ok, out, err) = prophet(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        out.contains("PP006") || err.contains("PP006"),
        "out: {out}\nerr: {err}"
    );
}

#[test]
fn invalid_sp_rejected() {
    let model = temp_model("badsp", "sample");
    let (ok, _out, err) = prophet(&[
        "estimate",
        model.to_str().unwrap(),
        "--nodes",
        "4",
        "--processes",
        "2",
    ]);
    assert!(!ok);
    assert!(err.contains("processes"), "{err}");
}
