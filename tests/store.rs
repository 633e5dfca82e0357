//! Integration tests for the persistent compiled-artifact store: save a
//! compiled session, load it in a "new process" (a fresh `ArtifactStore`
//! over the same directory), and prove the load skipped check +
//! transform + flatten while predicting bit-identically — plus the
//! corruption/versioning contract: truncated, bit-flipped and
//! future-version entries each read back as a clean miss followed by a
//! clean re-write.

use prophet::check::McfConfig;
use prophet::codegen::generate_cpp;
use prophet::core::store::FORMAT_VERSION;
use prophet::core::{
    flatten_invocations, mpi_grid, transform_invocations, ArtifactKey, ArtifactStore, Scenario,
    Session, StoreStats, SweepConfig,
};
use prophet::estimator::{op_digest, ElementId, PrimOp};
use prophet::machine::SystemParams;
use prophet::serve::api::{demo_model, demo_models};
use prophet::workloads::models::{jacobi_model, lapw0_model};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Held by every test that elaborates: `flatten_invocations` is
/// process-wide, so a concurrent flatten would break the count in
/// `store_hit_skips_check_transform_and_flatten`.
static FLATTENS: Mutex<()> = Mutex::new(());

fn flatten_lock() -> MutexGuard<'static, ()> {
    // A failed test that held the lock leaves nothing to repair.
    FLATTENS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique, cleaned temp directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_demo_model_roundtrips_bit_identically() {
    let _flattens = flatten_lock();
    let dir = temp_dir("demos");
    let store = ArtifactStore::open(&dir).unwrap();
    for (name, _) in demo_models() {
        let model = demo_model(name).unwrap();
        let session = Session::new(model).unwrap();
        let key = store.save_session(&session).unwrap();
        let loaded = store
            .load_session(key)
            .unwrap_or_else(|| panic!("{name}: store hit"));

        assert_eq!(loaded.program(), session.program(), "{name}");
        assert_eq!(
            loaded.model_xml(),
            session.model_xml(),
            "{name}: the model must survive the store byte for byte"
        );
        assert_eq!(
            generate_cpp(loaded.model()).unwrap().full_text(),
            generate_cpp(session.model()).unwrap().full_text(),
            "{name}: generated C++ must survive the store"
        );
        assert_eq!(loaded.diagnostics().len(), session.diagnostics().len());

        // Both backends agree bit-for-bit with the fresh compile.
        for backend in [
            prophet::core::Backend::Simulation,
            prophet::core::Backend::Analytic,
        ] {
            let scenario = Scenario::new(SystemParams::flat_mpi(4, 1))
                .with_backend(backend)
                .without_trace();
            let fresh = session.evaluate(&scenario).unwrap().predicted_time;
            let warm = loaded.evaluate(&scenario).unwrap().predicted_time;
            assert_eq!(
                warm.to_bits(),
                fresh.to_bits(),
                "{name}/{backend}: loaded artifact must predict bit-identically"
            );
        }
    }
}

#[test]
fn store_hit_skips_check_transform_and_flatten() {
    let _flattens = flatten_lock();
    let dir = temp_dir("skips");
    let model = demo_model("jacobi").unwrap();
    let mcf = McfConfig::default();
    let points = mpi_grid(&[1, 2, 4, 8], 1);

    // Warm the store offline: compile + pre-elaborate the grid.
    {
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::compile_stored(model.clone(), mcf.clone(), Some(&store)).unwrap();
        let report = session.sweep_with(&points, &SweepConfig::default(), |_, _| {});
        assert_eq!(report.failures(), 0);
        store.save_session(&session).unwrap();
    }

    // "Next process": everything — check, to_program, and the
    // grid's elaborations — must come from disk. The counters are
    // process-wide/thread-local, so sweep single-threaded.
    let store = ArtifactStore::open(&dir).unwrap();
    let transforms_before = transform_invocations();
    let flattens_before = flatten_invocations();
    let session = Session::compile_stored(model, mcf, Some(&store)).unwrap();
    assert_eq!(
        transform_invocations(),
        transforms_before,
        "store hit must not transform"
    );
    let config = SweepConfig {
        threads: 1,
        ..Default::default()
    };
    let report = session.sweep_with(&points, &config, |_, _| {});
    assert_eq!(report.failures(), 0);
    assert_eq!(
        flatten_invocations(),
        flattens_before,
        "pre-elaborated SP points must not re-flatten"
    );
    let stats = session.elab_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (points.len() as u64, 0),
        "{stats:?}"
    );
    assert_eq!(store.stats().disk_hits, 1);
}

/// The corruption/versioning satellite: each damage mode reads back as
/// a clean miss (with the entry evicted), and the slot re-fills with a
/// valid artifact on the next write.
#[test]
fn corrupt_and_stale_entries_miss_then_rewrite() {
    type Damage = fn(&mut Vec<u8>);
    let truncate: Damage = |bytes| bytes.truncate(bytes.len() / 3);
    let bit_flip: Damage = |bytes| {
        let mid = 16 + (bytes.len() - 24) / 2;
        bytes[mid] ^= 0x01;
    };
    let version_bump: Damage =
        |bytes| bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());

    for (tag, damage) in [
        ("truncate", truncate),
        ("bitflip", bit_flip),
        ("version", version_bump),
    ] {
        let dir = temp_dir(&format!("damage-{tag}"));
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::new(demo_model("sample").unwrap()).unwrap();
        let key = store.save_session(&session).unwrap();
        let path = store.entry_path(key);

        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load_session(key).is_none(), "{tag}: must be a miss");
        assert!(!path.exists(), "{tag}: damaged entry must be evicted");
        assert_eq!(
            store.stats(),
            StoreStats {
                disk_misses: 1,
                evictions: 1,
                writes: 1,
                ..Default::default()
            },
            "{tag}"
        );

        // The miss is recoverable: compile_stored recompiles, re-writes
        // the entry, and the store serves it again.
        let again =
            Session::compile_stored(session.model().clone(), McfConfig::default(), Some(&store))
                .unwrap();
        assert_eq!(again.program(), session.program(), "{tag}");
        assert!(path.exists(), "{tag}: slot must re-fill");
        assert!(store.load_session(key).is_some(), "{tag}");
    }
}

#[test]
fn distinct_mcf_configurations_get_distinct_artifacts() {
    let dir = temp_dir("mcf");
    let store = ArtifactStore::open(&dir).unwrap();
    let model = demo_model("sample").unwrap();

    let default_key = store
        .save_session(&Session::new(model.clone()).unwrap())
        .unwrap();
    let mut relaxed = McfConfig::default();
    relaxed.disable("PP002");
    let relaxed_key = store
        .save_session(&Session::compile(model.clone(), relaxed.clone()).unwrap())
        .unwrap();
    assert_ne!(default_key, relaxed_key, "MCF is part of the content key");
    assert_eq!(store.keys().len(), 2);

    // Loads agree with their MCF spelling.
    let loaded = store.load_session(relaxed_key).unwrap();
    assert_eq!(loaded.mcf().to_xml(), relaxed.to_xml());
    assert_eq!(ArtifactKey::of(loaded.model(), loaded.mcf()), relaxed_key);
}

/// GC satellite 1: eviction is strictly least-recently-used. Five
/// artifacts with hand-written access stamps; a budget that fits the
/// newest two must delete exactly the oldest three, stamps included.
#[test]
fn gc_evicts_strictly_least_recently_used() {
    let dir = temp_dir("gc-lru");
    let store = ArtifactStore::open(&dir).unwrap();
    let names = ["sample", "kernel6", "jacobi", "pipeline", "master_worker"];
    let mut keys = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let session = Session::new(demo_model(name).unwrap()).unwrap();
        let key = store.save_session(&session).unwrap();
        // Deterministic recency: index order, oldest first. Stamps are
        // decimal epoch millis; any strictly increasing sequence works.
        std::fs::write(store.access_stamp_path(key), format!("{}", 1_000 + i)).unwrap();
        keys.push(key);
    }
    let size_of = |key| std::fs::metadata(store.entry_path(key)).unwrap().len();
    let newest_two: u64 = keys[3..].iter().map(|&k| size_of(k)).sum();

    let report = store.gc(newest_two);
    assert_eq!(report.entries_scanned, 5);
    assert_eq!(report.corrupt_evicted, 0);
    assert_eq!(report.lru_evicted, 3, "{report:?}");
    assert_eq!(report.entries_retained, 2);
    assert_eq!(report.bytes_retained, newest_two);
    for &key in &keys[..3] {
        assert!(!store.entry_path(key).exists(), "old entry must go");
        assert!(
            !store.access_stamp_path(key).exists(),
            "stamp must go with its entry"
        );
    }
    for &key in &keys[3..] {
        assert!(store.load_session(key).is_some(), "new entry must stay");
    }
}

/// GC satellite 2: a GC pass racing serve-style write-backs and loads
/// never deletes fresh work or corrupts an entry — every key a writer
/// produced is either loadable afterwards or cleanly re-writable.
#[test]
fn gc_survives_concurrent_serve_write_backs() {
    let dir = temp_dir("gc-race");
    let store = ArtifactStore::open(&dir).unwrap();
    let names = ["sample", "kernel6", "jacobi", "pipeline"];

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writers: the serve layer's write-back loop — compile against
        // the store (disk hit or recompile+save) and immediately load.
        for name in names {
            scope.spawn(|| {
                let store = ArtifactStore::open(&dir).unwrap();
                let model = demo_model(name).unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let session =
                        Session::compile_stored(model.clone(), McfConfig::default(), Some(&store))
                            .unwrap();
                    let key = ArtifactKey::of(session.model(), session.mcf());
                    // A concurrent gc may evict between the write and
                    // this load; a miss is legal, an error is not.
                    let _ = store.load_session(key);
                }
            });
        }
        // GC: zero budget, so every pass tries to evict everything the
        // writers produce — maximum contention on the scan/delete race.
        for _ in 0..50 {
            let report = store.gc(0);
            assert_eq!(report.corrupt_evicted, 0, "GC saw a torn write");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // The store remains fully usable: every model recompiles against
    // it and then round-trips.
    for name in names {
        let session = Session::compile_stored(
            demo_model(name).unwrap(),
            McfConfig::default(),
            Some(&store),
        )
        .unwrap();
        let key = ArtifactKey::of(session.model(), session.mcf());
        assert!(store.load_session(key).is_some(), "{name}");
    }
}

/// GC satellite 3: corrupt entries are reclaimed even when the byte
/// budget would allow keeping them — corruption is never "retained".
#[test]
fn gc_reclaims_corrupt_entries_whatever_the_budget() {
    let dir = temp_dir("gc-corrupt");
    let store = ArtifactStore::open(&dir).unwrap();
    let good = store
        .save_session(&Session::new(demo_model("sample").unwrap()).unwrap())
        .unwrap();
    let bad = store
        .save_session(&Session::new(demo_model("kernel6").unwrap()).unwrap())
        .unwrap();
    let bad_path = store.entry_path(bad);
    let mut bytes = std::fs::read(&bad_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&bad_path, &bytes).unwrap();

    let report = store.gc(u64::MAX);
    assert_eq!(report.corrupt_evicted, 1, "{report:?}");
    assert_eq!(report.lru_evicted, 0, "budget was unlimited");
    assert!(!bad_path.exists(), "corrupt entry must be reclaimed");
    assert!(report.bytes_reclaimed >= bytes.len() as u64 - 1);
    assert!(store.load_session(good).is_some(), "valid entry untouched");
}

#[test]
fn builder_and_parsed_spellings_share_one_artifact() {
    // The store keys on canonical content, so a builder-built model and
    // its XML roundtrip hit the same artifact file — the disk analogue
    // of the session pool's dedup guarantee.
    let dir = temp_dir("canonical");
    let store = ArtifactStore::open(&dir).unwrap();
    let built = demo_model("pipeline").unwrap();
    let reparsed =
        prophet::uml::xmi::model_from_xml(&prophet::uml::xmi::model_to_xml(&built)).unwrap();
    store
        .save_session(&Session::new(built.clone()).unwrap())
        .unwrap();
    let key = ArtifactKey::of(&reparsed, &McfConfig::default());
    assert!(
        store.load_session(key).is_some(),
        "parsed spelling must hit the builder spelling's artifact"
    );
    assert_eq!(store.keys().len(), 1);
}

#[test]
fn loaded_elaborations_share_one_name_per_element() {
    let _flattens = flatten_lock();
    // The decoder maps every stored element name to its id in the loaded
    // program's own name table, so a store-loaded elaboration names each
    // element by one id, as a fresh one does, and the same text.
    let dir = temp_dir("interned");
    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::new(demo_model("jacobi").unwrap()).unwrap();
    let scenario = Scenario::new(SystemParams::flat_mpi(4, 1)).without_trace();
    session.evaluate(&scenario).unwrap();
    let key = store.save_session(&session).unwrap();
    let loaded = store.load_session(key).unwrap();

    let entries = loaded.elab_cache().snapshot();
    assert_eq!(entries.len(), 1, "the evaluated SP point was persisted");
    let names = loaded.program().resolve().names();
    assert!(
        std::ptr::eq(entries[0].ops.names(), &**names),
        "loaded ops index the loaded program's table"
    );
    let fresh = &session.elab_cache().snapshot()[0].ops;
    for (rank, (a, b)) in fresh.iter().zip(entries[0].ops.iter()).enumerate() {
        assert_eq!(
            op_digest(fresh.names(), a),
            op_digest(names, b),
            "rank {rank}"
        );
    }
    let mut by_name: HashMap<&str, Vec<(usize, ElementId)>> = HashMap::new();
    for (rank, ops) in entries[0].ops.iter().enumerate() {
        for op in ops.iter() {
            if let Some(id) = element(op) {
                by_name.entry(names.name(id)).or_default().push((rank, id));
            }
        }
    }
    let mut shared_across_ranks = 0;
    for (name, uses) in &by_name {
        let (_, first) = uses[0];
        for &(rank, other) in uses {
            assert_eq!(first, other, "`{name}` on rank {rank}");
        }
        if uses.iter().any(|&(rank, _)| rank != uses[0].0) {
            shared_across_ranks += 1;
        }
    }
    assert!(shared_across_ranks > 0, "{:?}", by_name.keys());
}

/// The element an op names, if any.
fn element(op: &PrimOp) -> Option<ElementId> {
    match *op {
        PrimOp::Enter(name) | PrimOp::Exit(name) => Some(name),
        PrimOp::Compute { element, .. }
        | PrimOp::SendTo { element, .. }
        | PrimOp::RecvFrom { element, .. }
        | PrimOp::Wait { element, .. }
        | PrimOp::Threads { element, .. } => Some(element),
        PrimOp::Lock(_) | PrimOp::Unlock(_) => None,
    }
}

#[test]
fn stored_elaborations_are_lean_and_traced_runs_still_match_the_golden() {
    let _flattens = flatten_lock();
    // The store persists lean elaborations only. A traced evaluation on
    // the loaded session flattens its own traced form and reproduces the
    // golden trace (`tests/golden.rs`).
    let hybrid = SystemParams {
        nodes: 2,
        cpus_per_node: 2,
        processes: 2,
        threads_per_process: 2,
    };
    let cases = [
        (
            "jacobi",
            jacobi_model(200_000, 5, 1e-8),
            SystemParams::flat_mpi(4, 1),
            (0.004307, 162u64, 284usize),
        ),
        (
            "lapw0",
            lapw0_model(64, 16, 1e-5),
            hybrid,
            (0.005491280000000002, 136, 140),
        ),
    ];
    let dir = temp_dir("lean");
    let store = ArtifactStore::open(&dir).unwrap();
    for (name, model, sp, (time, events, trace_len)) in cases {
        let session = Session::new(model).unwrap();
        session
            .evaluate(&Scenario::new(sp).without_trace())
            .unwrap();
        // A traced entry in memory is not persisted.
        session.evaluate(&Scenario::new(sp)).unwrap();
        let key = store.save_session(&session).unwrap();
        let loaded = store.load_session(key).unwrap();

        let entries = loaded.elab_cache().snapshot();
        assert_eq!(entries.len(), 1, "{name}");
        fn assert_lean(name: &str, ops: &[PrimOp]) {
            for op in ops {
                match op {
                    PrimOp::Enter(_) | PrimOp::Exit(_) => panic!("{name}: marker {op:?}"),
                    PrimOp::Threads { arms, .. } => arms.iter().for_each(|a| assert_lean(name, a)),
                    _ => {}
                }
            }
        }
        for ops in entries[0].ops.iter() {
            assert_lean(name, ops);
        }

        let traced = loaded.evaluate(&Scenario::new(sp)).unwrap();
        assert_eq!(traced.trace.len(), trace_len, "{name} trace shifted");
        assert_eq!(traced.report.events_processed, events, "{name}");
        assert!(
            (traced.predicted_time - time).abs() <= time * 1e-12,
            "{name}: {}",
            traced.predicted_time
        );
        let stats = loaded.elab_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "{name}: {stats:?}");
    }
}

/// The bytes `save_session` writes for each bundled model after a
/// 64-point lean sweep (`flat_mpi(1..=64, 1)`, analytic), as one FNV-1a
/// digest of the artifact file. The store format is pinned byte for
/// byte: how ops name their elements in memory must not leak into it.
#[test]
fn saved_artifact_bytes_do_not_move() {
    let _flattens = flatten_lock();
    const EXPECTED: [(&str, u64); 10] = [
        ("sample", 0x148a2028362944a2),
        ("kernel6", 0x21c2630313e24b15),
        ("jacobi", 0x08b1b8d8dab9195a),
        ("lapw0", 0x594f594ca85e2d3b),
        ("pipeline", 0x86498885883fdbfe),
        ("master_worker", 0xbe622260a2961d1d),
        ("task_farm", 0x183d518e041040dc),
        ("branching_pipeline", 0x819e5b442afa9563),
        ("halo_ring", 0x6e5e638caa79f0ad),
        ("mapreduce", 0xafdbb13f7b9f3ce2),
    ];
    let names: Vec<&str> = demo_models().into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, EXPECTED.map(|(name, _)| name), "bundled model table");
    let dir = temp_dir("bytes");
    let store = ArtifactStore::open(&dir).unwrap();
    let nodes: Vec<usize> = (1..=64).collect();
    let config = SweepConfig {
        backend: prophet::core::Backend::Analytic,
        ..Default::default()
    };
    let mut got = Vec::new();
    for (name, _) in EXPECTED {
        let session = Session::new(demo_model(name).unwrap()).unwrap();
        let report = session.sweep_with(&mpi_grid(&nodes, 1), &config, |_, _| {});
        assert_eq!(report.failures(), 0, "{name}");
        let key = store.save_session(&session).unwrap();
        let bytes = std::fs::read(store.entry_path(key)).unwrap();
        got.push((name, prophet::core::store::fnv1a(&bytes)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, EXPECTED, "saved artifact bytes moved");
}
