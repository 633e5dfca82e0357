//! Integration tests for the persistent artifact store: save a compiled
//! session, load it in a "new process" (a fresh `ArtifactStore` over the
//! same directory), and prove the load predicts bit-identically and is
//! a disk hit rather than a pool compile — plus the file contract: an
//! artifact holds the model and MCF text and nothing else, and
//! truncated, bit-flipped, future-version and uncompilable entries each
//! read back as a clean miss followed by a clean re-write.

use prophet::check::McfConfig;
use prophet::codegen::generate_cpp;
use prophet::core::store::{fnv1a, FORMAT_VERSION, MAGIC};
use prophet::core::{
    mpi_grid, ArtifactKey, ArtifactStore, Scenario, Session, StoreStats, SweepConfig,
};
use prophet::machine::SystemParams;
use prophet::serve::api::{demo_model, demo_models};
use prophet::serve::pool::DEFAULT_CAPACITY;
use prophet::serve::SessionPool;
use prophet::uml::ModelBuilder;
use prophet::workloads::models::{jacobi_model, lapw0_model};
use std::path::PathBuf;
use std::sync::Arc;

/// A unique, cleaned temp directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The artifact file for a model and MCF text, spelled out from the
/// documented format: magic, version, payload length, the two texts
/// each prefixed by its length, and the payload's FNV-1a checksum.
fn artifact_bytes(model_xml: &str, mcf_xml: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    for text in [model_xml, mcf_xml] {
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
    }
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    bytes
}

#[test]
fn every_demo_model_roundtrips_bit_identically() {
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

        // Both backends agree bit-for-bit with the fresh compile, on a
        // flat MPI point and on a hybrid one with thread teams.
        let hybrid = SystemParams {
            nodes: 2,
            cpus_per_node: 2,
            processes: 2,
            threads_per_process: 2,
        };
        for sp in [SystemParams::flat_mpi(4, 1), hybrid] {
            for backend in [
                prophet::core::Backend::Simulation,
                prophet::core::Backend::Analytic,
            ] {
                let scenario = Scenario::new(sp).with_backend(backend).without_trace();
                let fresh = session.evaluate(&scenario).unwrap().predicted_time;
                let warm = loaded.evaluate(&scenario).unwrap().predicted_time;
                assert_eq!(
                    warm.to_bits(),
                    fresh.to_bits(),
                    "{name}/{backend} at {sp:?}: loaded artifact must predict bit-identically"
                );
            }
        }
    }
}

/// A store hit needs the key alone: a fresh pool over a warmed store
/// answers without asking for the request's model, counts a disk hit
/// rather than a pool compile, and predicts as the first process did.
#[test]
fn store_hit_is_a_disk_hit_not_a_pool_compile() {
    let dir = temp_dir("disk-hit");
    let model = demo_model("jacobi").unwrap();
    let mcf = McfConfig::default();
    let key = ArtifactKey::of(&model, &mcf);
    let points = mpi_grid(&[1, 2, 4, 8], 1);
    let first = {
        let pool = SessionPool::with_store(
            DEFAULT_CAPACITY,
            Arc::new(ArtifactStore::open(&dir).unwrap()),
        );
        let session = pool.session(&model, &mcf).unwrap();
        assert_eq!(pool.stats().compiles, 1);
        session.sweep(&points).times()
    };

    // "Next process".
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
    let (session, reused, timing) = pool
        .checkout_keyed(key, || Err("a store hit needs no request inputs".into()))
        .unwrap();
    assert!(!reused, "the pool was empty");
    assert_eq!(pool.stats().compiles, 0, "a disk hit is not a pool compile");
    assert_eq!(timing.compile_us, 0, "{timing:?}");
    assert_eq!(
        store.stats(),
        StoreStats {
            disk_hits: 1,
            ..Default::default()
        }
    );
    let again = session.sweep(&points).times();
    let bits = |times: &[Option<f64>]| -> Vec<Option<u64>> {
        times.iter().map(|t| t.map(f64::to_bits)).collect()
    };
    assert_eq!(bits(&again), bits(&first));
    let _ = std::fs::remove_dir_all(&dir);
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
fn loaded_sessions_reproduce_the_golden_traces() {
    // A traced evaluation on a loaded session elaborates its own traced
    // form and reproduces the golden trace (`tests/golden.rs`).
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
    let dir = temp_dir("golden");
    let store = ArtifactStore::open(&dir).unwrap();
    for (name, model, sp, (time, events, trace_len)) in cases {
        let session = Session::new(model).unwrap();
        let key = store.save_session(&session).unwrap();
        let loaded = store.load_session(key).unwrap();

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
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes `save_session` writes are exactly the model's canonical
/// text and its MCF's text, framed: after the 64-point analytic sweep
/// (`flat_mpi(1..=64, 1)`) each bundled session holds 64 elaborations,
/// and none of that cache state moves the bytes.
#[test]
fn saved_artifact_bytes_do_not_move() {
    let dir = temp_dir("bytes");
    let store = ArtifactStore::open(&dir).unwrap();
    let nodes: Vec<usize> = (1..=64).collect();
    let config = SweepConfig {
        backend: prophet::core::Backend::Analytic,
        ..Default::default()
    };
    for (name, _) in demo_models() {
        let session = Session::new(demo_model(name).unwrap()).unwrap();
        let report = session.sweep_with(&mpi_grid(&nodes, 1), &config, |_, _| {});
        assert_eq!(report.failures(), 0, "{name}");
        assert!(session.retained_bytes() > 0, "{name}: the sweep elaborated");
        let key = store.save_session(&session).unwrap();
        let bytes = std::fs::read(store.entry_path(key)).unwrap();
        let expected = artifact_bytes(
            &prophet::uml::xmi::model_to_xml(session.model()),
            &session.mcf().to_xml(),
        );
        assert!(bytes == expected, "{name}: artifact bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry with a valid frame, checksum and key whose canonical model
/// text fails the model check reads as a miss and is evicted; a pool
/// over that store answers with the compile error, without panicking.
#[test]
fn a_stored_model_that_fails_check_is_a_miss() {
    let mut b = ModelBuilder::new("broken");
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let a = b.action(main, "Work", "1 +");
    let f = b.final_node(main, "end");
    b.flow(main, i, a);
    b.flow(main, a, f);
    let model = b.build();
    let mcf = McfConfig::default();
    let model_xml = prophet::uml::xmi::model_to_xml(&model);
    assert_eq!(
        prophet::uml::xmi::model_to_xml(&prophet::uml::xmi::model_from_xml(&model_xml).unwrap()),
        model_xml,
        "the stored text is canonical"
    );
    let bytes = artifact_bytes(&model_xml, &mcf.to_xml());

    let dir = temp_dir("fails-check");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let key = ArtifactKey::of(&model, &mcf);
    let path = store.entry_path(key);
    std::fs::write(&path, &bytes).unwrap();
    assert!(store.load_session(key).is_none(), "must be a miss");
    assert!(!path.exists(), "the entry must be evicted");
    assert_eq!(
        store.stats(),
        StoreStats {
            disk_misses: 1,
            evictions: 1,
            ..Default::default()
        }
    );

    std::fs::write(&path, &bytes).unwrap();
    let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
    let err = pool.session(&model, &mcf).unwrap_err();
    assert!(err.contains("model check failed"), "{err}");
    assert_eq!(pool.stats().compiles, 1);
    let stats = store.stats();
    assert_eq!((stats.evictions, stats.writes), (2, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
