//! Persistent artifact store: a store load parses the stored model text
//! and compiles it, so it is timed against compiling the same model
//! from its XML.
//!
//! The guard section (run by the CI smoke) pins that a load predicts
//! bit-identically to the session that was saved and keys back to the
//! same entry. The timed section compares `disk_load` (read, checksum,
//! key check, parse, canonical check, compile) with `from_model_xml`
//! (parse, compile) of the model's canonical XML.

use criterion::{criterion_group, criterion_main, Criterion};
use prophet_core::{ArtifactKey, ArtifactStore, Scenario, Session};
use prophet_machine::SystemParams;
use prophet_workloads::models::jacobi_model;

fn temp_store(tag: &str) -> ArtifactStore {
    let dir =
        std::env::temp_dir().join(format!("prophet-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactStore::open(dir).expect("temp store opens")
}

fn bench_store(c: &mut Criterion) {
    let store = temp_store("load");
    let session = Session::new(jacobi_model(100_000, 10, 1e-8)).expect("compile");
    let key = store.save_session(&session).expect("store write");
    let xml = session.model_xml();

    // --- Guard: a load predicts bit-identically (the CI smoke gate
    // for the persistence layer). ---
    let loaded = store.load_session(key).expect("store hit");
    let scenario = Scenario::new(SystemParams::flat_mpi(4, 1)).without_trace();
    assert_eq!(
        loaded.evaluate(&scenario).unwrap().predicted_time.to_bits(),
        session
            .evaluate(&scenario)
            .unwrap()
            .predicted_time
            .to_bits(),
        "loaded artifact must predict bit-identically"
    );
    assert_eq!(ArtifactKey::of(loaded.model(), loaded.mcf()), key);

    // --- Timings. ---
    let mut group = c.benchmark_group("store/jacobi");
    group.sample_size(10);
    group.bench_function("from_model_xml", |b| {
        b.iter(|| Session::from_model_xml(&xml).expect("compile"))
    });
    group.bench_function("disk_load", |b| {
        b.iter(|| store.load_session(key).expect("hit"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(store.dir());
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
