//! Churn soak for the session pool's byte budget: distinct inline model
//! variants × SP points, one of them a large rank count, go through one
//! [`SessionPool`] — first from one thread, then from several.
//!
//! * Retained bytes stay within [`BUDGET_BYTES`] plus what in-flight
//!   requests hold: exactly the checked-out session when serial, at most
//!   one whole session per thread when concurrent (a session grows as
//!   its request elaborates, after the checkout that evicted for it).
//! * No key compiles twice while it is resident: every compile beyond
//!   the first of each key follows an eviction.
//! * Follow-ups reuse: a key checked out again right after its own
//!   request is a pool hit.

use prophet::check::McfConfig;
use prophet::core::{ArtifactKey, Backend, Scenario, Session};
use prophet::machine::SystemParams;
use prophet::serve::api::demo_model;
use prophet::serve::pool::{SessionPool, BUDGET_BYTES, SLOT_BYTES};
use prophet::uml::xmi::{model_from_xml, model_to_xml};
use prophet::uml::Model;
use std::sync::Arc;

/// Distinct variants of the bundled jacobi model.
const VARIANTS: usize = 24;
/// Concurrent request threads in the second phase.
const THREADS: usize = 4;

/// The SP points each variant is estimated at, with their backends: a
/// first request and its follow-ups, the last at a large rank count.
fn points() -> Vec<(usize, Backend)> {
    vec![
        (4, Backend::Simulation),
        (4, Backend::Analytic),
        (8, Backend::Analytic),
        (2, Backend::Simulation),
        (64, Backend::Analytic),
    ]
}

/// `count` jacobi variants, each with its own global problem size, so
/// each has its own content key.
fn variants(count: usize) -> Vec<(ArtifactKey, Model)> {
    let xml = model_to_xml(&demo_model("jacobi").expect("bundled jacobi"));
    let mcf = McfConfig::default();
    (0..count)
        .map(|i| {
            let edited = xml.replace("init=\"1000000\"", &format!("init=\"{}\"", 1_000_001 + i));
            assert_ne!(edited, xml, "the variant must differ");
            let model = model_from_xml(&edited).expect("variant parses");
            (ArtifactKey::of(&model, &mcf), model)
        })
        .collect()
}

fn scenario(processes: usize, backend: Backend) -> Scenario {
    Scenario::new(SystemParams::flat_mpi(processes, 1))
        .without_trace()
        .with_backend(backend)
}

/// One request: check the variant out by key (compiling only on a
/// miss), estimate it. Returns the session and whether it was pooled.
fn request(
    pool: &SessionPool,
    (key, model): &(ArtifactKey, Model),
    (processes, backend): (usize, Backend),
) -> (Arc<Session>, bool) {
    let (session, reused, _) = pool
        .checkout_keyed(*key, || Ok((model.clone(), McfConfig::default())))
        .expect("variant compiles");
    session
        .evaluate(&scenario(processes, backend))
        .expect("variant estimates");
    (session, reused)
}

/// The charge of one session after every point: the most a single
/// session of this soak can hold.
fn largest_charge() -> usize {
    let (_, model) = variants(1).remove(0);
    let session = Session::compile(model, McfConfig::default()).unwrap();
    for (processes, backend) in points() {
        session.evaluate(&scenario(processes, backend)).unwrap();
    }
    SLOT_BYTES + session.retained_bytes()
}

#[test]
fn retained_bytes_stay_within_the_budget_under_churn() {
    let largest = largest_charge();
    assert!(
        VARIANTS * largest > 2 * BUDGET_BYTES,
        "the soak must overflow the budget: {VARIANTS} x {largest} bytes"
    );
    let pool = SessionPool::default();
    let variants = variants(VARIANTS);

    // Serial: the bound is exact.
    for point in points() {
        for variant in &variants {
            let (session, _) = request(&pool, variant, point);
            let retained = pool.stats().retained_bytes;
            let own = SLOT_BYTES + session.retained_bytes();
            assert!(
                retained <= BUDGET_BYTES + own,
                "{retained} bytes retained, budget {BUDGET_BYTES} + checked out {own}"
            );
            // The follow-up finds the session it just used.
            let (again, reused) = request(&pool, variant, point);
            assert!(reused && Arc::ptr_eq(&session, &again));
        }
    }
    let serial = pool.stats();
    assert!(serial.budget_evictions > 0, "{serial:?}");
    assert!(
        serial.compiles <= VARIANTS as u64 + serial.budget_evictions,
        "a key compiled twice while resident: {serial:?}"
    );

    // Concurrent: every thread walks every variant at every point, in
    // its own order.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (pool, variants) = (&pool, &variants);
            scope.spawn(move || {
                for (p, point) in points().into_iter().enumerate() {
                    for i in 0..VARIANTS {
                        let variant = &variants[(i * (t + 1) + p) % VARIANTS];
                        request(pool, variant, point);
                        let retained = pool.stats().retained_bytes;
                        assert!(
                            retained <= BUDGET_BYTES + THREADS * largest,
                            "{retained} bytes retained, budget {BUDGET_BYTES} + \
                             {THREADS} in-flight sessions of at most {largest}"
                        );
                    }
                }
            });
        }
    });
    let stats = pool.stats();
    assert!(
        stats.compiles <= VARIANTS as u64 + stats.budget_evictions,
        "a key compiled twice while resident: {stats:?}"
    );
    let requests = (2 + THREADS) * VARIANTS * points().len();
    assert_eq!(
        stats.reuses + stats.compiles,
        requests as u64,
        "every request is a reuse or a compile: {stats:?}"
    );
}
