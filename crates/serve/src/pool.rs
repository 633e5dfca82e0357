//! The [`SessionPool`]: compiled [`Session`]s shared across every
//! connection, keyed by *content* — `(model digest, MCF digest)`.
//!
//! This is the serve-path payoff of the whole compile-once stack: the
//! first request for a model pays check + transform (and, per SP point,
//! elaboration); every later request for the same model — from any
//! connection, on any worker thread — reuses the compiled [`Session`]
//! **and** its [`ElaborationCache`](prophet_core::ElaborationCache), so
//! a repeat estimate costs one cache lookup plus the evaluation itself.
//!
//! Keying is by FNV-1a digest of the *canonical serializations*
//! (`model_to_xml` of the parsed model, `McfConfig::to_xml` with sorted
//! rule ids), not of the raw request bytes, so two clients posting the
//! same model with different whitespace or attribute formatting share
//! one session. Compilation is raced through a per-key `OnceLock`: when
//! two requests for a new model arrive together, one compiles and the
//! other blocks until the artifact is ready — never two compiles.
//!
//! **Keyed checkout.** Every checkout goes through
//! [`SessionPool::checkout_keyed`]: it takes the key plus a closure that
//! yields the owned `(Model, McfConfig)`, and runs the closure only when
//! the request compiles. A pooled hit or a store load needs the key
//! alone. `checkout`, `checkout_timed` and `session` are thin wrappers
//! that derive the key with [`PoolKey::of`]. The service never derives
//! it there: [`crate::api::resolve_key`] reads the key of a bundled
//! model from the table that holds the model, and looks inline models
//! and explicit MCFs up in a bounded, process-wide memo of their exact
//! request strings. Only a memo miss pays the canonical serialize →
//! parse → serialize digest, so a pooled hit parses no XML, clones no
//! model and derives no key.
//!
//! The pool is bounded ([`SessionPool::with_capacity`]): beyond
//! `capacity` distinct keys, new models are compiled per-request and
//! *not* retained (counted as `bypasses`), mirroring the elaboration
//! cache's no-eviction policy — steady-state behavior stays predictable
//! under key churn instead of thrashing an eviction list.
//!
//! With a persistent [`ArtifactStore`] attached
//! ([`SessionPool::with_store`]), the pool consults the disk before
//! compiling — a store hit rebuilds the session from its serialized
//! artifacts, skipping check + transform — and writes freshly compiled
//! sessions back, so the *next* process boots warm.
//! [`SessionPool::warm_start`] goes further and pre-loads every stored
//! artifact at startup: the first request after a restart is a pool
//! reuse, with zero compiles anywhere (`prophet serve --store DIR`).
//! The key type is shared with the store by construction: [`PoolKey`]
//! *is* [`prophet_core::ArtifactKey`], so what addresses a pooled
//! session in memory addresses its artifact on disk.

use prophet_check::McfConfig;
use prophet_core::{ArtifactStore, ElabStats, Session, StoreStats};
use prophet_uml::Model;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on retained sessions.
pub const DEFAULT_CAPACITY: usize = 64;

/// Content key of one pooled session — the same `(model, MCF)`
/// canonical-XML content digest that addresses artifacts in the
/// persistent [`ArtifactStore`] (it moved to `prophet_core::store` when
/// the store was introduced; the pool keeps the name).
pub type PoolKey = prophet_core::ArtifactKey;

/// Compilation outcome stored per key: the shared session, or the
/// rendered error chain (also cached — a model that fails to compile
/// fails the same way on every retry, so recompiling it per request
/// would be a free denial-of-service lever).
type Slot = Arc<OnceLock<Result<Arc<Session>, String>>>;

/// Where a [`SessionPool::checkout_timed`] call spent its time, for
/// the per-request span recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckoutTiming {
    /// Microseconds spent attempting an artifact-store load (hit or
    /// miss), zero without a store.
    pub store_us: u64,
    /// Microseconds spent compiling, zero on a reuse or disk hit.
    pub compile_us: u64,
}

fn elapsed_us(since: std::time::Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Counter snapshot of a [`SessionPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Distinct keys currently retained.
    pub size: usize,
    /// Sessions compiled and retained by the pool.
    pub compiles: u64,
    /// Requests served by an already-compiled session.
    pub reuses: u64,
    /// Requests compiled uncached because the pool was full.
    pub bypasses: u64,
}

/// Which slice of a shared artifact store this shard owns: the fleet's
/// consistent-hash ring plus this shard's position on it
/// (`prophet serve --store DIR --partition FLEET`).
///
/// Partitioning namespaces the shared store by ring ownership *at
/// warm-start*: a partitioned pool pre-loads only the keys the fleet's
/// ring assigns to this shard, so boot cost stays ~K/N as the fleet
/// grows instead of every shard loading every sibling's write-backs.
/// The request path is deliberately unfiltered — a shard may serve (and
/// write back) keys it doesn't own during failover or a rebalance.
#[derive(Debug)]
pub struct StorePartition {
    ring: prophet_core::ring::Ring,
    own: usize,
}

impl StorePartition {
    /// Partition by the fleet's shard labels (addresses — the same
    /// strings the router's `--shards` list uses) and this shard's own
    /// label. `None` when `own` is not in `fleet` — a partition that
    /// owns nothing is a misconfiguration, not an empty warm start.
    pub fn new<S: AsRef<str>>(fleet: &[S], own: &str) -> Option<Self> {
        let own_index = fleet.iter().position(|l| l.as_ref() == own)?;
        Some(Self {
            ring: prophet_core::ring::Ring::new(fleet),
            own: own_index,
        })
    }

    /// Whether this shard owns `key` under the fleet's ring — the
    /// identical placement the router computes for the same labels.
    pub fn owns(&self, key: PoolKey) -> bool {
        self.ring.route(prophet_core::ring::route_key(key)) == self.own
    }
}

/// A bounded, concurrency-safe pool of compiled [`Session`]s,
/// optionally backed by a persistent [`ArtifactStore`].
#[derive(Debug)]
pub struct SessionPool {
    slots: Mutex<HashMap<PoolKey, Slot>>,
    capacity: usize,
    store: Option<Arc<ArtifactStore>>,
    partition: Option<StorePartition>,
    compiles: AtomicU64,
    reuses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SessionPool {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl SessionPool {
    /// A pool retaining at most `capacity` sessions.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            capacity,
            store: None,
            partition: None,
            compiles: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Restrict [`warm_start`](Self::warm_start) to the store keys this
    /// shard owns under `partition` (see [`StorePartition`]). Builder
    /// style, applied before the pool starts serving.
    pub fn with_partition(mut self, partition: StorePartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// [`SessionPool::with_capacity`], backed by a persistent artifact
    /// store: in-memory misses consult the disk before compiling, and
    /// fresh compiles write their artifact back. Call
    /// [`SessionPool::warm_start`] to additionally pre-load everything
    /// the store already holds.
    pub fn with_store(capacity: usize, store: Arc<ArtifactStore>) -> Self {
        Self {
            store: Some(store),
            ..Self::with_capacity(capacity)
        }
    }

    /// Pre-load every artifact in the attached store into the pool (up
    /// to the pool's capacity), so the first request after a process
    /// restart is a pool *reuse* — zero compiles. Returns the number of
    /// sessions loaded; corrupt or stale entries are skipped (and
    /// evicted by the store). Without a store this is a no-op.
    ///
    /// Intended for boot time (`prophet serve --store`), before the
    /// listener accepts traffic; it is safe but unbounded in I/O, so
    /// don't call it on a request path.
    pub fn warm_start(&self) -> usize {
        let Some(store) = &self.store else { return 0 };
        let mut loaded = 0;
        for key in store.keys() {
            if self.partition.as_ref().is_some_and(|p| !p.owns(key)) {
                continue;
            }
            {
                let slots = self.slots.lock().expect("pool lock");
                if slots.len() >= self.capacity {
                    break;
                }
                if slots.contains_key(&key) {
                    continue;
                }
            }
            // Load outside the lock: warm-start runs before traffic,
            // but a request racing the tail of a warm start must block
            // on the map mutex only for the insert, not the file read.
            if let Some(session) = store.load_session(key) {
                let slot: Slot = Arc::new(OnceLock::new());
                slot.set(Ok(Arc::new(session))).expect("fresh slot");
                self.slots
                    .lock()
                    .expect("pool lock")
                    .entry(key)
                    .or_insert(slot);
                loaded += 1;
            }
        }
        loaded
    }

    /// The session for `(model, mcf)`: compiled on first request,
    /// shared afterwards.
    ///
    /// # Errors
    /// The rendered compile-error chain when the model fails check or
    /// transform (cached like a success; retrying cannot help).
    pub fn session(&self, model: &Model, mcf: &McfConfig) -> Result<Arc<Session>, String> {
        self.checkout(model, mcf).map(|(session, _)| session)
    }

    /// [`SessionPool::session`], also reporting whether the request was
    /// served by an already-pooled session (`true`) or had to compile
    /// (`false`) — the flag `/v1/estimate` echoes back to clients.
    pub fn checkout(&self, model: &Model, mcf: &McfConfig) -> Result<(Arc<Session>, bool), String> {
        self.checkout_timed(model, mcf)
            .map(|(session, reused, _)| (session, reused))
    }

    /// [`SessionPool::checkout`], additionally reporting how long this
    /// request spent loading from the store and compiling — the span
    /// recorder's store-load and compile phases. A request that merely
    /// waited on another thread's in-flight compile reports zeros for
    /// both (its wait is pool time, measured by the caller).
    pub fn checkout_timed(
        &self,
        model: &Model,
        mcf: &McfConfig,
    ) -> Result<(Arc<Session>, bool, CheckoutTiming), String> {
        self.checkout_keyed(PoolKey::of(model, mcf), || Ok((model.clone(), mcf.clone())))
    }

    /// [`SessionPool::checkout_timed`] by content key. `inputs` yields
    /// the owned `(model, mcf)` that `key` addresses and runs only when
    /// this request compiles; a pooled hit or a store load needs the
    /// key alone. An `inputs` error is returned (and cached) like a
    /// compile error.
    pub fn checkout_keyed(
        &self,
        key: PoolKey,
        inputs: impl FnOnce() -> Result<(Model, McfConfig), String>,
    ) -> Result<(Arc<Session>, bool, CheckoutTiming), String> {
        let (slot, reused) = {
            let mut slots = self.slots.lock().expect("pool lock");
            match slots.get(&key) {
                Some(slot) => {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(slot), true)
                }
                None if slots.len() >= self.capacity => {
                    // Full: compile (or load) for this request only.
                    // The store still accelerates and persists it —
                    // disk is the bigger cache.
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    drop(slots);
                    let mut timing = CheckoutTiming::default();
                    let session = self.load_or_compile(key, inputs, &mut timing)?;
                    return Ok((session, false, timing));
                }
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    slots.insert(key, Arc::clone(&slot));
                    (Arc::clone(&slot), false)
                }
            }
        };
        // Compile outside the map lock; concurrent requests for the same
        // new key block here on the OnceLock, not on the whole pool.
        let mut timing = CheckoutTiming::default();
        let result = slot.get_or_init(|| {
            // A store hit is not a compile: only a call for the inputs
            // counts as one.
            let counted = || {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                inputs()
            };
            self.load_or_compile(key, counted, &mut timing)
        });
        result.clone().map(|session| (session, reused, timing))
    }

    /// The session for `key` from the store, else compiled from
    /// `inputs` and written back. A store hit rebuilds the session
    /// without check or transform and never calls `inputs`.
    fn load_or_compile(
        &self,
        key: PoolKey,
        inputs: impl FnOnce() -> Result<(Model, McfConfig), String>,
        timing: &mut CheckoutTiming,
    ) -> Result<Arc<Session>, String> {
        if let Some(store) = &self.store {
            let t = std::time::Instant::now();
            let loaded = store.load_session(key);
            timing.store_us = elapsed_us(t);
            if let Some(session) = loaded {
                return Ok(Arc::new(session));
            }
        }
        let (model, mcf) = inputs()?;
        let t = std::time::Instant::now();
        let compiled = Session::compile(model, mcf).map_err(|e| prophet_core::render_chain(&e));
        timing.compile_us = elapsed_us(t);
        let compiled = Arc::new(compiled?);
        if let Some(store) = &self.store {
            // Persistence is best-effort on the request path; the
            // store counts write errors for /v1/metrics.
            let _ = store.save_session(&compiled);
        }
        Ok(compiled)
    }

    /// Drop the pooled session for `key`, if present. The router's
    /// rebalance handoff calls this (via `POST /v1/evict`) on a key's
    /// *old* owner once the new owner is warm; in-flight requests keep
    /// their `Arc<Session>` until they finish, and the on-disk artifact
    /// (if any) is untouched — eviction frees pool capacity, not disk.
    pub fn evict(&self, key: PoolKey) -> bool {
        let removed = self.slots.lock().expect("pool lock").remove(&key).is_some();
        if removed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// How many pooled sessions have been dropped via
    /// [`evict`](Self::evict) — surfaced as
    /// `session_pool.evictions` on `/v1/metrics`.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Counter snapshot of the attached artifact store, if any — the
    /// `/v1/metrics` `store` section.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The attached artifact store, if any — the metrics checkpoint
    /// thread persists lifetime counters through it.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            size: self.slots.lock().expect("pool lock").len(),
            compiles: self.compiles.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Aggregate elaboration-cache counters over every pooled session —
    /// the `/v1/metrics` view of the flatten-once contract at work.
    pub fn elab_stats(&self) -> ElabStats {
        let slots: Vec<Slot> = self
            .slots
            .lock()
            .expect("pool lock")
            .values()
            .cloned()
            .collect();
        let mut total = ElabStats::default();
        for slot in slots {
            if let Some(Ok(session)) = slot.get() {
                let s = session.elab_stats();
                total.hits += s.hits;
                total.misses += s.misses;
                total.bypasses += s.bypasses;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_core::Scenario;
    use prophet_machine::SystemParams;
    use prophet_uml::ModelBuilder;

    fn model(name: &str, cost: &str) -> Model {
        let mut b = ModelBuilder::new(name);
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "Work", cost);
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        b.build()
    }

    #[test]
    fn one_serialization_is_a_fixed_point() {
        for (name, _) in crate::api::demo_models() {
            let m = crate::api::demo_model(name).unwrap();
            let canonical = prophet_uml::xmi::model_to_xml(&m);
            let reparsed = prophet_uml::xmi::model_from_xml(&canonical).unwrap();
            assert_eq!(
                canonical,
                prophet_uml::xmi::model_to_xml(&reparsed),
                "{name}: canonical form must be parse-stable"
            );
            // Builder-built and parsed spellings share one pool key.
            assert_eq!(
                PoolKey::of(&m, &McfConfig::default()),
                PoolKey::of(&reparsed, &McfConfig::default()),
                "{name}"
            );
        }
    }

    #[test]
    fn same_content_compiles_once() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        let s1 = pool.session(&model("m", "2.0"), &mcf).unwrap();
        let s2 = pool.session(&model("m", "2.0"), &mcf).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "second request must reuse");
        assert_eq!(
            pool.stats(),
            PoolStats {
                size: 1,
                compiles: 1,
                reuses: 1,
                bypasses: 0
            }
        );
    }

    #[test]
    fn different_content_gets_its_own_session() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        pool.session(&model("m", "2.0"), &mcf).unwrap();
        pool.session(&model("m", "3.0"), &mcf).unwrap();
        assert_eq!(pool.stats().size, 2);
        assert_eq!(pool.stats().compiles, 2);
    }

    #[test]
    fn concurrent_first_requests_compile_exactly_once() {
        let pool = Arc::new(SessionPool::default());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    pool.session(&model("racy", "1.0"), &McfConfig::default())
                        .unwrap();
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.compiles, 1, "{stats:?}");
        assert_eq!(stats.reuses + stats.compiles, 8, "{stats:?}");
    }

    #[test]
    fn full_pool_bypasses_without_evicting() {
        let pool = SessionPool::with_capacity(1);
        let mcf = McfConfig::default();
        pool.session(&model("keep", "1.0"), &mcf).unwrap();
        pool.session(&model("extra", "2.0"), &mcf).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.size, stats.bypasses), (1, 1), "{stats:?}");
        // The retained session still reuses.
        pool.session(&model("keep", "1.0"), &mcf).unwrap();
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn compile_errors_are_cached() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        let bad = model("bad", "1 +");
        let e1 = pool.session(&bad, &mcf).unwrap_err();
        let e2 = pool.session(&bad, &mcf).unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.contains("model check failed"), "{e1}");
        let stats = pool.stats();
        assert_eq!((stats.compiles, stats.reuses), (1, 1), "{stats:?}");
    }

    fn temp_store(tag: &str) -> Arc<ArtifactStore> {
        let dir =
            std::env::temp_dir().join(format!("prophet-pool-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(ArtifactStore::open(dir).expect("temp store opens"))
    }

    #[test]
    fn store_miss_compiles_and_writes_back() {
        let store = temp_store("writeback");
        let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
        let mcf = McfConfig::default();
        pool.session(&model("wb", "1.0"), &mcf).unwrap();
        let stats = store.stats();
        assert_eq!((stats.disk_misses, stats.writes), (1, 1), "{stats:?}");
        assert_eq!(pool.stats().compiles, 1);
        assert_eq!(pool.store_stats(), Some(stats));
    }

    #[test]
    fn second_pool_hits_the_disk_instead_of_compiling() {
        let store = temp_store("restart");
        let mcf = McfConfig::default();
        let m = model("restart", "2.0 / P");
        {
            let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
            pool.session(&m, &mcf).unwrap();
        }
        // "Restart": a fresh pool over the same directory.
        let store2 = Arc::new(ArtifactStore::open(store.dir()).unwrap());
        let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store2));
        pool.session(&m, &mcf).unwrap();
        assert_eq!(pool.stats().compiles, 0, "disk hit must not compile");
        assert_eq!(store2.stats().disk_hits, 1);
    }

    #[test]
    fn warm_start_preloads_every_stored_session() {
        let store = temp_store("warm");
        let mcf = McfConfig::default();
        let m1 = model("w1", "1.0");
        let m2 = model("w2", "2.0");
        {
            let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
            pool.session(&m1, &mcf).unwrap();
            pool.session(&m2, &mcf).unwrap();
        }
        let store2 = Arc::new(ArtifactStore::open(store.dir()).unwrap());
        let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store2));
        assert_eq!(pool.warm_start(), 2);
        let stats = pool.stats();
        assert_eq!((stats.size, stats.compiles), (2, 0), "{stats:?}");
        // The first request is a plain pool reuse.
        pool.session(&m1, &mcf).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.compiles, stats.reuses), (0, 1), "{stats:?}");
    }

    #[test]
    fn warm_start_respects_capacity_and_skips_corrupt_entries() {
        let store = temp_store("warmcap");
        let mcf = McfConfig::default();
        {
            let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
            for (name, cost) in [("c1", "1.0"), ("c2", "2.0"), ("c3", "3.0")] {
                pool.session(&model(name, cost), &mcf).unwrap();
            }
        }
        // Corrupt one entry on disk.
        let victim = store.keys()[0];
        std::fs::write(store.entry_path(victim), b"garbage").unwrap();

        let store2 = Arc::new(ArtifactStore::open(store.dir()).unwrap());
        let pool = SessionPool::with_store(2, Arc::clone(&store2));
        let loaded = pool.warm_start();
        assert!(loaded <= 2, "capacity bound: {loaded}");
        assert!(pool.stats().size <= 2);
        // The corrupt entry was either skipped (and evicted) or simply
        // never reached under the capacity bound; never a panic.
        assert_eq!(pool.stats().compiles, 0);
    }

    #[test]
    fn evict_drops_exactly_the_named_key() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        let keep = model("keep", "1.0");
        let drop_me = model("drop", "2.0");
        let kept = pool.session(&keep, &mcf).unwrap();
        pool.session(&drop_me, &mcf).unwrap();
        assert_eq!(pool.stats().size, 2);

        assert!(pool.evict(PoolKey::of(&drop_me, &mcf)));
        assert!(!pool.evict(PoolKey::of(&drop_me, &mcf)), "already gone");
        assert_eq!(pool.stats().size, 1);
        assert_eq!(pool.evictions(), 1);
        // The survivor still reuses; the evicted key recompiles.
        assert!(Arc::ptr_eq(&kept, &pool.session(&keep, &mcf).unwrap()));
        pool.session(&drop_me, &mcf).unwrap();
        assert_eq!(pool.stats().compiles, 3);
    }

    #[test]
    fn partitioned_warm_start_loads_only_owned_keys() {
        let store = temp_store("partition");
        let mcf = McfConfig::default();
        // Seed the shared store with enough distinct models that both
        // partitions own something.
        let models: Vec<Model> = (0..8)
            .map(|i| model(&format!("p{i}"), &format!("{}.0", i + 1)))
            .collect();
        {
            let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
            for m in &models {
                pool.session(m, &mcf).unwrap();
            }
        }
        let fleet = ["10.0.0.1:7071", "10.0.0.2:7071"];
        let all: Vec<PoolKey> = store.keys();
        let owned_by = |own: &str| {
            let p = StorePartition::new(&fleet, own).unwrap();
            all.iter().filter(|&&k| p.owns(k)).count()
        };
        assert_eq!(
            owned_by(fleet[0]) + owned_by(fleet[1]),
            all.len(),
            "every key has exactly one owner"
        );

        for own in fleet {
            let store2 = Arc::new(ArtifactStore::open(store.dir()).unwrap());
            let pool = SessionPool::with_store(DEFAULT_CAPACITY, store2)
                .with_partition(StorePartition::new(&fleet, own).unwrap());
            assert_eq!(
                pool.warm_start(),
                owned_by(own),
                "{own} must warm exactly its ring slice"
            );
        }
        // A label outside the fleet is a misconfiguration, not a shard
        // that owns nothing.
        assert!(StorePartition::new(&fleet, "10.9.9.9:1").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn checkout_timing_splits_store_load_from_compile() {
        let store = temp_store("timing");
        let pool = SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store));
        let mcf = McfConfig::default();
        let m = model("timed", "1.0");
        // First checkout: a store miss, then a compile.
        let (_, reused, t) = pool.checkout_timed(&m, &mcf).unwrap();
        assert!(!reused);
        assert!(t.compile_us > 0, "{t:?}");
        // Reuse: no store work, no compile work.
        let (_, reused, t) = pool.checkout_timed(&m, &mcf).unwrap();
        assert!(reused);
        assert_eq!(t, CheckoutTiming::default());
        // A fresh pool over the same store: the disk hit is store time,
        // not compile time.
        let store2 = Arc::new(ArtifactStore::open(store.dir()).unwrap());
        let pool2 = SessionPool::with_store(DEFAULT_CAPACITY, store2);
        let (_, _, t) = pool2.checkout_timed(&m, &mcf).unwrap();
        assert!(t.store_us > 0, "{t:?}");
        assert_eq!(t.compile_us, 0, "{t:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn pooled_sessions_share_their_elab_cache() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        let m = model("elab", "4.0 / P");
        let scenario = Scenario::new(SystemParams::flat_mpi(2, 1)).without_trace();
        pool.session(&m, &mcf).unwrap().evaluate(&scenario).unwrap();
        pool.session(&m, &mcf).unwrap().evaluate(&scenario).unwrap();
        let elab = pool.elab_stats();
        assert_eq!((elab.misses, elab.hits), (1, 1), "{elab:?}");
    }
}
