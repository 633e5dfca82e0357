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
//! **Retention.** The pool is bounded by bytes: every slot is charged
//! its session's retained elaboration bytes
//! ([`Session::retained_bytes`]) plus a fixed per-slot overhead, which
//! also covers a cached compile error or a compile still in flight. On
//! every checkout, after the hit or insert, the pool evicts
//! least-recently-used slots other than the one being checked out until
//! the total is within [`BUDGET_BYTES`] and the slot count within the
//! pool's capacity ([`SessionPool::with_capacity`]); a hit refreshes its
//! slot's recency. So a model that is edited and then estimated again
//! keeps its compiled session and warm elaborations, however many
//! models came before it, while memory stays bounded under key churn.
//! An evicted key is only recompiled on its next request (sessions are
//! content-keyed and immutable, so predictions do not change), and the
//! elaboration counters of evicted sessions are kept in retired totals,
//! so `/v1/metrics` counters never go backwards. Requests that hold an
//! evicted session keep their `Arc<Session>` until they finish.
//!
//! With a persistent [`ArtifactStore`] attached
//! ([`SessionPool::with_store`]), the pool consults the disk before
//! compiling — a store hit compiles the stored model text, needs no
//! request inputs and counts as a disk hit, not a pool compile — and
//! writes freshly compiled models back, so the *next* process boots
//! warm.
//! [`SessionPool::warm_start`] goes further and pre-loads every stored
//! artifact at startup: the first request after a restart is a pool
//! reuse, with zero compiles anywhere (`prophet serve --store DIR`).
//! The key type is shared with the store by construction: [`PoolKey`]
//! *is* [`prophet_core::ArtifactKey`], so what addresses a pooled
//! session in memory addresses its artifact on disk.

use prophet_check::McfConfig;
use prophet_core::{ArtifactStore, ElabStats, Session, StoreStats};
use prophet_uml::Model;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default ceiling on retained sessions, enforced by the same
/// least-recently-used eviction as the byte budget.
pub const DEFAULT_CAPACITY: usize = 64;

/// Bytes one pool retains at most, beyond the session being checked
/// out: the sum of its slots' charges. An edited model's session
/// retains about 277 KiB of elaborations over its eight SP points; a
/// jacobi session swept over 64 points about 18 MiB, which is evicted
/// at the next checkout of another key.
pub const BUDGET_BYTES: usize = 4 << 20;

/// Fixed charge of one slot beyond its session's retained elaboration
/// bytes: the compiled model, program and diagnostics (16–30 KiB of
/// RSS per compiled bundled model, on a 64-bit build), or a cached
/// compile error, or a compile still in flight.
pub const SLOT_BYTES: usize = 24 << 10;

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
    /// Sessions compiled by the pool.
    pub compiles: u64,
    /// Requests served by an already-compiled session.
    pub reuses: u64,
    /// Sum of the retained slots' charges, compared against
    /// [`BUDGET_BYTES`].
    pub retained_bytes: usize,
    /// Slots evicted to stay within the byte budget or the capacity.
    pub budget_evictions: u64,
}

/// One retained key: its slot and when it was last checked out.
#[derive(Debug)]
struct Resident {
    slot: Slot,
    used: u64,
}

impl Resident {
    /// What the slot counts against the budget.
    fn charge(&self) -> usize {
        SLOT_BYTES
            + match self.slot.get() {
                Some(Ok(session)) => session.retained_bytes(),
                _ => 0,
            }
    }
}

/// The pool's state behind its one lock.
#[derive(Debug, Default)]
struct Slots {
    map: HashMap<PoolKey, Resident>,
    /// Checkout clock: a slot's `used` is its last checkout's tick.
    clock: u64,
    /// Elaboration counters of sessions no longer pooled.
    retired: ElabStats,
}

impl Slots {
    /// Sum of every slot's charge.
    fn charged(&self) -> usize {
        self.map.values().map(Resident::charge).sum()
    }

    /// Take `key` out, folding its session's elaboration counters into
    /// the retired totals. The caller drops it after releasing the lock:
    /// freeing a session's elaborations is not pool work.
    fn remove(&mut self, key: PoolKey) -> Option<Resident> {
        let resident = self.map.remove(&key)?;
        if let Some(Ok(session)) = resident.slot.get() {
            self.retired += session.elab_stats();
        }
        Some(resident)
    }
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

/// A byte-bounded, least-recently-used, concurrency-safe pool of
/// compiled [`Session`]s, optionally backed by a persistent
/// [`ArtifactStore`].
#[derive(Debug)]
pub struct SessionPool {
    slots: Mutex<Slots>,
    capacity: usize,
    /// [`BUDGET_BYTES`]; a field so unit tests can shrink it.
    budget: usize,
    store: Option<Arc<ArtifactStore>>,
    partition: Option<StorePartition>,
    compiles: AtomicU64,
    reuses: AtomicU64,
    evictions: AtomicU64,
    budget_evictions: AtomicU64,
}

impl Default for SessionPool {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl SessionPool {
    /// A pool retaining at most `capacity` sessions and
    /// [`BUDGET_BYTES`] of charges, besides the session being checked
    /// out.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Mutex::new(Slots::default()),
            capacity,
            budget: BUDGET_BYTES,
            store: None,
            partition: None,
            compiles: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            budget_evictions: AtomicU64::new(0),
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
    /// to the pool's capacity and byte budget), so the first request
    /// after a process restart is a pool *reuse* — zero compiles.
    /// Returns the number of sessions loaded; corrupt or stale entries
    /// are skipped (and evicted by the store). Loading stops at the
    /// first session that would take the pool past either bound.
    /// Without a store this is a no-op.
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
            if self.slots.lock().expect("pool lock").map.contains_key(&key) {
                continue;
            }
            // Load outside the lock: warm-start runs before traffic,
            // but a request racing the tail of a warm start must block
            // on the map mutex only for the insert, not the file read.
            let Some(session) = store.load_session(key) else {
                continue;
            };
            let mut slots = self.slots.lock().expect("pool lock");
            let charge = SLOT_BYTES + session.retained_bytes();
            if slots.map.len() >= self.capacity || slots.charged() + charge > self.budget {
                break;
            }
            if let Entry::Vacant(entry) = slots.map.entry(key) {
                entry.insert(Resident {
                    slot: Arc::new(OnceLock::from(Ok(Arc::new(session)))),
                    used: 0,
                });
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
        let ((slot, reused), evicted) = {
            let mut slots = self.slots.lock().expect("pool lock");
            slots.clock += 1;
            let used = slots.clock;
            let checked_out = match slots.map.entry(key) {
                Entry::Occupied(mut entry) => {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    entry.get_mut().used = used;
                    (Arc::clone(&entry.get().slot), true)
                }
                Entry::Vacant(entry) => {
                    let slot = Slot::default();
                    entry.insert(Resident {
                        slot: Arc::clone(&slot),
                        used,
                    });
                    (slot, false)
                }
            };
            let evicted = self.shed(&mut slots, key);
            (checked_out, evicted)
        };
        drop(evicted);
        // Load or compile outside the map lock; concurrent requests for
        // the same new key block here on the OnceLock, not on the whole
        // pool.
        let mut timing = CheckoutTiming::default();
        let result = slot.get_or_init(|| {
            if let Some(store) = &self.store {
                let t = std::time::Instant::now();
                let loaded = store.load_session(key);
                timing.store_us = elapsed_us(t);
                if let Some(session) = loaded {
                    return Ok(Arc::new(session));
                }
            }
            // A store hit is not a compile: only a call for the inputs
            // counts as one.
            self.compiles.fetch_add(1, Ordering::Relaxed);
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
        });
        result.clone().map(|session| (session, reused, timing))
    }

    /// Evict least-recently-used slots other than `keep` until the pool
    /// is within its byte budget and its capacity. Charges are read once
    /// per call; sessions keep growing as requests elaborate, and the
    /// next checkout accounts for that. Returns the evicted slots.
    fn shed(&self, slots: &mut Slots, keep: PoolKey) -> Vec<Resident> {
        let over = |total: usize, size: usize| total > self.budget || size > self.capacity;
        let mut total = slots.charged();
        let mut evicted = Vec::new();
        if !over(total, slots.map.len()) {
            return evicted;
        }
        let mut victims: Vec<(u64, PoolKey, usize)> = slots
            .map
            .iter()
            .filter(|&(&key, _)| key != keep)
            .map(|(&key, resident)| (resident.used, key, resident.charge()))
            .collect();
        victims.sort_unstable_by_key(|&(used, ..)| used);
        for (_, key, charge) in victims {
            if !over(total, slots.map.len()) {
                break;
            }
            evicted.extend(slots.remove(key));
            total = total.saturating_sub(charge);
            self.budget_evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Drop the pooled session for `key`, if present. The router's
    /// rebalance handoff calls this (via `POST /v1/evict`) on a key's
    /// *old* owner once the new owner is warm; in-flight requests keep
    /// their `Arc<Session>` until they finish, and the on-disk artifact
    /// (if any) is untouched — eviction frees pool capacity, not disk.
    pub fn evict(&self, key: PoolKey) -> bool {
        let removed = self.slots.lock().expect("pool lock").remove(key);
        if removed.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        removed.is_some()
    }

    /// How many pooled sessions have been dropped via
    /// [`evict`](Self::evict) — surfaced as
    /// `session_pool.evictions` on `/v1/metrics`. Evictions to stay
    /// within the budget are [`PoolStats::budget_evictions`].
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
        let slots = self.slots.lock().expect("pool lock");
        PoolStats {
            size: slots.map.len(),
            compiles: self.compiles.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            retained_bytes: slots.charged(),
            budget_evictions: self.budget_evictions.load(Ordering::Relaxed),
        }
    }

    /// Elaboration-cache counters of every session this pool has held:
    /// the pooled sessions' plus the retired totals of evicted ones —
    /// the `/v1/metrics` view of the flatten-once contract at work.
    /// Read under the pool lock, so an eviction moves a session's
    /// counts from one side to the other atomically and no counter
    /// decreases between reads.
    pub fn elab_stats(&self) -> ElabStats {
        let slots = self.slots.lock().expect("pool lock");
        let mut total = slots.retired;
        for resident in slots.map.values() {
            if let Some(Ok(session)) = resident.slot.get() {
                total += session.elab_stats();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_core::{Backend, Scenario};
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
                retained_bytes: SLOT_BYTES,
                budget_evictions: 0
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

    fn key(m: &Model) -> PoolKey {
        PoolKey::of(m, &McfConfig::default())
    }

    /// A default pool with a byte budget of `budget`.
    fn budgeted(budget: usize) -> SessionPool {
        SessionPool {
            budget,
            ..SessionPool::default()
        }
    }

    fn untraced(processes: usize, backend: Backend) -> Scenario {
        Scenario::new(SystemParams::flat_mpi(processes, 1))
            .without_trace()
            .with_backend(backend)
    }

    #[test]
    fn a_hit_refreshes_recency() {
        // The count ceiling is enforced by the same LRU eviction.
        let pool = SessionPool::with_capacity(2);
        let mcf = McfConfig::default();
        let (a, b, c) = (model("a", "1.0"), model("b", "2.0"), model("c", "3.0"));
        let kept = pool.session(&a, &mcf).unwrap();
        pool.session(&b, &mcf).unwrap();
        pool.session(&a, &mcf).unwrap();
        // `b` is now the least recently used: `c` evicts it, not `a`.
        pool.session(&c, &mcf).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.size, stats.budget_evictions), (2, 1), "{stats:?}");
        assert!(Arc::ptr_eq(&kept, &pool.session(&a, &mcf).unwrap()));
        let (_, reused) = pool.checkout(&b, &mcf).unwrap();
        assert!(!reused, "the evicted key recompiles");
        assert_eq!(pool.stats().compiles, 4);
    }

    #[test]
    fn eviction_is_by_bytes_not_count() {
        let pool = budgeted(4 * SLOT_BYTES);
        let mcf = McfConfig::default();
        let models: Vec<Model> = (0..5)
            .map(|i| model(&format!("b{i}"), &format!("{}.0 / P", i + 1)))
            .collect();
        for m in &models[..4] {
            pool.session(m, &mcf).unwrap();
        }
        assert_eq!(pool.stats().retained_bytes, pool.budget, "exactly full");
        // The newest session elaborates 64 ranks: the pool is now over
        // its budget, far under its 64-session capacity.
        let grown = pool.session(&models[3], &mcf).unwrap();
        grown.evaluate(&untraced(64, Backend::Simulation)).unwrap();
        let elab = grown.retained_bytes();
        assert!(elab > 0 && elab <= SLOT_BYTES, "{elab}");
        pool.session(&models[4], &mcf).unwrap();
        // Two least-recently-used slots make room for one slot plus the
        // elaboration.
        let stats = pool.stats();
        assert_eq!((stats.size, stats.budget_evictions), (3, 2), "{stats:?}");
        assert_eq!(stats.retained_bytes, 3 * SLOT_BYTES + elab);
        assert!(stats.retained_bytes <= pool.budget);
        for (m, resident) in models.iter().zip([false, false, true, true, true]) {
            let present = pool.slots.lock().unwrap().map.contains_key(&key(m));
            assert_eq!(present, resident, "{}", m.name);
        }
    }

    #[test]
    fn the_session_being_checked_out_is_never_evicted() {
        let pool = budgeted(0);
        let mcf = McfConfig::default();
        let (a, b) = (model("a", "1.0"), model("b", "2.0"));
        pool.session(&a, &mcf).unwrap();
        assert_eq!(pool.stats().size, 1, "over budget, but checked out");
        let kept = pool.session(&b, &mcf).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.size, stats.budget_evictions), (1, 1), "{stats:?}");
        let (again, reused) = pool.checkout(&b, &mcf).unwrap();
        assert!(reused && Arc::ptr_eq(&kept, &again));
    }

    #[test]
    fn compile_error_slots_are_charged() {
        let pool = budgeted(SLOT_BYTES);
        let mcf = McfConfig::default();
        pool.session(&model("bad", "1 +"), &mcf).unwrap_err();
        let stats = pool.stats();
        assert_eq!(
            (stats.size, stats.retained_bytes),
            (1, SLOT_BYTES),
            "{stats:?}"
        );
        // A second slot takes the pool past its budget: the error goes.
        pool.session(&model("good", "1.0"), &mcf).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.size, stats.budget_evictions), (1, 1), "{stats:?}");
    }

    #[test]
    fn an_evicted_key_recompiles_to_bit_identical_predictions() {
        let mcf = McfConfig::default();
        let jacobi = crate::api::demo_model("jacobi").unwrap();
        let other = model("other", "1.0");
        for backend in [Backend::Simulation, Backend::Analytic] {
            let pool = budgeted(0);
            let scenario = untraced(4, backend);
            let first = pool.session(&jacobi, &mcf).unwrap();
            let before = first.evaluate(&scenario).unwrap();
            pool.session(&other, &mcf).unwrap();
            let (second, reused) = pool.checkout(&jacobi, &mcf).unwrap();
            assert!(!reused && !Arc::ptr_eq(&first, &second), "{backend:?}");
            assert_eq!(pool.stats().compiles, 3, "{backend:?}");
            let after = second.evaluate(&scenario).unwrap();
            assert_eq!(
                before.predicted_time.to_bits(),
                after.predicted_time.to_bits(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn evictions_never_decrease_the_elaboration_counters() {
        let pool = SessionPool::default();
        let mcf = McfConfig::default();
        let m = model("mono", "4.0 / P");
        let scenario = untraced(2, Backend::Simulation);
        for _ in 0..2 {
            pool.session(&m, &mcf).unwrap().evaluate(&scenario).unwrap();
        }
        let before = pool.elab_stats();
        assert_eq!((before.misses, before.hits), (1, 1), "{before:?}");
        // The rebalance handoff's eviction keeps the evicted counts.
        assert!(pool.evict(key(&m)));
        assert_eq!(pool.elab_stats(), before);
        // A budget eviction, after the key recompiled and elaborated.
        pool.session(&m, &mcf).unwrap().evaluate(&scenario).unwrap();
        let before = pool.elab_stats();
        assert_eq!(before.misses, 2, "{before:?}");
        let mut pool = pool;
        pool.budget = 0;
        pool.session(&model("other", "1.0"), &mcf).unwrap();
        assert_eq!(pool.stats().budget_evictions, 1);
        assert_eq!(pool.elab_stats(), before);
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
    fn warm_start_stops_at_the_budget() {
        let store = temp_store("budget");
        let mcf = McfConfig::default();
        for i in 0..3 {
            let m = model(&format!("s{i}"), &format!("{}.0 / P", i + 1));
            store
                .save_session(&Session::compile(m, mcf.clone()).unwrap())
                .unwrap();
        }
        // A loaded session has elaborated nothing yet: it is charged
        // the slot overhead alone.
        let pool = SessionPool {
            budget: 2 * SLOT_BYTES,
            ..SessionPool::with_store(DEFAULT_CAPACITY, Arc::clone(&store))
        };
        assert_eq!(pool.warm_start(), 2);
        let stats = pool.stats();
        assert_eq!(
            (stats.size, stats.retained_bytes, stats.compiles),
            (2, 2 * SLOT_BYTES, 0),
            "{stats:?}"
        );
        let _ = std::fs::remove_dir_all(store.dir());
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
