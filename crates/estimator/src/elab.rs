//! Memoized scenario elaboration: flatten once per SP point, serve many
//! scenarios.
//!
//! Flattening the per-rank op lists dominates *both* evaluation
//! backends during SP sweeps (`bench_analytic`): the compile-once
//! `Session` does not pay check + transform per scenario, but would
//! still pay an O(scenarios) elaboration tax. This module removes it.
//!
//! Elaboration is a pure function of `(Program, SystemParams,
//! CommParams, FlattenLimits, ElabForm)`. It never reads the backend,
//! and it reads the trace flag only through the [`ElabForm`]: a traced
//! simulation needs the `Enter`/`Exit` markers, every other evaluation
//! (analytic, untraced DES, sweeps, optimize, the service) takes the
//! lean form without them. R untraced sweeps over S SP points on both
//! backends therefore have S distinct elaborations, not S×R×2.
//! [`ElaborationCache`] memoizes them:
//!
//! * **Keying.** `ElabKey` is a content key over the machine model,
//!   limits and form: the SP quadruple, the five communication
//!   parameters (by f64 bit pattern — collective expansion bakes
//!   `machine.comm` costs into `Wait` ops), both flatten limits (two
//!   scenarios with different limits may elaborate differently) and the
//!   [`ElabForm`]. The *program* is NOT part of the key: one cache
//!   serves exactly one compiled program, the invariant `Session`
//!   maintains by owning its cache privately.
//! * **Storage.** Each entry holds one [`RankOps`]: an
//!   `Arc<[Arc<[PrimOp]>]>` — one shared op list per rank. Both backends
//!   borrow these lists; nothing is cloned per evaluation. The first
//!   analytic evaluation of a lean entry also stores the
//!   [`BatchProgram`] compiled from it, which every later analytic
//!   evaluation replays.
//! * **Concurrency.** Sharded, insert-only, lock-free index: each shard
//!   is an atomic singly-linked list pushed with compare-exchange
//!   (losers rescan, so a key is interned exactly once), and each
//!   entry's value is a [`OnceLock`] — the first worker to need an SP
//!   point elaborates it while any concurrent worker for the *same*
//!   point waits on the `OnceLock` instead of flattening again. Workers
//!   for different points never contend.
//! * **Invalidation.** None, by construction: entries are immutable and
//!   the inputs are content-hashed, so a cache can never serve an op
//!   list that doesn't match its key. A *different* program requires a
//!   different cache (a new `Session`).
//! * **Memory bounds.** The cache holds at most `capacity` entries
//!   (default [`DEFAULT_CAPACITY`]); once full, new keys bypass the
//!   cache — they flatten uncached and are dropped after use, counted
//!   in [`ElabStats::bypasses`]. Each entry's size is the flattened
//!   model itself (bounded per rank by [`FlattenLimits::max_ops`]), so
//!   capacity bounds entry *count*; callers sweeping enormous grids of
//!   enormous models can lower it or disable caching entirely
//!   (`SweepConfig::no_elab_cache` / `--no-elab-cache`).
//!
//! Failed elaborations are cached too: a key whose flatten fails serves
//! the same [`FlattenError`] to every scenario that hits it, without
//! re-walking the program. Both forms fail with the same error, because
//! the lean form still counts its omitted markers toward `max_ops`.
//!
//! The persistent store sees lean entries only: [`ElaborationCache::snapshot`]
//! exports them and [`ElaborationCache::seed`] seeds them.

use crate::batch::BatchProgram;
use crate::estimator::EstimatorError;
use crate::flatten::{flatten_rank, ElabForm, FlattenError, FlattenLimits, PrimOp};
use crate::program::Program;
use prophet_machine::{CommParams, MachineModel, SystemParams};
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The elaboration of one scenario: one shared op list per MPI rank.
pub type RankOps = Arc<[Arc<[PrimOp]>]>;

/// Elaborate every rank of `program` on `machine`, uncached, in the
/// traced form: [`elaborate`] with [`ElabForm::Traced`].
pub fn flatten_all(
    program: &Program,
    machine: &MachineModel,
    limits: FlattenLimits,
) -> Result<RankOps, FlattenError> {
    elaborate(program, machine, limits, ElabForm::Traced)
}

/// Elaborate every rank of `program` on `machine` in `form`, uncached.
///
/// The scenario-independent elaboration pass both backends consume;
/// [`ElaborationCache::get_or_flatten_form`] memoizes it per SP point.
/// It evaluates over the program's resolved names
/// ([`Program::resolve`]); the rank-independent frame is built once and
/// copied per rank.
pub fn elaborate(
    program: &Program,
    machine: &MachineModel,
    limits: FlattenLimits,
    form: ElabForm,
) -> Result<RankOps, FlattenError> {
    let resolved = program.resolve();
    let base = resolved.base_frame(machine);
    let mut ranks: Vec<Arc<[PrimOp]>> = Vec::with_capacity(machine.sp.processes);
    for pid in 0..machine.sp.processes {
        ranks.push(flatten_rank(resolved, machine, &base, pid, limits, form)?.into());
    }
    Ok(ranks.into())
}

/// Content key of one elaboration: everything [`elaborate`] reads
/// besides the program itself.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ElabKey {
    nodes: usize,
    cpus_per_node: usize,
    processes: usize,
    threads_per_process: usize,
    /// The five [`prophet_machine::CommParams`] fields by bit pattern.
    comm_bits: [u64; 5],
    limits: FlattenLimits,
    form: ElabForm,
}

impl ElabKey {
    fn new(machine: &MachineModel, limits: FlattenLimits, form: ElabForm) -> Self {
        Self::from_parts(machine.sp, machine.comm.params, limits, form)
    }

    /// Key from raw scenario parts (what [`ElaborationCache::seed`] and
    /// the persisted-artifact store work with — no `MachineModel`
    /// construction, hence no SP validation, on the load path).
    fn from_parts(sp: SystemParams, c: CommParams, limits: FlattenLimits, form: ElabForm) -> Self {
        Self {
            nodes: sp.nodes,
            cpus_per_node: sp.cpus_per_node,
            processes: sp.processes,
            threads_per_process: sp.threads_per_process,
            comm_bits: [
                c.intra_latency.to_bits(),
                c.intra_bandwidth.to_bits(),
                c.inter_latency.to_bits(),
                c.inter_bandwidth.to_bits(),
                c.send_overhead.to_bits(),
            ],
            limits,
            form,
        }
    }

    /// The system parameters this key was built from.
    fn sp(&self) -> SystemParams {
        SystemParams {
            nodes: self.nodes,
            cpus_per_node: self.cpus_per_node,
            processes: self.processes,
            threads_per_process: self.threads_per_process,
        }
    }

    /// The communication parameters this key was built from
    /// (bit-exact: the key stores the raw f64 bit patterns).
    fn comm(&self) -> CommParams {
        CommParams {
            intra_latency: f64::from_bits(self.comm_bits[0]),
            intra_bandwidth: f64::from_bits(self.comm_bits[1]),
            inter_latency: f64::from_bits(self.comm_bits[2]),
            inter_bandwidth: f64::from_bits(self.comm_bits[3]),
            send_overhead: f64::from_bits(self.comm_bits[4]),
        }
    }

    /// FNV-1a content hash (stable; shard + bucket selector).
    fn hash(&self) -> u64 {
        let mut h = crate::flatten::Fnv::new();
        h.word(self.nodes as u64);
        h.word(self.cpus_per_node as u64);
        h.word(self.processes as u64);
        h.word(self.threads_per_process as u64);
        for bits in self.comm_bits {
            h.word(bits);
        }
        h.word(self.limits.max_ops as u64);
        h.word(self.limits.max_loop_iterations);
        h.word(self.form as u64);
        h.finish()
    }
}

/// One interned key: the value slot fills exactly once.
struct Node {
    hash: u64,
    key: ElabKey,
    slot: OnceLock<Result<RankOps, FlattenError>>,
    /// The entry's elaboration compiled for batch analytic evaluation,
    /// built on first [`ElaborationCache::get_or_flatten_batched`].
    /// Simulation-only sessions never pay for it.
    batch: OnceLock<Arc<BatchProgram>>,
    /// Immutable after publication (set before the CAS that links it).
    next: *mut Node,
}

struct Shard {
    head: AtomicPtr<Node>,
}

/// Shard count: enough to keep concurrent sweep workers on distinct SP
/// points from touching the same list head.
const SHARDS: usize = 16;

/// Default entry capacity of [`ElaborationCache::new`].
pub const DEFAULT_CAPACITY: usize = 1024;

/// Counter snapshot of an [`ElaborationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElabStats {
    /// Lookups served from an already-elaborated entry.
    pub hits: u64,
    /// Lookups that elaborated and stored a new entry (== the number of
    /// elaborations the cache performed, one per distinct key).
    pub misses: u64,
    /// Lookups that flattened uncached because the cache was at
    /// capacity.
    pub bypasses: u64,
}

impl ElabStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Elaborations performed (cache-filling misses + capacity
    /// bypasses). In a cached sweep this is the flatten count.
    pub fn flattens(&self) -> u64 {
        self.misses + self.bypasses
    }
}

/// One successful lean elaboration, exported by
/// [`ElaborationCache::snapshot`] and re-imported by
/// [`ElaborationCache::seed`] — the unit the persistent artifact store
/// (`prophet_core::store`) serializes so a warm-started session
/// re-serves its op lists without re-flattening.
#[derive(Debug, Clone)]
pub struct ElabEntry {
    /// System parameters of the elaborated scenario.
    pub sp: SystemParams,
    /// Communication parameters (bit-exact through snapshot→seed).
    pub comm: CommParams,
    /// The flatten limits the elaboration ran under.
    pub limits: FlattenLimits,
    /// The per-rank op lists, in the [`ElabForm::Lean`] form.
    pub ops: RankOps,
}

impl ElabEntry {
    /// Total primitive-op count across all ranks (top level only; a
    /// size proxy the store uses for its "persist where cheap" bound).
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(|rank| rank.len()).sum()
    }
}

/// SP-keyed memoization of [`elaborate`] for one compiled program.
///
/// See the [module docs](self) for keying, invalidation, concurrency and
/// memory-bound details. Shareable by reference across sweep worker
/// threads; `prophet_core::Session` owns one per compiled model.
pub struct ElaborationCache {
    shards: [Shard; SHARDS],
    entries: AtomicUsize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
}

// The cache is auto-`Send`/`Sync` (its fields are atomics and plain
// data), but `AtomicPtr` erases the shared `Node` payload from the
// compiler's view: soundness additionally requires that everything a
// published `&Node` exposes is itself thread-safe. Assert that here so
// a future non-`Sync` ingredient (an `Rc`/`Cell` inside `PrimOp`,
// `FlattenError`, …) becomes a compile error instead of a data race.
// The remaining manual invariants are structural: nodes are only ever
// appended (`next` is immutable after the publishing CAS), values fill
// through a `OnceLock`, and no node is freed before the cache drops.
const _: () = {
    const fn thread_safe<T: Send + Sync>() {}
    thread_safe::<ElabKey>();
    thread_safe::<RankOps>();
    thread_safe::<FlattenError>();
    thread_safe::<OnceLock<Result<RankOps, FlattenError>>>();
    thread_safe::<OnceLock<Arc<BatchProgram>>>();
    thread_safe::<ElaborationCache>();
};

impl Default for ElaborationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ElaborationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElaborationCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ElaborationCache {
    /// An empty cache with the [`DEFAULT_CAPACITY`] entry bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` entries; keys beyond the
    /// bound flatten uncached ([`ElabStats::bypasses`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard {
                head: AtomicPtr::new(std::ptr::null_mut()),
            }),
            entries: AtomicUsize::new(0),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// The lean elaboration for `(machine, limits)`:
    /// [`ElaborationCache::get_or_flatten_form`] with [`ElabForm::Lean`],
    /// the form every untraced evaluation replays.
    ///
    /// # Errors
    /// The (cached) [`FlattenError`] when elaboration fails.
    pub fn get_or_flatten(
        &self,
        program: &Program,
        machine: &MachineModel,
        limits: FlattenLimits,
    ) -> Result<RankOps, FlattenError> {
        self.get_or_flatten_form(program, machine, limits, ElabForm::Lean)
    }

    /// The elaboration for `(machine, limits, form)`, flattening
    /// `program` at most once per distinct key — concurrent callers for
    /// the same key wait for the first elaboration instead of repeating
    /// it.
    ///
    /// The caller must pass the same `program` on every call (the
    /// program is deliberately not part of the key; see module docs).
    ///
    /// # Errors
    /// The (cached) [`FlattenError`] when elaboration fails.
    pub fn get_or_flatten_form(
        &self,
        program: &Program,
        machine: &MachineModel,
        limits: FlattenLimits,
        form: ElabForm,
    ) -> Result<RankOps, FlattenError> {
        self.lookup(program, machine, limits, form).1
    }

    /// [`ElaborationCache::get_or_flatten`], additionally serving the
    /// entry's [`BatchProgram`] — the lean elaboration compiled for batch
    /// analytic evaluation, built once per entry and shared across
    /// sweep workers like the op lists themselves (two workers that
    /// miss the same fresh entry at once may both prepare it; the first
    /// stored program wins). A lookup that bypassed the cache at
    /// capacity prepares a throwaway program. Counts
    /// hits/misses/bypasses exactly like
    /// [`ElaborationCache::get_or_flatten`].
    ///
    /// # Errors
    /// The (cached) elaboration failure, or the
    /// [`BatchProgram::prepare`] size guard.
    pub fn get_or_flatten_batched(
        &self,
        program: &Program,
        machine: &MachineModel,
        limits: FlattenLimits,
    ) -> Result<(RankOps, Arc<BatchProgram>), EstimatorError> {
        let (node, ops) = self.lookup(program, machine, limits, ElabForm::Lean);
        let ops = ops?;
        if let Some(batch) = node.and_then(|node| node.batch.get()) {
            return Ok((ops, Arc::clone(batch)));
        }
        let batch = Arc::new(BatchProgram::prepare(&ops, machine)?);
        let batch = match node {
            Some(node) => Arc::clone(node.batch.get_or_init(|| batch)),
            None => batch,
        };
        Ok((ops, batch))
    }

    /// The lookup the getters share: the interned node (`None` when the
    /// cache is at capacity and the key bypassed it) and the
    /// elaboration, counted as a hit, a miss or a bypass.
    fn lookup(
        &self,
        program: &Program,
        machine: &MachineModel,
        limits: FlattenLimits,
        form: ElabForm,
    ) -> (Option<&Node>, Result<RankOps, FlattenError>) {
        let key = ElabKey::new(machine, limits, form);
        let hash = key.hash();
        let Some(node) = self.intern(key, hash) else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return (None, elaborate(program, machine, limits, form));
        };
        let mut filled = false;
        let result = node.slot.get_or_init(|| {
            filled = true;
            elaborate(program, machine, limits, form)
        });
        if filled {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (Some(node), result.clone())
    }

    /// Pre-fill the lean entry for `(sp, comm, limits)` with a lean
    /// elaboration computed elsewhere (a prior process run, via the persistent
    /// artifact store). Seeding is not a lookup: it touches no hit/miss
    /// counter, so a seeded entry's first `get_or_flatten` is a plain
    /// hit. Returns `false` when the cache is at capacity (the seed is
    /// dropped) — an already-present entry is left untouched and counts
    /// as seeded.
    ///
    /// The caller must only seed lean op lists that were flattened from
    /// the same program this cache serves; the store guarantees that by
    /// keying artifacts on the model content digest and its format
    /// version.
    pub fn seed(
        &self,
        sp: SystemParams,
        comm: CommParams,
        limits: FlattenLimits,
        ops: RankOps,
    ) -> bool {
        let key = ElabKey::from_parts(sp, comm, limits, ElabForm::Lean);
        let hash = key.hash();
        let Some(node) = self.intern(key, hash) else {
            return false;
        };
        // First writer wins; racing a concurrent flatten (or an earlier
        // seed) of the same key is benign — both values are correct.
        let _ = node.slot.set(Ok(ops));
        true
    }

    /// Every successfully elaborated lean entry currently interned, in
    /// deterministic `(SP, comm, limits)` order. Traced entries are
    /// not exported (only traced simulations use them, and they are
    /// the larger form). Failed elaborations
    /// are not exported (a seeded cache should re-diagnose them
    /// freshly), and unfilled entries (a concurrent flatten still in
    /// flight) are skipped rather than waited for.
    pub fn snapshot(&self) -> Vec<ElabEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut cur = shard.head.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: published nodes live until the cache drops.
                let node = unsafe { &*cur };
                if let (ElabForm::Lean, Some(Ok(ops))) = (node.key.form, node.slot.get()) {
                    out.push(ElabEntry {
                        sp: node.key.sp(),
                        comm: node.key.comm(),
                        limits: node.key.limits,
                        ops: ops.clone(),
                    });
                }
                cur = node.next;
            }
        }
        out.sort_by_key(|e| {
            (
                [
                    e.sp.nodes as u64,
                    e.sp.cpus_per_node as u64,
                    e.sp.processes as u64,
                    e.sp.threads_per_process as u64,
                ],
                [
                    e.comm.intra_latency.to_bits(),
                    e.comm.intra_bandwidth.to_bits(),
                    e.comm.inter_latency.to_bits(),
                    e.comm.inter_bandwidth.to_bits(),
                    e.comm.send_overhead.to_bits(),
                ],
                e.limits.max_ops,
                e.limits.max_loop_iterations,
            )
        });
        out
    }

    /// Counter snapshot (hits / misses / bypasses so far).
    pub fn stats(&self) -> ElabStats {
        ElabStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Interned entries so far.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether no entry has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Atomically claim one of the `capacity` entry slots; the claim is
    /// either consumed by a successful insert or returned with
    /// `fetch_sub`. Reserving *before* publishing keeps the bound hard
    /// under concurrency (a plain load-then-insert would let two
    /// threads racing past the same count both publish).
    fn reserve_entry(&self) -> bool {
        self.entries
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_ok()
    }

    /// Find or insert the node for `key`. Returns `None` when the cache
    /// is at capacity and the key is not already interned.
    fn intern(&self, key: ElabKey, hash: u64) -> Option<&Node> {
        let shard = &self.shards[hash as usize % SHARDS];
        let mut new_node: *mut Node = std::ptr::null_mut();
        let mut reserved = false;
        let found = 'search: loop {
            let head = shard.head.load(Ordering::Acquire);
            let mut cur = head;
            while !cur.is_null() {
                // SAFETY: published nodes live until the cache drops.
                let n = unsafe { &*cur };
                if n.hash == hash && n.key == key {
                    break 'search Some(n);
                }
                cur = n.next;
            }
            // Hold the slot reservation across CAS retries; it is
            // consumed by a successful insert and released below
            // otherwise.
            if !reserved {
                if !self.reserve_entry() {
                    break 'search None;
                }
                reserved = true;
            }
            if new_node.is_null() {
                new_node = Box::into_raw(Box::new(Node {
                    hash,
                    key,
                    slot: OnceLock::new(),
                    batch: OnceLock::new(),
                    next: head,
                }));
            } else {
                // SAFETY: not yet published; we still own it exclusively.
                unsafe { (*new_node).next = head };
            }
            if shard
                .head
                .compare_exchange(head, new_node, Ordering::Release, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: just published; lives until the cache drops.
                return Some(unsafe { &*new_node });
            }
            // CAS lost: another key (or this one) was pushed — rescan.
        };
        // Not inserted: lost to an identical key, or at capacity.
        if !new_node.is_null() {
            // SAFETY: new_node was never published.
            drop(unsafe { Box::from_raw(new_node) });
        }
        if reserved {
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        found
    }
}

impl Drop for ElaborationCache {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let mut cur = *shard.head.get_mut();
            while !cur.is_null() {
                // SAFETY: exclusive access in Drop; each node was leaked
                // from exactly one Box at publication.
                let node = unsafe { Box::from_raw(cur) };
                cur = node.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;
    use prophet_expr::parse_expression;
    use prophet_machine::{CommParams, SystemParams};

    fn machine(p: usize) -> MachineModel {
        MachineModel::new(SystemParams::flat_mpi(p, 1), CommParams::default()).unwrap()
    }

    fn program() -> Program {
        let mut p = Program::new("t");
        p.body = Step::Exec {
            name: "A".into(),
            cost: Some(parse_expression("1 + pid").unwrap()),
            code: vec![],
        };
        p
    }

    /// `ops` without its `Enter`/`Exit` markers, inside thread arms too.
    fn strip_markers(ops: &[PrimOp]) -> Vec<PrimOp> {
        ops.iter()
            .filter(|op| !matches!(op, PrimOp::Enter(_) | PrimOp::Exit(_)))
            .map(|op| match op {
                PrimOp::Threads { element, arms } => PrimOp::Threads {
                    element: element.clone(),
                    arms: arms.iter().map(|arm| strip_markers(arm)).collect(),
                },
                other => other.clone(),
            })
            .collect()
    }

    #[test]
    fn cached_matches_uncached() {
        // A thread team puts markers inside arms, where the lean form
        // must drop them too.
        let mut p = program();
        p.body = Step::Seq(vec![
            p.body.clone(),
            Step::ParallelRegion {
                name: "R".into(),
                threads: Some(parse_expression("2").unwrap()),
                body: Box::new(p.body.clone()),
            },
        ]);
        let cache = ElaborationCache::new();
        for procs in [1, 2, 4] {
            let m = machine(procs);
            let limits = FlattenLimits::default();
            let fresh = flatten_all(&p, &m, limits).unwrap();
            let lean = cache.get_or_flatten(&p, &m, limits).unwrap();
            let traced = cache
                .get_or_flatten_form(&p, &m, limits, ElabForm::Traced)
                .unwrap();
            assert_eq!(lean.len(), fresh.len());
            assert_eq!(traced.len(), fresh.len());
            for ((l, t), f) in lean.iter().zip(traced.iter()).zip(fresh.iter()) {
                assert!(f.iter().any(|op| matches!(op, PrimOp::Enter(_))));
                assert_eq!(&l[..], &strip_markers(f)[..]);
                assert_eq!(&t[..], &f[..]);
            }
            // The two forms are distinct entries, and lean is the default.
            assert!(!Arc::ptr_eq(&lean, &traced));
            assert!(Arc::ptr_eq(
                &lean,
                &cache
                    .get_or_flatten_form(&p, &m, limits, ElabForm::Lean)
                    .unwrap()
            ));
        }
        assert_eq!(cache.stats().misses, 6);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn repeated_lookups_hit_and_share() {
        let cache = ElaborationCache::new();
        let p = program();
        let m = machine(2);
        let a = cache
            .get_or_flatten(&p, &m, FlattenLimits::default())
            .unwrap();
        let b = cache
            .get_or_flatten(&p, &m, FlattenLimits::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits must share the stored Arc");
        assert_eq!(
            cache.stats(),
            ElabStats {
                hits: 1,
                misses: 1,
                bypasses: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ElaborationCache::new();
        let p = program();
        // Same SP, different comm parameters: distinct entries (the
        // collective expansion bakes comm costs into the ops).
        let sp = SystemParams::flat_mpi(2, 1);
        let m1 = MachineModel::new(sp, CommParams::default()).unwrap();
        let m2 = MachineModel::new(sp, CommParams::fast_interconnect()).unwrap();
        cache
            .get_or_flatten(&p, &m1, FlattenLimits::default())
            .unwrap();
        cache
            .get_or_flatten(&p, &m2, FlattenLimits::default())
            .unwrap();
        // Same machine, different limits: distinct entry again.
        let tight = FlattenLimits {
            max_ops: 10,
            ..Default::default()
        };
        cache.get_or_flatten(&p, &m1, tight).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn capacity_bypasses_instead_of_evicting() {
        let cache = ElaborationCache::with_capacity(1);
        let p = program();
        cache
            .get_or_flatten(&p, &machine(1), FlattenLimits::default())
            .unwrap();
        // New key: over capacity → uncached flatten, no new entry.
        cache
            .get_or_flatten(&p, &machine(2), FlattenLimits::default())
            .unwrap();
        // Existing key still hits.
        cache
            .get_or_flatten(&p, &machine(1), FlattenLimits::default())
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats(),
            ElabStats {
                hits: 1,
                misses: 1,
                bypasses: 1
            }
        );
    }

    #[test]
    fn errors_are_cached_per_key() {
        let mut p = Program::new("bad");
        p.body = Step::Loop {
            name: "L".into(),
            count: parse_expression("100").unwrap(),
            var: None,
            body: Box::new(Step::Exec {
                name: "A".into(),
                cost: None,
                code: vec![],
            }),
        };
        let limits = FlattenLimits {
            max_loop_iterations: 5,
            ..Default::default()
        };
        let cache = ElaborationCache::new();
        let m = machine(1);
        let e1 = cache.get_or_flatten(&p, &m, limits).unwrap_err();
        let e2 = cache.get_or_flatten(&p, &m, limits).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(
            cache.stats(),
            ElabStats {
                hits: 1,
                misses: 1,
                bypasses: 0
            }
        );
    }

    #[test]
    fn concurrent_same_key_flattens_exactly_once() {
        let cache = ElaborationCache::new();
        let p = program();
        let m = machine(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache
                        .get_or_flatten(&p, &m, FlattenLimits::default())
                        .unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 7, "{stats:?}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_is_hard_under_concurrency() {
        // 16 threads race distinct keys into a 4-entry cache: the slot
        // reservation must keep the bound exact, not approximate.
        let cache = ElaborationCache::with_capacity(4);
        let p = program();
        std::thread::scope(|scope| {
            for procs in 1..=16usize {
                let cache = &cache;
                let p = &p;
                scope.spawn(move || {
                    cache
                        .get_or_flatten(p, &machine(procs), FlattenLimits::default())
                        .unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert!(cache.len() <= 4, "{} entries", cache.len());
        assert_eq!(stats.misses as usize, cache.len(), "{stats:?}");
        assert_eq!(stats.misses + stats.bypasses, 16, "{stats:?}");
    }

    #[test]
    fn snapshot_roundtrips_through_seed() {
        let cache = ElaborationCache::new();
        let p = program();
        for procs in [1, 2, 4] {
            for form in [ElabForm::Lean, ElabForm::Traced] {
                cache
                    .get_or_flatten_form(&p, &machine(procs), FlattenLimits::default(), form)
                    .unwrap();
            }
        }
        // Lean entries only: the traced ones stay in memory.
        let entries = cache.snapshot();
        assert_eq!(entries.len(), 3);
        assert_eq!(cache.len(), 6);
        // Deterministic order regardless of shard layout.
        let procs: Vec<usize> = entries.iter().map(|e| e.sp.processes).collect();
        assert_eq!(procs, vec![1, 2, 4]);

        // Seed a fresh cache: every subsequent lookup is a pure hit and
        // serves the seeded Arc (no re-flatten).
        let seeded = ElaborationCache::new();
        for e in &entries {
            assert!(seeded.seed(e.sp, e.comm, e.limits, e.ops.clone()));
        }
        assert_eq!(
            seeded.stats(),
            ElabStats::default(),
            "seeding is not a lookup"
        );
        for e in &entries {
            let m = MachineModel::new(e.sp, e.comm).unwrap();
            let got = seeded.get_or_flatten(&p, &m, e.limits).unwrap();
            assert!(
                Arc::ptr_eq(&got, &e.ops),
                "seeded entry must be served as-is"
            );
        }
        assert_eq!(seeded.stats().hits, 3);
        assert_eq!(seeded.stats().misses, 0);
    }

    #[test]
    fn snapshot_skips_failed_elaborations() {
        let mut p = Program::new("bad");
        p.body = Step::Loop {
            name: "L".into(),
            count: parse_expression("100").unwrap(),
            var: None,
            body: Box::new(Step::Exec {
                name: "A".into(),
                cost: None,
                code: vec![],
            }),
        };
        let limits = FlattenLimits {
            max_loop_iterations: 5,
            ..Default::default()
        };
        let cache = ElaborationCache::new();
        cache.get_or_flatten(&p, &machine(1), limits).unwrap_err();
        assert!(cache.snapshot().is_empty());
    }

    #[test]
    fn seed_respects_capacity() {
        let cache = ElaborationCache::with_capacity(1);
        let p = program();
        let entry = {
            let scratch = ElaborationCache::new();
            scratch
                .get_or_flatten(&p, &machine(1), FlattenLimits::default())
                .unwrap();
            scratch.snapshot().remove(0)
        };
        assert!(cache.seed(entry.sp, entry.comm, entry.limits, entry.ops.clone()));
        // A second, distinct seed bounces off the 1-entry bound.
        let other = {
            let scratch = ElaborationCache::new();
            scratch
                .get_or_flatten(&p, &machine(2), FlattenLimits::default())
                .unwrap();
            scratch.snapshot().remove(0)
        };
        assert!(!cache.seed(other.sp, other.comm, other.limits, other.ops));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_distinct_keys_all_interned() {
        let cache = ElaborationCache::new();
        let p = program();
        std::thread::scope(|scope| {
            for procs in 1..=8usize {
                let cache = &cache;
                let p = &p;
                scope.spawn(move || {
                    let m = machine(procs);
                    for _ in 0..4 {
                        cache
                            .get_or_flatten(p, &m, FlattenLimits::default())
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(cache.len(), 8);
        assert_eq!(stats.misses, 8, "{stats:?}");
        assert_eq!(stats.hits, 24, "{stats:?}");
    }
}
