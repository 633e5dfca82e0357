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
//! * **Storage.** Each entry holds one [`RankOps`]: a shared
//!   [`Elaboration`] — one op list per rank, each rank's lock count, and
//!   the program's [`ElementNames`] the ops' ids index. Both backends
//!   borrow these lists; nothing is cloned per evaluation, and ops are
//!   plain data, so no evaluation writes a shared counter per op. The first
//!   analytic evaluation of a lean entry also stores the
//!   [`BatchProgram`] compiled from it, which every later analytic
//!   evaluation replays.
//! * **Concurrency.** One `Mutex<HashMap>` index from key to a shared
//!   entry, locked only to find or insert the entry — never while
//!   elaborating. Each entry's value is a [`OnceLock`]: the first worker
//!   to need an SP point elaborates it outside the lock while any
//!   concurrent worker for the *same* point waits on the `OnceLock`
//!   instead of flattening again. Workers for different points never
//!   wait on each other's elaboration.
//! * **Invalidation.** None, by construction: entries are immutable and
//!   the inputs are content-hashed, so a cache can never serve an op
//!   list that doesn't match its key. A *different* program requires a
//!   different cache (a new `Session`).
//! * **Memory bounds.** The cache holds at most 1024 entries; once
//!   full, new keys bypass the cache — they flatten uncached and are
//!   dropped after use, counted in [`ElabStats::bypasses`]. The bound is
//!   checked under the index lock, so it is exact under concurrency.
//!   Each entry's size is the flattened model itself (bounded per rank
//!   by [`FlattenLimits::max_ops`]), so the bound caps entry *count*.
//!   The cache also counts the bytes it retains
//!   ([`ElaborationCache::retained_bytes`]): each entry adds its ops'
//!   bytes once when its slot fills, and its
//!   [`BatchProgram`]'s arrays once when that is stored. Entries are
//!   immutable, so the count is exact; the session pool evicts whole
//!   sessions by it.
//!
//! Failed elaborations are cached too: a key whose flatten fails serves
//! the same [`FlattenError`] to every scenario that hits it, without
//! re-walking the program. Both forms fail with the same error, because
//! the lean form still counts its omitted markers toward `max_ops`.

use crate::batch::BatchProgram;
use crate::estimator::EstimatorError;
use crate::flatten::{flatten_rank, ElabForm, FlattenError, FlattenLimits, PrimOp};
use crate::names::ElementNames;
use crate::program::Program;
use prophet_machine::MachineModel;
use std::collections::{hash_map, HashMap};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The elaboration of one scenario, shared by every evaluation of it.
pub type RankOps = Arc<Elaboration>;

/// The elaboration of one scenario: one op list per MPI rank (it
/// dereferences to the slice of them), the program's element names the
/// ops' ids index, and how many locks each rank takes.
///
/// A thread arm holds no `Threads` op: the flattener rejects nested
/// teams, and so does [`Elaboration::new`] for op lists built elsewhere,
/// so every backend replays teams one level deep.
#[derive(Debug)]
pub struct Elaboration {
    ranks: Box<[Box<[PrimOp]>]>,
    locks: Box<[usize]>,
    names: Arc<ElementNames>,
    /// Ops across all ranks, thread-arm ops included.
    ops: usize,
}

impl Elaboration {
    /// The elaboration of `ranks`, whose ids index `names`. Counts each
    /// rank's locks and ops once, here. A `Threads` op inside a thread
    /// arm is a [`FlattenError::NestedParallel`], as it is when
    /// flattening.
    pub fn new(names: Arc<ElementNames>, ranks: Vec<Vec<PrimOp>>) -> Result<Self, FlattenError> {
        let mut ops = 0;
        let locks = ranks
            .iter()
            .map(|rank| {
                let (locks, count) = scan_rank(&names, rank)?;
                ops += count;
                Ok(locks)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            ranks: ranks.into_iter().map(Vec::into_boxed_slice).collect(),
            locks,
            names,
            ops,
        })
    }

    /// Bytes of the ops, thread-arm ops included: what an
    /// [`ElaborationCache`] entry retains.
    pub fn bytes(&self) -> usize {
        self.ops * std::mem::size_of::<PrimOp>()
    }

    /// The element names the ops' ids index.
    pub fn names(&self) -> &ElementNames {
        &self.names
    }

    /// Number of distinct `<<critical+>>` locks rank `pid` takes (thread
    /// arms included).
    pub fn lock_count(&self, pid: usize) -> usize {
        self.locks[pid]
    }
}

impl Deref for Elaboration {
    type Target = [Box<[PrimOp]>];

    fn deref(&self) -> &Self::Target {
        &self.ranks
    }
}

/// Number of distinct locks `ops` take and number of ops, thread arms
/// included; an error if an arm holds a team.
fn scan_rank(names: &ElementNames, ops: &[PrimOp]) -> Result<(usize, usize), FlattenError> {
    let mut max = 0;
    let mut count = 0;
    let mut note = |op: &PrimOp| {
        count += 1;
        if let PrimOp::Lock(id) | PrimOp::Unlock(id) = op {
            max = max.max(id + 1);
        }
    };
    for op in ops {
        note(op);
        if let PrimOp::Threads { arms, .. } = op {
            for op in arms.iter().flatten() {
                if let PrimOp::Threads { element, .. } = op {
                    return Err(FlattenError::NestedParallel {
                        element: names.name(*element).to_string(),
                    });
                }
                note(op);
            }
        }
    }
    Ok((max, count))
}

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
/// copied per rank. SPMD ranks elaborate to lists of similar length, so
/// each rank's list starts at its predecessor's length.
pub fn elaborate(
    program: &Program,
    machine: &MachineModel,
    limits: FlattenLimits,
    form: ElabForm,
) -> Result<RankOps, FlattenError> {
    let resolved = program.resolve();
    let base = resolved.base_frame(machine);
    let processes = machine.sp.processes;
    let mut ranks = Vec::with_capacity(processes);
    let mut capacity = 0;
    for pid in 0..processes {
        let ops = flatten_rank(resolved, machine, &base, pid, limits, form, capacity)?;
        capacity = ops.len();
        ranks.push(ops);
    }
    Elaboration::new(Arc::clone(&resolved.names), ranks).map(Arc::new)
}

/// Content key of one elaboration: everything [`elaborate`] reads
/// besides the program itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
        let (sp, c) = (machine.sp, machine.comm.params);
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
}

/// One cached key: the value slot fills exactly once.
#[derive(Default)]
struct Entry {
    slot: OnceLock<Result<RankOps, FlattenError>>,
    /// The entry's elaboration compiled for batch analytic evaluation,
    /// built on first [`ElaborationCache::get_or_flatten_batched`].
    /// Simulation-only sessions never pay for it.
    batch: OnceLock<Arc<BatchProgram>>,
}

/// Entry bound of every [`ElaborationCache`].
const CAPACITY: usize = 1024;

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

impl std::ops::AddAssign for ElabStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
    }
}

impl ElabStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }
}

/// SP-keyed memoization of [`elaborate`] for one compiled program.
///
/// See the [module docs](self) for keying, invalidation, concurrency and
/// memory-bound details. Shareable by reference across sweep worker
/// threads; `prophet_core::Session` owns one per compiled model.
#[derive(Default)]
pub struct ElaborationCache {
    index: Mutex<HashMap<ElabKey, Arc<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    /// Bytes of every filled entry and stored batch program.
    bytes: AtomicUsize,
}

impl fmt::Debug for ElaborationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElaborationCache")
            .field("entries", &self.len())
            .field("bytes", &self.retained_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ElaborationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
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
        let (entry, ops) = self.lookup(program, machine, limits, ElabForm::Lean);
        let ops = ops?;
        if let Some(batch) = entry.as_ref().and_then(|entry| entry.batch.get()) {
            return Ok((ops, Arc::clone(batch)));
        }
        let batch = Arc::new(BatchProgram::prepare(&ops, machine)?);
        let batch = match entry {
            Some(entry) => {
                let mut stored = false;
                let kept = entry.batch.get_or_init(|| {
                    stored = true;
                    batch
                });
                if stored {
                    self.bytes.fetch_add(kept.bytes(), Ordering::Relaxed);
                }
                Arc::clone(kept)
            }
            None => batch,
        };
        Ok((ops, batch))
    }

    /// The lookup the getters share: the cached entry (`None` when the
    /// cache is at capacity and the key bypassed it) and the
    /// elaboration, counted as a hit, a miss or a bypass.
    fn lookup(
        &self,
        program: &Program,
        machine: &MachineModel,
        limits: FlattenLimits,
        form: ElabForm,
    ) -> (Option<Arc<Entry>>, Result<RankOps, FlattenError>) {
        let Some(entry) = self.entry(ElabKey::new(machine, limits, form)) else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return (None, elaborate(program, machine, limits, form));
        };
        let mut filled = false;
        let result = entry.slot.get_or_init(|| {
            filled = true;
            elaborate(program, machine, limits, form)
        });
        if filled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Ok(ops) = result {
                self.bytes.fetch_add(ops.bytes(), Ordering::Relaxed);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let result = result.clone();
        (Some(entry), result)
    }

    /// Find or insert the entry for `key`, holding the index lock only
    /// for that. Returns `None` when the cache is at capacity and the
    /// key is not already cached.
    fn entry(&self, key: ElabKey) -> Option<Arc<Entry>> {
        let mut index = self.index.lock().expect("elaboration index lock");
        let len = index.len();
        match index.entry(key) {
            hash_map::Entry::Occupied(found) => Some(Arc::clone(found.get())),
            hash_map::Entry::Vacant(vacant) if len < CAPACITY => {
                Some(Arc::clone(vacant.insert(Arc::default())))
            }
            hash_map::Entry::Vacant(_) => None,
        }
    }

    /// Counter snapshot (hits / misses / bypasses so far).
    pub fn stats(&self) -> ElabStats {
        ElabStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Bytes the cache retains: every filled entry's
    /// [`Elaboration::bytes`] plus every stored
    /// [`BatchProgram::bytes`], each counted once. Failed entries count
    /// nothing.
    pub fn retained_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Cached entries so far.
    pub fn len(&self) -> usize {
        self.index.lock().expect("elaboration index lock").len()
    }

    /// Whether no entry has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
                    element: *element,
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

    /// A one-rank machine whose intra-node latency is `i` ns: a distinct
    /// cache key per `i` over the same one-op elaboration.
    fn keyed(i: usize) -> MachineModel {
        let comm = CommParams {
            intra_latency: i as f64 * 1e-9,
            ..CommParams::default()
        };
        MachineModel::new(SystemParams::flat_mpi(1, 1), comm).unwrap()
    }

    #[test]
    fn capacity_bypasses_instead_of_evicting() {
        let cache = ElaborationCache::new();
        let p = program();
        let limits = FlattenLimits::default();
        for i in 0..CAPACITY {
            cache.get_or_flatten(&p, &keyed(i), limits).unwrap();
        }
        // New key: over capacity → uncached flatten, no new entry.
        cache.get_or_flatten(&p, &keyed(CAPACITY), limits).unwrap();
        // Existing key still hits.
        cache.get_or_flatten(&p, &keyed(0), limits).unwrap();
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(
            cache.stats(),
            ElabStats {
                hits: 1,
                misses: CAPACITY as u64,
                bypasses: 1
            }
        );
    }

    #[test]
    fn retained_bytes_count_each_entry_and_batch_once() {
        let cache = ElaborationCache::new();
        let p = program();
        let m = machine(4);
        let limits = FlattenLimits::default();
        assert_eq!(cache.retained_bytes(), 0);
        let ops = cache.get_or_flatten(&p, &m, limits).unwrap();
        // Four ranks of one `Compute` op each.
        assert_eq!(ops.bytes(), 4 * std::mem::size_of::<PrimOp>());
        cache.get_or_flatten(&p, &m, limits).unwrap();
        assert_eq!(cache.retained_bytes(), ops.bytes(), "a hit adds nothing");
        let (_, batch) = cache.get_or_flatten_batched(&p, &m, limits).unwrap();
        cache.get_or_flatten_batched(&p, &m, limits).unwrap();
        assert!(batch.bytes() > 0);
        assert_eq!(cache.retained_bytes(), ops.bytes() + batch.bytes());

        // A failed elaboration retains no ops.
        let tight = FlattenLimits {
            max_ops: 1,
            ..Default::default()
        };
        cache.get_or_flatten(&p, &m, tight).unwrap_err();
        assert_eq!(cache.retained_bytes(), ops.bytes() + batch.bytes());
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
        // 8 threads race half again as many distinct keys as the cache
        // holds, started together and interleaved so all of them reach
        // the bound at once: it must be exact, not approximate.
        let cache = ElaborationCache::new();
        let p = program();
        let (threads, keys) = (8, CAPACITY + CAPACITY / 2);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (cache, p, start) = (&cache, &p, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in (t..keys).step_by(threads) {
                        cache
                            .get_or_flatten(p, &keyed(i), FlattenLimits::default())
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(stats.misses as usize, CAPACITY, "{stats:?}");
        assert_eq!(stats.misses + stats.bypasses, keys as u64, "{stats:?}");
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

    #[test]
    fn elaborations_count_arm_locks_and_hold_no_nested_teams() {
        let p = program();
        let names = p.resolve().names();
        let a = names.id("A").unwrap();
        let team = |arms| PrimOp::Threads { element: a, arms };
        let flat = vec![
            PrimOp::Lock(0),
            PrimOp::Unlock(0),
            team(vec![vec![PrimOp::Lock(2), PrimOp::Unlock(2)], vec![]]),
        ];
        let e = Elaboration::new(Arc::clone(names), vec![flat, vec![]]).unwrap();
        assert_eq!((e.lock_count(0), e.lock_count(1)), (3, 0));

        let nested = vec![team(vec![vec![team(vec![vec![]])]])];
        let err = Elaboration::new(Arc::clone(names), vec![nested]).unwrap_err();
        assert_eq!(
            err,
            FlattenError::NestedParallel {
                element: "A".into()
            }
        );
    }
}
