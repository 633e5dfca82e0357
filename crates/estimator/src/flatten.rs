//! Per-process elaboration of the Program IR into primitive timed ops.
//!
//! Model state (globals mutated by code fragments, guards, loop counts,
//! cost functions) does not depend on simulated time, so each MPI
//! process's execution can be fully elaborated *before* simulation: the
//! result is a [`PrimOp`] list the simulation process replays. Collective
//! operations are expanded into control messages + an analytic hold (see
//! crate docs).
//!
//! Elaboration comes in two [`ElabForm`]s that differ only in the
//! `Enter`/`Exit` trace markers: the traced form carries them for the
//! trace file, the lean form omits them (also inside thread arms). An
//! omitted marker still counts toward [`FlattenLimits::max_ops`], so
//! both forms fail at the same op with the same error.
//!
//! The flattener walks the program's [`Resolved`] form
//! ([`Program::resolve`]): every expression reads and writes one flat
//! slot frame by index, a rank starts from one copy of the elaboration's
//! base frame, and a thread-team member from one copy of its spawner's.

use crate::program::Program;
use crate::resolve::{Mpi, Node, Resolved};
use prophet_expr::{ExprError, Frame, RExpr, Value};
use prophet_machine::MachineModel;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A primitive timed operation executed by the simulation process.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimOp {
    /// Trace marker: element entered. Element names are shared with the
    /// [`Step`](crate::program::Step) that emitted the op, so cloning an
    /// op never copies one.
    Enter(Arc<str>),
    /// Trace marker: element exited.
    Exit(Arc<str>),
    /// Occupy one CPU of the owning node for `seconds`.
    Compute {
        /// Element name.
        element: Arc<str>,
        /// Service time.
        seconds: f64,
    },
    /// Send `bytes` to rank `dest` (eager; sender pays only overhead).
    SendTo {
        /// Element name.
        element: Arc<str>,
        /// Destination rank.
        dest: usize,
        /// Payload size.
        bytes: u64,
        /// Message tag (user tags ≥ 0; control tags < 0).
        tag: i64,
    },
    /// Receive from rank `src` with tag `tag`; complete at the Hockney
    /// arrival time.
    RecvFrom {
        /// Element name.
        element: Arc<str>,
        /// Expected source rank.
        src: usize,
        /// Expected tag.
        tag: i64,
        /// Transfer bytes (for arrival-time computation; must match the
        /// sender's size in a well-formed model).
        bytes: u64,
    },
    /// Hold (no CPU): used for analytic collective costs.
    Wait {
        /// Element name.
        element: Arc<str>,
        /// Duration.
        seconds: f64,
    },
    /// Run thread-team arms concurrently on the node's CPU facility, then
    /// join. Used for both `<<parallel+>>` regions and UML fork/join.
    Threads {
        /// Element name (trace label).
        element: Arc<str>,
        /// Per-thread op lists.
        arms: Vec<Vec<PrimOp>>,
    },
    /// Acquire the process-local lock with this id (blocks; `<<critical+>>`).
    Lock(usize),
    /// Release a previously acquired lock.
    Unlock(usize),
}

/// Elaboration failure: which node or expression broke, and how.
///
/// Structured (not stringly) so callers can match on the failure class
/// and so the offending element/expression survives into the
/// `prophet_core::Error::source()` chain — [`FlattenError`] sits between
/// `EstimatorError::Flatten` above it and [`ExprError`] below it.
#[derive(Debug, Clone, PartialEq)]
pub enum FlattenError {
    /// An expression or code fragment failed to evaluate. `context`
    /// names the expression's role and owning node (e.g. ``cost of
    /// `A1` ``); the underlying [`ExprError`] is the `source()`.
    Eval {
        /// What was being evaluated, and on which element.
        context: String,
        /// The expression-level failure.
        source: ExprError,
    },
    /// A cost expression evaluated to a negative or non-finite time.
    InvalidTime {
        /// Role + owning element (e.g. ``cost of `A1` ``).
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A loop count evaluated to a negative or non-finite value.
    InvalidCount {
        /// Role + owning element (e.g. ``iterations of `L` ``).
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A `<<loop+>>` unrolls past [`FlattenLimits::max_loop_iterations`].
    LoopLimit {
        /// The loop element.
        element: String,
        /// How many iterations it asked for.
        iterations: u64,
        /// The limit in force.
        limit: u64,
    },
    /// A process elaborated past [`FlattenLimits::max_ops`].
    OpLimit {
        /// The process that overflowed.
        pid: usize,
        /// The limit in force.
        limit: usize,
    },
    /// A rank expression resolved outside `0..processes`.
    RankOutOfRange {
        /// Role + owning element (e.g. ``dest of `s` ``).
        context: String,
        /// The resolved (rounded) rank.
        rank: f64,
        /// The process count in force.
        processes: usize,
    },
    /// A message-size expression resolved to a negative or non-finite
    /// byte count.
    InvalidSize {
        /// Role + owning element (e.g. ``size of `s` ``).
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A thread-team size expression resolved outside `1..=4096`.
    InvalidTeam {
        /// The parallel-region element.
        element: String,
        /// The offending value.
        value: f64,
    },
    /// An MPI element inside a thread team (MPI_THREAD_FUNNELED).
    MpiInThread {
        /// The offending MPI element.
        element: String,
    },
    /// A parallel region or fork nested inside a thread team.
    NestedParallel {
        /// The offending element (empty for an anonymous fork).
        element: String,
    },
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flatten error: ")?;
        match self {
            FlattenError::Eval { context, .. } => {
                write!(f, "cannot evaluate {context}")
            }
            FlattenError::InvalidTime { context, value } => {
                write!(f, "{context} evaluated to invalid time {value}")
            }
            FlattenError::InvalidCount { context, value } => {
                write!(f, "{context} evaluated to invalid count {value}")
            }
            FlattenError::LoopLimit {
                element,
                iterations,
                limit,
            } => write!(
                f,
                "loop `{element}` unrolls to {iterations} iterations (limit {limit})"
            ),
            FlattenError::OpLimit { pid, limit } => write!(
                f,
                "process {pid} exceeds {limit} primitive operations; raise FlattenLimits::max_ops (EstimatorOptions::limits) or simplify the model"
            ),
            FlattenError::RankOutOfRange {
                context,
                rank,
                processes,
            } => write!(f, "{context}: rank {rank} out of range 0..{processes}"),
            FlattenError::InvalidSize { context, value } => {
                write!(f, "{context}: invalid size {value}")
            }
            FlattenError::InvalidTeam { element, value } => write!(
                f,
                "threads of `{element}` evaluated to invalid team size {value}"
            ),
            FlattenError::MpiInThread { element } => write!(
                f,
                "MPI element `{element}` inside a thread team is not supported (MPI_THREAD_FUNNELED)"
            ),
            FlattenError::NestedParallel { element } => {
                if element.is_empty() {
                    write!(f, "nested fork inside a thread team is not supported")
                } else {
                    write!(f, "nested parallel region `{element}` is not supported")
                }
            }
        }
    }
}

impl std::error::Error for FlattenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlattenError::Eval { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Limits guarding runaway elaboration.
///
/// Part of the elaboration-cache key ([`crate::elab::ElaborationCache`]):
/// two scenarios with different limits may elaborate differently (one can
/// fail where the other succeeds), so they never share a cache entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlattenLimits {
    /// Maximum primitive ops per process.
    pub max_ops: usize,
    /// Maximum loop iterations per `<<loop+>>` instance.
    pub max_loop_iterations: u64,
}

impl Default for FlattenLimits {
    fn default() -> Self {
        Self {
            max_ops: 5_000_000,
            max_loop_iterations: 1_000_000,
        }
    }
}

/// Which of elaboration's two forms to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElabForm {
    /// Every op, `Enter`/`Exit` trace markers included: what a traced
    /// simulation replays to write the trace file.
    Traced,
    /// The traced form without its `Enter`/`Exit` markers: what every
    /// untraced evaluation replays.
    Lean,
}

impl ElabForm {
    /// The form an evaluation with trace recording `trace` needs.
    pub fn for_trace(trace: bool) -> Self {
        if trace {
            ElabForm::Traced
        } else {
            ElabForm::Lean
        }
    }
}

/// Process-wide count of per-rank flattens: one per
/// [`flatten_for_process`] call, and one per rank of
/// [`crate::elaborate`] in either form.
///
/// The elaboration analogue of `prophet_core::transform_invocations`:
/// benches and smoke tests assert the flatten-once contract of the
/// elaboration cache against it ("a cached sweep flattens once per SP
/// point"). Unlike the transform counter this one is a process-wide
/// atomic, because sweeps flatten from worker threads.
pub fn flatten_invocations() -> u64 {
    FLATTEN_CALLS.load(Ordering::Relaxed)
}

static FLATTEN_CALLS: AtomicU64 = AtomicU64::new(0);

/// Elaborate `program` for MPI process `pid`, in the traced form.
pub fn flatten_for_process(
    program: &Program,
    machine: &MachineModel,
    pid: usize,
    limits: FlattenLimits,
) -> Result<Vec<PrimOp>, FlattenError> {
    let resolved = program.resolve();
    flatten_rank(
        resolved,
        machine,
        &resolved.base_frame(machine),
        pid,
        limits,
        ElabForm::Traced,
    )
}

/// Elaborate rank `pid` from a [`Resolved::base_frame`] of the same
/// program and machine. Counts one [`flatten_invocations`].
pub(crate) fn flatten_rank(
    resolved: &Resolved,
    machine: &MachineModel,
    base: &Frame,
    pid: usize,
    limits: FlattenLimits,
    form: ElabForm,
) -> Result<Vec<PrimOp>, FlattenError> {
    FLATTEN_CALLS.fetch_add(1, Ordering::Relaxed);
    let mut frame = resolved.rank_frame(base, pid);
    let mut fl = Flattener {
        resolved,
        machine,
        pid,
        limits,
        markers: form == ElabForm::Traced,
        collective_seq: 0,
        ops_emitted: 0,
        locks: Vec::new(),
    };
    let mut out = Vec::new();
    fl.walk(&resolved.body, &mut frame, &mut out, false)?;
    Ok(out)
}

/// Number of distinct locks referenced by an op list (including nested
/// thread arms). The estimator creates one 1-server facility per lock.
pub fn lock_count(ops: &[PrimOp]) -> usize {
    fn scan(ops: &[PrimOp], max: &mut usize) {
        for op in ops {
            match op {
                PrimOp::Lock(id) | PrimOp::Unlock(id) => *max = (*max).max(id + 1),
                PrimOp::Threads { arms, .. } => {
                    for a in arms {
                        scan(a, max);
                    }
                }
                _ => {}
            }
        }
    }
    let mut max = 0;
    scan(ops, &mut max);
    max
}

/// Stable content digest of a flattened op list (FNV-1a over a canonical
/// byte encoding; independent of `std`'s hasher internals).
///
/// Together with the op count this pins the *shape* of an elaboration:
/// golden tests snapshot `(ops.len(), op_digest(&ops))` per rank so a
/// flattener or cache refactor cannot silently reorder, drop, or
/// renumber primitive ops. Every field of every op participates —
/// element names, times (bit-exact), ranks, tags, sizes, lock ids, and
/// nested thread arms (with arm boundaries marked, so moving an op
/// between arms changes the digest).
pub fn op_digest(ops: &[PrimOp]) -> u64 {
    fn s(h: &mut Fnv, v: &str) {
        h.word(v.len() as u64);
        h.bytes(v.as_bytes());
    }
    fn walk(h: &mut Fnv, ops: &[PrimOp]) {
        for op in ops {
            match op {
                PrimOp::Enter(e) => {
                    h.word(1);
                    s(h, e);
                }
                PrimOp::Exit(e) => {
                    h.word(2);
                    s(h, e);
                }
                PrimOp::Compute { element, seconds } => {
                    h.word(3);
                    s(h, element);
                    h.word(seconds.to_bits());
                }
                PrimOp::SendTo {
                    element,
                    dest,
                    bytes: size,
                    tag,
                } => {
                    h.word(4);
                    s(h, element);
                    h.word(*dest as u64);
                    h.word(*size);
                    h.word(*tag as u64);
                }
                PrimOp::RecvFrom {
                    element,
                    src,
                    tag,
                    bytes: size,
                } => {
                    h.word(5);
                    s(h, element);
                    h.word(*src as u64);
                    h.word(*tag as u64);
                    h.word(*size);
                }
                PrimOp::Wait { element, seconds } => {
                    h.word(6);
                    s(h, element);
                    h.word(seconds.to_bits());
                }
                PrimOp::Threads { element, arms } => {
                    h.word(7);
                    s(h, element);
                    h.word(arms.len() as u64);
                    for arm in arms {
                        h.word(8); // arm boundary marker
                        h.word(arm.len() as u64);
                        walk(h, arm);
                    }
                }
                PrimOp::Lock(id) => {
                    h.word(9);
                    h.word(*id as u64);
                }
                PrimOp::Unlock(id) => {
                    h.word(10);
                    h.word(*id as u64);
                }
            }
        }
    }
    let mut h = Fnv::new();
    h.word(ops.len() as u64);
    walk(&mut h, ops);
    h.finish()
}

/// Incremental FNV-1a fold shared by [`op_digest`] and the
/// elaboration-cache key hash ([`crate::elab`]) — one set of constants,
/// one byte order.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Control-message tag space for collectives: tag = COLLECTIVE_BASE - seq.
pub const COLLECTIVE_BASE: i64 = -1_000_000;
/// Tag space for thread-team join notifications.
pub const JOIN_BASE: i64 = -2_000_000;

/// What an expression is evaluated for: its role and owning element.
/// Formatted (``cost of `A1` ``) only when it lands in an error.
#[derive(Clone, Copy)]
struct Context<'a> {
    role: &'static str,
    element: &'a str,
}

impl fmt::Display for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of `{}`", self.role, self.element)
    }
}

fn context<'a>(role: &'static str, element: &'a str) -> Context<'a> {
    Context { role, element }
}

struct Flattener<'a> {
    resolved: &'a Resolved,
    machine: &'a MachineModel,
    pid: usize,
    limits: FlattenLimits,
    /// Whether `Enter`/`Exit` markers are kept ([`ElabForm::Traced`]).
    markers: bool,
    /// Per-process collective sequence number; SPMD programs agree on it.
    collective_seq: i64,
    ops_emitted: usize,
    /// Interned lock names for `<<critical+>>`.
    locks: Vec<&'a str>,
}

impl<'a> Flattener<'a> {
    fn emit(&mut self, out: &mut Vec<PrimOp>, op: PrimOp) -> Result<(), FlattenError> {
        self.count()?;
        out.push(op);
        Ok(())
    }

    /// Emit an `Enter`/`Exit` marker for `name`. The lean form drops it
    /// but still counts it toward `max_ops`, so both forms hit the limit
    /// at the same op.
    fn marker(
        &mut self,
        out: &mut Vec<PrimOp>,
        marker: fn(Arc<str>) -> PrimOp,
        name: &Arc<str>,
    ) -> Result<(), FlattenError> {
        self.count()?;
        if self.markers {
            out.push(marker(name.clone()));
        }
        Ok(())
    }

    /// Count one op toward [`FlattenLimits::max_ops`].
    fn count(&mut self) -> Result<(), FlattenError> {
        self.ops_emitted += 1;
        if self.ops_emitted > self.limits.max_ops {
            return Err(FlattenError::OpLimit {
                pid: self.pid,
                limit: self.limits.max_ops,
            });
        }
        Ok(())
    }

    fn eval_num(
        &self,
        expr: &RExpr,
        frame: &mut Frame,
        what: Context<'_>,
    ) -> Result<f64, FlattenError> {
        self.resolved
            .scope
            .eval(expr, frame)
            .and_then(Value::as_num)
            .map_err(|e| FlattenError::Eval {
                context: what.to_string(),
                source: e,
            })
    }

    fn eval_rank(
        &self,
        expr: &RExpr,
        frame: &mut Frame,
        what: Context<'_>,
    ) -> Result<usize, FlattenError> {
        let v = self.eval_num(expr, frame, what)?;
        let p = self.machine.sp.processes;
        let r = v.round();
        if r < 0.0 || r >= p as f64 {
            return Err(FlattenError::RankOutOfRange {
                context: what.to_string(),
                rank: r,
                processes: p,
            });
        }
        Ok(r as usize)
    }

    fn eval_bytes(
        &self,
        expr: &RExpr,
        frame: &mut Frame,
        what: Context<'_>,
    ) -> Result<u64, FlattenError> {
        let v = self.eval_num(expr, frame, what)?;
        if v < 0.0 || !v.is_finite() {
            return Err(FlattenError::InvalidSize {
                context: what.to_string(),
                value: v,
            });
        }
        Ok(v.round() as u64)
    }

    /// Elaborate `step` into `out`. Inside a thread team (`in_team`)
    /// threads may compute but not communicate or fork again: MPI inside
    /// an OpenMP region is rejected (the common MPI_THREAD_FUNNELED
    /// restriction), as is a nested parallel region or fork.
    fn walk(
        &mut self,
        node: &'a Node,
        frame: &mut Frame,
        out: &mut Vec<PrimOp>,
        in_team: bool,
    ) -> Result<(), FlattenError> {
        match node {
            Node::Nop => Ok(()),
            Node::Seq(items) => {
                for s in items {
                    self.walk(s, frame, out, in_team)?;
                }
                Ok(())
            }
            Node::Exec { name, cost, code } => {
                self.marker(out, PrimOp::Enter, name)?;
                if !code.is_empty() {
                    self.resolved
                        .scope
                        .exec(code, frame)
                        .map_err(|e| FlattenError::Eval {
                            context: context("code fragment", name).to_string(),
                            source: e,
                        })?;
                }
                let seconds = match cost {
                    Some(expr) => {
                        let what = context("cost", name);
                        let t = self.eval_num(expr, frame, what)?;
                        if !(t.is_finite() && t >= 0.0) {
                            return Err(FlattenError::InvalidTime {
                                context: what.to_string(),
                                value: t,
                            });
                        }
                        t
                    }
                    None => 0.0,
                };
                self.emit(
                    out,
                    PrimOp::Compute {
                        element: name.clone(),
                        seconds,
                    },
                )?;
                self.marker(out, PrimOp::Exit, name)
            }
            Node::Branch(arms) => {
                for (guard, arm) in arms {
                    let taken = match guard {
                        Some(g) => self
                            .resolved
                            .scope
                            .eval(g, frame)
                            .map_err(|e| FlattenError::Eval {
                                context: "guard".into(),
                                source: e,
                            })?
                            .truthy(),
                        None => true,
                    };
                    if taken {
                        return self.walk(arm, frame, out, in_team);
                    }
                }
                Ok(()) // no arm taken: decision falls through
            }
            Node::Composite { name, body } => {
                self.marker(out, PrimOp::Enter, name)?;
                self.walk(body, frame, out, in_team)?;
                self.marker(out, PrimOp::Exit, name)
            }
            Node::Loop {
                name,
                count,
                var,
                body,
            } => {
                let what = context("iterations", name);
                let n = self.eval_num(count, frame, what)?;
                if !(n.is_finite() && n >= 0.0) {
                    return Err(FlattenError::InvalidCount {
                        context: what.to_string(),
                        value: n,
                    });
                }
                let n = n.round() as u64;
                if n > self.limits.max_loop_iterations {
                    return Err(FlattenError::LoopLimit {
                        element: name.to_string(),
                        iterations: n,
                        limit: self.limits.max_loop_iterations,
                    });
                }
                self.marker(out, PrimOp::Enter, name)?;
                let saved = var.map(|v| frame.get(v));
                for i in 0..n {
                    if let Some(v) = *var {
                        frame.set(v, Value::Num(i as f64));
                    }
                    self.walk(body, frame, out, in_team)?;
                }
                if let (Some(v), Some(old)) = (*var, saved) {
                    frame.restore(v, old);
                }
                self.marker(out, PrimOp::Exit, name)
            }
            Node::Parallel(_) if in_team => Err(FlattenError::NestedParallel {
                element: String::new(),
            }),
            Node::Parallel(arms) => {
                // UML fork/join: one thread per arm.
                let mut arm_ops = Vec::with_capacity(arms.len());
                for (t, arm) in arms.iter().enumerate() {
                    arm_ops.push(self.walk_thread(arm, frame, t)?);
                }
                self.emit(
                    out,
                    PrimOp::Threads {
                        element: self.resolved.fork.clone(),
                        arms: arm_ops,
                    },
                )
            }
            Node::ParallelRegion { name, .. } if in_team => Err(FlattenError::NestedParallel {
                element: name.to_string(),
            }),
            Node::ParallelRegion {
                name,
                threads,
                body,
            } => {
                let team = match threads {
                    Some(expr) => {
                        let t = self.eval_num(expr, frame, context("threads", name))?;
                        if !(1.0..=4096.0).contains(&t) {
                            return Err(FlattenError::InvalidTeam {
                                element: name.to_string(),
                                value: t,
                            });
                        }
                        t.round() as usize
                    }
                    None => self.machine.sp.threads_per_process,
                };
                let mut arm_ops = Vec::with_capacity(team);
                for t in 0..team {
                    arm_ops.push(self.walk_thread(body, frame, t)?);
                }
                self.marker(out, PrimOp::Enter, name)?;
                self.emit(
                    out,
                    PrimOp::Threads {
                        element: name.clone(),
                        arms: arm_ops,
                    },
                )?;
                self.marker(out, PrimOp::Exit, name)
            }
            Node::Critical { name, lock, body } => {
                let id = self.lock_id(lock);
                self.marker(out, PrimOp::Enter, name)?;
                self.emit(out, PrimOp::Lock(id))?;
                self.walk(body, frame, out, in_team)?;
                self.emit(out, PrimOp::Unlock(id))?;
                self.marker(out, PrimOp::Exit, name)
            }
            Node::Mpi { name, .. } if in_team => Err(FlattenError::MpiInThread {
                element: name.to_string(),
            }),
            Node::Mpi { name, op } => self.walk_mpi(name, op, frame, out),
        }
    }

    /// Elaborate one team member's arm, as thread `tid`, on a copy of
    /// the spawning flow's environment.
    fn walk_thread(
        &mut self,
        node: &'a Node,
        frame: &Frame,
        tid: usize,
    ) -> Result<Vec<PrimOp>, FlattenError> {
        let mut thread_frame = self.resolved.thread_frame(frame, tid);
        let mut ops = Vec::new();
        self.walk(node, &mut thread_frame, &mut ops, true)?;
        Ok(ops)
    }

    fn lock_id(&mut self, lock: &'a str) -> usize {
        match self.locks.iter().position(|&l| l == lock) {
            Some(i) => i,
            None => {
                self.locks.push(lock);
                self.locks.len() - 1
            }
        }
    }

    fn walk_mpi(
        &mut self,
        name: &Arc<str>,
        op: &Mpi,
        frame: &mut Frame,
        out: &mut Vec<PrimOp>,
    ) -> Result<(), FlattenError> {
        let p = self.machine.sp.processes;
        let comm = &self.machine.comm;
        self.marker(out, PrimOp::Enter, name)?;
        match op {
            Mpi::Send { dest, size, tag } => {
                let dest = self.eval_rank(dest, frame, context("dest", name))?;
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit(
                    out,
                    PrimOp::SendTo {
                        element: name.clone(),
                        dest,
                        bytes,
                        tag: *tag,
                    },
                )?;
            }
            Mpi::Recv { src, tag } => {
                let src = self.eval_rank(src, frame, context("src", name))?;
                self.emit(
                    out,
                    PrimOp::RecvFrom {
                        element: name.clone(),
                        src,
                        tag: *tag,
                        bytes: 0,
                    },
                )?;
            }
            Mpi::Broadcast { root, size } => {
                let root = self.eval_rank(root, frame, context("root", name))?;
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit_collective(name, root, comm.broadcast_time(p, bytes), out)?;
            }
            Mpi::Reduce { root, size } => {
                let root = self.eval_rank(root, frame, context("root", name))?;
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit_collective(name, root, comm.reduce_time(p, bytes), out)?;
            }
            Mpi::Allreduce { size } => {
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit_collective(name, 0, comm.allreduce_time(p, bytes), out)?;
            }
            Mpi::Scatter { root, size } => {
                let root = self.eval_rank(root, frame, context("root", name))?;
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit_collective(name, root, comm.scatter_time(p, bytes), out)?;
            }
            Mpi::Gather { root, size } => {
                let root = self.eval_rank(root, frame, context("root", name))?;
                let bytes = self.eval_bytes(size, frame, context("size", name))?;
                self.emit_collective(name, root, comm.gather_time(p, bytes), out)?;
            }
            Mpi::Barrier => {
                self.emit_collective(name, 0, comm.barrier_time(p), out)?;
            }
        }
        self.marker(out, PrimOp::Exit, name)
    }

    /// Collective expansion: synchronize through rank `root` with
    /// zero-byte control messages, then hold the analytic cost.
    fn emit_collective(
        &mut self,
        name: &Arc<str>,
        root: usize,
        cost: f64,
        out: &mut Vec<PrimOp>,
    ) -> Result<(), FlattenError> {
        let p = self.machine.sp.processes;
        let tag = COLLECTIVE_BASE - self.collective_seq;
        self.collective_seq += 1;
        if p > 1 {
            if self.pid == root {
                // Gather phase: receive a control message from every other
                // rank (in rank order — deterministic and deadlock-free
                // since all are already sent or will be).
                for other in (0..p).filter(|&r| r != root) {
                    self.emit(
                        out,
                        PrimOp::RecvFrom {
                            element: name.clone(),
                            src: other,
                            tag,
                            bytes: 0,
                        },
                    )?;
                }
                // Release phase.
                for other in (0..p).filter(|&r| r != root) {
                    self.emit(
                        out,
                        PrimOp::SendTo {
                            element: name.clone(),
                            dest: other,
                            bytes: 0,
                            tag,
                        },
                    )?;
                }
            } else {
                self.emit(
                    out,
                    PrimOp::SendTo {
                        element: name.clone(),
                        dest: root,
                        bytes: 0,
                        tag,
                    },
                )?;
                self.emit(
                    out,
                    PrimOp::RecvFrom {
                        element: name.clone(),
                        src: root,
                        tag,
                        bytes: 0,
                    },
                )?;
            }
        }
        if cost > 0.0 {
            self.emit(
                out,
                PrimOp::Wait {
                    element: name.clone(),
                    seconds: cost,
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MpiOp, Step};
    use prophet_expr::{parse_expression, parse_statements, FunctionDef};
    use prophet_machine::{CommParams, SystemParams};

    fn machine(p: usize) -> MachineModel {
        MachineModel::new(SystemParams::flat_mpi(p.max(1), 1), CommParams::default()).unwrap()
    }

    fn exec(name: &str, cost: &str) -> Step {
        Step::Exec {
            name: name.into(),
            cost: Some(parse_expression(cost).unwrap()),
            code: vec![],
        }
    }

    #[test]
    fn exec_becomes_enter_compute_exit() {
        let mut p = Program::new("t");
        p.body = exec("A1", "2.5");
        let ops = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap();
        assert_eq!(
            ops,
            vec![
                PrimOp::Enter("A1".into()),
                PrimOp::Compute {
                    element: "A1".into(),
                    seconds: 2.5
                },
                PrimOp::Exit("A1".into())
            ]
        );
    }

    #[test]
    fn code_fragment_affects_later_guard() {
        // Figure 7: A1's fragment sets GV = 1; the branch then takes SA.
        let mut p = Program::new("t");
        p.globals.push(("GV".into(), 0.0));
        p.body = Step::Seq(vec![
            Step::Exec {
                name: "A1".into(),
                cost: None,
                code: parse_statements("GV = 1;").unwrap(),
            },
            Step::Branch(vec![
                (Some(parse_expression("GV == 1").unwrap()), exec("SA1", "1")),
                (None, exec("A2", "1")),
            ]),
        ]);
        let ops = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap();
        let names: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                PrimOp::Compute { element, .. } => Some(element.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["A1", "SA1"]);
    }

    #[test]
    fn cost_functions_and_system_vars() {
        let mut p = Program::new("t");
        p.functions
            .push(FunctionDef::parse("F", &["x"], "0.5 * x + 0.125 * pid").unwrap());
        p.body = exec("A", "F(P)");
        let ops = flatten_for_process(&p, &machine(4), 2, Default::default()).unwrap();
        match &ops[1] {
            PrimOp::Compute { seconds, .. } => assert_eq!(*seconds, 0.5 * 4.0 + 0.125 * 2.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_unrolls_with_variable() {
        let mut p = Program::new("t");
        p.body = Step::Loop {
            name: "L".into(),
            count: parse_expression("3").unwrap(),
            var: Some("i".into()),
            body: Box::new(exec("S", "1 + i")),
        };
        let ops = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap();
        let costs: Vec<f64> = ops
            .iter()
            .filter_map(|o| match o {
                PrimOp::Compute { seconds, .. } => Some(*seconds),
                _ => None,
            })
            .collect();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn loop_limit_enforced() {
        let mut p = Program::new("t");
        p.body = Step::Loop {
            name: "L".into(),
            count: parse_expression("10").unwrap(),
            var: None,
            body: Box::new(exec("S", "1")),
        };
        let limits = FlattenLimits {
            max_loop_iterations: 5,
            ..Default::default()
        };
        let err = flatten_for_process(&p, &machine(1), 0, limits).unwrap_err();
        assert!(
            matches!(
                err,
                FlattenError::LoopLimit {
                    iterations: 10,
                    limit: 5,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn send_recv_resolve_ranks() {
        let mut p = Program::new("t");
        p.body = Step::Branch(vec![
            (
                Some(parse_expression("pid == 0").unwrap()),
                Step::Mpi {
                    name: "s".into(),
                    op: MpiOp::Send {
                        dest: parse_expression("pid + 1").unwrap(),
                        size: parse_expression("1024").unwrap(),
                        tag: 7,
                    },
                },
            ),
            (
                None,
                Step::Mpi {
                    name: "r".into(),
                    op: MpiOp::Recv {
                        src: parse_expression("pid - 1").unwrap(),
                        tag: 7,
                    },
                },
            ),
        ]);
        let m = machine(2);
        let ops0 = flatten_for_process(&p, &m, 0, Default::default()).unwrap();
        let ops1 = flatten_for_process(&p, &m, 1, Default::default()).unwrap();
        assert!(ops0.iter().any(|o| matches!(
            o,
            PrimOp::SendTo {
                dest: 1,
                bytes: 1024,
                tag: 7,
                ..
            }
        )));
        assert!(ops1
            .iter()
            .any(|o| matches!(o, PrimOp::RecvFrom { src: 0, tag: 7, .. })));
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let mut p = Program::new("t");
        p.body = Step::Mpi {
            name: "s".into(),
            op: MpiOp::Send {
                dest: parse_expression("5").unwrap(),
                size: parse_expression("0").unwrap(),
                tag: 0,
            },
        };
        let err = flatten_for_process(&p, &machine(2), 0, Default::default()).unwrap_err();
        assert!(
            matches!(&err, FlattenError::RankOutOfRange { processes: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn barrier_expands_to_ctrl_messages() {
        let mut p = Program::new("t");
        p.body = Step::Mpi {
            name: "bar".into(),
            op: MpiOp::Barrier,
        };
        let m = machine(3);
        let root_ops = flatten_for_process(&p, &m, 0, Default::default()).unwrap();
        let leaf_ops = flatten_for_process(&p, &m, 1, Default::default()).unwrap();
        let recvs = root_ops
            .iter()
            .filter(|o| matches!(o, PrimOp::RecvFrom { .. }))
            .count();
        let sends = root_ops
            .iter()
            .filter(|o| matches!(o, PrimOp::SendTo { .. }))
            .count();
        assert_eq!((recvs, sends), (2, 2), "root gathers then releases");
        let recvs = leaf_ops
            .iter()
            .filter(|o| matches!(o, PrimOp::RecvFrom { .. }))
            .count();
        let sends = leaf_ops
            .iter()
            .filter(|o| matches!(o, PrimOp::SendTo { .. }))
            .count();
        assert_eq!((recvs, sends), (1, 1));
        // Both hold the same analytic cost.
        let wait = |ops: &[PrimOp]| {
            ops.iter()
                .find_map(|o| match o {
                    PrimOp::Wait { seconds, .. } => Some(*seconds),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(wait(&root_ops), wait(&leaf_ops));
    }

    #[test]
    fn single_process_collective_is_free() {
        let mut p = Program::new("t");
        p.body = Step::Mpi {
            name: "bar".into(),
            op: MpiOp::Barrier,
        };
        let ops = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap();
        assert_eq!(
            ops,
            vec![PrimOp::Enter("bar".into()), PrimOp::Exit("bar".into())]
        );
    }

    #[test]
    fn parallel_region_builds_thread_arms() {
        let mut p = Program::new("t");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("3").unwrap()),
            body: Box::new(exec("W", "1 + tid")),
        };
        let ops = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap();
        let team = ops
            .iter()
            .find_map(|o| match o {
                PrimOp::Threads { arms, .. } => Some(arms),
                _ => None,
            })
            .expect("threads op");
        assert_eq!(team.len(), 3);
        // Each thread's compute reflects its tid.
        for (t, arm) in team.iter().enumerate() {
            let cost = arm
                .iter()
                .find_map(|o| match o {
                    PrimOp::Compute { seconds, .. } => Some(*seconds),
                    _ => None,
                })
                .unwrap();
            assert_eq!(cost, 1.0 + t as f64);
        }
    }

    #[test]
    fn mpi_inside_threads_rejected() {
        let mut p = Program::new("t");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("2").unwrap()),
            body: Box::new(Step::Mpi {
                name: "bar".into(),
                op: MpiOp::Barrier,
            }),
        };
        let err = flatten_for_process(&p, &machine(2), 0, Default::default()).unwrap_err();
        assert!(
            matches!(&err, FlattenError::MpiInThread { element } if element == "bar"),
            "{err}"
        );
        assert!(err.to_string().contains("MPI_THREAD_FUNNELED"), "{err}");
    }

    #[test]
    fn a_fragment_on_rank_0_does_not_leak_into_rank_1() {
        let mut p = Program::new("t");
        p.globals.push(("GV".into(), 1.0));
        p.body = Step::Seq(vec![
            Step::Branch(vec![(
                Some(parse_expression("pid == 0").unwrap()),
                Step::Exec {
                    name: "set".into(),
                    cost: None,
                    code: parse_statements("GV = 5;").unwrap(),
                },
            )]),
            exec("A", "GV"),
        ]);
        let ranks = crate::elab::flatten_all(&p, &machine(2), Default::default()).unwrap();
        let cost_of_a = |ops: &[PrimOp]| {
            ops.iter()
                .find_map(|o| match o {
                    PrimOp::Compute { element, seconds } if &**element == "A" => Some(*seconds),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(cost_of_a(&ranks[0]), 5.0);
        assert_eq!(cost_of_a(&ranks[1]), 1.0);
    }

    #[test]
    fn a_model_variable_named_pid_shadows_the_rank() {
        let mut p = Program::new("t");
        p.globals.push(("pid".into(), 7.0));
        p.body = exec("A", "pid");
        let ranks = crate::elab::flatten_all(&p, &machine(2), Default::default()).unwrap();
        for ops in ranks.iter() {
            assert!(matches!(ops[1], PrimOp::Compute { seconds, .. } if seconds == 7.0));
        }
    }

    #[test]
    fn error_contexts_name_the_role_and_element() {
        let mpi = |name: &str, op: MpiOp| Step::Mpi {
            name: name.into(),
            op,
        };
        let e = |src: &str| parse_expression(src).unwrap();
        let cases = [
            (exec("A", "q"), "cannot evaluate cost of `A`"),
            (exec("A", "-1"), "cost of `A` evaluated to invalid time -1"),
            (
                Step::Exec {
                    name: "F".into(),
                    cost: None,
                    code: parse_statements("x = q;").unwrap(),
                },
                "cannot evaluate code fragment of `F`",
            ),
            (
                Step::Loop {
                    name: "L".into(),
                    count: e("q"),
                    var: None,
                    body: Box::new(Step::Nop),
                },
                "cannot evaluate iterations of `L`",
            ),
            (
                Step::Loop {
                    name: "L".into(),
                    count: e("-2"),
                    var: None,
                    body: Box::new(Step::Nop),
                },
                "iterations of `L` evaluated to invalid count -2",
            ),
            (
                mpi(
                    "s",
                    MpiOp::Send {
                        dest: e("q"),
                        size: e("8"),
                        tag: 0,
                    },
                ),
                "cannot evaluate dest of `s`",
            ),
            (
                mpi(
                    "s",
                    MpiOp::Send {
                        dest: e("5"),
                        size: e("8"),
                        tag: 0,
                    },
                ),
                "dest of `s`: rank 5 out of range 0..2",
            ),
            (
                mpi(
                    "s",
                    MpiOp::Send {
                        dest: e("1"),
                        size: e("-8"),
                        tag: 0,
                    },
                ),
                "size of `s`: invalid size -8",
            ),
            (
                mpi(
                    "r",
                    MpiOp::Recv {
                        src: e("q"),
                        tag: 0,
                    },
                ),
                "cannot evaluate src of `r`",
            ),
            (
                mpi(
                    "b",
                    MpiOp::Broadcast {
                        root: e("q"),
                        size: e("8"),
                    },
                ),
                "cannot evaluate root of `b`",
            ),
            (
                mpi(
                    "b",
                    MpiOp::Broadcast {
                        root: e("0"),
                        size: e("q"),
                    },
                ),
                "cannot evaluate size of `b`",
            ),
            (
                Step::ParallelRegion {
                    name: "R".into(),
                    threads: Some(e("q")),
                    body: Box::new(Step::Nop),
                },
                "cannot evaluate threads of `R`",
            ),
        ];
        for (body, want) in cases {
            let mut p = Program::new("t");
            p.body = body;
            let err = flatten_for_process(&p, &machine(2), 0, Default::default()).unwrap_err();
            assert_eq!(err.to_string(), format!("flatten error: {want}"));
        }
    }

    #[test]
    fn fragment_declarations_outlive_their_element() {
        // `var` in A's fragment binds for the rest of the rank: B's cost
        // reads it. A loop variable is unbound again after its loop, so
        // reading it there (D) fails.
        let program = |last: Step| {
            let mut p = Program::new("t");
            p.body = Step::Seq(vec![
                Step::Exec {
                    name: "A".into(),
                    cost: None,
                    code: parse_statements("var t = 2.5;").unwrap(),
                },
                Step::Loop {
                    name: "L".into(),
                    count: parse_expression("2").unwrap(),
                    var: Some("i".into()),
                    body: Box::new(exec("C", "i")),
                },
                last,
            ]);
            p
        };
        let m = machine(2);
        let ops = flatten_for_process(&program(exec("B", "t * pid")), &m, 1, Default::default());
        let costs: Vec<f64> = ops
            .unwrap()
            .iter()
            .filter_map(|op| match op {
                PrimOp::Compute { seconds, .. } => Some(*seconds),
                _ => None,
            })
            .collect();
        assert_eq!(costs, vec![0.0, 0.0, 1.0, 2.5]);
        let err = flatten_for_process(&program(exec("D", "i")), &m, 1, Default::default());
        let FlattenError::Eval { context, source } = err.unwrap_err() else {
            panic!("expected an evaluation error");
        };
        assert_eq!(context, "cost of `D`");
        assert_eq!(
            source.to_string(),
            "evaluation error: undefined variable `i`"
        );
    }

    #[test]
    fn eval_error_texts_are_pinned() {
        // Every failure class of the expression language, as elaboration
        // reports it: the context, and the `ExprError` text behind it.
        let code = |src: &str| Step::Exec {
            name: "F".into(),
            cost: None,
            code: parse_statements(src).unwrap(),
        };
        let guarded = Step::Branch(vec![(Some(parse_expression("GV").unwrap()), Step::Nop)]);
        let cases = [
            (exec("A", "q"), "cost of `A`", "undefined variable `q`"),
            (
                exec("A", "Nope(1)"),
                "cost of `A`",
                "undefined function `Nope`",
            ),
            (
                exec("A", "FA1(1)"),
                "cost of `A`",
                "function `FA1` expects 2 argument(s), got 1",
            ),
            (
                exec("A", "max(1)"),
                "cost of `A`",
                "builtin `max` expects 2 argument(s), got 1",
            ),
            (
                exec("A", "Loop()"),
                "cost of `A`",
                "call depth exceeded 64 (recursive cost function?)",
            ),
            (exec("A", "1 / (P - P)"), "cost of `A`", "division by zero"),
            (exec("A", "1 % (P - P)"), "cost of `A`", "remainder by zero"),
            (exec("A", "fmod(1, P - P)"), "cost of `A`", "fmod by zero"),
            (
                exec("A", "sqrt(-P)"),
                "cost of `A`",
                "sqrt of negative number -2",
            ),
            (
                exec("A", "log(P - P)"),
                "cost of `A`",
                "logarithm of non-positive number 0",
            ),
            (
                exec("A", "P > 1"),
                "cost of `A`",
                "expected a number, found a boolean",
            ),
            (
                exec("A", "(P > 1) == 1"),
                "cost of `A`",
                "cannot compare a number with a boolean",
            ),
            (
                code("while (true) { }"),
                "code fragment of `F`",
                "while loop exceeded 1000000 iterations",
            ),
            (guarded, "guard", "undefined variable `GV`"),
        ];
        for (body, context, message) in cases {
            let mut p = Program::new("t");
            p.functions = vec![
                FunctionDef::parse("FA1", &["a", "b"], "a + b").unwrap(),
                FunctionDef::parse("Loop", &[], "Loop()").unwrap(),
            ];
            p.body = body;
            let err = flatten_for_process(&p, &machine(2), 0, Default::default()).unwrap_err();
            let FlattenError::Eval {
                context: got,
                source,
            } = &err
            else {
                panic!("{message}: not an evaluation error: {err}");
            };
            assert_eq!(got, context);
            assert_eq!(source.to_string(), format!("evaluation error: {message}"));
        }
    }

    #[test]
    fn negative_cost_rejected() {
        let mut p = Program::new("t");
        p.body = exec("A", "-1");
        let err = flatten_for_process(&p, &machine(1), 0, Default::default()).unwrap_err();
        assert!(
            matches!(&err, FlattenError::InvalidTime { value, .. } if *value == -1.0),
            "{err}"
        );
        assert!(err.to_string().contains("invalid time"), "{err}");
    }
}
