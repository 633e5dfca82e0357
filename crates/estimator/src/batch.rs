//! Batch analytic evaluation: prepare once per elaboration, replay per
//! SP point. Every analytic prediction goes through here.
//!
//! [`crate::analytic::evaluate_ops`] (the reference walker) re-walks
//! the full [`PrimOp`] lists per evaluation: it re-skips the
//! trace markers, re-hashes `(src, dst, tag)` channel keys into a fresh
//! `HashMap` of `VecDeque`s, re-prices every Hockney transfer and
//! re-schedules every thread team — even though all of that is a pure
//! function of the elaboration and the machine model, which the
//! elaboration cache holds fixed per entry.
//!
//! [`BatchProgram::prepare`] hoists everything scenario-invariant out of
//! the walk, compiling the op lists into a structure-of-arrays form the
//! critical-path pass can replay with no allocation and no hashing:
//!
//! * **master-flow locks are dropped** — they are no-ops in the
//!   analytic pass. Analytic evaluations elaborate the lean form, which
//!   has no `Enter`/`Exit` trace markers; a traced elaboration's markers
//!   are dropped here too,
//! * **sends and receives are matched statically** — FIFO matching per
//!   `(src, dst, tag)` is order-deterministic: the k-th receive on a
//!   channel always pairs with the k-th send, because both sides post in
//!   program order. Each send gets a dense slot index; each receive
//!   stores its partner's slot, so the replay is an array read instead
//!   of a `HashMap` + `VecDeque` pop. Preparation threads each channel's
//!   FIFO through the send slots (a head/tail pair per channel, one
//!   `next` link per slot) under a multiplicative hash, so a
//!   collective's many single-message channels allocate nothing,
//! * **costs are resolved to one `f64` per op** — Hockney transfer
//!   times, send overheads and thread-team completion times (the full
//!   FCFS lock schedule) are priced at prepare time,
//! * **scratch is reused across points** — [`BatchScratch`] holds the
//!   per-rank clocks/cursors and the send-timestamp arena; a sweep
//!   worker clears it per point instead of reallocating.
//!
//! The replay is the *same* round-robin critical-path pass as the
//! walker, performing the identical floating-point operations in the
//! identical order, so predictions are **bit-identical** to
//! [`crate::analytic::evaluate_ops`] — pinned by unit tests here, the
//! conformance suite, and the walker differentials in
//! `tests/conformance.rs` and `tests/model_gen.rs`.
//!
//! Errors match the walker too. Deadlocks are reported with the exact
//! same [`SimError::Deadlock`] shape (a stalled rank's compact cursor
//! maps back to its source op for the message). A thread team the
//! walker cannot price (communication inside the team) compiles to a
//! `Fail` op that holds the pricing error: the replay returns it only
//! when a rank *reaches* the team, so a model that deadlocks first
//! still reports the deadlock, as the walker does. Preparation is
//! therefore total over every op list the walker accepts; only
//! elaborations too large for the compact `u32` indices are rejected.

use crate::elab::RankOps;
use crate::estimator::{EstimatorError, Evaluation};
use crate::flatten::PrimOp;
use prophet_machine::MachineModel;
use prophet_sim::{SimError, SimReport};
use prophet_trace::TraceFile;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// One compact analytic op. The meaning of `arg`/`val` depends on the
/// kind; see [`Kind`].
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Advance the rank clock by `val` (compute, wait, or a whole
    /// thread team priced by the FCFS schedule at prepare time).
    Add,
    /// Post send slot `arg` at the current clock; no sender cost
    /// (zero-byte control message, or `send_overhead == 0`).
    Post,
    /// Post send slot `arg`, then advance the clock by `val` (the
    /// sender-side overhead of a data message).
    PostPay,
    /// Complete at `max(clock, send_time[arg] + val)` — `val` is the
    /// Hockney transfer time priced at prepare time.
    Recv,
    /// Complete at `max(clock, send_time[arg])` exactly — a zero-byte
    /// message adds no transfer term (and no `+ 0.0`, which could
    /// perturb the bit pattern).
    RecvZero,
    /// A receive with no matching send anywhere in the elaboration:
    /// blocks forever (the deadlock is reported like the walker's).
    RecvNever,
    /// A thread team whose pricing failed: reaching it returns the
    /// stored error `fails[arg]`, where the walker would fail.
    Fail,
}

/// Sentinel for "send not posted yet" in the scratch arena.
const UNPOSTED: f64 = f64::NAN;

/// End of a channel's send-slot chain.
const NO_SLOT: u32 = u32::MAX;

/// One `(src, dst, tag)` channel's FIFO of unmatched send slots, linked
/// through [`BatchProgram::prepare`]'s `next` array.
struct Fifo {
    head: u32,
    tail: u32,
}

/// Multiplicative (Fx-style) hasher for the integer channel keys of
/// [`BatchProgram::prepare`], far cheaper than SipHash. Tags come from
/// the model, so `finish` mixes every key bit into the low bits the
/// table indexes by: tags that differ only in high bits must not share
/// a bucket. A collision costs probe time, never a wrong match.
#[derive(Default)]
struct ChannelHasher(u64);

impl Hasher for ChannelHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // The MurmurHash3 64-bit finalizer.
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Whether the analytic pass skips `op`: trace markers and master-flow
/// locks (the master never contends with itself) compile to nothing.
fn is_noop(op: &PrimOp) -> bool {
    matches!(
        op,
        PrimOp::Enter(_) | PrimOp::Exit(_) | PrimOp::Lock(_) | PrimOp::Unlock(_)
    )
}

/// One elaboration compiled for batch evaluation: the scenario-invariant
/// half of the analytic critical-path pass, resolved once per
/// `(elaboration, machine)` pair and replayed per SP point.
///
/// Built by [`BatchProgram::prepare`]; cached per elaboration-cache
/// entry by
/// [`ElaborationCache::get_or_flatten_batched`](crate::elab::ElaborationCache::get_or_flatten_batched).
#[derive(Debug)]
pub struct BatchProgram {
    /// Structure-of-arrays over compact ops, all ranks concatenated.
    kinds: Vec<Kind>,
    /// Send-slot index (`Post*`/`Recv*`) or error index (`Fail`);
    /// unused for `Add`.
    args: Vec<u32>,
    /// Pre-priced cost; meaning depends on the kind.
    vals: Vec<f64>,
    /// Per-rank compact op range into the arrays above.
    ranks: Vec<Range<u32>>,
    /// Total send slots (sizes the scratch arena).
    sends: usize,
    /// Pricing errors of the teams compiled to `Fail` ops.
    fails: Vec<EstimatorError>,
    /// The source elaboration (deadlock formatting only).
    ops: RankOps,
}

/// Reusable per-worker scratch for [`BatchProgram::evaluate`]: the
/// mutable state of one replay, cleared (not reallocated) per point.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Per-rank cursor into the compact op arrays.
    ip: Vec<u32>,
    /// Per-rank clock.
    time: Vec<f64>,
    /// Post time per send slot ([`UNPOSTED`] until the sender reaches
    /// it) — the arena replacing the walker's channel map.
    send_time: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; grows to fit the first program it replays.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BatchProgram {
    /// Compile `rank_ops` + `machine` into batch form.
    ///
    /// Thread teams that cannot be priced compile to `Fail` ops; their
    /// errors surface from [`BatchProgram::evaluate`] when a rank
    /// reaches them.
    ///
    /// # Errors
    /// Only for elaborations too large for the compact `u32` indices.
    pub fn prepare(rank_ops: &RankOps, machine: &MachineModel) -> Result<Self, EstimatorError> {
        // Pass 1 — static FIFO matching: assign each send a dense slot
        // in (rank, program-order) and append it to its channel's chain;
        // the replay posts sends in exactly this order, so the k-th pop in
        // pass 2 is the send the walker's k-th pop would match. Also
        // count the ops the compaction keeps, to size it exactly.
        let mut channels: HashMap<(usize, usize, i64), Fifo, BuildHasherDefault<ChannelHasher>> =
            HashMap::default();
        // Per send slot: its payload size and the next slot on its channel.
        let mut slot_bytes: Vec<u64> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        let mut kept = 0usize;
        for (pid, ops) in rank_ops.iter().enumerate() {
            for op in ops.iter().filter(|op| !is_noop(op)) {
                kept += 1;
                if let PrimOp::SendTo {
                    dest, bytes, tag, ..
                } = op
                {
                    let slot = slot_bytes.len() as u32;
                    slot_bytes.push(*bytes);
                    next.push(NO_SLOT);
                    channels
                        .entry((pid, *dest, *tag))
                        .and_modify(|fifo| {
                            next[fifo.tail as usize] = slot;
                            fifo.tail = slot;
                        })
                        .or_insert(Fifo {
                            head: slot,
                            tail: slot,
                        });
                }
            }
        }
        let sends = slot_bytes.len();
        // Sends are kept ops, so this bounds every compact index.
        if kept > u32::MAX as usize {
            return Err(EstimatorError::Mismatch(
                "elaboration too large for batch compilation".into(),
            ));
        }

        // Pass 2 — compact each rank, pricing everything
        // scenario-invariant.
        let mut kinds = Vec::with_capacity(kept);
        let mut args = Vec::with_capacity(kept);
        let mut vals = Vec::with_capacity(kept);
        let mut ranks = Vec::with_capacity(rank_ops.len());
        let mut fails = Vec::new();
        let overhead = machine.comm.params.send_overhead;
        let mut next_slot = 0u32;
        for (pid, ops) in rank_ops.iter().enumerate() {
            let start = kinds.len() as u32;
            for op in ops.iter().filter(|op| !is_noop(op)) {
                let (kind, arg, val) = match op {
                    PrimOp::Enter(_) | PrimOp::Exit(_) | PrimOp::Lock(_) | PrimOp::Unlock(_) => {
                        unreachable!("no-ops are filtered out")
                    }
                    PrimOp::Compute { seconds, .. } | PrimOp::Wait { seconds, .. } => {
                        (Kind::Add, 0, *seconds)
                    }
                    PrimOp::SendTo { bytes, .. } => {
                        let s = next_slot;
                        next_slot += 1;
                        if *bytes > 0 && overhead > 0.0 {
                            (Kind::PostPay, s, overhead)
                        } else {
                            (Kind::Post, s, 0.0)
                        }
                    }
                    PrimOp::RecvFrom { src, tag, .. } => {
                        let popped = channels
                            .get_mut(&(*src, pid, *tag))
                            .filter(|fifo| fifo.head != NO_SLOT)
                            .map(|fifo| {
                                let s = fifo.head;
                                fifo.head = next[s as usize];
                                (s, slot_bytes[s as usize])
                            });
                        match popped {
                            Some((s, bytes)) if bytes > 0 => {
                                // The transfer is priced from the *sender's*
                                // size, as the walker prices it.
                                (Kind::Recv, s, machine.comm.ptp_time(*src, pid, bytes))
                            }
                            Some((s, _)) => (Kind::RecvZero, s, 0.0),
                            None => (Kind::RecvNever, 0, 0.0),
                        }
                    }
                    PrimOp::Threads { arms, .. } => {
                        match crate::analytic::team_time(
                            rank_ops.names(),
                            arms,
                            machine.sp.cpus_per_node,
                        ) {
                            Ok(span) => (Kind::Add, 0, span),
                            Err(e) => {
                                fails.push(e);
                                (Kind::Fail, fails.len() as u32 - 1, 0.0)
                            }
                        }
                    }
                };
                kinds.push(kind);
                args.push(arg);
                vals.push(val);
            }
            ranks.push(start..kinds.len() as u32);
        }

        Ok(Self {
            kinds,
            args,
            vals,
            ranks,
            sends,
            fails,
            ops: rank_ops.clone(),
        })
    }

    /// Bytes of the compact arrays: what holding this program costs
    /// beyond the elaboration it was prepared from.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.kinds.len() * size_of::<Kind>()
            + self.args.len() * size_of::<u32>()
            + self.vals.len() * size_of::<f64>()
            + self.ranks.len() * size_of::<Range<u32>>()
    }

    /// Replay one point: the same round-robin critical-path pass as
    /// [`crate::analytic::evaluate_ops`], bit-identical by construction.
    ///
    /// # Errors
    /// [`EstimatorError::Sim`] with the walker's deadlock shape when the
    /// send/recv dependency graph has a cycle or an unmatched receive;
    /// the stored pricing error when a rank reaches a `Fail` team.
    pub fn evaluate(
        &self,
        name: &str,
        scratch: &mut BatchScratch,
    ) -> Result<Evaluation, EstimatorError> {
        let n = self.ranks.len();
        scratch.ip.clear();
        scratch.ip.extend(self.ranks.iter().map(|r| r.start));
        scratch.time.clear();
        scratch.time.resize(n, 0.0);
        scratch.send_time.clear();
        scratch.send_time.resize(self.sends, UNPOSTED);

        loop {
            let mut progressed = false;
            for pid in 0..n {
                progressed |= self.advance(pid, scratch)?;
            }
            if scratch
                .ip
                .iter()
                .zip(&self.ranks)
                .all(|(&ip, range)| ip >= range.end)
            {
                break;
            }
            if !progressed {
                return Err(EstimatorError::Sim(self.deadlock(scratch)));
            }
        }

        let end_time = scratch.time.iter().copied().fold(0.0, f64::max);
        Ok(Evaluation {
            predicted_time: end_time,
            report: SimReport {
                end_time,
                events_processed: 0,
                processes_completed: n,
                processes_spawned: n,
                facilities: Vec::new(),
            },
            trace: TraceFile::new(name.to_string(), n),
        })
    }

    /// Advance rank `pid` until it completes or blocks on an unposted
    /// send. Returns whether any op was resolved.
    fn advance(&self, pid: usize, scratch: &mut BatchScratch) -> Result<bool, EstimatorError> {
        let end = self.ranks[pid].end;
        let mut ip = scratch.ip[pid];
        let mut t = scratch.time[pid];
        let mut progressed = false;
        while ip < end {
            let i = ip as usize;
            match self.kinds[i] {
                Kind::Add => t += self.vals[i],
                Kind::Post => scratch.send_time[self.args[i] as usize] = t,
                Kind::PostPay => {
                    scratch.send_time[self.args[i] as usize] = t;
                    t += self.vals[i];
                }
                Kind::Recv => {
                    let sent_at = scratch.send_time[self.args[i] as usize];
                    if sent_at.is_nan() {
                        break; // blocked: matching send not posted yet
                    }
                    t = t.max(sent_at + self.vals[i]);
                }
                Kind::RecvZero => {
                    let sent_at = scratch.send_time[self.args[i] as usize];
                    if sent_at.is_nan() {
                        break;
                    }
                    t = t.max(sent_at);
                }
                Kind::RecvNever => break,
                Kind::Fail => return Err(self.fails[self.args[i] as usize].clone()),
            }
            ip += 1;
            progressed = true;
        }
        scratch.ip[pid] = ip;
        scratch.time[pid] = t;
        Ok(progressed)
    }

    /// Shape the stall exactly like the walker's deadlock report: the
    /// blocked compact op maps back to its source `PrimOp`, the k-th op
    /// of its rank the compaction kept.
    fn deadlock(&self, scratch: &BatchScratch) -> SimError {
        let blocked: Vec<String> = self
            .ranks
            .iter()
            .zip(&scratch.ip)
            .enumerate()
            .filter(|(_, (range, &ip))| ip < range.end)
            .map(|(pid, (range, &ip))| {
                let source = self.ops[pid]
                    .iter()
                    .filter(|op| !is_noop(op))
                    .nth((ip - range.start) as usize)
                    .expect("every compact op has a source op");
                match source {
                    PrimOp::RecvFrom { src, tag, .. } => {
                        format!("rank{pid} waiting for message from rank {src} (tag {tag})")
                    }
                    other => format!("rank{pid} stuck at {other:?}"),
                }
            })
            .collect();
        let at = scratch.time.iter().copied().fold(0.0, f64::max);
        SimError::Deadlock {
            blocked,
            at: format!("{at:.6}"),
        }
    }
}

// Batch programs are cached inside the elaboration cache's shared
// entries and used by reference across sweep workers.
const _: () = {
    const fn thread_safe<T: Send + Sync>() {}
    thread_safe::<BatchProgram>();
    thread_safe::<BatchScratch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::{flatten_all, Elaboration};
    use crate::estimator::EstimatorOptions;
    use crate::names::{ElementId, ElementNames};
    use crate::program::{MpiOp, Program, Step};
    use prophet_expr::parse_expression;
    use prophet_machine::{CommParams, MachineModel, SystemParams};
    use std::sync::Arc;

    fn machine(nodes: usize, cpn: usize) -> MachineModel {
        MachineModel::new(SystemParams::flat_mpi(nodes, cpn), CommParams::default()).unwrap()
    }

    /// `base` with `new` numbered too, and the ids of `new`.
    fn with_names<const N: usize>(
        base: &ElementNames,
        new: [&str; N],
    ) -> (Arc<ElementNames>, [ElementId; N]) {
        let mut names = base.clone();
        let ids = new.map(|name| names.intern(&name.into()));
        (Arc::new(names), ids)
    }

    fn exec(name: &str, cost: &str) -> Step {
        Step::Exec {
            name: name.into(),
            cost: Some(parse_expression(cost).unwrap()),
            code: vec![],
        }
    }

    /// Assert batch and per-point agree bit-for-bit on `p` × `m`.
    fn assert_bit_identical(p: &Program, m: &MachineModel) {
        let ops = flatten_all(p, m, Default::default()).unwrap();
        let oracle =
            crate::analytic::evaluate_ops(&p.name, &ops, m, &EstimatorOptions::default()).unwrap();
        let batch = BatchProgram::prepare(&ops, m).unwrap();
        let mut scratch = BatchScratch::new();
        let got = batch.evaluate(&p.name, &mut scratch).unwrap();
        assert_eq!(
            got.predicted_time.to_bits(),
            oracle.predicted_time.to_bits(),
            "batch {} vs oracle {}",
            got.predicted_time,
            oracle.predicted_time
        );
        assert_eq!(
            got.report.end_time.to_bits(),
            oracle.report.end_time.to_bits()
        );
        assert_eq!(
            got.report.processes_completed,
            oracle.report.processes_completed
        );
        assert!(got.trace.is_empty());
    }

    fn ping_pong(bytes: &str) -> Program {
        let mut p = Program::new("pp");
        p.body = Step::Branch(vec![
            (
                Some(parse_expression("pid == 0").unwrap()),
                Step::Mpi {
                    name: "s".into(),
                    op: MpiOp::Send {
                        dest: parse_expression("1").unwrap(),
                        size: parse_expression(bytes).unwrap(),
                        tag: 0,
                    },
                },
            ),
            (
                None,
                Step::Mpi {
                    name: "r".into(),
                    op: MpiOp::Recv {
                        src: parse_expression("0").unwrap(),
                        tag: 0,
                    },
                },
            ),
        ]);
        p
    }

    #[test]
    fn sequential_model_is_bit_identical() {
        let mut p = Program::new("seq");
        p.body = Step::Seq(vec![exec("A", "1.5"), exec("B", "2.5 + 0.125 * pid")]);
        assert_bit_identical(&p, &machine(4, 1));
    }

    #[test]
    fn message_passing_is_bit_identical() {
        assert_bit_identical(&ping_pong("1000000"), &machine(2, 1));
    }

    #[test]
    fn zero_byte_messages_are_bit_identical() {
        // A zero-size send must complete the receive at exactly
        // `sent_at` — `sent_at + 0.0` would still be bit-equal, but the
        // kind split keeps the operation sequences literally identical.
        assert_bit_identical(&ping_pong("0"), &machine(2, 1));
    }

    #[test]
    fn collectives_are_bit_identical() {
        let mut p = Program::new("bar");
        p.body = Step::Seq(vec![
            exec("W", "0.5 + 0.25 * pid"),
            Step::Mpi {
                name: "b".into(),
                op: MpiOp::Barrier,
            },
            exec("tail", "1"),
        ]);
        for nodes in [2, 4, 8] {
            assert_bit_identical(&p, &machine(nodes, 1));
        }
    }

    #[test]
    fn thread_teams_are_bit_identical() {
        let mut p = Program::new("omp");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("4").unwrap()),
            body: Box::new(Step::Seq(vec![
                exec("Par", "1"),
                Step::Critical {
                    name: "Crit".into(),
                    lock: "<global>".into(),
                    body: Box::new(exec("Locked", "1")),
                },
            ])),
        };
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 4,
                processes: 1,
                threads_per_process: 4,
            },
            CommParams::default(),
        )
        .unwrap();
        assert_bit_identical(&p, &m);
    }

    #[test]
    fn scratch_reuse_across_points_stays_identical() {
        // One scratch across a whole grid — stale state from a larger
        // point must never leak into a smaller one.
        let mut p = Program::new("grid");
        p.body = Step::Seq(vec![
            exec("W", "1 + pid"),
            Step::Mpi {
                name: "b".into(),
                op: MpiOp::Barrier,
            },
        ]);
        let mut scratch = BatchScratch::new();
        for nodes in [8, 2, 4, 1, 8, 3] {
            let m = machine(nodes, 1);
            let ops = flatten_all(&p, &m, Default::default()).unwrap();
            let oracle =
                crate::analytic::evaluate_ops(&p.name, &ops, &m, &EstimatorOptions::default())
                    .unwrap();
            let batch = BatchProgram::prepare(&ops, &m).unwrap();
            let got = batch.evaluate(&p.name, &mut scratch).unwrap();
            assert_eq!(
                got.predicted_time.to_bits(),
                oracle.predicted_time.to_bits(),
                "nodes={nodes}"
            );
        }
    }

    #[test]
    fn deadlock_report_matches_the_oracle() {
        let mut p = Program::new("stuck");
        p.body = Step::Branch(vec![(
            Some(parse_expression("pid == 0").unwrap()),
            Step::Mpi {
                name: "r".into(),
                op: MpiOp::Recv {
                    src: parse_expression("1").unwrap(),
                    tag: 0,
                },
            },
        )]);
        let m = machine(2, 1);
        let ops = flatten_all(&p, &m, Default::default()).unwrap();
        let oracle = crate::analytic::evaluate_ops(&p.name, &ops, &m, &EstimatorOptions::default())
            .unwrap_err();
        let batch = BatchProgram::prepare(&ops, &m).unwrap();
        let got = batch
            .evaluate(&p.name, &mut BatchScratch::new())
            .unwrap_err();
        assert_eq!(format!("{got}"), format!("{oracle}"));
    }

    #[test]
    fn compaction_drops_markers_and_locks() {
        let mut p = Program::new("markers");
        p.body = Step::Seq(vec![exec("A", "1"), exec("B", "2")]);
        let m = machine(1, 1);
        let ops = flatten_all(&p, &m, Default::default()).unwrap();
        let source_ops: usize = ops.iter().map(|r| r.len()).sum();
        let batch = BatchProgram::prepare(&ops, &m).unwrap();
        assert!(
            batch.kinds.len() < source_ops,
            "{} compact vs {source_ops} source ops",
            batch.kinds.len()
        );
        assert!(batch.kinds.iter().all(|k| matches!(k, Kind::Add)));
    }

    #[test]
    fn channel_matching_replays_bit_identically() {
        // A 64-rank collective (one single-message channel per leaf and
        // direction) after a rank 0 → 1 exchange: tag 5 carries four
        // messages of different sizes, interleaved with two tag-6
        // messages on the same rank pair and received in another order.
        let m = machine(64, 1);
        let mut p = Program::new("chan");
        p.body = Step::Mpi {
            name: "ar".into(),
            op: MpiOp::Allreduce {
                size: parse_expression("4096").unwrap(),
            },
        };
        let collective = flatten_all(&p, &m, Default::default()).unwrap();
        let (names, [s, r, w]) = with_names(collective.names(), ["s", "r", "w"]);
        let send = |bytes: u64, tag: i64| PrimOp::SendTo {
            element: s,
            dest: 1,
            bytes,
            tag,
        };
        let recv = |src: usize, tag: i64| PrimOp::RecvFrom {
            element: r,
            src,
            tag,
            bytes: 0,
        };
        let work = |seconds: f64| PrimOp::Compute {
            element: w,
            seconds,
        };
        // Work after every receive makes the prediction depend on which
        // receive each message completes: matching any message to
        // another receive on its channel shifts the result.
        let exchange = [
            vec![
                send(1_000_000, 5),
                send(7, 6),
                send(10, 5),
                work(1e-4),
                send(500_000, 5),
                send(200_000, 6),
                send(0, 5),
            ],
            [
                recv(0, 6),
                recv(0, 5),
                recv(0, 5),
                recv(0, 6),
                recv(0, 5),
                recv(0, 5),
            ]
            .into_iter()
            .flat_map(|r| [r, work(1e-6)])
            .collect(),
        ];
        let ranks = |stuck: bool| -> RankOps {
            let mut ranks: Vec<Vec<PrimOp>> = collective.iter().map(|r| r.to_vec()).collect();
            for (pid, ops) in exchange.iter().enumerate() {
                ranks[pid].splice(0..0, ops.iter().cloned());
            }
            if stuck {
                // A receive no rank ever sends: a `RecvNever`.
                ranks[2].push(recv(3, 9));
            }
            Arc::new(Elaboration::new(Arc::clone(&names), ranks).unwrap())
        };
        let options = EstimatorOptions::default();

        let ops = ranks(false);
        let oracle = crate::analytic::evaluate_ops("chan", &ops, &m, &options).unwrap();
        let batch = BatchProgram::prepare(&ops, &m).unwrap();
        let got = batch.evaluate("chan", &mut BatchScratch::new()).unwrap();
        assert_eq!(
            got.predicted_time.to_bits(),
            oracle.predicted_time.to_bits(),
            "batch {} vs oracle {}",
            got.predicted_time,
            oracle.predicted_time
        );
        assert!(batch.kinds.iter().any(|k| matches!(k, Kind::Recv)));
        assert!(batch.kinds.iter().any(|k| matches!(k, Kind::RecvZero)));

        let ops = ranks(true);
        let oracle = crate::analytic::evaluate_ops("chan", &ops, &m, &options).unwrap_err();
        let batch = BatchProgram::prepare(&ops, &m).unwrap();
        assert!(batch.kinds.iter().any(|k| matches!(k, Kind::RecvNever)));
        let got = batch
            .evaluate("chan", &mut BatchScratch::new())
            .unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{oracle:?}"));
        assert!(format!("{got:?}").contains("rank2 waiting for message from rank 3 (tag 9)"));
    }

    #[test]
    fn unpriceable_team_fails_only_when_reached() {
        // A team holding a send cannot be priced. Prepare still succeeds;
        // the replay fails where the walker fails: at the team if a rank
        // reaches it, with the deadlock if an unmatched receive stalls
        // the rank first.
        let m = machine(2, 1);
        let (names, [t, s, a, r]) = with_names(&ElementNames::default(), ["T", "s", "A", "r"]);
        let team = || PrimOp::Threads {
            element: t,
            arms: vec![vec![PrimOp::SendTo {
                element: s,
                dest: 1,
                bytes: 8,
                tag: 0,
            }]],
        };
        let reached = vec![
            PrimOp::Compute {
                element: a,
                seconds: 1.0,
            },
            team(),
        ];
        let stalled = vec![
            PrimOp::RecvFrom {
                element: r,
                src: 1,
                tag: 0,
                bytes: 0,
            },
            team(),
        ];
        for (rank0, expected) in [(reached, "Mismatch"), (stalled, "Deadlock")] {
            let ops: RankOps =
                Arc::new(Elaboration::new(Arc::clone(&names), vec![rank0, vec![]]).unwrap());
            let walker = crate::analytic::evaluate_ops("t", &ops, &m, &EstimatorOptions::default())
                .unwrap_err();
            let batch = BatchProgram::prepare(&ops, &m)
                .unwrap()
                .evaluate("t", &mut BatchScratch::new())
                .unwrap_err();
            let (walker, batch) = (format!("{walker:?}"), format!("{batch:?}"));
            assert!(walker.contains(expected), "{walker}");
            assert_eq!(batch, walker);
        }
    }
}
