//! Closed-form analytic evaluation: semantics and the reference walker.
//!
//! This module defines what an analytic prediction *is*. Production
//! evaluations run it through [`crate::batch`], which compiles one
//! elaboration into a compact replay; [`evaluate_ops`] here is the
//! reference walker the batch replay is tested bit-for-bit against
//! (unit tests, `tests/conformance.rs`, `tests/model_gen.rs`, the
//! benches). No production path calls the walker. The thread-team
//! pricing (`team_time` and its arm profiles) is shared by both.
//!
//! [`evaluate_analytic`] walks the same flattened primitive-op lists the
//! DES interpreter replays ([`crate::interp`]), but resolves completion
//! times in closed form instead of scheduling kernel events:
//!
//! * **compute** — sequential accumulation onto the rank's clock (each
//!   rank is assumed to own one CPU of its node),
//! * **point-to-point** — eager sends record their post time; a receive
//!   completes at `max(recv_ready, send_time + α + size·β)` (Hockney),
//!   matched per `(src, dst, tag)` in FIFO order, exactly the matching
//!   discipline of the interpreter's stash,
//! * **collectives** — the control-message expansion emitted by
//!   [`crate::flatten`] synchronizes all ranks through the root as a
//!   max-barrier; every rank then holds the analytic collective cost
//!   from the machine model,
//! * **thread teams** — when the team fits the node's `cpus_per_node`
//!   CPUs, arms are resolved exactly: they interact only through their
//!   `<<critical+>>` locks, granted FCFS in request-time order like the
//!   kernel's lock facilities. Oversubscribed teams (and nested
//!   criticals) fall back to greedy list scheduling of the arms raised
//!   to a per-lock serialization lower bound,
//! * **deadlock** — if no rank can advance while some rank still has
//!   ops, the same [`SimError::Deadlock`] shape as the kernel is
//!   reported.
//!
//! The dependency resolution is a critical-path pass: ranks are advanced
//! round-robin, each as far as its send/recv dependencies allow, until
//! the whole op graph is resolved — one deterministic sweep with no
//! event calendar, which is why analytic evaluations are much faster
//! than simulated ones (see `bench_analytic`).
//!
//! ## Agreement contract (differential conformance)
//!
//! Relative to the simulation backend on the same
//! [`Program`](crate::program::Program):
//!
//! * **exact** (bit-equal predicted time) for deterministic,
//!   communication-free models — compute costs accumulate through
//!   identical floating-point operations,
//! * **within 1e-9 relative** for deterministic message-passing models —
//!   the kernel reaches an arrival time `a` by holding `a − now`, the
//!   analytic pass computes `a` directly; the two can differ in the last
//!   ulp per message hop,
//! * **approximate** when CPUs are oversubscribed — a thread team
//!   larger than its node's CPU count, nested critical sections, or
//!   more simultaneously runnable flows than CPUs across *different*
//!   ranks: the DES models that contention through its FCFS facilities,
//!   the analytic backend assumes each rank owns a CPU and each thread
//!   team has the node's CPUs to itself.
//!
//! `tests/conformance.rs` at the workspace root pins this contract for
//! every bundled workload model across an SP grid.
//!
//! The analytic backend never touches the DES kernel: the returned
//! [`Evaluation`] has a report with zero events and no facilities, and
//! an empty trace; `trace` in [`EstimatorOptions`] is ignored.

use crate::elab::{flatten_all, Elaboration, RankOps};
use crate::estimator::{EstimatorError, EstimatorOptions, Evaluation};
use crate::flatten::PrimOp;
use crate::names::ElementNames;
use prophet_machine::MachineModel;
use prophet_sim::{SimError, SimReport};
use prophet_trace::TraceFile;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Evaluate `program` on `machine` analytically (no DES kernel) with
/// the reference walker, uncached — the differential reference for
/// `Session` evaluations and sweeps.
///
/// Produces a regular [`Evaluation`] whose `predicted_time` is the
/// maximum rank completion time; the report carries zero events and no
/// facility statistics, and the trace is empty.
///
/// # Errors
/// [`EstimatorError::Flatten`] when elaboration fails,
/// [`EstimatorError::Sim`] (deadlock shape) when the send/recv
/// dependency graph has a cycle or an unmatched receive.
pub fn evaluate_analytic(
    program: &crate::program::Program,
    machine: &MachineModel,
    options: &EstimatorOptions,
) -> Result<Evaluation, EstimatorError> {
    let rank_ops = flatten_all(program, machine, options.limits)?;
    evaluate_ops(&program.name, &rank_ops, machine, options)
}

/// Resolve already-elaborated op lists in closed form: the reference
/// walker [`crate::batch::BatchProgram`] replays bit-identically.
///
/// The scenario-dependent half of [`evaluate_analytic`]: `rank_ops` is
/// the scenario-independent elaboration (from
/// [`flatten_all`] or a [`crate::elab::ElaborationCache`]), borrowed —
/// the critical-path pass never mutates or consumes it.
pub fn evaluate_ops(
    name: &str,
    rank_ops: &RankOps,
    machine: &MachineModel,
    options: &EstimatorOptions,
) -> Result<Evaluation, EstimatorError> {
    let sp = machine.sp;
    debug_assert_eq!(rank_ops.len(), sp.processes, "elaboration/machine mismatch");
    let _ = options; // no trace, and elaboration already applied the limits

    let mut replay = Replay {
        machine,
        ip: vec![0; sp.processes],
        time: vec![0.0; sp.processes],
        ops: rank_ops,
        channels: HashMap::new(),
    };
    let end_time = replay.resolve()?;

    Ok(Evaluation {
        predicted_time: end_time,
        report: SimReport {
            end_time,
            events_processed: 0,
            processes_completed: sp.processes,
            processes_spawned: sp.processes,
            facilities: Vec::new(),
        },
        trace: TraceFile::new(name.to_string(), sp.processes),
    })
}

/// In-flight messages of one `(src, dst, tag)` channel: FIFO of
/// `(send_time, bytes)` — the same matching key and order the
/// interpreter's mailbox + stash implement.
type Channels = HashMap<(usize, usize, i64), VecDeque<(f64, u64)>>;

struct Replay<'a> {
    machine: &'a MachineModel,
    /// Per-rank flattened op lists (never mutated during the replay).
    ops: &'a Elaboration,
    /// Per-rank instruction pointer.
    ip: Vec<usize>,
    /// Per-rank clock.
    time: Vec<f64>,
    channels: Channels,
}

impl Replay<'_> {
    /// Resolve the whole op graph; returns the latest rank completion.
    fn resolve(&mut self) -> Result<f64, EstimatorError> {
        loop {
            let mut progressed = false;
            for pid in 0..self.ops.len() {
                progressed |= self.advance(pid)?;
            }
            if self
                .ops
                .iter()
                .zip(&self.ip)
                .all(|(ops, &ip)| ip >= ops.len())
            {
                break;
            }
            if !progressed {
                return Err(EstimatorError::Sim(self.deadlock()));
            }
        }
        Ok(self.time.iter().copied().fold(0.0, f64::max))
    }

    /// Advance rank `pid` until it completes or blocks on a receive with
    /// no matching send posted yet. Returns whether any op was resolved.
    fn advance(&mut self, pid: usize) -> Result<bool, EstimatorError> {
        // Disjoint field borrows: `ops` is read-only, the rest mutate.
        let Replay {
            machine,
            ops,
            ip,
            time,
            channels,
        } = self;
        let rank = &ops[pid];
        let mut progressed = false;
        while let Some(op) = rank.get(ip[pid]) {
            match op {
                PrimOp::Enter(_) | PrimOp::Exit(_) => {}
                // Master-flow locks guard against this rank's own thread
                // teams only; the sequential master never contends with
                // itself, so acquisition is free.
                PrimOp::Lock(_) | PrimOp::Unlock(_) => {}
                PrimOp::Compute { seconds, .. } | PrimOp::Wait { seconds, .. } => {
                    time[pid] += seconds;
                }
                PrimOp::SendTo {
                    dest, bytes, tag, ..
                } => {
                    channels
                        .entry((pid, *dest, *tag))
                        .or_default()
                        .push_back((time[pid], *bytes));
                    // Eager send: the sender pays only the CPU overhead
                    // (and only for data messages), as in the interpreter.
                    let overhead = machine.comm.params.send_overhead;
                    if *bytes > 0 && overhead > 0.0 {
                        time[pid] += overhead;
                    }
                }
                PrimOp::RecvFrom { src, tag, .. } => {
                    let key = (*src, pid, *tag);
                    let Some((sent_at, bytes)) =
                        channels.get_mut(&key).and_then(VecDeque::pop_front)
                    else {
                        // Blocked: matching send not posted yet.
                        return Ok(progressed);
                    };
                    let arrival = if bytes > 0 {
                        sent_at + machine.comm.ptp_time(key.0, pid, bytes)
                    } else {
                        sent_at
                    };
                    time[pid] = time[pid].max(arrival);
                }
                PrimOp::Threads { arms, .. } => {
                    time[pid] += team_time(ops.names(), arms, machine.sp.cpus_per_node)?;
                }
            }
            ip[pid] += 1;
            progressed = true;
        }
        Ok(progressed)
    }

    /// Shape the stall exactly like the kernel's deadlock report.
    fn deadlock(&self) -> SimError {
        let blocked: Vec<String> = self
            .ops
            .iter()
            .zip(&self.ip)
            .enumerate()
            .filter(|(_, (ops, &ip))| ip < ops.len())
            .map(|(pid, (ops, &ip))| match &ops[ip] {
                PrimOp::RecvFrom { src, tag, .. } => {
                    format!("rank{pid} waiting for message from rank {src} (tag {tag})")
                }
                other => format!("rank{pid} stuck at {other:?}"),
            })
            .collect();
        let at = self.time.iter().copied().fold(0.0, f64::max);
        SimError::Deadlock {
            blocked,
            at: format!("{at:.6}"),
        }
    }
}

/// Completion time of a thread team.
///
/// When the team fits the node (`arms ≤ servers`, each arm on its own
/// CPU) and no critical sections nest, the arms interact *only* through
/// their locks, and [`fcfs_lock_schedule`] resolves the team exactly:
/// lock requests are granted in request-time order (arm index breaking
/// ties), matching the kernel's FCFS lock facilities.
///
/// Otherwise (oversubscribed team or nested criticals) the result is an
/// approximation: greedy list scheduling of arm totals onto the
/// servers, raised to a per-lock serialization lower bound of
/// `min(first acquisition offset) + Σ locked time`.
pub(crate) fn team_time(
    names: &ElementNames,
    arms: &[Vec<PrimOp>],
    servers: usize,
) -> Result<f64, EstimatorError> {
    if arms.is_empty() {
        return Ok(0.0);
    }
    let profiles = arms
        .iter()
        .map(|a| arm_profile(names, a, servers))
        .collect::<Result<Vec<_>, _>>()?;

    if arms.len() <= servers && profiles.iter().all(|p| !p.nested_locks) {
        return Ok(fcfs_lock_schedule(&profiles));
    }

    // Greedy list scheduling: each arm starts on the earliest-free server.
    let mut free = vec![0.0f64; servers.max(1).min(arms.len())];
    let mut makespan = 0.0f64;
    for p in &profiles {
        let mut slot = 0;
        for i in 1..free.len() {
            if free[i] < free[slot] {
                slot = i;
            }
        }
        free[slot] += p.total;
        makespan = makespan.max(free[slot]);
    }

    // Per-lock serialization bound: the critical sections of one lock
    // cannot overlap, and none can start before the earliest arm reaches
    // its first acquisition.
    let mut lock_bound = 0.0f64;
    let mut locks: HashMap<usize, (f64, f64)> = HashMap::new(); // id -> (min first offset, Σ locked)
    for p in &profiles {
        let mut first_seen: HashMap<usize, f64> = HashMap::new();
        let mut offset = 0.0;
        for ev in &p.events {
            match *ev {
                ArmEvent::Free(d) => offset += d,
                ArmEvent::Locked(id, d) => {
                    first_seen.entry(id).or_insert(offset);
                    offset += d;
                    let e = locks.entry(id).or_insert((f64::INFINITY, 0.0));
                    e.1 += d;
                }
            }
        }
        for (id, first) in first_seen {
            let e = locks.entry(id).or_insert((f64::INFINITY, 0.0));
            e.0 = e.0.min(first);
        }
    }
    for (first, total_locked) in locks.values() {
        lock_bound = lock_bound.max(first + total_locked);
    }

    Ok(makespan.max(lock_bound))
}

/// Resolve a dedicated-CPU team exactly: every arm runs on its own
/// server, so completion is governed purely by lock contention. Grants
/// happen in request-time order (FCFS, arm index breaking simultaneous
/// requests) — any arm's future request is never earlier than the
/// current globally-earliest pending one, so granting the minimum is
/// exact.
fn fcfs_lock_schedule(profiles: &[ArmProfile]) -> f64 {
    let n = profiles.len();
    let mut time = vec![0.0f64; n];
    let mut idx = vec![0usize; n];
    let mut avail: HashMap<usize, f64> = HashMap::new();

    let advance_free = |i: usize, time: &mut [f64], idx: &mut [usize]| {
        while let Some(ArmEvent::Free(d)) = profiles[i].events.get(idx[i]) {
            time[i] += d;
            idx[i] += 1;
        }
    };
    for i in 0..n {
        advance_free(i, &mut time, &mut idx);
    }
    loop {
        // Earliest pending lock request (every non-exhausted arm is
        // parked on a Locked event after advance_free).
        let mut best: Option<usize> = None;
        for i in 0..n {
            if idx[i] < profiles[i].events.len() && best.is_none_or(|b| time[i] < time[b]) {
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        let ArmEvent::Locked(id, dur) = profiles[i].events[idx[i]] else {
            unreachable!("advance_free leaves arms parked on Locked events");
        };
        let start = time[i].max(avail.get(&id).copied().unwrap_or(0.0));
        time[i] = start + dur;
        avail.insert(id, time[i]);
        idx[i] += 1;
        advance_free(i, &mut time, &mut idx);
    }
    time.into_iter().fold(0.0, f64::max)
}

/// One step of a thread arm's sequential timeline.
#[derive(Debug, Clone, Copy)]
enum ArmEvent {
    /// Run for this long holding no lock.
    Free(f64),
    /// Hold this lock for this long (one `<<critical+>>` section).
    Locked(usize, f64),
}

/// Sequential profile of one thread arm.
struct ArmProfile {
    /// The arm's timeline at critical-section granularity.
    events: Vec<ArmEvent>,
    /// Total busy time (compute + waits + nested teams).
    total: f64,
    /// A critical section opened inside another one — the exact FCFS
    /// schedule does not model lock-ordering cycles, so fall back.
    nested_locks: bool,
}

fn arm_profile(
    names: &ElementNames,
    ops: &[PrimOp],
    servers: usize,
) -> Result<ArmProfile, EstimatorError> {
    let mut t = 0.0f64;
    let mut events: Vec<ArmEvent> = Vec::new();
    // Lock currently held: `(id, section start)`.
    let mut open: Option<(usize, f64)> = None;
    let mut depth = 0usize;
    let mut nested_locks = false;
    for op in ops {
        match op {
            PrimOp::Enter(_) | PrimOp::Exit(_) => {}
            PrimOp::Compute { seconds, .. } | PrimOp::Wait { seconds, .. } => {
                if open.is_none() && *seconds > 0.0 {
                    if let Some(ArmEvent::Free(d)) = events.last_mut() {
                        *d += seconds;
                    } else {
                        events.push(ArmEvent::Free(*seconds));
                    }
                }
                t += seconds;
            }
            PrimOp::Lock(id) => {
                depth += 1;
                if depth > 1 {
                    nested_locks = true;
                } else {
                    open = Some((*id, t));
                }
            }
            PrimOp::Unlock(_) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some((id, start)) = open.take() {
                        events.push(ArmEvent::Locked(id, t - start));
                    }
                }
            }
            PrimOp::Threads { arms, .. } => {
                // An elaboration holds no nested teams (flatten and
                // `Elaboration::new` reject them); the recursion keeps
                // `team_time` total over any arm list.
                let span = team_time(names, arms, servers)?;
                if open.is_none() && span > 0.0 {
                    if let Some(ArmEvent::Free(d)) = events.last_mut() {
                        *d += span;
                    } else {
                        events.push(ArmEvent::Free(span));
                    }
                }
                t += span;
            }
            PrimOp::SendTo { element, .. } | PrimOp::RecvFrom { element, .. } => {
                return Err(EstimatorError::Mismatch(format!(
                    "communication op `{}` inside a thread team",
                    names.name(*element)
                )));
            }
        }
    }
    Ok(ArmProfile {
        events,
        total: t,
        nested_locks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MpiOp, Program, Step};
    use prophet_expr::parse_expression;
    use prophet_machine::{CommParams, SystemParams};

    fn machine(nodes: usize, cpn: usize) -> MachineModel {
        MachineModel::new(SystemParams::flat_mpi(nodes, cpn), CommParams::default()).unwrap()
    }

    fn exec(name: &str, cost: &str) -> Step {
        Step::Exec {
            name: name.into(),
            cost: Some(parse_expression(cost).unwrap()),
            code: vec![],
        }
    }

    fn analytic(p: &Program, m: MachineModel) -> Evaluation {
        evaluate_analytic(p, &m, &EstimatorOptions::default()).unwrap()
    }

    #[test]
    fn sequential_costs_sum_exactly() {
        let mut p = Program::new("seq");
        p.body = Step::Seq(vec![exec("A", "1.5"), exec("B", "2.5")]);
        let e = analytic(&p, machine(1, 1));
        assert_eq!(e.predicted_time, 4.0);
        assert!(e.trace.is_empty(), "analytic backend records no trace");
        assert_eq!(e.report.events_processed, 0, "no DES kernel involvement");
        assert!(e.report.facilities.is_empty());
    }

    #[test]
    fn ping_pong_includes_hockney_transfer() {
        let m = machine(2, 1);
        let transfer = m.comm.ptp_time(0, 1, 1_000_000);
        let mut p = Program::new("pp");
        p.body = Step::Branch(vec![
            (
                Some(parse_expression("pid == 0").unwrap()),
                Step::Mpi {
                    name: "s".into(),
                    op: MpiOp::Send {
                        dest: parse_expression("1").unwrap(),
                        size: parse_expression("1000000").unwrap(),
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
        let e = analytic(&p, m);
        assert!(
            (e.predicted_time - transfer).abs() < 1e-12,
            "{} vs {transfer}",
            e.predicted_time
        );
    }

    #[test]
    fn barrier_is_a_max_barrier() {
        let mut p = Program::new("bar");
        p.body = Step::Seq(vec![
            Step::Branch(vec![
                (
                    Some(parse_expression("pid == 0").unwrap()),
                    exec("slow", "5"),
                ),
                (None, exec("fast", "1")),
            ]),
            Step::Mpi {
                name: "b".into(),
                op: MpiOp::Barrier,
            },
            exec("tail", "1"),
        ]);
        let e = analytic(&p, machine(2, 1));
        assert!(e.predicted_time >= 6.0, "{}", e.predicted_time);
        assert!(e.predicted_time < 6.1, "{}", e.predicted_time);
    }

    #[test]
    fn thread_team_schedules_on_node_cpus() {
        // 4 threads × 1s on 2 CPUs → 2s.
        let mut p = Program::new("omp");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("4").unwrap()),
            body: Box::new(exec("W", "1")),
        };
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 2,
                processes: 1,
                threads_per_process: 4,
            },
            CommParams::default(),
        )
        .unwrap();
        assert_eq!(analytic(&p, m).predicted_time, 2.0);
    }

    #[test]
    fn critical_sections_serialize() {
        // 4 threads: 1s parallel + 1s critical each, 4 CPUs → 1 + 4 = 5s.
        let mut p = Program::new("crit");
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
        assert_eq!(analytic(&p, m).predicted_time, 5.0);
    }

    #[test]
    fn distinct_locks_run_concurrently() {
        let critical = |name: &str, lock: &str| Step::Critical {
            name: name.into(),
            lock: lock.into(),
            body: Box::new(exec("W", "2")),
        };
        let m = || {
            MachineModel::new(
                SystemParams {
                    nodes: 1,
                    cpus_per_node: 2,
                    processes: 1,
                    threads_per_process: 2,
                },
                CommParams::default(),
            )
            .unwrap()
        };
        let mut p = Program::new("locks");
        p.body = Step::Parallel(vec![critical("C1", "a"), critical("C2", "b")]);
        assert_eq!(analytic(&p, m()).predicted_time, 2.0);
        let mut p = Program::new("locks2");
        p.body = Step::Parallel(vec![critical("C1", "x"), critical("C2", "x")]);
        assert_eq!(analytic(&p, m()).predicted_time, 4.0);
    }

    #[test]
    fn asymmetric_critical_sections_match_the_simulation() {
        // Arm A takes the lock immediately (1s); arm B computes 0.9s,
        // then needs the same lock (1s), then computes 5s more. A holds
        // the lock 0→1, so B waits 0.9→1, is locked 1→2, and finishes at
        // 7. A bound-only lock model absorbs B's wait into its makespan
        // and answers 6.9 — this pins the exact FCFS lock schedule.
        let mut p = Program::new("asym");
        p.body = Step::Parallel(vec![
            Step::Critical {
                name: "CA".into(),
                lock: "x".into(),
                body: Box::new(exec("WA", "1")),
            },
            Step::Seq(vec![
                exec("Pre", "0.9"),
                Step::Critical {
                    name: "CB".into(),
                    lock: "x".into(),
                    body: Box::new(exec("WB", "1")),
                },
                exec("Post", "5"),
            ]),
        ]);
        let m = || {
            MachineModel::new(
                SystemParams {
                    nodes: 1,
                    cpus_per_node: 2,
                    processes: 1,
                    threads_per_process: 2,
                },
                CommParams::default(),
            )
            .unwrap()
        };
        let ana = analytic(&p, m()).predicted_time;
        let sim = crate::estimator::Estimator::new(m(), EstimatorOptions::default())
            .evaluate(&p)
            .unwrap()
            .predicted_time;
        assert_eq!(sim, 7.0);
        assert_eq!(ana, sim, "dedicated-CPU teams must match the DES exactly");
    }

    #[test]
    fn unmatched_recv_reports_deadlock() {
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
        let err = evaluate_analytic(&p, &machine(2, 1), &EstimatorOptions::default()).unwrap_err();
        match err {
            EstimatorError::Sim(SimError::Deadlock { blocked, .. }) => {
                assert!(blocked.iter().any(|b| b.contains("rank0")), "{blocked:?}");
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }
}
