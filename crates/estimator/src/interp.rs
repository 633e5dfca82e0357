//! The simulation process that replays primitive ops on the DES engine.
//!
//! One DES run shares one `Run`: the elaboration it replays, the
//! ranks' mailboxes and lock facilities, the trace and the first error.
//! A flow replays its ops by reference — a rank's master flow its
//! rank's list, a team member one arm of a `Threads` op in it — and its
//! pending state holds element ids, so replay never copies an op or
//! touches a shared counter. Element names are looked up only to write
//! trace events and to name spawned thread flows.

use crate::elab::RankOps;
use crate::flatten::{PrimOp, JOIN_BASE};
use crate::names::ElementId;
use prophet_machine::CommModel;
use prophet_sim::{Action, FacilityId, MailboxId, Msg, ProcCtx, Process, Resumed};
use prophet_trace::{EventKind, TraceEvent, TraceFile};
use std::cell::RefCell;
use std::rc::Rc;

/// What every flow of one DES run shares.
pub(crate) struct Run {
    /// The elaboration replayed.
    pub(crate) ops: RankOps,
    /// Mailbox of every rank (index = rank).
    pub(crate) mailboxes: Vec<MailboxId>,
    /// Per rank, one 1-server facility per `<<critical+>>` lock.
    pub(crate) locks: Vec<Vec<FacilityId>>,
    pub(crate) comm: CommModel,
    /// The trace being recorded, if the run is traced.
    pub(crate) trace: Option<RefCell<TraceFile>>,
    /// The first communication mismatch (reported via the panic-free
    /// path: the flow terminates, the estimator surfaces the message).
    pub(crate) error: RefCell<Option<String>>,
}

/// State of an in-flight blocking operation.
enum Pending {
    None,
    /// Waiting for a message matching `(src, tag)`.
    Recv {
        src: usize,
        tag: i64,
        element: ElementId,
    },
    /// Received a message whose Hockney arrival is in the future; holding
    /// until then. The element is recorded as `MsgRecv` on wake.
    ArrivalHold(Option<ElementId>),
    /// Waiting for `remaining` join notifications with `tag`.
    Join {
        remaining: usize,
        tag: i64,
    },
}

/// A replaying process: one per MPI rank, and one per team thread.
pub struct OpProcess {
    /// MPI rank.
    pub pid: usize,
    /// Thread id (0 = the rank's master flow).
    pub tid: usize,
    run: Rc<Run>,
    /// For a team member: the index of its `Threads` op in the rank's
    /// list and its arm. `None` for the rank's master flow.
    arm: Option<(usize, usize)>,
    ip: usize,
    cpu: FacilityId,
    /// This flow's receive mailbox (the rank mailbox; threads never
    /// receive).
    my_mailbox: MailboxId,
    /// Where to notify on completion (thread flows only).
    notify: Option<(MailboxId, i64)>,
    pending: Pending,
    /// Unexpected-message queue (MPI-style out-of-order arrival stash).
    stash: Vec<Msg>,
    /// Monotone region counter for join tags.
    region_seq: i64,
}

impl Run {
    /// The ops a flow of rank `pid` replays: the rank's list, or one arm
    /// of a `Threads` op in it. Arms hold no `Threads` op (see
    /// [`crate::Elaboration`]), so a team member's `Threads` op is always
    /// in the rank's own list.
    fn ops(&self, pid: usize, arm: Option<(usize, usize)>) -> &[PrimOp] {
        let rank = &self.ops[pid];
        match arm {
            None => rank,
            Some((op, arm)) => match &rank[op] {
                PrimOp::Threads { arms, .. } => &arms[arm],
                _ => unreachable!("a team member replays an arm of a `Threads` op"),
            },
        }
    }
}

impl OpProcess {
    /// Build the master flow of rank `pid`.
    pub(crate) fn master(run: &Rc<Run>, pid: usize, cpu: FacilityId) -> Self {
        Self {
            pid,
            tid: 0,
            run: Rc::clone(run),
            arm: None,
            ip: 0,
            cpu,
            my_mailbox: run.mailboxes[pid],
            notify: None,
            pending: Pending::None,
            stash: Vec::new(),
            region_seq: 0,
        }
    }

    fn child(&self, tid: usize, arm: (usize, usize), notify: (MailboxId, i64)) -> Self {
        Self {
            pid: self.pid,
            tid,
            run: Rc::clone(&self.run),
            arm: Some(arm),
            ip: 0,
            cpu: self.cpu,
            my_mailbox: self.my_mailbox, // unused by threads (no recv)
            notify: Some(notify),
            pending: Pending::None,
            stash: Vec::new(),
            region_seq: 0,
        }
    }

    fn record(&self, time: f64, element: ElementId, kind: EventKind) {
        if let Some(trace) = &self.run.trace {
            trace.borrow_mut().push(TraceEvent {
                time,
                pid: self.pid,
                tid: self.tid,
                element: self.run.ops.names().name(element).to_string(),
                kind,
            });
        }
    }

    fn fail(&mut self, ctx: &mut ProcCtx<'_>, message: String) -> Action {
        let mut slot = self.run.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(format!(
                "rank {} tid {} at t={:.9}: {message}",
                self.pid,
                self.tid,
                ctx.now()
            ));
        }
        // Terminating here lets the run finish; the estimator surfaces the
        // recorded error.
        Action::Terminate
    }

    /// Does `msg` satisfy the pending receive?
    fn matches(msg: &Msg, src: usize, tag: i64) -> bool {
        msg.tag == tag && msg.payload as usize == src
    }

    /// Handle a delivered message against the pending receive. Returns the
    /// next action (continue execution, keep waiting, or hold for the
    /// Hockney arrival time).
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: Msg) -> Action {
        let Pending::Recv { src, tag, element } = self.pending else {
            return self.fail(
                ctx,
                format!("unexpected message (tag {}) delivered", msg.tag),
            );
        };
        if !Self::matches(&msg, src, tag) {
            // Out-of-order arrival: stash it and keep waiting.
            self.stash.push(msg);
            return Action::Receive(self.my_mailbox);
        }
        self.pending = Pending::None;
        self.complete_recv(ctx, msg, src, element)
    }

    fn complete_recv(
        &mut self,
        ctx: &mut ProcCtx<'_>,
        msg: Msg,
        src: usize,
        element: ElementId,
    ) -> Action {
        // Data messages experience Hockney transfer time; control
        // messages (tag < 0, zero bytes) are instantaneous.
        let arrival = if msg.size_bytes > 0 {
            msg.sent_at + self.run.comm.ptp_time(src, self.pid, msg.size_bytes)
        } else {
            msg.sent_at
        };
        let now = ctx.now();
        let recv_marker = (msg.size_bytes > 0).then_some(element);
        if arrival > now {
            self.pending = Pending::ArrivalHold(recv_marker);
            return Action::Hold(arrival - now);
        }
        if let Some(el) = recv_marker {
            self.record(now, el, EventKind::MsgRecv);
        }
        self.run(ctx)
    }

    /// Try to satisfy the pending receive from the stash.
    fn try_stash(&mut self, ctx: &mut ProcCtx<'_>) -> Option<Action> {
        let Pending::Recv { src, tag, element } = self.pending else {
            return None;
        };
        let pos = self.stash.iter().position(|m| Self::matches(m, src, tag))?;
        let msg = self.stash.remove(pos);
        self.pending = Pending::None;
        Some(self.complete_recv(ctx, msg, src, element))
    }

    /// Main dispatch: execute ops until one blocks.
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        let run = Rc::clone(&self.run);
        let ops = run.ops(self.pid, self.arm);
        loop {
            if run.error.borrow().is_some() {
                return Action::Terminate;
            }
            let Some(op) = ops.get(self.ip) else {
                // Flow complete.
                if let Some((mbox, tag)) = self.notify {
                    ctx.send(
                        mbox,
                        Msg {
                            from: ctx.pid(),
                            tag,
                            payload: self.pid as f64,
                            size_bytes: 0,
                            sent_at: ctx.now(),
                        },
                    );
                }
                return Action::Terminate;
            };
            let at = self.ip;
            self.ip += 1;
            match *op {
                PrimOp::Enter(name) => {
                    self.record(ctx.now(), name, EventKind::Enter);
                }
                PrimOp::Exit(name) => {
                    self.record(ctx.now(), name, EventKind::Exit);
                }
                PrimOp::Compute { seconds, .. } => {
                    if seconds > 0.0 {
                        return Action::Use(self.cpu, seconds);
                    }
                }
                PrimOp::Wait { seconds, .. } => {
                    if seconds > 0.0 {
                        return Action::Hold(seconds);
                    }
                }
                PrimOp::SendTo {
                    element,
                    dest,
                    bytes,
                    tag,
                } => {
                    if bytes > 0 {
                        self.record(ctx.now(), element, EventKind::MsgSend);
                    }
                    ctx.send(
                        run.mailboxes[dest],
                        Msg {
                            from: ctx.pid(),
                            tag,
                            // The sender's MPI rank rides in the payload so
                            // receivers match on ranks, not kernel pids.
                            payload: self.pid as f64,
                            size_bytes: bytes,
                            sent_at: ctx.now(),
                        },
                    );
                    let overhead = run.comm.params.send_overhead;
                    if bytes > 0 && overhead > 0.0 {
                        return Action::Hold(overhead);
                    }
                }
                PrimOp::RecvFrom {
                    element, src, tag, ..
                } => {
                    self.pending = Pending::Recv { src, tag, element };
                    if let Some(action) = self.try_stash(ctx) {
                        return action;
                    }
                    return Action::Receive(self.my_mailbox);
                }
                PrimOp::Threads { element, ref arms } => {
                    let tag = JOIN_BASE - self.region_seq;
                    self.region_seq += 1;
                    let name = run.ops.names().name(element);
                    for t in 0..arms.len() {
                        let child = self.child(t, (at, t), (self.my_mailbox, tag));
                        ctx.spawn(&format!("p{}.{}.t{}", self.pid, name, t), Box::new(child));
                    }
                    if !arms.is_empty() {
                        self.pending = Pending::Join {
                            remaining: arms.len(),
                            tag,
                        };
                        return Action::Receive(self.my_mailbox);
                    }
                }
                PrimOp::Lock(id) => {
                    return Action::Reserve(run.locks[self.pid][id]);
                }
                PrimOp::Unlock(id) => {
                    ctx.release(run.locks[self.pid][id]);
                }
            }
        }
    }
}

impl Process for OpProcess {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
        match why {
            Resumed::Granted(_) => self.run(ctx),
            Resumed::Start | Resumed::HoldDone | Resumed::UseDone(_) => {
                match std::mem::replace(&mut self.pending, Pending::None) {
                    Pending::ArrivalHold(marker) => {
                        if let Some(el) = marker {
                            self.record(ctx.now(), el, EventKind::MsgRecv);
                        }
                        self.run(ctx)
                    }
                    Pending::None => self.run(ctx),
                    other => {
                        self.pending = other;
                        self.fail(ctx, "woke from hold while a receive was pending".into())
                    }
                }
            }
            Resumed::MsgReceived(msg) => match self.pending {
                Pending::Join { remaining, tag } => {
                    if msg.tag != tag {
                        // A data message arrived during the join: stash.
                        self.stash.push(msg);
                        return Action::Receive(self.my_mailbox);
                    }
                    if remaining > 1 {
                        self.pending = Pending::Join {
                            remaining: remaining - 1,
                            tag,
                        };
                        return Action::Receive(self.my_mailbox);
                    }
                    self.pending = Pending::None;
                    self.run(ctx)
                }
                Pending::Recv { .. } => self.on_message(ctx, msg),
                _ => {
                    self.pending = Pending::None;
                    self.fail(ctx, format!("unexpected message (tag {})", msg.tag))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    // The interpreter is exercised end-to-end through the estimator tests;
    // unit tests here cover the message-matching helper.
    use super::*;
    use prophet_sim::ProcessId;

    #[test]
    fn matching_is_by_rank_payload_and_tag() {
        let msg = Msg {
            from: ProcessId(99), // kernel pid is irrelevant
            tag: 7,
            payload: 3.0, // sender rank
            size_bytes: 16,
            sent_at: 0.0,
        };
        assert!(OpProcess::matches(&msg, 3, 7));
        assert!(!OpProcess::matches(&msg, 2, 7));
        assert!(!OpProcess::matches(&msg, 3, 8));
    }
}
