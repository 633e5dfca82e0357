//! The simulation process that replays primitive ops on the DES engine.

use crate::flatten::PrimOp;
use prophet_machine::CommModel;
use prophet_sim::{Action, FacilityId, MailboxId, Msg, ProcCtx, Process, ProcessId, Resumed};
use prophet_trace::{EventKind, TraceEvent, TraceFile};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Shared, single-threaded trace sink (the kernel is single-threaded).
pub type TraceSink = Rc<RefCell<TraceFile>>;

/// Tag base for thread-team join notifications (see flatten).
use crate::flatten::JOIN_BASE;

/// State of an in-flight blocking operation.
enum Pending {
    None,
    /// Waiting for a message matching `(src, tag)`.
    Recv {
        src: usize,
        tag: i64,
        element: Arc<str>,
    },
    /// Received a message whose Hockney arrival is in the future; holding
    /// until then. The element name is recorded as `MsgRecv` on wake.
    ArrivalHold(Option<Arc<str>>),
    /// Waiting for `remaining` join notifications with `tag`.
    Join {
        remaining: usize,
        tag: i64,
        element: Arc<str>,
    },
}

/// A replaying process: one per MPI rank, and one per team thread.
pub struct OpProcess {
    /// MPI rank.
    pub pid: usize,
    /// Thread id (0 = the rank's master flow).
    pub tid: usize,
    /// Shared (possibly cache-resident) op list this flow replays; the
    /// interpreter never mutates or consumes it, so one elaboration can
    /// serve any number of evaluations.
    ops: Arc<[PrimOp]>,
    ip: usize,
    cpu: FacilityId,
    /// Mailbox of every rank (index = rank).
    mailboxes: Rc<Vec<MailboxId>>,
    /// This flow's receive mailbox: the rank mailbox for masters, a
    /// dedicated one for join coordination inside thread parents.
    my_mailbox: MailboxId,
    comm: CommModel,
    trace: Option<TraceSink>,
    /// One 1-server facility per `<<critical+>>` lock of this rank.
    locks: Rc<Vec<FacilityId>>,
    /// Where to notify on completion (thread flows only).
    notify: Option<(MailboxId, i64)>,
    pending: Pending,
    /// Unexpected-message queue (MPI-style out-of-order arrival stash).
    stash: Vec<Msg>,
    /// Monotone region counter for join tags.
    region_seq: i64,
    send_overhead: f64,
    /// Fatal mismatch message (reported via panic-free path: the kernel's
    /// deadlock/termination reporting).
    pub error: Rc<RefCell<Option<String>>>,
}

impl OpProcess {
    /// Build a master process for `pid`.
    #[allow(clippy::too_many_arguments)]
    pub fn master(
        pid: usize,
        ops: Arc<[PrimOp]>,
        cpu: FacilityId,
        mailboxes: Rc<Vec<MailboxId>>,
        comm: CommModel,
        trace: Option<TraceSink>,
        locks: Rc<Vec<FacilityId>>,
        error: Rc<RefCell<Option<String>>>,
    ) -> Self {
        let my_mailbox = mailboxes[pid];
        Self {
            pid,
            tid: 0,
            ops,
            ip: 0,
            cpu,
            mailboxes,
            my_mailbox,
            comm,
            trace,
            locks,
            notify: None,
            pending: Pending::None,
            stash: Vec::new(),
            region_seq: 0,
            send_overhead: comm.params.send_overhead,
            error,
        }
    }

    fn child(&self, tid: usize, ops: Vec<PrimOp>, notify: (MailboxId, i64)) -> Self {
        Self {
            pid: self.pid,
            tid,
            ops: ops.into(),
            ip: 0,
            cpu: self.cpu,
            mailboxes: Rc::clone(&self.mailboxes),
            my_mailbox: self.my_mailbox, // unused by threads (no recv)
            comm: self.comm,
            trace: self.trace.clone(),
            locks: Rc::clone(&self.locks),
            notify: Some(notify),
            pending: Pending::None,
            stash: Vec::new(),
            region_seq: 0,
            send_overhead: self.send_overhead,
            error: Rc::clone(&self.error),
        }
    }

    fn record(&self, time: f64, element: &str, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.borrow_mut().push(TraceEvent {
                time,
                pid: self.pid,
                tid: self.tid,
                element: element.to_string(),
                kind,
            });
        }
    }

    fn fail(&mut self, ctx: &mut ProcCtx<'_>, message: String) -> Action {
        let mut slot = self.error.borrow_mut();
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
        msg.from == ProcessId(usize::MAX) // never true; placeholder
            || (msg.tag == tag && msg.payload as usize == src)
    }

    /// Handle a delivered message against the pending receive. Returns the
    /// next action (continue execution, keep waiting, or hold for the
    /// Hockney arrival time).
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, msg: Msg) -> Action {
        let Pending::Recv { src, tag, element } =
            std::mem::replace(&mut self.pending, Pending::None)
        else {
            return self.fail(
                ctx,
                format!("unexpected message (tag {}) delivered", msg.tag),
            );
        };
        if !Self::matches(&msg, src, tag) {
            // Out-of-order arrival: stash it and keep waiting.
            self.stash.push(msg);
            self.pending = Pending::Recv { src, tag, element };
            return Action::Receive(self.my_mailbox);
        }
        self.complete_recv(ctx, msg, src, tag, element)
    }

    fn complete_recv(
        &mut self,
        ctx: &mut ProcCtx<'_>,
        msg: Msg,
        src: usize,
        _tag: i64,
        element: Arc<str>,
    ) -> Action {
        // Data messages experience Hockney transfer time; control
        // messages (tag < 0, zero bytes) are instantaneous.
        let arrival = if msg.size_bytes > 0 {
            msg.sent_at + self.comm.ptp_time(src, self.pid, msg.size_bytes)
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
            self.record(now, &el, EventKind::MsgRecv);
        }
        self.run(ctx)
    }

    /// Try to satisfy the pending receive from the stash.
    fn try_stash(&mut self, ctx: &mut ProcCtx<'_>) -> Option<Action> {
        let Pending::Recv {
            src,
            tag,
            ref element,
        } = self.pending
        else {
            return None;
        };
        let element = element.clone();
        if let Some(pos) = self.stash.iter().position(|m| Self::matches(m, src, tag)) {
            let msg = self.stash.remove(pos);
            self.pending = Pending::None;
            return Some(self.complete_recv(ctx, msg, src, tag, element));
        }
        None
    }

    /// Main dispatch: execute ops until one blocks.
    fn run(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        loop {
            if self.error.borrow().is_some() {
                return Action::Terminate;
            }
            let Some(op) = self.ops.get(self.ip).cloned() else {
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
            self.ip += 1;
            match op {
                PrimOp::Enter(name) => {
                    self.record(ctx.now(), &name, EventKind::Enter);
                }
                PrimOp::Exit(name) => {
                    self.record(ctx.now(), &name, EventKind::Exit);
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
                        self.record(ctx.now(), &element, EventKind::MsgSend);
                    }
                    let mbox = self.mailboxes[dest];
                    ctx.send(
                        mbox,
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
                    if bytes > 0 && self.send_overhead > 0.0 {
                        return Action::Hold(self.send_overhead);
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
                PrimOp::Threads { element, arms } => {
                    let tag = JOIN_BASE - self.region_seq;
                    self.region_seq += 1;
                    let n = arms.len();
                    for (t, arm_ops) in arms.into_iter().enumerate() {
                        let child = self.child(t, arm_ops, (self.my_mailbox, tag));
                        ctx.spawn(
                            &format!("p{}.{}.t{}", self.pid, element, t),
                            Box::new(child),
                        );
                    }
                    if n > 0 {
                        self.pending = Pending::Join {
                            remaining: n,
                            tag,
                            element,
                        };
                        return Action::Receive(self.my_mailbox);
                    }
                }
                PrimOp::Lock(id) => {
                    return Action::Reserve(self.locks[id]);
                }
                PrimOp::Unlock(id) => {
                    ctx.release(self.locks[id]);
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
                            self.record(ctx.now(), &el, EventKind::MsgRecv);
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
            Resumed::MsgReceived(msg) => {
                match std::mem::replace(&mut self.pending, Pending::None) {
                    Pending::Join {
                        remaining,
                        tag,
                        element,
                    } => {
                        if msg.tag != tag {
                            // A data message arrived during the join: stash.
                            self.stash.push(msg);
                            self.pending = Pending::Join {
                                remaining,
                                tag,
                                element,
                            };
                            return Action::Receive(self.my_mailbox);
                        }
                        if remaining > 1 {
                            self.pending = Pending::Join {
                                remaining: remaining - 1,
                                tag,
                                element,
                            };
                            return Action::Receive(self.my_mailbox);
                        }
                        self.run(ctx)
                    }
                    Pending::Recv { src, tag, element } => {
                        self.pending = Pending::Recv { src, tag, element };
                        self.on_message(ctx, msg)
                    }
                    _ => self.fail(ctx, format!("unexpected message (tag {})", msg.tag)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The interpreter is exercised end-to-end through the estimator tests;
    // unit tests here cover the message-matching helper.
    use super::*;

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
