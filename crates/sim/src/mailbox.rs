//! Mailboxes: typed message queues (CSIM `mailbox`), used by the machine
//! model to carry simulated MPI messages.

use crate::kernel::ProcessId;
use std::collections::VecDeque;

/// A simulated message.
///
/// `payload`/`tag` are free for the model's use (the machine model stores
/// the MPI tag and a numeric payload); `size_bytes` feeds the communication
/// cost model; `sent_at` lets receivers account message latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msg {
    /// Sending process.
    pub from: ProcessId,
    /// Model-defined tag (e.g. MPI tag).
    pub tag: i64,
    /// Model-defined numeric payload.
    pub payload: f64,
    /// Message size in bytes (drives the Hockney cost model).
    pub size_bytes: u64,
    /// Simulation time at which the message entered the mailbox.
    pub sent_at: f64,
}

/// A FIFO mailbox with blocking receive.
#[derive(Debug)]
pub struct Mailbox {
    name: String,
    messages: VecDeque<Msg>,
    waiters: VecDeque<ProcessId>,
    sends: u64,
    receives: u64,
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            messages: VecDeque::new(),
            waiters: VecDeque::new(),
            sends: 0,
            receives: 0,
        }
    }

    /// Mailbox name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Deposit a message. If a receiver is waiting, returns
    /// `Some((receiver, msg))` — the kernel must resume that receiver and
    /// hand it the message.
    pub fn send(&mut self, msg: Msg) -> Option<(ProcessId, Msg)> {
        self.sends += 1;
        if let Some(waiter) = self.waiters.pop_front() {
            self.receives += 1;
            Some((waiter, msg))
        } else {
            self.messages.push_back(msg);
            None
        }
    }

    /// Try to receive for `pid`. Returns a message if one is queued;
    /// otherwise registers `pid` as a waiter.
    pub fn receive(&mut self, pid: ProcessId) -> Option<Msg> {
        if let Some(msg) = self.messages.pop_front() {
            self.receives += 1;
            Some(msg)
        } else {
            self.waiters.push_back(pid);
            None
        }
    }

    /// Queued (undelivered) message count.
    pub fn queued(&self) -> usize {
        self.messages.len()
    }

    /// Waiting receiver count.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Total send count.
    pub fn send_count(&self) -> u64 {
        self.sends
    }

    /// Total completed receive count.
    pub fn receive_count(&self) -> u64 {
        self.receives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: usize) -> ProcessId {
        ProcessId(n)
    }

    fn msg(from: usize, tag: i64, at: f64) -> Msg {
        Msg {
            from: pid(from),
            tag,
            payload: 0.0,
            size_bytes: 8,
            sent_at: at,
        }
    }

    #[test]
    fn send_then_receive() {
        let mut mb = Mailbox::new("ch");
        assert!(mb.send(msg(1, 7, 0.0)).is_none());
        assert_eq!(mb.queued(), 1);
        let m = mb.receive(pid(2)).unwrap();
        assert_eq!(m.tag, 7);
        assert_eq!(mb.queued(), 0);
    }

    #[test]
    fn receive_blocks_until_send() {
        let mut mb = Mailbox::new("ch");
        assert!(mb.receive(pid(2)).is_none());
        assert_eq!(mb.waiting(), 1);
        let handoff = mb.send(msg(1, 3, 1.0));
        assert_eq!(handoff, Some((pid(2), msg(1, 3, 1.0))));
        assert_eq!(mb.waiting(), 0);
    }

    #[test]
    fn fifo_message_order() {
        let mut mb = Mailbox::new("ch");
        mb.send(msg(1, 1, 0.0));
        mb.send(msg(1, 2, 0.0));
        assert_eq!(mb.receive(pid(2)).unwrap().tag, 1);
        assert_eq!(mb.receive(pid(2)).unwrap().tag, 2);
    }

    #[test]
    fn fifo_waiter_order() {
        let mut mb = Mailbox::new("ch");
        assert!(mb.receive(pid(10)).is_none());
        assert!(mb.receive(pid(11)).is_none());
        assert_eq!(mb.send(msg(1, 1, 0.0)).unwrap().0, pid(10));
        assert_eq!(mb.send(msg(1, 2, 0.0)).unwrap().0, pid(11));
    }

    #[test]
    fn counts() {
        let mut mb = Mailbox::new("ch");
        mb.send(msg(1, 1, 0.0));
        mb.receive(pid(2));
        assert_eq!(mb.send_count(), 1);
        assert_eq!(mb.receive_count(), 1);
    }
}
