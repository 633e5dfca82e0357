//! Facilities: multi-server resources with queuing (CSIM `facility`).
//!
//! A facility models a service center — a CPU, a memory port, an
//! interconnect link. Processes `reserve` a server (possibly waiting in
//! the facility queue), hold it for their service time, and `release` it.

use crate::kernel::ProcessId;
use crate::stats::{Tally, TimeWeighted};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Waiter {
    pid: ProcessId,
    enqueued_at: f64,
}

/// Per-facility statistics snapshot.
#[derive(Debug, Clone)]
pub struct FacilityStats {
    /// Facility name.
    pub name: String,
    /// Number of servers.
    pub servers: usize,
    /// Completed reservations (release count).
    pub completions: u64,
    /// Time-weighted mean number of busy servers.
    pub mean_busy: f64,
    /// Utilization: mean busy / servers.
    pub utilization: f64,
    /// Time-weighted mean queue length (waiting, not in service).
    pub mean_queue_len: f64,
    /// Mean time waiting in queue before service.
    pub mean_wait: f64,
    /// Max observed queue length.
    pub max_queue_len: f64,
    /// Total busy server-seconds.
    pub busy_integral: f64,
}

/// A multi-server service facility with one first-come first-served
/// queue (CSIM's default discipline).
#[derive(Debug)]
pub struct Facility {
    name: String,
    servers: Vec<Option<ProcessId>>,
    queue: VecDeque<Waiter>,
    busy: TimeWeighted,
    queue_len: TimeWeighted,
    waits: Tally,
    completions: u64,
}

impl Facility {
    /// Create a facility with `servers` identical servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "a facility needs at least one server");
        Self {
            name: name.into(),
            servers: vec![None; servers],
            queue: VecDeque::new(),
            busy: TimeWeighted::new(0.0, 0.0),
            queue_len: TimeWeighted::new(0.0, 0.0),
            waits: Tally::new(),
            completions: 0,
        }
    }

    /// Facility name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of busy servers.
    pub fn busy_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_some()).count()
    }

    /// Current queue length (waiting processes).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Attempt to reserve a server for `pid` at time `now`.
    ///
    /// Returns `true` if granted immediately; otherwise the process is
    /// queued and will be granted by a future [`Facility::release`].
    pub fn reserve(&mut self, pid: ProcessId, now: f64) -> bool {
        if let Some(slot) = self.servers.iter_mut().find(|s| s.is_none()) {
            *slot = Some(pid);
            self.busy.add(1.0, now);
            self.waits.record(0.0);
            true
        } else {
            self.queue.push_back(Waiter {
                pid,
                enqueued_at: now,
            });
            self.queue_len.add(1.0, now);
            false
        }
    }

    /// Release the server held by `pid` at time `now`.
    ///
    /// Returns the next process granted the freed server, if any.
    ///
    /// # Errors
    /// Returns an error if `pid` holds no server here — releasing a
    /// facility you don't hold is a model bug worth surfacing.
    pub fn release(&mut self, pid: ProcessId, now: f64) -> Result<Option<ProcessId>, String> {
        let Some(slot) = self.servers.iter_mut().find(|s| **s == Some(pid)) else {
            return Err(format!(
                "process {pid:?} does not hold a server of facility `{}`",
                self.name
            ));
        };
        *slot = None;
        self.completions += 1;
        match self.queue.pop_front() {
            Some(w) => {
                // Server stays busy: hand it to the next waiter directly.
                *self
                    .servers
                    .iter_mut()
                    .find(|s| s.is_none())
                    .expect("freed above") = Some(w.pid);
                self.queue_len.add(-1.0, now);
                self.waits.record(now - w.enqueued_at);
                Ok(Some(w.pid))
            }
            None => {
                self.busy.add(-1.0, now);
                Ok(None)
            }
        }
    }

    /// True if `pid` currently holds a server.
    pub fn holds(&self, pid: ProcessId) -> bool {
        self.servers.contains(&Some(pid))
    }

    /// Snapshot statistics at time `now`.
    pub fn stats(&self, now: f64) -> FacilityStats {
        let mean_busy = self.busy.mean(now);
        FacilityStats {
            name: self.name.clone(),
            servers: self.servers.len(),
            completions: self.completions,
            mean_busy,
            utilization: mean_busy / self.servers.len() as f64,
            mean_queue_len: self.queue_len.mean(now),
            mean_wait: self.waits.mean(),
            max_queue_len: self.queue_len.max(),
            busy_integral: self.busy.integral(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId(n as usize)
    }

    #[test]
    fn immediate_grant_until_full() {
        let mut f = Facility::new("cpu", 2);
        assert!(f.reserve(pid(1), 0.0));
        assert!(f.reserve(pid(2), 0.0));
        assert!(!f.reserve(pid(3), 0.0));
        assert_eq!(f.busy_count(), 2);
        assert_eq!(f.queue_len(), 1);
    }

    #[test]
    fn release_grants_fifo() {
        let mut f = Facility::new("cpu", 1);
        assert!(f.reserve(pid(1), 0.0));
        assert!(!f.reserve(pid(2), 1.0));
        assert!(!f.reserve(pid(3), 2.0));
        let next = f.release(pid(1), 5.0).unwrap();
        assert_eq!(next, Some(pid(2)));
        let next = f.release(pid(2), 6.0).unwrap();
        assert_eq!(next, Some(pid(3)));
        let next = f.release(pid(3), 7.0).unwrap();
        assert_eq!(next, None);
        assert_eq!(f.busy_count(), 0);
    }

    #[test]
    fn release_without_hold_is_error() {
        let mut f = Facility::new("cpu", 1);
        assert!(f.release(pid(9), 0.0).is_err());
    }

    #[test]
    fn utilization_accounting() {
        let mut f = Facility::new("cpu", 1);
        assert!(f.reserve(pid(1), 0.0));
        f.release(pid(1), 4.0).unwrap();
        // Busy 4 of 8 seconds.
        let s = f.stats(8.0);
        assert!((s.utilization - 0.5).abs() < 1e-12, "{}", s.utilization);
        assert_eq!(s.completions, 1);
        assert_eq!(s.busy_integral, 4.0);
    }

    #[test]
    fn wait_times_recorded() {
        let mut f = Facility::new("cpu", 1);
        assert!(f.reserve(pid(1), 0.0));
        assert!(!f.reserve(pid(2), 1.0));
        f.release(pid(1), 3.0).unwrap(); // pid2 waited 2.0
        let s = f.stats(3.0);
        // waits: 0.0 (pid1 immediate) and 2.0 (pid2)
        assert!((s.mean_wait - 1.0).abs() < 1e-12);
    }

    #[test]
    fn holds_query() {
        let mut f = Facility::new("cpu", 1);
        assert!(f.reserve(pid(1), 0.0));
        assert!(f.holds(pid(1)));
        assert!(!f.holds(pid(2)));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Facility::new("bad", 0);
    }
}
