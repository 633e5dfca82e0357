//! The simulation kernel: processes, the event loop, and synchronization.
//!
//! See the crate docs for the execution model. In brief: a [`Process`] is a
//! resumable state machine; [`Simulator::run`] pops calendar entries,
//! resumes the target process with the wake-up reason ([`Resumed`]), and
//! translates the returned blocking [`Action`] into calendar entries or
//! waits on facilities/mailboxes.

use crate::calendar::BinaryHeapCalendar;
use crate::facility::{Facility, FacilityStats};
use crate::mailbox::{Mailbox, Msg};
use crate::time::SimTime;
use std::fmt;

/// Identifies a process within one [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

/// Identifies a facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FacilityId(pub usize);

/// Identifies a mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MailboxId(pub usize);

/// Why a process was resumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resumed {
    /// First activation.
    Start,
    /// A previous [`Action::Hold`] elapsed.
    HoldDone,
    /// A previous [`Action::Reserve`] was granted.
    Granted(FacilityId),
    /// A previous [`Action::Use`] completed (reserve + hold + release).
    UseDone(FacilityId),
    /// A previous [`Action::Receive`] completed with this message.
    MsgReceived(Msg),
}

/// The blocking request a process returns from [`Process::resume`].
#[derive(Debug)]
pub enum Action {
    /// Advance simulated time by `dt` seconds (≥ 0).
    Hold(f64),
    /// Reserve a server of the facility (possibly queuing). The process is
    /// resumed with [`Resumed::Granted`] when it holds a server; it must
    /// later release via [`ProcCtx::release`].
    Reserve(FacilityId),
    /// Convenience: reserve a server, hold it for `dt`, release. Resumed
    /// with [`Resumed::UseDone`]. This is CSIM's `use(f, t)`.
    Use(FacilityId, f64),
    /// Block until a message is available in the mailbox.
    Receive(MailboxId),
    /// Terminate this process.
    Terminate,
}

/// A simulated process: a resumable state machine.
pub trait Process {
    /// Called by the kernel each time the process becomes runnable.
    /// Perform non-blocking effects through `ctx`, then return the next
    /// blocking [`Action`].
    fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action;
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hard cap on processed events (runaway guard).
    pub max_events: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_events: 100_000_000,
        }
    }
}

/// Errors surfaced by [`Simulator::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// All remaining processes are blocked and the calendar is empty.
    Deadlock {
        /// Human-readable description of who is blocked on what.
        blocked: Vec<String>,
        /// Time at which the simulation stalled (µs-precision string to
        /// keep Eq).
        at: String,
    },
    /// The `max_events` guard tripped.
    EventLimit(u64),
    /// A model bug: bad release, invalid id, negative hold, …
    Model(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked, at } => {
                write!(
                    f,
                    "deadlock at t={at}: {} blocked process(es): {}",
                    blocked.len(),
                    blocked.join("; ")
                )
            }
            SimError::EventLimit(n) => write!(f, "event limit of {n} exceeded"),
            SimError::Model(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Final report of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Clock value when the simulation ended.
    pub end_time: f64,
    /// Number of calendar events processed.
    pub events_processed: u64,
    /// Number of processes that ran to termination.
    pub processes_completed: usize,
    /// Number of processes spawned in total.
    pub processes_spawned: usize,
    /// Per-facility statistics.
    pub facilities: Vec<FacilityStats>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Held,
    WaitingFacility(FacilityId),
    /// Waiting for a facility in `Use` mode: grant schedules the release.
    UsingFacility(FacilityId),
    WaitingMailbox(MailboxId),
    Terminated,
}

struct ProcSlot {
    name: String,
    body: Option<Box<dyn Process>>,
    state: ProcState,
    /// Pending service time for a `Use` in progress.
    pending_use: Option<f64>,
    /// Message delivered by a send while we waited.
    inbox: Option<Msg>,
}

#[derive(Debug, PartialEq, Eq)]
enum Ev {
    Resume(ProcessId, ResumeWhy),
    /// End of a `Use` service period: release and resume the user.
    EndUse(ProcessId, FacilityId),
}

#[derive(Debug, PartialEq, Eq)]
enum ResumeWhy {
    Start,
    HoldDone,
    Granted(FacilityId),
    UseDone(FacilityId),
    Msg,
}

/// The deterministic, single-threaded simulation kernel.
pub struct Simulator {
    config: Config,
    calendar: BinaryHeapCalendar<Ev>,
    clock: SimTime,
    procs: Vec<ProcSlot>,
    facilities: Vec<Facility>,
    mailboxes: Vec<Mailbox>,
    events_processed: u64,
    /// Processes spawned during a resume, to be scheduled after it returns.
    spawn_queue: Vec<(ProcessId, SimTime)>,
    pending_error: Option<SimError>,
}

impl Simulator {
    /// Create a simulator with the given configuration.
    pub fn new(config: Config) -> Self {
        Self {
            config,
            calendar: BinaryHeapCalendar::new(),
            clock: SimTime::ZERO,
            procs: Vec::new(),
            facilities: Vec::new(),
            mailboxes: Vec::new(),
            events_processed: 0,
            spawn_queue: Vec::new(),
            pending_error: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.clock.seconds()
    }

    /// Add an FCFS facility with `servers` servers; returns its id.
    pub fn add_facility(&mut self, name: &str, servers: usize) -> FacilityId {
        self.facilities.push(Facility::new(name, servers));
        FacilityId(self.facilities.len() - 1)
    }

    /// Add a mailbox; returns its id.
    pub fn add_mailbox(&mut self, name: &str) -> MailboxId {
        self.mailboxes.push(Mailbox::new(name));
        MailboxId(self.mailboxes.len() - 1)
    }

    /// Spawn a process at the current time (before `run`, that is t=0).
    pub fn spawn(&mut self, name: &str, body: Box<dyn Process>) -> ProcessId {
        let pid = self.add_process(name, body);
        self.calendar
            .schedule(self.clock, Ev::Resume(pid, ResumeWhy::Start));
        pid
    }

    /// Register a runnable process; the caller schedules its start.
    fn add_process(&mut self, name: &str, body: Box<dyn Process>) -> ProcessId {
        self.procs.push(ProcSlot {
            name: name.to_string(),
            body: Some(body),
            state: ProcState::Runnable,
            pending_use: None,
            inbox: None,
        });
        ProcessId(self.procs.len() - 1)
    }

    /// Access a mailbox (read-only) for its counters.
    pub fn mailbox(&self, id: MailboxId) -> &Mailbox {
        &self.mailboxes[id.0]
    }

    /// Run to completion (no runnable work, or `max_events`).
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        loop {
            if let Some(err) = self.pending_error.take() {
                return Err(err);
            }
            let Some(entry) = self.calendar.pop() else {
                break;
            };
            if self.events_processed >= self.config.max_events {
                return Err(SimError::EventLimit(self.config.max_events));
            }
            debug_assert!(entry.time >= self.clock, "calendar violated causality");
            self.clock = entry.time;
            self.events_processed += 1;
            match entry.payload {
                Ev::Resume(pid, why) => self.do_resume(pid, why),
                Ev::EndUse(pid, fid) => self.end_use(pid, fid),
            }
        }
        // Anything still non-terminated is deadlocked.
        let blocked: Vec<String> = self
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Terminated)
            .map(|p| format!("{} ({})", p.name, describe_state(p.state, self)))
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                blocked,
                at: format!("{:.6}", self.clock.seconds()),
            });
        }
        Ok(SimReport {
            end_time: self.clock.seconds(),
            events_processed: self.events_processed,
            processes_completed: self
                .procs
                .iter()
                .filter(|p| p.state == ProcState::Terminated)
                .count(),
            processes_spawned: self.procs.len(),
            facilities: self
                .facilities
                .iter()
                .map(|f| f.stats(self.clock.seconds()))
                .collect(),
        })
    }

    fn do_resume(&mut self, pid: ProcessId, why: ResumeWhy) {
        let slot = &mut self.procs[pid.0];
        if slot.state == ProcState::Terminated {
            return;
        }
        let mut body = slot
            .body
            .take()
            .expect("process body present while resumable");
        let resumed = match why {
            ResumeWhy::Start => Resumed::Start,
            ResumeWhy::HoldDone => Resumed::HoldDone,
            ResumeWhy::Granted(f) => Resumed::Granted(f),
            ResumeWhy::UseDone(f) => Resumed::UseDone(f),
            ResumeWhy::Msg => {
                let msg = self.procs[pid.0].inbox.take().expect("message delivered");
                Resumed::MsgReceived(msg)
            }
        };
        let action = {
            let mut ctx = ProcCtx { sim: self, pid };
            body.resume(&mut ctx, resumed)
        };
        self.procs[pid.0].body = Some(body);
        self.apply_action(pid, action);
        // Schedule any processes spawned during the resume.
        for (spid, at) in std::mem::take(&mut self.spawn_queue) {
            self.calendar
                .schedule(at, Ev::Resume(spid, ResumeWhy::Start));
        }
    }

    fn apply_action(&mut self, pid: ProcessId, action: Action) {
        let now = self.clock.seconds();
        match action {
            Action::Hold(dt) => {
                if !(dt.is_finite() && dt >= 0.0) {
                    self.fail(format!(
                        "process `{}` requested invalid hold of {dt}",
                        self.procs[pid.0].name
                    ));
                    return;
                }
                self.procs[pid.0].state = ProcState::Held;
                self.calendar
                    .schedule(self.clock + dt, Ev::Resume(pid, ResumeWhy::HoldDone));
            }
            Action::Reserve(fid) => {
                if fid.0 >= self.facilities.len() {
                    self.fail(format!("reserve on unknown facility {fid:?}"));
                    return;
                }
                if self.facilities[fid.0].reserve(pid, now) {
                    self.procs[pid.0].state = ProcState::Runnable;
                    self.calendar
                        .schedule(self.clock, Ev::Resume(pid, ResumeWhy::Granted(fid)));
                } else {
                    self.procs[pid.0].state = ProcState::WaitingFacility(fid);
                }
            }
            Action::Use(fid, dt) => {
                if fid.0 >= self.facilities.len() {
                    self.fail(format!("use of unknown facility {fid:?}"));
                    return;
                }
                if !(dt.is_finite() && dt >= 0.0) {
                    self.fail(format!(
                        "process `{}` requested invalid use time {dt}",
                        self.procs[pid.0].name
                    ));
                    return;
                }
                self.procs[pid.0].pending_use = Some(dt);
                if self.facilities[fid.0].reserve(pid, now) {
                    self.procs[pid.0].pending_use = None;
                    self.procs[pid.0].state = ProcState::Held;
                    self.calendar
                        .schedule(self.clock + dt, Ev::EndUse(pid, fid));
                } else {
                    self.procs[pid.0].state = ProcState::UsingFacility(fid);
                }
            }
            Action::Receive(mid) => {
                if mid.0 >= self.mailboxes.len() {
                    self.fail(format!("receive on unknown mailbox {mid:?}"));
                    return;
                }
                match self.mailboxes[mid.0].receive(pid) {
                    Some(msg) => {
                        self.procs[pid.0].inbox = Some(msg);
                        self.procs[pid.0].state = ProcState::Runnable;
                        self.calendar
                            .schedule(self.clock, Ev::Resume(pid, ResumeWhy::Msg));
                    }
                    None => {
                        self.procs[pid.0].state = ProcState::WaitingMailbox(mid);
                    }
                }
            }
            Action::Terminate => {
                self.procs[pid.0].state = ProcState::Terminated;
                self.procs[pid.0].body = None;
            }
        }
    }

    fn end_use(&mut self, pid: ProcessId, fid: FacilityId) {
        match self.facilities[fid.0].release(pid, self.clock.seconds()) {
            Ok(next) => {
                if let Some(next_pid) = next {
                    self.grant_after_wait(next_pid, fid);
                }
                self.do_resume(pid, ResumeWhy::UseDone(fid));
            }
            Err(e) => self.fail(e),
        }
    }

    /// A facility handed a freed server to `pid` (who was queued).
    fn grant_after_wait(&mut self, pid: ProcessId, fid: FacilityId) {
        match self.procs[pid.0].state {
            ProcState::WaitingFacility(f) if f == fid => {
                self.procs[pid.0].state = ProcState::Runnable;
                self.calendar
                    .schedule(self.clock, Ev::Resume(pid, ResumeWhy::Granted(fid)));
            }
            ProcState::UsingFacility(f) if f == fid => {
                let dt = self.procs[pid.0]
                    .pending_use
                    .take()
                    .expect("pending use time");
                self.procs[pid.0].state = ProcState::Held;
                self.calendar
                    .schedule(self.clock + dt, Ev::EndUse(pid, fid));
            }
            other => {
                panic!("facility {fid:?} granted to process {pid:?} in unexpected state {other:?}")
            }
        }
    }

    fn fail(&mut self, message: String) {
        if self.pending_error.is_none() {
            self.pending_error = Some(SimError::Model(message));
        }
    }
}

fn describe_state(state: ProcState, sim: &Simulator) -> String {
    match state {
        ProcState::Runnable => "runnable".into(),
        ProcState::Held => "holding".into(),
        ProcState::WaitingFacility(f) | ProcState::UsingFacility(f) => {
            format!("waiting for facility `{}`", sim.facilities[f.0].name())
        }
        ProcState::WaitingMailbox(m) => {
            format!("waiting on mailbox `{}`", sim.mailboxes[m.0].name())
        }
        ProcState::Terminated => "terminated".into(),
    }
}

/// The non-blocking interface a process uses during [`Process::resume`].
pub struct ProcCtx<'a> {
    sim: &'a mut Simulator,
    pid: ProcessId,
}

impl<'a> ProcCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.sim.clock.seconds()
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's name.
    pub fn name(&self) -> &str {
        &self.sim.procs[self.pid.0].name
    }

    /// Spawn a new process at the current time. It first runs after the
    /// current resume returns.
    pub fn spawn(&mut self, name: &str, body: Box<dyn Process>) -> ProcessId {
        let pid = self.sim.add_process(name, body);
        self.sim.spawn_queue.push((pid, self.sim.clock));
        pid
    }

    /// Send a message (non-blocking). Wakes a waiting receiver if present.
    pub fn send(&mut self, mailbox: MailboxId, mut msg: Msg) {
        msg.sent_at = self.now();
        msg.from = self.pid;
        if let Some((receiver, msg)) = self.sim.mailboxes[mailbox.0].send(msg) {
            self.sim.procs[receiver.0].inbox = Some(msg);
            self.sim.procs[receiver.0].state = ProcState::Runnable;
            self.sim
                .calendar
                .schedule(self.sim.clock, Ev::Resume(receiver, ResumeWhy::Msg));
        }
    }

    /// Release a facility server previously obtained via
    /// [`Action::Reserve`]. Model errors (releasing something not held)
    /// abort the run.
    pub fn release(&mut self, facility: FacilityId) {
        let now = self.now();
        match self.sim.facilities[facility.0].release(self.pid, now) {
            Ok(Some(next)) => self.sim.grant_after_wait(next, facility),
            Ok(None) => {}
            Err(e) => self.sim.fail(e),
        }
    }
}

/// Convenience: run a list of simple closure-driven processes. Each entry
/// is `(name, script)` where `script` is a sequence of actions replayed in
/// order; the process terminates after the last one.
///
/// This is sugar for tests and examples; real models implement
/// [`Process`].
pub fn run_scripts(
    config: Config,
    setup: impl FnOnce(&mut Simulator) -> Vec<(String, Vec<Action>)>,
) -> Result<SimReport, SimError> {
    struct Scripted {
        actions: std::vec::IntoIter<Action>,
    }
    impl Process for Scripted {
        fn resume(&mut self, _ctx: &mut ProcCtx<'_>, _why: Resumed) -> Action {
            self.actions.next().unwrap_or(Action::Terminate)
        }
    }
    let mut sim = Simulator::new(config);
    for (name, actions) in setup(&mut sim) {
        sim.spawn(
            &name,
            Box::new(Scripted {
                actions: actions.into_iter(),
            }),
        );
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hold() {
        let report = run_scripts(Config::default(), |_| {
            vec![("p".into(), vec![Action::Hold(2.5)])]
        })
        .unwrap();
        assert_eq!(report.end_time, 2.5);
        assert_eq!(report.processes_completed, 1);
    }

    #[test]
    fn holds_accumulate() {
        let report = run_scripts(Config::default(), |_| {
            vec![(
                "p".into(),
                vec![Action::Hold(1.0), Action::Hold(2.0), Action::Hold(0.5)],
            )]
        })
        .unwrap();
        assert_eq!(report.end_time, 3.5);
    }

    #[test]
    fn parallel_processes_max_time() {
        let report = run_scripts(Config::default(), |_| {
            vec![
                ("a".into(), vec![Action::Hold(1.0)]),
                ("b".into(), vec![Action::Hold(5.0)]),
                ("c".into(), vec![Action::Hold(3.0)]),
            ]
        })
        .unwrap();
        assert_eq!(report.end_time, 5.0);
        assert_eq!(report.processes_completed, 3);
    }

    #[test]
    fn facility_serializes_users() {
        // Two processes each use a 1-server CPU for 2s: total 4s.
        let mut sim = Simulator::new(Config::default());
        let cpu = sim.add_facility("cpu", 1);
        struct User {
            cpu: FacilityId,
        }
        impl Process for User {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => Action::Use(self.cpu, 2.0),
                    _ => Action::Terminate,
                }
            }
        }
        sim.spawn("u1", Box::new(User { cpu }));
        sim.spawn("u2", Box::new(User { cpu }));
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, 4.0);
        let f = &report.facilities[0];
        assert_eq!(f.completions, 2);
        assert!((f.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_server_facility_parallelizes() {
        let mut sim = Simulator::new(Config::default());
        let cpu = sim.add_facility("cpu", 2);
        struct User {
            cpu: FacilityId,
        }
        impl Process for User {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => Action::Use(self.cpu, 2.0),
                    _ => Action::Terminate,
                }
            }
        }
        for i in 0..4 {
            sim.spawn(&format!("u{i}"), Box::new(User { cpu }));
        }
        let report = sim.run().unwrap();
        // 4 × 2s of work over 2 servers = 4s wall-clock.
        assert_eq!(report.end_time, 4.0);
    }

    #[test]
    fn reserve_release_cycle() {
        let mut sim = Simulator::new(Config::default());
        let cpu = sim.add_facility("cpu", 1);
        struct User {
            cpu: FacilityId,
        }
        impl Process for User {
            fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => Action::Reserve(self.cpu),
                    Resumed::Granted(f) => {
                        assert_eq!(f, self.cpu);
                        Action::Hold(1.0)
                    }
                    Resumed::HoldDone => {
                        ctx.release(self.cpu);
                        Action::Terminate
                    }
                    other => panic!("unexpected resume {other:?}"),
                }
            }
        }
        sim.spawn("u1", Box::new(User { cpu }));
        sim.spawn("u2", Box::new(User { cpu }));
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, 2.0);
    }

    #[test]
    fn message_ping_pong() {
        let mut sim = Simulator::new(Config::default());
        let a2b = sim.add_mailbox("a2b");
        let b2a = sim.add_mailbox("b2a");

        struct Ping {
            a2b: MailboxId,
            b2a: MailboxId,
            rounds: u32,
        }
        impl Process for Ping {
            fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start | Resumed::MsgReceived(_) => {
                        if self.rounds == 0 {
                            return Action::Terminate;
                        }
                        self.rounds -= 1;
                        ctx.send(
                            self.a2b,
                            Msg {
                                from: ctx.pid(),
                                tag: 0,
                                payload: 0.0,
                                size_bytes: 8,
                                sent_at: 0.0,
                            },
                        );
                        Action::Receive(self.b2a)
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        struct Pong {
            a2b: MailboxId,
            b2a: MailboxId,
            rounds: u32,
        }
        impl Process for Pong {
            fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => Action::Receive(self.a2b),
                    Resumed::MsgReceived(_) => {
                        self.rounds -= 1;
                        ctx.send(
                            self.b2a,
                            Msg {
                                from: ctx.pid(),
                                tag: 0,
                                payload: 0.0,
                                size_bytes: 8,
                                sent_at: 0.0,
                            },
                        );
                        if self.rounds == 0 {
                            Action::Terminate
                        } else {
                            Action::Receive(self.a2b)
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        sim.spawn(
            "ping",
            Box::new(Ping {
                a2b,
                b2a,
                rounds: 10,
            }),
        );
        sim.spawn(
            "pong",
            Box::new(Pong {
                a2b,
                b2a,
                rounds: 10,
            }),
        );
        let report = sim.run().unwrap();
        assert_eq!(report.processes_completed, 2);
        assert_eq!(sim.mailbox(a2b).send_count(), 10);
        assert_eq!(sim.mailbox(b2a).send_count(), 10);
    }

    #[test]
    fn deadlock_detected_with_names() {
        let mut sim = Simulator::new(Config::default());
        let mb = sim.add_mailbox("never");
        struct Stuck {
            mb: MailboxId,
        }
        impl Process for Stuck {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, _why: Resumed) -> Action {
                Action::Receive(self.mb)
            }
        }
        sim.spawn("stuck-proc", Box::new(Stuck { mb }));
        let err = sim.run().unwrap_err();
        match err {
            SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert!(blocked[0].contains("stuck-proc"));
                assert!(blocked[0].contains("never"));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn event_limit_guard() {
        let mut sim = Simulator::new(Config { max_events: 10 });
        struct Spinner;
        impl Process for Spinner {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, _why: Resumed) -> Action {
                Action::Hold(0.001)
            }
        }
        sim.spawn("spin", Box::new(Spinner));
        assert_eq!(sim.run().unwrap_err(), SimError::EventLimit(10));
    }

    #[test]
    fn negative_hold_is_model_error() {
        let mut sim = Simulator::new(Config::default());
        struct Bad;
        impl Process for Bad {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, _why: Resumed) -> Action {
                Action::Hold(-1.0)
            }
        }
        sim.spawn("bad", Box::new(Bad));
        match sim.run().unwrap_err() {
            SimError::Model(m) => assert!(m.contains("invalid hold")),
            other => panic!("expected model error, got {other}"),
        }
    }

    #[test]
    fn spawn_from_process() {
        let mut sim = Simulator::new(Config::default());
        struct Parent;
        struct Child;
        impl Process for Child {
            fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => Action::Hold(2.0),
                    _ => Action::Terminate,
                }
            }
        }
        impl Process for Parent {
            fn resume(&mut self, ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                match why {
                    Resumed::Start => {
                        ctx.spawn("child-a", Box::new(Child));
                        ctx.spawn("child-b", Box::new(Child));
                        Action::Hold(1.0)
                    }
                    _ => Action::Terminate,
                }
            }
        }
        sim.spawn("parent", Box::new(Parent));
        let report = sim.run().unwrap();
        assert_eq!(report.processes_spawned, 3);
        assert_eq!(report.processes_completed, 3);
        assert_eq!(report.end_time, 2.0);
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> (f64, u64) {
            let mut sim = Simulator::new(Config::default());
            let cpu = sim.add_facility("cpu", 2);
            // Eight processes with distinct service times contend for
            // two servers, so the run is full of same-time ties.
            struct Staggered {
                cpu: FacilityId,
                service: f64,
                left: u32,
            }
            impl Process for Staggered {
                fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
                    match why {
                        Resumed::Start | Resumed::UseDone(_) => {
                            if self.left == 0 {
                                return Action::Terminate;
                            }
                            self.left -= 1;
                            Action::Use(self.cpu, self.service)
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            for i in 0..8 {
                let service = 0.1 * (1 + i % 3) as f64;
                sim.spawn(
                    &format!("n{i}"),
                    Box::new(Staggered {
                        cpu,
                        service,
                        left: 20,
                    }),
                );
            }
            let r = sim.run().unwrap();
            (r.end_time, r.events_processed)
        }
        assert_eq!(run_once(), run_once());
    }
}
