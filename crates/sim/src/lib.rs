//! # prophet-sim
//!
//! A process-oriented discrete-event simulation (DES) engine — the
//! substrate that replaces **CSIM** in the Performance Prophet architecture
//! (Figure 2 of Pllana et al., ICPP-W 2008: the Performance Estimator
//! evaluates the integrated program+machine model on the "CSIM Simulation
//! Engine").
//!
//! CSIM is a commercial C/C++ library; this crate re-implements the
//! primitives Performance Prophet relies on:
//!
//! * **processes** — model entities (one per simulated MPI process or
//!   OpenMP thread) that alternate between computing and waiting,
//! * **`hold(t)`** — advance a process through simulated time,
//! * **facilities** — servers with one FCFS queue each (CPUs, locks),
//!   reserved/used/released by processes,
//! * **mailboxes** — typed message queues used to model MPI messages,
//! * **statistics** — utilizations, queue lengths, waiting times.
//!
//! ## Execution model
//!
//! Rust has no built-in coroutines, so processes are written as *resumable
//! state machines*: the kernel calls [`Process::resume`] with the reason
//! the process woke up ([`Resumed`]), and the process returns the next
//! *blocking* request ([`Action`]). Non-blocking operations (sending a
//! message, releasing a facility, spawning a process) are performed
//! immediately through [`ProcCtx`]. This is the classic
//! event-driven encoding of process-oriented simulation; determinism falls
//! out for free because the kernel is single-threaded and every queue is
//! FIFO with a stable tie-break.
//!
//! ## Determinism
//!
//! Runs are reproducible bit-for-bit: the event calendar breaks time ties
//! by insertion sequence, queues are FIFO, and the kernel draws no random
//! numbers. A process that wants stochastic service times samples them
//! itself (the M/M/c validation in `tests/queueing.rs` does); the
//! estimator's processes are deterministic.
//!
//! ## Quickstart
//!
//! ```
//! use prophet_sim::{Action, Process, ProcCtx, Resumed, Simulator};
//!
//! /// A process that computes for 1.5 time units and terminates.
//! struct Worker;
//! impl Process for Worker {
//!     fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
//!         match why {
//!             Resumed::Start => Action::Hold(1.5),
//!             _ => Action::Terminate,
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Default::default());
//! sim.spawn("worker", Box::new(Worker));
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time, 1.5);
//! ```

#![forbid(unsafe_code)]

pub mod calendar;
pub mod facility;
pub mod kernel;
pub mod mailbox;
pub mod stats;
pub mod time;

pub use calendar::BinaryHeapCalendar;
pub use facility::{Facility, FacilityStats};
pub use kernel::{
    Action, Config, FacilityId, MailboxId, ProcCtx, Process, ProcessId, Resumed, SimError,
    SimReport, Simulator,
};
pub use mailbox::{Mailbox, Msg};
pub use stats::{Tally, TimeWeighted};
pub use time::SimTime;
