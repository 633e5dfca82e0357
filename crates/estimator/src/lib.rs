//! # prophet-estimator
//!
//! The **Performance Estimator** of the Performance Prophet architecture
//! (Pllana et al., ICPP-W 2008, Figure 2): "The Performance Estimator
//! estimates the performance of a parallel and distributed program on a
//! target computer architecture. … The program model is integrated with
//! the machine model to create the model of the whole computer system.
//! The Performance Estimator evaluates the integrated model of computing
//! system and generates the corresponding performance results."
//!
//! * [`program`] — the executable **Program IR**: the machine-efficient
//!   representation the UML model is transformed into (the role the C++
//!   PMP plays in the original; prophet-core lowers the same flow tree to
//!   both),
//! * [`flatten`] — per-process elaboration: walks the IR for each MPI
//!   process, evaluating code fragments, guards, loop counts and cost
//!   functions eagerly over the program's [`Resolved`] names (resolved
//!   once per [`Program`], so evaluation indexes a slot frame and never
//!   looks a name up), producing a list of primitive timed operations
//!   (compute / send / recv / collective / thread team) in one of two
//!   [`ElabForm`]s: the traced form carries the `Enter`/`Exit` markers a
//!   traced simulation writes to the trace file, the lean form omits
//!   them and serves every other evaluation. An op names its element by
//!   an [`ElementId`] of the program's [`ElementNames`], numbered once by
//!   [`Program::resolve`],
//! * [`elab`] — memoized elaboration: [`elab::ElaborationCache`] interns
//!   the flattened op lists per `(SP, comm, limits, form)` content key
//!   as one shared [`Elaboration`] each, so R untraced sweeps over S SP
//!   points on both backends flatten S times, not S×R×2 (the sweep hot
//!   path was elaboration-dominated; see `bench_analytic`/`bench_sweep`),
//! * [`interp`] — the simulation process that replays primitive ops on
//!   the CSIM-substitute engine (CPU facilities, mailboxes),
//! * [`analytic`] — the closed-form backend's semantics: the same op
//!   lists resolved by a critical-path pass with no DES kernel (and no
//!   trace), as a reference walker that tests and benches compare the
//!   batch replay against; the DES stays the independent oracle,
//! * [`batch`] — the analytic evaluator: one lean elaboration compiled
//!   into a compact structure-of-arrays replay (locks dropped, messages
//!   matched statically, costs pre-priced) and evaluated per SP point
//!   into reusable scratch — bit-identical to the [`analytic`] walker
//!   by construction, and the only analytic path estimates and sweeps
//!   take,
//! * [`estimator`] — the driver: integrate program model + machine model,
//!   run on the selected [`Backend`] through
//!   [`Estimator::run_backend_cached`], produce a
//!   [`prophet_trace::TraceFile`] (TF, simulation only) and an
//!   [`Evaluation`].
//!
//! ## Choosing a backend
//!
//! [`Backend::Simulation`] (the default) models CPU contention through
//! FCFS facilities and records a trace — use it for single detailed
//! predictions and whenever a node is oversubscribed.
//! [`Backend::Analytic`] answers the same question in closed form — use
//! it for large SP sweeps and batches, where it is orders of magnitude
//! faster. The two agree exactly on deterministic communication-free
//! models and within 1e-9 relative on deterministic message-passing
//! models; see the [`analytic`] module docs for the full conformance
//! contract.
//!
//! ## Semantics notes
//!
//! * Point-to-point messages are *eager*: the sender pays a small CPU
//!   overhead, the receiver completes at
//!   `send_time + α + size·β` (Hockney).
//! * Collectives synchronize all ranks through zero-cost control
//!   messages, then every rank holds the analytic collective time from
//!   the machine model — semantics of a synchronizing collective with
//!   log-tree cost shape.
//! * `<<parallel+>>` regions spawn thread processes on the owning node's
//!   CPU facility; more threads than CPUs queue (real contention).
//! * Model state (globals mutated by code fragments) evolves
//!   deterministically and independently of simulated time, so it is
//!   evaluated eagerly at flatten time; inside thread teams each thread
//!   sees a private copy of the environment.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod batch;
pub mod elab;
pub mod estimator;
pub mod flatten;
pub mod interp;
mod names;
pub mod program;
mod resolve;

pub use analytic::evaluate_analytic;
pub use batch::{BatchProgram, BatchScratch};
pub use elab::{elaborate, flatten_all, ElabStats, Elaboration, ElaborationCache, RankOps};
pub use estimator::{Backend, Estimator, EstimatorError, EstimatorOptions, Evaluation};
pub use flatten::{
    flatten_for_process, flatten_invocations, op_digest, ElabForm, FlattenError, FlattenLimits,
    PrimOp,
};
pub use names::{ElementId, ElementNames};
pub use program::{MpiOp, Program, Step};
pub use resolve::Resolved;
