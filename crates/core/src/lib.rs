//! # prophet-core
//!
//! The top of the Performance Prophet stack: the paper's transformation
//! methodology wired end to end (Pllana et al., ICPP-W 2008).
//!
//! * [`transform`] — **the paper's contribution**: the automatic
//!   transformation of a UML performance model into its machine-efficient
//!   representations. One structural traversal (the Figure-6 traverser +
//!   flow recovery) feeds two backends:
//!   [`transform::to_cpp`] emits the C++ PMP text (Figure 8), and
//!   [`transform::to_program`] lowers to the executable
//!   [`prophet_estimator::Program`] IR that the Performance Estimator
//!   evaluates by simulation,
//! * [`session`] — **the engine API**: [`Session::compile`] runs check +
//!   transform exactly once; [`Session::evaluate`], [`Session::sweep`]
//!   and [`Session::batch`] then answer any number of "what if"
//!   scenarios against the immutable artifacts, in parallel. Each
//!   session owns a shared [`ElaborationCache`]: the per-rank op
//!   lists are flattened once per distinct `(SP, comm, limits)` point
//!   and form (lean for untraced evaluations, traced for traced
//!   simulations) and served to every evaluation, worker thread and
//!   backend that asks again ([`Session::elab_stats`] exposes the
//!   hit/miss counters),
//! * [`store`] — the persistent artifact store: each compiled model's
//!   canonical model and MCF XML go to a content-addressed, versioned,
//!   checksummed file ([`ArtifactStore`]), so a later process finds the
//!   models it served before. A store hit parses the stored text and
//!   compiles it (`Session::compile_stored`); corrupt, stale-format or
//!   uncompilable entries read back as clean misses,
//! * [`error`] — the unified [`Error`] enum with `source()` chaining.
//!
//! ## Quickstart
//!
//! Compile once, evaluate many scenarios:
//!
//! ```
//! use prophet_core::{mpi_grid, Scenario, Session};
//! use prophet_machine::SystemParams;
//! use prophet_uml::ModelBuilder;
//!
//! let mut b = ModelBuilder::new("demo");
//! let main = b.main_diagram();
//! let i = b.initial(main, "start");
//! let a = b.action(main, "Work", "8 / P");
//! let f = b.final_node(main, "end");
//! b.flow(main, i, a);
//! b.flow(main, a, f);
//!
//! // Check + transform happen here, exactly once.
//! let session = Session::new(b.build())?;
//!
//! // The C++ PMP is generated where it is emitted, from the model.
//! let cpp = prophet_core::to_cpp(session.model())?;
//! assert!(cpp.program.contains("work.execute"));
//!
//! // One scenario...
//! let run = session.evaluate(&Scenario::new(SystemParams::flat_mpi(2, 1)))?;
//! assert_eq!(run.predicted_time, 4.0);
//!
//! // ...or a whole sweep, fanned out over worker threads.
//! let report = session.sweep(&mpi_grid(&[1, 2, 4, 8], 1));
//! assert_eq!(report.times()[3], Some(1.0));
//! # Ok::<(), prophet_core::Error>(())
//! ```
//!
//! Heterogeneous scenario sets (different interconnects or limits — not
//! just SP grids) go through [`Session::batch`]; progress streaming for
//! both goes through [`Session::sweep_with`] / [`Session::batch_with`].

#![forbid(unsafe_code)]

pub mod error;
pub mod ring;
pub mod session;
pub mod store;
pub mod transform;

pub use error::{render_chain, render_chain_inline, Error};
// Re-exported so `Scenario`/`Session` callers don't need a direct
// prophet-estimator dependency for the types in the API surface.
pub use prophet_estimator::{
    flatten_invocations, Backend, ElabStats, ElaborationCache, EstimatorOptions, Evaluation,
};
pub use session::{mpi_grid, PointResult, Scenario, Session, SweepConfig, SweepPoint, SweepReport};
pub use store::{ArtifactKey, ArtifactStore, GcReport, StoreStats};
pub use transform::{to_cpp, to_program, transform_invocations, TransformError};
