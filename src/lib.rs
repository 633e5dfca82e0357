//! # prophet — Performance Prophet in Rust
//!
//! Umbrella crate of the reproduction of *"Automatic Performance Model
//! Transformation from UML to C++"* (Pllana, Benkner, Xhafa, Barolli —
//! ICPP Workshops 2008). Re-exports the whole stack:
//!
//! | module | crate | role in the paper's architecture (Figure 2) |
//! |---|---|---|
//! | [`uml`] | prophet-uml | Teuta's model layer: activity diagrams, stereotypes, traverser |
//! | [`xml`] | prophet-xml | Models (XML) / MCF / CF file substrate |
//! | [`expr`] | prophet-expr | cost-function & code-fragment language |
//! | [`check`] | prophet-check | Model Checker + MCF |
//! | [`codegen`] | prophet-codegen | UML→C++ transformation (Figure 5) → PMP |
//! | [`sim`] | prophet-sim | CSIM-substitute simulation engine |
//! | [`machine`] | prophet-machine | machine model from SP |
//! | [`estimator`] | prophet-estimator | Performance Estimator |
//! | [`trace`] | prophet-trace | TF trace files + visualization data |
//! | [`core`] | prophet-core | transformation pipeline, compile-once sessions, sweeps |
//! | [`opt`] | prophet-opt | inverse queries: lazy Pareto-front search over the SP lattice |
//! | [`serve`] | prophet-serve | prediction service: session pool + HTTP/JSON layer |
//! | [`router`] | prophet-router | scale-out front door: digest-routed sharding across serve fleets |
//! | [`workloads`] | prophet-workloads | Livermore kernels + experiment models |
//!
//! ## Quickstart
//!
//! The engine API separates *compile* (check + transform, once) from
//! *serve* (any number of cheap evaluations):
//!
//! ```
//! use prophet::core::{mpi_grid, Scenario, Session};
//! use prophet::machine::SystemParams;
//! use prophet::workloads::models::sample_model;
//!
//! // Compile once: model check + both transformation backends.
//! let session = Session::new(sample_model())?;
//!
//! // Evaluate one scenario...
//! let run = session.evaluate(&Scenario::new(SystemParams::flat_mpi(4, 1)))?;
//! assert!(run.predicted_time > 0.0);
//!
//! // ...or sweep a whole SP grid in parallel against the same artifacts.
//! let report = session.sweep(&mpi_grid(&[1, 2, 4, 8], 1));
//! assert_eq!(report.failures(), 0);
//! # Ok::<(), prophet::core::Error>(())
//! ```
//!
//! Evaluations run on one of two backends
//! ([`core::Backend`], `--backend` on the CLI): `Simulation` (default)
//! replays the model on the DES kernel with full contention modeling
//! and traces; `Analytic` resolves the same op lists in closed form —
//! much faster for sweeps, no trace. The two are differentially tested
//! against each other (`tests/conformance.rs`): bit-equal on
//! deterministic communication-free models, within 1e-9 relative on
//! deterministic message-passing ones.
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `docs/ARCHITECTURE.md` for how the crates fit together.

#![forbid(unsafe_code)]

pub use prophet_check as check;
pub use prophet_codegen as codegen;
pub use prophet_core as core;
pub use prophet_estimator as estimator;
pub use prophet_expr as expr;
pub use prophet_machine as machine;
pub use prophet_opt as opt;
pub use prophet_router as router;
pub use prophet_serve as serve;
pub use prophet_sim as sim;
pub use prophet_trace as trace;
pub use prophet_uml as uml;
pub use prophet_workloads as workloads;
pub use prophet_xml as xml;
