//! # prophet-codegen
//!
//! The UML→C++ transformation backend: the paper's central contribution
//! (Pllana et al., ICPP-W 2008, Figure 5), producing the **PMP** — the
//! "C++ representation of the program's performance model" that the
//! Performance Estimator consumes.
//!
//! * [`flow`] — structural recovery of the execution flow from the
//!   activity-diagram graph: linear chains, decision→merge regions
//!   (if/else-if), fork→join regions, and composite bodies. The resulting
//!   [`flow::FlowNode`] tree drives both this crate's C++ emission and the
//!   estimator lowering in prophet-core ("one traversal, two targets"),
//! * [`cpp`] — the Figure-5 algorithm phase by phase: perf-element
//!   collection (lines 1–8), globals (9–12), cost functions (13–18),
//!   locals (20–23), element declarations (24–28), and control flow
//!   (29–35), matching the listing shape of Figure 8,
//! * [`runtime`] — the C++ prelude (`ActionPlus` and the MPI block
//!   classes) that makes an emitted PMP self-contained,
//! * [`skeleton`] — the paper's stated future work: generation of a
//!   C + MPI/OpenMP *program* skeleton from the same model.

#![forbid(unsafe_code)]

pub mod cpp;
pub mod flow;
pub mod runtime;
pub mod skeleton;

pub use cpp::{generate_cpp, CodegenError, CppUnit};
pub use flow::{build_flow_tree, FlowNode};
pub use runtime::runtime_prelude;
pub use skeleton::generate_skeleton;
