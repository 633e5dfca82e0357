//! # prophet-machine
//!
//! The machine model of the Performance Estimator (Figure 2 of Pllana et
//! al., ICPP-W 2008): "The Performance Estimator generates automatically
//! the machine model based on the specified architectural parameters."
//!
//! * [`SystemParams`] — the **SP** element of the architecture: number of
//!   computational nodes, processors per node, number of processes, and
//!   threads per process,
//! * [`CommParams`] / [`CommModel`] — a Hockney (α–β) communication model
//!   with distinct intra-node and inter-node parameters, plus log-tree
//!   cost formulas for the MPI collectives of the UML profile,
//! * [`MachineModel`] — instantiates facilities (one multi-server CPU
//!   facility per node) and per-process mailboxes in a
//!   [`prophet_sim::Simulator`], and answers placement questions
//!   (`node_of`, `cpu_facility_of`).
//!
//! The original system evaluated models on clusters described by SP; this
//! crate is the simulated stand-in.

#![forbid(unsafe_code)]

pub mod comm;
pub mod error;
pub mod params;
pub mod topology;

pub use comm::{CommModel, CommParams};
pub use error::MachineError;
pub use params::SystemParams;
pub use topology::{MachineLayout, MachineModel};
