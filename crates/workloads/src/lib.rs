//! # prophet-workloads
//!
//! Workloads for the reproduction's experiments:
//!
//! * [`lfk`] — Rust ports of **Livermore Fortran kernels** (McMahon,
//!   UCRL-53745), including kernel 6 — the paper's running example
//!   (Figure 3) — plus an in-process calibration timer that plays the
//!   role of the profiling step ("we may identify, for an existing
//!   program, code blocks that determine the overall program performance
//!   by using a profiling tool"),
//! * [`models`] — ready-made UML performance models:
//!   - [`models::kernel6_model`] — Figure 3(c),
//!   - [`models::sample_model`] — the Figure 7/8 hierarchical sample
//!     model (A1, GV-branch, SA{SA1, SA2}, A2, A4, globals GV/P, code
//!     fragment, cost functions FA1…FSA2),
//!   - [`models::jacobi_model`] — MPI halo-exchange stencil,
//!   - [`models::pipeline_model`] — message pipeline,
//!   - [`models::master_worker_model`] — scatter/compute/gather,
//!   - [`models::lapw0_model`] — the LAPW0-like hybrid MPI+OpenMP phase
//!     structure used by the companion validation (CISIS 2008), built
//!     synthetically per the substitution table.

#![forbid(unsafe_code)]

pub mod lfk;
pub mod models;

pub use lfk::{
    calibrate_kernel6, lfk_kernel1, lfk_kernel11, lfk_kernel12, lfk_kernel2, lfk_kernel3,
    lfk_kernel4, lfk_kernel5, lfk_kernel6, lfk_kernel7, lfk_kernel9,
};
pub use models::{
    jacobi_model, kernel6_model, lapw0_model, master_worker_model, pipeline_model, sample_model,
};
