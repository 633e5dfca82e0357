//! # prophet-trace
//!
//! The trace file (**TF**) format and the performance-visualization data
//! layer of the Performance Prophet reproduction (Pllana et al., ICPP-W
//! 2008, Figure 2): "Element TF represents the trace file, which is
//! generated by the Performance Estimator as a result of the performance
//! evaluation. Teuta uses TF for the visualization of performance
//! results."
//!
//! * [`event`] — [`TraceEvent`] / [`TraceFile`]: enter/exit records per
//!   process and element, with text, CSV, and XML encodings,
//! * [`analysis`] — inclusive per-element times, per-process Gantt
//!   segments, utilization and speedup series (the data behind Teuta's
//!   *Charts* component),
//! * [`render`] — an ASCII timeline renderer standing in for the
//!   *Animator*.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod event;
pub mod render;
pub mod svg;

pub use analysis::{ChartSeries, ElementProfile, GanttSegment, TraceAnalysis};
pub use event::{EventKind, TraceEvent, TraceFile};
pub use render::render_timeline;
pub use svg::{render_svg, SvgOptions};
