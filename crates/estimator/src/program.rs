//! The executable Program IR — the machine-efficient model representation.
//!
//! This is the semantic twin of the generated C++ (Figure 8): globals,
//! cost functions, and a structured body of executable elements. It is
//! produced from the UML model by `prophet-core::transform` via the same
//! flow tree that drives C++ emission.

use crate::resolve::Resolved;
use prophet_expr::{Expr, FunctionDef, Stmt};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An MPI communication operation (the profile's message-passing
/// building blocks).
#[derive(Debug, Clone, PartialEq)]
pub enum MpiOp {
    /// Point-to-point send: destination rank and message size (bytes).
    Send {
        /// Destination rank expression (may use `pid`, `P`, …).
        dest: Expr,
        /// Message size in bytes.
        size: Expr,
        /// User tag.
        tag: i64,
    },
    /// Point-to-point receive from a source rank.
    Recv {
        /// Source rank expression.
        src: Expr,
        /// User tag.
        tag: i64,
    },
    /// Broadcast from a root.
    Broadcast {
        /// Root rank expression.
        root: Expr,
        /// Payload size in bytes.
        size: Expr,
    },
    /// Reduce to a root.
    Reduce {
        /// Root rank expression.
        root: Expr,
        /// Payload size in bytes.
        size: Expr,
    },
    /// Allreduce across all ranks.
    Allreduce {
        /// Payload size in bytes.
        size: Expr,
    },
    /// Scatter from a root (total payload size).
    Scatter {
        /// Root rank expression.
        root: Expr,
        /// Total payload size in bytes.
        size: Expr,
    },
    /// Gather to a root (total payload size).
    Gather {
        /// Root rank expression.
        root: Expr,
        /// Total payload size in bytes.
        size: Expr,
    },
    /// Barrier across all ranks.
    Barrier,
}

impl MpiOp {
    /// Short name for traces and diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MpiOp::Send { .. } => "send",
            MpiOp::Recv { .. } => "recv",
            MpiOp::Broadcast { .. } => "broadcast",
            MpiOp::Reduce { .. } => "reduce",
            MpiOp::Allreduce { .. } => "allreduce",
            MpiOp::Scatter { .. } => "scatter",
            MpiOp::Gather { .. } => "gather",
            MpiOp::Barrier => "barrier",
        }
    }
}

/// One structured step of the program body.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Execute a performance element: run its code fragment, then occupy
    /// the CPU for the evaluated cost (the `execute()` of the paper).
    Exec {
        /// Element name (trace label). [`Program::resolve`] numbers each
        /// distinct name once, and the ops carry that id.
        name: Arc<str>,
        /// Cost expression (seconds). `None` means zero cost.
        cost: Option<Expr>,
        /// Associated code fragment (Figure 7(b)).
        code: Vec<Stmt>,
    },
    /// Sequential composition.
    Seq(Vec<Step>),
    /// Guarded alternatives; `None` guard is the `else` arm. Arms are
    /// evaluated in order, first true guard wins (if-else-if semantics).
    Branch(Vec<(Option<Expr>, Step)>),
    /// Fork/join concurrency within a process (UML fork bars). Arms run
    /// as concurrent threads on the owning node's CPUs.
    Parallel(Vec<Step>),
    /// A named composite (`<<activity+>>`): pure nesting + trace marker.
    Composite {
        /// Element name.
        name: Arc<str>,
        /// Body.
        body: Box<Step>,
    },
    /// `<<loop+>>`: repeat `body` `count` times, optionally binding the
    /// iteration variable.
    Loop {
        /// Element name.
        name: Arc<str>,
        /// Iteration-count expression (evaluated once, at entry).
        count: Expr,
        /// Name bound to the iteration index inside the body.
        var: Option<String>,
        /// Body.
        body: Box<Step>,
    },
    /// `<<parallel+>>` OpenMP region: `threads` team members execute the
    /// body concurrently on the node's CPU facility.
    ParallelRegion {
        /// Element name.
        name: Arc<str>,
        /// Team size expression; `None` → SP's threads-per-process.
        threads: Option<Expr>,
        /// Body (each thread executes it with its own `tid`).
        body: Box<Step>,
    },
    /// `<<critical+>>`: the body executes under mutual exclusion among
    /// the threads of the owning process (OpenMP `critical` semantics).
    /// `lock` names the lock; criticals with the same lock exclude each
    /// other.
    Critical {
        /// Element name.
        name: Arc<str>,
        /// Lock name (defaults to the unnamed global lock).
        lock: String,
        /// Body.
        body: Box<Step>,
    },
    /// MPI communication element.
    Mpi {
        /// Element name (trace label).
        name: Arc<str>,
        /// The operation.
        op: MpiOp,
    },
    /// No-op.
    Nop,
}

impl Step {
    /// Count `Exec` + `Mpi` leaves (size metric).
    pub fn leaf_count(&self) -> usize {
        match self {
            Step::Exec { .. } | Step::Mpi { .. } => 1,
            Step::Seq(items) => items.iter().map(Step::leaf_count).sum(),
            Step::Branch(arms) => arms.iter().map(|(_, s)| s.leaf_count()).sum(),
            Step::Parallel(arms) => arms.iter().map(Step::leaf_count).sum(),
            Step::Composite { body, .. }
            | Step::Loop { body, .. }
            | Step::ParallelRegion { body, .. }
            | Step::Critical { body, .. } => body.leaf_count(),
            Step::Nop => 0,
        }
    }
}

/// A complete executable program model.
///
/// Build it field by field, then elaborate it: the first elaboration (or
/// an explicit [`Program::resolve`]) resolves its names once and keeps
/// the result, so a program must not be edited after it has been
/// elaborated. A clone starts unresolved and may be edited freely.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Model name.
    pub name: String,
    /// Global variables with initial values.
    pub globals: Vec<(String, f64)>,
    /// Local variables with initial values (per-process).
    pub locals: Vec<(String, f64)>,
    /// Cost functions (and helpers) defined by the model.
    pub functions: Vec<FunctionDef>,
    /// The body.
    pub body: Step,
    resolved: ResolveOnce,
}

impl Program {
    /// A program with empty body (builder seed).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            globals: Vec::new(),
            locals: Vec::new(),
            functions: Vec::new(),
            body: Step::Nop,
            resolved: ResolveOnce::default(),
        }
    }

    /// Resolve every variable and function name of the program to an
    /// index, once: later calls (and every elaboration) reuse the
    /// result. `Session` calls this when it compiles or loads a model,
    /// so no request pays for it.
    pub fn resolve(&self) -> &Resolved {
        self.resolved.0.get_or_init(|| Resolved::new(self))
    }
}

/// [`Program`]'s resolution slot: derived data, so it never makes two
/// programs unequal, and a clone (which may be edited) starts empty.
#[derive(Default)]
struct ResolveOnce(OnceLock<Resolved>);

impl Clone for ResolveOnce {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ResolveOnce {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for ResolveOnce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "resolved"
        } else {
            "unresolved"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_expr::parse_expression;

    #[test]
    fn leaf_counts() {
        let p = Step::Seq(vec![
            Step::Exec {
                name: "A".into(),
                cost: None,
                code: vec![],
            },
            Step::Branch(vec![
                (
                    Some(parse_expression("GV > 0").unwrap()),
                    Step::Exec {
                        name: "B".into(),
                        cost: None,
                        code: vec![],
                    },
                ),
                (None, Step::Nop),
            ]),
            Step::Loop {
                name: "L".into(),
                count: parse_expression("3").unwrap(),
                var: None,
                body: Box::new(Step::Mpi {
                    name: "bar".into(),
                    op: MpiOp::Barrier,
                }),
            },
        ]);
        assert_eq!(p.leaf_count(), 3);
    }

    #[test]
    fn mpi_kind_names() {
        assert_eq!(MpiOp::Barrier.kind_name(), "barrier");
        let send = MpiOp::Send {
            dest: parse_expression("1").unwrap(),
            size: parse_expression("8").unwrap(),
            tag: 0,
        };
        assert_eq!(send.kind_name(), "send");
    }
}
