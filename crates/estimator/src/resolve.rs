//! Name resolution of the Program IR, once per [`Program`].
//!
//! Elaboration evaluates a program's cost functions, guards, loop
//! counts, rank and size expressions and code fragments once per rank
//! and SP point. [`Resolved`] is the same program with every name
//! resolved by a [`Scope`]: variables to slots of one flat [`Frame`],
//! calls to function indices or builtins. The flattener walks its
//! [`Node`] tree, and a rank starts from one copy of the base frame.

use crate::program::{MpiOp, Program, Step};
use prophet_expr::{Expr, Frame, RExpr, RStmt, Scope, Slot, Value};
use prophet_machine::MachineModel;
use std::sync::Arc;

/// The system properties elaboration binds, in binding order: the
/// `execute()` parameters of the paper plus machine shape — `uid`
/// (user/run id), `tid`, `P` (process count), `N` (total CPUs), `M`
/// (nodes), `nodes`, `cpus` and `threads`. `pid` is bound per rank.
const SYSTEM: [&str; 8] = ["uid", "tid", "P", "N", "M", "nodes", "cpus", "threads"];
const TID: usize = 1;

/// A [`Program`] with its names resolved: what elaboration runs.
#[derive(Debug)]
pub struct Resolved {
    /// The scope every expression of the program evaluates in.
    pub(crate) scope: Scope,
    /// Slots of [`SYSTEM`], in order.
    system: [Slot; 8],
    /// The `pid` slot, unless a model variable named `pid` shadows the
    /// system property.
    pid: Option<Slot>,
    /// Globals then locals, with their initial values.
    vars: Box<[(Slot, f64)]>,
    pub(crate) body: Node,
    /// The element name of every UML fork's thread team.
    pub(crate) fork: Arc<str>,
}

/// One [`Step`] with its expressions resolved.
#[derive(Debug)]
pub(crate) enum Node {
    Exec {
        name: Arc<str>,
        cost: Option<RExpr>,
        code: Box<[RStmt]>,
    },
    Seq(Box<[Node]>),
    Branch(Box<[(Option<RExpr>, Node)]>),
    Parallel(Box<[Node]>),
    Composite {
        name: Arc<str>,
        body: Box<Node>,
    },
    Loop {
        name: Arc<str>,
        count: RExpr,
        var: Option<Slot>,
        body: Box<Node>,
    },
    ParallelRegion {
        name: Arc<str>,
        threads: Option<RExpr>,
        body: Box<Node>,
    },
    Critical {
        name: Arc<str>,
        lock: Box<str>,
        body: Box<Node>,
    },
    Mpi {
        name: Arc<str>,
        op: Mpi,
    },
    Nop,
}

/// One [`MpiOp`] with its expressions resolved.
#[derive(Debug)]
pub(crate) enum Mpi {
    Send { dest: RExpr, size: RExpr, tag: i64 },
    Recv { src: RExpr, tag: i64 },
    Broadcast { root: RExpr, size: RExpr },
    Reduce { root: RExpr, size: RExpr },
    Allreduce { size: RExpr },
    Scatter { root: RExpr, size: RExpr },
    Gather { root: RExpr, size: RExpr },
    Barrier,
}

impl Resolved {
    /// Resolve every name in `program`.
    pub(crate) fn new(program: &Program) -> Self {
        let mut scope = Scope::new(&program.functions);
        let system = SYSTEM.map(|name| scope.slot(name));
        let vars: Box<[(Slot, f64)]> = program
            .globals
            .iter()
            .chain(&program.locals)
            .map(|(name, init)| (scope.slot(name), *init))
            .collect();
        let shadowed = program
            .globals
            .iter()
            .chain(&program.locals)
            .any(|(name, _)| name == "pid");
        let pid = (!shadowed).then(|| scope.slot("pid"));
        let body = resolve_step(&mut scope, &program.body);
        Self {
            scope,
            system,
            pid,
            vars,
            body,
            fork: "fork".into(),
        }
    }

    /// The frame every rank starts from: the system properties except
    /// `pid`, then the model's globals and locals (which may shadow a
    /// system property). Built once per elaboration and copied per rank
    /// by [`Resolved::rank_frame`].
    pub(crate) fn base_frame(&self, machine: &MachineModel) -> Frame {
        let sp = machine.sp;
        let values = [
            0.0,
            0.0,
            sp.processes as f64,
            sp.total_cpus() as f64,
            sp.nodes as f64,
            sp.nodes as f64,
            sp.cpus_per_node as f64,
            sp.threads_per_process as f64,
        ];
        let mut frame = self.scope.frame();
        for (&slot, v) in self.system.iter().zip(values) {
            frame.set(slot, Value::Num(v));
        }
        for &(slot, init) in self.vars.iter() {
            frame.set(slot, Value::Num(init));
        }
        frame
    }

    /// Rank `pid`'s starting frame: a copy of `base` with `pid` bound.
    pub(crate) fn rank_frame(&self, base: &Frame, pid: usize) -> Frame {
        let mut frame = base.clone();
        if let Some(slot) = self.pid {
            frame.set(slot, Value::Num(pid as f64));
        }
        frame
    }

    /// Team member `tid`'s frame: a copy of the spawning flow's frame.
    pub(crate) fn thread_frame(&self, frame: &Frame, tid: usize) -> Frame {
        let mut frame = frame.clone();
        frame.set(self.system[TID], Value::Num(tid as f64));
        frame
    }
}

fn resolve_step(scope: &mut Scope, step: &Step) -> Node {
    let boxed = |scope: &mut Scope, s: &Step| Box::new(resolve_step(scope, s));
    match step {
        Step::Exec { name, cost, code } => Node::Exec {
            name: name.clone(),
            cost: cost.as_ref().map(|e| scope.expr(e)),
            code: scope.fragment(code),
        },
        Step::Seq(items) => Node::Seq(items.iter().map(|s| resolve_step(scope, s)).collect()),
        Step::Branch(arms) => Node::Branch(
            arms.iter()
                .map(|(g, s)| (g.as_ref().map(|g| scope.expr(g)), resolve_step(scope, s)))
                .collect(),
        ),
        Step::Parallel(arms) => {
            Node::Parallel(arms.iter().map(|s| resolve_step(scope, s)).collect())
        }
        Step::Composite { name, body } => Node::Composite {
            name: name.clone(),
            body: boxed(scope, body),
        },
        Step::Loop {
            name,
            count,
            var,
            body,
        } => Node::Loop {
            name: name.clone(),
            count: scope.expr(count),
            var: var.as_deref().map(|v| scope.slot(v)),
            body: boxed(scope, body),
        },
        Step::ParallelRegion {
            name,
            threads,
            body,
        } => Node::ParallelRegion {
            name: name.clone(),
            threads: threads.as_ref().map(|e| scope.expr(e)),
            body: boxed(scope, body),
        },
        Step::Critical { name, lock, body } => Node::Critical {
            name: name.clone(),
            lock: lock.as_str().into(),
            body: boxed(scope, body),
        },
        Step::Mpi { name, op } => Node::Mpi {
            name: name.clone(),
            op: resolve_mpi(scope, op),
        },
        Step::Nop => Node::Nop,
    }
}

fn resolve_mpi(scope: &mut Scope, op: &MpiOp) -> Mpi {
    let mut e = |x: &Expr| scope.expr(x);
    match op {
        MpiOp::Send { dest, size, tag } => Mpi::Send {
            dest: e(dest),
            size: e(size),
            tag: *tag,
        },
        MpiOp::Recv { src, tag } => Mpi::Recv {
            src: e(src),
            tag: *tag,
        },
        MpiOp::Broadcast { root, size } => Mpi::Broadcast {
            root: e(root),
            size: e(size),
        },
        MpiOp::Reduce { root, size } => Mpi::Reduce {
            root: e(root),
            size: e(size),
        },
        MpiOp::Allreduce { size } => Mpi::Allreduce { size: e(size) },
        MpiOp::Scatter { root, size } => Mpi::Scatter {
            root: e(root),
            size: e(size),
        },
        MpiOp::Gather { root, size } => Mpi::Gather {
            root: e(root),
            size: e(size),
        },
        MpiOp::Barrier => Mpi::Barrier,
    }
}
