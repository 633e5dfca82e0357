//! The estimator driver: integrate program and machine models, simulate,
//! and report.

use crate::batch::BatchScratch;
use crate::elab::{elaborate, ElaborationCache, RankOps};
use crate::flatten::{ElabForm, FlattenError, FlattenLimits};
use crate::interp::{OpProcess, Run};
use crate::program::Program;
use prophet_machine::MachineModel;
use prophet_sim::{Config, SimError, SimReport, Simulator};
use prophet_trace::TraceFile;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Which evaluation engine answers a scenario.
///
/// Both backends consume the same flattened primitive-op lists produced
/// from one [`Program`]; they are differentially tested against each
/// other (`tests/conformance.rs`). See [`crate::analytic`] for the
/// agreement contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Discrete-event simulation on the CSIM-substitute kernel: models
    /// CPU contention through FCFS facilities and records a trace file.
    #[default]
    Simulation,
    /// Closed-form analytic evaluation: no DES kernel, no trace, orders
    /// of magnitude faster for sweeps (see `bench_analytic`).
    Analytic,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Simulation => write!(f, "simulation"),
            Backend::Analytic => write!(f, "analytic"),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "simulation" | "sim" => Ok(Backend::Simulation),
            "analytic" => Ok(Backend::Analytic),
            other => Err(format!(
                "unknown backend `{other}`; expected `simulation` or `analytic`"
            )),
        }
    }
}

/// Options for one evaluation run.
#[derive(Debug, Clone)]
pub struct EstimatorOptions {
    /// Whether to record a trace file (TF). Disable for large sweeps.
    pub trace: bool,
    /// Elaboration limits.
    pub limits: FlattenLimits,
}

impl Default for EstimatorOptions {
    fn default() -> Self {
        Self {
            trace: true,
            limits: FlattenLimits::default(),
        }
    }
}

/// Evaluation failure.
#[derive(Debug, Clone)]
pub enum EstimatorError {
    /// Model elaboration failed (bad expression, rank out of range, …).
    Flatten(FlattenError),
    /// The simulation failed (deadlock, event limit, model error).
    Sim(SimError),
    /// A rank detected a communication mismatch during the run.
    Mismatch(String),
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Flatten/Sim details live one level down the `source()`
            // chain (`render_chain` prints them); repeating them here
            // would duplicate every message in chained renderings.
            EstimatorError::Flatten(_) => write!(f, "model elaboration failed"),
            EstimatorError::Sim(_) => write!(f, "evaluation failed"),
            EstimatorError::Mismatch(m) => write!(f, "communication mismatch: {m}"),
        }
    }
}

impl std::error::Error for EstimatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimatorError::Flatten(e) => Some(e),
            EstimatorError::Sim(e) => Some(e),
            EstimatorError::Mismatch(_) => None,
        }
    }
}

impl From<FlattenError> for EstimatorError {
    fn from(e: FlattenError) -> Self {
        EstimatorError::Flatten(e)
    }
}

impl From<SimError> for EstimatorError {
    fn from(e: SimError) -> Self {
        EstimatorError::Sim(e)
    }
}

/// The result of evaluating a program model on a machine model.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Predicted wall-clock execution time of the modeled program.
    pub predicted_time: f64,
    /// Kernel-level report (facility utilizations, event counts).
    pub report: SimReport,
    /// The trace file (empty if tracing was disabled).
    pub trace: TraceFile,
}

/// The Performance Estimator.
pub struct Estimator {
    /// The machine model in effect.
    pub machine: MachineModel,
    /// Run options.
    pub options: EstimatorOptions,
}

impl Estimator {
    /// Create an estimator for a machine.
    pub fn new(machine: MachineModel, options: EstimatorOptions) -> Self {
        Self { machine, options }
    }

    /// Evaluate `program` on the configured machine.
    pub fn evaluate(&self, program: &Program) -> Result<Evaluation, EstimatorError> {
        Self::run(program, &self.machine, &self.options)
    }

    /// Evaluate `program` on `machine` with the selected `backend` —
    /// the one entry point behind every session evaluation and sweep.
    ///
    /// The per-rank op lists come from `cache`, flattened at most once
    /// per distinct `(SP, comm, limits, form)` key and shared across
    /// threads and backends. [`Backend::Simulation`] replays them on the
    /// DES kernel ([`Estimator::run_ops`]): the traced form when
    /// `options.trace` is set, the lean form otherwise.
    /// [`Backend::Analytic`] replays the lean entry's
    /// [`BatchProgram`](crate::BatchProgram) (prepared once per cache
    /// entry) into `scratch`; the DES kernel is never touched. The
    /// uncached references these match bit for bit are
    /// [`Estimator::run`] and [`elaborate`] +
    /// [`BatchProgram::prepare`](crate::BatchProgram::prepare) +
    /// [`BatchProgram::evaluate`](crate::BatchProgram::evaluate).
    ///
    /// The cache must be dedicated to this `program` — `Session` owns
    /// one per compiled model.
    pub fn run_backend_cached(
        backend: Backend,
        program: &Program,
        machine: &MachineModel,
        options: &EstimatorOptions,
        cache: &ElaborationCache,
        scratch: &mut BatchScratch,
    ) -> Result<Evaluation, EstimatorError> {
        match backend {
            Backend::Simulation => {
                let form = ElabForm::for_trace(options.trace);
                let rank_ops = cache.get_or_flatten_form(program, machine, options.limits, form)?;
                Self::run_ops(&program.name, &rank_ops, machine, options)
            }
            Backend::Analytic => {
                let (_, batch) = cache.get_or_flatten_batched(program, machine, options.limits)?;
                batch.evaluate(&program.name, scratch)
            }
        }
    }

    /// Evaluate `program` on `machine` with `options` by simulation,
    /// borrowing all three. Elaborates the traced form only when
    /// `options.trace` is set.
    ///
    /// This is the reusable hot path behind compile-once sessions: one
    /// immutable `Program` and one `EstimatorOptions` can serve any
    /// number of evaluations (and any number of threads) without being
    /// cloned or consumed. [`Estimator::evaluate`] delegates here.
    pub fn run(
        program: &Program,
        machine: &MachineModel,
        options: &EstimatorOptions,
    ) -> Result<Evaluation, EstimatorError> {
        let form = ElabForm::for_trace(options.trace);
        let rank_ops = elaborate(program, machine, options.limits, form)?;
        Self::run_ops(&program.name, &rank_ops, machine, options)
    }

    /// Replay already-elaborated op lists on the DES kernel.
    ///
    /// The scenario-dependent half of [`Estimator::run`]: `rank_ops` is
    /// the scenario-independent elaboration (from [`elaborate`] or an
    /// [`ElaborationCache`]), shared by reference — evaluations never
    /// clone or consume the op lists. Either form replays to the same
    /// prediction and event count; only the traced form fills the trace
    /// file's `Enter`/`Exit` events.
    pub fn run_ops(
        name: &str,
        rank_ops: &RankOps,
        machine: &MachineModel,
        options: &EstimatorOptions,
    ) -> Result<Evaluation, EstimatorError> {
        let sp = machine.sp;
        debug_assert_eq!(rank_ops.len(), sp.processes, "elaboration/machine mismatch");

        // Integrate with the machine model in a fresh simulator: one
        // 1-server facility per `<<critical+>>` lock of each rank (counted
        // once, at elaboration), then one master flow per rank.
        let mut sim = Simulator::new(Config::default());
        let layout = machine.instantiate(&mut sim);
        let locks = (0..sp.processes)
            .map(|pid| {
                (0..rank_ops.lock_count(pid))
                    .map(|l| sim.add_facility(&format!("rank{pid}.lock{l}"), 1))
                    .collect()
            })
            .collect();
        let run = Rc::new(Run {
            ops: Arc::clone(rank_ops),
            mailboxes: layout.proc_mailboxes.clone(),
            locks,
            comm: machine.comm,
            trace: options
                .trace
                .then(|| RefCell::new(TraceFile::new(name.to_string(), sp.processes))),
            error: RefCell::new(None),
        });
        for pid in 0..sp.processes {
            let proc = OpProcess::master(&run, pid, machine.cpu_facility_of(&layout, pid));
            sim.spawn(&format!("rank{pid}"), Box::new(proc));
        }

        // Run.
        let report = sim.run()?;
        if let Some(msg) = run.error.take() {
            return Err(EstimatorError::Mismatch(msg));
        }

        let trace = match &run.trace {
            Some(sink) => {
                let mut tf = sink.take();
                tf.end_time = tf.end_time.max(report.end_time);
                tf
            }
            None => TraceFile::new(name.to_string(), sp.processes),
        };

        Ok(Evaluation {
            predicted_time: report.end_time,
            report,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MpiOp, Program, Step};
    use prophet_expr::{parse_expression, parse_statements};
    use prophet_machine::{CommParams, SystemParams};
    use prophet_trace::TraceAnalysis;

    fn machine(nodes: usize, cpn: usize) -> MachineModel {
        MachineModel::new(SystemParams::flat_mpi(nodes, cpn), CommParams::default()).unwrap()
    }

    fn exec(name: &str, cost: &str) -> Step {
        Step::Exec {
            name: name.into(),
            cost: Some(parse_expression(cost).unwrap()),
            code: vec![],
        }
    }

    fn eval(program: &Program, m: MachineModel) -> Evaluation {
        Estimator::new(m, EstimatorOptions::default())
            .evaluate(program)
            .unwrap()
    }

    #[test]
    fn sequential_costs_sum() {
        let mut p = Program::new("seq");
        p.body = Step::Seq(vec![exec("A", "1.5"), exec("B", "2.5")]);
        let e = eval(&p, machine(1, 1));
        assert_eq!(e.predicted_time, 4.0);
        assert_eq!(e.trace.len(), 4); // enter/exit markers for A and B
    }

    #[test]
    fn spmd_ranks_run_concurrently() {
        // Each of 4 ranks computes 2s on its own cpu: total 2s, not 8s.
        let mut p = Program::new("spmd");
        p.body = exec("W", "2");
        let e = eval(&p, machine(4, 1));
        assert_eq!(e.predicted_time, 2.0);
        assert_eq!(e.report.processes_completed, 4);
    }

    #[test]
    fn figure7_branch_follows_code_fragment() {
        // A1 sets GV=1 → SA (SA1, SA2) runs, A2 does not; then A4.
        let mut p = Program::new("sample");
        p.globals.push(("GV".into(), 0.0));
        p.body = Step::Seq(vec![
            Step::Exec {
                name: "A1".into(),
                cost: Some(parse_expression("1").unwrap()),
                code: parse_statements("GV = 1;").unwrap(),
            },
            Step::Branch(vec![
                (
                    Some(parse_expression("GV == 1").unwrap()),
                    Step::Composite {
                        name: "SA".into(),
                        body: Box::new(Step::Seq(vec![exec("SA1", "2"), exec("SA2", "3")])),
                    },
                ),
                (None, exec("A2", "10")),
            ]),
            exec("A4", "1"),
        ]);
        let e = eval(&p, machine(1, 1));
        assert_eq!(e.predicted_time, 7.0); // 1 + 2 + 3 + 1
        let a = TraceAnalysis::analyze(&e.trace);
        assert!(a.element("SA1").is_some());
        assert!(a.element("A2").is_none(), "A2 must not run");
    }

    #[test]
    fn ping_pong_includes_transfer_time() {
        let m = machine(2, 1);
        let bytes = 1_000_000u64;
        let transfer = m.comm.ptp_time(0, 1, bytes);
        let mut p = Program::new("pp");
        p.body = Step::Branch(vec![
            (
                Some(parse_expression("pid == 0").unwrap()),
                Step::Mpi {
                    name: "s".into(),
                    op: MpiOp::Send {
                        dest: parse_expression("1").unwrap(),
                        size: parse_expression("1000000").unwrap(),
                        tag: 0,
                    },
                },
            ),
            (
                None,
                Step::Mpi {
                    name: "r".into(),
                    op: MpiOp::Recv {
                        src: parse_expression("0").unwrap(),
                        tag: 0,
                    },
                },
            ),
        ]);
        let e = eval(&p, m);
        assert!(
            (e.predicted_time - transfer).abs() < 1e-6,
            "predicted {} vs transfer {transfer}",
            e.predicted_time
        );
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        // Rank 0 computes 5s, rank 1 computes 1s, then both barrier and
        // compute 1s: completion ≈ 6s + ε (not 2s).
        let mut p = Program::new("bar");
        p.body = Step::Seq(vec![
            Step::Branch(vec![
                (
                    Some(parse_expression("pid == 0").unwrap()),
                    exec("slow", "5"),
                ),
                (None, exec("fast", "1")),
            ]),
            Step::Mpi {
                name: "b".into(),
                op: MpiOp::Barrier,
            },
            exec("tail", "1"),
        ]);
        let e = eval(&p, machine(2, 1));
        assert!(e.predicted_time >= 6.0, "{}", e.predicted_time);
        assert!(e.predicted_time < 6.1, "{}", e.predicted_time);
    }

    #[test]
    fn openmp_region_contends_for_cpus() {
        // 4 threads × 1s of work on a node with 2 cpus → ≈ 2s.
        let mut p = Program::new("omp");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("4").unwrap()),
            body: Box::new(exec("W", "1")),
        };
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 2,
                processes: 1,
                threads_per_process: 4,
            },
            CommParams::default(),
        )
        .unwrap();
        let e = eval(&p, m);
        assert_eq!(e.predicted_time, 2.0);
    }

    #[test]
    fn openmp_speedup_with_more_cpus() {
        let region = |threads: &str| Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression(threads).unwrap()),
            body: Box::new(exec("W", "8 / threads")),
        };
        let time = |cpus: usize, threads: usize| {
            let mut p = Program::new("omp");
            p.body = region(&threads.to_string());
            let m = MachineModel::new(
                SystemParams {
                    nodes: 1,
                    cpus_per_node: cpus,
                    processes: 1,
                    threads_per_process: threads,
                },
                CommParams::default(),
            )
            .unwrap();
            eval(&p, m).predicted_time
        };
        // Perfectly divisible work: 8s serial.
        let t1 = time(1, 1);
        let t4 = time(4, 4);
        let t8 = time(8, 8);
        assert_eq!(t1, 8.0);
        assert_eq!(t4, 2.0);
        assert_eq!(t8, 1.0);
    }

    #[test]
    fn fork_join_arms_concurrent() {
        let mut p = Program::new("fj");
        p.body = Step::Parallel(vec![exec("X", "2"), exec("Y", "3")]);
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 2,
                processes: 1,
                threads_per_process: 2,
            },
            CommParams::default(),
        )
        .unwrap();
        let e = eval(&p, m);
        assert_eq!(e.predicted_time, 3.0); // max(2,3), not 5
    }

    #[test]
    fn loop_repeats_body() {
        let mut p = Program::new("loop");
        p.body = Step::Loop {
            name: "L".into(),
            count: parse_expression("4").unwrap(),
            var: None,
            body: Box::new(exec("S", "0.5")),
        };
        let e = eval(&p, machine(1, 1));
        assert_eq!(e.predicted_time, 2.0);
    }

    #[test]
    fn mismatched_recv_reports_deadlock() {
        // Rank 0 waits for a message that never comes.
        let mut p = Program::new("stuck");
        p.body = Step::Branch(vec![(
            Some(parse_expression("pid == 0").unwrap()),
            Step::Mpi {
                name: "r".into(),
                op: MpiOp::Recv {
                    src: parse_expression("1").unwrap(),
                    tag: 0,
                },
            },
        )]);
        let err = Estimator::new(machine(2, 1), EstimatorOptions::default())
            .evaluate(&p)
            .unwrap_err();
        match err {
            EstimatorError::Sim(SimError::Deadlock { blocked, .. }) => {
                assert!(blocked.iter().any(|b| b.contains("rank0")), "{blocked:?}");
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn trace_disabled_is_empty() {
        let mut p = Program::new("quiet");
        p.body = exec("A", "1");
        let e = Estimator::new(
            machine(1, 1),
            EstimatorOptions {
                trace: false,
                ..Default::default()
            },
        )
        .evaluate(&p)
        .unwrap();
        assert!(e.trace.is_empty());
        assert_eq!(e.predicted_time, 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut p = Program::new("det");
        p.body = Step::Seq(vec![
            exec("A", "0.5 + 0.125 * pid"),
            Step::Mpi {
                name: "b".into(),
                op: MpiOp::Barrier,
            },
            exec("B", "1"),
        ]);
        let run = || {
            let e = eval(&p, machine(4, 1));
            (e.predicted_time, e.report.events_processed, e.trace.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn critical_section_serializes_threads() {
        // 4 threads, each: 1s parallel work + 1s critical work, on 4 cpus.
        // Parallel part overlaps (1s); critical parts serialize (4s).
        let mut p = Program::new("crit");
        p.body = Step::ParallelRegion {
            name: "R".into(),
            threads: Some(parse_expression("4").unwrap()),
            body: Box::new(Step::Seq(vec![
                exec("Par", "1"),
                Step::Critical {
                    name: "Crit".into(),
                    lock: "<global>".into(),
                    body: Box::new(exec("Locked", "1")),
                },
            ])),
        };
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 4,
                processes: 1,
                threads_per_process: 4,
            },
            CommParams::default(),
        )
        .unwrap();
        let e = eval(&p, m);
        assert_eq!(
            e.predicted_time, 5.0,
            "1s parallel + 4×1s serialized critical"
        );
    }

    #[test]
    fn distinct_locks_do_not_exclude() {
        // Two threads in criticals with DIFFERENT locks run concurrently.
        let mut p = Program::new("locks");
        p.body = Step::Parallel(vec![
            Step::Critical {
                name: "C1".into(),
                lock: "a".into(),
                body: Box::new(exec("W1", "2")),
            },
            Step::Critical {
                name: "C2".into(),
                lock: "b".into(),
                body: Box::new(exec("W2", "2")),
            },
        ]);
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 2,
                processes: 1,
                threads_per_process: 2,
            },
            CommParams::default(),
        )
        .unwrap();
        let e = eval(&p, m);
        assert_eq!(e.predicted_time, 2.0, "different locks must not serialize");
    }

    #[test]
    fn same_lock_excludes_across_fork_arms() {
        let mut p = Program::new("locks2");
        p.body = Step::Parallel(vec![
            Step::Critical {
                name: "C1".into(),
                lock: "x".into(),
                body: Box::new(exec("W1", "2")),
            },
            Step::Critical {
                name: "C2".into(),
                lock: "x".into(),
                body: Box::new(exec("W2", "2")),
            },
        ]);
        let m = MachineModel::new(
            SystemParams {
                nodes: 1,
                cpus_per_node: 2,
                processes: 1,
                threads_per_process: 2,
            },
            CommParams::default(),
        )
        .unwrap();
        let e = eval(&p, m);
        assert_eq!(e.predicted_time, 4.0, "same lock serializes");
    }

    #[test]
    fn broadcast_cost_scales_with_size() {
        let bcast = |size: &str| {
            let mut p = Program::new("bc");
            p.body = Step::Mpi {
                name: "bc".into(),
                op: MpiOp::Broadcast {
                    root: parse_expression("0").unwrap(),
                    size: parse_expression(size).unwrap(),
                },
            };
            eval(&p, machine(4, 1)).predicted_time
        };
        let small = bcast("1024");
        let large = bcast("1048576");
        assert!(large > small * 10.0, "large {large} vs small {small}");
    }
}
