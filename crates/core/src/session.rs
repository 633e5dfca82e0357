//! Compile-once sessions: check and transform a model one time, then
//! evaluate as many scenarios as you like.
//!
//! The paper's workflow answers *many* "what if" questions from *one*
//! UML performance model ("the performance can be predicted and design
//! decisions can be influenced without time-consuming modifications of
//! large portions of an implemented program"). [`Session`] makes that
//! split explicit:
//!
//! * **compile** — [`Session::compile`] runs the model checker and the
//!   Program IR transformation exactly once and owns the immutable
//!   artifacts (the executable [`Program`] IR and the check
//!   diagnostics); the C++ PMP is generated only where it is emitted,
//!   by [`to_cpp`](crate::transform::to_cpp) on [`Session::model`],
//! * **serve** — [`Session::evaluate`] answers one [`Scenario`];
//!   [`Session::sweep`] fans an SP grid out over scoped worker threads;
//!   [`Session::batch`] does the same for heterogeneous scenario sets
//!   (different communication parameters or limits — not just SP grids).
//!
//! Every serve entry point takes a [`Backend`] selector (on the
//! [`Scenario`] or the [`SweepConfig`]): `Backend::Simulation` replays
//! the compiled program on the DES kernel, `Backend::Analytic` resolves
//! the same op lists in closed form — the fast choice for large sweeps,
//! and an independent oracle the conformance suite checks the simulator
//! against.
//!
//! Workers pull points from a shared atomic cursor (work stealing) and
//! stream results back over a channel, so there is no contended lock in
//! the hot loop and callers can observe progress point by point via
//! [`Session::sweep_with`] / [`Session::batch_with`].

use crate::error::Error;
use crate::transform::to_program;
use prophet_check::{check_model, Diagnostic, McfConfig};
use prophet_estimator::{
    Backend, BatchScratch, ElabStats, ElaborationCache, Estimator, EstimatorOptions, Evaluation,
    Program,
};
use prophet_machine::{CommParams, MachineModel, SystemParams};
use prophet_uml::Model;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// One evaluation request: everything that may vary *without*
/// recompiling the model.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// System parameters (SP): nodes, cpus, processes, threads.
    pub system: SystemParams,
    /// Communication parameters of the machine model.
    pub comm: CommParams,
    /// Estimator options (tracing, limits).
    pub options: EstimatorOptions,
    /// Evaluation engine: DES simulation (default) or closed-form
    /// analytic. The analytic backend records no trace; see
    /// `prophet_estimator::analytic` for the agreement contract between
    /// the two.
    pub backend: Backend,
}

impl Scenario {
    /// Scenario for the given system parameters, defaults elsewhere.
    pub fn new(system: SystemParams) -> Self {
        Self {
            system,
            ..Self::default()
        }
    }

    /// Replace the communication parameters.
    pub fn with_comm(mut self, comm: CommParams) -> Self {
        self.comm = comm;
        self
    }

    /// Replace the estimator options.
    pub fn with_options(mut self, options: EstimatorOptions) -> Self {
        self.options = options;
        self
    }

    /// Disable trace recording (the right choice for large batches).
    pub fn without_trace(mut self) -> Self {
        self.options.trace = false;
        self
    }

    /// Select the evaluation backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

impl From<SystemParams> for Scenario {
    fn from(system: SystemParams) -> Self {
        Self::new(system)
    }
}

/// One configuration of an SP sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// System parameters of this configuration.
    pub sp: SystemParams,
}

/// Convenience: a `(nodes × cpus)` grid of flat-MPI configurations.
pub fn mpi_grid(node_counts: &[usize], cpus_per_node: usize) -> Vec<SweepPoint> {
    node_counts
        .iter()
        .map(|&n| SweepPoint {
            sp: SystemParams::flat_mpi(n, cpus_per_node),
        })
        .collect()
}

/// Fixed parameters of one sweep: what is shared by every point.
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Communication parameters used for every point.
    pub comm: CommParams,
    /// Base estimator options; tracing is forced off per point.
    pub options: EstimatorOptions,
    /// Worker threads; `0` selects the available parallelism.
    pub threads: usize,
    /// Evaluation engine used for every point (simulation by default;
    /// analytic makes large sweeps dramatically faster).
    pub backend: Backend,
}

/// One sweep point's outcome under the unified error type.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The configuration.
    pub sp: SystemParams,
    /// Predicted time, or the typed pipeline error.
    pub outcome: Result<f64, Error>,
}

impl PointResult {
    /// Predicted time if the evaluation succeeded.
    pub fn time(&self) -> Option<f64> {
        self.outcome.as_ref().ok().copied()
    }
}

/// All results of one sweep, in input order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-point outcomes, ordered as the input points.
    pub points: Vec<PointResult>,
}

impl SweepReport {
    /// Predicted times in input order (`None` for failed points).
    pub fn times(&self) -> Vec<Option<f64>> {
        self.points.iter().map(PointResult::time).collect()
    }

    /// Speedups relative to the first successful point.
    pub fn speedups(&self) -> Vec<Option<f64>> {
        let base = self.points.iter().find_map(PointResult::time);
        self.points
            .iter()
            .map(|p| match (base, p.time()) {
                (Some(b), Some(t)) => Some(b / t),
                _ => None,
            })
            .collect()
    }

    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_err()).count()
    }
}

/// A compiled model: checked and transformed exactly once, ready to
/// evaluate any number of scenarios.
#[derive(Debug, Clone)]
pub struct Session {
    model: Model,
    mcf: McfConfig,
    diagnostics: Vec<Diagnostic>,
    program: Program,
    /// Memoized elaborations of this session's program, shared by every
    /// serve entry point (and by clones of this session — a clone
    /// serves the same immutable program, so sharing stays sound).
    elab: Arc<ElaborationCache>,
}

// The serve layer shares one `Session` per model across all connection
// worker threads via `Arc<Session>`; keep that capability pinned at
// compile time (every field is owned data or an `Arc` over the
// elaboration cache, whose index is behind a `Mutex` — no interior
// mutability that isn't thread-safe).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Scenario>();
    assert_send_sync::<SweepConfig>();
};

impl Session {
    /// Check `model` under `mcf` and transform it to the executable
    /// Program IR. This is the only place in the new API that pays the
    /// check + transform cost.
    ///
    /// # Errors
    /// [`Error::Check`] when the checker finds error-severity findings,
    /// [`Error::Transform`] when the transformation rejects the model.
    pub fn compile(model: Model, mcf: McfConfig) -> Result<Self, Error> {
        let diagnostics = check_model(&model, &mcf);
        if diagnostics.iter().any(Diagnostic::is_error) {
            return Err(Error::Check(
                diagnostics
                    .into_iter()
                    .filter(Diagnostic::is_error)
                    .collect(),
            ));
        }
        let program = to_program(&model)?;
        // Resolve names here, once, so no evaluation pays for it.
        program.resolve();
        Ok(Self {
            model,
            mcf,
            diagnostics,
            program,
            elab: Arc::new(ElaborationCache::new()),
        })
    }

    /// Compile with the default model-checking configuration.
    pub fn new(model: Model) -> Result<Self, Error> {
        Self::compile(model, McfConfig::default())
    }

    /// Parse the model from XML and compile it (default MCF).
    pub fn from_model_xml(xml: &str) -> Result<Self, Error> {
        Self::compile(prophet_uml::xmi::model_from_xml(xml)?, McfConfig::default())
    }

    /// The source model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The model-checking configuration used at compile time.
    pub fn mcf(&self) -> &McfConfig {
        &self.mcf
    }

    /// All compile-time diagnostics (warnings included).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The executable IR.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Serialize the model to XML (the `Models (XML)` artifact).
    pub fn model_xml(&self) -> String {
        prophet_uml::xmi::model_to_xml(&self.model)
    }

    /// Evaluate one scenario against the compiled program.
    ///
    /// The per-rank op lists come from the session's shared
    /// [`ElaborationCache`] (flattened once per distinct
    /// `(SP, comm, limits)` key across evaluations, sweeps and backends;
    /// a traced simulation uses its own traced entry, with the trace
    /// markers every other evaluation omits).
    ///
    /// # Errors
    /// [`Error::Machine`] for invalid SP, [`Error::Estimate`] for
    /// simulation failures.
    pub fn evaluate(&self, scenario: &Scenario) -> Result<Evaluation, Error> {
        let machine = MachineModel::new(scenario.system, scenario.comm)?;
        Ok(Estimator::run_backend_cached(
            scenario.backend,
            &self.program,
            &machine,
            &scenario.options,
            &self.elab,
            &mut BatchScratch::new(),
        )?)
    }

    /// Counter snapshot of the session's [`ElaborationCache`].
    ///
    /// The elaboration analogue of `transform_invocations`: `misses` is
    /// the number of elaborations the cache performed (one per distinct
    /// SP point), `hits` the evaluations served without re-flattening —
    /// benches and tests assert the flatten-once sweep contract against
    /// these (`hits + misses` grows by one per cached evaluation).
    pub fn elab_stats(&self) -> ElabStats {
        self.elab.stats()
    }

    /// Bytes the session's [`ElaborationCache`] retains (its op lists
    /// and batch programs; see [`ElaborationCache::retained_bytes`]) —
    /// what the service's session pool charges the session for.
    pub fn retained_bytes(&self) -> usize {
        self.elab.retained_bytes()
    }

    /// The session's shared [`ElaborationCache`], for callers that
    /// elaborate against this session's program directly (benches that
    /// time elaboration apart from evaluation).
    pub fn elab_cache(&self) -> &ElaborationCache {
        &self.elab
    }

    /// Sweep an SP grid with default comm/options and auto threading.
    pub fn sweep(&self, points: &[SweepPoint]) -> SweepReport {
        self.sweep_with(points, &SweepConfig::default(), |_, _| {})
    }

    /// Sweep an SP grid, streaming each point's result to `on_point`
    /// (called with the point's input index) as workers finish it.
    ///
    /// Tracing is disabled once for the whole sweep — options are built
    /// one time and shared by reference across workers, never cloned per
    /// point. Results are reassembled into input order regardless of
    /// completion order.
    pub fn sweep_with(
        &self,
        points: &[SweepPoint],
        config: &SweepConfig,
        mut on_point: impl FnMut(usize, &PointResult),
    ) -> SweepReport {
        let program = &self.program;
        let elab = &*self.elab;
        // Trace files are per-evaluation artifacts; a sweep only needs
        // predicted times, so force tracing off exactly once here.
        let options = EstimatorOptions {
            trace: false,
            ..config.options.clone()
        };
        let comm = config.comm;
        let backend = config.backend;
        // Analytic workers claim whole chunks off the cursor and replay
        // each point into their own reusable scratch; DES points are
        // expensive enough to claim one at a time.
        let chunk = match backend {
            Backend::Analytic => ANALYTIC_CHUNK,
            Backend::Simulation => 1,
        };
        let results = run_indexed_chunked(
            points.len(),
            config.threads,
            chunk,
            BatchScratch::new,
            |scratch, i| {
                let sp = points[i].sp;
                let outcome =
                    MachineModel::new(sp, comm)
                        .map_err(Error::from)
                        .and_then(|machine| {
                            Estimator::run_backend_cached(
                                backend, program, &machine, &options, elab, scratch,
                            )
                            .map(|e| e.predicted_time)
                            .map_err(Error::from)
                        });
                PointResult { sp, outcome }
            },
            &mut on_point,
        );
        SweepReport { points: results }
    }

    /// Evaluate heterogeneous scenarios in parallel (input order kept).
    ///
    /// Unlike [`Session::sweep`], every scenario may vary communication
    /// parameters and limits — the compile artifacts are still shared
    /// untouched.
    pub fn batch(&self, scenarios: &[Scenario]) -> Vec<Result<Evaluation, Error>> {
        self.batch_with(scenarios, 0, |_, _| {})
    }

    /// [`Session::batch`] with explicit thread count and a streaming
    /// observer called with each scenario's input index as it completes.
    pub fn batch_with(
        &self,
        scenarios: &[Scenario],
        threads: usize,
        mut on_result: impl FnMut(usize, &Result<Evaluation, Error>),
    ) -> Vec<Result<Evaluation, Error>> {
        run_indexed(
            scenarios.len(),
            threads,
            |i| self.evaluate(&scenarios[i]),
            &mut on_result,
        )
    }
}

/// Cursor claim size of analytic sweeps: large enough to
/// amortize the atomic `fetch_add` per claim across cheap closed-form
/// points, small enough that an uneven grid still balances across
/// workers.
const ANALYTIC_CHUNK: usize = 8;

/// Evaluate `count` independent jobs over scoped worker threads.
///
/// Workers claim indices from a shared atomic cursor (work stealing) and
/// send `(index, result)` over a channel; the caller's thread reassembles
/// input order and streams each result to `observe`. No lock is held
/// anywhere in the hot loop.
fn run_indexed<T: Send>(
    count: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
    observe: &mut impl FnMut(usize, &T),
) -> Vec<T> {
    run_indexed_chunked(count, threads, 1, || (), |(), i| job(i), observe)
}

/// [`run_indexed`] with chunked claims and per-worker state: each worker
/// builds one `state` with `init` and claims `chunk` consecutive indices
/// per cursor `fetch_add`, passing the state to every job it runs.
/// Sweeps use the state as the worker's reusable analytic scratch;
/// `chunk == 1` with a unit state degenerates to the plain
/// work-stealing loop.
fn run_indexed_chunked<T: Send, S>(
    count: usize,
    threads: usize,
    chunk: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
    observe: &mut impl FnMut(usize, &T),
) -> Vec<T> {
    if count == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    };
    // More workers than chunk claims would only spawn idle threads.
    let threads = threads.min(count.div_ceil(chunk));

    if threads == 1 {
        // Run on the caller's thread: same semantics, no machinery.
        let mut state = init();
        return (0..count)
            .map(|i| {
                let r = job(&mut state, i);
                observe(i, &r);
                r
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let init = &init;
            let job = &job;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    for i in start..(start + chunk).min(count) {
                        // The receiver outlives the scope; a send can
                        // only fail if the main thread panicked, in
                        // which case unwinding is already underway.
                        let _ = tx.send((i, job(&mut state, i)));
                    }
                }
            });
        }
        drop(tx);
        for (i, result) in rx.iter() {
            observe(i, &result);
            slots[i] = Some(result);
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform_invocations;
    use prophet_estimator::{elaborate, BatchProgram, ElabForm, FlattenLimits};
    use prophet_uml::ModelBuilder;

    fn amdahl_model() -> Model {
        let mut b = ModelBuilder::new("amdahl");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let serial = b.action(main, "Serial", "1.0");
        let par = b.action(main, "Par", "8.0 / P");
        let f = b.final_node(main, "end");
        b.flow(main, i, serial);
        b.flow(main, serial, par);
        b.flow(main, par, f);
        b.build()
    }

    #[test]
    fn compile_once_many_evaluations() {
        let session = Session::new(amdahl_model()).unwrap();
        let before = transform_invocations();
        for p in [1, 2, 4, 8] {
            let e = session
                .evaluate(&Scenario::new(SystemParams::flat_mpi(p, 1)).without_trace())
                .unwrap();
            assert_eq!(e.predicted_time, 1.0 + 8.0 / p as f64);
        }
        assert_eq!(
            transform_invocations(),
            before,
            "evaluate must never re-transform"
        );
    }

    #[test]
    fn sweep_matches_independent_evaluations() {
        let session = Session::new(amdahl_model()).unwrap();
        let points = mpi_grid(&[1, 2, 4, 8], 1);
        let report = session.sweep(&points);
        for (pt, res) in points.iter().zip(&report.points) {
            let direct = session
                .evaluate(&Scenario::new(pt.sp).without_trace())
                .unwrap()
                .predicted_time;
            assert_eq!(res.time().unwrap(), direct);
        }
        assert_eq!(report.failures(), 0);
        assert_eq!(report.speedups()[0], Some(1.0));
    }

    #[test]
    fn sweep_streams_every_index_once() {
        let session = Session::new(amdahl_model()).unwrap();
        let points = mpi_grid(&[8, 1, 4, 2, 16, 2, 4, 8], 1);
        let mut seen = vec![0usize; points.len()];
        let report = session.sweep_with(
            &points,
            &SweepConfig {
                threads: 3,
                ..Default::default()
            },
            |i, r| {
                assert!(r.outcome.is_ok());
                seen[i] += 1;
            },
        );
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        // Input order preserved regardless of completion order.
        let order: Vec<usize> = report.points.iter().map(|p| p.sp.processes).collect();
        assert_eq!(order, vec![8, 1, 4, 2, 16, 2, 4, 8]);
    }

    #[test]
    fn batch_handles_heterogeneous_scenarios() {
        let session = Session::new(amdahl_model()).unwrap();
        let scenarios = vec![
            Scenario::new(SystemParams::flat_mpi(2, 1)).without_trace(),
            Scenario::new(SystemParams::flat_mpi(2, 1))
                .with_comm(CommParams::fast_interconnect())
                .without_trace(),
            // Invalid: fewer processes than nodes.
            Scenario::new(SystemParams {
                nodes: 4,
                cpus_per_node: 1,
                processes: 2,
                threads_per_process: 1,
            }),
        ];
        let results = session.batch(&scenarios);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().predicted_time, 5.0);
        assert_eq!(results[1].as_ref().unwrap().predicted_time, 5.0);
        assert!(matches!(results[2], Err(Error::Machine(_))));
    }

    #[test]
    fn analytic_backend_agrees_and_skips_the_kernel() {
        let session = Session::new(amdahl_model()).unwrap();
        for p in [1, 2, 4, 8] {
            let scenario = Scenario::new(SystemParams::flat_mpi(p, 1));
            let sim = session.evaluate(&scenario).unwrap();
            let ana = session
                .evaluate(&scenario.clone().with_backend(Backend::Analytic))
                .unwrap();
            // Communication-free deterministic model: exact agreement.
            assert_eq!(ana.predicted_time, sim.predicted_time, "P={p}");
            assert_eq!(ana.report.events_processed, 0, "no DES involvement");
            assert!(ana.trace.is_empty(), "analytic backend records no trace");
        }
    }

    #[test]
    fn sweep_backend_selector_reaches_every_point() {
        let session = Session::new(amdahl_model()).unwrap();
        let points = mpi_grid(&[1, 2, 4, 8], 1);
        let sim = session.sweep(&points);
        let ana = session.sweep_with(
            &points,
            &SweepConfig {
                backend: Backend::Analytic,
                ..Default::default()
            },
            |_, _| {},
        );
        assert_eq!(ana.failures(), 0);
        assert_eq!(sim.times(), ana.times());
    }

    #[test]
    fn sweep_flattens_once_per_sp_point() {
        let session = Session::new(amdahl_model()).unwrap();
        let points = mpi_grid(&[1, 2, 4, 8, 16, 32, 64, 128], 1);
        // 8 SP points × 4 repeats × both backends: 8 elaborations total.
        let mut expected_lookups = 0u64;
        for _ in 0..4 {
            for backend in [Backend::Simulation, Backend::Analytic] {
                let config = SweepConfig {
                    backend,
                    ..Default::default()
                };
                let report = session.sweep_with(&points, &config, |_, _| {});
                assert_eq!(report.failures(), 0);
                expected_lookups += points.len() as u64;
            }
        }
        let stats = session.elab_stats();
        assert_eq!(stats.misses, points.len() as u64, "{stats:?}");
        assert_eq!(stats.bypasses, 0, "{stats:?}");
        assert_eq!(stats.lookups(), expected_lookups, "{stats:?}");
        assert_eq!(
            stats.hits,
            expected_lookups - points.len() as u64,
            "{stats:?}"
        );
    }

    #[test]
    fn uncached_sweep_matches_cached_bit_for_bit() {
        let session = Session::new(amdahl_model()).unwrap();
        let points = mpi_grid(&[1, 2, 4, 8], 1);
        let cached = session.sweep(&points);
        let options = EstimatorOptions {
            trace: false,
            ..Default::default()
        };
        for (pt, c) in points.iter().zip(cached.times()) {
            let machine = MachineModel::new(pt.sp, CommParams::default()).unwrap();
            let uncached = Estimator::run(session.program(), &machine, &options).unwrap();
            assert_eq!(c.unwrap().to_bits(), uncached.predicted_time.to_bits());
        }
    }

    #[test]
    fn cached_evaluations_match_the_uncached_reference() {
        let session = Session::new(amdahl_model()).unwrap();
        let sp = SystemParams::flat_mpi(2, 1);
        let machine = MachineModel::new(sp, CommParams::default()).unwrap();
        let program = session.program();
        let limits = FlattenLimits::default();

        let cached = session.evaluate(&Scenario::new(sp)).unwrap();
        let direct = Estimator::run(program, &machine, &EstimatorOptions::default()).unwrap();
        assert_eq!(
            cached.predicted_time.to_bits(),
            direct.predicted_time.to_bits()
        );

        let scenario = Scenario::new(sp).with_backend(Backend::Analytic);
        let cached = session.evaluate(&scenario).unwrap();
        let lean = elaborate(program, &machine, limits, ElabForm::Lean).unwrap();
        let direct = BatchProgram::prepare(&lean, &machine)
            .unwrap()
            .evaluate(&program.name, &mut BatchScratch::new())
            .unwrap();
        assert_eq!(
            cached.predicted_time.to_bits(),
            direct.predicted_time.to_bits()
        );
        // One traced entry (the simulation) and one lean (the analytic).
        let stats = session.elab_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
    }

    #[test]
    fn session_clones_share_the_cache() {
        let session = Session::new(amdahl_model()).unwrap();
        let clone = session.clone();
        let sp = SystemParams::flat_mpi(4, 1);
        session.evaluate(&Scenario::new(sp)).unwrap();
        clone.evaluate(&Scenario::new(sp)).unwrap();
        let stats = clone.elab_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn check_gate_blocks_bad_models() {
        let mut b = ModelBuilder::new("bad");
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "Oops", "1 +");
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        let err = Session::new(b.build()).unwrap_err();
        match err {
            Error::Check(diags) => {
                assert!(diags.iter().any(|d| d.rule == "PP006"), "{diags:?}");
            }
            other => panic!("expected check failure, got {other}"),
        }
    }

    #[test]
    fn model_xml_roundtrip_through_session() {
        let s1 = Session::new(amdahl_model()).unwrap();
        let s2 = Session::from_model_xml(&s1.model_xml()).unwrap();
        let scenario = Scenario::new(SystemParams::flat_mpi(4, 1));
        assert_eq!(
            s1.evaluate(&scenario).unwrap().predicted_time,
            s2.evaluate(&scenario).unwrap().predicted_time
        );
        let cpp = |s: &Session| crate::transform::to_cpp(s.model()).unwrap().model_text();
        assert_eq!(cpp(&s1), cpp(&s2));
    }
}
