//! Inverse queries over the SP lattice: instead of sweeping a grid and
//! reading the table, ask for the answer — "cheapest `(nodes, cpus)`
//! meeting a 2 s deadline", "best speedup per cost under a budget".
//!
//! [`optimize`] searches the `(nodes, cpus)` lattice lazily and returns
//! the Pareto frontier over `(cost, predicted time)`, where
//! `cost(n, c) = per_node·n + per_cpu·n·c` is known exactly without any
//! evaluation. The search is a coarse-seed / bound-and-refine loop in
//! the branch-and-bound family, with the analytic backend as the cheap
//! oracle (PR 7's batch path, elaboration cache shared through the
//! [`Session`]):
//!
//! 1. **Seed**: every cpus column is evaluated at a coarse stride along
//!    the nodes axis (endpoints always included), one batched sweep.
//! 2. **Bound**: each unevaluated gap ("cell") between two seeded
//!    neighbours gets the optimistic bound
//!    `lb = (1 − margin) · min(corner times)` — sound whenever the time
//!    curve between two seeded neighbours does not undercut its better
//!    corner by more than `margin`. The bundled workloads' sawtooth
//!    dips (lapw0's k-point remainders, jacobi's block boundaries)
//!    measure up to ~14% at the default stride, so the default margin
//!    is a conservative 20% — pinned by the differential suite in
//!    `tests/opt.rs`.
//! 3. **Refine or skip**: a cell is skipped when it provably cannot
//!    contribute a frontier point — an already-evaluated strictly
//!    cheaper point beats its bound (domination), both corners are
//!    bit-equal and a cheaper point matches them (plateau, the
//!    zero-speedup workloads), the bound misses the deadline
//!    (infeasible), or the whole cell is over the cost budget. Cells
//!    that survive are evaluated in full, cheapest first, so refined
//!    points immediately widen the incumbent set that later, more
//!    expensive cells are bounded against.
//!
//! The returned frontier is exactly the Pareto set a brute-force
//! full-grid sweep extracts ([`brute_force`], the differential
//! reference) while evaluating strictly fewer lattice points on
//! anything with pruneable structure. `margin` trades safety against
//! laziness: `margin → 1` refines everything (degenerates to the full
//! grid), `margin = 0` trusts the corners exactly. Frontier points can
//! optionally be re-verified with the trusted simulation backend
//! (`verify: "sim"` — the conformance-tested expensive twin of the
//! analytic oracle).
//!
//! Served as `POST /v1/optimize` (prophet-serve, digest-routed by
//! prophet-router) and `prophet optimize` on the CLI; library callers
//! use [`OptimizeSession::optimize`] on any compiled [`Session`].

#![forbid(unsafe_code)]

use prophet_core::{Backend, Error as CoreError, Session, SweepConfig, SweepPoint};
use prophet_machine::SystemParams;
use std::fmt;

/// What "best" means for [`OptimizeReport::best`]. The frontier itself
/// is objective-independent; the objective selects one point of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// The fastest feasible configuration (ties: cheapest).
    #[default]
    MinTime,
    /// The cheapest feasible configuration (pair with a deadline —
    /// without one this is simply the cheapest lattice point).
    MinCost,
    /// The configuration maximizing `speedup / cost` — equivalently
    /// minimizing `time · cost`, so it needs no baseline to be chosen.
    MaxSpeedupPerCost,
}

impl std::str::FromStr for Objective {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "min_time" => Ok(Self::MinTime),
            "min_cost" => Ok(Self::MinCost),
            "max_speedup_per_cost" => Ok(Self::MaxSpeedupPerCost),
            other => Err(format!(
                "unknown objective `{other}`; expected min_time, min_cost or max_speedup_per_cost"
            )),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::MinTime => "min_time",
            Self::MinCost => "min_cost",
            Self::MaxSpeedupPerCost => "max_speedup_per_cost",
        })
    }
}

/// The cost model: `cost(n, c) = per_node·n + per_cpu·n·c`. Monotone in
/// both lattice coordinates for non-negative weights, which is what
/// makes cost-ordered pruning sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost per allocated node.
    pub per_node: f64,
    /// Cost per allocated cpu (nodes × cpus-per-node of them).
    pub per_cpu: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            per_node: 1.0,
            per_cpu: 1.0,
        }
    }
}

impl CostWeights {
    /// The cost of a `(nodes, cpus_per_node)` lattice point.
    pub fn cost(&self, nodes: usize, cpus: usize) -> f64 {
        self.per_node * nodes as f64 + self.per_cpu * (nodes * cpus) as f64
    }
}

/// Feasibility constraints. Both are *monotone* (violated-by-slower /
/// violated-by-costlier), so the constrained Pareto set is exactly the
/// unconstrained frontier intersected with the feasible region — which
/// is also what lets the search skip certified-infeasible cells.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraints {
    /// Keep only configurations with predicted time ≤ deadline seconds.
    pub deadline: Option<f64>,
    /// Keep only configurations with cost ≤ budget (cost-model units);
    /// over-budget points are excluded without ever being evaluated.
    pub max_cost: Option<f64>,
}

/// Optional re-verification of the frontier with the trusted backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verify {
    /// Report the oracle's times as-is.
    #[default]
    None,
    /// Re-evaluate every frontier point with [`Backend::Simulation`]
    /// and attach the result as [`FrontierPoint::verified_time`].
    Sim,
}

impl std::str::FromStr for Verify {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Self::None),
            "sim" => Ok(Self::Sim),
            other => Err(format!(
                "unknown verify mode `{other}`; expected sim or none"
            )),
        }
    }
}

/// One inverse query over the `(nodes, cpus)` lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Which frontier point is reported as [`OptimizeReport::best`].
    pub objective: Objective,
    /// The cost model the frontier is extracted against.
    pub weights: CostWeights,
    /// Feasibility constraints (deadline / cost budget).
    pub constraints: Constraints,
    /// Node counts of the lattice (deduplicated and sorted ascending by
    /// [`OptimizeRequest::normalized`]; zero is rejected).
    pub nodes: Vec<usize>,
    /// Cpus-per-node values of the lattice (same normalization).
    pub cpus: Vec<usize>,
    /// The search oracle. [`Backend::Analytic`] (default) is the cheap
    /// closed-form oracle; [`Backend::Simulation`] searches with the
    /// expensive backend directly (same pruning, same frontier).
    pub backend: Backend,
    /// Re-verify the frontier with the simulation backend.
    pub verify: Verify,
    /// Cell-bound safety factor in `[0, 1)`: a cell interior is assumed
    /// not to undercut `min(corner times)` by more than this fraction.
    /// The default (0.2) clears the worst interior dip any bundled
    /// workload shows at the default stride (~14%, lapw0) with room to
    /// spare; smooth workloads can drop it for more aggressive pruning.
    pub margin: f64,
    /// Coarse seed stride along the nodes axis (≥ 1; `1` seeds every
    /// point, degenerating to the full grid).
    pub stride: usize,
    /// Worker threads for oracle sweeps (`0` = auto).
    pub workers: usize,
}

impl Default for OptimizeRequest {
    fn default() -> Self {
        Self {
            objective: Objective::default(),
            weights: CostWeights::default(),
            constraints: Constraints::default(),
            nodes: (1..=16).collect(),
            cpus: vec![1, 2, 4, 8],
            backend: Backend::Analytic,
            verify: Verify::None,
            margin: 0.2,
            stride: 4,
            workers: 0,
        }
    }
}

impl OptimizeRequest {
    /// Validate and canonicalize: axes deduplicated + sorted ascending,
    /// every numeric knob range-checked. All entry points (library,
    /// CLI, HTTP) funnel through this, so a zero node count or an
    /// inverted margin can never reach the engine.
    pub fn normalized(&self) -> Result<OptimizeRequest, OptError> {
        let mut req = self.clone();
        normalize_axis(&mut req.nodes, "nodes")?;
        normalize_axis(&mut req.cpus, "cpus")?;
        if !req.margin.is_finite() || !(0.0..1.0).contains(&req.margin) {
            return Err(OptError::Request(format!(
                "`margin` must be in [0, 1), got {}",
                req.margin
            )));
        }
        if req.stride == 0 {
            return Err(OptError::Request("`stride` must be at least 1".into()));
        }
        let w = &req.weights;
        if !w.per_node.is_finite() || !w.per_cpu.is_finite() || w.per_node < 0.0 || w.per_cpu < 0.0
        {
            return Err(OptError::Request(format!(
                "cost weights must be finite and non-negative, got per_node={} per_cpu={}",
                w.per_node, w.per_cpu
            )));
        }
        if w.per_node == 0.0 && w.per_cpu == 0.0 {
            return Err(OptError::Request(
                "cost weights must not both be zero".into(),
            ));
        }
        for (name, value) in [
            ("deadline", req.constraints.deadline),
            ("max_cost", req.constraints.max_cost),
        ] {
            if let Some(v) = value {
                if !v.is_finite() || v <= 0.0 {
                    return Err(OptError::Request(format!(
                        "`{name}` must be positive and finite, got {v}"
                    )));
                }
            }
        }
        Ok(req)
    }
}

fn normalize_axis(axis: &mut Vec<usize>, name: &str) -> Result<(), OptError> {
    if axis.is_empty() {
        return Err(OptError::Request(format!(
            "`{name}` must be a non-empty list of counts"
        )));
    }
    if axis.contains(&0) {
        return Err(OptError::Request(format!(
            "bad count `0` in `{name}`: every count must be at least 1"
        )));
    }
    axis.sort_unstable();
    axis.dedup();
    Ok(())
}

/// One point of the returned Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The configuration (flat MPI: `processes = nodes × cpus`).
    pub sp: SystemParams,
    /// Its cost under the request's [`CostWeights`].
    pub cost: f64,
    /// The oracle's predicted time in seconds.
    pub time: f64,
    /// Speedup relative to the cheapest in-budget lattice point.
    pub speedup: f64,
    /// The simulation backend's time, when `verify: sim` was requested.
    pub verified_time: Option<f64>,
}

/// The answer to an [`OptimizeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Echo of the request's objective.
    pub objective: Objective,
    /// Echo of the request's oracle backend.
    pub backend: Backend,
    /// The Pareto frontier over `(cost, time)`, feasible points only,
    /// sorted by ascending cost (ties: time, nodes, cpus).
    pub frontier: Vec<FrontierPoint>,
    /// Index into [`Self::frontier`] of the objective's pick (`None`
    /// when the frontier is empty, e.g. nothing meets the deadline).
    pub best: Option<usize>,
    /// The cheapest in-budget lattice point and its predicted time —
    /// the speedup baseline.
    pub baseline: Option<(SystemParams, f64)>,
    /// Lattice points actually evaluated through the oracle backend.
    pub oracle_evals: usize,
    /// Lattice points in the requested grid (`nodes × cpus`).
    pub grid_size: usize,
    /// Seed-gap cells proven unable to contribute a frontier point and
    /// skipped without evaluation.
    pub cells_skipped: usize,
    /// Seed-gap cells whose bound survived and were fully evaluated.
    pub cells_refined: usize,
    /// Simulation evaluations spent re-verifying the frontier.
    pub verifier_evals: usize,
}

impl OptimizeReport {
    /// The objective's pick, if the frontier is non-empty.
    pub fn best_point(&self) -> Option<&FrontierPoint> {
        self.best.and_then(|i| self.frontier.get(i))
    }
}

/// Optimizer failures. Evaluation problems fail the whole query and
/// name the offending lattice point — a search over a model that cannot
/// be evaluated somewhere has no trustworthy frontier.
#[derive(Debug)]
pub enum OptError {
    /// The request itself is invalid (bad axis, margin, weights...).
    Request(String),
    /// The oracle failed at a lattice point.
    Eval {
        /// The point that failed.
        sp: SystemParams,
        /// The underlying evaluation error.
        source: CoreError,
    },
    /// The oracle produced a non-finite prediction at a lattice point.
    NonFinite {
        /// The point that produced it.
        sp: SystemParams,
        /// The non-finite value (`inf`/`NaN`).
        time: f64,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Request(msg) => write!(f, "invalid optimize request: {msg}"),
            Self::Eval { sp, .. } => write!(
                f,
                "evaluation failed at nodes={} cpus={}",
                sp.nodes, sp.cpus_per_node
            ),
            Self::NonFinite { sp, time } => write!(
                f,
                "non-finite prediction ({time}) at nodes={} cpus={}",
                sp.nodes, sp.cpus_per_node
            ),
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Eval { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// `Session::optimize` — the optimizer as a method on any compiled
/// [`Session`] (prophet-core cannot depend on this crate, so the entry
/// point arrives as an extension trait).
pub trait OptimizeSession {
    /// Run the lazy Pareto search ([`optimize`]).
    fn optimize(&self, req: &OptimizeRequest) -> Result<OptimizeReport, OptError>;
    /// Run the exhaustive reference ([`brute_force`]).
    fn optimize_brute_force(&self, req: &OptimizeRequest) -> Result<OptimizeReport, OptError>;
}

impl OptimizeSession for Session {
    fn optimize(&self, req: &OptimizeRequest) -> Result<OptimizeReport, OptError> {
        optimize(self, req)
    }
    fn optimize_brute_force(&self, req: &OptimizeRequest) -> Result<OptimizeReport, OptError> {
        brute_force(self, req)
    }
}

/// An evaluated lattice point (finite time only — anything else aborts
/// the search).
#[derive(Debug, Clone, Copy)]
struct Evaled {
    sp: SystemParams,
    cost: f64,
    time: f64,
}

/// A seed gap: the unevaluated node indices `lo+1..hi` of one cpus
/// column, bounded by its two evaluated corners.
struct Cell {
    ci: usize,
    lo: usize,
    hi: usize,
    lo_time: f64,
    hi_time: f64,
}

/// Evaluate `sps` through `backend`, failing fast on evaluation errors
/// and non-finite predictions.
fn sweep_times(
    session: &Session,
    backend: Backend,
    workers: usize,
    sps: &[SystemParams],
) -> Result<Vec<f64>, OptError> {
    let points: Vec<SweepPoint> = sps.iter().map(|&sp| SweepPoint { sp }).collect();
    let config = SweepConfig {
        backend,
        threads: workers,
        ..Default::default()
    };
    let report = session.sweep_with(&points, &config, |_, _| {});
    report
        .points
        .into_iter()
        .map(|p| match p.outcome {
            Ok(t) if t.is_finite() => Ok(t),
            Ok(t) => Err(OptError::NonFinite { sp: p.sp, time: t }),
            Err(e) => Err(OptError::Eval {
                sp: p.sp,
                source: e,
            }),
        })
        .collect()
}

/// Search the lattice lazily (see the crate docs for the algorithm) and
/// extract the Pareto frontier from the evaluated points.
pub fn optimize(session: &Session, req: &OptimizeRequest) -> Result<OptimizeReport, OptError> {
    let req = req.normalized()?;
    let (nodes, cpus) = (&req.nodes, &req.cpus);
    let grid_size = nodes.len() * cpus.len();

    // Seed: a coarse stride along every (budget-truncated) column,
    // endpoints included, evaluated as one batched sweep.
    let mut seed_sps = Vec::new();
    let mut columns: Vec<(usize, Vec<usize>)> = Vec::new();
    for (ci, &c) in cpus.iter().enumerate() {
        let in_budget = match req.constraints.max_cost {
            // Cost is monotone in n, so the in-budget rows are a prefix.
            Some(budget) => nodes
                .iter()
                .take_while(|&&n| req.weights.cost(n, c) <= budget)
                .count(),
            None => nodes.len(),
        };
        if in_budget == 0 {
            continue;
        }
        let mut idxs: Vec<usize> = (0..in_budget).step_by(req.stride).collect();
        if *idxs.last().expect("non-empty seed") != in_budget - 1 {
            idxs.push(in_budget - 1);
        }
        seed_sps.extend(idxs.iter().map(|&i| SystemParams::flat_mpi(nodes[i], c)));
        columns.push((ci, idxs));
    }
    let seed_times = sweep_times(session, req.backend, req.workers, &seed_sps)?;
    let mut oracle_evals = seed_sps.len();
    let mut evaled: Vec<Evaled> = seed_sps
        .iter()
        .zip(&seed_times)
        .map(|(&sp, &time)| Evaled {
            sp,
            cost: req.weights.cost(sp.nodes, sp.cpus_per_node),
            time,
        })
        .collect();

    // Cells between seeded neighbours, cheapest interior first so every
    // refinement widens the incumbent set later cells are bounded by.
    let mut cells = Vec::new();
    {
        let mut cursor = 0;
        for (ci, idxs) in &columns {
            for pair in idxs.windows(2) {
                if pair[1] > pair[0] + 1 {
                    let lo_pos = cursor + idxs.iter().position(|i| i == &pair[0]).expect("seeded");
                    let hi_pos = cursor + idxs.iter().position(|i| i == &pair[1]).expect("seeded");
                    cells.push(Cell {
                        ci: *ci,
                        lo: pair[0],
                        hi: pair[1],
                        lo_time: seed_times[lo_pos],
                        hi_time: seed_times[hi_pos],
                    });
                }
            }
            cursor += idxs.len();
        }
    }
    cells.sort_by(|a, b| {
        let ca = req.weights.cost(nodes[a.lo + 1], cpus[a.ci]);
        let cb = req.weights.cost(nodes[b.lo + 1], cpus[b.ci]);
        ca.total_cmp(&cb)
            .then(a.ci.cmp(&b.ci))
            .then(a.lo.cmp(&b.lo))
    });

    let (mut cells_skipped, mut cells_refined) = (0usize, 0usize);
    for cell in &cells {
        let c = cpus[cell.ci];
        let min_interior_cost = req.weights.cost(nodes[cell.lo + 1], c);
        let corner_min = cell.lo_time.min(cell.hi_time);
        let lb = (1.0 - req.margin) * corner_min;
        // Infeasible: even the optimistic bound misses the deadline.
        let infeasible = req.constraints.deadline.is_some_and(|d| lb > d);
        // Dominated: a strictly cheaper evaluated point beats the bound
        // — or, for a bit-equal plateau (constant-time workloads),
        // matches the corners outright.
        let plateau = cell.lo_time.to_bits() == cell.hi_time.to_bits();
        let dominated = || {
            evaled.iter().any(|q| {
                q.cost < min_interior_cost && (q.time <= lb || (plateau && q.time <= corner_min))
            })
        };
        if infeasible || dominated() {
            cells_skipped += 1;
            continue;
        }
        let sps: Vec<SystemParams> = (cell.lo + 1..cell.hi)
            .map(|i| SystemParams::flat_mpi(nodes[i], c))
            .collect();
        let times = sweep_times(session, req.backend, req.workers, &sps)?;
        oracle_evals += sps.len();
        evaled.extend(sps.iter().zip(&times).map(|(&sp, &time)| Evaled {
            sp,
            cost: req.weights.cost(sp.nodes, sp.cpus_per_node),
            time,
        }));
        cells_refined += 1;
    }

    finish(
        session,
        &req,
        evaled,
        oracle_evals,
        grid_size,
        cells_skipped,
        cells_refined,
    )
}

/// The exhaustive reference: evaluate every lattice point, then extract
/// the frontier with exactly the same machinery as [`optimize`]. The
/// differential suite asserts the two agree bit-for-bit on the bundled
/// workloads — with `oracle_evals` strictly smaller for the lazy path.
pub fn brute_force(session: &Session, req: &OptimizeRequest) -> Result<OptimizeReport, OptError> {
    let req = req.normalized()?;
    let sps: Vec<SystemParams> = req
        .cpus
        .iter()
        .flat_map(|&c| req.nodes.iter().map(move |&n| SystemParams::flat_mpi(n, c)))
        .collect();
    let times = sweep_times(session, req.backend, req.workers, &sps)?;
    let evaled = sps
        .iter()
        .zip(&times)
        .map(|(&sp, &time)| Evaled {
            sp,
            cost: req.weights.cost(sp.nodes, sp.cpus_per_node),
            time,
        })
        .collect();
    let grid = sps.len();
    finish(session, &req, evaled, grid, grid, 0, 0)
}

/// Shared tail of both searches: feasibility filter, Pareto extraction,
/// baseline/speedup, objective pick, optional sim verification.
fn finish(
    session: &Session,
    req: &OptimizeRequest,
    evaled: Vec<Evaled>,
    oracle_evals: usize,
    grid_size: usize,
    cells_skipped: usize,
    cells_refined: usize,
) -> Result<OptimizeReport, OptError> {
    // The speedup baseline: the cheapest in-budget lattice point. Both
    // search paths always evaluate it (it is the first seed of the
    // cheapest column), so the two reports agree on speedups too.
    let baseline_sp = req
        .cpus
        .iter()
        .flat_map(|&c| req.nodes.iter().map(move |&n| (n, c)))
        .filter(|&(n, c)| {
            req.constraints
                .max_cost
                .is_none_or(|b| req.weights.cost(n, c) <= b)
        })
        .min_by(|&(n1, c1), &(n2, c2)| {
            req.weights
                .cost(n1, c1)
                .total_cmp(&req.weights.cost(n2, c2))
                .then(n1.cmp(&n2))
                .then(c1.cmp(&c2))
        });
    let baseline = baseline_sp.and_then(|(n, c)| {
        evaled
            .iter()
            .find(|e| e.sp.nodes == n && e.sp.cpus_per_node == c)
            .map(|e| (e.sp, e.time))
    });

    // Feasible points, sorted by (cost, time, nodes, cpus).
    let mut feasible: Vec<&Evaled> = evaled
        .iter()
        .filter(|e| {
            req.constraints.deadline.is_none_or(|d| e.time <= d)
                && req.constraints.max_cost.is_none_or(|b| e.cost <= b)
        })
        .collect();
    feasible.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.time.total_cmp(&b.time))
            .then(a.sp.nodes.cmp(&b.sp.nodes))
            .then(a.sp.cpus_per_node.cmp(&b.sp.cpus_per_node))
    });

    // Pareto scan: within an equal-cost group only the minimal-time
    // points survive, and only if they strictly beat everything
    // cheaper; identical (cost, time) pairs are mutually non-dominating
    // and all kept.
    let mut frontier: Vec<FrontierPoint> = Vec::new();
    let mut best_cheaper = f64::INFINITY;
    let mut i = 0;
    while i < feasible.len() {
        let mut j = i;
        while j < feasible.len() && feasible[j].cost.to_bits() == feasible[i].cost.to_bits() {
            j += 1;
        }
        let group_min = feasible[i].time; // sorted: first of the group
        if group_min < best_cheaper {
            for e in &feasible[i..j] {
                if e.time.to_bits() == group_min.to_bits() {
                    frontier.push(FrontierPoint {
                        sp: e.sp,
                        cost: e.cost,
                        time: e.time,
                        speedup: baseline.map_or(1.0, |(_, b)| b / e.time),
                        verified_time: None,
                    });
                }
            }
            best_cheaper = group_min;
        }
        i = j;
    }

    let best = pick_best(req.objective, &frontier);

    let mut verifier_evals = 0;
    if req.verify == Verify::Sim && !frontier.is_empty() {
        let sps: Vec<SystemParams> = frontier.iter().map(|p| p.sp).collect();
        let times = sweep_times(session, Backend::Simulation, req.workers, &sps)?;
        verifier_evals = sps.len();
        for (p, t) in frontier.iter_mut().zip(times) {
            p.verified_time = Some(t);
        }
    }

    Ok(OptimizeReport {
        objective: req.objective,
        backend: req.backend,
        frontier,
        best,
        baseline,
        oracle_evals,
        grid_size,
        cells_skipped,
        cells_refined,
        verifier_evals,
    })
}

/// The objective's pick among the (already feasible) frontier points.
fn pick_best(objective: Objective, frontier: &[FrontierPoint]) -> Option<usize> {
    if frontier.is_empty() {
        return None;
    }
    let key = |p: &FrontierPoint| -> (f64, f64) {
        match objective {
            Objective::MinTime => (p.time, p.cost),
            // Frontier order is (cost, time, ...) ascending already.
            Objective::MinCost => (p.cost, p.time),
            // max speedup/cost == min time·cost, baseline-independent.
            Objective::MaxSpeedupPerCost => (p.time * p.cost, p.cost),
        }
    };
    (0..frontier.len()).min_by(|&a, &b| {
        let (ka, kb) = (key(&frontier[a]), key(&frontier[b]));
        ka.0.total_cmp(&kb.0)
            .then(ka.1.total_cmp(&kb.1))
            .then(frontier[a].sp.nodes.cmp(&frontier[b].sp.nodes))
            .then(
                frontier[a]
                    .sp
                    .cpus_per_node
                    .cmp(&frontier[b].sp.cpus_per_node),
            )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_workloads::models;

    fn jacobi() -> Session {
        Session::new(models::jacobi_model(100_000, 10, 1e-8)).expect("bundled models compile")
    }

    #[test]
    fn axes_are_validated_and_canonicalized() {
        let mut req = OptimizeRequest {
            nodes: vec![4, 1, 4, 2],
            cpus: vec![2, 1],
            ..Default::default()
        };
        let norm = req.normalized().unwrap();
        assert_eq!(norm.nodes, vec![1, 2, 4]);
        assert_eq!(norm.cpus, vec![1, 2]);
        req.nodes = vec![1, 0, 2];
        let err = req.normalized().unwrap_err().to_string();
        assert!(err.contains("bad count `0` in `nodes`"), "{err}");
        req.nodes = vec![];
        assert!(req.normalized().is_err());
        req.nodes = vec![1];
        req.margin = 1.5;
        assert!(req.normalized().is_err());
        req.margin = 0.2;
        req.weights = CostWeights {
            per_node: 0.0,
            per_cpu: 0.0,
        };
        assert!(req.normalized().is_err());
    }

    #[test]
    fn objective_and_verify_parse_roundtrip() {
        for o in [
            Objective::MinTime,
            Objective::MinCost,
            Objective::MaxSpeedupPerCost,
        ] {
            assert_eq!(o.to_string().parse::<Objective>().unwrap(), o);
        }
        assert!("fastest".parse::<Objective>().is_err());
        assert_eq!("sim".parse::<Verify>().unwrap(), Verify::Sim);
        assert!("simulation!".parse::<Verify>().is_err());
    }

    #[test]
    fn frontier_matches_brute_force_and_prunes() {
        let s = jacobi();
        let req = OptimizeRequest {
            nodes: (1..=24).collect(),
            cpus: vec![1, 2, 4],
            ..Default::default()
        };
        let lazy = optimize(&s, &req).unwrap();
        let full = brute_force(&s, &req).unwrap();
        assert_eq!(lazy.frontier, full.frontier);
        assert_eq!(lazy.best, full.best);
        assert_eq!(full.oracle_evals, full.grid_size);
        assert!(
            lazy.oracle_evals < lazy.grid_size,
            "lazy search must evaluate fewer points: {} vs {}",
            lazy.oracle_evals,
            lazy.grid_size
        );
        assert!(lazy.cells_skipped > 0);
        // Frontier shape: cost strictly ascending, time strictly
        // descending (no duplicates on this lattice).
        for w in lazy.frontier.windows(2) {
            assert!(w[0].cost < w[1].cost && w[0].time > w[1].time);
        }
    }

    #[test]
    fn constraints_filter_the_frontier() {
        let s = jacobi();
        let free = optimize(&s, &OptimizeRequest::default()).unwrap();
        assert!(!free.frontier.is_empty());
        let deadline = free.frontier[free.frontier.len() / 2].time;
        let req = OptimizeRequest {
            constraints: Constraints {
                deadline: Some(deadline),
                max_cost: None,
            },
            ..Default::default()
        };
        let constrained = optimize(&s, &req).unwrap();
        assert!(constrained.frontier.iter().all(|p| p.time <= deadline));
        assert_eq!(
            constrained.frontier,
            brute_force(&s, &req).unwrap().frontier
        );
        // min_cost under a deadline = the cheapest point meeting it.
        let cheapest = OptimizeRequest {
            objective: Objective::MinCost,
            ..req.clone()
        };
        let report = optimize(&s, &cheapest).unwrap();
        assert_eq!(report.best, Some(0));

        // An unmeetable deadline yields an empty frontier, not an error.
        let impossible = OptimizeRequest {
            constraints: Constraints {
                deadline: Some(1e-12),
                max_cost: None,
            },
            ..Default::default()
        };
        let report = optimize(&s, &impossible).unwrap();
        assert!(report.frontier.is_empty() && report.best.is_none());
    }

    #[test]
    fn cost_budget_excludes_points_without_evaluating_them() {
        let s = jacobi();
        let req = OptimizeRequest {
            constraints: Constraints {
                deadline: None,
                max_cost: Some(20.0),
            },
            ..Default::default()
        };
        let lazy = optimize(&s, &req).unwrap();
        assert!(lazy.frontier.iter().all(|p| p.cost <= 20.0));
        assert_eq!(lazy.frontier, brute_force(&s, &req).unwrap().frontier);
        // The whole over-budget region was never evaluated.
        let in_budget = req
            .nodes
            .iter()
            .flat_map(|&n| req.cpus.iter().map(move |&c| (n, c)))
            .filter(|&(n, c)| req.weights.cost(n, c) <= 20.0)
            .count();
        assert!(lazy.oracle_evals <= in_budget);
    }

    #[test]
    fn sim_verify_attaches_trusted_times() {
        let s = jacobi();
        let req = OptimizeRequest {
            nodes: (1..=6).collect(),
            cpus: vec![1],
            verify: Verify::Sim,
            ..Default::default()
        };
        let report = optimize(&s, &req).unwrap();
        assert_eq!(report.verifier_evals, report.frontier.len());
        for p in &report.frontier {
            let sim = p.verified_time.expect("verified");
            // Conformance: analytic and simulation agree tightly.
            assert!((sim - p.time).abs() <= 1e-9 * sim.max(1.0), "{p:?}");
        }
    }

    #[test]
    fn best_point_tracks_the_objective() {
        let s = jacobi();
        let mut req = OptimizeRequest::default();
        let report = optimize(&s, &req).unwrap();
        let best = report.best_point().unwrap();
        // min_time: no frontier point is faster.
        assert!(report.frontier.iter().all(|p| best.time <= p.time));
        req.objective = Objective::MaxSpeedupPerCost;
        let report = optimize(&s, &req).unwrap();
        let best = report.best_point().unwrap();
        for p in &report.frontier {
            assert!(
                best.speedup / best.cost >= p.speedup / p.cost - 1e-12,
                "{p:?}"
            );
        }
    }
}
