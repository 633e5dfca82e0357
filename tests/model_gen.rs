//! Random-model differential fuzzing: generated well-formed UML
//! workload models through the whole check → flatten → evaluate
//! pipeline, on both backends, with and without the elaboration cache.
//!
//! The generator composes models from the same vocabulary as the
//! bundled workloads — compute actions (pid-parameterized costs, state
//! mutated by code fragments), branches, loops, nested
//! `<<activity+>>` composites, collectives, matched-tag send/recv
//! exchanges, and `<<parallel+>>` thread teams (optionally with
//! `<<critical+>>` sections) — while staying inside the regime where
//! the PR 2 conformance contract applies: deterministic costs, matched
//! point-to-point communication, one rank per node, and thread teams
//! that fit the node's CPUs.
//!
//! Every generated model must then satisfy, at every SP point:
//!
//! * the model checker accepts it and `Session::compile` succeeds,
//! * the simulation and analytic backends agree within the conformance
//!   tolerance (1e-9 relative),
//! * evaluations served through the session's `ElaborationCache` are
//!   **bit-identical** to cache-disabled evaluations, on both backends —
//!   the cache can never serve a stale or wrong op list,
//! * an untraced DES run on the traced and the lean elaboration gives
//!   the same bits and the same event count,
//! * one serialization is already the canonical form: reparsing the
//!   model's XML and serializing again is byte-identical, and the C++
//!   backend accepts every model `Session::compile` accepts.
//!
//! Seeding is deterministic (see `proptest-shim`); CI pins the case
//! budget with `PROPTEST_CASES`.

use prophet::check::McfConfig;
use prophet::core::{to_cpp, ArtifactKey, Backend, Scenario, Session};
use prophet::estimator::{
    elaborate, evaluate_analytic, BatchProgram, BatchScratch, ElabForm, Estimator, EstimatorOptions,
};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::serve::api::resolve_key;
use prophet::serve::json::Json;
use prophet::uml::xmi::{model_from_xml, model_to_xml};
use prophet::uml::{DiagramId, ElementId, Model, ModelBuilder, TagValue, VarType};
use proptest::prelude::*;

/// PR 2 conformance tolerance for deterministic message-passing models.
const REL_TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Model specs: plain data the strategies generate, then built into a
// real `Model` through `ModelBuilder`.
// ---------------------------------------------------------------------

/// One generated workload building block.
#[derive(Debug, Clone)]
enum Seg {
    /// `<<action+>>` with a deterministic pid-parameterized cost.
    Compute { base: u32, pid_coef: u32 },
    /// `<<action+>>` whose code fragment mutates a global the *next*
    /// stateful segment's cost reads — exercises eager state evaluation.
    Stateful { step: u32 },
    /// Decision/merge over rank parity with different per-arm costs.
    Branch { even: u32, odd: u32 },
    /// `<<loop+>>` composite repeating a body of simple segments.
    Loop { iters: u32, body: Vec<Seg> },
    /// Plain `<<activity+>>` composite (nested activity diagram).
    Nested { body: Vec<Seg> },
    /// A synchronizing collective.
    Collective { kind: u8, bytes: u32 },
    /// Even ranks send to their odd right neighbour; matched tags.
    PairExchange { bytes: u32 },
    /// Every rank sends to `(pid+1) % P`, receives from `(pid-1+P) % P`
    /// (guarded behind `P > 1`); matched tags, deadlock-free under the
    /// eager-send semantics.
    RingShift { bytes: u32 },
    /// `<<parallel+>>` thread team with tid-skewed arms, optionally
    /// containing a `<<critical+>>` section. Team sizes stay ≤ the
    /// generated machines' `cpus_per_node` so the analytic backend is
    /// in its exact (dedicated-CPU) regime.
    Team {
        threads: u32,
        work: u32,
        critical: bool,
    },
}

fn leaf_seg() -> BoxedStrategy<Seg> {
    prop_oneof![
        (1u32..50, 0u32..10).prop_map(|(base, pid_coef)| Seg::Compute { base, pid_coef }),
        (1u32..5).prop_map(|step| Seg::Stateful { step }),
        (1u32..40, 1u32..40).prop_map(|(even, odd)| Seg::Branch { even, odd }),
        (0u8..6, 0u32..4096).prop_map(|(kind, bytes)| Seg::Collective { kind, bytes }),
        (1u32..65536).prop_map(|bytes| Seg::PairExchange { bytes }),
        (1u32..65536).prop_map(|bytes| Seg::RingShift { bytes }),
        (1u32..=4, 1u32..30, any::<bool>()).prop_map(|(threads, work, critical)| Seg::Team {
            threads,
            work,
            critical,
        }),
    ]
    .boxed()
}

fn seg() -> BoxedStrategy<Seg> {
    prop_oneof![
        leaf_seg(),
        (1u32..=4, prop::collection::vec(leaf_seg(), 1..3))
            .prop_map(|(iters, body)| Seg::Loop { iters, body }),
        prop::collection::vec(leaf_seg(), 1..4).prop_map(|body| Seg::Nested { body }),
    ]
    .boxed()
}

fn workload() -> BoxedStrategy<Vec<Seg>> {
    prop::collection::vec(seg(), 1..6).boxed()
}

// ---------------------------------------------------------------------
// Spec → Model.
// ---------------------------------------------------------------------

struct Emit {
    b: ModelBuilder,
    /// Unique-name counter.
    n: usize,
    /// Next user message tag (matched pairs share one tag).
    tag: i64,
}

impl Emit {
    fn name(&mut self, what: &str) -> String {
        self.n += 1;
        format!("{what}{}", self.n)
    }

    /// Emit `seg` into `d`; returns its (entry, exit) elements.
    fn seg(&mut self, d: DiagramId, seg: &Seg) -> (ElementId, ElementId) {
        match seg {
            Seg::Compute { base, pid_coef } => {
                let name = self.name("W");
                let cost = format!("0.0001 * ({base} + {pid_coef} * pid)");
                let a = self.b.action(d, &name, &cost);
                (a, a)
            }
            Seg::Stateful { step } => {
                let name = self.name("S");
                // GV accumulates across stateful segments; the cost of
                // each reflects the state *after* its own fragment ran.
                let a = self.b.action(d, &name, "0.0001 * (1 + GV)");
                self.b.attach_code(a, &format!("GV = GV + {step};"));
                (a, a)
            }
            Seg::Branch { even, odd } => {
                let (dn, an, on, mn) = (
                    self.name("dec"),
                    self.name("Be"),
                    self.name("Bo"),
                    self.name("m"),
                );
                let dec = self.b.decision(d, &dn);
                let a = self.b.action(d, &an, &format!("0.0001 * {even}"));
                let o = self.b.action(d, &on, &format!("0.0001 * {odd}"));
                let m = self.b.merge(d, &mn);
                self.b.guarded_flow(d, dec, a, "pid % 2 == 0");
                self.b.guarded_flow(d, dec, o, "else");
                self.b.flow(d, a, m);
                self.b.flow(d, o, m);
                (dec, m)
            }
            Seg::Loop { iters, body } => {
                let sn = self.name("loopbody");
                let sub = self.b.diagram(&sn);
                self.chain(sub, body);
                let name = self.name("L");
                let lp = self.b.loop_activity(d, &name, sub, &iters.to_string());
                (lp, lp)
            }
            Seg::Nested { body } => {
                let sn = self.name("nested");
                let sub = self.b.diagram(&sn);
                self.chain(sub, body);
                let name = self.name("N");
                let call = self.b.call_activity(d, &name, sub);
                (call, call)
            }
            Seg::Collective { kind, bytes } => {
                let name = self.name("C");
                let size = ("size", TagValue::Expr(bytes.to_string()));
                let root = ("root", TagValue::Expr("0".into()));
                let el = match kind % 6 {
                    0 => self.b.mpi(d, &name, "barrier", &[]),
                    1 => self.b.mpi(d, &name, "broadcast", &[root, size]),
                    2 => self.b.mpi(d, &name, "reduce", &[root, size]),
                    3 => self.b.mpi(d, &name, "allreduce", &[size]),
                    4 => self.b.mpi(d, &name, "scatter", &[root, size]),
                    _ => self.b.mpi(d, &name, "gather", &[root, size]),
                };
                (el, el)
            }
            Seg::PairExchange { bytes } => {
                let tag = self.tag;
                self.tag += 1;
                let (d1n, txn, m1n, d2n, rxn, m2n) = (
                    self.name("isSender"),
                    self.name("Tx"),
                    self.name("m"),
                    self.name("isReceiver"),
                    self.name("Rx"),
                    self.name("m"),
                );
                let d1 = self.b.decision(d, &d1n);
                let tx = self.b.mpi(
                    d,
                    &txn,
                    "send",
                    &[
                        ("dest", TagValue::Expr("pid + 1".into())),
                        ("size", TagValue::Expr(bytes.to_string())),
                        ("tag", TagValue::Int(tag)),
                    ],
                );
                let m1 = self.b.merge(d, &m1n);
                let d2 = self.b.decision(d, &d2n);
                let rx = self.b.mpi(
                    d,
                    &rxn,
                    "recv",
                    &[
                        ("src", TagValue::Expr("pid - 1".into())),
                        ("tag", TagValue::Int(tag)),
                    ],
                );
                let m2 = self.b.merge(d, &m2n);
                // Even ranks with an odd right neighbour send; exactly
                // those neighbours receive — every send is matched.
                self.b
                    .guarded_flow(d, d1, tx, "pid % 2 == 0 && pid + 1 < P");
                self.b.guarded_flow(d, d1, m1, "else");
                self.b.flow(d, tx, m1);
                self.b.flow(d, m1, d2);
                self.b.guarded_flow(d, d2, rx, "pid % 2 == 1");
                self.b.guarded_flow(d, d2, m2, "else");
                self.b.flow(d, rx, m2);
                (d1, m2)
            }
            Seg::RingShift { bytes } => {
                let tag = self.tag;
                self.tag += 1;
                let (dn, txn, rxn, mn) = (
                    self.name("ring"),
                    self.name("RingTx"),
                    self.name("RingRx"),
                    self.name("m"),
                );
                let dec = self.b.decision(d, &dn);
                let tx = self.b.mpi(
                    d,
                    &txn,
                    "send",
                    &[
                        ("dest", TagValue::Expr("(pid + 1) % P".into())),
                        ("size", TagValue::Expr(bytes.to_string())),
                        ("tag", TagValue::Int(tag)),
                    ],
                );
                let rx = self.b.mpi(
                    d,
                    &rxn,
                    "recv",
                    &[
                        ("src", TagValue::Expr("(pid - 1 + P) % P".into())),
                        ("tag", TagValue::Int(tag)),
                    ],
                );
                let m = self.b.merge(d, &mn);
                self.b.guarded_flow(d, dec, tx, "P > 1");
                self.b.guarded_flow(d, dec, m, "else");
                self.b.flow(d, tx, rx);
                self.b.flow(d, rx, m);
                (dec, m)
            }
            Seg::Team {
                threads,
                work,
                critical,
            } => {
                let bn = self.name("teambody");
                let body = self.b.diagram(&bn);
                let twn = self.name("TW");
                let w = self
                    .b
                    .action(body, &twn, &format!("0.0001 * ({work} + tid)"));
                if *critical {
                    let (ln, lwn, cn) = (self.name("lockbody"), self.name("LW"), self.name("Crit"));
                    let locked = self.b.diagram(&ln);
                    self.b.action(locked, &lwn, &format!("0.0001 * {work}"));
                    let crit = self.b.critical_activity(body, &cn, locked, "fuzzlock");
                    self.b.flow(body, w, crit);
                }
                let name = self.name("T");
                let region = self
                    .b
                    .parallel_activity(d, &name, body, &threads.to_string());
                (region, region)
            }
        }
    }

    /// Emit `segs` as a chain inside `d` (composite bodies have a unique
    /// entry node instead of initial/final markers).
    fn chain(&mut self, d: DiagramId, segs: &[Seg]) {
        let mut prev: Option<ElementId> = None;
        for seg in segs {
            let (entry, exit) = self.seg(d, seg);
            if let Some(p) = prev {
                self.b.flow(d, p, entry);
            }
            prev = Some(exit);
        }
    }
}

/// Build a checkable model from a generated workload spec.
fn build_model(segs: &[Seg]) -> Model {
    let mut e = Emit {
        b: ModelBuilder::new("fuzz"),
        n: 0,
        tag: 0,
    };
    e.b.global("GV", VarType::Int, Some("0"));
    let main = e.b.main_diagram();
    let start = e.b.initial(main, "start");
    let end_marker = e.b.final_node(main, "end");
    let mut prev = start;
    for seg in segs {
        let (entry, exit) = e.seg(main, seg);
        e.b.flow(main, prev, entry);
        prev = exit;
    }
    e.b.flow(main, prev, end_marker);
    e.b.build()
}

/// The SP grid: one rank per node, 4 CPUs each (teams of ≤ 4 stay in
/// the analytic backend's exact dedicated-CPU regime).
fn grid() -> [SystemParams; 4] {
    [1usize, 2, 3, 5].map(|p| SystemParams {
        nodes: p,
        cpus_per_node: 4,
        processes: p,
        threads_per_process: 1,
    })
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    (a - b).abs() / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property: for every generated model and SP
    /// point, simulation and analytic agree within the conformance
    /// tolerance, analytic evaluation is bit-identical to the reference
    /// walker, and cached evaluation is bit-identical to uncached on
    /// both backends.
    #[test]
    fn generated_models_survive_the_whole_pipeline(segs in workload()) {
        let model = build_model(&segs);
        let session = match Session::new(model) {
            Ok(s) => s,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "generated model failed to compile: {e}\nspec: {segs:?}"
                )))
            }
        };
        for sp in grid() {
            let eval = |backend: Backend| {
                let scenario = Scenario::new(sp).without_trace().with_backend(backend);
                session.evaluate(&scenario).map(|e| e.predicted_time)
            };
            let sim = eval(Backend::Simulation)
                .map_err(|e| TestCaseError::fail(format!("sim {sp:?}: {e}\nspec: {segs:?}")))?;
            let ana = eval(Backend::Analytic)
                .map_err(|e| TestCaseError::fail(format!("ana {sp:?}: {e}\nspec: {segs:?}")))?;
            prop_assert!(
                rel_diff(sim, ana) <= REL_TOL,
                "backends diverge at {sp:?}: sim {sim:.12e} vs ana {ana:.12e} (rel {:.3e})\nspec: {segs:?}",
                rel_diff(sim, ana)
            );
            // Batch replay vs the reference walker (uncached, so the
            // cache counters below are untouched), bit-exact.
            let machine = MachineModel::new(sp, CommParams::default()).unwrap();
            let walker = evaluate_analytic(session.program(), &machine, &EstimatorOptions::default())
                .map_err(|e| TestCaseError::fail(format!("walker {sp:?}: {e}\nspec: {segs:?}")))?
                .predicted_time;
            prop_assert_eq!(
                ana.to_bits(), walker.to_bits(),
                "batch analytic diverged from the walker at {:?}\nspec: {:?}", sp, segs
            );
            // Untraced DES on the traced and the lean elaboration
            // (uncached): same bits, same event count, and the same
            // bits as the session's cached (lean) simulation.
            let untraced = EstimatorOptions { trace: false, ..Default::default() };
            let des = |form| {
                let ops = elaborate(session.program(), &machine, untraced.limits, form).unwrap();
                let e = Estimator::run_ops(&session.program().name, &ops, &machine, &untraced)
                    .unwrap();
                (e.predicted_time.to_bits(), e.report.events_processed)
            };
            let (on_traced, on_lean) = (des(ElabForm::Traced), des(ElabForm::Lean));
            prop_assert_eq!(
                on_lean, on_traced,
                "lean and traced DES diverged at {:?}\nspec: {:?}", sp, segs
            );
            prop_assert_eq!(on_lean.0, sim.to_bits(), "at {:?}\nspec: {:?}", sp, segs);
            // Cache transparency against the uncached reference of each
            // backend, bit-exact.
            let program = session.program();
            let sim_raw = Estimator::run(program, &machine, &untraced).unwrap().predicted_time;
            let lean = elaborate(program, &machine, untraced.limits, ElabForm::Lean).unwrap();
            let ana_raw = BatchProgram::prepare(&lean, &machine)
                .and_then(|batch| batch.evaluate(&program.name, &mut BatchScratch::new()))
                .unwrap()
                .predicted_time;
            prop_assert_eq!(
                sim.to_bits(), sim_raw.to_bits(),
                "cached simulation diverged at {:?}\nspec: {:?}", sp, segs
            );
            prop_assert_eq!(
                ana.to_bits(), ana_raw.to_bits(),
                "cached analytic diverged at {:?}\nspec: {:?}", sp, segs
            );
        }
        // After 4 SP points × 2 backends cached: 4 misses, 4 hits.
        let stats = session.elab_stats();
        prop_assert_eq!(stats.misses, 4, "one elaboration per SP point: {:?}", stats);
        prop_assert_eq!(stats.hits, 4, "second backend must reuse: {:?}", stats);
    }

    /// Cached sweeps of generated models are bit-identical to the
    /// uncached reference (`Estimator::run` per point) across repeated
    /// points (the repeat is what the cache serves) — the sweep-level
    /// analogue of the scenario property.
    #[test]
    fn generated_model_sweeps_are_cache_transparent(segs in workload()) {
        use prophet::core::{SweepConfig, SweepPoint};
        let session = Session::new(build_model(&segs)).map_err(|e| {
            TestCaseError::fail(format!("compile: {e}\nspec: {segs:?}"))
        })?;
        // Repeats on purpose: points 0 and 2, 1 and 3 share SP keys.
        let g = grid();
        let points: Vec<SweepPoint> = [g[1], g[3], g[1], g[3], g[0]]
            .into_iter()
            .map(|sp| SweepPoint { sp })
            .collect();
        let untraced = EstimatorOptions { trace: false, ..Default::default() };
        let uncached: Vec<Option<f64>> = points
            .iter()
            .map(|p| {
                let machine = MachineModel::new(p.sp, CommParams::default()).unwrap();
                Estimator::run(session.program(), &machine, &untraced)
                    .ok()
                    .map(|e| e.predicted_time)
            })
            .collect();
        for round in 0..2 {
            let cached = session
                .sweep_with(&points, &SweepConfig::default(), |_, _| {})
                .times();
            for (i, (c, u)) in cached.iter().zip(uncached.iter()).enumerate() {
                prop_assert_eq!(
                    c.map(f64::to_bits), u.map(f64::to_bits),
                    "point {} diverged under caching (round {})\nspec: {:?}", i, round, segs
                );
            }
        }
        // 3 distinct SP keys among 5 points × 2 rounds (cached runs only).
        let stats = session.elab_stats();
        prop_assert_eq!(stats.misses, 3, "{:?}", stats);
        prop_assert_eq!(stats.hits, 10 - 3, "{:?}", stats);
    }

    /// The service's memoized content key of an inline model equals the
    /// canonical key of its parse, in two spellings, on the first call
    /// (a memo miss) and the second (a hit).
    #[test]
    fn memoized_keys_agree_with_the_canonical_key(segs in workload()) {
        let xml = model_to_xml(&build_model(&segs));
        let spaced = xml.replace("><", ">\n  <");
        for spelling in [xml, spaced] {
            let canonical = ArtifactKey::of(
                &model_from_xml(&spelling).expect("generated XML parses"),
                &McfConfig::default(),
            );
            let body = Json::object([("model", Json::from(spelling))]);
            for call in ["miss", "hit"] {
                prop_assert_eq!(
                    resolve_key(&body).map_err(|r| r.body),
                    Ok(canonical),
                    "{} disagrees\nspec: {:?}", call, segs
                );
            }
        }
    }

    /// Element ids are document-order ordinals, so one serialization is
    /// a fixed point of parse-and-reserialize even though the builder
    /// creates a composite before its body's elements. `Session::compile`
    /// does not run the C++ backend, so it must accept every model that
    /// compile accepts.
    #[test]
    fn one_serialization_is_the_canonical_form(segs in workload()) {
        let model = build_model(&segs);
        let xml = model_to_xml(&model);
        let reparsed = model_from_xml(&xml).expect("generated XML parses");
        prop_assert!(model_to_xml(&reparsed) == xml, "not a fixed point\nspec: {:?}", segs);
        if Session::new(model.clone()).is_ok() {
            prop_assert!(
                to_cpp(&model).is_ok(),
                "C++ backend rejects a compiled model\nspec: {:?}", segs
            );
        }
    }
}
