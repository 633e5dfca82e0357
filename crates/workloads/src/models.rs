//! Ready-made UML performance models for the experiments.

use prophet_core::{Scenario, Session};
use prophet_machine::SystemParams;
use prophet_uml::{Model, ModelBuilder, TagValue, VarType};

/// Figure 3(c): the kernel-6 performance model — one `<<action+>>` whose
/// cost function `FK6` models `TK6`.
///
/// `seconds_per_flop` comes from calibration
/// ([`crate::lfk::calibrate_kernel6`]); `n`/`m` are the Fortran loop
/// bounds.
pub fn kernel6_model(n: usize, m: usize, seconds_per_flop: f64) -> Model {
    let mut b = ModelBuilder::new("kernel6");
    // TK6 = FK6(n, m): 2 flops × m × n(n−1)/2, times seconds/flop.
    b.function(
        "FK6",
        &["n", "m"],
        &format!("{seconds_per_flop} * 2 * m * n * (n - 1) / 2"),
    );
    b.global("KN", VarType::Int, Some(&n.to_string()));
    b.global("KM", VarType::Int, Some(&m.to_string()));
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let k6 = b.action(main, "Kernel6", "FK6(KN, KM)");
    let f = b.final_node(main, "end");
    b.flow(main, i, k6);
    b.flow(main, k6, f);
    b.build()
}

/// The Figure 7/8 sample model of a hypothetical program.
///
/// Main diagram: `start → A1 → ◇(GV) → {SA | A2} → merge → A4 → end`,
/// where `SA` is an `<<activity+>>` containing `SA1 → SA2`. Globals `GV`
/// and `P` are set by the code fragment associated with `A1`
/// (Figure 7(b)); each element has a cost function `FA1 … FSA2`, with
/// `FSA2(pid)` parameterized by the process id exactly as in
/// Figure 8(a).
pub fn sample_model() -> Model {
    let mut b = ModelBuilder::new("sample");
    // Globals (Figure 8(a) lines 24–25). `P` doubles as a cost parameter.
    b.global("GV", VarType::Int, Some("0"));
    b.global("P", VarType::Int, Some("4"));
    // Cost functions (Figure 8(a) lines 31–54): "these cost functions …
    // serve the purpose of illustration of various forms of expressing
    // cost functions".
    b.function("FA1", &[], "0.04 + 0.01 * P");
    b.function("FA2", &[], "0.2");
    b.function("FA4", &[], "0.05 * P");
    b.function("FSA1", &[], "0.5");
    b.function("FSA2", &["pid"], "0.1 + 0.02 * pid");

    let main = b.main_diagram();
    let sub = b.diagram("SA");

    let start = b.initial(main, "start");
    let a1 = b.action(main, "A1", "FA1()");
    // Figure 7(b): the fragment associated with A1 assigns GV and P.
    b.attach_code(a1, "GV = 1; P = 4;");
    let dec = b.decision(main, "decideGV");
    let sa = b.call_activity(main, "SA", sub);
    let a2 = b.action(main, "A2", "FA2()");
    let mrg = b.merge(main, "merge");
    let a4 = b.action(main, "A4", "FA4()");
    let end = b.final_node(main, "end");

    b.flow(main, start, a1);
    b.flow(main, a1, dec);
    b.guarded_flow(main, dec, sa, "GV == 1");
    b.guarded_flow(main, dec, a2, "else");
    b.flow(main, sa, mrg);
    b.flow(main, a2, mrg);
    b.flow(main, mrg, a4);
    b.flow(main, a4, end);

    let sa1 = b.action(sub, "SA1", "FSA1()");
    let sa2 = b.action(sub, "SA2", "FSA2(pid)");
    b.flow(sub, sa1, sa2);

    b.build()
}

/// A 1-D Jacobi stencil with halo exchange: `iters` sweeps over an
/// `n`-point grid block-distributed over `P` ranks, allreduce for the
/// convergence norm each sweep.
///
/// `seconds_per_point` is the per-point compute cost.
pub fn jacobi_model(n: usize, iters: usize, seconds_per_point: f64) -> Model {
    let mut b = ModelBuilder::new("jacobi");
    b.function(
        "FSweep",
        &["points"],
        &format!("{seconds_per_point} * points"),
    );
    b.global("GN", VarType::Int, Some(&n.to_string()));

    let main = b.main_diagram();
    let body = b.diagram("sweep");

    let i = b.initial(main, "start");
    let init = b.action(main, "InitGrid", "FSweep(GN / P)");
    let lp = b.loop_activity(main, "TimeLoop", body, &iters.to_string());
    let fin = b.action(main, "Finalize", "FSweep(GN / P) / 10");
    let f = b.final_node(main, "end");
    b.flow(main, i, init);
    b.flow(main, init, lp);
    b.flow(main, lp, fin);
    b.flow(main, fin, f);

    // Sweep body: compute, exchange halos with neighbours, allreduce.
    let compute = b.action(body, "Compute", "FSweep(GN / P)");
    let d_up = b.decision(body, "hasUp");
    let send_up = b.mpi(
        body,
        "SendUp",
        "send",
        &[
            ("dest", TagValue::Expr("pid - 1".into())),
            ("size", TagValue::Expr("8 * 1".into())),
            ("tag", TagValue::Int(1)),
        ],
    );
    let m_up = b.merge(body, "mergeUp");
    let d_dn = b.decision(body, "hasDown");
    let send_dn = b.mpi(
        body,
        "SendDown",
        "send",
        &[
            ("dest", TagValue::Expr("pid + 1".into())),
            ("size", TagValue::Expr("8 * 1".into())),
            ("tag", TagValue::Int(2)),
        ],
    );
    let m_dn = b.merge(body, "mergeDown");
    let d_rup = b.decision(body, "recvUpQ");
    let recv_up = b.mpi(
        body,
        "RecvUp",
        "recv",
        &[
            ("src", TagValue::Expr("pid - 1".into())),
            ("tag", TagValue::Int(2)),
        ],
    );
    let m_rup = b.merge(body, "mergeRecvUp");
    let d_rdn = b.decision(body, "recvDownQ");
    let recv_dn = b.mpi(
        body,
        "RecvDown",
        "recv",
        &[
            ("src", TagValue::Expr("pid + 1".into())),
            ("tag", TagValue::Int(1)),
        ],
    );
    let m_rdn = b.merge(body, "mergeRecvDown");
    let norm = b.mpi(
        body,
        "NormAllreduce",
        "allreduce",
        &[("size", TagValue::Expr("8".into()))],
    );

    b.flow(body, compute, d_up);
    b.guarded_flow(body, d_up, send_up, "pid > 0");
    b.guarded_flow(body, d_up, m_up, "else");
    b.flow(body, send_up, m_up);
    b.flow(body, m_up, d_dn);
    b.guarded_flow(body, d_dn, send_dn, "pid < P - 1");
    b.guarded_flow(body, d_dn, m_dn, "else");
    b.flow(body, send_dn, m_dn);
    b.flow(body, m_dn, d_rup);
    b.guarded_flow(body, d_rup, recv_up, "pid > 0");
    b.guarded_flow(body, d_rup, m_rup, "else");
    b.flow(body, recv_up, m_rup);
    b.flow(body, m_rup, d_rdn);
    b.guarded_flow(body, d_rdn, recv_dn, "pid < P - 1");
    b.guarded_flow(body, d_rdn, m_rdn, "else");
    b.flow(body, recv_dn, m_rdn);
    b.flow(body, m_rdn, norm);

    b.build()
}

/// A `stages`-deep message pipeline streaming `items` items: rank 0
/// produces, ranks 1..P−1 receive from the left, process, forward right.
pub fn pipeline_model(items: usize, per_item_cost: f64, item_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("pipeline");
    b.function("FItem", &[], &format!("{per_item_cost}"));
    let main = b.main_diagram();
    let body = b.diagram("item");
    let i = b.initial(main, "start");
    let lp = b.loop_activity(main, "Stream", body, &items.to_string());
    let f = b.final_node(main, "end");
    b.flow(main, i, lp);
    b.flow(main, lp, f);

    // Item body: if not first rank, receive; compute; if not last, send.
    let d_in = b.decision(body, "notFirst");
    let rx = b.mpi(
        body,
        "RecvItem",
        "recv",
        &[
            ("src", TagValue::Expr("pid - 1".into())),
            ("tag", TagValue::Int(0)),
        ],
    );
    let m_in = b.merge(body, "mergeIn");
    let work = b.action(body, "Process", "FItem()");
    let d_out = b.decision(body, "notLast");
    let tx = b.mpi(
        body,
        "SendItem",
        "send",
        &[
            ("dest", TagValue::Expr("pid + 1".into())),
            ("size", TagValue::Expr(item_bytes.to_string())),
            ("tag", TagValue::Int(0)),
        ],
    );
    let m_out = b.merge(body, "mergeOut");

    // `d_in` is the body's entry (unique node without incoming edges).
    b.guarded_flow(body, d_in, rx, "pid > 0");
    b.guarded_flow(body, d_in, m_in, "else");
    b.flow(body, rx, m_in);
    b.flow(body, m_in, work);
    b.flow(body, work, d_out);
    b.guarded_flow(body, d_out, tx, "pid < P - 1");
    b.guarded_flow(body, d_out, m_out, "else");
    b.flow(body, tx, m_out);

    b.build()
}

/// Master/worker: rank 0 scatters `task_bytes`-sized work descriptors,
/// every rank computes its (pid-skewed) share, then a gather and a final
/// reduce collect results.
pub fn master_worker_model(tasks: usize, per_task_cost: f64, task_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("master_worker");
    b.function(
        "FWork",
        &["t"],
        &format!("{per_task_cost} * t * (1 + 0.1 * pid)"),
    );
    b.global("TASKS", VarType::Int, Some(&tasks.to_string()));
    let main = b.main_diagram();
    let i = b.initial(main, "start");
    let scatter = b.mpi(
        main,
        "ScatterTasks",
        "scatter",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr(format!("{task_bytes} * TASKS"))),
        ],
    );
    let work = b.action(main, "Work", "FWork(TASKS / P)");
    let gather = b.mpi(
        main,
        "GatherResults",
        "gather",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr(format!("{task_bytes} * TASKS"))),
        ],
    );
    let reduce = b.mpi(
        main,
        "FinalReduce",
        "reduce",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr("8".into())),
        ],
    );
    let f = b.final_node(main, "end");
    b.flow(main, i, scatter);
    b.flow(main, scatter, work);
    b.flow(main, work, gather);
    b.flow(main, gather, reduce);
    b.flow(main, reduce, f);
    b.build()
}

/// A LAPW0-like hybrid MPI+OpenMP model (companion validation, CISIS
/// 2008; a synthetic stand-in for the real code).
///
/// Phase structure: setup, then a loop over `kpoints` in which each rank
/// computes its k-point share inside an OpenMP `<<parallel+>>` region and
/// the ranks allreduce the potential, then a gather of eigenvalues.
pub fn lapw0_model(atoms: usize, kpoints: usize, per_atom_cost: f64) -> Model {
    let mut b = ModelBuilder::new("lapw0");
    b.function("FSetup", &["a"], &format!("{per_atom_cost} * a * 2"));
    // Per k-point cost: atoms²-ish work divided over threads.
    b.function(
        "FKpoint",
        &["a"],
        &format!("{per_atom_cost} * a * a / 50 / threads"),
    );
    b.global("ATOMS", VarType::Int, Some(&atoms.to_string()));

    let main = b.main_diagram();
    let kloop = b.diagram("kpointLoop");
    let omp = b.diagram("ompRegion");

    let i = b.initial(main, "start");
    let setup = b.action(main, "Setup", "FSetup(ATOMS)");
    let lp = b.loop_activity(main, "KpointLoop", kloop, &format!("{kpoints} / P"));
    let gather = b.mpi(
        main,
        "GatherEig",
        "gather",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr("8 * ATOMS".into())),
        ],
    );
    let f = b.final_node(main, "end");
    b.flow(main, i, setup);
    b.flow(main, setup, lp);
    b.flow(main, lp, gather);
    b.flow(main, gather, f);

    // k-point body: OpenMP region + allreduce.
    let region = b.parallel_activity(kloop, "FftRegion", omp, "threads");
    let sync = b.mpi(
        kloop,
        "PotAllreduce",
        "allreduce",
        &[("size", TagValue::Expr("8 * ATOMS".into()))],
    );
    b.flow(kloop, region, sync);

    b.action(omp, "FftWork", "FKpoint(ATOMS)");

    b.build()
}

/// A rounds-based task farm (master–worker shaped, promoted from the
/// `tests/model_gen.rs` generator vocabulary): each of `rounds` rounds
/// broadcasts `task_bytes` of work descriptors from rank 0, every rank
/// computes a pid-skewed share whose cost also grows with an
/// accumulated steering state `GV`, and a reduce collects partials.
///
/// Differs from [`master_worker_model`] in that the farm is iterative
/// (a `<<loop+>>` of rounds rather than one scatter/gather) and
/// stateful: the code fragment attached to the steering action bumps
/// `GV` every round, so later rounds are costlier — the generator's
/// `Stateful` segment as a named workload.
pub fn task_farm_model(rounds: usize, per_task_cost: f64, task_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("task_farm");
    b.function(
        "FTask",
        &["r"],
        &format!("{per_task_cost} * r * (1 + 0.05 * pid)"),
    );
    b.function("FSteer", &[], &format!("{per_task_cost} * (1 + GV) / 4"));
    b.global("GV", VarType::Int, Some("0"));
    let main = b.main_diagram();
    let body = b.diagram("round");

    let i = b.initial(main, "start");
    let lp = b.loop_activity(main, "Farm", body, &rounds.to_string());
    let gather = b.mpi(
        main,
        "GatherResults",
        "gather",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr(task_bytes.to_string())),
        ],
    );
    let f = b.final_node(main, "end");
    b.flow(main, i, lp);
    b.flow(main, lp, gather);
    b.flow(main, gather, f);

    // Round body: broadcast descriptors, steer (stateful), work, reduce.
    let bcast = b.mpi(
        body,
        "BcastTasks",
        "broadcast",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr(task_bytes.to_string())),
        ],
    );
    let steer = b.action(body, "Steer", "FSteer()");
    b.attach_code(steer, "GV = GV + 1;");
    let work = b.action(body, "Work", "FTask(64 / P)");
    let reduce = b.mpi(
        body,
        "ReducePartials",
        "reduce",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr("8".into())),
        ],
    );
    b.flow(body, bcast, steer);
    b.flow(body, steer, work);
    b.flow(body, work, reduce);

    b.build()
}

/// A pipeline whose per-item work branches on rank parity (the
/// generator's `Branch` segment promoted into [`pipeline_model`]'s
/// streaming skeleton): even-rank stages do light filtering, odd-rank
/// stages do the expensive transform, so the pipeline's steady-state
/// rate is set by the odd stages.
pub fn branching_pipeline_model(items: usize, per_item_cost: f64, item_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("branching_pipeline");
    b.function("FLight", &[], &format!("{per_item_cost} / 4"));
    b.function("FHeavy", &[], &format!("{per_item_cost}"));
    let main = b.main_diagram();
    let body = b.diagram("item");
    let i = b.initial(main, "start");
    let lp = b.loop_activity(main, "Stream", body, &items.to_string());
    let f = b.final_node(main, "end");
    b.flow(main, i, lp);
    b.flow(main, lp, f);

    // Item body: receive from the left (unless first), branch on rank
    // parity for the processing cost, forward right (unless last).
    let d_in = b.decision(body, "notFirst");
    let rx = b.mpi(
        body,
        "RecvItem",
        "recv",
        &[
            ("src", TagValue::Expr("pid - 1".into())),
            ("tag", TagValue::Int(0)),
        ],
    );
    let m_in = b.merge(body, "mergeIn");
    let d_par = b.decision(body, "parity");
    let filt = b.action(body, "Filter", "FLight()");
    let xform = b.action(body, "Transform", "FHeavy()");
    let m_par = b.merge(body, "mergeParity");
    let d_out = b.decision(body, "notLast");
    let tx = b.mpi(
        body,
        "SendItem",
        "send",
        &[
            ("dest", TagValue::Expr("pid + 1".into())),
            ("size", TagValue::Expr(item_bytes.to_string())),
            ("tag", TagValue::Int(0)),
        ],
    );
    let m_out = b.merge(body, "mergeOut");

    b.guarded_flow(body, d_in, rx, "pid > 0");
    b.guarded_flow(body, d_in, m_in, "else");
    b.flow(body, rx, m_in);
    b.flow(body, m_in, d_par);
    b.guarded_flow(body, d_par, filt, "pid % 2 == 0");
    b.guarded_flow(body, d_par, xform, "else");
    b.flow(body, filt, m_par);
    b.flow(body, xform, m_par);
    b.flow(body, m_par, d_out);
    b.guarded_flow(body, d_out, tx, "pid < P - 1");
    b.guarded_flow(body, d_out, m_out, "else");
    b.flow(body, tx, m_out);

    b.build()
}

/// A periodic halo exchange on a ring (the generator's `RingShift`
/// segment as a named workload): `iters` steps, each computing a
/// `per_step_cost` update, shifting `cell_bytes` of boundary cells to
/// `(pid + 1) % P` while receiving from `(pid − 1 + P) % P` — guarded
/// by `P > 1` so the model stays valid on one rank — then an allreduce
/// for the step norm.
///
/// Unlike [`jacobi_model`]'s open-ended up/down halo, the ring wraps:
/// every rank sends and receives exactly one message per step, so the
/// communication load is perfectly balanced at any `P`.
pub fn halo_ring_model(iters: usize, per_step_cost: f64, cell_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("halo_ring");
    b.function("FStep", &[], &format!("{per_step_cost} * (1 + 0.02 * pid)"));
    let main = b.main_diagram();
    let body = b.diagram("step");
    let i = b.initial(main, "start");
    let lp = b.loop_activity(main, "TimeLoop", body, &iters.to_string());
    let f = b.final_node(main, "end");
    b.flow(main, i, lp);
    b.flow(main, lp, f);

    // Step body: compute, ring shift (skipped entirely at P = 1), norm.
    let compute = b.action(body, "Compute", "FStep()");
    let d_ring = b.decision(body, "ring");
    let tx = b.mpi(
        body,
        "RingSend",
        "send",
        &[
            ("dest", TagValue::Expr("(pid + 1) % P".into())),
            ("size", TagValue::Expr(cell_bytes.to_string())),
            ("tag", TagValue::Int(3)),
        ],
    );
    let rx = b.mpi(
        body,
        "RingRecv",
        "recv",
        &[
            ("src", TagValue::Expr("(pid - 1 + P) % P".into())),
            ("tag", TagValue::Int(3)),
        ],
    );
    let m_ring = b.merge(body, "mergeRing");
    let norm = b.mpi(
        body,
        "NormAllreduce",
        "allreduce",
        &[("size", TagValue::Expr("8".into()))],
    );
    b.flow(body, compute, d_ring);
    b.guarded_flow(body, d_ring, tx, "P > 1");
    b.guarded_flow(body, d_ring, m_ring, "else");
    b.flow(body, tx, rx);
    b.flow(body, rx, m_ring);
    b.flow(body, m_ring, norm);

    b.build()
}

/// A MapReduce-shaped job: rank 0 scatters `records` fixed-size input
/// records, every rank maps its share at a pid-skewed cost, pairs of
/// neighbouring ranks shuffle intermediate keys (the generator's
/// `PairExchange` segment: even ranks with an odd right neighbour send,
/// exactly those neighbours receive, so every send is matched at any
/// `P`), each rank combines locally, and a reduce folds the combined
/// partials into rank 0.
pub fn mapreduce_model(records: usize, per_record_cost: f64, record_bytes: u64) -> Model {
    let mut b = ModelBuilder::new("mapreduce");
    b.function(
        "FMap",
        &["r"],
        &format!("{per_record_cost} * r * (1 + 0.15 * pid)"),
    );
    b.function("FCombine", &["r"], &format!("{per_record_cost} * r / 8"));
    b.global("RECORDS", VarType::Int, Some(&records.to_string()));
    let main = b.main_diagram();

    let i = b.initial(main, "start");
    let scatter = b.mpi(
        main,
        "ScatterInput",
        "scatter",
        &[
            ("root", TagValue::Expr("0".into())),
            ("size", TagValue::Expr(format!("{record_bytes} * RECORDS"))),
        ],
    );
    let map = b.action(main, "Map", "FMap(RECORDS / P)");
    let d_tx = b.decision(main, "isSender");
    let tx = b.mpi(
        main,
        "ShuffleSend",
        "send",
        &[
            ("dest", TagValue::Expr("pid + 1".into())),
            (
                "size",
                TagValue::Expr(format!("{record_bytes} * RECORDS / 4")),
            ),
            ("tag", TagValue::Int(5)),
        ],
    );
    let m_tx = b.merge(main, "mergeSend");
    let d_rx = b.decision(main, "isReceiver");
    let rx = b.mpi(
        main,
        "ShuffleRecv",
        "recv",
        &[
            ("src", TagValue::Expr("pid - 1".into())),
            ("tag", TagValue::Int(5)),
        ],
    );
    let m_rx = b.merge(main, "mergeRecv");
    let combine = b.action(main, "Combine", "FCombine(RECORDS / P)");
    let reduce = b.mpi(
        main,
        "ReduceOutput",
        "reduce",
        &[
            ("root", TagValue::Expr("0".into())),
            (
                "size",
                TagValue::Expr(format!("{record_bytes} * RECORDS / P")),
            ),
        ],
    );
    let f = b.final_node(main, "end");

    b.flow(main, i, scatter);
    b.flow(main, scatter, map);
    b.flow(main, map, d_tx);
    b.guarded_flow(main, d_tx, tx, "pid % 2 == 0 && pid + 1 < P");
    b.guarded_flow(main, d_tx, m_tx, "else");
    b.flow(main, tx, m_tx);
    b.flow(main, m_tx, d_rx);
    b.guarded_flow(main, d_rx, rx, "pid % 2 == 1");
    b.guarded_flow(main, d_rx, m_rx, "else");
    b.flow(main, rx, m_rx);
    b.flow(main, m_rx, combine);
    b.flow(main, combine, reduce);
    b.flow(main, reduce, f);

    b.build()
}

/// Convenience: compile `model` and pair it with the scenario for the
/// given flat-MPI size.
pub fn session_for(
    model: Model,
    nodes: usize,
    cpus_per_node: usize,
) -> Result<(Session, Scenario), prophet_core::Error> {
    let session = Session::new(model)?;
    let scenario = Scenario::new(SystemParams::flat_mpi(nodes, cpus_per_node));
    Ok((session, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_check::{check_model, McfConfig};
    use prophet_core::mpi_grid;
    use prophet_machine::SystemParams;
    use prophet_trace::TraceAnalysis;

    fn run_default(model: Model) -> prophet_core::Evaluation {
        Session::new(model)
            .unwrap()
            .evaluate(&Scenario::default())
            .unwrap()
    }

    fn assert_checks(model: &Model) {
        let diags = check_model(model, &McfConfig::default());
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn all_models_pass_the_checker() {
        assert_checks(&kernel6_model(100, 10, 1e-9));
        assert_checks(&sample_model());
        assert_checks(&jacobi_model(1000, 5, 1e-8));
        assert_checks(&pipeline_model(10, 0.01, 1024));
        assert_checks(&master_worker_model(64, 0.01, 256));
        assert_checks(&lapw0_model(32, 8, 1e-4));
        assert_checks(&task_farm_model(8, 0.002, 512));
        assert_checks(&branching_pipeline_model(24, 0.004, 2048));
        assert_checks(&halo_ring_model(16, 0.003, 4096));
        assert_checks(&mapreduce_model(4096, 1e-6, 64));
    }

    #[test]
    fn task_farm_rounds_get_costlier() {
        // GV accumulates across rounds, so doubling the rounds more
        // than doubles the farm time (stateful steering, not a loop
        // of identical bodies).
        let time_for = |rounds| {
            let (session, scenario) =
                session_for(task_farm_model(rounds, 0.002, 512), 4, 1).unwrap();
            session.evaluate(&scenario).unwrap().predicted_time
        };
        let (t4, t8) = (time_for(4), time_for(8));
        assert!(t8 > 2.0 * t4, "t8 {t8} vs t4 {t4}: steering state lost");
    }

    #[test]
    fn branching_pipeline_odd_stages_dominate() {
        let (session, scenario) =
            session_for(branching_pipeline_model(24, 0.004, 2048), 4, 1).unwrap();
        let run = session.evaluate(&scenario).unwrap();
        let a = TraceAnalysis::analyze(&run.trace);
        let heavy = a.element("Transform").unwrap();
        let light = a.element("Filter").unwrap();
        assert!(
            heavy.max_time > light.max_time,
            "heavy {} !> light {}",
            heavy.max_time,
            light.max_time
        );
        // Steady-state rate is set by the heavy (odd) stages.
        assert!(run.predicted_time >= 24.0 * 0.004, "{}", run.predicted_time);
    }

    #[test]
    fn halo_ring_is_valid_at_any_p() {
        // The `P > 1` guard makes one rank legal; the wrap makes the
        // communication volume identical on every rank at P > 1.
        for p in [1usize, 2, 3, 5] {
            let (session, scenario) = session_for(halo_ring_model(16, 0.003, 4096), p, 1).unwrap();
            let run = session.evaluate(&scenario).unwrap();
            assert!(run.predicted_time > 0.0, "P={p}");
        }
    }

    #[test]
    fn mapreduce_shuffle_is_matched_at_odd_p() {
        // P = 3: rank 0 sends, rank 1 receives, rank 2 does neither —
        // the PairExchange guards keep every send matched.
        for p in [1usize, 2, 3, 4] {
            let (session, scenario) = session_for(mapreduce_model(4096, 1e-6, 64), p, 1).unwrap();
            let run = session.evaluate(&scenario).unwrap();
            assert!(run.predicted_time > 0.0, "P={p}");
        }
    }

    #[test]
    fn kernel6_prediction_matches_closed_form() {
        let spf = 2e-9;
        let (n, m) = (500usize, 10usize);
        let run = run_default(kernel6_model(n, m, spf));
        let expect = spf * (n * (n - 1) * m) as f64; // 2 flops × n(n−1)/2 × m
        assert!(
            (run.predicted_time - expect).abs() < 1e-12,
            "{} vs {expect}",
            run.predicted_time
        );
    }

    #[test]
    fn sample_model_takes_sa_branch() {
        // A1's fragment sets GV = 1 → SA runs, A2 does not (Figure 7).
        let run = run_default(sample_model());
        let a = TraceAnalysis::analyze(&run.trace);
        assert!(a.element("SA1").is_some());
        assert!(a.element("SA2").is_some());
        assert!(a.element("A2").is_none());
        // Predicted: FA1 + FSA1 + FSA2(0) + FA4 = 0.08 + 0.5 + 0.1 + 0.2 = 0.88
        assert!(
            (run.predicted_time - 0.88).abs() < 1e-9,
            "{}",
            run.predicted_time
        );
    }

    #[test]
    fn sample_model_cpp_matches_figure8_shape() {
        let text = prophet_core::to_cpp(&sample_model()).unwrap().model_text();
        for needle in [
            "int GV = 0;",
            "int P = 4;",
            "double FA1(){ return 0.04 + 0.01 * P; };",
            "double FSA2(double pid){ return 0.1 + 0.02 * pid; };",
            "ActionPlus a1(\"A1\"",
            "a1.execute(uid, pid, tid, FA1());",
            "if (GV == 1) {",
            "{ // Activity SA",
            "sA1.execute(uid, pid, tid, FSA1());",
            "sA2.execute(uid, pid, tid, FSA2(pid));",
            "} else {",
            "a2.execute(uid, pid, tid, FA2());",
            "a4.execute(uid, pid, tid, FA4());",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn jacobi_scales_then_flattens() {
        let model = jacobi_model(200_000, 10, 1e-7); // 20ms/sweep serial
        let session = Session::new(model).unwrap();
        let report = session.sweep(&mpi_grid(&[1, 2, 4, 8], 1));
        let times: Vec<f64> = report.times().into_iter().map(Option::unwrap).collect();
        // Monotone speedup at these sizes.
        assert!(times[1] < times[0], "{times:?}");
        assert!(times[2] < times[1], "{times:?}");
        // Efficiency below 100%: communication costs bite.
        let speedup8 = times[0] / times[3];
        assert!(
            speedup8 < 8.0 && speedup8 > 2.0,
            "speedup {speedup8}, times {times:?}"
        );
    }

    #[test]
    fn pipeline_fills_and_drains() {
        let items = 20usize;
        let per_item = 0.01;
        let stages = 4usize;
        let (session, scenario) =
            session_for(pipeline_model(items, per_item, 1024), stages, 1).unwrap();
        let run = session.evaluate(&scenario).unwrap();
        let t = run.predicted_time;
        // Lower bound: (items + stages − 1) × per-item compute.
        let lower = (items + stages - 1) as f64 * per_item;
        assert!(t >= lower, "{t} < {lower}");
        // And far better than fully serial across stages.
        let serial = (items * stages) as f64 * per_item;
        assert!(t < serial * 0.75, "{t} vs serial {serial}");
    }

    #[test]
    fn master_worker_skew_determines_makespan() {
        let (session, scenario) = session_for(master_worker_model(64, 0.005, 128), 4, 1).unwrap();
        let run = session.evaluate(&scenario).unwrap();
        let a = TraceAnalysis::analyze(&run.trace);
        // The most skewed worker (pid 3, factor 1.3) dominates Work time.
        let work = a.element("Work").unwrap();
        let fastest = 0.005 * 16.0;
        assert!(work.max_time >= fastest * 1.29, "{}", work.max_time);
    }

    #[test]
    fn lapw0_hybrid_uses_threads_and_ranks() {
        // 2 ranks × 2 threads on 2 nodes with 2 cpus each.
        let sp = SystemParams {
            nodes: 2,
            cpus_per_node: 2,
            processes: 2,
            threads_per_process: 2,
        };
        let run = Session::new(lapw0_model(64, 8, 1e-5))
            .unwrap()
            .evaluate(&Scenario::new(sp))
            .unwrap();
        assert!(run.predicted_time > 0.0);
        let a = TraceAnalysis::analyze(&run.trace);
        // Thread workers appear with tid > 0 in the trace.
        assert!(
            run.trace.events.iter().any(|e| e.tid > 0),
            "no thread events"
        );
        assert!(a.element("FftWork").is_some());
    }

    #[test]
    fn lapw0_hybrid_speedup_shape() {
        let session = Session::new(lapw0_model(64, 16, 1e-5)).unwrap();
        let time_for =
            |sp: SystemParams| session.evaluate(&Scenario::new(sp)).unwrap().predicted_time;
        let t1 = time_for(SystemParams {
            nodes: 1,
            cpus_per_node: 1,
            processes: 1,
            threads_per_process: 1,
        });
        let t2 = time_for(SystemParams {
            nodes: 2,
            cpus_per_node: 1,
            processes: 2,
            threads_per_process: 1,
        });
        let t4 = time_for(SystemParams {
            nodes: 2,
            cpus_per_node: 2,
            processes: 2,
            threads_per_process: 2,
        });
        assert!(t2 < t1, "MPI scaling: {t2} !< {t1}");
        assert!(t4 < t2, "hybrid scaling: {t4} !< {t2}");
    }
}
