//! Golden snapshot tests: checked-in expected `Evaluation` values for
//! every bundled workload model at a fixed SP point.
//!
//! These pins exist so a future refactor of the transform pipeline, the
//! flattener, the DES kernel, or the analytic backend cannot *silently*
//! shift predictions: any change to a predicted time, the event count,
//! or the trace shape of these models must update the constants below —
//! a deliberate, reviewable act.
//!
//! All bundled models are deterministic, so the expected times are pinned
//! to 1e-12 relative (f64 arithmetic is reproducible across platforms);
//! event and trace counts are pinned exactly. Both backends are pinned:
//! the analytic prediction must equal the simulated one within the
//! conformance contract of `tests/conformance.rs` — the backend-specific
//! expectations here are intentionally the same constant.

use prophet::core::{Backend, Scenario, Session};
use prophet::estimator::{flatten_all, flatten_for_process, op_digest};
use prophet::machine::{CommParams, MachineModel, SystemParams};
use prophet::uml::Model;
use prophet::workloads::models::{
    branching_pipeline_model, halo_ring_model, jacobi_model, kernel6_model, lapw0_model,
    mapreduce_model, master_worker_model, pipeline_model, sample_model, task_farm_model,
};

struct Golden {
    /// Expected predicted time (both backends).
    time: f64,
    /// Expected DES event count (simulation backend).
    events: u64,
    /// Expected trace length (simulation backend, tracing on).
    trace_len: usize,
    /// Expected per-rank flattened op-list shape: `(len, digest)` per
    /// rank, where the digest is `prophet::estimator::op_digest` (a
    /// stable FNV-1a over every field of every op). An elaboration or
    /// cache refactor that reorders, drops, or renumbers primitive ops
    /// shifts these even when the predicted time happens to survive.
    rank_ops: &'static [(usize, u64)],
}

fn check(name: &str, model: Model, sp: SystemParams, golden: Golden) {
    let session = Session::new(model).expect("model compiles");
    let sim = session.evaluate(&Scenario::new(sp)).unwrap();
    assert!(
        (sim.predicted_time - golden.time).abs() <= golden.time.abs() * 1e-12,
        "{name} simulation predicted_time {:?} != golden {:?}",
        sim.predicted_time,
        golden.time
    );
    assert_eq!(
        sim.report.events_processed, golden.events,
        "{name} event count shifted"
    );
    assert_eq!(sim.trace.len(), golden.trace_len, "{name} trace shifted");

    let ana = session
        .evaluate(&Scenario::new(sp).with_backend(Backend::Analytic))
        .unwrap();
    assert!(
        (ana.predicted_time - golden.time).abs() <= golden.time.abs() * 1e-9,
        "{name} analytic predicted_time {:?} != golden {:?}",
        ana.predicted_time,
        golden.time
    );
    assert_eq!(
        ana.report.events_processed, 0,
        "{name} analytic ran the DES"
    );

    // Elaboration-shape snapshot: per-rank op-list length and digest,
    // through both the single-rank entry point and `flatten_all` (which
    // shares one base environment across ranks).
    let machine = MachineModel::new(sp, CommParams::default()).unwrap();
    assert_eq!(golden.rank_ops.len(), sp.processes, "{name} golden shape");
    let all = flatten_all(session.program(), &machine, Default::default()).unwrap();
    assert_eq!(all.len(), sp.processes, "{name} flatten_all rank count");
    let names = session.program().resolve().names();
    for (pid, &(len, digest)) in golden.rank_ops.iter().enumerate() {
        let ops =
            flatten_for_process(session.program(), &machine, pid, Default::default()).unwrap();
        for (path, ops) in [
            ("flatten_for_process", &ops[..]),
            ("flatten_all", &all[pid]),
        ] {
            assert_eq!(
                ops.len(),
                len,
                "{name} rank {pid} op count shifted ({path})"
            );
            assert_eq!(
                op_digest(names, ops),
                digest,
                "{name} rank {pid} op digest shifted ({path}, len {})",
                ops.len()
            );
        }
    }
}

#[test]
fn golden_kernel6() {
    check(
        "kernel6",
        kernel6_model(500, 10, 2e-9),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.0049900000000000005,
            events: 8,
            trace_len: 8,
            rank_ops: &[
                (3, 0xc9278d065b85ef43),
                (3, 0xc9278d065b85ef43),
                (3, 0xc9278d065b85ef43),
                (3, 0xc9278d065b85ef43),
            ],
        },
    );
}

#[test]
fn golden_sample() {
    check(
        "sample",
        sample_model(),
        SystemParams::flat_mpi(2, 1),
        Golden {
            time: 0.8999999999999999,
            events: 10,
            trace_len: 20,
            rank_ops: &[(14, 0x3cd85e61ed3b5939), (14, 0x17e9399c2d439459)],
        },
    );
}

#[test]
fn golden_jacobi() {
    check(
        "jacobi",
        jacobi_model(200_000, 5, 1e-8),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.004307,
            events: 162,
            trace_len: 284,
            rank_ops: &[
                (98, 0xed0300307723153e),
                (108, 0xd07c6f2a62d180b4),
                (108, 0xaa718b09c06a9228),
                (78, 0xc47e40919135a106),
            ],
        },
    );
}

#[test]
fn golden_pipeline() {
    check(
        "pipeline",
        pipeline_model(20, 0.01, 1024),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.23019972000000008,
            events: 228,
            trace_len: 528,
            rank_ops: &[
                (122, 0xcdcd6ac488ddf858),
                (182, 0x2e3fd208b6b91394),
                (182, 0xbf1d49ae2ee5779c),
                (122, 0x2668d286fd0aaea8),
            ],
        },
    );
}

#[test]
fn golden_master_worker() {
    check(
        "master_worker",
        master_worker_model(64, 0.005, 128),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.10452304,
            events: 38,
            trace_len: 32,
            rank_ops: &[
                (30, 0x47e4d5c9bd578c2f),
                (18, 0xd0aa767ee54da36e),
                (18, 0xaacccd7034f6ae37),
                (18, 0x63becefdccc0e8a1),
            ],
        },
    );
}

#[test]
fn golden_lapw0() {
    check(
        "lapw0",
        lapw0_model(64, 16, 1e-5),
        SystemParams {
            nodes: 2,
            cpus_per_node: 2,
            processes: 2,
            threads_per_process: 2,
        },
        Golden {
            time: 0.005491280000000002,
            events: 136,
            trace_len: 140,
            rank_ops: &[(74, 0x04233dfe254bbaec), (74, 0xe4d240013aa91bfc)],
        },
    );
}

#[test]
fn golden_task_farm() {
    check(
        "task_farm",
        task_farm_model(8, 0.002, 512),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.31823704,
            events: 238,
            trace_len: 272,
            rank_ops: &[
                (203, 0x00b0607587cba25d),
                (135, 0x62ca55719b0d00fd),
                (135, 0x9773f71aa5d25981),
                (135, 0x5ec110beb1f33b61),
            ],
        },
    );
}

#[test]
fn golden_branching_pipeline() {
    check(
        "branching_pipeline",
        branching_pipeline_model(24, 0.004, 2048),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.10223444000000008,
            events: 293,
            trace_len: 632,
            rank_ops: &[
                (146, 0xba0a83000a57ee5c),
                (218, 0x2f9593a03a1267c4),
                (218, 0x4ba8c3e1750a47c4),
                (146, 0x0da7586850dcbb8c),
            ],
        },
    );
}

#[test]
fn golden_halo_ring() {
    check(
        "halo_ring",
        halo_ring_model(16, 0.003, 4096),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.05554048,
            events: 420,
            trace_len: 648,
            rank_ops: &[
                (290, 0x4487004272b6ecd7),
                (226, 0x61f5198d7fe69fdc),
                (226, 0x1483f455fe895c7c),
                (226, 0xfeafa6596576de6c),
            ],
        },
    );
}

#[test]
fn golden_mapreduce() {
    check(
        "mapreduce",
        mapreduce_model(4096, 1e-6, 64),
        SystemParams::flat_mpi(4, 1),
        Golden {
            time: 0.00569136,
            events: 38,
            trace_len: 44,
            rank_ops: &[
                (27, 0xa1d7fc3a720a144d),
                (19, 0x6f4e919ce2c86bf4),
                (19, 0x4a725385f19cb023),
                (19, 0x59ac9b5c7e3d4539),
            ],
        },
    );
}

/// Content keys (`ArtifactKey`, as hex) of the ten bundled models, in
/// their published order, built with the bundled parameters. Store file
/// names (`pp-<model>-<mcf>.bin`) and ring placement are functions of
/// these digests, so a serialization change that moves any of them
/// orphans every existing store entry and reshuffles the fleet.
const BUNDLED_KEYS: [(&str, u64, u64); 10] = [
    ("sample", 0x70df741340e6d115, 0x62b2c80eb9ce8c31),
    ("kernel6", 0xba37b0e3e70a2c36, 0x62b2c80eb9ce8c31),
    ("jacobi", 0x987ddfdf5a7ffaa3, 0x62b2c80eb9ce8c31),
    ("lapw0", 0x7d430d21af77686c, 0x62b2c80eb9ce8c31),
    ("pipeline", 0x1d361cd8df4863e3, 0x62b2c80eb9ce8c31),
    ("master_worker", 0x3dfd9d3dd6681423, 0x62b2c80eb9ce8c31),
    ("task_farm", 0x55805b7cc2a97f04, 0x62b2c80eb9ce8c31),
    ("branching_pipeline", 0xd3a6191e6e4406af, 0x62b2c80eb9ce8c31),
    ("halo_ring", 0x989692062f2ea56d, 0x62b2c80eb9ce8c31),
    ("mapreduce", 0xba0bb5e7d7b2237a, 0x62b2c80eb9ce8c31),
];

/// Key of [`team_model`].
const TEAM_KEY: (u64, u64) = (0xb350a69b499deb60, 0x62b2c80eb9ce8c31);

/// A builder-made model whose element ids are not in document order: a
/// call activity, created before its body, holds a four-thread team
/// whose body ends in a critical section.
fn team_model() -> Model {
    use prophet::uml::{ModelBuilder, VarType};
    let mut b = ModelBuilder::new("team");
    b.global("GV", VarType::Int, Some("0"));
    b.function("FW", &["t"], "0.001 * (1 + t)");
    let main = b.main_diagram();
    let nested = b.diagram("nested");
    let team = b.diagram("teambody");
    let locked = b.diagram("lockbody");
    let start = b.initial(main, "start");
    let call = b.call_activity(main, "N", nested);
    let end = b.final_node(main, "end");
    b.flow(main, start, call);
    b.flow(main, call, end);
    let lw = b.action(locked, "LW", "0.0005");
    b.attach_code(lw, "GV = GV + 1;");
    let pre = b.action(nested, "Pre", "FW(pid)");
    let region = b.parallel_activity(nested, "T", team, "4");
    b.flow(nested, pre, region);
    let tw = b.action(team, "TW", "FW(tid)");
    let crit = b.critical_activity(team, "Crit", locked, "teamlock");
    b.flow(team, tw, crit);
    b.build()
}

#[test]
fn content_keys_do_not_move() {
    use prophet::check::McfConfig;
    use prophet::core::ArtifactKey;
    use prophet::serve::api::demo_model;
    let bundled: [(&str, Model); 10] = [
        ("sample", sample_model()),
        ("kernel6", kernel6_model(1000, 10, 1e-9)),
        ("jacobi", jacobi_model(1_000_000, 20, 1e-8)),
        ("lapw0", lapw0_model(64, 32, 1e-4)),
        ("pipeline", pipeline_model(32, 0.01, 4096)),
        ("master_worker", master_worker_model(64, 0.01, 256)),
        ("task_farm", task_farm_model(8, 0.002, 512)),
        (
            "branching_pipeline",
            branching_pipeline_model(24, 0.004, 2048),
        ),
        ("halo_ring", halo_ring_model(16, 0.003, 4096)),
        ("mapreduce", mapreduce_model(4096, 1e-6, 64)),
    ];
    let hex = |k: ArtifactKey| format!("{:#018x}/{:#018x}", k.model, k.mcf);
    let mcf = McfConfig::default();
    for ((name, model), (pinned, model_key, mcf_key)) in bundled.into_iter().zip(BUNDLED_KEYS) {
        assert_eq!(name, pinned, "table order");
        let expected = ArtifactKey {
            model: model_key,
            mcf: mcf_key,
        };
        let built = ArtifactKey::of(&model, &mcf);
        assert_eq!(hex(built), hex(expected), "{name}: builder spelling");
        let served = ArtifactKey::of(&demo_model(name).expect("bundled"), &mcf);
        assert_eq!(hex(served), hex(expected), "{name}: bundled table");
    }
    let expected = ArtifactKey {
        model: TEAM_KEY.0,
        mcf: TEAM_KEY.1,
    };
    let model = team_model();
    prophet::core::Session::new(model.clone()).expect("team model compiles");
    assert_eq!(hex(ArtifactKey::of(&model, &mcf)), hex(expected), "team");
}

/// The bundled table hands out builder-made models, whose arena ids are
/// not in document order, while a store hit or an inline request holds
/// the parsed spelling. Both compile to the same session: diagnostics,
/// per-rank op digests, predictions on both backends and the trace.
#[test]
fn builder_and_parsed_spellings_compile_alike() {
    use prophet::serve::api::{demo_model, demo_models};
    use prophet::uml::xmi::{model_from_xml, model_to_xml};
    let sp = SystemParams::flat_mpi(4, 2);
    let machine = MachineModel::new(sp, CommParams::default()).unwrap();
    for (name, _) in demo_models() {
        let built = demo_model(name).unwrap();
        let parsed = model_from_xml(&model_to_xml(&built)).unwrap();
        let [a, b] = [built, parsed].map(|m| Session::new(m).expect("compiles"));
        assert_eq!(
            format!("{:?}", a.diagnostics()),
            format!("{:?}", b.diagnostics()),
            "{name}"
        );
        let digests = |s: &Session| {
            let all = flatten_all(s.program(), &machine, Default::default()).unwrap();
            all.iter()
                .map(|ops| op_digest(all.names(), ops))
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&a), digests(&b), "{name}");
        for backend in [Backend::Simulation, Backend::Analytic] {
            let scenario = Scenario::new(sp).with_backend(backend);
            let (x, y) = (
                a.evaluate(&scenario).unwrap(),
                b.evaluate(&scenario).unwrap(),
            );
            assert_eq!(
                x.predicted_time.to_bits(),
                y.predicted_time.to_bits(),
                "{name} {backend:?}"
            );
            assert_eq!(x.trace.to_text(), y.trace.to_text(), "{name} {backend:?}");
        }
    }
}
