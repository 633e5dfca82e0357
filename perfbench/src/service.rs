//! The service workloads, `hot_estimate` and `edit_estimate`: load from
//! `nproc` keep-alive clients against a spawned fleet, every answer
//! checked bit for bit against an in-process evaluation.

use crate::fleet::{self, Fleet};
use crate::load::{self, Pace, Phase, Req};
use crate::models;
use crate::rng::Rng;
use crate::stats::median;
use crate::wire::{request_bytes, Client};
use crate::{Ctx, Report};
use prophet_check::McfConfig;
use prophet_core::{Backend, Session};
use prophet_machine::SystemParams;
use prophet_serve::json::Json;
use std::time::Instant;

/// Node counts of the hot request set.
pub const HOT_NODES: [usize; 4] = [1, 2, 4, 8];
/// Open-loop rate of `hot_estimate` through the router, per client:
/// about a sixth of the closed-loop routed rate on a 2-core machine, so
/// the fleet stays far enough from saturation that a busy neighbour
/// does not turn into a queue.
pub const HOT_OPEN_RATE: f64 = 600.0;
/// Open-loop rate of `edit_estimate`, per client (about a sixth of the
/// closed-loop rate on a 2-core machine, as for [`HOT_OPEN_RATE`]).
pub const EDIT_OPEN_RATE: f64 = 200.0;
/// Requests per edit session: the first posts the variant, the rest
/// estimate it at other SP points.
pub const SESSION_LEN: usize = 8;
/// Edit sessions generated per client and second of run time; enough
/// that no client runs dry in the closed loop.
const EDIT_SESSIONS_PER_CLIENT_SECOND: f64 = 150.0;
/// Fleet boots per run; `setup_s` is their median.
const BOOTS: usize = 21;

/// One distinct estimate request with its expected answer.
pub struct Probe {
    pub body: String,
    pub sp: SystemParams,
    pub backend: Backend,
    pub expect: u64,
}

impl Probe {
    pub fn req(&self, first: bool) -> Req {
        Req {
            bytes: request_bytes("POST", "/v1/estimate", &self.body, None),
            expect: self.expect,
            first,
        }
    }
}

fn estimate_body(model: (&str, &str), sp: SystemParams, backend: Backend) -> String {
    Json::object([
        (model.0, Json::from(model.1)),
        ("nodes", Json::from(sp.nodes)),
        ("cpus", Json::from(sp.cpus_per_node)),
        ("backend", Json::from(backend.to_string())),
    ])
    .encode()
}

/// The hot request set: every bundled model by name at every node
/// count of [`HOT_NODES`], analytic, with its expected answer.
pub fn hot_probes() -> Result<Vec<Probe>, String> {
    let mut probes = Vec::new();
    for name in models::names() {
        let session = Session::compile(models::bundled(name), McfConfig::default())
            .map_err(|e| format!("{name}: {e}"))?;
        for nodes in HOT_NODES {
            let sp = SystemParams::flat_mpi(nodes, 1);
            probes.push(Probe {
                body: estimate_body(("model_name", name), sp, Backend::Analytic),
                sp,
                backend: Backend::Analytic,
                expect: models::expected(&session, sp, Backend::Analytic)
                    .map_err(|e| format!("{name} at {nodes} nodes: {e}"))?,
            });
        }
    }
    Ok(probes)
}

/// The edit stream: `count` sessions of [`SESSION_LEN`] requests each,
/// deterministic in `seed`. Session `i` edits a seeded bundled model,
/// alternates analytic and simulation by parity, and estimates at eight
/// distinct seeded SP points (nodes ≤ 16, cpus ∈ {1, 2}).
pub fn edit_sessions(seed: u64, count: usize, workers: usize) -> Result<Vec<Vec<Probe>>, String> {
    let names = models::names();
    let base: Vec<String> = names
        .iter()
        .map(|n| prophet_uml::xmi::model_to_xml(&models::bundled(n)))
        .collect();
    let mut rng = Rng::new(seed);
    let offset = rng.next_u64() % 1_000_000_000;
    // Every block of ten sessions edits each model once, in a seeded
    // order, so every seed sends the same model mix.
    let mut plans: Vec<(usize, Vec<usize>)> = Vec::with_capacity(count);
    while plans.len() < count {
        for m in rng.permutation(names.len()) {
            plans.push((m, rng.permutation(32)));
        }
    }
    let build = |i: usize| -> Result<Vec<Probe>, String> {
        let (m, ref order) = plans[i];
        let backend = if i.is_multiple_of(2) {
            Backend::Analytic
        } else {
            Backend::Simulation
        };
        let factor = format!("1.{:012}", offset + i as u64 + 1);
        let xml = models::variant_xml(&base[m], &factor);
        let model = prophet_uml::xmi::model_from_xml(&xml).map_err(|e| e.to_string())?;
        let session = Session::compile(model, McfConfig::default())
            .map_err(|e| format!("{} variant: {e}", names[m]))?;
        let mut probes = Vec::with_capacity(SESSION_LEN);
        for &point in order {
            let sp = SystemParams::flat_mpi(point / 2 + 1, point % 2 + 1);
            // A point the model cannot run is skipped, not sent.
            if let Ok(expect) = models::expected(&session, sp, backend) {
                probes.push(Probe {
                    body: estimate_body(("model", &xml), sp, backend),
                    sp,
                    backend,
                    expect,
                });
            }
            if probes.len() == SESSION_LEN {
                break;
            }
        }
        if probes.len() < SESSION_LEN {
            return Err(format!(
                "{}: fewer than {SESSION_LEN} valid points",
                names[m]
            ));
        }
        Ok(probes)
    };
    // Expected answers are computed in parallel, before any timing.
    let workers = workers.max(1);
    type Chunk = Result<Vec<(usize, Vec<Probe>)>, String>;
    let chunks: Vec<Chunk> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let build = &build;
                scope.spawn(move || {
                    (w..count)
                        .step_by(workers)
                        .map(|i| build(i).map(|s| (i, s)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("precompute worker panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(count);
    for chunk in chunks {
        all.extend(chunk?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, s)| s).collect())
}

/// Send `probes` once each through `target` and check every answer.
pub fn warm(target: std::net::SocketAddr, probes: &[Probe]) -> Result<(), String> {
    let mut client = Client::new(target);
    for p in probes {
        let r = client.send(&p.req(false).bytes)?;
        let got = crate::wire::predicted_time(&r.body).map(f64::to_bits);
        if r.status != 200 || got != Some(p.expect) {
            return Err(format!("warm-up answered {}: {}", r.status, r.body));
        }
    }
    Ok(())
}

/// Boot the fleet [`BOOTS`] times, each time until healthy and warm,
/// and keep the last one. Returns the fleet and the median boot time.
fn boot_fleet(ctx: &Ctx, warmups: &[(bool, &[Probe])]) -> Result<(Fleet, f64), String> {
    let ports = fleet::pick_ports(&models::bundled_keys())?;
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let fleet = Fleet::boot(&ctx.bin, ports)?;
        for (direct, probes) in warmups {
            warm(
                if *direct {
                    fleet.shards[0]
                } else {
                    fleet.router
                },
                probes,
            )?;
        }
        times.push(start.elapsed().as_secs_f64());
        if times.len() == BOOTS {
            return Ok((fleet, median(&times)));
        }
        fleet.shutdown();
    }
}

/// Per-client streams from one request list: client `c` gets its own
/// seeded order.
pub fn shuffled_streams(reqs: &[Req], clients: usize, rng: &mut Rng) -> Vec<Vec<Req>> {
    (0..clients)
        .map(|_| {
            rng.permutation(reqs.len())
                .into_iter()
                .map(|i| reqs[i].clone())
                .collect()
        })
        .collect()
}

/// Each timed workload runs its phases in this many interleaved rounds
/// and reports the median round, so a burst of outside load spoils one
/// round, not the run.
pub const ROUNDS: usize = 15;

/// Per-round figures of one phase kind, and its totals.
#[derive(Default)]
struct Rounds {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    total: Phase,
}

impl Rounds {
    fn add(&mut self, phase: Phase) {
        self.total.elapsed_s += phase.elapsed_s;
        self.rates.push(phase.rate());
        self.p50.push(phase.p(0.5));
        self.p90.push(phase.p(0.9));
        self.total.absorb(phase);
    }
}

/// `hot_estimate`, timed: per round, a closed loop through the router,
/// the same closed loop straight at one shard, and an open loop through
/// the router at [`HOT_OPEN_RATE`] per client.
pub fn hot(ctx: &Ctx) -> Result<Report, String> {
    let probes = hot_probes()?;
    let reqs: Vec<Req> = probes.iter().map(|p| p.req(false)).collect();
    let streams = shuffled_streams(&reqs, ctx.nproc, &mut Rng::new(ctx.seed));
    let streams: Vec<&[Req]> = streams.iter().map(Vec::as_slice).collect();

    let (fleet, setup_s) = boot_fleet(ctx, &[(false, &probes), (true, &probes)])?;
    let slice = 1.0 / ROUNDS as f64;
    let (mut routed, mut direct, mut open) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    for _ in 0..ROUNDS {
        routed.add(load::run(
            fleet.router,
            &streams,
            true,
            Pace::Closed,
            ctx.share(0.3 * slice),
            None,
        ));
        direct.add(load::run(
            fleet.shards[0],
            &streams,
            true,
            Pace::Closed,
            ctx.share(0.3 * slice),
            None,
        ));
        let pace = Pace::Open(HOT_OPEN_RATE);
        open.add(load::run(
            fleet.router,
            &streams,
            true,
            pace,
            ctx.share(0.4 * slice),
            None,
        ));
    }
    let rss = fleet.peak_rss_mib();
    fleet.shutdown();

    let mut report = Report::default();
    for (name, phase) in [
        ("routed_closed", &routed),
        ("direct_closed", &direct),
        ("routed_open", &open),
    ] {
        report.account(name, &phase.total);
    }
    report.correct = report.failed == 0;
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput", median(&routed.rates), "1/s");
    report.metric("latency_p50_us", median(&open.p50), "us");
    report.extra("latency_p90_us", median(&open.p90), "us");
    report.metric("rss_mb", rss, "MiB");
    report.extra("estimate_rps", median(&routed.rates), "req/s");
    report.extra("direct_rps", median(&direct.rates), "req/s");
    report.extra("estimate_p50_us", median(&open.p50), "us");
    report.extra("estimate_p90_us", median(&open.p90), "us");
    report.extra("client.p99_us", open.total.p(0.99), "us");
    report.extra(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}

/// The edit workload's per-client streams: client `c` runs sessions
/// `c`, `c + nproc`, ... in order.
pub fn edit_streams(ctx: &Ctx) -> Result<Vec<Vec<Req>>, String> {
    let per_client = (EDIT_SESSIONS_PER_CLIENT_SECOND * ctx.seconds).ceil() as usize;
    let sessions = edit_sessions(ctx.seed, per_client * ctx.nproc, ctx.nproc)?;
    Ok((0..ctx.nproc)
        .map(|c| {
            sessions
                .iter()
                .skip(c)
                .step_by(ctx.nproc)
                .flat_map(|s| s.iter().enumerate().map(|(i, p)| p.req(i == 0)))
                .collect()
        })
        .collect())
}

/// The bundled models by name, analytic, one node: the edit fleet's
/// warm-up pass.
pub fn warmup_probes() -> Result<Vec<Probe>, String> {
    Ok(hot_probes()?.into_iter().step_by(HOT_NODES.len()).collect())
}

/// What is left of each client's stream after `phase`, from the next
/// whole session on.
pub fn remaining<'a>(streams: &[&'a [Req]], phase: &Phase) -> Vec<&'a [Req]> {
    streams
        .iter()
        .zip(&phase.consumed)
        .map(|(s, &used)| &s[used.next_multiple_of(SESSION_LEN).min(s.len())..])
        .collect()
}

/// `edit_estimate`, timed: per round, a closed loop then an open loop
/// at [`EDIT_OPEN_RATE`] per client, each client running its own edit
/// sessions in order through the router.
pub fn edit(ctx: &Ctx) -> Result<Report, String> {
    let warmup = warmup_probes()?;
    let generated = Instant::now();
    let streams = edit_streams(ctx)?;
    let generate_s = generated.elapsed().as_secs_f64();

    let (fleet, setup_s) = boot_fleet(ctx, &[(false, &warmup)])?;
    let slice = 1.0 / ROUNDS as f64;
    let mut next: Vec<&[Req]> = streams.iter().map(Vec::as_slice).collect();
    let (mut closed, mut open) = (Rounds::default(), Rounds::default());
    for _ in 0..ROUNDS {
        let phase = load::run(
            fleet.router,
            &next,
            false,
            Pace::Closed,
            ctx.share(0.25 * slice),
            None,
        );
        next = remaining(&next, &phase);
        closed.add(phase);
        let pace = Pace::Open(EDIT_OPEN_RATE);
        let phase = load::run(
            fleet.router,
            &next,
            false,
            pace,
            ctx.share(0.75 * slice),
            None,
        );
        next = remaining(&next, &phase);
        open.add(phase);
    }
    let rss = fleet.peak_rss_mib();
    fleet.shutdown();

    let mut report = Report::default();
    report.lines.push(format!(
        "generated {} edit requests with expected answers in {generate_s:.2} s (not timed)",
        streams.iter().map(Vec::len).sum::<usize>()
    ));
    report.account("edit_closed", &closed.total);
    report.account("edit_open", &open.total);
    report.correct = report.failed == 0 && !closed.total.exhausted && !open.total.exhausted;
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput", median(&closed.rates), "1/s");
    report.metric("latency_p50_us", median(&open.p50), "us");
    report.extra("latency_p90_us", median(&open.p90), "us");
    report.metric("rss_mb", rss, "MiB");
    report.extra("estimate_rps", median(&closed.rates), "req/s");
    report.extra("estimate_p50_us", median(&open.p50), "us");
    report.extra("estimate_p90_us", median(&open.p90), "us");
    report.extra("first_estimate_us", median(&open.total.first_lat_us), "us");
    report.extra("client.p99_us", open.total.p(0.99), "us");
    report.extra(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}
