//! Analytic validation of the DES engine against M/M/1 and M/M/c queueing
//! theory. If the facility/queue machinery is correct, simulated
//! utilizations and queue lengths must converge to the closed-form values.
//!
//! The kernel draws no random numbers, so the generator samples its own
//! interarrival and service times from named streams derived from the
//! run's seed.

// The benches' sampler, shared by path: the kernel crate cannot depend
// on the bench harness.
#[path = "../../bench/src/random.rs"]
mod random;

use prophet_sim::{Action, Config, FacilityId, Msg, ProcCtx, Process, Resumed, Simulator};
use random::Stream;

/// Open M/M/c system: a generator spawns customers with exponential
/// interarrival times; each customer uses one of `c` servers for an
/// exponential service time.
struct Generator {
    seed: u64,
    cpu: FacilityId,
    mean_interarrival: f64,
    mean_service: f64,
    remaining: u32,
    started: bool,
}

struct Customer {
    cpu: FacilityId,
    service: f64,
}

impl Process for Customer {
    fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
        match why {
            Resumed::Start => Action::Use(self.cpu, self.service),
            _ => Action::Terminate,
        }
    }
}

impl Process for Generator {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>, _why: Resumed) -> Action {
        if self.started && self.remaining > 0 {
            self.remaining -= 1;
            // Streams are derived per name, so embed the customer index
            // to give each customer its own service-time stream.
            let service = Stream::derive(self.seed, &format!("svc-{}", self.remaining))
                .exponential(self.mean_service);
            ctx.spawn(
                &format!("cust-{}", self.remaining),
                Box::new(Customer {
                    cpu: self.cpu,
                    service,
                }),
            );
        }
        self.started = true;
        if self.remaining == 0 {
            return Action::Terminate;
        }
        let mut arr = Stream::derive(self.seed, &format!("arr-{}", self.remaining));
        Action::Hold(arr.exponential(self.mean_interarrival))
    }
}

fn run_mmc(
    servers: usize,
    lambda: f64,
    mu: f64,
    customers: u32,
    seed: u64,
) -> prophet_sim::SimReport {
    let mut sim = Simulator::new(Config::default());
    let cpu = sim.add_facility("server", servers);
    sim.spawn(
        "generator",
        Box::new(Generator {
            seed,
            cpu,
            mean_interarrival: 1.0 / lambda,
            mean_service: 1.0 / mu,
            remaining: customers,
            started: false,
        }),
    );
    sim.run().expect("queueing model must not deadlock")
}

#[test]
fn mm1_utilization_matches_rho() {
    // λ=0.5, μ=1.0 → ρ=0.5.
    let report = run_mmc(1, 0.5, 1.0, 20_000, 42);
    let f = &report.facilities[0];
    assert!(
        (f.utilization - 0.5).abs() < 0.03,
        "utilization {} should be ≈ 0.5",
        f.utilization
    );
}

#[test]
fn mm1_queue_length_matches_theory() {
    // Mean number *waiting* in queue: Lq = ρ²/(1−ρ). For ρ=0.5, Lq = 0.5.
    let report = run_mmc(1, 0.5, 1.0, 40_000, 7);
    let f = &report.facilities[0];
    assert!(
        (f.mean_queue_len - 0.5).abs() < 0.08,
        "Lq {} should be ≈ 0.5",
        f.mean_queue_len
    );
}

#[test]
fn mm1_wait_time_matches_littles_law() {
    // Wq = Lq/λ = 1.0 for λ=0.5, ρ=0.5.
    let report = run_mmc(1, 0.5, 1.0, 40_000, 11);
    let f = &report.facilities[0];
    assert!(
        (f.mean_wait - 1.0).abs() < 0.15,
        "Wq {} should be ≈ 1.0",
        f.mean_wait
    );
}

#[test]
fn mm1_response_time_matches_theory() {
    // Mean response (sojourn) time: W = Wq + E[S] = 1/(μ−λ) = 2.0 for
    // λ=0.5, μ=1.0. The facility reports Wq; add the mean service time.
    let lambda = 0.5;
    let mu = 1.0;
    let report = run_mmc(1, lambda, mu, 40_000, 13);
    let f = &report.facilities[0];
    let w = f.mean_wait + 1.0 / mu;
    let theory = 1.0 / (mu - lambda);
    assert!(
        (w - theory).abs() < 0.2,
        "W {w} should be ≈ {theory} (Wq {} + 1/μ)",
        f.mean_wait
    );
}

#[test]
fn mm1_number_in_system_matches_littles_law() {
    // L = Lq + ρ = ρ/(1−ρ) = 1.0 at ρ=0.5: the mean number in system is
    // the mean queue plus the mean number in service (= utilization for
    // a single server).
    let report = run_mmc(1, 0.5, 1.0, 40_000, 17);
    let f = &report.facilities[0];
    let l = f.mean_queue_len + f.mean_busy;
    assert!((l - 1.0).abs() < 0.12, "L {l} should be ≈ 1.0");
    // mean_busy itself is the time-weighted ρ.
    assert!((f.mean_busy - 0.5).abs() < 0.04, "ρ {}", f.mean_busy);
}

/// Erlang-C probability of waiting for an M/M/c queue with offered load
/// `a = λ/μ` — the closed-form oracle for the multi-server facility.
fn erlang_c(servers: usize, a: f64) -> f64 {
    let c = servers as f64;
    let rho = a / c;
    let mut term = 1.0; // a^k / k!
    let mut sum = 1.0; // Σ_{k=0}^{c-1} a^k/k!
    for k in 1..servers {
        term *= a / k as f64;
        sum += term;
    }
    let tail = term * (a / c) / (1.0 - rho); // a^c/(c!·(1−ρ))
    tail / (sum + tail)
}

#[test]
fn mm2_wait_matches_erlang_c() {
    // λ=1.5, μ=1.0 on 2 servers: a=1.5, ρ=0.75,
    // Wq = C(2, 1.5)/(cμ−λ) = (9/14)/0.5 ≈ 1.2857.
    let (lambda, mu, servers) = (1.5, 1.0, 2usize);
    let report = run_mmc(servers, lambda, mu, 40_000, 23);
    let f = &report.facilities[0];
    let theory = erlang_c(servers, lambda / mu) / (servers as f64 * mu - lambda);
    assert!(
        (f.mean_wait - theory).abs() < 0.25,
        "M/M/2 Wq {} should be ≈ {theory}",
        f.mean_wait
    );
    // Per-server utilization converges to ρ = 0.75.
    assert!(
        (f.utilization - 0.75).abs() < 0.04,
        "utilization {}",
        f.utilization
    );
}

#[test]
fn mm2_less_waiting_than_mm1_at_same_load() {
    // Same per-server load (ρ = 0.75): pooled servers wait less.
    let one = run_mmc(1, 0.75, 1.0, 20_000, 5);
    let two = run_mmc(2, 1.5, 1.0, 20_000, 5);
    assert!(
        two.facilities[0].mean_wait < one.facilities[0].mean_wait,
        "M/M/2 wait {} should beat M/M/1 wait {}",
        two.facilities[0].mean_wait,
        one.facilities[0].mean_wait
    );
}

#[test]
fn heavier_load_longer_queues() {
    let light = run_mmc(1, 0.3, 1.0, 20_000, 3);
    let heavy = run_mmc(1, 0.8, 1.0, 20_000, 3);
    assert!(
        heavy.facilities[0].mean_queue_len > light.facilities[0].mean_queue_len * 3.0,
        "Lq(0.8)={} vs Lq(0.3)={}",
        heavy.facilities[0].mean_queue_len,
        light.facilities[0].mean_queue_len
    );
}

#[test]
fn same_seed_same_trajectory() {
    let a = run_mmc(1, 0.5, 1.0, 2_000, 99);
    let b = run_mmc(1, 0.5, 1.0, 2_000, 99);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.facilities[0].completions, b.facilities[0].completions);
}

#[test]
fn different_seed_different_trajectory() {
    let a = run_mmc(1, 0.5, 1.0, 2_000, 1);
    let b = run_mmc(1, 0.5, 1.0, 2_000, 2);
    assert_ne!(a.end_time, b.end_time);
}

// Silence an unused-field lint on Msg import (used by other tests in the
// harness); keep the type exercised here too.
#[test]
fn msg_is_plain_data() {
    let m = Msg {
        from: prophet_sim::ProcessId(0),
        tag: 1,
        payload: 2.0,
        size_bytes: 3,
        sent_at: 4.0,
    };
    let m2 = m;
    assert_eq!(m, m2);
}
