//! Property-based tests of simulation-kernel invariants under randomized
//! workloads.

use prophet_sim::{Action, Config, FacilityId, ProcCtx, Process, Resumed, Simulator};
use proptest::prelude::*;

/// A process running a fixed schedule of service times on one facility.
struct Scheduled {
    cpu: FacilityId,
    times: Vec<f64>,
    next: usize,
}

impl Process for Scheduled {
    fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
        match why {
            Resumed::Start | Resumed::UseDone(_) => {
                if self.next >= self.times.len() {
                    return Action::Terminate;
                }
                let t = self.times[self.next];
                self.next += 1;
                Action::Use(self.cpu, t)
            }
            _ => Action::Terminate,
        }
    }
}

fn run(servers: usize, schedules: &[Vec<f64>]) -> (f64, u64, f64, u64) {
    let mut sim = Simulator::new(Config::default());
    let cpu = sim.add_facility("cpu", servers);
    for (i, times) in schedules.iter().enumerate() {
        sim.spawn(
            &format!("p{i}"),
            Box::new(Scheduled {
                cpu,
                times: times.clone(),
                next: 0,
            }),
        );
    }
    let report = sim.run().expect("no deadlock possible");
    let f = &report.facilities[0];
    (
        report.end_time,
        report.events_processed,
        f.busy_integral,
        f.completions,
    )
}

fn schedules_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((1u32..1000).prop_map(|n| n as f64 / 1000.0), 1..12),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_of_work(schedules in schedules_strategy(), servers in 1usize..4) {
        // Total busy server-time must equal the sum of all service times,
        // regardless of interleaving or queueing.
        let total: f64 = schedules.iter().flatten().sum();
        let jobs: u64 = schedules.iter().map(|s| s.len() as u64).sum();
        let (end, _events, busy, completions) = run(servers, &schedules);
        prop_assert!((busy - total).abs() < 1e-9, "busy {busy} != work {total}");
        prop_assert_eq!(completions, jobs);
        // Makespan bounds: ≥ work/servers (perfect packing), ≥ the longest
        // single schedule, ≤ total work (full serialization).
        let longest: f64 = schedules
            .iter()
            .map(|s| s.iter().sum::<f64>())
            .fold(0.0, f64::max);
        prop_assert!(end >= total / servers as f64 - 1e-9);
        prop_assert!(end >= longest - 1e-9);
        prop_assert!(end <= total + 1e-9);
    }

    #[test]
    fn more_servers_never_slower(schedules in schedules_strategy()) {
        let (t1, ..) = run(1, &schedules);
        let (t2, ..) = run(2, &schedules);
        let (t4, ..) = run(4, &schedules);
        prop_assert!(t2 <= t1 + 1e-9, "2 servers slower: {t2} > {t1}");
        prop_assert!(t4 <= t2 + 1e-9, "4 servers slower: {t4} > {t2}");
    }

    #[test]
    fn utilization_in_unit_range(schedules in schedules_strategy(), servers in 1usize..4) {
        let mut sim = Simulator::new(Config::default());
        let cpu = sim.add_facility("cpu", servers);
        for (i, times) in schedules.iter().enumerate() {
            sim.spawn(&format!("p{i}"), Box::new(Scheduled { cpu, times: times.clone(), next: 0 }));
        }
        let report = sim.run().unwrap();
        let u = report.facilities[0].utilization;
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
    }
}
