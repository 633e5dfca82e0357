//! Simulation-engine throughput: events per second of the
//! CSIM-substitute kernel on an M/M/c facility workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prophet_bench::random::Stream;
use prophet_sim::{Action, Config, FacilityId, ProcCtx, Process, Resumed, Simulator};

/// The master seed the kernel's default configuration used to carry.
const SEED: u64 = 0x5EED;

struct Worker {
    cpu: FacilityId,
    left: u32,
    stream: String,
}

impl Process for Worker {
    fn resume(&mut self, _ctx: &mut ProcCtx<'_>, why: Resumed) -> Action {
        match why {
            Resumed::Start | Resumed::UseDone(_) => {
                if self.left == 0 {
                    return Action::Terminate;
                }
                self.left -= 1;
                let mut rng = Stream::derive(SEED, &self.stream);
                Action::Use(self.cpu, rng.exponential(0.1))
            }
            _ => Action::Terminate,
        }
    }
}

fn run_load(workers: usize, jobs_each: u32) -> u64 {
    let mut sim = Simulator::new(Config::default());
    let cpu = sim.add_facility("cpu", 4);
    for w in 0..workers {
        sim.spawn(
            &format!("w{w}"),
            Box::new(Worker {
                cpu,
                left: jobs_each,
                stream: format!("svc{w}"),
            }),
        );
    }
    sim.run().unwrap().events_processed
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/throughput");
    for &workers in &[8usize, 64, 256] {
        let jobs = 100u32;
        // Event count is deterministic; use it as the throughput unit.
        let events = run_load(workers, jobs);
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new("binary_heap", workers),
            &workers,
            |b, &w| b.iter(|| run_load(w, jobs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
