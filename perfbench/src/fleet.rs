//! The fleet under test: two `prophet serve` shards behind one
//! `prophet router`, spawned from the release binary on fixed loopback
//! ports and always stopped and reaped before the benchmark exits.

use crate::wire::Client;
use prophet_core::ring::{route_key, Ring};
use prophet_core::ArtifactKey;
use prophet_serve::json::{self, Json};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads per shard. Each worker owns one connection at a
/// time, so this covers the router's pooled keep-alive connections
/// (one per router worker), two direct clients, the health prober and
/// the benchmark's control requests.
pub const SHARD_WORKERS: usize = 8;
/// Router worker threads: two keep-alive clients plus control requests.
pub const ROUTER_WORKERS: usize = 4;
/// Router health-probe interval.
pub const PROBE_MS: u64 = 500;
/// Pool capacity is the serve default (64 sessions per shard); the
/// `serve` command has no flag for it, so it is fixed by the binary.
pub const POOL_CAPACITY: usize = 64;

/// First port tried for the fleet. Below the Linux ephemeral range, so
/// client sockets never hold it.
const BASE_PORT: u16 = 21_400;
/// How many port triples are tried before giving up.
const PORT_TRIES: u16 = 400;
/// How long a fleet may take to answer after spawn.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Fleet {
    children: Vec<Child>,
    pub router: SocketAddr,
    pub shards: [SocketAddr; 2],
}

/// The placement ring the router builds over these shard addresses.
pub fn ring(shards: &[SocketAddr; 2]) -> Ring {
    let labels: Vec<String> = shards.iter().map(|a| a.to_string()).collect();
    Ring::new(&labels)
}

/// Ports for the router and both shards: the first free triple, from a
/// fixed start, whose ring splits `keys` evenly between the shards. The
/// ring hashes each shard's address, so fixing the ports fixes which
/// keys share a shard, run after run.
pub fn pick_ports(keys: &[ArtifactKey]) -> Result<[u16; 3], String> {
    for i in 0..PORT_TRIES {
        let base = BASE_PORT + 3 * i;
        let ports = [base, base + 1, base + 2];
        let ring = ring(&[addr(ports[1]), addr(ports[2])]);
        let on_first = keys
            .iter()
            .filter(|k| ring.route(route_key(**k)) == 0)
            .count();
        if on_first * 2 != keys.len() && on_first * 2 != keys.len() + 1 {
            continue;
        }
        if ports
            .iter()
            .all(|&p| TcpListener::bind(("127.0.0.1", p)).is_ok())
        {
            return Ok(ports);
        }
    }
    Err("no free loopback port triple with an even key split".into())
}

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

impl Fleet {
    /// Spawn the fleet and wait until every shard answers and the router
    /// reports both shards healthy.
    pub fn boot(bin: &Path, ports: [u16; 3]) -> Result<Fleet, String> {
        let shards = [addr(ports[1]), addr(ports[2])];
        let mut fleet = Fleet {
            children: Vec::new(),
            router: addr(ports[0]),
            shards,
        };
        for shard in shards {
            let mut cmd = Command::new(bin);
            cmd.args(["serve", "--addr", &shard.to_string()])
                .args(["--workers", &SHARD_WORKERS.to_string()]);
            fleet.children.push(spawn(cmd)?);
        }
        let list = format!("{},{}", shards[0], shards[1]);
        let mut cmd = Command::new(bin);
        cmd.args([
            "router",
            "--addr",
            &fleet.router.to_string(),
            "--shards",
            &list,
        ])
        .args(["--workers", &ROUTER_WORKERS.to_string()])
        .args(["--probe-ms", &PROBE_MS.to_string()]);
        fleet.children.push(spawn(cmd)?);

        let deadline = Instant::now() + BOOT_TIMEOUT;
        for target in [shards[0], shards[1]] {
            wait_until(deadline, || {
                Client::new(target)
                    .get("/v1/models")
                    .is_ok_and(|r| r.status == 200)
            })?;
        }
        wait_until(deadline, || {
            get_json(fleet.router, "/v1/shards")
                .ok()
                .and_then(|v| number(&v, &["routing", "healthy"]))
                == Some(2.0)
        })?;
        Ok(fleet)
    }

    /// Peak resident set (`VmHWM`) summed over the fleet's processes.
    pub fn peak_rss_mib(&self) -> f64 {
        self.children
            .iter()
            .map(|c| peak_rss_mib(&format!("/proc/{}/status", c.id())))
            .sum()
    }

    /// Drain the whole fleet through the router and reap every process.
    pub fn shutdown(mut self) {
        let _ = Client::new(self.router).post("/v1/shutdown", "");
        self.reap(Duration::from_secs(10));
    }

    /// Wait up to `grace` for the processes to exit, then kill the rest.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for child in &mut self.children {
            while Instant::now() < deadline && matches!(child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

fn spawn(mut cmd: Command) -> Result<Child, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))
}

fn wait_until(deadline: Instant, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    while !ready() {
        if Instant::now() > deadline {
            return Err("fleet did not come up in time".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 when unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `GET path` on a fresh connection, parsed as JSON.
pub fn get_json(target: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = Client::new(target).get(path)?;
    if reply.status != 200 {
        return Err(format!("GET {path} answered {}", reply.status));
    }
    json::parse(&reply.body).map_err(|e| e.to_string())
}

/// A numeric member at `path` of a JSON document.
pub fn number(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |cur, key| cur.get(key))
        .and_then(Json::as_f64)
}
