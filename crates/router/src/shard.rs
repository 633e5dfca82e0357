//! One backend shard: its address, health state, and a pool of
//! keep-alive connections to it.
//!
//! The pool is a simple stack under a mutex: a worker pops a pooled
//! [`Connection`] (or makes a fresh one), runs its request, and pushes
//! the connection back on success. Since the router's worker count
//! bounds concurrency, the pool never grows past the worker count —
//! sustained load runs over a handful of long-lived sockets instead of
//! a connect per request.

use crate::health::HealthState;
use prophet_serve::client::{Connection, RawResponse};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// A backend `prophet serve` shard as the router sees it.
#[derive(Debug)]
pub struct Shard {
    addr: SocketAddr,
    health: HealthState,
    pool: Mutex<Vec<Connection>>,
    io_timeout: Duration,
}

impl Shard {
    /// A shard handle; connections are dialed lazily on first use.
    pub fn new(addr: SocketAddr, io_timeout: Duration) -> Self {
        Self {
            addr,
            health: HealthState::default(),
            pool: Mutex::new(Vec::new()),
            io_timeout,
        }
    }

    /// The shard's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard's health state.
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// Forward one request over a pooled keep-alive connection. The
    /// connection returns to the pool on success and is dropped on
    /// failure (its socket state is suspect).
    ///
    /// # Errors
    /// Transport failures (connect/send/receive), as a message string.
    pub fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> Result<RawResponse, String> {
        let mut conn = self
            .pool
            .lock()
            .expect("shard connection pool lock")
            .pop()
            .unwrap_or_else(|| {
                let mut fresh = Connection::new(self.addr);
                fresh.set_io_timeout(Some(self.io_timeout));
                fresh
            });
        let result = conn.send(method, path, body, headers);
        if result.is_ok() {
            self.pool
                .lock()
                .expect("shard connection pool lock")
                .push(conn);
        }
        result
    }

    /// One cheap liveness check on a throwaway connection (the pooled
    /// sockets stay dedicated to real traffic).
    pub fn probe(&self) -> bool {
        self.health.count_probe();
        let Ok(mut conn) = Connection::connect(self.addr) else {
            return false;
        };
        conn.set_io_timeout(Some(self.io_timeout));
        matches!(conn.send("GET", "/v1/models", None, &[]), Ok(r) if r.status == 200)
    }
}
