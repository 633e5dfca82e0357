//! The router's request handling: route, forward, retry, aggregate.
//!
//! | endpoint | routed how |
//! |---|---|
//! | `POST /v1/check` \| `/v1/estimate` \| `/v1/sweep` \| `/v1/optimize` | to the shard owning the body's `(model, MCF)` digest |
//! | `GET /v1/models` | round-robin over healthy shards |
//! | `GET /v1/metrics` | fan-out: per-shard sections + fleet totals |
//! | `GET /v1/shards` | the router's own view: health + routing counters |
//! | `POST /v1/shards` | token-checked elastic membership: join/leave with handoff |
//! | `POST /v1/shutdown` | token-checked, broadcast to every shard, then drains the router |
//!
//! **Elastic membership** (`POST /v1/shards`, body
//! `{"add": ["h:p", ...], "remove": ["h:p", ...]}`) rebuilds the ring
//! under an epoch-stamped snapshot swap: each request clones an `Arc`
//! of the immutable [`FleetView`] under a momentary read lock and
//! routes on it, while the single writer validates the change, warms
//! every moved key's *new* owner (`POST /v1/warm` on the shard: a disk
//! hit under a shared store, a compile-prime otherwise), installs the
//! new view, waits until no request still routes on the old one, and
//! only then evicts the moved keys from their surviving old owners.
//! Consistent hashing bounds the churn: only ~K/N of the keys change
//! owner on a single join or leave, and never between survivors.
//!
//! Digest routing is what makes scale-out *compile-once* scale-out: the
//! router derives the content key exactly like a shard would
//! ([`resolve_key`] is the shard's own function) and hashes the same
//! [`ArtifactKey`] the shard pools sessions by, so every repeat of a
//! model — inline XML or by name — lands on the one shard that already
//! compiled it.
//!
//! Failover is the ring's successor order: a transport failure marks
//! the shard down and moves to the next shard, so a killed shard costs
//! clients a retry inside the router, never an error. `5xx` answers
//! also fail over (the next shard may be healthier), but the shard is
//! not marked down — it answered, so its transport works. `4xx`
//! answers are the client's problem and are forwarded as-is.

use crate::ring::{route_key, Ring};
use crate::shard::Shard;
use prophet_core::ArtifactKey;
use prophet_serve::api::{bearer_authorized, resolve_key};
use prophet_serve::http::{Request, Response};
use prophet_serve::json::{self, Json};
use prophet_serve::metrics::Metrics;
use prophet_serve::prometheus::{fleet_families, render};
use prophet_serve::Handler;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Routing counters, all relaxed atomics (same discipline as the serve
/// metrics: observability never takes a lock on the hot path).
#[derive(Debug, Default)]
pub struct RouterCounters {
    /// Requests answered by a shard.
    pub forwards: AtomicU64,
    /// Extra attempts past the first shard (failovers).
    pub retries: AtomicU64,
    /// Requests no shard could answer (502s).
    pub no_shard: AtomicU64,
    /// Round-robin cursor for un-keyed forwards (`GET /v1/models`).
    rr: AtomicUsize,
}

/// An immutable fleet snapshot: the membership, its ring, and the
/// epoch that stamped it. Workers route whole requests against one
/// view, so ring indices stay coherent even while a reconfiguration
/// installs the next epoch.
#[derive(Debug)]
pub struct FleetView {
    /// Monotone reconfiguration counter; the boot fleet is epoch 0.
    pub epoch: u64,
    shards: Vec<Arc<Shard>>,
    ring: Ring,
}

impl FleetView {
    fn new(epoch: u64, shards: Vec<Arc<Shard>>) -> Self {
        let labels: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        Self {
            epoch,
            shards,
            ring: Ring::new(&labels),
        }
    }

    /// The member shards, in ring-label order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard index owning a content key under this view's ring.
    pub fn owner_of(&self, key: ArtifactKey) -> usize {
        self.ring.route(route_key(key))
    }
}

/// How many routed `(model, MCF)` keys the router remembers prime
/// recipes for. The handoff pass can only warm keys it knows about;
/// past the cap, new keys route fine but rebalance cold.
const RECIPE_CAPACITY: usize = 1024;

/// Poll slice while a reconfiguration waits for the retired view's
/// in-flight requests to finish.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// Everything the router's workers share.
#[derive(Debug)]
pub struct RouterState {
    /// The live [`FleetView`]. A request clones the `Arc` under a
    /// momentary read lock and routes on that snapshot; a retired view
    /// (and any shard only it holds, with its connection pool) is
    /// freed when its last in-flight request drops it.
    view: RwLock<Arc<FleetView>>,
    /// Serializes reconfigurations. Separate from `view`, so the slow
    /// warm-up of moved keys never blocks routing.
    reconfiguring: Mutex<()>,
    /// The router's own per-endpoint request metrics.
    pub metrics: Metrics,
    /// Routing counters.
    pub counters: RouterCounters,
    token: Option<String>,
    probe_interval: Duration,
    io_timeout: Duration,
    /// Routed key → the request members that can re-create it
    /// (`model`/`model_name`/`mcf`), i.e. the body the handoff pass
    /// POSTs to `/v1/warm` on a key's new owner.
    recipes: Mutex<HashMap<ArtifactKey, String>>,
}

impl RouterState {
    /// Router state over the boot shard fleet (epoch 0).
    pub fn new(
        shards: Vec<std::net::SocketAddr>,
        token: Option<String>,
        probe_interval: Duration,
        io_timeout: Duration,
    ) -> Self {
        let shards: Vec<Arc<Shard>> = shards
            .into_iter()
            .map(|addr| Arc::new(Shard::new(addr, io_timeout)))
            .collect();
        Self {
            view: RwLock::new(Arc::new(FleetView::new(0, shards))),
            reconfiguring: Mutex::new(()),
            metrics: Metrics::default(),
            counters: RouterCounters::default(),
            token,
            probe_interval,
            io_timeout,
            recipes: Mutex::new(HashMap::new()),
        }
    }

    /// The live fleet snapshot.
    pub fn view(&self) -> Arc<FleetView> {
        Arc::clone(&self.view.read().expect("fleet view lock"))
    }

    /// How often the prober sweeps the fleet.
    pub fn probe_interval(&self) -> Duration {
        self.probe_interval
    }

    /// The shard index owning a content key — exposed so tests can
    /// assert pinning without replicating the hash.
    pub fn owner_of(&self, key: ArtifactKey) -> usize {
        self.view().owner_of(key)
    }

    /// Try shards of `view` in `order` until one answers without a
    /// server-side failure. Transport errors mark the shard down; the
    /// winning shard is marked up (an answer is better evidence than
    /// any probe). The caller's view pins the indices: a concurrent
    /// reconfiguration installs a *new* snapshot and never mutates
    /// this one.
    fn try_in_order(&self, view: &FleetView, order: &[usize], req: &Request) -> Response {
        // Healthy shards first (in ring order), down shards as a last
        // resort — a mark-down is a hint, not a verdict, and trying a
        // down shard last is what makes "every shard marked down" still
        // recoverable without waiting out a probe cycle.
        let (up, down): (Vec<usize>, Vec<usize>) = order
            .iter()
            .partition(|&&shard| view.shards[shard].health().is_healthy());
        let body = (!req.body.is_empty()).then_some(req.body.as_str());
        // Propagate the client's trace ID to the shard, so one grep
        // over fleet journals follows a request end to end.
        let trace: [(&str, &str); 1] = [(prophet_serve::http::TRACE_HEADER, req.trace.as_str())];
        let mut attempts = 0u64;
        for &index in up.iter().chain(down.iter()) {
            attempts += 1;
            let shard = &view.shards[index];
            match shard.send(&req.method, &req.path, body, &trace) {
                Ok(answer) if answer.status < 500 => {
                    shard.health().mark_up();
                    self.counters.forwards.fetch_add(1, Ordering::Relaxed);
                    if attempts > 1 {
                        self.counters
                            .retries
                            .fetch_add(attempts - 1, Ordering::Relaxed);
                    }
                    return Response::json(answer.status, answer.body);
                }
                // The shard answered, so its transport is fine — but a
                // 5xx is worth one try elsewhere before giving up.
                Ok(_server_error) => {}
                Err(_) => shard.health().mark_down(self.probe_interval),
            }
        }
        self.counters.no_shard.fetch_add(1, Ordering::Relaxed);
        error_response(502, format!("no shard could answer ({attempts} attempted)"))
    }

    /// Forward a model-keyed request to the shard owning its digest.
    fn forward_by_key(&self, req: &Request) -> Response {
        let body = match json::parse(&req.body) {
            Ok(body @ Json::Object(_)) => body,
            Ok(other) => {
                return error_response(
                    400,
                    format!("request body must be a JSON object, got {other}"),
                )
            }
            Err(e) => return error_response(400, e.to_string()),
        };
        // Resolve exactly as the shard will: the same function, the
        // same key — a body a shard would reject never leaves the
        // router, and a body a shard would accept routes to the shard
        // whose session pool already holds it.
        let key = match resolve_key(&body) {
            Ok(key) => key,
            Err(response) => return response,
        };
        self.remember_recipe(key, &body);
        self.forward_on(&self.view(), key, req)
    }

    /// Forward a keyed request along `view`'s ring from `key`'s owner.
    pub(crate) fn forward_on(&self, view: &FleetView, key: ArtifactKey, req: &Request) -> Response {
        self.try_in_order(view, &view.ring.successors(route_key(key)), req)
    }

    /// Record the prime recipe for a routed key the first time it is
    /// seen: the body members that re-create its session
    /// (`model`/`model_name`/`mcf`), so a later rebalance can warm the
    /// key's new owner. A known key costs one map lookup.
    fn remember_recipe(&self, key: ArtifactKey, body: &Json) {
        let mut recipes = self.recipes.lock().expect("recipe map lock");
        if recipes.contains_key(&key) || recipes.len() >= RECIPE_CAPACITY {
            return; // past the cap new keys still route, they just rebalance cold
        }
        let members: Vec<(&str, Json)> = ["model", "model_name", "mcf"]
            .into_iter()
            .filter_map(|name| body.get(name).map(|v| (name, v.clone())))
            .collect();
        recipes.insert(key, Json::object(members).encode());
    }

    /// How many keys have a remembered prime recipe.
    #[cfg(test)]
    pub(crate) fn recipe_count(&self) -> usize {
        self.recipes.lock().expect("recipe map lock").len()
    }

    /// Forward an un-keyed request (`GET /v1/models`) round-robin.
    fn forward_any(&self, req: &Request) -> Response {
        let view = self.view();
        let n = view.shards.len();
        let start = self.counters.rr.fetch_add(1, Ordering::Relaxed) % n;
        let order: Vec<usize> = (0..n).map(|offset| (start + offset) % n).collect();
        self.try_in_order(&view, &order, req)
    }

    /// `GET /v1/metrics`: the router's own counters, every shard's
    /// metrics document, and fleet-wide totals summed across shards.
    /// `?format=prometheus` renders that same document through
    /// [`fleet_families`]: one exposition with per-shard labels, the
    /// `fleet` sums left to PromQL's `sum by`.
    fn aggregate_metrics(&self, req: &Request) -> Response {
        let exposition = match req.query_param("format") {
            Some("prometheus") => true,
            None | Some("json") => false,
            Some(other) => {
                return error_response(
                    400,
                    format!("unknown metrics format `{other}`; use `json` or `prometheus`"),
                )
            }
        };
        let view = self.view();
        let mut shard_sections = Vec::with_capacity(view.shards.len());
        let mut fleet = FleetTotals::default();
        for shard in &view.shards {
            let mut section = shard_entry(shard.as_ref());
            match shard.send("GET", "/v1/metrics", None, &[]) {
                Ok(answer) if answer.status == 200 => match json::parse(&answer.body) {
                    Ok(metrics) => {
                        fleet.absorb(&metrics);
                        section.push(("metrics".to_string(), metrics));
                    }
                    Err(e) => section.push((
                        "error".to_string(),
                        Json::from(format!("unparsable metrics: {e}")),
                    )),
                },
                Ok(answer) => section.push((
                    "error".to_string(),
                    Json::from(format!("metrics answered {}", answer.status)),
                )),
                Err(e) => section.push(("error".to_string(), Json::from(e))),
            }
            shard_sections.push(Json::Object(section));
        }
        let doc = Json::object([
            (
                "router",
                Json::object([
                    ("endpoints", self.metrics.to_json()),
                    ("routing", self.routing_json(&view)),
                ]),
            ),
            ("shards", Json::Array(shard_sections)),
            ("fleet", fleet.to_json()),
        ]);
        if exposition {
            Response::prometheus(render(&doc, &fleet_families()))
        } else {
            Response::json(200, doc.encode())
        }
    }

    /// The `routing` counter section for `view`.
    fn routing_json(&self, view: &FleetView) -> Json {
        let healthy = view
            .shards
            .iter()
            .filter(|s| s.health().is_healthy())
            .count();
        Json::object([
            ("epoch", Json::from(view.epoch)),
            ("shards", Json::from(view.shards.len())),
            ("healthy", Json::from(healthy)),
            (
                "forwards",
                Json::from(self.counters.forwards.load(Ordering::Relaxed)),
            ),
            (
                "retries",
                Json::from(self.counters.retries.load(Ordering::Relaxed)),
            ),
            (
                "no_shard",
                Json::from(self.counters.no_shard.load(Ordering::Relaxed)),
            ),
        ])
    }

    /// `GET /v1/shards`: the router's live view of its fleet.
    fn shards_json(&self) -> Response {
        let view = self.view();
        let shards: Vec<Json> = view
            .shards
            .iter()
            .map(|shard| Json::Object(shard_entry(shard.as_ref())))
            .collect();
        Response::json(
            200,
            Json::object([
                ("shards", Json::Array(shards)),
                ("routing", self.routing_json(&view)),
            ])
            .encode(),
        )
    }

    /// Broadcast `POST /v1/shutdown` to every shard, forwarding the
    /// client's `Authorization` header (the fleet shares one operator
    /// token), and report each shard's acknowledgement.
    fn broadcast_shutdown(&self, req: &Request) -> Response {
        let auth = req.header("authorization");
        let headers: Vec<(&str, &str)> = auth
            .map(|value| vec![("authorization", value)])
            .unwrap_or_default();
        let acks: Vec<Json> = self
            .view()
            .shards
            .iter()
            .map(|shard| {
                let addr = Json::from(shard.addr().to_string());
                match shard.send("POST", "/v1/shutdown", Some("{}"), &headers) {
                    Ok(answer) => Json::object([
                        ("addr", addr),
                        ("ok", Json::from(answer.status == 200)),
                        ("status", Json::from(u64::from(answer.status))),
                    ]),
                    Err(e) => Json::object([
                        ("addr", addr),
                        ("ok", Json::from(false)),
                        ("error", Json::from(e)),
                    ]),
                }
            })
            .collect();
        Response::json(
            200,
            Json::object([("ok", Json::from(true)), ("shards", Json::Array(acks))]).encode(),
        )
    }

    /// `POST /v1/shards` (`{"add": ["h:p", ...], "remove": [...]}`):
    /// elastic fleet membership with rebalance handoff.
    ///
    /// Under the single writer lock: validate the change (409 on
    /// duplicate joins, unknown leaves, add∩remove overlap, or an
    /// emptied fleet), build the next view reusing the survivors'
    /// shard handles (their connection pools and health state carry
    /// over), warm every moved key's new owner, install the view with
    /// one `Arc` swap (epoch + 1), wait until no request still holds
    /// the old view (`drain_ms` in the answer), and only then evict the
    /// moved keys from surviving old owners. In-flight requests keep
    /// routing on the old snapshot throughout; requests started after
    /// the swap route on the new one. A removed shard's handle, and its
    /// pooled keep-alive connections, drop with the last view holding
    /// it.
    fn reconfigure(&self, req: &Request) -> Response {
        let body = match json::parse(&req.body) {
            Ok(body @ Json::Object(_)) => body,
            Ok(other) => {
                return error_response(
                    400,
                    format!("request body must be a JSON object, got {other}"),
                )
            }
            Err(e) => return error_response(400, e.to_string()),
        };
        let (add, remove) = match (string_list(&body, "add"), string_list(&body, "remove")) {
            (Ok(add), Ok(remove)) => (add, remove),
            (Err(r), _) | (_, Err(r)) => return r,
        };
        if add.is_empty() && remove.is_empty() {
            return error_response(400, "nothing to do: both `add` and `remove` are empty");
        }
        let mut added: Vec<(String, std::net::SocketAddr)> = Vec::with_capacity(add.len());
        for label in &add {
            match label.parse() {
                Ok(addr) => added.push((label.clone(), addr)),
                Err(_) => {
                    return error_response(400, format!("bad shard address `{label}`"));
                }
            }
        }

        // One writer at a time: under the lock, the live view is the
        // one the change applies to.
        let _writer = self.reconfiguring.lock().expect("reconfigure lock");
        let current = self.view();
        let labels: Vec<String> = current
            .shards
            .iter()
            .map(|s| s.addr().to_string())
            .collect();
        for label in &add {
            if remove.contains(label) {
                return error_response(409, format!("`{label}` is in both add and remove"));
            }
            if labels.contains(label) {
                return error_response(409, format!("shard `{label}` is already in the fleet"));
            }
            if add.iter().filter(|l| *l == label).count() > 1 {
                return error_response(409, format!("shard `{label}` added twice"));
            }
        }
        for label in &remove {
            if !labels.contains(label) {
                return error_response(409, format!("shard `{label}` is not in the fleet"));
            }
        }
        let mut next_shards: Vec<Arc<Shard>> = current
            .shards
            .iter()
            .filter(|s| !remove.contains(&s.addr().to_string()))
            .cloned()
            .collect();
        if next_shards.is_empty() && added.is_empty() {
            return error_response(409, "refusing to remove the last shard");
        }
        next_shards.extend(
            added
                .iter()
                .map(|(_, addr)| Arc::new(Shard::new(*addr, self.io_timeout))),
        );
        let next = Arc::new(FleetView::new(current.epoch + 1, next_shards));

        // The handoff set: every remembered key whose owner changes.
        let moved: Vec<(ArtifactKey, String, usize, usize)> = {
            let recipes = self.recipes.lock().expect("recipe map lock");
            recipes
                .iter()
                .filter_map(|(key, recipe)| {
                    let before = current.owner_of(*key);
                    let after = next.owner_of(*key);
                    let before_label = current.shards[before].addr().to_string();
                    let after_label = next.shards[after].addr().to_string();
                    (before_label != after_label).then(|| (*key, recipe.clone(), before, after))
                })
                .collect()
        };
        let auth = self.token.as_ref().map(|t| format!("Bearer {t}"));
        let headers: Vec<(&str, &str)> = auth
            .as_deref()
            .map(|value| vec![("authorization", value)])
            .unwrap_or_default();
        // Warm each moved key's new owner *before* the swap: by the
        // time traffic routes there, the session is pooled (a disk hit
        // under a shared store, one compile-prime otherwise).
        let mut primed = 0u64;
        for (_, recipe, _, after) in &moved {
            if matches!(
                next.shards[*after].send("POST", "/v1/warm", Some(recipe), &headers),
                Ok(answer) if answer.status == 200
            ) {
                primed += 1;
            }
        }

        // Group evictions by surviving old owner (removed shards keep
        // their whole pool; nothing to evict there).
        let mut evict_by_owner: HashMap<String, Vec<ArtifactKey>> = HashMap::new();
        for (key, _, before, _) in &moved {
            let owner = current.shards[*before].addr().to_string();
            if next.shards.iter().any(|s| s.addr().to_string() == owner) {
                evict_by_owner.entry(owner).or_default().push(*key);
            }
        }
        // Install: readers see the whole new view or the whole old one.
        *self.view.write().expect("fleet view lock") = Arc::clone(&next);

        // Old owners drop their moved entries only once the retired
        // view is drained: a request that loaded it just before the
        // swap may still be on its way to an old owner, which would
        // recompile an evicted key. No request can load it any more,
        // so its count only falls; wait, bounded by one I/O timeout,
        // until this function holds the last reference.
        let drain_start = Instant::now();
        while Arc::strong_count(&current) > 1 && drain_start.elapsed() < self.io_timeout {
            std::thread::sleep(DRAIN_POLL);
        }
        let drain_ms = drain_start.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let mut evicted = 0u64;
        for (owner, keys) in &evict_by_owner {
            let Some(shard) = next.shards.iter().find(|s| &s.addr().to_string() == owner) else {
                continue;
            };
            let items: Vec<Json> = keys
                .iter()
                .map(|key| {
                    Json::object([
                        ("model", Json::from(format!("{:016x}", key.model))),
                        ("mcf", Json::from(format!("{:016x}", key.mcf))),
                    ])
                })
                .collect();
            let body = Json::object([("keys", Json::Array(items))]).encode();
            if let Ok(answer) = shard.send("POST", "/v1/evict", Some(&body), &headers) {
                if answer.status == 200 {
                    evicted += json::parse(&answer.body)
                        .ok()
                        .and_then(|b| b.get("evicted").and_then(Json::as_f64))
                        .map(|v| v.max(0.0) as u64)
                        .unwrap_or(0);
                }
            }
        }
        Response::json(
            200,
            Json::object([
                ("ok", Json::from(true)),
                ("epoch", Json::from(next.epoch)),
                ("shards", Json::from(next.shards.len())),
                ("added", Json::from(add.len())),
                ("removed", Json::from(remove.len())),
                ("moved", Json::from(moved.len())),
                ("primed", Json::from(primed)),
                ("evicted", Json::from(evicted)),
                ("drain_ms", Json::from(drain_ms)),
            ])
            .encode(),
        )
    }
}

/// An optional string-array member (`add`/`remove`); absent means
/// empty.
fn string_list(body: &Json, key: &str) -> Result<Vec<String>, Response> {
    let Some(v) = body.get(key) else {
        return Ok(Vec::new());
    };
    let items = v.as_array().ok_or_else(|| {
        error_response(
            400,
            format!("`{key}` must be an array of host:port strings"),
        )
    })?;
    items
        .iter()
        .map(|item| {
            item.as_str().map(str::to_string).ok_or_else(|| {
                error_response(400, format!("`{key}` entries must be host:port strings"))
            })
        })
        .collect()
}

/// Fleet-wide sums over the shard metrics documents.
#[derive(Debug, Default)]
struct FleetTotals {
    requests: u64,
    errors: u64,
    session_compiles: u64,
    session_reuses: u64,
    store_disk_hits: u64,
    store_writes: u64,
}

/// A counter out of a nested metrics document, as `u64`.
fn counter(json: &Json, path: &[&str]) -> u64 {
    let mut node = json;
    for segment in path {
        match node.get(segment) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_f64().map(|v| v.max(0.0) as u64).unwrap_or(0)
}

impl FleetTotals {
    fn absorb(&mut self, metrics: &Json) {
        if let Some(Json::Object(endpoints)) = metrics.get("endpoints") {
            for (name, _) in endpoints {
                self.requests += counter(metrics, &["endpoints", name.as_str(), "requests"]);
                self.errors += counter(metrics, &["endpoints", name.as_str(), "errors"]);
            }
        }
        self.session_compiles += counter(metrics, &["session_pool", "compiles"]);
        self.session_reuses += counter(metrics, &["session_pool", "reuses"]);
        self.store_disk_hits += counter(metrics, &["store", "disk_hits"]);
        self.store_writes += counter(metrics, &["store", "writes"]);
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("requests", Json::from(self.requests)),
            ("errors", Json::from(self.errors)),
            ("session_compiles", Json::from(self.session_compiles)),
            ("session_reuses", Json::from(self.session_reuses)),
            ("store_disk_hits", Json::from(self.store_disk_hits)),
            ("store_writes", Json::from(self.store_writes)),
        ])
    }
}

/// One shard's health entry, shared by `GET /v1/shards` and the
/// per-shard sections of the aggregated metrics document.
fn shard_entry(shard: &Shard) -> Vec<(String, Json)> {
    let health = shard.health();
    vec![
        ("addr".to_string(), Json::from(shard.addr().to_string())),
        ("healthy".to_string(), Json::from(health.is_healthy())),
        ("downs".to_string(), Json::from(health.downs())),
        ("probes".to_string(), Json::from(health.probes())),
        (
            "last_probe_ms_ago".to_string(),
            health.last_probe_ms_ago().map_or(Json::Null, Json::from),
        ),
        (
            "consecutive_failures".to_string(),
            Json::from(health.consecutive_failures()),
        ),
    ]
}

/// An error response: status + `{"error": message}` body (the same
/// shape the shards answer with, so clients see one error format).
fn error_response(status: u16, message: impl Into<String>) -> Response {
    Response::json(
        status,
        Json::object([("error", Json::from(message.into()))]).encode(),
    )
}

impl Handler for RouterState {
    fn handle(&self, req: &Request) -> (Response, bool) {
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/check" | "/v1/estimate" | "/v1/sweep" | "/v1/optimize") => {
                self.forward_by_key(req)
            }
            ("GET", "/v1/models") => self.forward_any(req),
            ("GET", "/v1/metrics") => self.aggregate_metrics(req),
            ("GET", "/v1/shards") => self.shards_json(),
            ("POST", "/v1/shards") => {
                if let Some(expected) = &self.token {
                    if !bearer_authorized(req, expected) {
                        return (
                            error_response(
                                401,
                                "fleet reconfiguration requires a valid bearer token",
                            ),
                            false,
                        );
                    }
                }
                self.reconfigure(req)
            }
            ("POST", "/v1/shutdown") => {
                if let Some(expected) = &self.token {
                    if !bearer_authorized(req, expected) {
                        return (
                            error_response(401, "shutdown requires a valid bearer token"),
                            false,
                        );
                    }
                }
                return (self.broadcast_shutdown(req), true);
            }
            (
                _,
                "/v1/check" | "/v1/estimate" | "/v1/sweep" | "/v1/optimize" | "/v1/models"
                | "/v1/metrics" | "/v1/shards" | "/v1/shutdown",
            ) => error_response(405, format!("{} not allowed here", req.method)),
            _ => error_response(404, format!("no such endpoint `{}`", req.path)),
        };
        (response, false)
    }

    fn record(&self, endpoint: Option<(&str, &str)>, latency: Duration, error: bool) {
        let counters = match endpoint {
            Some((method, path)) => self.metrics.endpoint(method, path),
            None => &self.metrics.other,
        };
        counters.record(latency, error);
    }
}
