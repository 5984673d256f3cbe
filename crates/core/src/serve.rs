//! Persistent solver service: shared state and the threaded TCP front.
//!
//! The wire format v1.1 ([`pipeline_model::io`]) streams one `solve …`
//! or `update …` request per line and one `report …` answer per line.
//! This module lifts that protocol from a one-shot stdin loop onto a
//! long-running network service — the steady-state story of the paper
//! applied to the solver itself: many clients, sustained load, one warm
//! cache. `update` lines hot-reload the default instance through
//! [`PreparedInstance::apply_in`], so a drifting platform re-solves
//! incrementally instead of from scratch.
//!
//! Three layers, std-only (no async runtime — the accept loop is a
//! plain `TcpListener` with one thread per admitted connection):
//!
//! * [`ServeState`] — everything shared across connections: an
//!   LRU-bounded [`InstanceCache`] of [`Arc<PreparedInstance>`]s keyed
//!   by instance path (so every connection answers bound queries from
//!   the same memoized trajectories) and the service counters. Its
//!   [`ServeState::answer_line`] is the *single* request-handling code
//!   path: the `pwsched solve --stdin` pipe service and every TCP
//!   connection call the same function, which is what makes the two
//!   transports byte-identical by construction.
//! * [`serve`] / [`spawn`] — the accept loop: bounded admission (a
//!   connection beyond `max_connections` is answered with one
//!   structured `overloaded` failure and closed), per-connection idle
//!   timeouts, a hard request-line length bound (`line-too-long`
//!   failures, never unbounded buffering), and graceful shutdown via a
//!   shared stop flag (each worker polls it between reads; in-flight
//!   requests complete before their connection closes).
//! * Each connection thread owns one [`SolveWorkspace`] reused across
//!   every request it serves, so steady-state per-request cost is
//!   solving — not allocating solver scratch — exactly like the shard
//!   engine's per-worker contexts.

use crate::service::{encode_mapping, PreparedInstance, SolveRequest};
use crate::tenancy::{CoSchedOptions, PartitionObjective, Tenant, TenantSet};
use crate::workspace::SolveWorkspace;
use pipeline_model::io::{
    format_report, parse_cosched_at, parse_instance, parse_request_at, parse_stats_at,
    parse_update_at, WireFailure, WireReport, WireSolved, WireStatsReport,
};
use pipeline_model::IntervalMapping;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked readers wake up to check the stop flag. Bounds
/// shutdown latency; invisible to throughput (a loaded connection never
/// sleeps).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the accept loop sleeps when nobody is knocking. Much
/// tighter than [`POLL_INTERVAL`]: a freshly connected client pays this
/// before its first request is heard, so it sits on the latency path of
/// every connection (the kernel completes the TCP handshake from the
/// listen backlog before `accept` returns — the client's first write
/// succeeds, then waits for a worker).
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Knobs of the TCP service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Concurrent-connection admission limit: a connection accepted
    /// beyond this is answered with one `overloaded` failure and closed.
    pub max_connections: usize,
    /// LRU capacity of the shared prepared-instance cache.
    pub cache_capacity: usize,
    /// A connection that fails to deliver a complete request line within
    /// this duration is closed. The clock runs per line, not per byte —
    /// a sub-line byte trickle cannot hold a connection open.
    pub idle_timeout: Duration,
    /// Hard bound on one request line; longer lines are answered with a
    /// `line-too-long` failure and discarded (never buffered whole).
    pub max_line_bytes: usize,
    /// Per-connection request quota: the request beyond this many
    /// answered ones is refused with a structured `quota-exceeded`
    /// failure and the connection closes. `None` is unlimited.
    pub request_quota: Option<u64>,
    /// Per-connection lifetime deadline: a request arriving after this
    /// much connection time is refused with a structured
    /// `deadline-exceeded` failure and the connection closes. `None` is
    /// unlimited.
    pub conn_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 64,
            cache_capacity: 128,
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: 64 * 1024,
            request_quota: None,
            conn_deadline: None,
        }
    }
}

/// Per-connection request budget: how many more requests the connection
/// may ask and until when. The stdin transport runs with
/// [`ConnBudget::unlimited`], so its byte stream is untouched by the
/// quota machinery; TCP connections derive theirs from [`ServeConfig`]
/// at accept time.
#[derive(Debug, Clone, Copy)]
pub struct ConnBudget {
    quota: Option<u64>,
    deadline: Option<Instant>,
    answered: u64,
}

impl ConnBudget {
    /// No quota, no deadline (the stdin transport's budget).
    pub fn unlimited() -> Self {
        ConnBudget {
            quota: None,
            deadline: None,
            answered: 0,
        }
    }

    /// The budget `config` grants a connection opened at `opened`.
    pub fn from_config(config: &ServeConfig, opened: Instant) -> Self {
        ConnBudget {
            quota: config.request_quota,
            deadline: config.conn_deadline.map(|d| opened + d),
            answered: 0,
        }
    }

    /// Requests answered under this budget so far.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// The failure code refusing the *next* request, if the budget is
    /// exhausted (deadline wins over quota when both have expired).
    fn refusal(&self, now: Instant) -> Option<&'static str> {
        if self.deadline.is_some_and(|d| now >= d) {
            return Some("deadline-exceeded");
        }
        if self.quota.is_some_and(|q| self.answered >= q) {
            return Some("quota-exceeded");
        }
        None
    }
}

/// What [`ServeState::answer_line_budgeted`] decided about one line.
#[derive(Debug)]
pub enum BudgetedAnswer {
    /// Blank/comment line: nothing to send (consumes no budget).
    Skip,
    /// An ordinary answer; the connection stays open.
    Answer(WireReport),
    /// The budget refused the request: send the structured failure,
    /// then close the connection.
    Refuse(WireReport),
}

/// Why an instance path could not be turned into a prepared instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceLoadError {
    /// The file could not be read.
    Io(String),
    /// The file did not parse as a `pipeline-instance v1`.
    Parse(String),
}

impl std::fmt::Display for InstanceLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceLoadError::Io(detail) => write!(f, "cannot read instance: {detail}"),
            InstanceLoadError::Parse(detail) => write!(f, "cannot parse instance: {detail}"),
        }
    }
}

impl std::error::Error for InstanceLoadError {}

/// LRU-bounded cache of prepared instances, keyed by instance path and
/// shared across every connection of the service. The value is an
/// [`Arc<PreparedInstance>`]: the session's lazily memoized trajectories
/// are computed once by whichever connection queries first and answer
/// every later bound query from any connection — the "one warm cache"
/// half of the serve story.
#[derive(Debug)]
pub struct InstanceCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// path → (last-use stamp, prepared instance).
    map: HashMap<String, (u64, Arc<PreparedInstance>)>,
    tick: u64,
}

impl InstanceCache {
    /// A cache holding at most `capacity` prepared instances (min 1).
    pub fn new(capacity: usize) -> Self {
        InstanceCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached instances right now.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Inserts a prepared instance under `key`, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&self, key: &str, prepared: Arc<PreparedInstance>) {
        let mut inner = self.inner.lock().unwrap();
        Self::insert_locked(&mut inner, self.capacity, &self.evictions, key, prepared);
    }

    /// The cached instance for `path`, loading and parsing the file on a
    /// miss. Loading holds the cache lock — `PreparedInstance::new` is
    /// cheap (trajectories materialize lazily at first solve, outside
    /// the lock), so a cold path never stalls warm traffic for long.
    pub fn get_or_load(&self, path: &str) -> Result<Arc<PreparedInstance>, InstanceLoadError> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((stamp, prepared)) = inner.map.get_mut(path) {
            *stamp = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(prepared));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let text = std::fs::read_to_string(path)
            .map_err(|e| InstanceLoadError::Io(format!("{path}: {e}")))?;
        let (app, platform) =
            parse_instance(&text).map_err(|e| InstanceLoadError::Parse(format!("{path}: {e}")))?;
        let prepared = Arc::new(PreparedInstance::new(app, platform));
        Self::insert_locked(
            &mut inner,
            self.capacity,
            &self.evictions,
            path,
            Arc::clone(&prepared),
        );
        Ok(prepared)
    }

    fn insert_locked(
        inner: &mut CacheInner,
        capacity: usize,
        evictions: &AtomicU64,
        key: &str,
        prepared: Arc<PreparedInstance>,
    ) {
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(key) && inner.map.len() >= capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key.to_string(), (tick, prepared));
    }
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections being served right now.
    pub live: u64,
    /// Connections accepted (admitted or not).
    pub connections: u64,
    /// Connections refused by admission control (`overloaded`).
    pub rejected: u64,
    /// Request lines answered (reports and failures).
    pub requests: u64,
    /// Failure reports among [`Self::requests`].
    pub failures: u64,
    /// Prepared-instance cache hits.
    pub cache_hits: u64,
    /// Prepared-instance cache misses (loads).
    pub cache_misses: u64,
    /// Prepared instances evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Whole seconds the service has been up.
    pub uptime_s: u64,
}

impl ServeStats {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Everything the service shares across connections: the instance cache,
/// the optional default instance path, and the counters. One
/// `Arc<ServeState>` sits behind every connection thread *and* behind
/// the stdin pipe service — both answer requests through
/// [`ServeState::answer_line`], so the transports cannot drift apart.
#[derive(Debug)]
pub struct ServeState {
    default_path: Option<String>,
    cache: InstanceCache,
    live: AtomicU64,
    connections: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    failures: AtomicU64,
    started: Instant,
}

impl ServeState {
    /// Service state with an LRU cache of `cache_capacity` instances.
    /// Requests that carry no `instance=` selector are answered against
    /// `default_path` (and fail with `bad-instance` when there is none).
    pub fn new(default_path: Option<String>, cache_capacity: usize) -> Self {
        ServeState {
            default_path,
            cache: InstanceCache::new(cache_capacity),
            live: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The shared prepared-instance cache.
    pub fn cache(&self) -> &InstanceCache {
        &self.cache
    }

    /// The default instance path, if one is configured.
    pub fn default_path(&self) -> Option<&str> {
        self.default_path.as_deref()
    }

    /// Eagerly loads the default instance into the cache, so a
    /// misconfigured service fails at startup instead of on the first
    /// request.
    pub fn preload_default(&self) -> Result<(), InstanceLoadError> {
        match &self.default_path {
            Some(path) => self.cache.get_or_load(path).map(|_| ()),
            None => Ok(()),
        }
    }

    /// A snapshot of the counters. The `stats` wire verb and
    /// `bench-serve` both read through here, so they can never disagree.
    pub fn stats(&self) -> ServeStats {
        let (cache_hits, cache_misses, cache_evictions) = self.cache.counters();
        ServeStats {
            live: self.live.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            uptime_s: self.started.elapsed().as_secs(),
        }
    }

    /// Answers one line of a request stream: `None` for blank/comment
    /// lines, otherwise exactly one report. `line_no` is the line's
    /// 1-based position in its stream; parse failures echo it (and the
    /// offending key) in the wire failure.
    ///
    /// This is the single request-handling path of every transport
    /// (stdin pipe and TCP), which is what keeps them byte-identical.
    pub fn answer_line(
        &self,
        raw: &str,
        line_no: u64,
        ws: &mut SolveWorkspace,
    ) -> Option<WireReport> {
        let mut budget = ConnBudget::unlimited();
        match self.answer_line_budgeted(raw, line_no, ws, &mut budget, Instant::now()) {
            BudgetedAnswer::Skip => None,
            BudgetedAnswer::Answer(report) => Some(report),
            BudgetedAnswer::Refuse(_) => unreachable!("an unlimited budget never refuses"),
        }
    }

    /// [`Self::answer_line`] under a per-connection [`ConnBudget`]: a
    /// request past the budget's deadline or quota is answered with one
    /// structured `deadline-exceeded` / `quota-exceeded` failure
    /// ([`BudgetedAnswer::Refuse`]) and the caller closes the
    /// connection. Refusals count as failed requests in the service
    /// stats; blank and comment lines consume no budget. This is still
    /// the single request path — [`Self::answer_line`] is exactly this
    /// method with an unlimited budget.
    pub fn answer_line_budgeted(
        &self,
        raw: &str,
        line_no: u64,
        ws: &mut SolveWorkspace,
        budget: &mut ConnBudget,
        now: Instant,
    ) -> BudgetedAnswer {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return BudgetedAnswer::Skip;
        }
        if let Some(code) = budget.refusal(now) {
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.failures.fetch_add(1, Ordering::Relaxed);
            return BudgetedAnswer::Refuse(WireReport::Failed(
                WireFailure::new(0, code).at_line(line_no),
            ));
        }
        let report = self.answer_request(trimmed, line_no, ws);
        budget.answered += 1;
        self.requests.fetch_add(1, Ordering::Relaxed);
        if matches!(report, WireReport::Failed(_)) {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        BudgetedAnswer::Answer(report)
    }

    fn answer_request(&self, line: &str, line_no: u64, ws: &mut SolveWorkspace) -> WireReport {
        match line.split_whitespace().next() {
            Some("update") => return self.answer_update(line, line_no, ws),
            Some("cosched") => return self.answer_cosched(line, line_no, ws),
            Some("stats") => return self.answer_stats(line, line_no),
            _ => {}
        }
        let wire = match parse_request_at(line, line_no as usize) {
            Ok(wire) => wire,
            Err(e) => {
                let mut failure = WireFailure::new(0, "bad-request");
                failure.line = e.line().map(|l| l as u64);
                failure.key = e.key().map(str::to_string);
                return WireReport::Failed(failure);
            }
        };
        let request = match SolveRequest::from_wire(&wire) {
            Ok(request) => request,
            Err(_) => return WireReport::Failed(WireFailure::new(wire.id, "unknown-solver")),
        };
        let Some(path) = wire.instance.as_deref().or(self.default_path.as_deref()) else {
            return WireReport::Failed(
                WireFailure::new(wire.id, "bad-instance").for_key("instance"),
            );
        };
        let prepared = match self.cache.get_or_load(path) {
            Ok(prepared) => prepared,
            Err(_) => return WireReport::Failed(WireFailure::new(wire.id, "bad-instance")),
        };
        match prepared.solve_in(&request, ws) {
            Ok(report) => report.to_wire(wire.id),
            Err(err) => err.to_wire(wire.id),
        }
    }

    /// Handles one `update …` line (wire format v1.1): applies the
    /// [`InstanceDelta`](pipeline_model::InstanceDelta) to the service's
    /// *default* instance via [`PreparedInstance::apply_in`] — carrying
    /// over every memoized artifact the delta does not invalidate and
    /// warm-starting the workspace's selection memo — and republishes the
    /// result under the default path's cache key, so every subsequent
    /// selector-less request (from any connection) is answered against
    /// the updated instance. The acknowledgement is an ordinary `ok`
    /// report with the updated instance's baseline coordinates: the
    /// Lemma-1 single-interval mapping, its period and `L_opt`.
    fn answer_update(&self, line: &str, line_no: u64, ws: &mut SolveWorkspace) -> WireReport {
        let upd = match parse_update_at(line, line_no as usize) {
            Ok(upd) => upd,
            Err(e) => {
                let mut failure = WireFailure::new(0, "bad-request");
                failure.line = e.line().map(|l| l as u64);
                failure.key = e.key().map(str::to_string);
                return WireReport::Failed(failure);
            }
        };
        let Some(path) = self.default_path.as_deref() else {
            return WireReport::Failed(WireFailure::new(upd.id, "no-default-instance"));
        };
        let prepared = match self.cache.get_or_load(path) {
            Ok(prepared) => prepared,
            Err(_) => return WireReport::Failed(WireFailure::new(upd.id, "bad-instance")),
        };
        let next = match prepared.apply_in(&upd.delta, ws) {
            Ok(next) => Arc::new(next),
            Err(_) => return WireReport::Failed(WireFailure::new(upd.id, "bad-delta")),
        };
        self.cache.insert(path, Arc::clone(&next));
        let mapping = IntervalMapping::all_on_fastest(next.app(), next.platform());
        WireReport::Solved(WireSolved {
            id: upd.id,
            solver: "update".to_string(),
            period: next.single_proc_period(),
            latency: next.optimal_latency(),
            feasible: true,
            mapping: encode_mapping(&mapping),
            front: None,
        })
    }

    /// Handles one `cosched …` line (wire format v1.2): loads every
    /// tenant's instance through the shared cache (`-` selects the
    /// default instance), builds a [`TenantSet`] and answers with the
    /// heuristic co-schedule. Tenancy-layer failures reuse the tenancy
    /// error codes; an unregistered objective answers
    /// `unknown-objective`.
    fn answer_cosched(&self, line: &str, line_no: u64, ws: &mut SolveWorkspace) -> WireReport {
        let wire = match parse_cosched_at(line, line_no as usize) {
            Ok(wire) => wire,
            Err(e) => {
                let mut failure = WireFailure::new(0, "bad-request");
                failure.line = e.line().map(|l| l as u64);
                failure.key = e.key().map(str::to_string);
                return WireReport::Failed(failure);
            }
        };
        let Some(objective) = PartitionObjective::from_label(&wire.objective) else {
            return WireReport::Failed(
                WireFailure::new(wire.id, "unknown-objective").for_key("objective"),
            );
        };
        let strategy = match wire.strategy.parse() {
            Ok(strategy) => strategy,
            Err(_) => {
                return WireReport::Failed(
                    WireFailure::new(wire.id, "unknown-solver").for_key("strategy"),
                )
            }
        };
        let mut opts = CoSchedOptions {
            strategy,
            ..CoSchedOptions::default()
        };
        if let Some(t) = wire.tolerance {
            opts.tolerance = t;
        }
        let mut tenants = Vec::with_capacity(wire.tenants.len());
        for (i, selector) in wire.tenants.iter().enumerate() {
            let Some(path) = selector.as_deref().or(self.default_path.as_deref()) else {
                return WireReport::Failed(
                    WireFailure::new(wire.id, "bad-instance").for_key("tenants"),
                );
            };
            let prepared = match self.cache.get_or_load(path) {
                Ok(prepared) => prepared,
                Err(_) => {
                    return WireReport::Failed(
                        WireFailure::new(wire.id, "bad-instance").for_key("tenants"),
                    )
                }
            };
            let mut tenant = Tenant::new(prepared);
            if let Some(weights) = &wire.weights {
                tenant = tenant.weight(weights[i]);
            }
            if let Some(slos) = &wire.slos {
                if let Some(slo) = slos[i] {
                    tenant = tenant.slo(slo);
                }
            }
            tenants.push(tenant);
        }
        let set = match TenantSet::new(tenants) {
            Ok(set) => set,
            Err(e) => return WireReport::Failed(WireFailure::new(wire.id, e.code())),
        };
        match set.co_schedule(objective, &opts, ws) {
            Ok(sched) => sched.to_wire(wire.id),
            Err(e) => WireReport::Failed(WireFailure::new(wire.id, e.code())),
        }
    }

    /// Handles one `stats …` line (wire format v1.2): answers with a
    /// snapshot of the service counters as an ordinary ok-report. The
    /// request counter increments *after* the answer is built, so a
    /// stats report never counts itself.
    fn answer_stats(&self, line: &str, line_no: u64) -> WireReport {
        let wire = match parse_stats_at(line, line_no as usize) {
            Ok(wire) => wire,
            Err(e) => {
                let mut failure = WireFailure::new(0, "bad-request");
                failure.line = e.line().map(|l| l as u64);
                failure.key = e.key().map(str::to_string);
                return WireReport::Failed(failure);
            }
        };
        let stats = self.stats();
        WireReport::Stats(WireStatsReport {
            id: wire.id,
            live: stats.live,
            connections: stats.connections,
            rejected: stats.rejected,
            requests: stats.requests,
            failures: stats.failures,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_evictions: stats.cache_evictions,
            uptime_s: stats.uptime_s,
        })
    }
}

/// Decrements the live-connection gauge when a connection thread exits,
/// however it exits.
struct LiveGuard<'a>(&'a ServeState);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server spawned by [`spawn`]: the bound address, the stop
/// flag, and the accept-loop thread.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<ServeStats>,
}

impl ServeHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared stop flag; setting it initiates graceful shutdown
    /// (e.g. from a signal handler).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Initiates graceful shutdown and waits for the accept loop and
    /// every connection to drain. Returns the final counters.
    pub fn shutdown(self) -> ServeStats {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("serve loop does not panic")
    }
}

/// Binds `addr` and runs [`serve`] on a background thread.
pub fn spawn(
    addr: &str,
    state: Arc<ServeState>,
    config: ServeConfig,
) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_loop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("pwsched-serve".into())
        .spawn(move || serve(listener, state, config, stop_loop))?;
    Ok(ServeHandle {
        addr: local,
        stop,
        thread,
    })
}

/// The accept loop: admits up to `config.max_connections` concurrent
/// connections (one thread each), answers the rest with a structured
/// `overloaded` failure, and drains gracefully once `stop` is set —
/// no new connections, every worker finishes its in-flight request and
/// exits at the next poll. Returns the final counters.
pub fn serve(
    listener: TcpListener,
    state: Arc<ServeState>,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
) -> ServeStats {
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is how the loop observes the stop flag");
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut accept_failures: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        workers.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                accept_failures = 0;
                state.connections.fetch_add(1, Ordering::Relaxed);
                if workers.len() >= config.max_connections {
                    state.rejected.fetch_add(1, Ordering::Relaxed);
                    reject_overloaded(stream);
                    continue;
                }
                let worker_state = Arc::clone(&state);
                let worker_stop = Arc::clone(&stop);
                match std::thread::Builder::new()
                    .name("pwsched-conn".into())
                    .spawn(move || handle_connection(stream, worker_state, config, worker_stop))
                {
                    Ok(handle) => workers.push(handle),
                    Err(_) => {
                        state.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // `accept` fails transiently under churn (the peer hung
                // up while queued, FD pressure, spurious resets): back
                // off and keep listening instead of abandoning every
                // live connection. Only an error that persists across
                // the full backoff ladder — or one that is known to be
                // non-transient — takes the listener down.
                accept_failures = accept_failures.saturating_add(1);
                if !transient_accept_error(e.kind()) && accept_failures > MAX_ACCEPT_FAILURES {
                    break;
                }
                std::thread::sleep(accept_backoff(accept_failures));
            }
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
    state.stats()
}

/// Accept errors that are known to clear on their own: the kernel
/// reporting a connection that died while queued, or a timeout-flavored
/// hiccup. These retry forever (with backoff); anything else is given
/// [`MAX_ACCEPT_FAILURES`] consecutive chances before the loop exits.
fn transient_accept_error(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
    )
}

/// Consecutive non-transient accept failures tolerated before the
/// listener gives up.
const MAX_ACCEPT_FAILURES: u32 = 8;

/// Capped exponential backoff after the `n`-th consecutive accept
/// failure (n ≥ 1): 2 ms, 4 ms, 8 ms, … capped at
/// [`MAX_ACCEPT_BACKOFF`].
fn accept_backoff(n: u32) -> Duration {
    let exp = n.min(16);
    let ms = 1u64 << exp.min(63);
    MAX_ACCEPT_BACKOFF.min(Duration::from_millis(ms))
}

/// Upper bound of the accept-retry backoff ladder.
const MAX_ACCEPT_BACKOFF: Duration = Duration::from_millis(250);

fn reject_overloaded(mut stream: TcpStream) {
    let line = format_report(&WireReport::Failed(WireFailure::new(0, "overloaded")));
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line is in the accumulator.
    Line,
    /// The line exceeded the length bound (its bytes were discarded; the
    /// stream is positioned after its terminating newline).
    TooLong,
    /// Peer closed the connection (any partial line is dropped — a
    /// mid-request disconnect is a disconnect, not a request).
    Eof,
    /// The stop flag was raised.
    Stopped,
    /// No complete request line arrived within the idle timeout.
    IdleTimeout,
}

/// Reads one `\n`-terminated line into `acc`, never buffering more than
/// `max_len` bytes of it, waking every [`POLL_INTERVAL`] to check `stop`
/// and the idle clock. The stream's read timeout must be set to
/// [`POLL_INTERVAL`] by the caller.
///
/// The idle clock measures time since this *request line* began, not
/// since the last byte: a peer trickling sub-line bytes (slow loris)
/// resets nothing and is disconnected at the timeout exactly like a
/// silent one. Only completing a line rearms the clock (the caller
/// re-enters for the next line).
fn next_line(
    reader: &mut BufReader<TcpStream>,
    acc: &mut Vec<u8>,
    max_len: usize,
    stop: &AtomicBool,
    idle_timeout: Duration,
) -> std::io::Result<LineRead> {
    acc.clear();
    let mut too_long = false;
    let started = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(LineRead::Stopped);
        }
        if started.elapsed() >= idle_timeout {
            return Ok(LineRead::IdleTimeout);
        }
        let (consumed, complete) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            let (chunk, consumed, complete) = match buf.iter().position(|&b| b == b'\n') {
                Some(i) => (&buf[..i], i + 1, true),
                None => (buf, buf.len(), false),
            };
            if !too_long {
                if acc.len() + chunk.len() > max_len {
                    too_long = true;
                    acc.clear();
                } else {
                    acc.extend_from_slice(chunk);
                }
            }
            (consumed, complete)
        };
        reader.consume(consumed);
        if complete {
            return Ok(if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line
            });
        }
    }
}

/// One admitted connection: a line-in/report-out loop over the shared
/// state, with one reused [`SolveWorkspace`] for every request the
/// connection sends.
fn handle_connection(
    stream: TcpStream,
    state: Arc<ServeState>,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
) {
    state.live.fetch_add(1, Ordering::Relaxed);
    let _live = LiveGuard(&state);
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut ws = SolveWorkspace::new();
    let mut acc = Vec::with_capacity(256);
    let mut line_no: u64 = 0;
    let mut budget = ConnBudget::from_config(&config, Instant::now());
    loop {
        match next_line(
            &mut reader,
            &mut acc,
            config.max_line_bytes,
            &stop,
            config.idle_timeout,
        ) {
            Ok(LineRead::Line) => {
                line_no += 1;
                let text = String::from_utf8_lossy(&acc);
                match state.answer_line_budgeted(
                    &text,
                    line_no,
                    &mut ws,
                    &mut budget,
                    Instant::now(),
                ) {
                    BudgetedAnswer::Skip => continue,
                    BudgetedAnswer::Answer(report) => {
                        if write_report(&mut writer, &report).is_err() {
                            return;
                        }
                    }
                    BudgetedAnswer::Refuse(report) => {
                        let _ = write_report(&mut writer, &report);
                        return;
                    }
                }
            }
            Ok(LineRead::TooLong) => {
                line_no += 1;
                state.requests.fetch_add(1, Ordering::Relaxed);
                state.failures.fetch_add(1, Ordering::Relaxed);
                let report =
                    WireReport::Failed(WireFailure::new(0, "line-too-long").at_line(line_no));
                if write_report(&mut writer, &report).is_err() {
                    return;
                }
            }
            Ok(LineRead::Eof | LineRead::Stopped | LineRead::IdleTimeout) | Err(_) => return,
        }
    }
}

fn write_report(writer: &mut TcpStream, report: &WireReport) -> std::io::Result<()> {
    writeln!(writer, "{}", format_report(report))?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::io::format_instance;
    use std::path::PathBuf;

    /// Writes a generated instance to a unique temp file.
    fn instance_file(tag: &str, seed: u64) -> PathBuf {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 8, 5));
        let (app, pf) = gen.instance(seed, 0);
        let path = std::env::temp_dir().join(format!(
            "pwsched-serve-unit-{}-{tag}-{seed}.pw",
            std::process::id()
        ));
        std::fs::write(&path, format_instance(&app, &pf)).expect("temp file writable");
        path
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        let paths: Vec<PathBuf> = (0..3).map(|s| instance_file("lru", s)).collect();
        let keys: Vec<String> = paths
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        let cache = InstanceCache::new(2);
        // Cold loads: all misses.
        cache.get_or_load(&keys[0]).expect("loads");
        cache.get_or_load(&keys[1]).expect("loads");
        assert_eq!(cache.counters(), (0, 2, 0));
        // Re-query: a hit that refreshes key 0's recency.
        cache.get_or_load(&keys[0]).expect("cached");
        assert_eq!(cache.counters(), (1, 2, 0));
        // Third instance evicts the least recently used (key 1).
        cache.get_or_load(&keys[2]).expect("loads");
        assert_eq!(cache.counters(), (1, 3, 1));
        assert_eq!(cache.len(), 2);
        // Key 0 survived, key 1 must reload.
        cache.get_or_load(&keys[0]).expect("still cached");
        assert_eq!(cache.counters(), (2, 3, 1));
        cache.get_or_load(&keys[1]).expect("reloads");
        assert_eq!(cache.counters(), (2, 4, 2));
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn cache_load_errors_are_structured() {
        let cache = InstanceCache::new(2);
        assert!(matches!(
            cache.get_or_load("/definitely/not/a/file.pw"),
            Err(InstanceLoadError::Io(_))
        ));
        let bad = std::env::temp_dir().join(format!("pwsched-serve-bad-{}.pw", std::process::id()));
        std::fs::write(&bad, "not an instance\n").unwrap();
        assert!(matches!(
            cache.get_or_load(&bad.to_string_lossy()),
            Err(InstanceLoadError::Parse(_))
        ));
        let _ = std::fs::remove_file(bad);
        // Failed loads stay out of the cache.
        assert!(cache.is_empty());
    }

    #[test]
    fn answer_line_matches_direct_solves_and_skips_comments() {
        let path = instance_file("answer", 11);
        let key = path.to_string_lossy().into_owned();
        let state = ServeState::new(Some(key.clone()), 4);
        state.preload_default().expect("default loads");
        let mut ws = SolveWorkspace::new();
        assert!(state.answer_line("", 1, &mut ws).is_none());
        assert!(state.answer_line("# comment", 2, &mut ws).is_none());
        let report = state
            .answer_line("solve id=7 objective=min-period strategy=best", 3, &mut ws)
            .expect("a real request");
        // Byte-identical to solving directly against the same session.
        let prepared = state.cache().get_or_load(&key).unwrap();
        let direct = prepared
            .solve(
                &SolveRequest::new(crate::Objective::MinPeriod)
                    .strategy(crate::Strategy::BestOfAll),
            )
            .unwrap()
            .to_wire(7);
        assert_eq!(format_report(&report), format_report(&direct));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn update_lines_hot_reload_the_default_instance() {
        let path = instance_file("update", 17);
        let key = path.to_string_lossy().into_owned();
        let state = ServeState::new(Some(key.clone()), 4);
        state.preload_default().expect("default loads");
        let mut ws = SolveWorkspace::new();
        let before = state
            .answer_line("solve id=1 objective=min-period strategy=best", 1, &mut ws)
            .expect("answered");
        // Speed up the fastest processor; the ack carries the updated
        // baseline (Lemma-1) coordinates.
        let prepared = state.cache().get_or_load(&key).unwrap();
        let fastest = prepared.platform().fastest();
        let doubled = 2.0 * prepared.platform().speed(fastest);
        let ack = state
            .answer_line(
                &format!("update id=2 delta=proc-speed proc={fastest} speed={doubled}"),
                2,
                &mut ws,
            )
            .expect("answered");
        let updated = state.cache().get_or_load(&key).unwrap();
        match &ack {
            WireReport::Solved(s) => {
                assert_eq!(s.id, 2);
                assert_eq!(s.solver, "update");
                assert_eq!(s.period.to_bits(), updated.single_proc_period().to_bits());
                assert_eq!(s.latency.to_bits(), updated.optimal_latency().to_bits());
            }
            other => panic!("expected ok ack, got {other:?}"),
        }
        assert_eq!(
            updated.platform().speed(fastest).to_bits(),
            doubled.to_bits()
        );
        // Selector-less requests now answer against the updated instance.
        let after = state
            .answer_line("solve id=3 objective=min-period strategy=best", 3, &mut ws)
            .expect("answered");
        assert_ne!(format_report(&before), format_report(&after));
        // Structured failures: bad delta (unknown proc), no default.
        let report = state
            .answer_line("update id=4 delta=proc-speed proc=99 speed=1", 4, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=4 status=error code=bad-delta"
        );
        let no_default = ServeState::new(None, 2);
        let report = no_default
            .answer_line("update id=5 delta=bandwidth bandwidth=2", 1, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=5 status=error code=no-default-instance"
        );
        // Malformed updates diagnose the line and key like solve lines.
        let report = state
            .answer_line("update id=6 delta=proc-speed proc=0", 6, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=0 status=error code=bad-request line=6 key=speed"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_requests_carry_line_and_key_diagnostics() {
        let state = ServeState::new(None, 2);
        let mut ws = SolveWorkspace::new();
        let report = state
            .answer_line("solve id=1 objective=take-a-guess", 29, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=0 status=error code=bad-request line=29 key=objective"
        );
        let report = state
            .answer_line("solve id=2 objective=min-period junk=1", 4, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=0 status=error code=bad-request line=4 key=junk"
        );
        // No default instance configured and no instance= selector.
        let report = state
            .answer_line("solve id=3 objective=min-period", 5, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=3 status=error code=bad-instance key=instance"
        );
        let stats = state.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.failures, 3);
    }

    #[test]
    fn overflowing_instances_and_deltas_fail_structurally() {
        // Every number is finite and positive, but 1e308 / 1e-308 is not:
        // this instance used to pass parsing and then panic a solver.
        let path = std::env::temp_dir().join(format!(
            "pwsched-serve-unit-{}-overflow.pw",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "pipeline-instance v1\nworks 1e308 1e308 2\ndeltas 2 6 4 10\n\
             speeds 1e-308 4\nbandwidth 5\n",
        )
        .expect("temp file writable");
        let state = ServeState::new(None, 2);
        let mut ws = SolveWorkspace::new();
        let line = format!(
            "solve id=1 objective=min-period strategy=best instance={}",
            path.display()
        );
        let report = state.answer_line(&line, 1, &mut ws).expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=1 status=error code=bad-instance"
        );
        // A speed drift to 1e-308 overflows the same way.
        let valid = instance_file("overflow", 37);
        let state = ServeState::new(Some(valid.to_string_lossy().into_owned()), 2);
        let report = state
            .answer_line(
                "update id=2 delta=proc-speed proc=0 speed=1e-308",
                2,
                &mut ws,
            )
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=2 status=error code=bad-delta"
        );
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(valid);
    }

    #[test]
    fn stats_verb_reports_the_shared_counters() {
        let path = instance_file("stats", 23);
        let key = path.to_string_lossy().into_owned();
        let state = ServeState::new(Some(key), 4);
        let mut ws = SolveWorkspace::new();
        // One solve (a cache miss), one failure.
        state
            .answer_line("solve id=1 objective=min-period", 1, &mut ws)
            .expect("answered");
        state
            .answer_line("solve id=2 objective=nope", 2, &mut ws)
            .expect("answered");
        let report = state
            .answer_line("stats id=3", 3, &mut ws)
            .expect("answered");
        match &report {
            WireReport::Stats(s) => {
                assert_eq!(s.id, 3);
                // The stats request itself is not counted.
                assert_eq!((s.requests, s.failures), (2, 1));
                assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (0, 1, 0));
                // Pipe transport: no connections, nothing live.
                assert_eq!((s.live, s.connections, s.rejected), (0, 0, 0));
            }
            other => panic!("expected stats report, got {other:?}"),
        }
        // The wire line and ServeState::stats agree field by field.
        let snap = state.stats();
        assert_eq!(
            format_report(&report),
            format!(
                "report id=3 status=ok solver=stats live={} connections={} rejected={} \
                 requests={} failures={} cache-hits={} cache-misses={} cache-evictions={} \
                 uptime-s={}",
                snap.live,
                snap.connections,
                snap.rejected,
                snap.requests - 1, // the snapshot was taken after stats answered
                snap.failures,
                snap.cache_hits,
                snap.cache_misses,
                snap.cache_evictions,
                snap.uptime_s
            )
        );
        // Malformed stats lines diagnose like every other verb.
        let report = state
            .answer_line("stats id=4 junk=1", 4, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=0 status=error code=bad-request line=4 key=junk"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn quota_refuses_the_request_after_the_budget_and_counts_the_failure() {
        let path = instance_file("quota", 31);
        let key = path.to_string_lossy().into_owned();
        let state = ServeState::new(Some(key), 4);
        let mut ws = SolveWorkspace::new();
        let mut budget = ConnBudget {
            quota: Some(2),
            deadline: None,
            answered: 0,
        };
        let now = Instant::now();
        // Comments never consume budget.
        assert!(matches!(
            state.answer_line_budgeted("# warmup", 1, &mut ws, &mut budget, now),
            BudgetedAnswer::Skip
        ));
        for line_no in 2..=3 {
            assert!(matches!(
                state.answer_line_budgeted(
                    "solve id=1 objective=min-period",
                    line_no,
                    &mut ws,
                    &mut budget,
                    now,
                ),
                BudgetedAnswer::Answer(_)
            ));
        }
        assert_eq!(budget.answered(), 2);
        let refusal = state.answer_line_budgeted(
            "solve id=9 objective=min-period",
            4,
            &mut ws,
            &mut budget,
            now,
        );
        match refusal {
            BudgetedAnswer::Refuse(report) => assert_eq!(
                format_report(&report),
                "report id=0 status=error code=quota-exceeded line=4"
            ),
            other => panic!("expected refusal, got {other:?}"),
        }
        // The refusal is a counted failed request.
        let stats = state.stats();
        assert_eq!((stats.requests, stats.failures), (3, 1));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn deadline_refuses_and_wins_over_quota() {
        let state = ServeState::new(None, 2);
        let mut ws = SolveWorkspace::new();
        let opened = Instant::now();
        let config = ServeConfig {
            request_quota: Some(0),
            conn_deadline: Some(Duration::from_millis(5)),
            ..ServeConfig::default()
        };
        let mut budget = ConnBudget::from_config(&config, opened);
        // Both limits are exhausted; the deadline code wins.
        let late = opened + Duration::from_millis(10);
        match state.answer_line_budgeted("stats id=1", 7, &mut ws, &mut budget, late) {
            BudgetedAnswer::Refuse(report) => assert_eq!(
                format_report(&report),
                "report id=0 status=error code=deadline-exceeded line=7"
            ),
            other => panic!("expected refusal, got {other:?}"),
        }
        // Before the deadline, the zero quota refuses instead.
        let mut budget = ConnBudget::from_config(&config, opened);
        match state.answer_line_budgeted("stats id=2", 8, &mut ws, &mut budget, opened) {
            BudgetedAnswer::Refuse(report) => assert_eq!(
                format_report(&report),
                "report id=0 status=error code=quota-exceeded line=8"
            ),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_never_refuses() {
        let state = ServeState::new(None, 2);
        let mut ws = SolveWorkspace::new();
        let mut budget = ConnBudget::unlimited();
        let now = Instant::now();
        for line_no in 1..=50 {
            assert!(matches!(
                state.answer_line_budgeted("stats id=1", line_no, &mut ws, &mut budget, now),
                BudgetedAnswer::Answer(_)
            ));
        }
        assert_eq!(budget.answered(), 50);
    }

    #[test]
    fn accept_backoff_is_exponential_and_capped() {
        assert_eq!(accept_backoff(1), Duration::from_millis(2));
        assert_eq!(accept_backoff(2), Duration::from_millis(4));
        assert_eq!(accept_backoff(3), Duration::from_millis(8));
        // The ladder caps instead of growing unboundedly.
        assert_eq!(accept_backoff(7), Duration::from_millis(128));
        assert_eq!(accept_backoff(8), MAX_ACCEPT_BACKOFF);
        assert_eq!(accept_backoff(100), MAX_ACCEPT_BACKOFF);
        assert_eq!(accept_backoff(u32::MAX), MAX_ACCEPT_BACKOFF);
    }

    #[test]
    fn transient_accept_errors_are_classified() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::Interrupted,
        ] {
            assert!(transient_accept_error(kind), "{kind:?} is transient");
        }
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::NotFound,
        ] {
            assert!(!transient_accept_error(kind), "{kind:?} is not transient");
        }
    }

    #[test]
    fn cosched_verb_answers_through_the_tenancy_layer() {
        let path = instance_file("cosched", 29);
        let key = path.to_string_lossy().into_owned();
        let state = ServeState::new(Some(key.clone()), 4);
        let mut ws = SolveWorkspace::new();
        let report = state
            .answer_line(
                "cosched id=1 objective=max-min tenants=-,- weights=2:1",
                1,
                &mut ws,
            )
            .expect("answered");
        // Byte-identical to co-scheduling directly against the same set.
        let prepared = state.cache().get_or_load(&key).unwrap();
        let set = TenantSet::new(vec![
            Tenant::new(Arc::clone(&prepared)).weight(2.0),
            Tenant::new(prepared),
        ])
        .unwrap();
        let direct = set
            .co_schedule(
                PartitionObjective::MaxMinWeightedPeriod,
                &CoSchedOptions::default(),
                &mut SolveWorkspace::new(),
            )
            .unwrap()
            .to_wire(1);
        assert_eq!(format_report(&report), format_report(&direct));
        // Structured failures: unknown objective, unknown strategy,
        // missing tenant instance, unloadable tenant path.
        let checks = [
            (
                "cosched id=2 objective=fair tenants=-",
                "report id=2 status=error code=unknown-objective key=objective",
            ),
            (
                "cosched id=3 objective=max-min tenants=- strategy=h99",
                "report id=3 status=error code=unknown-solver key=strategy",
            ),
            (
                "cosched id=4 objective=max-min tenants=-,/no/such/file.pw",
                "report id=4 status=error code=bad-instance key=tenants",
            ),
            (
                "cosched id=5 objective=max-min tenants=- weights=1:2",
                "report id=0 status=error code=bad-request line=5 key=weights",
            ),
        ];
        for (line_no, (request, expected)) in checks.iter().enumerate() {
            let report = state
                .answer_line(request, 2 + line_no as u64, &mut ws)
                .expect("answered");
            assert_eq!(&format_report(&report), expected, "{request}");
        }
        let no_default = ServeState::new(None, 2);
        let report = no_default
            .answer_line("cosched id=6 objective=max-min tenants=-", 1, &mut ws)
            .expect("answered");
        assert_eq!(
            format_report(&report),
            "report id=6 status=error code=bad-instance key=tenants"
        );
        let _ = std::fs::remove_file(path);
    }
}
