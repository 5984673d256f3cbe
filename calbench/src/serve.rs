//! The two serving workloads: `serve-cold` and `serve-warm`.
//!
//! Both drive an in-process `core::serve::spawn` server over loopback
//! TCP with closed-loop connections. A connection stands for one
//! scheduler that waits for its mapping before it acts.

use crate::calib::{process_cpu_ns, Calibrator, Reference};
use crate::closed_loop::{self, digest, OpOutcome, Timeline};
use crate::gen::{self, ColdFile, WarmTarget};
use crate::trace::{GroupTrace, Recorder};
use crate::E2eRun;
use pipeline_core::serve::{spawn, ServeConfig, ServeHandle, ServeState};
use pipeline_core::service::InstanceCache;
use pipeline_core::{HeuristicKind, PreparedInstance, SolveRequest, SolveWorkspace};
use pipeline_model::io::{format_instance, format_report, parse_instance, parse_request_at};
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_model::CostModel;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Serve-cold requests per calibrated segment (about 50 ms).
const COLD_SEG_OPS: usize = 20;
/// Serve-cold requests per second of `--seconds`, at nominal host speed.
const COLD_OPS_PER_S: usize = 500;
/// Serve-cold requests sent before timing, on files the timed list
/// reaches only after they have been evicted.
const COLD_WARMUP: usize = 16;
/// Serve-warm requests per calibrated segment, over both connections.
const WARM_SEG_OPS: usize = 2_000;
/// Serve-warm requests per second of `--seconds`, at nominal host speed.
const WARM_OPS_PER_S: usize = 50_000;
/// Closed-loop connections of serve-warm (the host has 2 cores).
const WARM_CONNECTIONS: usize = 2;
/// Ids of set-up requests, above any timed request's id.
const SETUP_ID_BASE: usize = 1 << 40;

/// One closed-loop client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(reader),
            line: String::new(),
        })
    }

    /// Sends one request line (ending in `\n`) and reads its report into
    /// `self.line`. Returns the seconds from write to read.
    fn round_trip(&mut self, request: &str) -> std::io::Result<f64> {
        self.line.clear();
        let start = Instant::now();
        self.writer.write_all(request.as_bytes())?;
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// One timed request, with its outcome taken from the report line.
    fn request(&mut self, mut request: String) -> OpOutcome {
        request.push('\n');
        match self.round_trip(&request) {
            Ok(latency_s) => {
                let report = self.line.trim_end();
                OpOutcome {
                    latency_s,
                    failure: failure_code(report),
                    digest: digest(report.as_bytes()),
                }
            }
            Err(e) => OpOutcome {
                latency_s: 0.0,
                failure: Some(format!("transport-{:?}", e.kind())),
                digest: 0,
            },
        }
    }
}

/// The failure code of a report line, `None` for a success.
fn failure_code(report: &str) -> Option<String> {
    if !report.starts_with("report ") {
        return Some("no-report".to_string());
    }
    if report.contains(" status=ok") {
        return None;
    }
    Some(
        report
            .split_whitespace()
            .find_map(|t| t.strip_prefix("code="))
            .unwrap_or("unknown")
            .to_string(),
    )
}

/// A running in-process server.
struct Server {
    handle: ServeHandle,
    state: Arc<ServeState>,
}

impl Server {
    fn start(cache_capacity: usize) -> Result<Server, String> {
        let state = Arc::new(ServeState::new(None, cache_capacity));
        let config = ServeConfig {
            cache_capacity,
            ..ServeConfig::default()
        };
        let handle = spawn("127.0.0.1:0", Arc::clone(&state), config)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        Ok(Server { handle, state })
    }

    /// `(hits, misses, evictions)` of the server's cache so far.
    fn cache_counters(&self) -> (u64, u64, u64) {
        self.state.cache().counters()
    }

    /// Closes `conns`, then stops the server and waits for it.
    fn stop(self, conns: Vec<Conn>) {
        drop(conns);
        self.handle.shutdown();
    }
}

fn write_instance(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Checks each op's report against a fresh in-process `answer_line` on
/// the same request. Returns one line per mismatch.
fn check_reports(
    timeline: &Timeline,
    fresh: &ServeState,
    request: impl Fn(usize) -> String,
) -> Vec<String> {
    let mut ws = SolveWorkspace::new();
    let mut mismatches = Vec::new();
    for (i, op) in timeline.ops.iter().enumerate() {
        let line = request(i);
        let expected = match fresh.answer_line(&line, 1, &mut ws) {
            Some(report) => format_report(&report),
            None => String::from("(no report)"),
        };
        if digest(expected.as_bytes()) != op.digest {
            mismatches.push(format!("request id={} expected `{expected}`", i + 1));
        }
    }
    mismatches
}

fn n_ops(per_s: usize, seconds: u64) -> usize {
    (per_s * seconds as usize).max(crate::MIN_OPS)
}

// ---------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------

/// A serve-cold corpus file on disk, with the two periods its bounds
/// lie between.
struct ColdEntry {
    file: ColdFile,
    path: String,
    p0: f64,
    floor: f64,
}

/// Writes the corpus files `ks` and returns an entry per corpus index
/// (`None` where not written).
fn write_cold_corpus(
    dir: &Path,
    seed: u64,
    ks: impl Iterator<Item = usize>,
) -> Result<Vec<Option<ColdEntry>>, String> {
    let mut entries: Vec<Option<ColdEntry>> = (0..gen::COLD_CORPUS).map(|_| None).collect();
    for k in ks {
        if entries[k].is_some() {
            continue;
        }
        let file = gen::cold_file(k);
        let (app, platform) = file.instance(seed);
        let path = dir.join(format!("cold-{k:04}.pw"));
        write_instance(&path, &format_instance(&app, &platform))?;
        let (p0, floor) = gen::cold_floor(&app, &platform);
        entries[k] = Some(ColdEntry {
            file,
            path: path.to_string_lossy().into_owned(),
            p0,
            floor,
        });
    }
    Ok(entries)
}

/// The bound-independent trajectories of a communication-homogeneous
/// instance: what `prepare_in` forces besides H4's floor run.
const TRAJECTORY_KINDS: [HeuristicKind; 3] = [
    HeuristicKind::SpMonoP,
    HeuristicKind::ThreeExploMono,
    HeuristicKind::ThreeExploBi,
];

/// Fills `cache` to capacity with entries no request names, so that
/// from the first request on every miss also evicts.
fn fill_cache(cache: &InstanceCache) {
    let (app, platform) =
        ScenarioGenerator::new(ScenarioFamily::ALL[0].params(1, 1)).instance(0, 0);
    let tiny = Arc::new(PreparedInstance::new(app, platform));
    for j in 0..cache.capacity() {
        cache.insert(&format!("filler-{j}"), Arc::clone(&tiny));
    }
}

fn cold_line(seed: u64, order: &[usize], entries: &[Option<ColdEntry>], i: usize) -> String {
    let (k, bounded) = gen::cold_op(order, i);
    let e = entries[k].as_ref().expect("corpus file written");
    let bound = bounded.then(|| gen::cold_bound(seed, i, e.p0, e.floor));
    gen::cold_request(i, &e.path, bound)
}

struct ColdSetup {
    server: Server,
    conn: Conn,
    entries: Vec<Option<ColdEntry>>,
}

/// Corpus generation, server start and warm-up.
fn cold_setup(dir: &Path, seed: u64, order: &[usize]) -> Result<ColdSetup, String> {
    let entries = write_cold_corpus(dir, seed, 0..gen::COLD_CORPUS)?;
    let server = Server::start(gen::COLD_CACHE_CAPACITY)?;
    fill_cache(server.state.cache());
    let mut conn = Conn::open(server.handle.local_addr())?;
    for j in 0..COLD_WARMUP {
        let i = order.len() - COLD_WARMUP + j;
        let (k, _) = gen::cold_op(order, i);
        let e = entries[k].as_ref().expect("whole corpus written");
        let out = conn.request(gen::cold_request(SETUP_ID_BASE + j, &e.path, None));
        if let Some(code) = out.failure {
            return Err(format!("warm-up request failed: {code}"));
        }
    }
    Ok(ColdSetup {
        server,
        conn,
        entries,
    })
}

pub fn run_cold(dir: &Path, seed: u64, seconds: u64) -> Result<E2eRun, String> {
    // One connection keeps one server thread busy at a time: on one CPU
    // the reference samples measure the core every request runs on. The
    // socket kernel, not the L1-resident DP, follows how much a slow host
    // slows these requests (file reads, parsing, allocation, the socket).
    crate::calib::pin_to_first_cpu();
    let order = gen::cold_order(seed);
    let mut cal = Calibrator::start(Reference::Socket)?;
    let (setup, setup_reps) = closed_loop::timed_setups(
        crate::SETUP_REPS,
        &mut cal,
        || cold_setup(dir, seed, &order),
        |s| s.server.stop(vec![s.conn]),
    )?;
    let ColdSetup {
        server,
        conn,
        entries,
    } = setup;
    let n = n_ops(COLD_OPS_PER_S, seconds);
    let before = server.cache_counters();
    let cpu_before = process_cpu_ns();
    let ref_cpu_before = cal.cpu_ns;
    let timeline = closed_loop::drive(&mut [conn], n, COLD_SEG_OPS, &mut cal, |conn, i| {
        conn.request(cold_line(seed, &order, &entries, i))
    });
    let cpu_ns = (process_cpu_ns() - cpu_before) - (cal.cpu_ns - ref_cpu_before);
    let peak_rss_mb = closed_loop::peak_rss_mb()?;
    let (hits, misses, evictions) = {
        let after = server.cache_counters();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    server.stop(Vec::new());

    let mut mismatches = Vec::new();
    if hits != 0 || misses != n as u64 {
        mismatches.push(format!(
            "cache.hit_ratio must be 0: {hits} hits, {misses} misses over {n} requests"
        ));
    }
    let fresh = ServeState::new(None, gen::COLD_CORPUS);
    mismatches.extend(check_reports(&timeline, &fresh, |i| {
        cold_line(seed, &order, &entries, i)
    }));

    let mut notes = vec![format!(
        "cache: {hits} hits, {misses} misses (hit ratio 0 required), {evictions} evictions"
    )];
    notes.push(tail_classes(&timeline, |i| {
        let (k, bounded) = gen::cold_op(&order, i);
        let class = entries[k].as_ref().expect("written").file.class();
        format!("{class}/{}", if bounded { "bounded" } else { "min-period" })
    }));
    E2eRun::new(
        &timeline,
        &setup_reps,
        peak_rss_mb,
        &cal,
        cpu_ns,
        mismatches,
        notes,
    )
}

/// Names the request classes of the ops ranked within ±0.5% of the
/// p99, so one can see whether the tail sits inside one class or on the
/// step between two.
fn tail_classes(timeline: &Timeline, class_of: impl Fn(usize) -> String) -> String {
    let ranked = timeline.ranked_ops();
    let n = ranked.len() as f64;
    let window = &ranked[(0.985 * n) as usize..(0.995 * n).ceil() as usize];
    let mut counts = std::collections::BTreeMap::new();
    for &i in window {
        *counts.entry(class_of(i)).or_insert(0usize) += 1;
    }
    let mut by_count: Vec<_> = counts.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let parts: Vec<String> = by_count
        .iter()
        .map(|(c, k)| format!("{c} {:.0}%", 100.0 * *k as f64 / window.len() as f64))
        .collect();
    format!(
        "classes ranked p98.5-p99.5 ({} ops): {}",
        window.len(),
        parts.join(", ")
    )
}

/// The serve-cold layers, replayed in-process: each request first
/// untraced through `answer_line` (the single request path), then
/// decomposed into the layers' public functions with a span around each.
pub fn trace_cold(
    dir: &Path,
    seed: u64,
    n: usize,
    rec: &mut Recorder,
) -> Result<GroupTrace, String> {
    let order = gen::cold_order(seed);
    let entries = write_cold_corpus(dir, seed, (0..n).map(|i| gen::cold_op(&order, i).0))?;
    let line = |i: usize| cold_line(seed, &order, &entries, i);
    let mut g = GroupTrace::new("serve-cold", n);

    let fresh = ServeState::new(None, gen::COLD_CACHE_CAPACITY);
    fill_cache(fresh.cache());
    let cache = InstanceCache::new(gen::COLD_CACHE_CAPACITY);
    fill_cache(&cache);
    // Each pass keeps its own workspace, as each connection does, so
    // neither warms the other's memo.
    let (mut ws, mut traced_ws) = (SolveWorkspace::new(), SolveWorkspace::new());
    let mut exact_ops = 0usize;
    let mut cpu_ns = 0;
    for i in 0..n {
        let l = line(i);
        let (k, _) = gen::cold_op(&order, i);
        let path = &entries[k].as_ref().expect("written").path;
        let instance = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // Untraced first, through the single request path, so both
        // passes over the op see the host at the same speed.
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let want = fresh.answer_line(&l, 1, &mut ws).map(|r| format_report(&r));
        g.untraced_us.push(start.elapsed().as_secs_f64() * 1e6);
        cpu_ns += process_cpu_ns() - cpu;
        let want = want.unwrap_or_default();
        let exact_route = want.contains(" solver=exact ");
        exact_ops += exact_route as usize;
        let id = (i + 1) as u64;
        let op = rec.begin_op();
        let got = (|| {
            let wire = rec
                .leaf("io.parse_request", || parse_request_at(&l, 1))
                .map_err(|e| e.to_string())?;
            let request = SolveRequest::from_wire(&wire).map_err(|e| e.to_string())?;
            let prepared = rec
                .leaf("cache.miss", || cache.get_or_load(path))
                .map_err(|e| e.to_string())?;
            let report = if exact_route && wire.objective.bound().is_some() {
                rec.leaf("exact", || prepared.solve_in(&request, &mut traced_ws))
            } else {
                if exact_route {
                    // Memoized on the instance, so the residual solve
                    // below answers from it.
                    let _ = rec.leaf("exact", || prepared.exact_min_period_in(&mut traced_ws));
                } else {
                    // What best-of-all computes regardless of the bound: a
                    // bounded request never needs H4's unconstrained run.
                    let bounded = wire.objective.bound().is_some();
                    rec.leaf("service.prepare", || {
                        if bounded && prepared.platform().is_comm_homogeneous() {
                            for kind in TRAJECTORY_KINDS {
                                prepared.trajectory_in(kind, &mut traced_ws);
                            }
                        } else {
                            prepared.prepare_in(&mut traced_ws);
                        }
                    });
                }
                rec.leaf("service.solve_residual", || {
                    prepared.solve_in(&request, &mut traced_ws)
                })
            };
            if let Ok(r) = &report {
                let cm = prepared.cost_model();
                rec.leaf("cost.evaluate", || cm.evaluate(&r.result.mapping));
            }
            let text = rec.leaf("io.format_report", || {
                format_report(&match &report {
                    Ok(r) => r.to_wire(id),
                    Err(e) => e.to_wire(id),
                })
            });
            Ok::<String, String>(text)
        })();
        rec.end_op(op);
        // A probe, outside the operation: the same file parsed on its own.
        if let Err(e) = rec.leaf("io.parse_instance", || parse_instance(&instance)) {
            g.mismatch(format!("{path}: {e}"));
        }
        match got {
            Ok(text) if text == want => {}
            Ok(text) => g.mismatch(format!("request id={id}: traced `{text}` vs `{want}`")),
            Err(e) => g.mismatch(format!("request id={id}: {e}")),
        }
        if failure_code(&want).is_some() {
            g.failed += 1;
        }
    }
    g.cpu_ms_per_op = cpu_ns as f64 * 1e-6 / n as f64;
    let (hits, misses, evictions) = cache.counters();
    g.scalar("service.route_exact_share", exact_ops as f64 / n as f64);
    g.scalar(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    g.scalar("cache.evictions_per_op", evictions as f64 / n as f64);
    Ok(g)
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

struct WarmSetup {
    server: Server,
    conns: Vec<Conn>,
    targets: Vec<WarmTarget>,
}

/// Writes the nine instances, starts the server and memoizes every
/// trajectory the requests use, through the server, reading each
/// trajectory's floor from its `min-period` report.
fn warm_setup(dir: &Path, seed: u64) -> Result<WarmSetup, String> {
    let server = Server::start(ScenarioFamily::ALL.len())?;
    let mut conns = (0..WARM_CONNECTIONS)
        .map(|_| Conn::open(server.handle.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut targets = Vec::new();
    let mut id = SETUP_ID_BASE;
    for family in ScenarioFamily::ALL {
        let (app, platform) = gen::warm_instance(family, seed);
        let path = dir.join(format!("warm-{}.pw", family.label()));
        write_instance(&path, &format_instance(&app, &platform))?;
        let path = path.to_string_lossy().into_owned();
        let mut floors = Vec::new();
        for &strategy in gen::warm_strategies(platform.is_comm_homogeneous()) {
            id += 1;
            let conn = &mut conns[id % WARM_CONNECTIONS];
            let out = conn.request(format!(
                "solve id={id} objective=min-period strategy={strategy} instance={path}"
            ));
            if let Some(code) = out.failure {
                return Err(format!("warm-up request failed: {code}"));
            }
            let period = conn
                .line
                .split_whitespace()
                .find_map(|t| t.strip_prefix("period="))
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("no period in warm-up report `{}`", conn.line.trim()))?;
            floors.push((strategy, period));
        }
        targets.push(WarmTarget {
            path,
            p0: CostModel::new(&app, &platform).single_proc_period(),
            floors,
        });
    }
    Ok(WarmSetup {
        server,
        conns,
        targets,
    })
}

pub fn run_warm(dir: &Path, seed: u64, seconds: u64) -> Result<E2eRun, String> {
    // Requests here are mostly socket system calls and thread wake-ups.
    // Across two CPUs their cost follows how fast the host schedules a
    // sleeping vCPU, which no reference kernel can time; on one CPU it
    // follows the kernel's socket path, which `Reference::Socket` does.
    // Both connections and their server threads share that CPU.
    crate::calib::pin_to_first_cpu();
    let mut cal = Calibrator::start(Reference::Socket)?;
    let (setup, setup_reps) = closed_loop::timed_setups(
        crate::SETUP_REPS,
        &mut cal,
        || warm_setup(dir, seed),
        |s| s.server.stop(s.conns),
    )?;
    let WarmSetup {
        server,
        mut conns,
        targets,
    } = setup;
    let n = n_ops(WARM_OPS_PER_S, seconds);
    let before = server.cache_counters();
    let cpu_before = process_cpu_ns();
    let ref_cpu_before = cal.cpu_ns;
    let timeline = closed_loop::drive(&mut conns, n, WARM_SEG_OPS, &mut cal, |conn, i| {
        conn.request(gen::warm_request(seed, &targets, i))
    });
    let cpu_ns = (process_cpu_ns() - cpu_before) - (cal.cpu_ns - ref_cpu_before);
    let peak_rss_mb = closed_loop::peak_rss_mb()?;
    let (hits, misses) = {
        let after = server.cache_counters();
        (after.0 - before.0, after.1 - before.1)
    };
    server.stop(conns);

    let mut mismatches = Vec::new();
    if misses != 0 || hits != n as u64 {
        mismatches.push(format!(
            "cache.hit_ratio must be 1: {hits} hits, {misses} misses over {n} requests"
        ));
    }
    let fresh = ServeState::new(None, ScenarioFamily::ALL.len());
    mismatches.extend(check_reports(&timeline, &fresh, |i| {
        gen::warm_request(seed, &targets, i)
    }));
    let notes = vec![format!(
        "cache: {hits} hits, {misses} misses (hit ratio 1 required)"
    )];
    E2eRun::new(
        &timeline,
        &setup_reps,
        peak_rss_mb,
        &cal,
        cpu_ns,
        mismatches,
        notes,
    )
}

/// The serve-warm layers: each request untraced through `answer_line` on
/// the warm state, then decomposed with spans, then over TCP as a probe.
pub fn trace_warm(
    dir: &Path,
    seed: u64,
    n: usize,
    rec: &mut Recorder,
) -> Result<GroupTrace, String> {
    let WarmSetup {
        server,
        mut conns,
        targets,
    } = warm_setup(dir, seed)?;
    let state = Arc::clone(&server.state);
    let mut g = GroupTrace::new("serve-warm", n);
    let (mut ws, mut traced_ws) = (SolveWorkspace::new(), SolveWorkspace::new());

    let (hits0, misses0, _) = state.cache().counters();
    let mut round_trips = Vec::with_capacity(n);
    let mut cpu_ns = 0;
    for i in 0..n {
        let l = gen::warm_request(seed, &targets, i);
        let id = (i + 1) as u64;
        // Untraced first: the single request path, timed as a probe span.
        let cpu = process_cpu_ns();
        let start = Instant::now();
        let answered = rec.leaf("serve.answer_line", || state.answer_line(&l, 1, &mut ws));
        g.untraced_us.push(start.elapsed().as_secs_f64() * 1e6);
        cpu_ns += process_cpu_ns() - cpu;
        let answered = answered.map(|r| format_report(&r)).unwrap_or_default();

        let op = rec.begin_op();
        let got = (|| {
            let wire = rec
                .leaf("io.parse_request", || parse_request_at(&l, 1))
                .map_err(|e| e.to_string())?;
            let request = SolveRequest::from_wire(&wire).map_err(|e| e.to_string())?;
            let path = wire
                .instance
                .as_deref()
                .ok_or("request names no instance")?;
            let prepared = rec
                .leaf("cache.hit", || state.cache().get_or_load(path))
                .map_err(|e| e.to_string())?;
            let report = rec.leaf("service.solve_residual", || {
                prepared.solve_in(&request, &mut traced_ws)
            });
            if let Ok(r) = &report {
                let cm = prepared.cost_model();
                rec.leaf("cost.evaluate", || cm.evaluate(&r.result.mapping));
            }
            Ok::<String, String>(rec.leaf("io.format_report", || {
                format_report(&match &report {
                    Ok(r) => r.to_wire(id),
                    Err(e) => e.to_wire(id),
                })
            }))
        })();
        rec.end_op(op);

        // A probe, outside the operation: the same request over TCP.
        let conn = &mut conns[i % WARM_CONNECTIONS];
        let wire_line = format!("{l}\n");
        match rec.leaf("socket.round_trip", || conn.round_trip(&wire_line)) {
            Ok(rtt) => round_trips.push(rtt * 1e6),
            Err(e) => g.mismatch(format!("request id={id}: transport: {e}")),
        }
        match got {
            Ok(text) if text == answered && conn.line.trim_end() == text => {
                if failure_code(&text).is_some() {
                    g.failed += 1;
                }
            }
            Ok(text) => g.mismatch(format!(
                "request id={id}: decomposed `{text}`, answer_line `{answered}`, tcp `{}`",
                conn.line.trim_end()
            )),
            Err(e) => g.mismatch(format!("request id={id}: {e}")),
        }
    }
    g.cpu_ms_per_op = cpu_ns as f64 * 1e-6 / n as f64;
    let (hits, misses, _) = state.cache().counters();
    let (hits, misses) = (hits - hits0, misses - misses0);
    g.scalar(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    g.scalar(
        "socket.overhead_us",
        med(&round_trips) - med(&g.untraced_us),
    );
    drop(state);
    server.stop(conns);
    Ok(g)
}
