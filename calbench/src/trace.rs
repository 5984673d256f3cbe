//! The traced run: spans kept in memory, self times, per-layer metrics.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions. A span has a name, a start, an end, the
//! span that caused it and the operation it belongs to. A layer's self
//! time is its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest by call order: a span entered
/// while another is open is its child.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Starts the next operation: its root span, named `op`.
    pub fn begin_op(&mut self) -> usize {
        self.op += 1;
        self.enter("op")
    }

    pub fn end_op(&mut self, id: usize) {
        self.exit(id);
    }

    /// Self time of every span in nanoseconds, by span index.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .collect()
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, group: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{group}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// What one workload's traced replay measured.
#[derive(Debug)]
pub struct GroupTrace {
    pub name: &'static str,
    pub ops: usize,
    pub failed: usize,
    pub mismatches: Vec<String>,
    /// Per-op µs of the untraced pass over the same operations.
    pub untraced_us: Vec<f64>,
    /// Process CPU per op of the untraced pass.
    pub cpu_ms_per_op: f64,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Self times in µs per span name.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op µs of the traced pass.
    pub traced_us: Vec<f64>,
}

impl GroupTrace {
    pub fn new(name: &'static str, ops: usize) -> Self {
        GroupTrace {
            name,
            ops,
            failed: 0,
            mismatches: Vec::new(),
            untraced_us: Vec::new(),
            cpu_ms_per_op: f64::NAN,
            scalars: BTreeMap::new(),
            layers: BTreeMap::new(),
            traced_us: Vec::new(),
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn scalar(&mut self, name: &'static str, value: f64) {
        self.scalars.insert(name, value);
    }

    /// Folds the recorder's spans into self times and per-op times.
    /// Probes are spans outside any operation: they time a layer on its
    /// own and add nothing to an operation's traced time.
    pub fn absorb(&mut self, rec: &Recorder) {
        let self_ns = rec.self_times_ns();
        for (id, s) in rec.spans.iter().enumerate() {
            if s.name == "op" {
                self.traced_us.push(s.duration_ns() as f64 * 1e-3);
            } else {
                self.layers
                    .entry(s.name)
                    .or_default()
                    .push(self_ns[id] as f64 * 1e-3);
            }
        }
        let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
        self.scalar(
            "trace.overhead_us",
            med(&self.traced_us) - med(&self.untraced_us),
        );
        self.scalar("proc.cpu_ms_per_op", self.cpu_ms_per_op);
    }
}

/// Every span name a group can record, with the end-to-end metric its
/// self time should move and the workload it does so on.
pub const LAYERS: [(&str, &str, &str); 16] = [
    ("exact", "p99_ms, ops_per_s", "serve-cold"),
    ("service.prepare", "p50_ms, ops_per_s", "serve-cold"),
    (
        "service.solve_residual",
        "p50_ms",
        "serve-cold (about 0 on serve-warm)",
    ),
    ("io.parse_instance", "p50_ms", "serve-cold"),
    ("cache.miss", "p50_ms", "serve-cold"),
    ("cache.hit", "ops_per_s at 2 connections", "serve-warm"),
    ("io.parse_request", "p50_ms, ops_per_s", "serve-warm"),
    ("io.format_report", "p50_ms, ops_per_s", "serve-warm"),
    ("serve.answer_line", "p50_ms, p99_ms", "serve-warm"),
    ("socket.round_trip", "p50_ms, p99_ms", "serve-warm"),
    ("cost.evaluate", "ops_per_s (small)", "all"),
    ("heuristic.run", "p50_ms", "chaos-grid"),
    ("sim.faulted", "ops_per_s", "chaos-grid"),
    ("sim.clean", "none (per-layer only)", "chaos-grid"),
    ("replan", "p50_ms", "chaos-grid"),
    ("delta.apply", "p50_ms", "chaos-grid"),
];

/// Scalar per-layer metrics, with unit, what they should move and where.
pub const SCALARS: [(&str, &str, &str, &str); 9] = [
    (
        "service.route_exact_share",
        "ratio",
        "p99_ms, ops_per_s",
        "serve-cold",
    ),
    ("cache.evictions_per_op", "count/op", "p50_ms", "serve-cold"),
    (
        "cache.hit_ratio",
        "ratio",
        "ops_per_s",
        "serve-warm (0 on serve-cold)",
    ),
    ("socket.overhead_us", "us", "p50_ms, p99_ms", "serve-warm"),
    ("replan.migration", "stages", "p50_ms", "chaos-grid"),
    (
        "shard.efficiency",
        "ratio",
        "ops_per_s, p50_ms",
        "chaos-grid",
    ),
    ("proc.cpu_ms_per_op", "ms", "diagnostic", "all"),
    ("trace.overhead_us", "us", "diagnostic", "all"),
    ("host.ref_us", "us", "diagnostic", "all"),
];

/// The `(time, calls)` metric names of span `name`.
pub fn layer_metric_names(name: &str) -> (String, String) {
    if name.contains('.') {
        (format!("{name}_us"), format!("{name}_calls"))
    } else {
        (format!("{name}.us"), format!("{name}.calls"))
    }
}

/// Every per-layer metric name with its unit, in report order.
#[cfg(test)]
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, _, _) in LAYERS {
        let (us, calls) = layer_metric_names(name);
        out.push((us, "us"));
        out.push((calls, "count"));
    }
    for (name, unit, _, _) in SCALARS {
        out.push((name.to_string(), unit));
    }
    out
}

/// The per-layer metrics of a traced run. Each comes from the named
/// workload's own replay (`groups[own]`) where that replay reaches the
/// layer, and otherwise from the first other replay that does.
/// `host.ref_us` is the run's median reference sample.
pub fn per_layer_metrics(
    groups: &[GroupTrace],
    own: usize,
    ref_us: f64,
) -> Result<Vec<(String, f64, &'static str, &'static str)>, String> {
    let order: Vec<&GroupTrace> = std::iter::once(&groups[own])
        .chain(
            groups
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != own)
                .map(|(_, g)| g),
        )
        .collect();
    let mut out = Vec::new();
    for (name, _, _) in LAYERS {
        let (us, calls) = layer_metric_names(name);
        let (g, samples) = order
            .iter()
            .find_map(|g| g.layers.get(name).map(|s| (g.name, s)))
            .ok_or_else(|| format!("no replay reached layer {name}"))?;
        let median = crate::stats::median(samples).expect("non-empty");
        out.push((us, median, "us", g));
        out.push((calls, samples.len() as f64, "count", g));
    }
    for (name, unit, _, _) in SCALARS {
        if name == "host.ref_us" {
            out.push((name.to_string(), ref_us, unit, "all"));
            continue;
        }
        let (g, value) = order
            .iter()
            .find_map(|g| g.scalars.get(name).map(|v| (g.name, *v)))
            .ok_or_else(|| format!("no replay measured {name}"))?;
        out.push((name.to_string(), value, unit, g));
    }
    Ok(out)
}

/// Writes the spans of every group to `path`.
pub fn write_spans(path: &Path, recorders: &[(&str, &Recorder)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "group\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (group, rec) in recorders {
        rec.write_tsv(group, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let rec = Recorder {
            spans: vec![
                span("op", 0, 100, None),
                span("a", 10, 40, Some(0)),
                span("b", 40, 90, Some(0)),
                span("c", 50, 70, Some(2)),
            ],
            ..Recorder::default()
        };
        assert_eq!(rec.self_times_ns(), vec![20, 30, 30, 20]);
    }

    #[test]
    fn spans_nest_by_call_order_and_probes_stay_outside_ops() {
        let mut rec = Recorder::default();
        let op = rec.begin_op();
        rec.leaf("cache.hit", || std::hint::black_box(1));
        let outer = rec.enter("replan");
        rec.leaf("io.parse_request", || ());
        rec.exit(outer);
        rec.end_op(op);
        rec.leaf("delta.apply", || ());
        let parents: Vec<_> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(rec.spans.iter().all(|s| s.op == 1));

        let mut g = GroupTrace::new("t", 1);
        g.untraced_us.push(0.0);
        g.absorb(&rec);
        assert_eq!(g.traced_us.len(), 1);
        assert_eq!(g.layers["cache.hit"].len(), 1);
        assert_eq!(g.layers["delta.apply"].len(), 1);
        assert!(rec.spans[4].start_ns >= rec.spans[0].end_ns);
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in per_layer_names() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\"").count();
        // End-to-end metrics are the other five.
        assert_eq!(listed, per_layer_names().len() + 5);
    }
}
