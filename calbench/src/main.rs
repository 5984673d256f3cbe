//! Host-calibrated benchmark of the pipeline scheduling service.
//!
//! ```text
//! calbench --workload <serve-cold|serve-warm|chaos-grid> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it writes its inputs and spans under
//! `.calbench_work/`). With `--trace 0` it replays the workload's fixed,
//! seed-determined operation list, checks every answer, and prints the
//! end-to-end metrics; with `--trace 1` it replays the same operations
//! through each layer's public functions and prints per-layer metrics.
//! The last line of standard output is one JSON object.

mod calib;
mod chaos;
mod closed_loop;
mod gen;
mod serve;
mod stats;
mod trace;

use calib::Calibrator;
use closed_loop::{Calibrated, Summary, Timeline};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Fewest operations a run replays: the p99 needs ten samples beyond it.
pub const MIN_OPS: usize = 1100;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Operations the traced run replays for the named workload, and for
/// each other workload whose layers it also reports.
const TRACE_OPS: [usize; 3] = [1100, 4000, 300];
const PROBE_OPS: [usize; 3] = [72, 200, 14];

const WORKLOADS: [&str; 3] = ["serve-cold", "serve-warm", "chaos-grid"];

struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == value)
                        .ok_or_else(|| bad(&WORKLOADS.join("|")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("1 to 600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end result of one timed run, raw and calibrated.
pub struct E2eRun {
    summary: Summary,
    setup_s: Calibrated,
    setup_reps: Vec<Calibrated>,
    peak_rss_mb: f64,
    reference: calib::Reference,
    ref_median_ns: f64,
    ref_samples: usize,
    ref_cpus: usize,
    cpu_ms_per_op: f64,
    mismatches: Vec<String>,
    notes: Vec<String>,
}

impl E2eRun {
    pub fn new(
        timeline: &Timeline,
        setup_reps: &[Calibrated],
        peak_rss_mb: f64,
        cal: &Calibrator,
        cpu_ns: u64,
        mismatches: Vec<String>,
        notes: Vec<String>,
    ) -> Result<E2eRun, String> {
        let summary = timeline.summary()?;
        Ok(E2eRun {
            cpu_ms_per_op: cpu_ns as f64 * 1e-6 / summary.attempted as f64,
            summary,
            setup_s: closed_loop::median_of(setup_reps),
            setup_reps: setup_reps.to_vec(),
            peak_rss_mb,
            reference: cal.reference,
            ref_median_ns: cal.median_ns(),
            ref_samples: cal.samples.len(),
            ref_cpus: calib::cpus(&calib::affinity()).len(),
            mismatches,
            notes,
        })
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric value {v} is not a finite number"))
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

fn run_timed(args: &Args, dir: &Path) -> Result<(bool, String), String> {
    let run = match args.workload {
        0 => serve::run_cold(dir, args.seed, args.seconds)?,
        1 => serve::run_warm(dir, args.seed, args.seconds)?,
        _ => chaos::run(args.seed, args.seconds)?,
    };
    let s = &run.summary;
    println!(
        "ops: {} attempted, {} failed, {} setups, {} reference samples",
        s.attempted,
        s.failed,
        run.setup_reps.len(),
        run.ref_samples
    );
    for (code, count) in &s.failures_by_code {
        println!("failed ops with code {code}: {count}");
    }
    println!(
        "host.ref_ns median {:.1} over {} CPU(s), {} kernel (R_nominal {:.1}); calibrated = raw x R_nominal / R",
        run.ref_median_ns,
        run.ref_cpus,
        run.reference.label(),
        run.reference.nominal_ns()
    );
    let setups: Vec<String> = run
        .setup_reps
        .iter()
        .map(|c| format!("{:.4}/{:.4}", c.calibrated, c.raw))
        .collect();
    println!(
        "setup_s per repetition (calibrated/raw): {}",
        setups.join(" ")
    );
    println!("proc.cpu_ms_per_op {:.4}", run.cpu_ms_per_op);
    for note in &run.notes {
        println!("{note}");
    }
    let e2e = [
        ("ops_per_s", s.ops_per_s, "1/s"),
        ("p50_ms", s.p50_ms, "ms"),
        ("p99_ms", s.p99_ms, "ms"),
        ("setup_s", run.setup_s, "s"),
    ];
    let mut metrics = Vec::new();
    let mut raw = Vec::new();
    for (name, value, unit) in e2e {
        println!(
            "{name:<12} {:>14.6} {unit:<4} (raw {:.6})",
            value.calibrated, value.raw
        );
        metrics.push((name.to_string(), value.calibrated, unit));
        raw.push(format!("\"{name}\": {}", json_number(value.raw)?));
    }
    println!(
        "{:<12} {:>14.6} MiB  (VmHWM)",
        "peak_rss_mb", run.peak_rss_mb
    );
    metrics.insert(3, ("peak_rss_mb".to_string(), run.peak_rss_mb, "MiB"));
    // The raw twin of every calibrated metric and the reference time
    // that converts one into the other, for the spread study.
    println!(
        "audit {{\"reference\": \"{}\", \"ref_median_ns\": {}, \"r_nominal_ns\": {}, \"raw\": {{{}}}}}",
        run.reference.label(),
        json_number(run.ref_median_ns)?,
        json_number(run.reference.nominal_ns())?,
        raw.join(", ")
    );
    for m in run.mismatches.iter().take(10) {
        println!("MISMATCH {m}");
    }
    let correct = run.mismatches.is_empty() && s.failed == 0;
    if !run.mismatches.is_empty() {
        println!(
            "{} answers did not match their reference",
            run.mismatches.len()
        );
    }
    Ok((
        correct,
        result_line(correct, s.attempted, s.failed, &metrics)?,
    ))
}

fn run_traced(args: &Args, dir: &Path) -> Result<(bool, String), String> {
    let mut cal = Calibrator::start(calib::Reference::Compute)?;
    let mut groups = Vec::new();
    let mut recorders = Vec::new();
    for (g, name) in WORKLOADS.iter().enumerate() {
        let n = if g == args.workload {
            TRACE_OPS[g]
        } else {
            PROBE_OPS[g]
        };
        let mut rec = trace::Recorder::default();
        let mut group = match g {
            0 => serve::trace_cold(dir, args.seed, n, &mut rec)?,
            1 => serve::trace_warm(dir, args.seed, n, &mut rec)?,
            _ => chaos::trace(args.seed, n, &mut rec),
        };
        group.absorb(&rec);
        cal.sample();
        println!(
            "{name}: {} ops traced, median op {:.2} us traced vs {:.2} us untraced, overhead {:.2} us",
            n,
            stats::median(&group.traced_us).unwrap_or(f64::NAN),
            stats::median(&group.untraced_us).unwrap_or(f64::NAN),
            group.scalars["trace.overhead_us"]
        );
        groups.push(group);
        recorders.push((*name, rec));
    }
    let spans_path = dir.join(format!("spans-{}.tsv", args.seed));
    let refs: Vec<(&str, &trace::Recorder)> = recorders.iter().map(|(n, r)| (*n, r)).collect();
    trace::write_spans(&spans_path, &refs)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());

    let metrics = trace::per_layer_metrics(&groups, args.workload, cal.median_ns() * 1e-3)?;
    let moves: std::collections::BTreeMap<String, (&str, &str)> = trace::LAYERS
        .iter()
        .map(|(n, m, on)| (trace::layer_metric_names(n).0, (*m, *on)))
        .chain(
            trace::SCALARS
                .iter()
                .map(|(n, _, m, on)| (n.to_string(), (*m, *on))),
        )
        .collect();
    println!(
        "{:<28} {:>14} {:<9} {:<11} moves / on",
        "per-layer metric", "value", "unit", "from"
    );
    for (name, value, unit, from) in &metrics {
        let (m, on) = moves.get(name).copied().unwrap_or(("", ""));
        println!("{name:<28} {value:>14.4} {unit:<9} {from:<11} {m} / {on}");
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for g in &groups {
        attempted += g.ops;
        failed += g.failed;
        for m in g.mismatches.iter().take(10) {
            println!("MISMATCH {}: {m}", g.name);
        }
        correct &= g.mismatches.is_empty();
    }
    correct &= failed == 0;
    let metrics: Vec<(String, f64, &str)> =
        metrics.into_iter().map(|(n, v, u, _)| (n, v, u)).collect();
    Ok((correct, result_line(correct, attempted, failed, &metrics)?))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("calbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".calbench_work").join(WORKLOADS[args.workload]);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("calbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "calbench workload={} seed={} seconds={} trace={} nproc={}",
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if args.trace {
        run_traced(&args, &dir)
    } else {
        run_timed(&args, &dir)
    };
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("calbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(true, 1200, 0, &[("p50_ms".to_string(), 1.0 / 3.0, "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1200, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("x".into(), f64::NAN, "s")]).is_err());
    }
}
