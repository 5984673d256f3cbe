//! The closed-loop load generator: clients that each wait for an answer
//! before sending their next request, run in calibrated segments.
//!
//! A run is a fixed list of operations cut into segments. Between two
//! segments every client is parked at a barrier and the coordinating
//! thread takes a reference sample, so nothing of the workload runs
//! while the host's speed is measured. Each operation's time is scaled
//! by the factor of the segment it ran in.

use crate::calib::Calibrator;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one operation reported.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Wall-clock seconds from sending the operation to its answer.
    pub latency_s: f64,
    /// Failure code, when the operation failed or was refused.
    pub failure: Option<String>,
    /// Digest of the answer, compared against a reference afterwards.
    pub digest: u64,
}

/// Every operation's outcome and every segment's timing.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Outcome of operation `i`, by index.
    pub ops: Vec<OpOutcome>,
    /// Operations per segment: op `i` ran in segment `i / seg_ops`.
    pub seg_ops: usize,
    /// Raw wall-clock seconds of each segment.
    pub seg_wall_s: Vec<f64>,
    /// `R_NOMINAL / R` of each segment.
    pub seg_factor: Vec<f64>,
}

/// A metric in both forms, so the conversion can be audited.
#[derive(Debug, Clone, Copy)]
pub struct Calibrated {
    pub calibrated: f64,
    pub raw: f64,
}

/// The end-to-end view of a timeline.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub failures_by_code: BTreeMap<String, usize>,
    pub ops_per_s: Calibrated,
    pub p50_ms: Calibrated,
    pub p99_ms: Calibrated,
}

/// Runs ops `0..n_ops` on `clients` in segments of `seg_ops`. Each
/// segment is split into one contiguous share per client, and every
/// client runs its share closed loop on a thread of its own; the
/// segment ends when all shares are done. Between segments nothing of
/// the workload runs, and `cal` takes its reference sample.
pub fn drive<C, F>(
    clients: &mut [C],
    n_ops: usize,
    seg_ops: usize,
    cal: &mut Calibrator,
    op: F,
) -> Timeline
where
    C: Send,
    F: Fn(&mut C, usize) -> OpOutcome + Sync,
{
    assert!(!clients.is_empty() && seg_ops > 0);
    let mut timeline = Timeline {
        ops: vec![OpOutcome::default(); n_ops],
        seg_ops,
        ..Timeline::default()
    };
    for (s, segment) in timeline.ops.chunks_mut(seg_ops).enumerate() {
        let share = segment.len().div_ceil(clients.len());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (c, (client, part)) in clients
                .iter_mut()
                .zip(segment.chunks_mut(share))
                .enumerate()
            {
                let op = &op;
                let first = s * seg_ops + c * share;
                scope.spawn(move || {
                    for (j, out) in part.iter_mut().enumerate() {
                        *out = op(client, first + j);
                    }
                });
            }
        });
        timeline.seg_wall_s.push(start.elapsed().as_secs_f64());
        timeline.seg_factor.push(cal.close_segment());
    }
    timeline
}

impl Timeline {
    /// The calibration factor of the segment op `i` ran in.
    fn factor_of(&self, i: usize) -> f64 {
        self.seg_factor[i / self.seg_ops]
    }

    /// Throughput and latency quantiles, raw and calibrated. A failed
    /// operation counts as attempted, not as completed, and as an
    /// infinitely late answer in the latency quantiles. Refuses (`Err`)
    /// when too few operations ran for a p99.
    pub fn summary(&self) -> Result<Summary, String> {
        let mut failures_by_code = BTreeMap::new();
        let (mut raw_lat, mut cal_lat) = (Vec::new(), Vec::new());
        for (i, op) in self.ops.iter().enumerate() {
            match &op.failure {
                Some(code) => {
                    *failures_by_code.entry(code.clone()).or_insert(0) += 1;
                    raw_lat.push(f64::INFINITY);
                    cal_lat.push(f64::INFINITY);
                }
                None => {
                    raw_lat.push(op.latency_s * 1e3);
                    cal_lat.push(op.latency_s * 1e3 * self.factor_of(i));
                }
            }
        }
        let failed: usize = failures_by_code.values().sum();
        let completed = (self.ops.len() - failed) as f64;
        let raw_s: f64 = self.seg_wall_s.iter().sum();
        let cal_s: f64 = self
            .seg_wall_s
            .iter()
            .zip(&self.seg_factor)
            .map(|(w, f)| w * f)
            .sum();
        let quantile = |v: &[f64], q: f64| -> Result<f64, String> {
            stats::tail(v, q).ok_or_else(|| {
                format!(
                    "{} ops leave fewer than {} samples beyond the {q} quantile",
                    v.len(),
                    stats::MIN_BEYOND
                )
            })
        };
        Ok(Summary {
            attempted: self.ops.len(),
            failed,
            failures_by_code,
            ops_per_s: Calibrated {
                calibrated: completed / cal_s,
                raw: completed / raw_s,
            },
            p50_ms: Calibrated {
                calibrated: stats::median(&cal_lat).ok_or("no operations ran")?,
                raw: stats::median(&raw_lat).ok_or("no operations ran")?,
            },
            p99_ms: Calibrated {
                calibrated: quantile(&cal_lat, 0.99)?,
                raw: quantile(&raw_lat, 0.99)?,
            },
        })
    }

    /// Operation indices ordered by calibrated latency (failed ones
    /// last), to name the request classes around a quantile's rank.
    pub fn ranked_ops(&self) -> Vec<usize> {
        let lat = |i: usize| match self.ops[i].failure {
            Some(_) => f64::INFINITY,
            None => self.ops[i].latency_s * self.factor_of(i),
        };
        let mut idx: Vec<usize> = (0..self.ops.len()).collect();
        idx.sort_by(|&a, &b| lat(a).total_cmp(&lat(b)));
        idx
    }
}

/// Runs `setup` `reps` times, each bracketed by reference samples, and
/// keeps the last result; earlier ones go to `teardown` untimed.
/// Returns the kept setup and each repetition's time in seconds.
pub fn timed_setups<S>(
    reps: usize,
    cal: &mut Calibrator,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<Calibrated>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let start = Instant::now();
        let s = setup()?;
        let raw = start.elapsed().as_secs_f64();
        let factor = cal.close_segment();
        times.push(Calibrated {
            calibrated: raw * factor,
            raw,
        });
        kept = Some(s);
    }
    Ok((kept.expect("at least one setup"), times))
}

/// Median of each form over the repetitions.
pub fn median_of(values: &[Calibrated]) -> Calibrated {
    let pick = |f: fn(&Calibrated) -> f64| {
        stats::median(&values.iter().map(f).collect::<Vec<_>>()).expect("non-empty")
    };
    Calibrated {
        calibrated: pick(|c| c.calibrated),
        raw: pick(|c| c.raw),
    }
}

/// FNV-1a over the bytes of an answer.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_runs_once_on_its_client_and_segment() {
        let mut cal = Calibrator::start(crate::calib::Reference::Compute).unwrap();
        let mut clients = vec![0usize; 2];
        let tl = drive(&mut clients, 25, 10, &mut cal, |count, i| {
            *count += 1;
            OpOutcome {
                latency_s: 1e-3,
                failure: (i == 7).then(|| "boom".to_string()),
                digest: i as u64,
            }
        });
        // Segments of 10, 10 and 5 ops: shares of 5+5, 5+5 and 3+2.
        assert_eq!(clients, vec![13, 12]);
        assert_eq!(tl.seg_wall_s.len(), 3);
        assert_eq!(tl.seg_factor.len(), 3);
        assert!(tl.ops.iter().enumerate().all(|(i, o)| o.digest == i as u64));
        // 25 ops are too few for a p99 with ten samples beyond it.
        assert!(tl.summary().is_err());
    }

    #[test]
    fn failures_are_counted_by_code_and_never_complete() {
        let mut cal = Calibrator::start(crate::calib::Reference::Compute).unwrap();
        let tl = drive(&mut [()], 1200, 400, &mut cal, |_, i| OpOutcome {
            latency_s: 1e-6,
            failure: (i % 50 == 0).then(|| "bound-below-floor".to_string()),
            digest: 0,
        });
        let s = tl.summary().expect("enough ops");
        assert_eq!(s.attempted, 1200);
        assert_eq!(s.failed, 24);
        assert_eq!(s.failures_by_code["bound-below-floor"], 24);
        // 2% of the ops failed, so the p99 is a failure: infinitely late.
        assert!(s.p99_ms.raw.is_infinite());
        assert!(s.p50_ms.raw.is_finite());
    }
}
