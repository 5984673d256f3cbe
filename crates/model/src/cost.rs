//! The analytic cost model: period (paper eq. 1) and latency (eq. 2).
//!
//! For an interval mapping with intervals `I_j = [d_j, e_j]` placed on
//! processors `alloc(j)` over a Communication Homogeneous platform with
//! bandwidth `b`:
//!
//! ```text
//! T_period  = max_j ( δ_{d_j-1}/b  +  W_j/s_alloc(j)  +  δ_{e_j}/b )
//! T_latency = Σ_j   ( δ_{d_j-1}/b  +  W_j/s_alloc(j) )  +  δ_n/b
//! ```
//!
//! where `W_j = Σ_{i∈I_j} w_i`. The period term of an interval is its
//! processor's *cycle time*: under the one-port model a processor serially
//! receives the input of one data set, computes, and forwards the output,
//! so a new data set can enter its interval only every cycle-time units.
//! The latency counts each inter-processor transfer once along the chain
//! plus the final output transfer.
//!
//! On the fully heterogeneous extension, `δ_{d_j-1}/b` generalizes to
//! `δ_{d_j-1}/b_{alloc(j-1), alloc(j)}` (and the outside-world transfers use
//! the platform's I/O bandwidth); the same functions handle both cases.

use crate::application::Application;
use crate::mapping::{Interval, IntervalMapping};
use crate::platform::{LinkModel, Platform, ProcId};

/// Evaluates mappings of one application on one platform.
///
/// Binds the application and platform once so the hot heuristic loops can
/// query interval costs with minimal arguments. All methods are O(1) or
/// O(m) thanks to the work prefix sums carried by [`Application`].
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    app: &'a Application,
    platform: &'a Platform,
}

/// Per-interval cost breakdown returned by [`CostModel::interval_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalCost {
    /// Input communication time `δ_{d-1}/b_in`.
    pub t_in: f64,
    /// Computation time `W/s`.
    pub t_comp: f64,
    /// Output communication time `δ_e/b_out`.
    pub t_out: f64,
}

impl IntervalCost {
    /// Cycle time of the processor running the interval: the period
    /// contribution `t_in + t_comp + t_out`.
    #[inline]
    pub fn cycle_time(&self) -> f64 {
        self.t_in + self.t_comp + self.t_out
    }

    /// Latency contribution `t_in + t_comp` (the output transfer is
    /// charged as the next interval's input, except for the final interval
    /// whose output is charged separately as `δ_n/b`).
    #[inline]
    pub fn latency_term(&self) -> f64 {
        self.t_in + self.t_comp
    }
}

impl<'a> CostModel<'a> {
    /// Binds an application and a platform.
    pub fn new(app: &'a Application, platform: &'a Platform) -> Self {
        CostModel { app, platform }
    }

    /// The bound application.
    #[inline]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The bound platform.
    #[inline]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Bandwidth used by the transfer *into* the interval starting at
    /// `start`, given the processor of the preceding interval (`None` for
    /// the outside world).
    #[inline]
    fn in_bandwidth(&self, pred: Option<ProcId>, me: ProcId) -> f64 {
        match pred {
            None => self.platform.io_bandwidth_of(me),
            Some(q) => self.platform.bandwidth(q, me),
        }
    }

    /// Bandwidth used by the transfer *out of* the interval ending at
    /// `end`, given the processor of the following interval (`None` for
    /// the outside world).
    #[inline]
    fn out_bandwidth(&self, me: ProcId, succ: Option<ProcId>) -> f64 {
        match succ {
            None => self.platform.io_bandwidth_of(me),
            Some(q) => self.platform.bandwidth(me, q),
        }
    }

    /// Cost breakdown of running `interval` on processor `u`, with
    /// `pred`/`succ` the neighbouring processors (`None` at the pipeline
    /// boundaries). On Communication Homogeneous platforms the neighbours
    /// do not change the result; they matter for the heterogeneous
    /// extension.
    pub fn interval_cost(
        &self,
        interval: Interval,
        u: ProcId,
        pred: Option<ProcId>,
        succ: Option<ProcId>,
    ) -> IntervalCost {
        let w = self.app.interval_work(interval.start, interval.end);
        IntervalCost {
            t_in: self.app.input_volume(interval.start) / self.in_bandwidth(pred, u),
            t_comp: w / self.platform.speed(u),
            t_out: self.app.output_volume(interval.end) / self.out_bandwidth(u, succ),
        }
    }

    /// Cycle time of interval `j` of `mapping` (the `max` argument of
    /// eq. 1).
    pub fn cycle_time(&self, mapping: &IntervalMapping, j: usize) -> f64 {
        let ivs = mapping.intervals();
        let pred = (j > 0).then(|| mapping.proc_of(j - 1));
        let succ = (j + 1 < ivs.len()).then(|| mapping.proc_of(j + 1));
        self.interval_cost(ivs[j], mapping.proc_of(j), pred, succ)
            .cycle_time()
    }

    /// `T_period` of the mapping (eq. 1): the largest cycle time.
    pub fn period(&self, mapping: &IntervalMapping) -> f64 {
        (0..mapping.n_intervals())
            .map(|j| self.cycle_time(mapping, j))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `T_latency` of the mapping (eq. 2).
    pub fn latency(&self, mapping: &IntervalMapping) -> f64 {
        let m = mapping.n_intervals();
        let mut total = 0.0;
        for (j, (iv, u)) in mapping.assignments().enumerate() {
            let pred = (j > 0).then(|| mapping.proc_of(j - 1));
            let succ = (j + 1 < m).then(|| mapping.proc_of(j + 1));
            let c = self.interval_cost(iv, u, pred, succ);
            total += c.latency_term();
            if j + 1 == m {
                total += c.t_out; // final δ_n / b transfer
            }
        }
        total
    }

    /// Both metrics in one pass.
    pub fn evaluate(&self, mapping: &IntervalMapping) -> (f64, f64) {
        (self.period(mapping), self.latency(mapping))
    }

    /// The minimum achievable latency (Lemma 1): whole pipeline on the
    /// fastest processor.
    pub fn optimal_latency(&self) -> f64 {
        self.latency(&IntervalMapping::all_on_fastest(self.app, self.platform))
    }

    /// Period of the Lemma-1 mapping — the period from which every
    /// splitting heuristic starts.
    pub fn single_proc_period(&self) -> f64 {
        self.period(&IntervalMapping::all_on_fastest(self.app, self.platform))
    }

    /// A simple lower bound on the achievable period, used to bound sweeps
    /// and binary searches:
    /// `max( max_k (w_k/s_max), max transfer pair, bottleneck stage cycle )`.
    ///
    /// * any stage runs somewhere, taking at least `w_k / s_max`;
    /// * the heaviest single stage `k`, wherever it runs, pays its own
    ///   input and output transfers unless merged with neighbours, in
    ///   which case the merged interval is at least as expensive — a safe
    ///   bound is `min_over_merges` which we conservatively relax to
    ///   `w_k / s_max`;
    /// * the interval containing stage 1 pays `δ_0/b`, the one containing
    ///   stage `n` pays `δ_n/b`.
    pub fn period_lower_bound(&self) -> f64 {
        let app = self.app;
        let pf = self.platform;
        let s_max = pf.max_speed();
        // Fastest possible handling of the heaviest stage.
        let comp = app
            .works()
            .iter()
            .map(|w| w / s_max)
            .fold(0.0_f64, f64::max);
        // Whatever the mapping, δ_0 enters the platform and δ_n leaves it.
        // Under comm-homogeneous links these take δ/b; on heterogeneous
        // platforms, use the best I/O bandwidth available.
        let b_io: f64 = (0..pf.n_procs())
            .map(|u| pf.io_bandwidth_of(u))
            .fold(f64::NEG_INFINITY, f64::max);
        let first = app.delta(0) / b_io + app.work(0) / s_max;
        let last = app.delta(app.n_stages()) / b_io + app.work(app.n_stages() - 1) / s_max;
        comp.max(first).max(last)
    }
}

/// Checks that every time the cost model can derive from the instance is
/// finite. Validation admits any finite positive number, but derived
/// times can still overflow (`1e308 / 1e-308`), and an infinite or NaN
/// cost would reach the solvers. One bound covers them all:
/// `Σw / s_min + Σδ / b_min` is at least every `w/s`, every `δ/b`, every
/// prefix sum of works and the whole-pipeline latency on any mapping, so
/// it being finite makes each of those finite. O(n + p) on Communication
/// Homogeneous platforms (O(n + p²) with a bandwidth matrix, the size of
/// the input).
///
/// # Errors
///
/// [`ModelError::InvalidNumber`] carrying the infinite bound.
///
/// [`ModelError::InvalidNumber`]: crate::ModelError::InvalidNumber
pub fn check_scale(app: &Application, platform: &Platform) -> crate::Result<()> {
    let min_bandwidth = match platform.links() {
        LinkModel::Homogeneous(b) => *b,
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => matrix
            .iter()
            .enumerate()
            .flat_map(|(u, row)| {
                row.iter()
                    .enumerate()
                    .filter(move |&(v, _)| v != u)
                    .map(|(_, &b)| b)
            })
            .fold(*io_bandwidth, f64::min),
    };
    let total_volume: f64 = app.deltas().iter().sum();
    let bound = app.total_work() / platform.min_speed() + total_volume / min_bandwidth;
    if bound.is_finite() {
        Ok(())
    } else {
        Err(crate::ModelError::InvalidNumber {
            what: "time scale (total work / slowest speed + total volume / slowest link)",
            value: bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{approx_eq, approx_eq_rel};

    /// Hand-computed example: 3 stages, w = [4, 8, 2], δ = [2, 6, 4, 10],
    /// speeds = [2, 4], b = 2.
    fn setup() -> (Application, Platform) {
        let app = Application::new(vec![4.0, 8.0, 2.0], vec![2.0, 6.0, 4.0, 10.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 2.0).unwrap();
        (app, pf)
    }

    #[test]
    fn single_interval_costs() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::all_on_fastest(&app, &pf);
        // Everything on P1 (speed 4): period = 2/2 + 14/4 + 10/2 = 9.5
        assert!(approx_eq(cm.period(&m), 9.5));
        // latency = 2/2 + 14/4 + 10/2 = 9.5 as well (one interval).
        assert!(approx_eq(cm.latency(&m), 9.5));
        assert!(approx_eq(cm.optimal_latency(), 9.5));
        assert!(approx_eq(cm.single_proc_period(), 9.5));
    }

    #[test]
    fn two_interval_costs_match_hand_computation() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 2), Interval::new(2, 3)],
            vec![1, 0],
        )
        .unwrap();
        // Interval 1 = stages {1,2} on P1 (speed 4):
        //   t_in = δ0/b = 1, t_comp = 12/4 = 3, t_out = δ2/b = 2 → cycle 6.
        // Interval 2 = stage {3} on P0 (speed 2):
        //   t_in = δ2/b = 2, t_comp = 2/2 = 1, t_out = δ3/b = 5 → cycle 8.
        assert!(approx_eq(cm.cycle_time(&m, 0), 6.0));
        assert!(approx_eq(cm.cycle_time(&m, 1), 8.0));
        assert!(approx_eq(cm.period(&m), 8.0));
        // latency = (1 + 3) + (2 + 1) + δ3/b = 4 + 3 + 5 = 12.
        assert!(approx_eq(cm.latency(&m), 12.0));
        let (p, l) = cm.evaluate(&m);
        assert!(approx_eq(p, 8.0) && approx_eq(l, 12.0));
    }

    #[test]
    fn latency_of_one_interval_equals_its_cycle_time() {
        // With a single interval, eq. 2 degenerates to eq. 1.
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::all_on_fastest(&app, &pf);
        assert!(approx_eq(cm.period(&m), cm.latency(&m)));
    }

    #[test]
    fn splitting_never_reduces_latency_on_comm_homogeneous() {
        // Lemma 1: latency of any mapping ≥ optimal latency.
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        for cut in 1..3 {
            for (a, b) in [(0, 1), (1, 0)] {
                let m = IntervalMapping::new(
                    &app,
                    &pf,
                    vec![Interval::new(0, cut), Interval::new(cut, 3)],
                    vec![a, b],
                )
                .unwrap();
                assert!(
                    cm.latency(&m) >= cm.optimal_latency() - 1e-12,
                    "mapping {m} beats the Lemma-1 latency"
                );
            }
        }
    }

    #[test]
    fn period_lower_bound_is_a_lower_bound() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let lb = cm.period_lower_bound();
        // Exhaustive over all 4 partitions × assignments of this tiny case.
        let mut best = f64::INFINITY;
        for cut1 in 1..=3usize {
            for cut2 in cut1..=3usize {
                let mut ivs = vec![];
                let mut bounds = vec![0, cut1, cut2, 3];
                bounds.dedup();
                for w in bounds.windows(2) {
                    ivs.push(Interval::new(w[0], w[1]));
                }
                let m_ivs = ivs.len();
                if m_ivs > 2 {
                    continue;
                }
                let assignments: Vec<Vec<usize>> = if m_ivs == 1 {
                    vec![vec![0], vec![1]]
                } else {
                    vec![vec![0, 1], vec![1, 0]]
                };
                for procs in assignments {
                    let m = IntervalMapping::new(&app, &pf, ivs.clone(), procs).unwrap();
                    best = best.min(cm.period(&m));
                }
            }
        }
        assert!(
            lb <= best + 1e-12,
            "lower bound {lb} exceeds optimum {best}"
        );
    }

    #[test]
    fn heterogeneous_links_change_transfer_costs() {
        let app = Application::new(vec![4.0, 4.0], vec![8.0, 8.0, 8.0]).unwrap();
        // Link 0→1 has bandwidth 1 (slow), 1→0 bandwidth 4; I/O bandwidth 8.
        let pf = Platform::fully_heterogeneous(
            vec![2.0, 2.0],
            vec![vec![1.0, 1.0], vec![4.0, 1.0]],
            8.0,
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        let m01 = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 1), Interval::new(1, 2)],
            vec![0, 1],
        )
        .unwrap();
        // Interval 1 on P0: t_in = 8/8 = 1, t_comp = 2, t_out = 8/b_{0,1} = 8.
        assert!(approx_eq_rel(cm.cycle_time(&m01, 0), 11.0));
        // Interval 2 on P1: t_in = 8, t_comp = 2, t_out = 8/8 = 1.
        assert!(approx_eq_rel(cm.cycle_time(&m01, 1), 11.0));
        let m10 = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 1), Interval::new(1, 2)],
            vec![1, 0],
        )
        .unwrap();
        // Reversed allocation uses the fast 1→0 link: t_out = 8/4 = 2.
        assert!(approx_eq_rel(cm.cycle_time(&m10, 0), 1.0 + 2.0 + 2.0));
        assert!(cm.period(&m10) < cm.period(&m01));
    }

    #[test]
    fn zero_communication_reduces_to_pure_partitioning() {
        // With δ ≡ 0 the period is exactly the Hetero-1D-Partition
        // objective (Theorem 2's reduction).
        let app = Application::new(vec![3.0, 5.0, 2.0], vec![0.0; 4]).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 2), Interval::new(2, 3)],
            vec![1, 0],
        )
        .unwrap();
        assert!(approx_eq(cm.period(&m), 8.0 / 2.0)); // max(8/2, 2/1)
        assert!(approx_eq(cm.latency(&m), 8.0 / 2.0 + 2.0));
    }
}
