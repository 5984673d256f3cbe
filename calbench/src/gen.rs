//! Seed-determined inputs: instance corpora and operation lists.
//!
//! Everything here is a pure function of the seed (and, for bounds, of
//! numbers read from the instance), so the same seed replays the same
//! requests. Requests are built one at a time as the client sends them,
//! so the client's footprint does not grow with the run length. Request
//! lines are spelled by the benchmark itself, not by the program's wire
//! formatter, so a change to the program cannot change its inputs.

use pipeline_core::HeuristicKind;
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_model::{Application, CostModel, Platform};

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `stream` under `seed`,
    /// decorrelated from every other (seed, stream, index).
    pub fn at(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const STREAM_COLD_ORDER: u64 = 1;
const STREAM_COLD_BOUND: u64 = 2;
const STREAM_WARM: u64 = 3;
const STREAM_CHAOS: u64 = 4;

// ---------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------

/// `(n, p)` classes of the serve-cold corpus. Exact-route instances stay
/// at n ≤ 16, p = 8: at n = 18, p = 16 one `auto` solve can take seconds,
/// which would put the p99 on a handful of outliers.
pub const COLD_SIZES: [(usize, usize); 4] = [(12, 8), (16, 8), (60, 30), (120, 60)];

/// LRU capacity of the serve-cold server. The corpus is twice as large
/// and cycled, so every request misses.
pub const COLD_CACHE_CAPACITY: usize = 720;

/// Instance files in the serve-cold corpus.
pub const COLD_CORPUS: usize = 2 * COLD_CACHE_CAPACITY;

/// Where corpus file `k` comes from: family, size class and index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdFile {
    pub family: ScenarioFamily,
    pub n: usize,
    pub p: usize,
    pub index: u64,
}

/// Corpus file `k`: the families cycle fastest, then the size classes,
/// so every (family, size) class holds the same number of files.
pub fn cold_file(k: usize) -> ColdFile {
    let families = ScenarioFamily::ALL.len();
    let (n, p) = COLD_SIZES[(k / families) % COLD_SIZES.len()];
    ColdFile {
        family: ScenarioFamily::ALL[k % families],
        n,
        p,
        index: (k / (families * COLD_SIZES.len())) as u64,
    }
}

impl ColdFile {
    /// The instance under `seed`.
    pub fn instance(&self, seed: u64) -> (Application, Platform) {
        ScenarioGenerator::new(self.family.params(self.n, self.p)).instance(seed, self.index)
    }

    /// Request class label: family and size.
    pub fn class(&self) -> String {
        format!("{}/n{}", self.family.label(), self.n)
    }
}

/// The period bound of serve-cold request `i`, if it is a
/// `min-latency-for-period` one: a seeded point between `floor` (a
/// period some solver on every `auto` route is known to reach) and the
/// single-processor period `p0`. Drawn per request, not per file, so
/// the costly exact-route requests that set the p99 are all distinct.
pub fn cold_bound(seed: u64, i: usize, p0: f64, floor: f64) -> f64 {
    let u = 0.2 + 0.6 * Rng::at(seed, STREAM_COLD_BOUND, i as u64).unit();
    floor + u * (p0 - floor)
}

/// The single-processor period and the floor `cold_bound` starts from:
/// H1 (H7 on heterogeneous links) run to its lowest period. Every `auto`
/// route reaches a period at or below it: the exact solver is optimal,
/// and best-of-all includes that heuristic.
pub fn cold_floor(app: &Application, platform: &Platform) -> (f64, f64) {
    let cm = CostModel::new(app, platform);
    let p0 = cm.single_proc_period();
    let probe = if platform.is_comm_homogeneous() {
        HeuristicKind::SpMonoP
    } else {
        HeuristicKind::HeteroSplit
    };
    (p0, probe.run(&cm, 0.0).period.min(p0))
}

/// Seeded visiting order of the corpus: a permutation of
/// `0..COLD_CORPUS`, cycled by the request list.
pub fn cold_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..COLD_CORPUS).collect();
    let mut rng = Rng::at(seed, STREAM_COLD_ORDER, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// What serve-cold request `i` asks: the corpus file, and whether the
/// objective is the bounded one. Objectives alternate per visit, so
/// each file is asked both ways across passes.
pub fn cold_op(order: &[usize], i: usize) -> (usize, bool) {
    let k = order[i % order.len()];
    let bounded = (i / order.len() + k) % 2 == 1;
    (k, bounded)
}

/// Request line `i` (id `i + 1`) of serve-cold.
pub fn cold_request(i: usize, path: &str, bound: Option<f64>) -> String {
    match bound {
        None => format!(
            "solve id={} objective=min-period strategy=auto instance={path}",
            i + 1
        ),
        Some(b) => format!(
            "solve id={} objective=min-latency-for-period bound={b} strategy=auto instance={path}",
            i + 1
        ),
    }
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

/// Size of the nine serve-warm instances.
pub const WARM_SIZE: (usize, usize) = (60, 30);

/// The serve-warm instance of `family` under `seed`.
pub fn warm_instance(family: ScenarioFamily, seed: u64) -> (Application, Platform) {
    ScenarioGenerator::new(family.params(WARM_SIZE.0, WARM_SIZE.1)).instance(seed, 0)
}

/// Strategies asked of a serve-warm instance: the memoized period-fixed
/// trajectories of its platform class.
pub fn warm_strategies(comm_homogeneous: bool) -> &'static [&'static str] {
    if comm_homogeneous {
        &["h1", "h2", "h3"]
    } else {
        &["h7"]
    }
}

/// One serve-warm instance as the request generator sees it.
#[derive(Debug, Clone)]
pub struct WarmTarget {
    pub path: String,
    pub p0: f64,
    /// `(strategy, floor period)` per memoized trajectory.
    pub floors: Vec<(&'static str, f64)>,
}

/// Request line `i` (id `i + 1`) of serve-warm: a seeded instance,
/// strategy and bound between that trajectory's floor and `p0`.
pub fn warm_request(seed: u64, targets: &[WarmTarget], i: usize) -> String {
    let mut rng = Rng::at(seed, STREAM_WARM, i as u64);
    let t = &targets[rng.below(targets.len())];
    let (strategy, floor) = t.floors[rng.below(t.floors.len())];
    let bound = floor + rng.unit() * (t.p0 - floor);
    format!(
        "solve id={} objective=min-latency-for-period bound={bound} strategy={strategy} instance={}",
        i + 1,
        t.path
    )
}

// ---------------------------------------------------------------------
// chaos-grid
// ---------------------------------------------------------------------

/// Families a chaos call can cover: H1 and H4 do not apply to the two
/// families with heterogeneous links, so a call on those does no work.
pub fn chaos_families() -> Vec<ScenarioFamily> {
    ScenarioFamily::ALL
        .into_iter()
        .filter(|f| f.comm_homogeneous())
        .collect()
}

/// Family and study seed of chaos call `i`: families cycle, seeds are
/// drawn per call.
pub fn chaos_call(seed: u64, families: &[ScenarioFamily], i: usize) -> (ScenarioFamily, u64) {
    let family = families[i % families.len()];
    (
        family,
        Rng::at(seed, STREAM_CHAOS, i as u64).next_u64() >> 16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_targets() -> Vec<WarmTarget> {
        vec![
            WarmTarget {
                path: "a.pw".into(),
                p0: 10.0,
                floors: vec![("h1", 2.0), ("h2", 3.0), ("h3", 2.5)],
            },
            WarmTarget {
                path: "b.pw".into(),
                p0: 7.0,
                floors: vec![("h7", 4.0)],
            },
        ]
    }

    fn cold_list(seed: u64) -> Vec<String> {
        let order = cold_order(seed);
        (0..2 * COLD_CORPUS + 7)
            .map(|i| {
                let (k, bounded) = cold_op(&order, i);
                let bound = bounded.then(|| cold_bound(seed, i, 10.0, 4.0));
                cold_request(i, &format!("f{k}.pw"), bound)
            })
            .collect()
    }

    #[test]
    fn request_lists_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(cold_list(7), cold_list(7));
        assert_ne!(cold_list(7), cold_list(8));
        let warm = |seed| -> Vec<String> {
            (0..500)
                .map(|i| warm_request(seed, &warm_targets(), i))
                .collect()
        };
        assert_eq!(warm(7), warm(7));
        assert_ne!(warm(7), warm(8));
        let fams = chaos_families();
        let chaos = |seed| -> Vec<(ScenarioFamily, u64)> {
            (0..50).map(|i| chaos_call(seed, &fams, i)).collect()
        };
        assert_eq!(chaos(7), chaos(7));
        assert_ne!(chaos(7), chaos(8));
    }

    #[test]
    fn cold_cycle_visits_every_file_once_per_pass_in_both_objectives() {
        let order = cold_order(3);
        let mut seen = vec![[0usize; 2]; COLD_CORPUS];
        for i in 0..2 * COLD_CORPUS {
            let (k, bounded) = cold_op(&order, i);
            seen[k][bounded as usize] += 1;
        }
        assert!(seen.iter().all(|s| *s == [1, 1]));
    }

    #[test]
    fn cold_corpus_classes_are_balanced() {
        let per_class = COLD_CORPUS / (ScenarioFamily::ALL.len() * COLD_SIZES.len());
        let mut counts = std::collections::BTreeMap::new();
        for k in 0..COLD_CORPUS {
            *counts.entry(cold_file(k).class()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), ScenarioFamily::ALL.len() * COLD_SIZES.len());
        assert!(counts.values().all(|&c| c == per_class));
    }

    #[test]
    fn bounds_stay_between_floor_and_single_processor_period() {
        for i in 0..100 {
            let b = cold_bound(5, i, 10.0, 4.0);
            assert!((5.2..=8.8).contains(&b), "{b}");
        }
        for i in 0..200 {
            let line = warm_request(5, &warm_targets(), i);
            let bound: f64 = line
                .split_whitespace()
                .find_map(|t| t.strip_prefix("bound="))
                .unwrap()
                .parse()
                .unwrap();
            assert!((2.0..=10.0).contains(&bound), "{line}");
        }
    }
}
