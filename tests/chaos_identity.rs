//! Bit-identity suite for the chaos study.
//!
//! The fixture `tests/fixtures/chaos_identity.ref` freezes
//! [`chaos_fingerprint`] values — an FNV hash over every result bit of a
//! study — per (case, family). It was generated before the study began
//! memoizing incumbent-independent work (one re-solve per detected fault
//! and one set of fault-plan runs per distinct mapping within a job), so
//! any memo that changes a single bit shows up here. Run with
//! `CHAOS_IDENTITY_REGEN=1` to regenerate — only after a *deliberate*
//! semantic change, recorded in CHANGES.md.
//!
//! The cases cover every scenario family at small sizes, plus the
//! benchmark's n = 24, p = 12 shape on every comm-homogeneous family.
//! The heuristic lists exercise both memo hits: {H1, H4} share a mapping
//! on many instances (all of them on the adversarial family), and a
//! duplicated list such as {H1, H1} shares every mapping.

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::experiments::chaos::{
    chaos_fingerprint, chaos_study, ChaosParams, ChaosPlanKind,
};
use pipeline_workflows::model::scenario::ScenarioFamily;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/chaos_identity.ref"
);

use HeuristicKind::{HeteroSplit, SpBiL, SpBiP, SpMonoL, SpMonoP, ThreeExploMono};

/// Named heuristic lists.
fn heuristic_lists() -> Vec<(&'static str, Vec<HeuristicKind>)> {
    vec![
        ("h1-h4", vec![SpMonoP, SpBiP]),
        ("h1-h1", vec![SpMonoP, SpMonoP]),
        (
            "mixed",
            vec![ThreeExploMono, SpMonoP, SpBiP, SpMonoL, SpBiL],
        ),
        ("h7-h7", vec![HeteroSplit, HeteroSplit]),
    ]
}

/// Every study the fixture freezes, labelled.
fn cases() -> Vec<(String, ChaosParams)> {
    let mut cases = Vec::new();
    for (list, heuristics) in heuristic_lists() {
        for (n, p) in [(8, 6), (12, 8)] {
            for seed in [3, 42] {
                cases.push((
                    format!("{list}-n{n}p{p}-s{seed}"),
                    ChaosParams {
                        families: ScenarioFamily::ALL.to_vec(),
                        heuristics: heuristics.clone(),
                        plans: ChaosPlanKind::ALL.to_vec(),
                        n_stages: n,
                        n_procs: p,
                        n_instances: 3,
                        n_datasets: 30,
                        seed,
                        target_factor: 0.6,
                        threads: 2,
                    },
                ));
            }
        }
    }
    // The benchmark's chaos-grid shape, one case per heuristic list that
    // the comm-homogeneous families can run.
    for (list, heuristics) in &heuristic_lists()[..2] {
        cases.push((
            format!("{list}-n24p12-s3"),
            ChaosParams {
                families: ScenarioFamily::ALL
                    .into_iter()
                    .filter(|f| f.comm_homogeneous())
                    .collect(),
                heuristics: heuristics.clone(),
                plans: ChaosPlanKind::ALL.to_vec(),
                n_stages: 24,
                n_procs: 12,
                n_instances: 4,
                n_datasets: 60,
                seed: 3,
                target_factor: 0.6,
                threads: 2,
            },
        ));
    }
    cases.push(("default".to_string(), ChaosParams::default()));
    cases
}

/// One `<case> <family> <fingerprint>` line per (case, family), in
/// deterministic order.
fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (label, params) in cases() {
        let rows = chaos_study(&params);
        let per_family = params.heuristics.len() * params.plans.len();
        assert_eq!(rows.len(), params.families.len() * per_family);
        for (family, chunk) in params.families.iter().zip(rows.chunks(per_family)) {
            lines.push(format!(
                "{label} {} {:016x}",
                family.label(),
                chaos_fingerprint(chunk)
            ));
        }
    }
    lines
}

#[test]
fn chaos_study_matches_frozen_reference() {
    let lines = current_lines();
    // An empty value (`CHAOS_IDENTITY_REGEN=`) checks, it does not regenerate.
    if std::env::var_os("CHAOS_IDENTITY_REGEN").is_some_and(|v| !v.is_empty()) {
        std::fs::write(FIXTURE, lines.join("\n") + "\n").expect("fixture writable");
        eprintln!("regenerated {} lines into {FIXTURE}", lines.len());
        return;
    }
    let frozen = std::fs::read_to_string(FIXTURE).expect(
        "missing tests/fixtures/chaos_identity.ref — regenerate with \
         CHAOS_IDENTITY_REGEN=1 cargo test --test chaos_identity",
    );
    let frozen: Vec<&str> = frozen.lines().collect();
    assert_eq!(
        frozen.len(),
        lines.len(),
        "frozen reference has {} lines, the study produced {}",
        frozen.len(),
        lines.len()
    );
    let drifted: Vec<_> = lines
        .iter()
        .zip(&frozen)
        .filter(|(got, want)| got != want)
        .collect();
    for (got, want) in drifted.iter().take(10) {
        eprintln!("chaos drift:\n  frozen:  {want}\n  current: {got}");
    }
    assert!(
        drifted.is_empty(),
        "{} lines drifted from the frozen chaos study",
        drifted.len()
    );
}
