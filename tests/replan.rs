//! Property tests for the fault re-planner (`pipeline_core::replan`):
//! re-planning after a detected fault never yields a worse period than
//! keeping the incumbent mapping on the degraded platform. The property
//! is structural — `replan` adopts `min(ride-out, re-solve)` — so these
//! tests pin it against the full pipeline (delta application, warm
//! start, solver) on randomized instances and faults.

use proptest::prelude::*;

use pipeline_workflows::core::replan::{
    replan, resolve_fault, DetectedFault, ReplanError, ReplanReport,
};
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::{Objective, SolveWorkspace, Strategy};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::{Application, IntervalMapping, Platform};

fn instance_for(family_idx: usize, seed: u64) -> PreparedInstance {
    let family = ScenarioFamily::ALL[family_idx];
    let gen = ScenarioGenerator::new(family.params(7, 5));
    let (app, pf) = gen.instance(seed, 0);
    PreparedInstance::new(app, pf)
}

fn min_period() -> SolveRequest {
    SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll)
}

/// Field-by-field equality of two reports, floats as raw bits.
fn same_report(a: &ReplanReport, b: &ReplanReport) -> bool {
    a.delta == b.delta
        && a.period_nominal.to_bits() == b.period_nominal.to_bits()
        && a.period_before.to_bits() == b.period_before.to_bits()
        && a.resolved_period.to_bits() == b.resolved_period.to_bits()
        && a.period_after.to_bits() == b.period_after.to_bits()
        && a.adopted == b.adopted
        && a.mapping == b.mapping
        && a.migration_distance == b.migration_distance
}

/// `replan` must be exactly `resolve_fault` then `adopt`: the same
/// report bits and the same degraded instance, for every incumbent that
/// adopts against one shared resolved fault. Each incumbent is also
/// re-planned with its own fresh workspace, so the shared resolve is
/// compared against fully independent calls.
fn check_split(prepared: &PreparedInstance, incumbents: &[IntervalMapping], fault: DetectedFault) {
    let request = min_period();
    let mut ws = SolveWorkspace::new();
    let resolved = resolve_fault(prepared, &fault, &request, &mut ws).unwrap();
    for incumbent in incumbents {
        let shared = resolved.adopt(prepared, incumbent);
        let (next, own) = replan(
            prepared,
            incumbent,
            &fault,
            &request,
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(
            same_report(&shared, &own),
            "{fault:?}: {shared:?} != {own:?}"
        );
        assert_eq!(next.app(), resolved.degraded().app());
        assert_eq!(next.platform(), resolved.degraded().platform());
    }
}

#[test]
fn replan_is_resolve_then_adopt_for_both_fault_kinds() {
    let request = min_period();
    let mut ws = SolveWorkspace::new();
    let mut distinct = 0;
    for family_idx in 0..ScenarioFamily::ALL.len() {
        for seed in 0..4 {
            let prepared = instance_for(family_idx, seed);
            let best = prepared.solve_in(&request, &mut ws).unwrap().result.mapping;
            let single = IntervalMapping::all_on_fastest(prepared.app(), prepared.platform());
            distinct += usize::from(best != single);
            let incumbents = [best, single];
            for proc in 0..prepared.platform().n_procs() {
                check_split(
                    &prepared,
                    &incumbents,
                    DetectedFault::SpeedDrift { proc, factor: 0.3 },
                );
                check_split(
                    &prepared,
                    &incumbents,
                    DetectedFault::ProcessorLoss { proc },
                );
            }
        }
    }
    assert!(
        distinct > 0,
        "no case shared one resolve between two incumbents"
    );
}

#[test]
fn resolve_and_replan_fail_alike() {
    let request = min_period();
    let prepared = instance_for(0, 1);
    let incumbent = IntervalMapping::all_on_fastest(prepared.app(), prepared.platform());
    let app = Application::new(vec![3.0, 5.0], vec![1.0, 2.0, 1.0]).unwrap();
    let lone = PreparedInstance::new(app, Platform::comm_homogeneous(vec![2.0], 4.0).unwrap());
    let lone_incumbent = IntervalMapping::all_on_fastest(lone.app(), lone.platform());
    let cases = [
        (
            &prepared,
            &incumbent,
            DetectedFault::SpeedDrift {
                proc: 0,
                factor: 0.0,
            },
        ),
        (
            &prepared,
            &incumbent,
            DetectedFault::SpeedDrift {
                proc: 0,
                factor: 1.5,
            },
        ),
        (
            &prepared,
            &incumbent,
            DetectedFault::SpeedDrift {
                proc: 0,
                factor: f64::NAN,
            },
        ),
        (
            &prepared,
            &incumbent,
            DetectedFault::SpeedDrift {
                proc: 99,
                factor: 0.5,
            },
        ),
        (
            &prepared,
            &incumbent,
            DetectedFault::ProcessorLoss { proc: 99 },
        ),
        (
            &lone,
            &lone_incumbent,
            DetectedFault::ProcessorLoss { proc: 0 },
        ),
    ];
    for (prev, incumbent, fault) in cases {
        let mut ws = SolveWorkspace::new();
        let split = resolve_fault(prev, &fault, &request, &mut ws).unwrap_err();
        let whole = replan(prev, incumbent, &fault, &request, &mut ws).unwrap_err();
        assert_eq!(format!("{split:?}"), format!("{whole:?}"), "{fault:?}");
        let expect_delta = matches!(fault, DetectedFault::ProcessorLoss { proc: 0 });
        if expect_delta {
            assert!(matches!(split, ReplanError::Delta(_)), "{split:?}");
        } else {
            assert!(matches!(split, ReplanError::InvalidFault(_)), "{split:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Speed drift: the adopted plan's period on the degraded platform
    /// is never worse than the incumbent's period there, for any victim
    /// and any drift severity.
    #[test]
    fn replan_after_speed_drift_never_trails_riding_it_out(
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        seed in 0u64..500,
        victim_pick in 0usize..5,
        factor in 0.05f64..1.0,
    ) {
        let prepared = instance_for(family_idx, seed);
        let victim = victim_pick % prepared.platform().n_procs();
        let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
        let mut ws = SolveWorkspace::new();
        let incumbent = prepared.solve_in(&request, &mut ws).unwrap().result;
        let fault = DetectedFault::SpeedDrift { proc: victim, factor };
        let (_, rep) = replan(&prepared, &incumbent.mapping, &fault, &request, &mut ws).unwrap();
        prop_assert!(
            rep.period_after <= rep.period_before,
            "adopted {} > ride-out {}",
            rep.period_after,
            rep.period_before
        );
        prop_assert!(rep.period_after.is_finite() && rep.period_after > 0.0);
        // Ride-out cost of a drift is always finite (the mapping stays
        // feasible), and an unadopted re-solve means migration 0.
        prop_assert!(rep.period_before.is_finite());
        if !rep.adopted {
            prop_assert_eq!(rep.migration_distance, 0);
        }
    }

    /// Processor loss: same property, with the extra twist that the
    /// incumbent may be infeasible on the degraded platform (it
    /// enrolled the lost processor — ride-out cost infinite), in which
    /// case the re-solve must be adopted and must avoid the dead
    /// processor entirely.
    #[test]
    fn replan_after_processor_loss_never_trails_riding_it_out(
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        seed in 0u64..500,
        victim_pick in 0usize..5,
    ) {
        let prepared = instance_for(family_idx, seed);
        let victim = victim_pick % prepared.platform().n_procs();
        let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
        let mut ws = SolveWorkspace::new();
        let incumbent = prepared.solve_in(&request, &mut ws).unwrap().result;
        let fault = DetectedFault::ProcessorLoss { proc: victim };
        let (next, rep) = replan(&prepared, &incumbent.mapping, &fault, &request, &mut ws).unwrap();
        prop_assert!(rep.period_after <= rep.period_before);
        prop_assert!(rep.period_after.is_finite() && rep.period_after > 0.0);
        if rep.period_before.is_infinite() {
            // Incumbent enrolled the victim: the re-solve is the only
            // feasible plan.
            prop_assert!(rep.adopted);
        }
        // The adopted mapping lives on the degraded platform: one fewer
        // processor, and every enrolled id is in range.
        prop_assert_eq!(next.platform().n_procs(), prepared.platform().n_procs() - 1);
        for &u in rep.mapping.procs() {
            prop_assert!(u < next.platform().n_procs());
        }
    }
}
