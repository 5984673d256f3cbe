//! The `chaos-grid` workload: closed-loop calls to
//! `experiments::chaos::chaos_study` on the shard engine.

use crate::calib::{process_cpu_ns, Calibrator, Reference};
use crate::closed_loop::{self, OpOutcome};
use crate::gen;
use crate::trace::{GroupTrace, Recorder};
use crate::E2eRun;
use pipeline_core::{
    replan, DetectedFault, HeuristicKind, Objective, PreparedInstance, SolveRequest,
    SolveWorkspace, Strategy,
};
use pipeline_experiments::chaos::{chaos_fingerprint, chaos_study, ChaosParams, ChaosPlanKind};
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_model::{CostModel, ProcId};
use pipeline_sim::{FaultedSim, PipelineSim, SimConfig};
use std::time::Instant;

/// Warm-up calls per family in each set-up.
const SETUP_CALLS_PER_FAMILY: usize = 3;
/// Calls per calibrated segment (about 0.1 s).
const SEG_OPS: usize = 32;
/// Calls per second of `--seconds`, at nominal host speed.
const OPS_PER_S: usize = 400;
/// Shard threads per call (the host has 2 cores).
const THREADS: usize = 2;
const N_STAGES: usize = 24;
const N_PROCS: usize = 12;
const N_INSTANCES: usize = 4;
const N_DATASETS: usize = 60;
const HEURISTICS: [HeuristicKind; 2] = [HeuristicKind::SpMonoP, HeuristicKind::SpBiP];

fn params(family: ScenarioFamily, seed: u64, threads: usize) -> ChaosParams {
    ChaosParams {
        families: vec![family],
        heuristics: HEURISTICS.to_vec(),
        plans: ChaosPlanKind::ALL.to_vec(),
        n_stages: N_STAGES,
        n_procs: N_PROCS,
        n_instances: N_INSTANCES,
        n_datasets: N_DATASETS,
        seed,
        threads,
        ..ChaosParams::default()
    }
}

/// One call's fingerprint at `threads`, and its wall-clock seconds.
fn call(family: ScenarioFamily, seed: u64, threads: usize) -> (f64, u64) {
    let start = Instant::now();
    let rows = chaos_study(&params(family, seed, threads));
    let secs = start.elapsed().as_secs_f64();
    (secs, chaos_fingerprint(&rows))
}

pub fn run(seed: u64, seconds: u64) -> Result<E2eRun, String> {
    let families = gen::chaos_families();
    let mut cal = Calibrator::start(Reference::Compute)?;
    // Set-up is the warm-up: calls on every family spawn the shard
    // workers and grow every allocation the timed calls reuse.
    let ((), setup_reps) = closed_loop::timed_setups(
        crate::SETUP_REPS,
        &mut cal,
        || {
            for i in 0..SETUP_CALLS_PER_FAMILY * families.len() {
                let (family, s) = gen::chaos_call(seed, &families, i);
                std::hint::black_box(call(family, s, THREADS));
            }
            Ok(())
        },
        |()| {},
    )?;
    let n = (OPS_PER_S * seconds as usize).max(crate::MIN_OPS);
    let cpu_before = process_cpu_ns();
    let ref_cpu_before = cal.cpu_ns;
    let timeline = closed_loop::drive(&mut [()], n, SEG_OPS, &mut cal, |(), i| {
        let (family, s) = gen::chaos_call(seed, &families, i);
        let (latency_s, digest) = call(family, s, THREADS);
        OpOutcome {
            latency_s,
            failure: None,
            digest,
        }
    });
    let cpu_ns = (process_cpu_ns() - cpu_before) - (cal.cpu_ns - ref_cpu_before);
    let peak_rss_mb = closed_loop::peak_rss_mb()?;

    let mut mismatches = Vec::new();
    for (i, op) in timeline.ops.iter().enumerate() {
        let (family, s) = gen::chaos_call(seed, &families, i);
        let (_, single) = call(family, s, 1);
        if single != op.digest {
            mismatches.push(format!(
                "call {i} ({family}, seed {s}): fingerprint {:016x} at {THREADS} threads, {single:016x} at 1",
                op.digest
            ));
        }
    }
    let notes = vec![format!(
        "chaos_fingerprint at {THREADS} threads checked against 1 thread on all {n} calls"
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

/// The fault the re-planner is told about for a plan, as the study
/// derives it.
fn detected_fault(plan: ChaosPlanKind, victim: ProcId) -> Option<DetectedFault> {
    match plan {
        ChaosPlanKind::SpeedDip => Some(DetectedFault::SpeedDrift {
            proc: victim,
            factor: 0.5,
        }),
        ChaosPlanKind::FailStop => Some(DetectedFault::ProcessorLoss { proc: victim }),
        ChaosPlanKind::Jitter | ChaosPlanKind::Burst => None,
    }
}

/// The study's per-job plan-seed salt for family index 0, instance `i`.
fn job_salt(i: usize) -> u64 {
    let mut z = i as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The chaos layers. Untraced: each call at 1 and at 2 threads (their
/// fingerprints must agree; their times give `shard.efficiency`).
/// Traced: each call's jobs replayed on one thread through the public
/// functions the study calls, then the clean simulator and the delta
/// application as probes.
pub fn trace(seed: u64, n: usize, rec: &mut Recorder) -> GroupTrace {
    let families = gen::chaos_families();
    let mut g = GroupTrace::new("chaos-grid", n);
    let mut ws = SolveWorkspace::new();
    let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
    let mut migrations = Vec::new();
    let (mut t1, mut t2) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut cpu_ns = 0;
    for i in 0..n {
        let (family, s) = gen::chaos_call(seed, &families, i);
        // Untraced first, so every pass over the call sees the host at
        // the same speed.
        let cpu = process_cpu_ns();
        let (secs, fp1) = call(family, s, 1);
        cpu_ns += process_cpu_ns() - cpu;
        g.untraced_us.push(secs * 1e6);
        t1.push(secs);
        let (secs, fp2) = call(family, s, THREADS);
        t2.push(secs);
        if fp1 != fp2 {
            g.mismatch(format!(
                "call {i}: fingerprint {fp2:016x} at {THREADS} threads, {fp1:016x} at 1"
            ));
        }
        let p = params(family, s, 1);
        let jobs = ScenarioGenerator::new(family.params(N_STAGES, N_PROCS)).batch(s, N_INSTANCES);
        let mut probes = Vec::new();
        let op = rec.begin_op();
        for (j, (app, pf)) in jobs.iter().enumerate() {
            let cm = CostModel::new(app, pf);
            let p0 = cm.single_proc_period();
            let prepared = PreparedInstance::new(app.clone(), pf.clone());
            for kind in HEURISTICS {
                if !kind.applicable_to(pf) {
                    continue;
                }
                let res = rec.leaf("heuristic.run", || {
                    kind.run_in(&cm, p.target_factor * p0, &mut ws)
                });
                if !res.feasible {
                    continue;
                }
                rec.leaf("cost.evaluate", || cm.evaluate(&res.mapping));
                let victim = (0..res.mapping.n_intervals())
                    .map(|k| (cm.cycle_time(&res.mapping, k), k))
                    .fold((f64::NEG_INFINITY, 0), |a, b| if b.0 > a.0 { b } else { a })
                    .1;
                let victim = res.mapping.proc_of(victim);
                for plan_kind in ChaosPlanKind::ALL {
                    let plan = plan_kind.build(victim, res.period, N_DATASETS, s ^ job_salt(j));
                    rec.leaf("sim.faulted", || {
                        FaultedSim::new(&cm, &res.mapping, SimConfig::default(), plan)
                            .run(N_DATASETS)
                    });
                    let Some(fault) = detected_fault(plan_kind, victim) else {
                        continue;
                    };
                    match rec.leaf("replan", || {
                        replan(&prepared, &res.mapping, &fault, &request, &mut ws)
                    }) {
                        Ok((_, report)) => migrations.push(report.migration_distance as f64),
                        Err(e) => g.mismatch(format!("call {i} job {j}: replan failed: {e:?}")),
                    }
                }
                probes.push((j, res.mapping, victim));
            }
        }
        rec.end_op(op);
        // Probes, outside the operation: the clean simulator on each
        // scheduled mapping, and each platform fault's delta applied on
        // its own.
        for (j, mapping, victim) in probes {
            let (app, pf) = &jobs[j];
            let cm = CostModel::new(app, pf);
            rec.leaf("sim.clean", || {
                PipelineSim::new(&cm, &mapping, SimConfig::default()).run(N_DATASETS)
            });
            let prepared = PreparedInstance::new(app.clone(), pf.clone());
            for fault in ChaosPlanKind::ALL
                .iter()
                .filter_map(|&k| detected_fault(k, victim))
            {
                let applied = fault
                    .to_delta(pf)
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|delta| {
                        rec.leaf("delta.apply", || prepared.apply_in(&delta, &mut ws))
                            .map_err(|e| format!("{e:?}"))
                    });
                if let Err(e) = applied {
                    g.mismatch(format!("call {i} job {j}: delta failed: {e}"));
                }
            }
        }
    }
    g.cpu_ms_per_op = cpu_ns as f64 * 1e-6 / n as f64;
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    g.scalar("shard.efficiency", med(&t1) / (THREADS as f64 * med(&t2)));
    g.scalar(
        "replan.migration",
        migrations.iter().sum::<f64>() / migrations.len().max(1) as f64,
    );
    g
}
