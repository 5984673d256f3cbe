//! Instance deltas: small, validated edits to a running instance.
//!
//! Production platforms churn while the pipeline keeps running:
//! processors join and leave, speeds drift with thermal envelopes and
//! co-tenants, stage weights change per release. [`InstanceDelta`]
//! captures one such edit; [`InstanceDelta::apply_to`] rebuilds the
//! `(Application, Platform)` pair through the ordinary validating
//! constructors, so an applied delta is exactly as trustworthy as a
//! freshly parsed instance. The session layer
//! (`pipeline_core::service::PreparedInstance::apply`) consumes these to
//! re-solve incrementally instead of from scratch.

use crate::application::Application;
use crate::cost::check_scale;
use crate::platform::{LinkModel, Platform, ProcId};
use crate::ModelError;

/// One edit to a live instance.
///
/// Deltas are deliberately single-field: an update stream is a sequence
/// of deltas, and every prefix of the stream is itself a valid instance.
/// Validation (positivity, finiteness, index bounds) happens in
/// [`InstanceDelta::apply_to`], through the same constructors that guard
/// parsed instances.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceDelta {
    /// Processor `proc` now runs at `speed` (drift, DVFS, co-tenancy).
    ProcSpeed {
        /// Which processor changed.
        proc: ProcId,
        /// Its new speed.
        speed: f64,
    },
    /// A new processor joins with the given speed. It receives the next
    /// free id (`n_procs` before the delta). On fully heterogeneous
    /// platforms its links default to the outside-world bandwidth.
    ProcArrival {
        /// Speed of the arriving processor.
        speed: f64,
    },
    /// Processor `proc` leaves; every higher id shifts down by one (the
    /// wire format and mappings always address the *current* platform).
    ProcDeparture {
        /// Which processor left.
        proc: ProcId,
    },
    /// The shared link bandwidth of a Communication Homogeneous platform
    /// changes. Rejected on fully heterogeneous platforms — use
    /// [`InstanceDelta::LinkBandwidth`] there.
    Bandwidth {
        /// The new shared bandwidth `b`.
        bandwidth: f64,
    },
    /// One directed link of a fully heterogeneous platform changes.
    /// Rejected on Communication Homogeneous platforms.
    LinkBandwidth {
        /// Sending processor.
        from: ProcId,
        /// Receiving processor.
        to: ProcId,
        /// The new bandwidth of `link_{from,to}`.
        bandwidth: f64,
    },
    /// Stage `stage` now performs `work` operations per data set.
    StageWeight {
        /// Which stage changed (0-based).
        stage: usize,
        /// Its new computational weight.
        work: f64,
    },
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The delta names a processor the platform does not have.
    UnknownProc {
        /// The offending id.
        proc: ProcId,
        /// Number of processors on the platform.
        n_procs: usize,
    },
    /// The delta names a stage the application does not have.
    UnknownStage {
        /// The offending index.
        stage: usize,
        /// Number of stages in the application.
        n_stages: usize,
    },
    /// A departure would leave the platform empty.
    LastProc,
    /// `Bandwidth` on a heterogeneous platform, or `LinkBandwidth` on a
    /// Communication Homogeneous one.
    WrongLinkModel {
        /// What the delta expected to find.
        expected: &'static str,
    },
    /// The edited instance failed model validation (bad number, …).
    Invalid(ModelError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownProc { proc, n_procs } => {
                write!(f, "no processor {proc} on a platform of {n_procs}")
            }
            DeltaError::UnknownStage { stage, n_stages } => {
                write!(f, "no stage {stage} in a pipeline of {n_stages}")
            }
            DeltaError::LastProc => write!(f, "cannot remove the last processor"),
            DeltaError::WrongLinkModel { expected } => {
                write!(f, "delta requires a {expected} platform")
            }
            DeltaError::Invalid(err) => write!(f, "edited instance is invalid: {err}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ModelError> for DeltaError {
    fn from(err: ModelError) -> Self {
        DeltaError::Invalid(err)
    }
}

impl InstanceDelta {
    /// Applies the edit, returning the new instance. The inputs are
    /// untouched; both halves go through the validating constructors and
    /// the result through [`check_scale`], so `Ok` implies a fully valid
    /// instance.
    pub fn apply_to(
        &self,
        app: &Application,
        platform: &Platform,
    ) -> Result<(Application, Platform), DeltaError> {
        let (app, platform) = self.edit(app, platform)?;
        check_scale(&app, &platform)?;
        Ok((app, platform))
    }

    /// The edited instance, each half through its validating
    /// constructor; [`InstanceDelta::apply_to`] adds the scale check.
    fn edit(
        &self,
        app: &Application,
        platform: &Platform,
    ) -> Result<(Application, Platform), DeltaError> {
        match *self {
            InstanceDelta::ProcSpeed { proc, speed } => {
                check_proc(proc, platform)?;
                let mut speeds = platform.speeds().to_vec();
                speeds[proc] = speed;
                Ok((app.clone(), rebuild_platform(speeds, platform.links())?))
            }
            InstanceDelta::ProcArrival { speed } => {
                let mut speeds = platform.speeds().to_vec();
                speeds.push(speed);
                let links = match platform.links() {
                    LinkModel::Homogeneous(b) => LinkModel::Homogeneous(*b),
                    LinkModel::Heterogeneous {
                        matrix,
                        io_bandwidth,
                    } => {
                        let mut grown: Vec<Vec<f64>> = matrix.clone();
                        for row in &mut grown {
                            row.push(*io_bandwidth);
                        }
                        grown.push(vec![*io_bandwidth; speeds.len()]);
                        LinkModel::Heterogeneous {
                            matrix: grown,
                            io_bandwidth: *io_bandwidth,
                        }
                    }
                };
                Ok((app.clone(), rebuild_platform(speeds, &links)?))
            }
            InstanceDelta::ProcDeparture { proc } => {
                check_proc(proc, platform)?;
                if platform.n_procs() == 1 {
                    return Err(DeltaError::LastProc);
                }
                let mut speeds = platform.speeds().to_vec();
                speeds.remove(proc);
                let links = match platform.links() {
                    LinkModel::Homogeneous(b) => LinkModel::Homogeneous(*b),
                    LinkModel::Heterogeneous {
                        matrix,
                        io_bandwidth,
                    } => {
                        let mut shrunk: Vec<Vec<f64>> = matrix.clone();
                        shrunk.remove(proc);
                        for row in &mut shrunk {
                            row.remove(proc);
                        }
                        LinkModel::Heterogeneous {
                            matrix: shrunk,
                            io_bandwidth: *io_bandwidth,
                        }
                    }
                };
                Ok((app.clone(), rebuild_platform(speeds, &links)?))
            }
            InstanceDelta::Bandwidth { bandwidth } => {
                if !platform.is_comm_homogeneous() {
                    return Err(DeltaError::WrongLinkModel {
                        expected: "Communication Homogeneous",
                    });
                }
                Ok((
                    app.clone(),
                    Platform::comm_homogeneous(platform.speeds().to_vec(), bandwidth)?,
                ))
            }
            InstanceDelta::LinkBandwidth {
                from,
                to,
                bandwidth,
            } => {
                check_proc(from, platform)?;
                check_proc(to, platform)?;
                match platform.links() {
                    LinkModel::Homogeneous(_) => Err(DeltaError::WrongLinkModel {
                        expected: "fully heterogeneous",
                    }),
                    LinkModel::Heterogeneous {
                        matrix,
                        io_bandwidth,
                    } => {
                        let mut edited = matrix.clone();
                        edited[from][to] = bandwidth;
                        Ok((
                            app.clone(),
                            Platform::fully_heterogeneous(
                                platform.speeds().to_vec(),
                                edited,
                                *io_bandwidth,
                            )?,
                        ))
                    }
                }
            }
            InstanceDelta::StageWeight { stage, work } => {
                if stage >= app.n_stages() {
                    return Err(DeltaError::UnknownStage {
                        stage,
                        n_stages: app.n_stages(),
                    });
                }
                let mut works = app.works().to_vec();
                works[stage] = work;
                Ok((
                    Application::new(works, app.deltas().to_vec())?,
                    platform.clone(),
                ))
            }
        }
    }

    /// Short machine-readable name of the delta kind — the `delta=` token
    /// of the wire format.
    pub fn kind(&self) -> &'static str {
        match self {
            InstanceDelta::ProcSpeed { .. } => "proc-speed",
            InstanceDelta::ProcArrival { .. } => "proc-arrival",
            InstanceDelta::ProcDeparture { .. } => "proc-departure",
            InstanceDelta::Bandwidth { .. } => "bandwidth",
            InstanceDelta::LinkBandwidth { .. } => "link-bandwidth",
            InstanceDelta::StageWeight { .. } => "stage-weight",
        }
    }
}

fn check_proc(proc: ProcId, platform: &Platform) -> Result<(), DeltaError> {
    if proc >= platform.n_procs() {
        return Err(DeltaError::UnknownProc {
            proc,
            n_procs: platform.n_procs(),
        });
    }
    Ok(())
}

fn rebuild_platform(speeds: Vec<f64>, links: &LinkModel) -> Result<Platform, DeltaError> {
    match links {
        LinkModel::Homogeneous(b) => Ok(Platform::comm_homogeneous(speeds, *b)?),
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => Ok(Platform::fully_heterogeneous(
            speeds,
            matrix.clone(),
            *io_bandwidth,
        )?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::approx_eq;

    fn instance() -> (Application, Platform) {
        let app = Application::new(vec![2.0, 4.0, 6.0], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![3.0, 9.0, 5.0], 10.0).unwrap();
        (app, pf)
    }

    fn hetero() -> (Application, Platform) {
        let app = Application::new(vec![2.0, 4.0], vec![1.0, 3.0, 5.0]).unwrap();
        let m = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let pf = Platform::fully_heterogeneous(vec![2.0, 4.0], m, 7.0).unwrap();
        (app, pf)
    }

    #[test]
    fn proc_speed_edits_one_speed() {
        let (app, pf) = instance();
        let delta = InstanceDelta::ProcSpeed {
            proc: 2,
            speed: 1.5,
        };
        let (app2, pf2) = delta.apply_to(&app, &pf).unwrap();
        assert_eq!(app2, app);
        assert_eq!(pf2.speeds(), &[3.0, 9.0, 1.5]);
        assert_eq!(pf2.procs_by_speed_desc(), &[1, 0, 2]);
        assert!(approx_eq(pf2.io_bandwidth_of(0), 10.0));
    }

    #[test]
    fn overflowing_edits_are_rejected() {
        let (app, pf) = instance();
        let slow = InstanceDelta::ProcSpeed {
            proc: 0,
            speed: 1e-308,
        };
        assert!(matches!(
            slow.apply_to(&app, &pf),
            Err(DeltaError::Invalid(ModelError::InvalidNumber { value, .. })) if value.is_infinite()
        ));
        // One heavy stage is fine; a second one overflows the total work.
        let heavy = |stage| InstanceDelta::StageWeight { stage, work: 1e308 };
        let (app, pf) = heavy(0).apply_to(&app, &pf).unwrap();
        assert!(matches!(
            heavy(1).apply_to(&app, &pf),
            Err(DeltaError::Invalid(_))
        ));
        let (app, pf) = hetero();
        let thin = InstanceDelta::LinkBandwidth {
            from: 0,
            to: 1,
            bandwidth: 1e-308,
        };
        assert!(matches!(
            thin.apply_to(&app, &pf),
            Err(DeltaError::Invalid(_))
        ));
    }

    #[test]
    fn arrival_appends_and_departure_shifts() {
        let (app, pf) = instance();
        let (_, pf2) = InstanceDelta::ProcArrival { speed: 6.0 }
            .apply_to(&app, &pf)
            .unwrap();
        assert_eq!(pf2.speeds(), &[3.0, 9.0, 5.0, 6.0]);
        let (_, pf3) = InstanceDelta::ProcDeparture { proc: 1 }
            .apply_to(&app, &pf2)
            .unwrap();
        assert_eq!(pf3.speeds(), &[3.0, 5.0, 6.0]);
    }

    #[test]
    fn hetero_arrival_grows_the_matrix_with_io_defaults() {
        let (app, pf) = hetero();
        let (_, pf2) = InstanceDelta::ProcArrival { speed: 1.0 }
            .apply_to(&app, &pf)
            .unwrap();
        assert_eq!(pf2.n_procs(), 3);
        assert!(approx_eq(pf2.bandwidth(0, 2), 7.0));
        assert!(approx_eq(pf2.bandwidth(2, 1), 7.0));
        assert!(approx_eq(pf2.bandwidth(0, 1), 2.0));
        let (_, pf3) = InstanceDelta::ProcDeparture { proc: 0 }
            .apply_to(&app, &pf2)
            .unwrap();
        assert_eq!(pf3.n_procs(), 2);
        assert!(approx_eq(pf3.bandwidth(0, 1), 7.0)); // old (1,2) default
    }

    #[test]
    fn bandwidth_kinds_respect_the_link_model() {
        let (app, pf) = instance();
        let (_, pf2) = InstanceDelta::Bandwidth { bandwidth: 4.0 }
            .apply_to(&app, &pf)
            .unwrap();
        assert!(approx_eq(pf2.bandwidth(0, 1), 4.0));
        assert_eq!(
            InstanceDelta::LinkBandwidth {
                from: 0,
                to: 1,
                bandwidth: 2.0
            }
            .apply_to(&app, &pf)
            .unwrap_err(),
            DeltaError::WrongLinkModel {
                expected: "fully heterogeneous"
            }
        );
        let (happ, hpf) = hetero();
        let (_, hpf2) = InstanceDelta::LinkBandwidth {
            from: 1,
            to: 0,
            bandwidth: 9.5,
        }
        .apply_to(&happ, &hpf)
        .unwrap();
        assert!(approx_eq(hpf2.bandwidth(1, 0), 9.5));
        assert!(approx_eq(hpf2.bandwidth(0, 1), 2.0));
        assert_eq!(
            InstanceDelta::Bandwidth { bandwidth: 1.0 }
                .apply_to(&happ, &hpf)
                .unwrap_err(),
            DeltaError::WrongLinkModel {
                expected: "Communication Homogeneous"
            }
        );
    }

    #[test]
    fn stage_weight_edits_one_work() {
        let (app, pf) = instance();
        let (app2, _) = InstanceDelta::StageWeight {
            stage: 1,
            work: 0.5,
        }
        .apply_to(&app, &pf)
        .unwrap();
        assert_eq!(app2.works(), &[2.0, 0.5, 6.0]);
        assert_eq!(app2.deltas(), app.deltas());
        assert!(approx_eq(app2.interval_work(0, 3), 8.5));
    }

    #[test]
    fn bad_indices_and_values_are_structured_errors() {
        let (app, pf) = instance();
        assert_eq!(
            InstanceDelta::ProcSpeed {
                proc: 3,
                speed: 1.0
            }
            .apply_to(&app, &pf)
            .unwrap_err(),
            DeltaError::UnknownProc {
                proc: 3,
                n_procs: 3
            }
        );
        assert_eq!(
            InstanceDelta::StageWeight {
                stage: 3,
                work: 1.0
            }
            .apply_to(&app, &pf)
            .unwrap_err(),
            DeltaError::UnknownStage {
                stage: 3,
                n_stages: 3
            }
        );
        assert!(matches!(
            InstanceDelta::ProcSpeed {
                proc: 0,
                speed: -1.0
            }
            .apply_to(&app, &pf)
            .unwrap_err(),
            DeltaError::Invalid(ModelError::InvalidNumber { .. })
        ));
        assert!(matches!(
            InstanceDelta::StageWeight {
                stage: 0,
                work: f64::NAN
            }
            .apply_to(&app, &pf)
            .unwrap_err(),
            DeltaError::Invalid(ModelError::InvalidNumber { .. })
        ));
        let single = Platform::comm_homogeneous(vec![1.0], 1.0).unwrap();
        assert_eq!(
            InstanceDelta::ProcDeparture { proc: 0 }
                .apply_to(&app, &single)
                .unwrap_err(),
            DeltaError::LastProc
        );
    }

    #[test]
    fn kinds_are_stable_wire_tokens() {
        assert_eq!(
            InstanceDelta::ProcArrival { speed: 1.0 }.kind(),
            "proc-arrival"
        );
        assert_eq!(
            InstanceDelta::StageWeight {
                stage: 0,
                work: 1.0
            }
            .kind(),
            "stage-weight"
        );
    }
}
