//! Program set-up (the part `setup_s` times) and the cell model the
//! driver scores decisions against and synthesises reports from.

use std::collections::HashMap;

use exbox_core::admittance::{AdmittanceClassifier, AdmittanceConfig, Phase};
use exbox_core::gateway::{ConcurrentGateway, GatewayConfig, ModelSnapshot};
use exbox_core::matrix::TrafficMatrix;
use exbox_core::qoe::QoeEstimator;
use exbox_ml::Label;
use exbox_net::{AppClass, Duration, QosSample};
use exbox_obs::MetricsRegistry;
use exbox_sim::fluid::FluidWifi;
use exbox_testbed::cell::{scaleup_fluid_demands, CellLabeler, CellModel};

use crate::workload::{derive, Kind, Rng};

/// Observations fed to the bootstrap classifier before giving up on
/// reaching the Online phase.
const BOOTSTRAP_BUDGET: usize = 2_000;

/// Observations the set-up classifier learns from in all (it keeps
/// learning after leaving bootstrap, so the served region is not a
/// 50-sample first guess).
const TRAINING_OBSERVATIONS: usize = 400;

/// Largest flow total drawn for training matrices: well past the fluid
/// cell's capacity for every mix, so the region boundary is inside the
/// training range in every direction.
const TRAINING_MAX_FLOWS: u64 = 90;

/// A training matrix: a uniform total split over the six flow kinds by
/// random (skewed) weights, so single-kind-heavy mixes are sampled as
/// well as balanced ones.
fn training_matrix(rng: &mut Rng) -> TrafficMatrix {
    let weights: [f64; TrafficMatrix::DIMS] = std::array::from_fn(|_| {
        let u = rng.below(1 << 20) as f64 / f64::from(1 << 20);
        u * u
    });
    let sum: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut counts = [0u32; TrafficMatrix::DIMS];
    for _ in 0..rng.below(TRAINING_MAX_FLOWS + 1) {
        let mut x = rng.below(1 << 20) as f64 / f64::from(1 << 20) * sum;
        let mut k = 0;
        while k + 1 < counts.len() && x >= weights[k] {
            x -= weights[k];
            k += 1;
        }
        counts[k] += 1;
    }
    TrafficMatrix::from_counts(counts)
}

/// Sample-store bound of the `drift` classifier (keeps retrains flat).
pub const DRIFT_MAX_SAMPLES: usize = 256;

/// Delay of the `flash_crowd` cell's healthy deliveries.
const HEALTHY_DELAY: Duration = Duration::from_millis(5);

/// What the cell says about one traffic matrix.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The QoE label the gateway's own polls observe for this matrix:
    /// every flow's QoS, as the cell delivers it, acceptable under the
    /// fitted estimator. Admission quality is scored against this.
    pub observed: bool,
    /// Every flow's application-level QoE acceptable in the cell model
    /// (reported alongside; the fitted estimator and the fluid model's
    /// application formulas disagree near the boundary).
    pub app: bool,
    /// Network-side QoS each flow kind receives (flat kind index).
    pub qos: [Option<QosSample>; TrafficMatrix::DIMS],
}

/// The cell behind the gateway.
#[derive(Debug)]
pub enum Cell {
    /// Fluid 802.11 cell (`storm`, `drift`), memoised per matrix.
    Fluid {
        /// The labeler (noise-free, so outcomes are a function of the matrix).
        labeler: Box<CellLabeler>,
        /// The gateway's estimator, to derive the observed label.
        estimator: QoeEstimator,
        /// Memo of computed outcomes; cleared on reconfiguration.
        memo: HashMap<TrafficMatrix, Outcome>,
    },
    /// An uncongested cell (`flash_crowd`): every flow gets its class's
    /// offered rate at a healthy delay, whatever the load.
    Uncongested {
        /// Per-class QoS.
        qos: [QosSample; 3],
        /// Per-class acceptability under the estimator.
        ok: [bool; 3],
    },
}

impl Cell {
    fn fluid(seed: u64, estimator: &QoeEstimator) -> Cell {
        Cell::Fluid {
            labeler: Box::new(exbox_bench::wifi_fluid_labeler(0.0, derive(seed, 0xCE11))),
            estimator: estimator.clone(),
            memo: HashMap::new(),
        }
    }

    fn uncongested(estimator: &QoeEstimator) -> Cell {
        let demands = scaleup_fluid_demands();
        let qos = std::array::from_fn(|i| QosSample {
            throughput_bps: demands[i],
            mean_delay: HEALTHY_DELAY,
            loss_ratio: 0.0,
        });
        let ok = std::array::from_fn(|i| estimator.acceptable(AppClass::from_index(i), &qos[i]));
        Cell::Uncongested { qos, ok }
    }

    /// The cell's outcome for `m`.
    pub fn outcome(&mut self, m: &TrafficMatrix) -> Outcome {
        match self {
            Cell::Fluid {
                labeler,
                estimator,
                memo,
            } => *memo.entry(*m).or_insert_with(|| {
                let out = labeler.label(m);
                let mut qos = [None; TrafficMatrix::DIMS];
                for (kind, q) in &out.per_flow_qos {
                    qos[kind.flat_index()].get_or_insert(*q);
                }
                Outcome {
                    observed: out.estimated_label(estimator) == Label::Pos,
                    app: out.truth == Label::Pos,
                    qos,
                }
            }),
            Cell::Uncongested { qos, ok } => {
                let mut per_kind = [None; TrafficMatrix::DIMS];
                let mut all_ok = true;
                for (kind, n) in m.iter_kinds() {
                    if n > 0 {
                        per_kind[kind.flat_index()] = Some(qos[kind.class.index()]);
                        all_ok &= ok[kind.class.index()];
                    }
                }
                Outcome {
                    observed: all_ok,
                    app: all_ok,
                    qos: per_kind,
                }
            }
        }
    }

    /// The Fig. 11 throttling step: the cell keeps about half its
    /// airtime for this traffic.
    pub fn throttle(&mut self) {
        if let Cell::Fluid { labeler, memo, .. } = self {
            labeler.reconfigure(CellModel::WifiFluid {
                cfg: FluidWifi {
                    efficiency: 0.45,
                    ..FluidWifi::default()
                },
                label_noise: 0.0,
                demands: scaleup_fluid_demands(),
            });
            memo.clear();
        }
    }
}

/// Everything one episode runs against.
#[derive(Debug)]
pub struct System {
    /// The gateway under test (1 shard: one ingest stream, one ordered
    /// verdict stream).
    pub gw: ConcurrentGateway,
    /// The fitted QoE estimator.
    pub estimator: QoeEstimator,
    /// The classifier's own registry (`admittance.*`), when it has one.
    pub learnt: Option<MetricsRegistry>,
    /// Whether the gateway runs a background trainer.
    pub has_trainer: bool,
}

/// Rejected-set capacity on `storm`: every concurrently rejected flow
/// fits, so the set outgrows L2 instead of evicting.
pub const STORM_REJECTED_CAPACITY: usize = 1 << 16;

/// The gateway configuration `kind` runs with.
pub fn gateway_config(kind: Kind) -> GatewayConfig {
    let mut cfg = GatewayConfig {
        shards: 1,
        ..GatewayConfig::default()
    };
    if kind == Kind::Storm {
        cfg.middlebox.rejected_capacity = STORM_REJECTED_CAPACITY;
    }
    cfg
}

/// Seed of the set-up classifier's training matrices. It is part of
/// the program's set-up, not of the workload: every workload seed
/// starts from the same learnt region, so seed-to-seed spread measures
/// the workload, not a different model.
const TRAINING_SEED: u64 = 0xB007;

/// Train a classifier on random matrices labelled the way the
/// gateway's polls label them (the cell's QoS under the fitted
/// estimator) until it leaves bootstrap and has seen
/// [`TRAINING_OBSERVATIONS`] matrices.
fn bootstrap(
    cfg: AdmittanceConfig,
    estimator: &QoeEstimator,
    reg: &MetricsRegistry,
) -> Result<AdmittanceClassifier, String> {
    let mut labeler = exbox_bench::wifi_fluid_labeler(0.0, TRAINING_SEED);
    let mut rng = Rng::new(TRAINING_SEED);
    let mut ac = AdmittanceClassifier::with_registry(cfg, reg);
    for i in 0..BOOTSTRAP_BUDGET {
        if ac.phase() == Phase::Online && i >= TRAINING_OBSERVATIONS {
            return Ok(ac);
        }
        let m = training_matrix(&mut rng);
        let label = labeler.label(&m).estimated_label(estimator);
        ac.observe(m, label);
    }
    Err(format!(
        "bootstrap classifier still in bootstrap after {BOOTSTRAP_BUDGET} observations"
    ))
}

/// Set up the program for one episode of `kind`: fit the estimator,
/// train the bootstrap classifier to Online (where the workload has
/// one), build the gateway, spawn the trainer and publish the first
/// snapshot. The cell model is bench-side and built by [`cell`].
pub fn setup(kind: Kind) -> Result<System, String> {
    let (estimator, _rmse, _sweep) = exbox_bench::standard_estimator();
    match kind {
        Kind::Storm => {
            let reg = MetricsRegistry::new();
            let ac = bootstrap(AdmittanceConfig::default(), &estimator, &reg)?;
            let snapshot = ModelSnapshot::from_classifier(1, &ac);
            let gw =
                ConcurrentGateway::serving_only(gateway_config(kind), estimator.clone(), snapshot);
            Ok(System {
                gw,
                estimator,
                learnt: None,
                has_trainer: false,
            })
        }
        Kind::Drift => {
            let reg = MetricsRegistry::new();
            let cfg = AdmittanceConfig {
                sticky_scaler: true,
                max_samples: DRIFT_MAX_SAMPLES,
                ..AdmittanceConfig::default()
            };
            let ac = bootstrap(cfg, &estimator, &reg)?;
            let gw = ConcurrentGateway::new(gateway_config(kind), estimator.clone(), ac);
            Ok(System {
                gw,
                estimator,
                learnt: Some(reg),
                has_trainer: true,
            })
        }
        Kind::FlashCrowd => {
            let reg = MetricsRegistry::new();
            // Pinned in bootstrap: admits everyone, as the soak does.
            let ac = AdmittanceClassifier::with_registry(
                AdmittanceConfig {
                    bootstrap_min_samples: usize::MAX,
                    ..AdmittanceConfig::default()
                },
                &reg,
            );
            let gw = ConcurrentGateway::new(gateway_config(kind), estimator.clone(), ac);
            Ok(System {
                gw,
                estimator,
                learnt: Some(reg),
                has_trainer: true,
            })
        }
    }
}

/// The cell model of `kind` (bench-side; not part of set-up time).
pub fn cell(kind: Kind, seed: u64, estimator: &QoeEstimator) -> Cell {
    match kind {
        Kind::Storm | Kind::Drift => Cell::fluid(seed, estimator),
        Kind::FlashCrowd => Cell::uncongested(estimator),
    }
}
