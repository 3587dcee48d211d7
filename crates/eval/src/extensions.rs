//! Extension experiments beyond the paper's figures, implementing its
//! §5 future-work agenda.
//!
//! * [`object_classes`] — "moving objects of different nature": the same
//!   TD-TR/OPW-TR trade-off measured on cars, pedestrians and animal
//!   tracks, with thresholds scaled to each class's spatial extent;
//! * [`noise_ablation`] — how GPS noise moves the Fig. 7 comparison
//!   (the paper: "we know our raw data to already contain error");
//! * [`sampling_ablation`] — how the reporting interval moves it
//!   (the paper's 10 s example stream versus denser/sparser devices);
//! * [`interpolation_gap`] — "other, more advanced, interpolation
//!   techniques and consequently other error notions": the average gap
//!   between the linear and Catmull–Rom interpretations of each dataset
//!   trajectory, bounding how much the motion-model choice can move any
//!   error figure.

use traj_compress::error::interpolation_model_gap;
use traj_compress::DeadReckoning;
use traj_gen::{animal_track, paper_dataset, pedestrian_trip, AnimalParams, PedestrianParams};
use traj_model::Trajectory;

use crate::experiment::{sweep_algos, AlgoSweep};
use crate::figures::{figure, ndp, opw_tr, td_tr, FigureData};
use crate::registry::Algo;

/// A labelled dataset of one object class.
#[derive(Debug, Clone)]
pub struct ClassDataset {
    /// Class name (`"car"`, `"pedestrian"`, `"animal"`).
    pub class: &'static str,
    /// Thresholds appropriate to the class's spatial scale, metres.
    pub thresholds: Vec<f64>,
    /// The trajectories.
    pub trajectories: Vec<Trajectory>,
}

/// Builds the three object-class datasets (ten trajectories each).
pub fn class_datasets(seed: u64) -> Vec<ClassDataset> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cars = ClassDataset {
        class: "car",
        thresholds: vec![30.0, 50.0, 70.0, 100.0],
        trajectories: paper_dataset(seed),
    };
    let pedestrians = ClassDataset {
        class: "pedestrian",
        thresholds: vec![2.0, 5.0, 10.0, 20.0],
        trajectories: (0..10)
            .map(|i| {
                pedestrian_trip(
                    &PedestrianParams::default(),
                    &mut StdRng::seed_from_u64(seed.wrapping_add(2000 + i)),
                )
            })
            .collect(),
    };
    let animals = ClassDataset {
        class: "animal",
        thresholds: vec![10.0, 25.0, 50.0, 100.0],
        trajectories: (0..10)
            .map(|i| {
                animal_track(
                    &AnimalParams::default(),
                    &mut StdRng::seed_from_u64(seed.wrapping_add(3000 + i)),
                )
            })
            .collect(),
    };
    vec![cars, pedestrians, animals]
}

/// The object-class experiment: TD-TR and OPW-TR sweeps per class, with
/// class-appropriate thresholds. Returns one [`FigureData`] per class.
pub fn object_classes(seed: u64) -> Vec<(String, FigureData)> {
    class_datasets(seed)
        .into_iter()
        .map(|ds| {
            let title = "TD-TR vs OPW-TR per object class (extension)";
            let algos = [td_tr(), opw_tr()];
            let (trajs, grid) = (&ds.trajectories, &ds.thresholds);
            let fig = figure("ext_classes", title, &algos, trajs, grid, 1);
            (ds.class.to_string(), fig)
        })
        .collect()
}

/// Fig. 7 rebuilt at several GPS noise levels: `(sigma_m, NDP sweep,
/// TD-TR sweep)` per level.
pub fn noise_ablation(seed: u64, thresholds: &[f64]) -> Vec<(f64, AlgoSweep, AlgoSweep)> {
    [0.0f64, 4.0, 8.0]
        .iter()
        .map(|&sigma| {
            let cfg = traj_gen::TripConfig {
                noise: if traj_geom::numeric::approx_zero(sigma, 0.0) {
                    traj_gen::GpsNoise::white(0.0)
                } else {
                    traj_gen::GpsNoise::new(sigma, 0.8)
                },
                ..traj_gen::TripConfig::default()
            };
            let ds = traj_gen::dataset::paper_dataset_with(seed, &cfg);
            let mut sweeps = sweep_algos(&[ndp(), td_tr()], &ds, thresholds, 1);
            let tdtr = sweeps.swap_remove(1);
            (sigma, sweeps.swap_remove(0), tdtr)
        })
        .collect()
}

/// Fig. 7 rebuilt at several sampling intervals: `(interval_s, NDP
/// sweep, TD-TR sweep)` per interval.
pub fn sampling_ablation(seed: u64, thresholds: &[f64]) -> Vec<(f64, AlgoSweep, AlgoSweep)> {
    [5.0f64, 10.0, 20.0]
        .iter()
        .map(|&interval| {
            let cfg = traj_gen::TripConfig {
                sample_interval: interval,
                ..traj_gen::TripConfig::default()
            };
            let ds = traj_gen::dataset::paper_dataset_with(seed, &cfg);
            let mut sweeps = sweep_algos(&[ndp(), td_tr()], &ds, thresholds, 1);
            let tdtr = sweeps.swap_remove(1);
            (interval, sweeps.swap_remove(0), tdtr)
        })
        .collect()
}

/// Behavioural signature per object class: mean stop-time ratio
/// (fraction of the duration spent in detected dwell episodes). The
/// signature explains the class-specific threshold guidance: high stop
/// ratios are where the time-aware algorithms earn their keep.
pub fn class_signatures(seed: u64) -> Vec<(String, f64)> {
    use traj_compress::stop_ratio;
    use traj_model::TimeDelta;
    class_datasets(seed)
        .into_iter()
        .map(|ds| {
            // Radius scaled to the class (first threshold), 30 s minimum.
            let radius = ds.thresholds[0].max(5.0);
            let ratios: Vec<f64> = ds
                .trajectories
                .iter()
                .map(|t| stop_ratio(t, radius, TimeDelta::from_secs(30.0)))
                .collect();
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            (ds.class.to_string(), mean)
        })
        .collect()
}

/// The online spectrum (extension): dead-reckoning (`O(1)` state) vs
/// OPW-TR (`O(w)` window) vs batch TD-TR, swept over the paper
/// thresholds — what giving up look-back (and then batch access) buys.
pub fn online_spectrum(seed: u64, thresholds: &[f64]) -> FigureData {
    let title = "Online spectrum: dead-reckoning vs OPW-TR vs TD-TR (extension)";
    let dr = Algo::factory("DR", |e| Box::new(DeadReckoning::new(e)));
    let algos = [dr, opw_tr(), td_tr()];
    let ds = paper_dataset(seed);
    figure("ext_online", title, &algos, &ds, thresholds, 1)
}

/// Mean Catmull–Rom-vs-linear interpretation gap over the dataset,
/// metres — how much the piecewise-linear motion assumption can move any
/// error figure (paper §5).
pub fn interpolation_gap(seed: u64) -> f64 {
    let ds = paper_dataset(seed);
    let gaps: Vec<f64> = ds
        .iter()
        .map(|t| interpolation_model_gap(t, 1e-4))
        .collect();
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_datasets_have_three_classes_of_ten() {
        let ds = class_datasets(42);
        assert_eq!(ds.len(), 3);
        for d in &ds {
            assert_eq!(d.trajectories.len(), 10, "{}", d.class);
            assert!(!d.thresholds.is_empty());
        }
    }

    #[test]
    fn object_classes_produce_complete_figures() {
        let figs = object_classes(42);
        assert_eq!(figs.len(), 3);
        for (class, fig) in &figs {
            assert_eq!(fig.sweeps.len(), 2, "{class}");
            for s in &fig.sweeps {
                for p in &s.points {
                    assert!(p.compression_pct >= 0.0 && p.compression_pct <= 100.0);
                    assert!(p.error_m.is_finite());
                }
            }
        }
    }

    #[test]
    fn td_tr_beats_ndp_regardless_of_noise() {
        for (sigma, ndp, tdtr) in noise_ablation(42, &[30.0, 60.0]) {
            assert!(
                tdtr.mean_error() < ndp.mean_error(),
                "σ={sigma}: TD-TR {} vs NDP {}",
                tdtr.mean_error(),
                ndp.mean_error()
            );
        }
    }

    #[test]
    fn class_signatures_reflect_behaviour() {
        let sigs = class_signatures(42);
        assert_eq!(sigs.len(), 3);
        for (class, ratio) in &sigs {
            assert!((0.0..=1.0).contains(ratio), "{class}: ratio {ratio}");
        }
        // Cars stop at lights; pedestrians pause; both should show some
        // dwell time on average.
        let car = sigs.iter().find(|(c, _)| c == "car").unwrap().1;
        assert!(car > 0.0, "car stop ratio {car}");
    }

    #[test]
    fn online_spectrum_errors_are_bounded_and_ordered() {
        let fig = online_spectrum(42, &[30.0, 60.0]);
        let dr = fig.sweep("DR").unwrap();
        let opwtr = fig.sweep("OPW-TR").unwrap();
        let tdtr = fig.sweep("TD-TR").unwrap();
        // The look-back hierarchy on compression: batch ≥ windowed; and
        // every member compresses something.
        assert!(tdtr.mean_compression() >= opwtr.mean_compression() - 1.0);
        for s in [dr, opwtr, tdtr] {
            assert!(
                s.mean_compression() > 5.0,
                "{}: {}",
                s.label,
                s.mean_compression()
            );
            assert!(s.mean_error().is_finite());
        }
    }

    #[test]
    fn interpolation_gap_is_small_but_positive() {
        let gap = interpolation_gap(42);
        assert!(gap > 0.0, "curved car motion must have a model gap");
        assert!(
            gap < 10.0,
            "gap {gap} m — the 10 s-sampled car data should be near-linear between fixes"
        );
    }
}
