//! TD-SP: top-down splitting under the spatiotemporal criteria.
//!
//! The paper applies its spatiotemporal criteria (synchronized distance
//! *and* derived speed difference, §3.3) "in both opening window and
//! top-down fashion" and reports TD-SP results in §4.3 (Fig. 10), but
//! gives pseudocode only for the opening-window form. This module defines
//! the top-down form; the design decision, recorded in `DESIGN.md`, is:
//!
//! * a point *violates* when its synchronized distance to the anchor–float
//!   approximation exceeds `epsilon` **or** its derived speed difference
//!   exceeds `speed_epsilon`;
//! * among violating configurations the split point is the one with the
//!   largest **violation score** `max(sed/epsilon, |Δv|/speed_epsilon)` —
//!   a dimensionless blend that reduces to plain TD-TR when the speed
//!   threshold is infinite;
//! * the recursion stops when no interior point violates.
//!
//! Both rules live in [`crate::Criterion::TimeRatioSpeed`]; this type is
//! a thin wrapper over the shared [`TopDown`] kernel, exactly like
//! [`crate::DouglasPeucker`] and [`crate::TdTr`].
//!
//! Like TD-TR this is a batch algorithm; the paper observes TD-SP is
//! highly sensitive to the speed threshold (only 5 m/s gave reasonable
//! results on their data), which the reproduction in `traj-eval`
//! confirms.

use crate::douglas_peucker::TopDown;
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::Workspace;
use traj_model::Trajectory;

/// Top-down spatiotemporal splitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdSp(TopDown);

impl TdSp {
    /// Creates a TD-SP compressor with synchronized-distance threshold
    /// `epsilon` (metres) and speed-difference threshold `speed_epsilon`
    /// (m/s).
    ///
    /// # Panics
    /// Panics if `epsilon` is not finite-positive-or-zero, or
    /// `speed_epsilon` is not strictly positive (a zero speed threshold
    /// would force every interior point to be kept and makes the
    /// violation score unbounded).
    pub fn new(epsilon: f64, speed_epsilon: f64) -> Self {
        assert!(
            speed_epsilon > 0.0 && !speed_epsilon.is_nan(),
            "speed_epsilon must be > 0"
        );
        TdSp(TopDown::time_ratio_speed(epsilon, speed_epsilon))
    }

    /// The synchronized-distance threshold, metres.
    pub fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }

    /// The speed-difference threshold, m/s.
    pub fn speed_epsilon(&self) -> f64 {
        // TdSp::new only ever constructs the blended criterion; the
        // fallback is unreachable but keeps this accessor panic-free.
        self.0.criterion().speed_epsilon().unwrap_or(f64::INFINITY)
    }

    /// The underlying generic splitter.
    pub fn inner(&self) -> &TopDown {
        &self.0
    }
}

impl Compressor for TdSp {
    fn name(&self) -> String {
        self.0.name()
    }

    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        self.0.compress(traj)
    }

    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        self.0.compress_into(traj, ws, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{sed as sed_dist, speed_difference};
    use crate::douglas_peucker::TdTr;

    fn kinked() -> Trajectory {
        // Straight in space, two abrupt speed regimes (10 m/s → 40 m/s),
        // plus one spatial spike.
        let mut triples = Vec::new();
        let mut x = 0.0;
        for i in 0..6 {
            triples.push((i as f64 * 10.0, x, 0.0));
            x += 100.0;
        }
        for i in 6..12 {
            triples.push((i as f64 * 10.0, x, if i == 8 { 80.0 } else { 0.0 }));
            x += 400.0;
        }
        Trajectory::from_triples(triples).unwrap()
    }

    #[test]
    fn keeps_spatial_spike_and_speed_kink() {
        let r = TdSp::new(30.0, 5.0).compress(&kinked());
        assert!(r.contains(8), "spatial spike kept: {:?}", r.kept());
        // The 10→40 m/s transition is around index 5/6.
        assert!(
            r.contains(5) || r.contains(6),
            "speed kink kept: {:?}",
            r.kept()
        );
    }

    #[test]
    fn infinite_speed_threshold_reduces_to_td_tr() {
        let t = kinked();
        for eps in [10.0, 30.0, 80.0] {
            let sp = TdSp::new(eps, f64::INFINITY).compress(&t);
            let tr = TdTr::new(eps).compress(&t);
            assert_eq!(sp.kept(), tr.kept(), "eps={eps}");
        }
    }

    #[test]
    fn postcondition_no_violating_interior_point() {
        let t = kinked();
        let (eps, veps) = (30.0, 5.0);
        let r = TdSp::new(eps, veps).compress(&t);
        let f = t.fixes();
        for w in r.kept().windows(2) {
            for i in w[0] + 1..w[1] {
                let d = sed_dist(&f[w[0]], &f[w[1]], &f[i]);
                assert!(d <= eps, "point {i}: sed {d} > {eps}");
                if let Some(dv) = speed_difference(&t, i) {
                    assert!(dv <= veps, "point {i}: dv {dv} > {veps}");
                }
            }
        }
    }

    #[test]
    fn tighter_speed_threshold_keeps_more_points() {
        let t = kinked();
        let loose = TdSp::new(30.0, 25.0).compress(&t).kept_len();
        let tight = TdSp::new(30.0, 1.0).compress(&t).kept_len();
        assert!(tight >= loose, "tight={tight} loose={loose}");
    }

    #[test]
    fn accessors_round_trip() {
        let sp = TdSp::new(30.0, 5.0);
        assert_eq!(sp.epsilon(), 30.0);
        assert_eq!(sp.speed_epsilon(), 5.0);
    }

    #[test]
    fn degenerate_inputs() {
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap();
        assert_eq!(TdSp::new(5.0, 5.0).compress(&two).kept_len(), 2);
    }

    #[test]
    fn name_mentions_both_thresholds() {
        assert_eq!(TdSp::new(30.0, 5.0).name(), "td-sp(30m,5m/s)");
    }

    #[test]
    #[should_panic(expected = "speed_epsilon")]
    fn rejects_zero_speed_threshold() {
        let _ = TdSp::new(5.0, 0.0);
    }
}
