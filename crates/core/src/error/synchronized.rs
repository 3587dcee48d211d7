//! The average synchronous error `α(p, a)` (paper §4.2), in closed form.
//!
//! Given the original trajectory `p` and an approximation `a`, both
//! piecewise linear in space-time, the measure is the time-average of
//! `dist(loc(p, t), loc(a, t))` over the (shared) observation interval:
//!
//! ```text
//! α(p, a) = Σᵢ (tᵢ₊₁ − tᵢ) · α(p[i : i+1], a)  /  Σᵢ (tᵢ₊₁ − tᵢ)      (3)
//! α(p[i : i+1], a) = 1/(tᵢ₊₁ − tᵢ) ∫ dist(loc(p,t), loc(a,t)) dt      (4)
//! ```
//!
//! On any interval where **both** trajectories are linear, the
//! displacement `δ(t) = loc(p,t) − loc(a,t)` is itself linear, so the
//! integrand is `√(c₁t² + c₂t + c₃)` — the paper's equation (5). Writing
//! `δ` at the interval ends as `δ₀, δ₁` and `w = δ₁ − δ₀`, substitution
//! reduces the integral to `√A ∫ √(u² + k²) du` with `A = |w|²`,
//! `u = s + δ₀·w/A` and `k = |δ₀ × w| / A`, whose antiderivative is
//! `(u√(u²+k²) + k²·asinh(u/k))/2`. The paper's case analysis falls out
//! of the two degeneracies:
//!
//! * `A = 0` (paper: `c₁ = 0`) — the approximation is a pure translation
//!   of the segment; the distance is the constant `|δ₀|`;
//! * `k = 0` (paper: `c₂² − 4c₁c₃ = 0`, i.e. `δ₀ ∥ δ₁`, covering the
//!   shared-start, shared-end and δ-ratio subcases) — the distance is
//!   `√A·|u|`, integrated piecewise;
//! * otherwise (paper: determinant < 0) — the general form.
//!
//! The general form is evaluated with one logarithm and no catastrophic
//! cancellation. With `u₁ = u₀ + 1` and `rᵢ = √(uᵢ² + k²)`, the algebraic
//! part is `u₁r₁ − u₀r₀ = r₁ + u₀·(r₁ − r₀)` with
//! `r₁ − r₀ = (u₀ + u₁)/(r₀ + r₁)`, and the two arcsines collapse into
//! `asinh(u₁/k) − asinh(u₀/k) = ln(g(u₁)/g(u₀))` for `g(u) = u + r`,
//! written as `k²/(r − u)` where `u < 0`. The logarithm takes
//! `x = g(u₁)/g(u₀) − 1`, formed from those pieces without cancellation,
//! through `ln_1p` when `x` is small. When `k²` is below the smallest
//! normal float (it would be divided by), the parallel formula applies
//! instead; the term it drops is below 1e-305. On general intervals the
//! result is within 1e-12 (relative) of the two-`asinh` form, which the
//! tests keep as an oracle; just above the translation threshold it stays
//! within 1e-12 of a three-term Taylor expansion, where the difference of
//! two arcsines was off by up to 6e-7.
//!
//! Compression never invents data points, so the approximation's vertices
//! are a subset of the original's and the elementary intervals are simply
//! `p`'s segments; the implementation nevertheless merges both vertex
//! sets, so the measure is valid for *any* pair of trajectories
//! overlapping in time (e.g. comparing two different approximations, or
//! the paper's Fig. 5 construction).

use traj_geom::numeric::integrate_adaptive;
use traj_geom::Vec2;
use traj_model::interp::{position_at, synchronous_distance};
use traj_model::{Timestamp, Trajectory};

/// `∫₀¹ |δ₀ + s·w| ds` — the exact mean length of a linearly varying
/// displacement, via the paper's case analysis (documented above).
///
/// Crate-visible: the one-pass evaluation engine ([`super::eval`])
/// reuses this kernel per elementary interval.
pub(crate) fn mean_linear_displacement(d0: Vec2, d1: Vec2) -> f64 {
    let w = d1 - d0;
    let a = w.norm_sq();
    // Paper case c₁ = 0: the displacement is constant (translation).
    // The relative threshold guards against catastrophic cancellation
    // when the two displacements are nearly identical.
    if a <= 1e-24 * (d0.norm_sq() + d1.norm_sq() + 1.0) {
        #[cfg(feature = "obs")]
        traj_obs::counter!("error", "alpha_case_translation").inc();
        return 0.5 * (d0.norm() + d1.norm());
    }
    let u0 = d0.dot(w) / a;
    let u1 = u0 + 1.0;
    let k = d0.cross(w).abs() / a;
    let k2 = k * k;
    let sqrt_a = a.sqrt();
    // Which branch of the paper's case analysis fires, counted once per
    // elementary interval.
    if k2 >= f64::MIN_POSITIVE {
        #[cfg(feature = "obs")]
        traj_obs::counter!("error", "alpha_case_general").inc();
        let r0 = (u0 * u0 + k2).sqrt();
        let r1 = (u1 * u1 + k2).sqrt();
        // r₁ − r₀ and u₁r₁ − u₀r₀, rewritten through u₁ − u₀ = 1 so that
        // neither subtracts two nearly equal terms.
        let dr = (u0 + u1) / (r0 + r1);
        let ur = r1 + u0 * dr;
        // x = g(u₁)/g(u₀) − 1 for g(u) = u + r = k²/(r − u), using on each
        // side of u = 0 the form of g that does not cancel.
        let x = if u0 >= 0.0 {
            (1.0 + dr) / (u0 + r0)
        } else if u1 < 0.0 {
            (1.0 - dr) / (r1 - u1)
        } else if k >= 1.0 {
            (1.0 + dr) * (r0 - u0) / k2
        } else {
            (u1 + r1) * (r0 - u0) / k2 - 1.0
        };
        // asinh(u₁/k) − asinh(u₀/k) = ln(g(u₁)/g(u₀)). `ln_1p` keeps the
        // digits of a small x; from x = 0.5 up, rounding 1 + x moves the
        // logarithm by less than 3e-16 relative.
        let log = if x < 0.5 { x.ln_1p() } else { (1.0 + x).ln() };
        0.5 * sqrt_a * (ur + k2 * log)
    } else {
        // Paper case det = 0 (δ₀ ∥ δ₁): |u| integrated piecewise. A k²
        // below the smallest normal float lands here too; the k² term it
        // drops is below 1e-305.
        #[cfg(feature = "obs")]
        traj_obs::counter!("error", "alpha_case_parallel").inc();
        0.5 * sqrt_a * (u1 * u1.abs() - u0 * u0.abs())
    }
}

/// Elementary time intervals: the merged, deduplicated vertex instants of
/// both trajectories restricted to the overlap of their spans (shared
/// construction in [`super::times`]).
fn elementary_times(p: &Trajectory, a: &Trajectory) -> Vec<Timestamp> {
    let mut ts = Vec::new();
    super::times::elementary_times_into(p, a, &mut ts);
    ts.into_iter().map(Timestamp::from_secs).collect()
}

/// `∫ dist(loc(p,t), loc(a,t)) dt` over the overlap of the two spans, in
/// metre·seconds — the unnormalized form of the paper's equation (3)
/// numerator, exact (closed form) for piecewise-linear trajectories.
///
/// Returns 0 when the spans do not overlap in an interval of positive
/// length.
pub fn integrated_synchronous_distance(p: &Trajectory, a: &Trajectory) -> f64 {
    let times = elementary_times(p, a);
    let mut total = 0.0;
    for w in times.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let dt = (t1 - t0).as_secs();
        // Elementary times lie in both spans by construction; if float
        // edge effects ever put one outside, skipping the sliver keeps
        // the integral finite instead of aborting the caller.
        let (Some(p0), Some(p1), Some(a0), Some(a1)) = (
            position_at(p, t0),
            position_at(p, t1),
            position_at(a, t0),
            position_at(a, t1),
        ) else {
            continue;
        };
        total += dt * mean_linear_displacement(p0 - a0, p1 - a1);
    }
    total
}

/// The paper's average synchronous error `α(p, a)` in metres: the
/// time-average synchronous distance over the overlap of the two spans.
///
/// # Panics
/// Panics when the spans do not overlap in an interval of positive
/// length — comparing temporally disjoint trajectories is a programming
/// error, not a data condition.
pub fn average_synchronous_error(p: &Trajectory, a: &Trajectory) -> f64 {
    let lo = p.start_time().as_secs().max(a.start_time().as_secs());
    let hi = p.end_time().as_secs().min(a.end_time().as_secs());
    assert!(
        lo < hi,
        "average_synchronous_error requires temporally overlapping trajectories"
    );
    integrated_synchronous_distance(p, a) / (hi - lo)
}

/// Numeric cross-check of [`average_synchronous_error`] by adaptive
/// Simpson quadrature of the synchronous distance. Slower but derived
/// independently of the closed form; used by tests and the
/// `ablation_error_eval` benchmark.
pub fn average_synchronous_error_numeric(p: &Trajectory, a: &Trajectory, tol: f64) -> f64 {
    let times = elementary_times(p, a);
    assert!(times.len() >= 2, "requires temporally overlapping trajectories");
    let mut total = 0.0;
    for w in times.windows(2) {
        let (t0, t1) = (w[0].as_secs(), w[1].as_secs());
        let q = integrate_adaptive(
            // Out-of-span evaluations (float edge effects at interval
            // endpoints) contribute zero rather than aborting.
            |t| synchronous_distance(p, a, Timestamp::from_secs(t)).unwrap_or(0.0),
            t0,
            t1,
            tol,
            40,
        );
        total += q.value;
    }
    // `times.len() >= 2` was asserted above.
    let last = times.last().copied().unwrap_or(times[0]);
    let span = (last - times[0]).as_secs();
    total / span
}

/// The maximum synchronous distance over the whole shared interval, in
/// metres — exact, because `|δ(t)|` is convex on every elementary
/// interval and therefore attains its maximum at an interval endpoint.
pub fn max_synchronous_error(p: &Trajectory, a: &Trajectory) -> f64 {
    elementary_times(p, a)
        .iter()
        .filter_map(|&t| synchronous_distance(p, a, t))
        .fold(0.0, f64::max)
}

/// One elementary interval of a synchronous-error profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSegment {
    /// Interval start.
    pub from: Timestamp,
    /// Interval end.
    pub to: Timestamp,
    /// Average synchronous distance over the interval, metres.
    pub mean_m: f64,
    /// Maximum synchronous distance over the interval, metres (exact:
    /// the distance is convex on the interval).
    pub max_m: f64,
}

/// The per-interval error profile of an approximation: for every
/// elementary interval (between consecutive vertices of either
/// trajectory), the exact mean and max synchronous distance.
///
/// This is the diagnostic behind threshold tuning — it shows *where* in
/// the trip the error concentrates (typically at dwells removed by
/// spatially-minded algorithms).
pub fn error_profile(p: &Trajectory, a: &Trajectory) -> Vec<ErrorSegment> {
    let times = elementary_times(p, a);
    times
        .windows(2)
        .filter_map(|w| {
            let (t0, t1) = (w[0], w[1]);
            // Skip slivers pushed outside a span by float edge effects.
            let (Some(p0), Some(p1), Some(a0), Some(a1)) = (
                position_at(p, t0),
                position_at(p, t1),
                position_at(a, t0),
                position_at(a, t1),
            ) else {
                return None;
            };
            let (d0, d1) = (p0 - a0, p1 - a1);
            Some(ErrorSegment {
                from: t0,
                to: t1,
                mean_m: mean_linear_displacement(d0, d1),
                max_m: d0.norm().max(d1.norm()),
            })
        })
        .collect()
}

/// SED quantiles at the original sample instants: for each requested
/// quantile `q ∈ [0, 1]` (nearest-rank), the SED value such that a
/// fraction `q` of samples err at most that much. Returns one value per
/// entry of `quantiles`, or an empty vector when no sample instant falls
/// inside `a`'s span.
///
/// Complements the mean/max of [`sed_at_samples`] with distribution
/// shape — a compressed archive is often judged by its p95, not its
/// mean.
///
/// # Panics
/// Panics if any requested quantile is outside `[0, 1]`.
pub fn sed_quantiles(p: &Trajectory, a: &Trajectory, quantiles: &[f64]) -> Vec<f64> {
    assert!(
        quantiles.iter().all(|q| (0.0..=1.0).contains(q)),
        "quantiles must lie in [0, 1]"
    );
    let mut seds: Vec<f64> = p
        .fixes()
        .iter()
        .filter_map(|f| position_at(a, f.t).map(|apos| apos.distance(f.pos)))
        .collect();
    if seds.is_empty() {
        return Vec::new();
    }
    seds.sort_unstable_by(f64::total_cmp);
    let n = seds.len();
    quantiles
        .iter()
        .map(|&q| {
            // Nearest-rank quantile.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            seds[rank - 1]
        })
        .collect()
}

/// Mean and maximum SED at the *original sample instants*: for every fix
/// of `p` inside `a`'s span, the distance to `a`'s synchronized position.
///
/// This is the discrete cousin of `α` (cheap, but sensitive to the
/// number of data points — the bias the paper's integral notion removes).
pub fn sed_at_samples(p: &Trajectory, a: &Trajectory) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for f in p.fixes() {
        if let Some(apos) = position_at(a, f.t) {
            let d = apos.distance(f.pos);
            sum += d;
            max = max.max(d);
            n += 1;
        }
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        (sum / n as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use traj_geom::numeric::approx_eq;

    fn t(triples: &[(f64, f64, f64)]) -> Trajectory {
        Trajectory::from_triples(triples.iter().copied()).unwrap()
    }

    /// The two-`asinh` antiderivative that [`mean_linear_displacement`]
    /// replaced, kept as its oracle: it loses digits near the translation
    /// threshold but is accurate on general intervals.
    fn two_asinh_oracle(d0: Vec2, d1: Vec2) -> f64 {
        let w = d1 - d0;
        let a = w.norm_sq();
        if a <= 1e-24 * (d0.norm_sq() + d1.norm_sq() + 1.0) {
            return 0.5 * (d0.norm() + d1.norm());
        }
        let u0 = d0.dot(w) / a;
        let u1 = u0 + 1.0;
        let k = d0.cross(w).abs() / a;
        let sqrt_a = a.sqrt();

        // Antiderivative of √(u² + k²).
        fn antideriv(u: f64, k: f64) -> f64 {
            if k > 0.0 {
                let r = (u * u + k * k).sqrt();
                0.5 * (u * r + k * k * (u / k).asinh())
            } else {
                // Paper case det = 0 (δ₀ ∥ δ₁): |u| integrated piecewise.
                0.5 * u * u.abs()
            }
        }
        sqrt_a * (antideriv(u1, k) - antideriv(u0, k))
    }

    proptest! {
        /// The one-logarithm kernel agrees with the two-`asinh` oracle
        /// on displacements from millimetres to kilometres.
        #[test]
        fn kernel_matches_two_asinh_oracle(
            c in (-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64),
            e in (-3.0..3.0f64, -3.0..3.0f64),
        ) {
            let (s0, s1) = (10f64.powf(e.0), 10f64.powf(e.1));
            let (d0, d1) = (Vec2::new(c.0 * s0, c.1 * s0), Vec2::new(c.2 * s1, c.3 * s1));
            let got = mean_linear_displacement(d0, d1);
            let want = two_asinh_oracle(d0, d1);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want,
                "kernel={got} oracle={want} d0={d0:?} d1={d1:?}"
            );
        }
    }

    #[test]
    fn near_parallel_underflow_stays_finite() {
        // k² underflows (to 0 in the first pair, to a subnormal in the
        // second) on straddling intervals: dividing by it would give NaN
        // and inf; the parallel formula gives the exact mean of the vee.
        for (d0, d1, want) in [
            (Vec2::new(-1.0, 1e-170), Vec2::new(1.0, 1e-170), 0.5),
            (Vec2::new(-0.3, 1e-160), Vec2::new(0.7, 1e-160), 0.29),
        ] {
            let got = mean_linear_displacement(d0, d1);
            assert!(approx_eq(got, want, 0.0, 1e-15), "{d0:?} → {d1:?}: {got}");
        }
    }

    #[test]
    fn near_translation_matches_taylor() {
        // |w|/|δ₀| ≈ 1e-10, just above the translation threshold. The
        // three-term expansion of ∫₀¹ |δ₀ + s·w| ds in w truncates at about
        // (|w|/|δ₀|)³ relative.
        for (d0, w) in [
            (Vec2::new(300.0, 400.0), Vec2::new(4e-8, 3e-8)),
            (Vec2::new(3.0, 4.0), Vec2::new(2e-10, 1e-10)),
            (Vec2::new(-700.0, 250.0), Vec2::new(1e-8, 5e-8)),
        ] {
            let d1 = d0 + w;
            // The kernel sees the rounded difference.
            let w = d1 - d0;
            let (n, dw) = (d0.norm(), d0.dot(w));
            let taylor =
                n + dw / (2.0 * n) + (n * n * w.norm_sq() - dw * dw) / (6.0 * n * n * n);
            let got = mean_linear_displacement(d0, d1);
            assert!(
                approx_eq(got, taylor, 0.0, 1e-12),
                "{d0:?} + {w:?}: kernel={got} taylor={taylor}"
            );
        }
    }

    #[test]
    fn identical_trajectories_have_zero_error() {
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 50.0, 30.0), (20.0, 90.0, -10.0)]);
        assert!(average_synchronous_error(&p, &p) < 1e-12);
        assert!(max_synchronous_error(&p, &p) < 1e-12);
    }

    #[test]
    fn translated_trajectory_case_c1_zero() {
        // Paper case c₁ = 0: approximation is a vector translation →
        // error is exactly the translation length everywhere.
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (30.0, 100.0, 200.0)]);
        let a = t(&[(0.0, 3.0, 4.0), (10.0, 103.0, 4.0), (30.0, 103.0, 204.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 5.0, 1e-9, 1e-12));
        assert!(approx_eq(max_synchronous_error(&p, &a), 5.0, 1e-9, 1e-12));
    }

    #[test]
    fn shared_start_case_is_half_final_displacement() {
        // Paper subcase "segments share start point": α over one segment
        // = ½·|δ₁|. p and a both start at the origin at t=0; at t=10 they
        // are 8 m apart.
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 8.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 4.0, 1e-9, 1e-12));
    }

    #[test]
    fn shared_end_case_is_half_initial_displacement() {
        let p = t(&[(0.0, 0.0, 6.0), (10.0, 10.0, 0.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 3.0, 1e-9, 1e-12));
    }

    #[test]
    fn parallel_chords_case_det_zero() {
        // δ₀ = (0, 2), δ₁ = (0, 6): parallel, no sign change →
        // ∫|δ| = mean of a linear function = 4.
        let p = t(&[(0.0, 0.0, 2.0), (10.0, 10.0, 6.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 4.0, 1e-9, 1e-12));
    }

    #[test]
    fn parallel_chords_with_sign_change() {
        // δ goes from (0,-3) to (0,3) linearly: |δ| is a vee; average =
        // (∫₀^½ |−3+6s| ds + …) = 1.5.
        let p = t(&[(0.0, 0.0, -3.0), (10.0, 10.0, 3.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 1.5, 1e-9, 1e-12));
    }

    #[test]
    fn general_case_matches_numeric_integration() {
        let p = t(&[
            (0.0, 0.0, 0.0),
            (10.0, 120.0, 30.0),
            (20.0, 180.0, 140.0),
            (35.0, 60.0, 190.0),
            (50.0, -40.0, 90.0),
        ]);
        let a = t(&[(0.0, 0.0, 0.0), (50.0, -40.0, 90.0)]);
        let closed = average_synchronous_error(&p, &a);
        let numeric = average_synchronous_error_numeric(&p, &a, 1e-10);
        assert!(
            approx_eq(closed, numeric, 1e-6, 1e-9),
            "closed={closed} numeric={numeric}"
        );
        assert!(closed > 0.0);
    }

    #[test]
    fn weighted_average_equation_3() {
        // First segment: displacement grows linearly 2 m → 8 m (parallel
        // chords, same sign ⇒ segment average 5 m) for 10 s; second
        // segment: constant 8 m for 30 s. Equation (3):
        // α = (10·5 + 30·8)/40 = 7.25.
        let p = t(&[(0.0, 0.0, 2.0), (10.0, 100.0, 8.0), (40.0, 400.0, 8.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (40.0, 400.0, 0.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 7.25, 1e-9, 1e-12));
    }

    #[test]
    fn approximation_vertices_inside_p_segments_are_handled() {
        // a has a vertex at t=5, strictly inside p's single segment —
        // the merged elementary intervals must split there.
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (5.0, 5.0, 10.0), (10.0, 10.0, 0.0)]);
        let closed = average_synchronous_error(&p, &a);
        let numeric = average_synchronous_error_numeric(&p, &a, 1e-10);
        assert!(approx_eq(closed, numeric, 1e-7, 1e-9));
        // δ is 0 → 10 → 0 triangle-ish: average must be 5 (linear |δ|).
        assert!(approx_eq(closed, 5.0, 1e-9, 1e-12));
    }

    #[test]
    fn overlap_restriction() {
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0), (20.0, 20.0, 0.0)]);
        // a covers only [5, 15]; constant offset 7 m in y over the overlap.
        let a = t(&[(5.0, 5.0, 7.0), (15.0, 15.0, 7.0)]);
        assert!(approx_eq(average_synchronous_error(&p, &a), 7.0, 1e-9, 1e-12));
        assert!(approx_eq(max_synchronous_error(&p, &a), 7.0, 1e-9, 1e-12));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn disjoint_spans_panic() {
        let p = t(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let a = t(&[(5.0, 0.0, 0.0), (6.0, 1.0, 0.0)]);
        let _ = average_synchronous_error(&p, &a);
    }

    #[test]
    fn sed_at_samples_discrete_statistics() {
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (20.0, 100.0, 100.0)]);
        let a = p.select(&[0, 2]); // straight-line approximation
        let (mean, max) = sed_at_samples(&p, &a);
        let expect = 5000.0f64.sqrt(); // middle sample offset
        // Endpoints have zero SED; only the middle sample contributes.
        assert!(approx_eq(mean, expect / 3.0, 1e-9, 1e-12));
        assert!(approx_eq(max, expect, 1e-9, 1e-12));
    }

    #[test]
    fn sed_quantiles_are_monotone_and_anchored() {
        let p = t(&[
            (0.0, 0.0, 0.0),
            (10.0, 100.0, 0.0),
            (20.0, 100.0, 100.0),
            (30.0, 0.0, 100.0),
            (40.0, 0.0, 0.0),
        ]);
        let a = p.select(&[0, 4]);
        let qs = sed_quantiles(&p, &a, &[0.0, 0.5, 0.95, 1.0]);
        assert_eq!(qs.len(), 4);
        for w in qs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "quantiles not monotone: {qs:?}");
        }
        // q=1.0 is the max sample SED.
        let (_, max) = sed_at_samples(&p, &a);
        assert!(approx_eq(qs[3], max, 1e-12, 1e-12));
        // q=0.0 is the min sample SED (an endpoint → 0).
        assert!(qs[0] < 1e-12);
    }

    #[test]
    fn sed_quantiles_empty_when_disjoint_samples() {
        let p = t(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let a = t(&[(5.0, 0.0, 0.0), (6.0, 1.0, 0.0)]);
        assert!(sed_quantiles(&p, &a, &[0.5]).is_empty());
    }

    #[test]
    #[should_panic(expected = "quantiles")]
    fn sed_quantiles_reject_out_of_range() {
        let p = t(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let _ = sed_quantiles(&p, &p, &[1.5]);
    }

    #[test]
    fn max_sync_error_bounds_average() {
        let p = t(&[
            (0.0, 0.0, 0.0),
            (10.0, 80.0, 40.0),
            (20.0, 10.0, 90.0),
            (30.0, -30.0, 20.0),
        ]);
        let a = p.select(&[0, 3]);
        let avg = average_synchronous_error(&p, &a);
        let max = max_synchronous_error(&p, &a);
        assert!(avg <= max + 1e-9);
        assert!(max > 0.0);
    }

    #[test]
    fn error_profile_reconstructs_alpha() {
        let p = t(&[
            (0.0, 0.0, 0.0),
            (10.0, 80.0, 40.0),
            (20.0, 10.0, 90.0),
            (30.0, -30.0, 20.0),
        ]);
        let a = p.select(&[0, 3]);
        let profile = error_profile(&p, &a);
        assert_eq!(profile.len(), 3, "three original segments");
        // Weighted mean of the profile equals α.
        let total: f64 = profile
            .iter()
            .map(|s| s.mean_m * (s.to - s.from).as_secs())
            .sum();
        let span: f64 = profile.iter().map(|s| (s.to - s.from).as_secs()).sum();
        let alpha = average_synchronous_error(&p, &a);
        assert!(approx_eq(total / span, alpha, 1e-9, 1e-12));
        // Profile max equals the global max.
        let pmax = profile.iter().map(|s| s.max_m).fold(0.0f64, f64::max);
        assert!(approx_eq(pmax, max_synchronous_error(&p, &a), 1e-9, 1e-12));
        // Per-interval: mean ≤ max; intervals tile the span.
        for s in &profile {
            assert!(s.mean_m <= s.max_m + 1e-9);
        }
        for w in profile.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }

    #[test]
    fn integrated_distance_scales_with_duration() {
        // Constant 2 m offset over 40 s → 80 m·s.
        let p = t(&[(0.0, 0.0, 2.0), (40.0, 100.0, 2.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (40.0, 100.0, 0.0)]);
        assert!(approx_eq(integrated_synchronous_distance(&p, &a), 80.0, 1e-9, 1e-12));
    }

    /// The paper-case counters must attribute known geometries to the
    /// right branch of the α case analysis. The registry is global and
    /// tests run in parallel, so assertions are on monotone deltas.
    #[cfg(feature = "obs")]
    #[test]
    fn case_counters_fire_for_known_geometries() {
        let translation = traj_obs::registry().counter("error", "alpha_case_translation");
        let parallel = traj_obs::registry().counter("error", "alpha_case_parallel");
        let general = traj_obs::registry().counter("error", "alpha_case_general");

        // Pure translation (c₁ = 0), two segments → two translation hits.
        let t0 = translation.get();
        let p = t(&[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (30.0, 100.0, 200.0)]);
        let a = t(&[(0.0, 3.0, 4.0), (10.0, 103.0, 4.0), (30.0, 103.0, 204.0)]);
        let _ = average_synchronous_error(&p, &a);
        assert!(
            translation.get() >= t0 + 2,
            "both segments of a translated trajectory are case c1=0"
        );

        // Parallel displacements (det = 0) with a genuine direction
        // change: δ₀ = (0,2) ∥ δ₁ = (0,6).
        let p0 = parallel.get();
        let p = t(&[(0.0, 0.0, 2.0), (10.0, 10.0, 6.0)]);
        let a = t(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]);
        let _ = average_synchronous_error(&p, &a);
        assert!(parallel.get() > p0, "parallel chords are the det=0 case");

        // Nearly parallel, with k² below the smallest normal float: the
        // kernel takes the parallel formula.
        let p0 = parallel.get();
        let _ = mean_linear_displacement(Vec2::new(-0.3, 1e-160), Vec2::new(0.7, 1e-160));
        assert!(parallel.get() > p0, "an underflowing k² is the det=0 case");

        // Non-degenerate displacement pair → the general case.
        let g0 = general.get();
        let p = t(&[(0.0, 0.0, 5.0), (10.0, 10.0, 0.0)]);
        let a = t(&[(0.0, 4.0, 0.0), (10.0, 10.0, 7.0)]);
        let _ = average_synchronous_error(&p, &a);
        assert!(general.get() > g0, "skew displacements are the general case");
    }

    #[test]
    fn tiny_interval_numerical_stability() {
        // Sub-millisecond segments with near-identical displacements must
        // not produce NaN.
        let p = t(&[(0.0, 0.0, 1e-9), (1e-3, 1e-3, 1e-9)]);
        let a = t(&[(0.0, 0.0, 0.0), (1e-3, 1e-3, 0.0)]);
        let e = average_synchronous_error(&p, &a);
        assert!(e.is_finite());
        assert!(approx_eq(e, 1e-9, 1e-12, 1e-6));
    }
}
