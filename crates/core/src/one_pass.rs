//! One-pass SED simplification with a strict error bound: OP-FIT and
//! OP-CONE.
//!
//! The paper's best spatiotemporal compressors pay for the synchronized
//! Euclidean distance with an `O(N²)` worst case: OPW-TR re-checks its
//! whole open window per float advance, TD-TR rescans intervals per
//! split. Lin et al., *"One-Pass Trajectory Simplification Using the
//! Synchronous Euclidean Distance"* (arXiv 1801.05360), observe that the
//! SED constraint can be carried forward instead of re-evaluated: each
//! processed point contributes one convex constraint on the *average
//! velocity* of the open segment, and a candidate end point is feasible
//! iff its average velocity satisfies every constraint seen so far.
//!
//! ## The velocity-space transformation
//!
//! Fix an anchor `a` and write `cᵢ = tᵢ − t_a` for a later point `i`.
//! If the open segment eventually ends at point `e`, the approximation
//! travels with constant average velocity `v = (P_e − P_a) / c_e` and
//! the synchronized position at `tᵢ` is `P_a + v·cᵢ`. Hence
//!
//! ```text
//! SEDᵢ = ‖P_a + v·cᵢ − Pᵢ‖ = cᵢ · ‖v − uᵢ‖,    uᵢ = (Pᵢ − P_a) / cᵢ,
//! ```
//!
//! and `SEDᵢ ≤ ε` is exactly the *disk* constraint `‖v − uᵢ‖ ≤ ε/cᵢ`.
//! A segment `a → e` respects the bound for **every** interior point iff
//! `u_e` lies in the intersection of all interior disks. The algorithms
//! here maintain an *inscribed* convex under-approximation of that
//! intersection in O(1) state:
//!
//! * [`OnePassFit`] (OPERB-style) — intersects the axis-aligned squares
//!   inscribed in the disks, so the fitting region is a single rectangle:
//!   four floats, O(1) per point.
//! * [`OnePassCone`] (CISED-style) — intersects the regular `m`-gons
//!   inscribed in the disks. Because every `m`-gon uses the same `m`
//!   fixed edge directions, the intersection keeps one tightest offset
//!   per direction: `m` floats, O(m) per point, and a tighter region
//!   (less early closing, better compression) as `m` grows.
//!
//! Using inscribed subregions keeps both *sound*: the region is a subset
//! of the true disk intersection, so an accepted end point can only be
//! conservative — the declared SED bound is **strict** for every emitted
//! segment, unlike OPW-TR's final forced segment or bottom-up's merge
//! heuristic. The price is that a region may close slightly before the
//! exact disk intersection would have, keeping a few more points.
//!
//! Both kernels process each input point at most twice (once against the
//! old anchor, once against a fresh one after a close), giving true
//! `O(N)` batch complexity and an O(1)-state streaming form
//! ([`crate::streaming::OnePassStream`]) that is bit-identical to the
//! batch kernels. See `DESIGN.md` §2e for the invariant write-up.

use crate::obs::AlgoRun;
use crate::result::{CompressionResult, CompressionResultBuf, Compressor};
use crate::workspace::Workspace;
use traj_geom::Vec2;
use traj_model::{Fix, Trajectory};

/// A convex under-approximation of the feasible average-velocity set of
/// the open segment (the "fitting region").
///
/// Implementations must keep the region a subset of the intersection of
/// every disk passed to [`Region::add`] since the last
/// [`Region::reset`]; that subset property is what makes the one-pass
/// bound strict.
pub(crate) trait Region {
    /// Restores the region to the whole plane (fresh anchor).
    fn reset(&mut self);
    /// Whether velocity `u` satisfies every constraint added so far.
    fn contains(&self, u: Vec2) -> bool;
    /// Intersects the region with (an inscribed subset of) the disk of
    /// radius `r` centred at `u`.
    fn add(&mut self, u: Vec2, r: f64);
}

/// Rectangular fitting region: the intersection of the axis-aligned
/// squares inscribed in the constraint disks (half-width `r/√2`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FitRegion {
    lo_x: f64,
    hi_x: f64,
    lo_y: f64,
    hi_y: f64,
}

impl FitRegion {
    /// The unconstrained region (whole velocity plane).
    pub(crate) fn new() -> Self {
        FitRegion {
            lo_x: f64::NEG_INFINITY,
            hi_x: f64::INFINITY,
            lo_y: f64::NEG_INFINITY,
            hi_y: f64::INFINITY,
        }
    }
}

impl Region for FitRegion {
    #[inline]
    fn reset(&mut self) {
        *self = FitRegion::new();
    }

    #[inline]
    fn contains(&self, u: Vec2) -> bool {
        self.lo_x <= u.x && u.x <= self.hi_x && self.lo_y <= u.y && u.y <= self.hi_y
    }

    #[inline]
    fn add(&mut self, u: Vec2, r: f64) {
        let h = r * std::f64::consts::FRAC_1_SQRT_2;
        self.lo_x = self.lo_x.max(u.x - h);
        self.hi_x = self.hi_x.min(u.x + h);
        self.lo_y = self.lo_y.max(u.y - h);
        self.hi_y = self.hi_y.min(u.y + h);
    }
}

/// Fills `dirs` with the `m` unit edge normals shared by every inscribed
/// `m`-gon: `(cos θₖ, sin θₖ)` for `θₖ = 2πk/m`.
pub(crate) fn cone_directions(m: usize, dirs: &mut Vec<(f64, f64)>) {
    dirs.clear();
    dirs.extend((0..m).map(|k| {
        let (s, c) = (2.0 * std::f64::consts::PI * k as f64 / m as f64).sin_cos();
        (c, s)
    }));
}

/// Apothem factor of a regular `m`-gon inscribed in the unit circle: the
/// polygon `{v : nₖ·(v−u) ≤ r·cos(π/m)}` has its vertices *on* the
/// circle of radius `r`, hence is contained in the disk.
pub(crate) fn cone_apothem(m: usize) -> f64 {
    (std::f64::consts::PI / m as f64).cos()
}

/// Polygonal fitting region: the intersection of regular `m`-gons
/// inscribed in the constraint disks.
///
/// All `m`-gons share the same `m` edge directions, so their
/// intersection is again an `m`-direction polygon and one offset per
/// direction suffices — `dirs`/`off` are borrowed (from a
/// [`Workspace`] in the batch kernel, from owned buffers in the stream)
/// so the hot path allocates nothing.
#[derive(Debug)]
pub(crate) struct ConeRegion<'a> {
    pub(crate) dirs: &'a [(f64, f64)],
    pub(crate) off: &'a mut [f64],
    pub(crate) apothem: f64,
}

impl Region for ConeRegion<'_> {
    #[inline]
    fn reset(&mut self) {
        for o in self.off.iter_mut() {
            *o = f64::INFINITY;
        }
    }

    // No data-dependent branch in either loop: `contains` folds every test
    // (a point is almost always inside); `add` stores a select (NaN keeps d).
    #[inline]
    fn contains(&self, u: Vec2) -> bool {
        let mut inside = true;
        for (&(nx, ny), &d) in self.dirs.iter().zip(self.off.iter()) {
            inside &= nx * u.x + ny * u.y <= d;
        }
        inside
    }

    #[inline]
    fn add(&mut self, u: Vec2, r: f64) {
        let a = r * self.apothem;
        for (&(nx, ny), d) in self.dirs.iter().zip(self.off.iter_mut()) {
            let nd = nx * u.x + ny * u.y + a;
            *d = if nd < *d { nd } else { *d };
        }
    }
}

/// `(cᵢ, uᵢ)` of `fix` relative to `anchor`: elapsed seconds and average
/// velocity. Callers guarantee `fix.t > anchor.t` (validated trajectories
/// and streams are strictly monotonic), so `c > 0`.
#[inline]
fn rel(anchor: &Fix, fix: &Fix) -> (f64, Vec2) {
    let c = fix.t.as_secs() - anchor.t.as_secs();
    (c, (fix.pos - anchor.pos) / c)
}

/// One step of the shared one-pass loop, used verbatim by both batch
/// kernels and [`crate::streaming::OnePassStream`] (which is what makes
/// streaming ≡ batch bit-identical).
///
/// `prev` is the most recently accepted point (a feasible segment end).
/// If `fix`'s average velocity lies in the region, `fix` becomes the new
/// candidate end and contributes its constraint; otherwise the segment
/// *closes at `prev`* — `prev` becomes the new anchor (the caller emits
/// it), the region restarts, and `fix` is re-processed against the fresh
/// anchor (trivially feasible, so every point is handled at most twice).
/// Returns `true` on a close.
///
/// A region that has absorbed no point (`prev` is the anchor) accepts
/// `fix` whatever its velocity: the segment anchor → `fix` covers no
/// point, and closing would close at the anchor itself. The half-plane
/// tests alone would refuse a velocity with an infinite component (finite
/// coordinates whose difference overflows), since `0·∞` is NaN.
#[inline]
pub(crate) fn one_pass_step<R: Region>(
    region: &mut R,
    epsilon: f64,
    anchor: &mut Fix,
    prev: &mut Fix,
    fix: Fix,
) -> bool {
    let (c, u) = rel(anchor, &fix);
    if prev.t == anchor.t || region.contains(u) {
        // Feasible end point: record it, then constrain future ends by
        // its own disk (it is interior to any longer segment).
        region.add(u, epsilon / c);
        *prev = fix;
        false
    } else {
        *anchor = *prev;
        region.reset();
        let (c2, u2) = rel(anchor, &fix);
        region.add(u2, epsilon / c2);
        *prev = fix;
        true
    }
}

/// Shared batch driver: runs the one-pass loop over `traj` with the
/// given region, writing kept indices into `out`.
fn batch_kernel<R: Region>(
    region: &mut R,
    epsilon: f64,
    family: &'static str,
    traj: &Trajectory,
    out: &mut CompressionResultBuf,
) {
    let n = traj.len();
    if n <= 2 {
        out.set_identity(n);
        return;
    }
    let _span = traj_obs::trace_span!("onepass.compress", n);
    let mut run = AlgoRun::new();
    let fixes = traj.fixes();
    out.reset(n);
    out.kept.push(0);
    let mut anchor = fixes[0];
    let mut prev = fixes[0];
    for (j, &fix) in fixes.iter().enumerate().skip(1) {
        run.sed_evals(1);
        run.op_check();
        if one_pass_step(region, epsilon, &mut anchor, &mut prev, fix) {
            run.op_close();
            out.kept.push(j - 1);
        }
    }
    // The open tail segment ends at the final point, which is always
    // kept (same countermeasure as the opening-window family) — and is a
    // *checked* feasible end here, so the bound stays strict.
    if out.kept.last() != Some(&(n - 1)) {
        out.kept.push(n - 1);
    }
    run.flush(family, n, out.kept.len());
}

pub(crate) fn validate_epsilon(epsilon: f64) {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "one-pass epsilon must be finite and >= 0, got {epsilon}"
    );
}

/// **OP-FIT** — OPERB-style one-pass SED simplifier with a rectangular
/// fitting region.
///
/// `O(N)` time, O(1) state, and a *strict* bound: every point dropped
/// from an emitted segment has synchronized Euclidean distance ≤ the
/// declared `epsilon` against that segment (pinned by proptests).
///
/// ```
/// use traj_compress::{Compressor, OnePassFit, sed};
/// use traj_model::Trajectory;
///
/// let t = Trajectory::from_triples((0..100).map(|i| {
///     let s = f64::from(i) * 10.0;
///     (s, s * 12.0, f64::from(i % 7) * 8.0)
/// })).unwrap();
/// let r = OnePassFit::new(30.0).compress(&t);
/// assert!(r.kept_len() < t.len());
/// let f = t.fixes();
/// for w in r.kept().windows(2) {
///     for i in w[0] + 1..w[1] {
///         assert!(sed(&f[w[0]], &f[w[1]], &f[i]) <= 30.0 + 1e-9);
///     }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePassFit {
    epsilon: f64,
}

impl OnePassFit {
    /// Creates an OP-FIT simplifier with a strict SED bound of
    /// `epsilon` metres.
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        validate_epsilon(epsilon);
        OnePassFit { epsilon }
    }

    /// The declared SED bound, metres.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Compressor for OnePassFit {
    fn name(&self) -> String {
        format!("op-fit({}m)", self.epsilon)
    }

    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        self.compress_into(traj, &mut ws, &mut out);
        out.take()
    }

    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        ws.begin(traj.len());
        let mut region = FitRegion::new();
        batch_kernel(&mut region, self.epsilon, "op-fit", traj, out);
    }
}

/// Default direction count of [`OnePassCone`]: a 16-gon keeps ~98 % of
/// each disk's radius (`cos(π/16) ≈ 0.981`) at 16 floats of state.
pub const CONE_DIRECTIONS: usize = 16;

/// **OP-CONE** — CISED-style one-pass SED simplifier intersecting
/// inscribed regular `m`-gons.
///
/// Same strict bound and `O(N)` complexity as [`OnePassFit`]; the
/// polygonal region hugs the true disk intersection more closely
/// (apothem `cos(π/m)` vs the square's `1/√2`), so it typically closes
/// later and compresses more, at O(m) work per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePassCone {
    epsilon: f64,
    directions: usize,
}

impl OnePassCone {
    /// Creates an OP-CONE simplifier with a strict SED bound of
    /// `epsilon` metres and the default [`CONE_DIRECTIONS`] directions.
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        OnePassCone::with_directions(epsilon, CONE_DIRECTIONS)
    }

    /// Creates an OP-CONE simplifier with `m` polygon directions,
    /// clamped to `4..=64`. More directions → tighter region → better
    /// compression, at proportionally more work per point.
    ///
    /// # Panics
    /// Panics on non-finite or negative `epsilon`.
    pub fn with_directions(epsilon: f64, m: usize) -> Self {
        validate_epsilon(epsilon);
        OnePassCone { epsilon, directions: m.clamp(4, 64) }
    }

    /// The declared SED bound, metres.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The polygon direction count `m`.
    pub fn directions(&self) -> usize {
        self.directions
    }
}

impl Compressor for OnePassCone {
    fn name(&self) -> String {
        format!("op-cone({}m,{}d)", self.epsilon, self.directions)
    }

    fn compress(&self, traj: &Trajectory) -> CompressionResult {
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        self.compress_into(traj, &mut ws, &mut out);
        out.take()
    }

    fn compress_into(&self, traj: &Trajectory, ws: &mut Workspace, out: &mut CompressionResultBuf) {
        ws.begin(traj.len());
        cone_directions(self.directions, &mut ws.cone_dirs);
        ws.cone_off.clear();
        ws.cone_off.resize(self.directions, f64::INFINITY);
        let mut region = ConeRegion {
            dirs: &ws.cone_dirs,
            off: &mut ws.cone_off,
            apothem: cone_apothem(self.directions),
        };
        batch_kernel(&mut region, self.epsilon, "op-cone", traj, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sed;

    fn zigzag() -> Trajectory {
        let mut triples = Vec::new();
        let mut t = 0.0;
        let (mut x, mut y) = (0.0, 0.0);
        for leg in 0..4 {
            for _ in 0..5 {
                triples.push((t, x, y));
                t += 10.0;
                if leg % 2 == 0 {
                    x += 100.0;
                } else {
                    y += 100.0;
                }
            }
        }
        triples.push((t, x, y));
        Trajectory::from_triples(triples).unwrap()
    }

    fn all() -> Vec<Box<dyn Compressor>> {
        vec![Box::new(OnePassFit::new(25.0)), Box::new(OnePassCone::new(25.0))]
    }

    #[test]
    fn straight_constant_speed_collapses_to_endpoints() {
        let t = Trajectory::from_triples((0..50).map(|i| (i as f64 * 10.0, i as f64 * 80.0, 0.0)))
            .unwrap();
        for c in all() {
            let r = c.compress(&t);
            assert_eq!(r.kept(), &[0, 49], "{}", c.name());
        }
    }

    #[test]
    fn strict_sed_bound_on_zigzag() {
        let t = zigzag();
        let f = t.fixes();
        for c in all() {
            let r = c.compress(&t);
            assert!(r.kept_len() < t.len(), "{} should compress", c.name());
            for w in r.kept().windows(2) {
                for i in w[0] + 1..w[1] {
                    let d = sed(&f[w[0]], &f[w[1]], &f[i]);
                    assert!(d <= 25.0 + 1e-9, "{}: point {i} deviates {d}", c.name());
                }
            }
        }
    }

    #[test]
    fn epsilon_zero_is_sound() {
        // eps = 0 shrinks every region to (at most) a point; collinear
        // constant-velocity runs still compress, nothing violates.
        let t = Trajectory::from_triples((0..20).map(|i| (i as f64, i as f64 * 5.0, 0.0)))
            .unwrap();
        for c in [
            Box::new(OnePassFit::new(0.0)) as Box<dyn Compressor>,
            Box::new(OnePassCone::new(0.0)),
        ] {
            let r = c.compress(&t);
            assert_eq!(r.kept(), &[0, 19], "{}", c.name());
        }
    }

    #[test]
    fn a_fresh_region_accepts_its_first_point_whatever_its_velocity() {
        // Finite coordinates whose difference overflows: the velocity to
        // the second fix is (0, −∞), and a half-plane test `1·0 + 0·(−∞)`
        // is NaN, so the fresh cone region refuses it. Closing there
        // would close at the anchor itself and keep index 0 twice.
        let t = Trajectory::from_triples([(0.0, 0.0, 1e308), (1.0, 0.0, -1e308), (2.0, 0.0, 0.0)])
            .unwrap();
        for c in all() {
            let r = c.compress(&t);
            assert!(r.kept().windows(2).all(|w| w[0] < w[1]), "{}: {:?}", c.name(), r.kept());
            assert_eq!(r.kept(), &[0, 1, 2], "{}", c.name());
        }
    }

    #[test]
    fn degenerate_inputs_are_identity() {
        let one = Trajectory::from_triples([(0.0, 1.0, 2.0)]).unwrap();
        let two = Trajectory::from_triples([(0.0, 0.0, 0.0), (5.0, 9.0, 9.0)]).unwrap();
        for c in all() {
            assert_eq!(c.compress(&one).kept_len(), 1, "{}", c.name());
            assert_eq!(c.compress(&two).kept_len(), 2, "{}", c.name());
        }
    }

    #[test]
    fn compress_into_matches_compress_with_dirty_workspace() {
        let t = zigzag();
        let mut ws = Workspace::new();
        let mut out = CompressionResultBuf::new();
        for c in all() {
            // Dirty the cone buffers deliberately between runs.
            ws.cone_off.push(-42.0);
            c.compress_into(&t, &mut ws, &mut out);
            assert_eq!(out.take(), c.compress(&t), "{}", c.name());
        }
    }

    #[test]
    fn cone_with_more_directions_never_loosens_the_bound() {
        let t = zigzag();
        let f = t.fixes();
        for m in [4, 8, 16, 32, 64] {
            let r = OnePassCone::with_directions(25.0, m).compress(&t);
            for w in r.kept().windows(2) {
                for i in w[0] + 1..w[1] {
                    assert!(sed(&f[w[0]], &f[w[1]], &f[i]) <= 25.0 + 1e-9, "m={m}");
                }
            }
        }
    }

    #[test]
    fn direction_count_is_clamped() {
        assert_eq!(OnePassCone::with_directions(10.0, 1).directions(), 4);
        assert_eq!(OnePassCone::with_directions(10.0, 1000).directions(), 64);
        assert_eq!(OnePassCone::new(10.0).directions(), CONE_DIRECTIONS);
    }

    #[test]
    fn names() {
        assert_eq!(OnePassFit::new(30.0).name(), "op-fit(30m)");
        assert_eq!(OnePassCone::new(30.0).name(), "op-cone(30m,16d)");
        assert_eq!(OnePassCone::with_directions(30.0, 8).name(), "op-cone(30m,8d)");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nan_threshold() {
        let _ = OnePassFit::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn cone_rejects_negative_threshold() {
        let _ = OnePassCone::new(-1.0);
    }

    #[test]
    fn inscribed_square_is_inside_the_disk() {
        // The soundness argument rests on inscribed ⊆ disk: a square
        // corner sits at exactly radius r from the centre.
        let mut reg = FitRegion::new();
        reg.add(Vec2::new(0.0, 0.0), 1.0);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(reg.contains(Vec2::new(h - 1e-12, h - 1e-12)));
        assert!(!reg.contains(Vec2::new(h + 1e-12, 0.0)));
        // Corner exactly on the circle.
        assert!((Vec2::new(h, h).norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inscribed_polygon_vertices_touch_the_circle() {
        let m = 16;
        let mut dirs = Vec::new();
        cone_directions(m, &mut dirs);
        let mut off = vec![f64::INFINITY; m];
        let mut reg = ConeRegion { dirs: &dirs, off: &mut off, apothem: cone_apothem(m) };
        reg.add(Vec2::new(0.0, 0.0), 1.0);
        // Apothem direction: boundary at cos(π/m) < 1.
        let a = cone_apothem(m);
        assert!(reg.contains(Vec2::new(a - 1e-12, 0.0)));
        assert!(!reg.contains(Vec2::new(a + 1e-12, 0.0)));
        // Vertex direction (between two normals): boundary at radius 1.
        let th = std::f64::consts::PI / m as f64;
        let v = Vec2::new(th.cos(), th.sin());
        assert!(reg.contains(v * (1.0 - 1e-9)));
        assert!(!reg.contains(v * (1.0 + 1e-9)));
    }
}
