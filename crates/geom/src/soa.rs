//! Structure-of-arrays trajectory view and batched distance kernels.
//!
//! The compression hot paths scan one chord `lo → hi` against every
//! interior point. Walking an array-of-structs (`&[Fix]`) point-by-point
//! interleaves timestamps with coordinates in each cache line and hides
//! the loop's data parallelism from the compiler. [`TrajView`] exposes
//! the same series as three contiguous `f64` columns, and the
//! `*_dists_into` kernels below compute a whole run of distances into a
//! caller-provided slice: a branch-free elementwise loop over same-typed
//! columns that LLVM autovectorizes (including the `sqrt`).
//!
//! ## Bit-identity contract
//!
//! Every kernel replicates the scalar reference — [`crate::Segment`]
//! methods and the `Fix` interpolation in `traj-model` — operation for
//! operation: the chord-invariant subexpressions (time span, chord
//! direction, chord length, the degenerate-chord guard) are hoisted out
//! of the loop *because they are loop-invariant, not re-associated*, and
//! the per-point sequence (ratio division, lerp, difference, square,
//! add, `sqrt`) is unchanged. IEEE 754 operations are deterministic, so
//! hoisting an invariant computation yields the same bits as recomputing
//! it, and the outputs are bitwise equal to the scalar path. The
//! equivalence is pinned by proptests here and end-to-end over every
//! registered compressor in `traj-compress`.
//!
//! There is one kernel per distance: [`sed_dists_into`] and
//! [`perp_dists_into`]. Each is a checked, index-free body behind a
//! wrapper that turns an out-of-bounds range into the documented panic.

use crate::numeric::approx_zero;

/// A borrowed structure-of-arrays view of a trajectory: timestamps and
/// coordinates as three parallel `f64` columns.
///
/// Columns are built once per trajectory by `traj-model`'s
/// `TrajColumns` and reused across thresholds; all three slices have
/// equal length and `ts` is expected to be strictly increasing (the
/// invariant of a validated trajectory), though the kernels themselves
/// only require equal lengths.
#[derive(Debug, Clone, Copy)]
pub struct TrajView<'a> {
    /// Sample instants, seconds.
    pub ts: &'a [f64],
    /// Easting coordinates, metres.
    pub xs: &'a [f64],
    /// Northing coordinates, metres.
    pub ys: &'a [f64],
}

impl<'a> TrajView<'a> {
    /// Wraps three equal-length columns.
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn new(ts: &'a [f64], xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert!(
            ts.len() == xs.len() && ts.len() == ys.len(),
            "column lengths differ: ts={} xs={} ys={}",
            ts.len(),
            xs.len(),
            ys.len()
        );
        TrajView { ts, xs, ys }
    }

    /// Number of points in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the view holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// Writes the synchronized Euclidean distance of points
/// `start .. start + out.len()` against the chord `lo → hi` into `out`.
///
/// Replicates `Fix::interpolate(a, b, p.t).distance(p.pos)` bit for bit
/// (see the module docs); with a zero-duration chord every point
/// measures against the chord start, exactly as the scalar
/// interpolation's degenerate branch does.
///
/// # Panics
/// Panics if `lo`, `hi`, or the `start .. start + out.len()` range is
/// out of bounds for the view.
#[inline]
pub fn sed_dists_into(v: TrajView<'_>, lo: usize, hi: usize, start: usize, out: &mut [f64]) {
    sed_checked(v, lo, hi, start, out)
        // lint: allow(panic) out-of-bounds ranges are caller bugs; the
        // documented panic is the contract, the checked body never panics
        .expect("sed_dists_into: chord or point range out of bounds for the view");
}

/// Body of [`sed_dists_into`] with every lookup checked — `None`
/// means an out-of-bounds chord or point range (a caller bug the public
/// wrapper turns into the documented panic). Keeping the kernel itself
/// free of indexing makes it provably panic-free under
/// `cargo xtask reach`.
fn sed_checked(
    v: TrajView<'_>,
    lo: usize,
    hi: usize,
    start: usize,
    out: &mut [f64],
) -> Option<()> {
    let (&ta, &ax, &ay) = (v.ts.get(lo)?, v.xs.get(lo)?, v.ys.get(lo)?);
    let end = start.checked_add(out.len())?;
    let (xs, ys) = (v.xs.get(start..end)?, v.ys.get(start..end)?);
    let span = *v.ts.get(hi)? - ta;
    if approx_zero(span, 0.0) {
        // Degenerate chord: interpolate() returns the chord start.
        for (o, (&px, &py)) in out.iter_mut().zip(xs.iter().zip(ys)) {
            let dx = ax - px;
            let dy = ay - py;
            *o = (dx * dx + dy * dy).sqrt();
        }
        return Some(());
    }
    let bax = *v.xs.get(hi)? - ax;
    let bay = *v.ys.get(hi)? - ay;
    let ts = v.ts.get(start..end)?;
    for (o, (&t, (&px, &py))) in out.iter_mut().zip(ts.iter().zip(xs.iter().zip(ys))) {
        let f = (t - ta) / span;
        let ix = ax + bax * f;
        let iy = ay + bay * f;
        let dx = ix - px;
        let dy = iy - py;
        *o = (dx * dx + dy * dy).sqrt();
    }
    Some(())
}

/// Writes the perpendicular distance of points
/// `start .. start + out.len()` to the infinite line through points `lo`
/// and `hi` into `out`.
///
/// Replicates `Segment::line_distance` bit for bit: hoisted chord
/// direction and length, `|cross| / len` per point, and the coincident
/// endpoint fallback to plain point distance.
///
/// # Panics
/// Panics if `lo`, `hi`, or the `start .. start + out.len()` range is
/// out of bounds for the view.
#[inline]
pub fn perp_dists_into(v: TrajView<'_>, lo: usize, hi: usize, start: usize, out: &mut [f64]) {
    perp_checked(v, lo, hi, start, out)
        // lint: allow(panic) see sed_dists_into: the documented
        // panic is the out-of-bounds contract, the checked body never panics
        .expect("perp_dists_into: chord or point range out of bounds for the view");
}

/// Checked body of [`perp_dists_into`]; see [`sed_checked`] for the
/// `Option` convention.
fn perp_checked(
    v: TrajView<'_>,
    lo: usize,
    hi: usize,
    start: usize,
    out: &mut [f64],
) -> Option<()> {
    let (&ax, &ay) = (v.xs.get(lo)?, v.ys.get(lo)?);
    let dx = *v.xs.get(hi)? - ax;
    let dy = *v.ys.get(hi)? - ay;
    let len = (dx * dx + dy * dy).sqrt();
    let end = start.checked_add(out.len())?;
    let (xs, ys) = (v.xs.get(start..end)?, v.ys.get(start..end)?);
    if approx_zero(len, 0.0) {
        for (o, (&px, &py)) in out.iter_mut().zip(xs.iter().zip(ys)) {
            let ex = ax - px;
            let ey = ay - py;
            *o = (ex * ex + ey * ey).sqrt();
        }
        return Some(());
    }
    for (o, (&px, &py)) in out.iter_mut().zip(xs.iter().zip(ys)) {
        let cross = dx * (py - ay) - dy * (px - ax);
        *o = cross.abs() / len;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;
    use crate::segment::Segment;
    use proptest::prelude::*;

    fn columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 1000.0 - 500.0
        };
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next()).collect();
        (ts, xs, ys)
    }

    /// Point `i` of the view, read straight from the columns.
    fn pt(v: TrajView<'_>, i: usize) -> Point2 {
        Point2::new(v.xs[i], v.ys[i])
    }

    /// The scalar reference computed through the AoS code path
    /// (`Segment::line_distance`), point by point.
    fn perp_reference(v: TrajView<'_>, lo: usize, hi: usize, i: usize) -> f64 {
        Segment::new(pt(v, lo), pt(v, hi)).line_distance(pt(v, i))
    }

    /// SED through the AoS path: lerp by time ratio, then distance.
    fn sed_reference(v: TrajView<'_>, lo: usize, hi: usize, i: usize) -> f64 {
        let span = v.ts[hi] - v.ts[lo];
        let interp = if approx_zero(span, 0.0) {
            pt(v, lo)
        } else {
            pt(v, lo).lerp(pt(v, hi), (v.ts[i] - v.ts[lo]) / span)
        };
        interp.distance(pt(v, i))
    }

    #[test]
    fn sed_batch_matches_pointwise_reference() {
        let (ts, xs, ys) = columns(200, 7);
        let v = TrajView::new(&ts, &xs, &ys);
        let mut out = vec![0.0; 198];
        sed_dists_into(v, 0, 199, 1, &mut out);
        for (k, &d) in out.iter().enumerate() {
            let want = sed_reference(v, 0, 199, 1 + k);
            assert!(d.to_bits() == want.to_bits(), "i={} got {d} want {want}", 1 + k);
        }
    }

    #[test]
    fn perp_batch_matches_pointwise_reference() {
        let (ts, xs, ys) = columns(200, 8);
        let v = TrajView::new(&ts, &xs, &ys);
        let mut out = vec![0.0; 100];
        perp_dists_into(v, 40, 160, 41, &mut out);
        for (k, &d) in out.iter().enumerate() {
            let want = perp_reference(v, 40, 160, 41 + k);
            assert!(d.to_bits() == want.to_bits(), "i={} got {d} want {want}", 41 + k);
        }
    }

    #[test]
    fn degenerate_chord_measures_against_start() {
        // Duplicate timestamps at lo/hi: zero span routes through the
        // interpolate-degenerate branch (distance to the chord start).
        let ts = vec![5.0, 6.0, 5.0];
        let xs = vec![0.0, 3.0, 10.0];
        let ys = vec![0.0, 4.0, 0.0];
        let v = TrajView::new(&ts, &xs, &ys);
        let mut out = [0.0];
        sed_dists_into(v, 0, 2, 1, &mut out);
        assert_eq!(out[0], 5.0);
        // Coincident endpoints: perpendicular falls back to point
        // distance.
        let xs2 = vec![0.0, 3.0, 0.0];
        let ys2 = vec![0.0, 4.0, 0.0];
        let v2 = TrajView::new(&ts, &xs2, &ys2);
        let mut out2 = [0.0];
        perp_dists_into(v2, 0, 2, 1, &mut out2);
        assert_eq!(out2[0], 5.0);
    }

    #[test]
    fn view_accessors() {
        let (ts, xs, ys) = columns(5, 1);
        let v = TrajView::new(&ts, &xs, &ys);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        let empty = TrajView::new(&[], &[], &[]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "column lengths differ")]
    fn mismatched_columns_rejected() {
        let _ = TrajView::new(&[0.0], &[0.0, 1.0], &[0.0]);
    }

    proptest! {
        /// Batched kernels equal the pointwise AoS reference bit for bit
        /// on arbitrary finite columns and chords.
        #[test]
        fn batched_kernels_match_reference(
            pts in prop::collection::vec(
                (0.0f64..1e6, -1e6f64..1e6, -1e6f64..1e6), 3..80),
            sel in prop::collection::vec(any::<prop::sample::Index>(), 2),
        ) {
            let ts: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let xs: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.2).collect();
            let v = TrajView::new(&ts, &xs, &ys);
            let n = pts.len();
            let mut ends = [sel[0].index(n), sel[1].index(n)];
            ends.sort_unstable();
            let [lo, hi] = ends;
            prop_assume!(hi > lo + 1);
            let m = hi - lo - 1;
            let mut sed_out = vec![0.0; m];
            let mut perp_out = vec![0.0; m];
            sed_dists_into(v, lo, hi, lo + 1, &mut sed_out);
            perp_dists_into(v, lo, hi, lo + 1, &mut perp_out);
            for k in 0..m {
                let i = lo + 1 + k;
                prop_assert_eq!(sed_out[k].to_bits(), sed_reference(v, lo, hi, i).to_bits());
                prop_assert_eq!(perp_out[k].to_bits(), perp_reference(v, lo, hi, i).to_bits());
            }
        }
    }
}
