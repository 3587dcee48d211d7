//! Operations over sequences of points interpreted as piecewise-linear
//! paths.

use crate::point::Point2;

/// Total length of the piecewise-linear path through `points`, in metres.
///
/// `+0.0` for fewer than two points.
pub fn polyline_length(points: &[Point2]) -> f64 {
    // Folded from `+0.0`: an empty `f64` sum is `-0.0`, which prints as
    // "-0.000". Every distance is `≥ 0`, so the seed changes no other sum.
    points.windows(2).fold(0.0, |acc, w| acc + w[0].distance(w[1]))
}

/// Cumulative arc length at every vertex: `out[0] = 0`,
/// `out[i] = out[i-1] + |p[i-1] p[i]|`.
///
/// Empty input yields an empty vector.
pub fn cumulative_lengths(points: &[Point2]) -> Vec<f64> {
    let mut out = Vec::with_capacity(points.len());
    let mut acc = 0.0;
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            acc += points[i - 1].distance(*p);
        }
        out.push(acc);
    }
    out
}

/// Point at arc-length `s` along the path (clamped to the path's ends).
///
/// Returns `None` for an empty path.
pub fn point_at_length(points: &[Point2], s: f64) -> Option<Point2> {
    let (first, rest) = points.split_first()?;
    if s <= 0.0 || rest.is_empty() {
        return Some(*first);
    }
    let mut remaining = s;
    let mut prev = *first;
    for &p in rest {
        let seg = prev.distance(p);
        if remaining <= seg {
            if crate::numeric::approx_zero(seg, 0.0) {
                return Some(p);
            }
            return Some(prev.lerp(p, remaining / seg));
        }
        remaining -= seg;
        prev = p;
    }
    Some(prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> Vec<Point2> {
        vec![Point2::new(0.0, 0.0), Point2::new(3.0, 0.0), Point2::new(3.0, 4.0)]
    }

    #[test]
    fn length_of_l_shape() {
        assert_eq!(polyline_length(&l_path()), 7.0);
        // `+0.0` bit for bit, not the `-0.0` of an empty `f64` sum.
        assert_eq!(polyline_length(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(polyline_length(&[Point2::ORIGIN]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn cumulative_lengths_match_prefix_sums() {
        assert_eq!(cumulative_lengths(&l_path()), vec![0.0, 3.0, 7.0]);
        assert!(cumulative_lengths(&[]).is_empty());
    }

    #[test]
    fn point_at_length_walks_the_path() {
        let p = l_path();
        assert_eq!(point_at_length(&p, 0.0), Some(Point2::new(0.0, 0.0)));
        assert_eq!(point_at_length(&p, 1.5), Some(Point2::new(1.5, 0.0)));
        assert_eq!(point_at_length(&p, 3.0), Some(Point2::new(3.0, 0.0)));
        assert_eq!(point_at_length(&p, 5.0), Some(Point2::new(3.0, 2.0)));
        // Clamped beyond the end.
        assert_eq!(point_at_length(&p, 100.0), Some(Point2::new(3.0, 4.0)));
        // Negative clamps to the start.
        assert_eq!(point_at_length(&p, -1.0), Some(Point2::new(0.0, 0.0)));
        assert_eq!(point_at_length(&[], 1.0), None);
    }

    #[test]
    fn point_at_length_handles_repeated_vertices() {
        let p = vec![Point2::new(0.0, 0.0), Point2::new(0.0, 0.0), Point2::new(2.0, 0.0)];
        assert_eq!(point_at_length(&p, 1.0), Some(Point2::new(1.0, 0.0)));
    }
}
