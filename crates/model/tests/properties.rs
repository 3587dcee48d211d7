//! Property-based tests for the trajectory model.

use proptest::prelude::*;
use traj_model::interp::position_at;
use traj_model::ops::{resample, shift_time, slice_time, translate};
use traj_model::stats::TrajectoryStats;
use traj_model::{io, ModelError, TimeDelta, Timestamp, Trajectory};

/// Strategy: a valid trajectory of 2..=60 fixes with strictly increasing
/// times and bounded coordinates.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    (
        proptest::collection::vec((0.1..30.0f64, -500.0..500.0f64, -500.0..500.0f64), 2..60),
        0.0..1000.0f64,
    )
        .prop_map(|(steps, t0)| {
            let mut t = t0;
            let mut triples = Vec::with_capacity(steps.len());
            for (dt, x, y) in steps {
                triples.push((t, x, y));
                t += dt;
            }
            Trajectory::from_triples(triples).expect("constructed valid")
        })
}

proptest! {
    #[test]
    fn csv_roundtrip(t in trajectory()) {
        let parsed = io::from_csv_str(&io::to_csv_string(&t)).unwrap();
        prop_assert_eq!(parsed.len(), t.len());
        for (a, b) in parsed.fixes().iter().zip(t.fixes()) {
            prop_assert!((a.t.as_secs() - b.t.as_secs()).abs() < 1e-9);
            prop_assert!(a.pos.distance(b.pos) < 1e-9);
        }
    }

    #[test]
    fn position_at_defined_exactly_on_span(t in trajectory(), f in -0.5..1.5f64) {
        let q = t.start_time().lerp(t.end_time(), f);
        let pos = position_at(&t, q);
        prop_assert_eq!(pos.is_some(), t.covers(q));
    }

    #[test]
    fn position_at_vertices_returns_samples(t in trajectory(), idx in any::<prop::sample::Index>()) {
        let f = t.fixes()[idx.index(t.len())];
        let p = position_at(&t, f.t).unwrap();
        prop_assert!(p.distance(f.pos) < 1e-9);
    }

    #[test]
    fn resample_preserves_span_and_endpoint_positions(t in trajectory(), iv in 1.0..40.0f64) {
        let r = resample(&t, TimeDelta::from_secs(iv)).unwrap();
        prop_assert_eq!(r.start_time(), t.start_time());
        prop_assert_eq!(r.end_time(), t.end_time());
        prop_assert!(r.first().pos.distance(t.first().pos) < 1e-9);
        prop_assert!(r.last().pos.distance(t.last().pos) < 1e-9);
    }

    #[test]
    fn resampled_points_lie_on_original_path(t in trajectory(), iv in 1.0..40.0f64) {
        let r = resample(&t, TimeDelta::from_secs(iv)).unwrap();
        for f in r.fixes() {
            let orig = position_at(&t, f.t).unwrap();
            prop_assert!(orig.distance(f.pos) < 1e-6);
        }
    }

    #[test]
    fn slice_is_within_bounds(t in trajectory(), a in 0.0..1.0f64, b in 0.0..1.0f64) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let t0 = t.start_time().lerp(t.end_time(), lo);
        let t1 = t.start_time().lerp(t.end_time(), hi);
        if let Some(s) = slice_time(&t, t0, t1) {
            prop_assert!(s.start_time() >= t0 - TimeDelta::from_secs(1e-9));
            prop_assert!(s.end_time() <= t1 + TimeDelta::from_secs(1e-9));
            // Sliced trajectory agrees with the original everywhere.
            let mid = s.start_time().lerp(s.end_time(), 0.5);
            let a = position_at(&s, mid).unwrap();
            let b = position_at(&t, mid).unwrap();
            prop_assert!(a.distance(b) < 1e-6);
        }
    }

    #[test]
    fn rigid_motions_preserve_stats(t in trajectory(), dt in -100.0..100.0f64, dx in -100.0..100.0f64, dy in -100.0..100.0f64) {
        let orig = TrajectoryStats::of(&t);
        let moved = translate(&shift_time(&t, TimeDelta::from_secs(dt)), traj_geom::Vec2::new(dx, dy));
        let m = TrajectoryStats::of(&moved);
        prop_assert!((orig.length_m - m.length_m).abs() < 1e-6);
        prop_assert!((orig.duration.as_secs() - m.duration.as_secs()).abs() < 1e-9);
        prop_assert_eq!(orig.n_points, m.n_points);
        prop_assert!((orig.displacement_m - m.displacement_m).abs() < 1e-6);
    }

    #[test]
    fn select_prefix_equals_subseries(t in trajectory()) {
        let k = t.len() / 2;
        let indices: Vec<usize> = (0..=k).collect();
        prop_assert_eq!(t.select(&indices), t.subseries(0, k));
    }

    #[test]
    fn length_at_least_displacement(t in trajectory()) {
        let s = TrajectoryStats::of(&t);
        prop_assert!(s.length_m + 1e-9 >= s.displacement_m);
    }

    /// Fuzz: the CSV parser never panics on arbitrary input — it returns
    /// a typed error or a valid trajectory.
    #[test]
    fn csv_parser_never_panics(input in "\\PC{0,256}") {
        let _ = io::from_csv_str(&input);
    }

    /// Fuzz with CSV-shaped garbage: lines of comma-separated tokens.
    #[test]
    fn csv_parser_handles_csv_shaped_garbage(
        rows in proptest::collection::vec(
            proptest::collection::vec("[-0-9a-zA-Z\\.]{0,8}", 0..5),
            0..20,
        )
    ) {
        let text: String = rows
            .iter()
            .map(|r| r.join(","))
            .collect::<Vec<_>>()
            .join("\n");
        if let Ok(t) = io::from_csv_str(&text) {
            // Anything accepted must be a valid trajectory.
            prop_assert!(!t.is_empty());
            prop_assert!(t.fixes().windows(2).all(|w| w[0].t < w[1].t));
        }
    }

    /// Byte soup: arbitrary bytes, split into lines and decoded lossily,
    /// through both the `id,t,x,y` record reader and the `t,x,y` file
    /// parser. Each answers `Ok` or a parse error naming the right line,
    /// never a panic. Half the bytes come from the formats' own alphabet
    /// so most lines get past the first field.
    #[test]
    fn record_reader_survives_byte_soup(
        codes in proptest::collection::vec(0u16..512, 0..400)
    ) {
        const ALPHABET: &[u8] = b"0123456789,,,,.-+eEnaNif#\n\n \t\r";
        let bytes: Vec<u8> = codes
            .iter()
            .map(|&c| match u8::try_from(c) {
                Ok(b) => b,
                Err(_) => ALPHABET[usize::from(c) % ALPHABET.len()],
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        let lines = text.lines().count();
        for (idx, raw) in text.lines().enumerate() {
            match io::parse_record(raw, idx + 1) {
                Ok(_) => {}
                Err(ModelError::Parse { line, .. }) => prop_assert_eq!(line, idx + 1),
                Err(e) => prop_assert!(false, "line {}: not a parse error: {e}", idx + 1),
            }
        }
        match io::from_csv_str(&text) {
            Err(ModelError::Parse { line, .. }) => {
                prop_assert!((1..=lines).contains(&line), "line {line} of {lines}");
                // It is the first bad line: every line before it parses.
                let before: Vec<&str> = text.lines().take(line - 1).collect();
                let prefix = io::from_csv_str(&before.join("\n"));
                let prefix_ok = !matches!(prefix, Err(ModelError::Parse { .. }));
                prop_assert!(prefix_ok, "a line before {line} fails: {prefix:?}");
            }
            Ok(t) => prop_assert!(t.fixes().windows(2).all(|w| w[0].t < w[1].t)),
            Err(_) => {}
        }
    }

    /// Spline interpolation stays within the span, passes through fixes,
    /// and never produces non-finite positions.
    #[test]
    fn spline_is_sane(t in trajectory(), f in 0.0..1.0f64) {
        use traj_model::spline::spline_position_at;
        let q = t.start_time().lerp(t.end_time(), f);
        let p = spline_position_at(&t, q).expect("within span");
        prop_assert!(p.is_finite());
        // At vertices it reproduces the sample.
        for fix in t.fixes() {
            let v = spline_position_at(&t, fix.t).expect("vertex in span");
            prop_assert!(v.distance(fix.pos) < 1e-6);
        }
    }

    #[test]
    fn index_at_is_consistent_with_covers(t in trajectory(), q in 0.0..2000.0f64) {
        let q = Timestamp::from_secs(q);
        match t.index_at(q) {
            None => prop_assert!(q < t.start_time()),
            Some(i) => {
                prop_assert!(t.fixes()[i].t <= q);
                if i + 1 < t.len() {
                    prop_assert!(q < t.fixes()[i + 1].t);
                }
            }
        }
    }
}
