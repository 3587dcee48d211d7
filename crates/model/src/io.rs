//! Plain-text interchange format for trajectories.
//!
//! One fix per line as `t,x,y` (seconds, metres, metres), `#`-prefixed
//! comment lines and blank lines ignored. An optional `t,x,y` header is
//! tolerated. This mirrors the paper's view of the data stream as a
//! sequence of `⟨t, x, y⟩` records. A fleet's interleaved report stream
//! adds the mover id in front, `id,t,x,y`, one record per line
//! ([`parse_record`]); every format here shares one line splitter.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::error::ModelError;
use crate::fix::Fix;
use crate::trajectory::Trajectory;

/// Serializes a trajectory to the `t,x,y` text format.
pub fn to_csv_string(traj: &Trajectory) -> String {
    let mut out = String::with_capacity(traj.len() * 32 + 8);
    out.push_str("t,x,y\n");
    for f in traj.fixes() {
        let _ = writeln!(out, "{},{},{}", f.t.as_secs(), f.pos.x, f.pos.y);
    }
    out
}

fn parse_error(line: usize, reason: String) -> ModelError {
    ModelError::Parse { line, reason }
}

/// Splits line `line` (1-based) into the comma-separated fields named by
/// `header`, borrowing them from `raw`. A blank line, a `#` comment, or
/// `header` itself (any case) on line 1 carries no record: `Ok(None)`.
fn split_record<'a, const N: usize>(
    raw: &'a str,
    line: usize,
    header: &str,
) -> Result<Option<[&'a str; N]>, ModelError> {
    let text = raw.trim();
    if text.is_empty()
        || text.starts_with('#')
        || (line == 1 && text.eq_ignore_ascii_case(header))
    {
        return Ok(None);
    }
    let mut parts = text.split(',');
    let mut fields = [""; N];
    for (i, field) in fields.iter_mut().enumerate() {
        *field = parts.next().ok_or_else(|| {
            let name = header.split(',').nth(i).unwrap_or_default();
            parse_error(line, format!("missing field `{name}`"))
        })?;
    }
    if parts.next().is_some() {
        return Err(parse_error(line, format!("too many fields (expected {header})")));
    }
    Ok(Some(fields))
}

/// Parses the field `name` of line `line`.
fn parse_field<T>(text: &str, name: &str, line: usize) -> Result<T, ModelError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text.trim()
        .parse()
        .map_err(|e| parse_error(line, format!("bad `{name}` value {text:?}: {e}")))
}

/// Parses a trajectory from the `t,x,y` text format.
///
/// # Errors
/// Returns [`ModelError::Parse`] with a 1-based line number on malformed
/// records, and the usual construction errors (non-monotonic time,
/// non-finite values, empty input).
pub fn from_csv_str(s: &str) -> Result<Trajectory, ModelError> {
    let mut triples = Vec::new();
    for (idx, raw) in s.lines().enumerate() {
        let line = idx + 1;
        if let Some([t, x, y]) = split_record(raw, line, "t,x,y")? {
            triples.push((
                parse_field(t, "t", line)?,
                parse_field(x, "x", line)?,
                parse_field(y, "y", line)?,
            ));
        }
    }
    Trajectory::from_triples(triples)
}

/// Parses line `line` (1-based) of an `id,t,x,y` report stream into the
/// mover id and its fix. A blank line, a `#` comment, or an `id,t,x,y`
/// header on line 1 carries no record: `Ok(None)`. The fix is not
/// validated — a non-finite or out-of-order fix is for the consumer to
/// reject.
///
/// ```
/// use traj_model::{io::parse_record, Fix};
///
/// assert_eq!(parse_record("id,t,x,y", 1).unwrap(), None);
/// assert_eq!(
///     parse_record("7, 10, 1.5, -2", 2).unwrap(),
///     Some((7, Fix::from_parts(10.0, 1.5, -2.0)))
/// );
/// assert!(parse_record("7,10,1.5", 3).is_err());
/// ```
///
/// # Errors
/// [`ModelError::Parse`] naming `line` when the line does not hold
/// exactly four fields, or a field does not parse (the id as a `u64`,
/// the rest as `f64`).
pub fn parse_record(raw: &str, line: usize) -> Result<Option<(u64, Fix)>, ModelError> {
    let Some([id, t, x, y]) = split_record(raw, line, "id,t,x,y")? else {
        return Ok(None);
    };
    let id = parse_field(id, "id", line)?;
    let fix = Fix::from_parts(
        parse_field(t, "t", line)?,
        parse_field(x, "x", line)?,
        parse_field(y, "y", line)?,
    );
    Ok(Some((id, fix)))
}

/// Parses a `t,lat,lon` file (seconds, WGS-84 degrees) into a planar
/// trajectory.
///
/// The projection is an equirectangular plane centred on the first fix
/// (see [`traj_geom::LocalProjection`]); the returned projection lets
/// callers map query results back to geographic coordinates. Comment
/// lines (`#`), blank lines and a `t,lat,lon` header are tolerated.
///
/// # Errors
/// Like [`from_csv_str`], plus a parse error when a latitude is outside
/// `[-90, 90]` or a longitude outside `[-180, 180]`.
pub fn from_geo_csv_str(
    s: &str,
) -> Result<(Trajectory, traj_geom::LocalProjection), ModelError> {
    let mut records: Vec<(f64, traj_geom::GeoPoint)> = Vec::new();
    for (idx, raw) in s.lines().enumerate() {
        let line = idx + 1;
        let Some([t, lat, lon]) = split_record(raw, line, "t,lat,lon")? else {
            continue;
        };
        let t = parse_field(t, "t", line)?;
        let lat: f64 = parse_field(lat, "lat", line)?;
        let lon: f64 = parse_field(lon, "lon", line)?;
        if !(-90.0..=90.0).contains(&lat) {
            return Err(parse_error(line, format!("latitude {lat} outside [-90, 90]")));
        }
        if !(-180.0..=180.0).contains(&lon) {
            return Err(parse_error(line, format!("longitude {lon} outside [-180, 180]")));
        }
        records.push((t, traj_geom::GeoPoint::new(lat, lon)));
    }
    let first = records.first().ok_or(ModelError::TooShort { required: 1, actual: 0 })?;
    let proj = traj_geom::LocalProjection::new(first.1);
    let triples = records.iter().map(|&(t, g)| {
        let p = proj.to_plane(g);
        (t, p.x, p.y)
    });
    Ok((Trajectory::from_triples(triples)?, proj))
}

/// Reads a `t,lat,lon` GPS file; see [`from_geo_csv_str`].
pub fn read_geo_csv(
    path: &Path,
) -> Result<(Trajectory, traj_geom::LocalProjection), ModelError> {
    from_geo_csv_str(&fs::read_to_string(path)?)
}

/// Writes a trajectory to `path` in the `t,x,y` format.
pub fn write_csv(traj: &Trajectory, path: &Path) -> Result<(), ModelError> {
    fs::write(path, to_csv_string(traj))?;
    Ok(())
}

/// Reads a trajectory from a `t,x,y` file.
pub fn read_csv(path: &Path) -> Result<Trajectory, ModelError> {
    from_csv_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::from_triples([(0.0, 1.5, -2.0), (10.0, 3.25, 4.0), (20.5, 5.0, 6.125)])
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_fixes_exactly() {
        let t = traj();
        let parsed = from_csv_str(&to_csv_string(&t)).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn parser_skips_comments_blanks_and_header() {
        let text = "t,x,y\n# a comment\n\n0,0,0\n  10 , 1 , 2 \n";
        let t = from_csv_str(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.last().pos.x, 1.0);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let err = from_csv_str("t,x,y\n0,0,0\n5,oops,0\n").unwrap_err();
        match err {
            ModelError::Parse { line, reason } => {
                assert_eq!(line, 3);
                assert!(reason.contains("oops"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_wrong_arity() {
        assert!(matches!(from_csv_str("1,2\n"), Err(ModelError::Parse { .. })));
        assert!(matches!(from_csv_str("1,2,3,4\n"), Err(ModelError::Parse { .. })));
    }

    #[test]
    fn parser_propagates_model_validation() {
        // Non-monotonic time is a construction error, not a parse error.
        let err = from_csv_str("5,0,0\n4,1,1\n").unwrap_err();
        assert!(matches!(err, ModelError::NonMonotonicTime { index: 1 }));
        assert!(matches!(from_csv_str(""), Err(ModelError::TooShort { .. })));
    }

    #[test]
    fn geo_csv_projects_to_local_metres() {
        // Two fixes 0.01° of latitude apart ≈ 1112 m north.
        let text = "t,lat,lon\n0,52.22,6.89\n60,52.23,6.89\n";
        let (t, proj) = from_geo_csv_str(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.first().pos, traj_geom::Point2::ORIGIN);
        let north = t.last().pos.y;
        assert!((north - 1112.0).abs() < 5.0, "north displacement {north}");
        assert!(t.last().pos.x.abs() < 1e-6);
        // The projection round-trips back to the source coordinates.
        let back = proj.to_geo(t.last().pos);
        assert!((back.lat_deg - 52.23).abs() < 1e-9);
        assert!((back.lon_deg - 6.89).abs() < 1e-9);
    }

    #[test]
    fn geo_csv_rejects_out_of_range_coordinates() {
        let bad_lat = from_geo_csv_str("0,91.0,6.0\n").unwrap_err();
        assert!(matches!(bad_lat, ModelError::Parse { line: 1, .. }), "{bad_lat}");
        let bad_lon = from_geo_csv_str("0,52.0,181.0\n").unwrap_err();
        assert!(bad_lon.to_string().contains("longitude"));
    }

    #[test]
    fn geo_csv_empty_and_arity_errors() {
        assert!(matches!(from_geo_csv_str(""), Err(ModelError::TooShort { .. })));
        assert!(matches!(
            from_geo_csv_str("0,52.0\n"),
            Err(ModelError::Parse { .. })
        ));
        assert!(matches!(
            from_geo_csv_str("0,52.0,6.0,9\n"),
            Err(ModelError::Parse { .. })
        ));
    }

    #[test]
    fn records_parse_with_the_shared_rules() {
        assert_eq!(parse_record("id,t,x,y", 1).unwrap(), None, "header");
        assert_eq!(parse_record("  ", 2).unwrap(), None, "blank");
        assert_eq!(parse_record("# note", 3).unwrap(), None, "comment");
        assert_eq!(
            parse_record(" 42 ,1.5, 2 ,-3 ", 4).unwrap(),
            Some((42, Fix::from_parts(1.5, 2.0, -3.0)))
        );
        // The header is only a header on line 1, as in `from_csv_str`.
        assert!(matches!(parse_record("id,t,x,y", 2), Err(ModelError::Parse { line: 2, .. })));
        // NaN parses: rejecting a non-finite fix is the consumer's job.
        let (_, nan) = parse_record("1,nan,0,0", 5).unwrap().unwrap();
        assert!(!nan.is_finite());
        for (bad, needle) in [
            ("1,2,3", "missing field `y`"),
            ("1,2,3,4,5", "too many fields (expected id,t,x,y)"),
            ("-1,2,3,4", "bad `id` value"),
            ("7,2,oops,4", "bad `x` value \"oops\""),
        ] {
            match parse_record(bad, 9) {
                Err(ModelError::Parse { line: 9, reason }) => {
                    assert!(reason.contains(needle), "{bad}: {reason}");
                }
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("trajc_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = traj();
        write_csv(&t, &path).unwrap();
        assert_eq!(read_csv(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_csv(Path::new("/definitely/not/here.csv")).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)));
    }
}
