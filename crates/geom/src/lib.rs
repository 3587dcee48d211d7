//! Planar geometry and geodesy substrate for moving-object trajectories.
//!
//! This crate provides the geometric vocabulary used throughout `trajc`:
//!
//! * [`Point2`] / [`Vec2`] — positions and displacements in a local planar
//!   (metric) coordinate frame, in metres;
//! * [`Segment`] — straight line segments with the perpendicular-distance
//!   operations that classic line-generalization algorithms
//!   (Douglas–Peucker, opening-window) are built on;
//! * [`Bbox`] — axis-aligned boxes used by spatial indexes;
//! * [`geodesy`] — conversion between WGS-84 GPS fixes and the local plane;
//! * [`numeric`] — small numerical helpers (adaptive Simpson quadrature,
//!   approximate comparisons) used to cross-validate closed-form integrals;
//! * [`soa`] — a structure-of-arrays trajectory view ([`TrajView`]) with
//!   one batched kernel per distance (SED and perpendicular), bitwise
//!   equal to the pointwise [`Segment`] reference.
//!
//! Everything is `f64`-based and allocation-free; these types are hot-path
//! values for the compression kernels in `traj-compress`.

pub mod bbox;
pub mod geodesy;
pub mod numeric;
pub mod point;
pub mod polyline;
pub mod segment;
pub mod soa;

pub use bbox::Bbox;
pub use geodesy::{GeoPoint, LocalProjection, EARTH_RADIUS_M};
pub use point::{Point2, Vec2};
pub use polyline::polyline_length;
pub use segment::Segment;
pub use soa::TrajView;
