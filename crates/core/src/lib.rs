//! # traj-compress — spatiotemporal trajectory compression
//!
//! Implementation of the compression algorithms and error calculus of
//! *Meratnia & de By, "Spatiotemporal Compression Techniques for Moving
//! Point Objects" (EDBT 2004)*.
//!
//! ## Algorithms
//!
//! Line-generalization baselines (paper §2):
//!
//! * [`UniformSample`] — keep every *i*-th point (Tobler);
//! * [`DistanceThreshold`] — drop points too close to the last kept point;
//! * [`DouglasPeucker`] — classic top-down split on perpendicular
//!   distance ("NDP" in the paper's experiments), with recursive,
//!   iterative and keep-best-N variants;
//! * [`OpeningWindow`] with [`Criterion::Perpendicular`] — the NOPW /
//!   BOPW online baselines (§2.2);
//! * [`SlidingWindow`], [`BottomUp`] — the two remaining classes of the
//!   §2 taxonomy (after Keogh et al.).
//!
//! The paper's spatiotemporal algorithms (§3):
//!
//! * [`TdTr`] — top-down time-ratio: Douglas–Peucker splitting on the
//!   *synchronized* (time-ratio) distance of §3.2;
//! * [`OpeningWindow`] with [`Criterion::TimeRatio`] — OPW-TR;
//! * [`spt()`] / [`OpeningWindow`] with [`Criterion::TimeRatioSpeed`] — the
//!   §3.3 SPT algorithm (OPW-SP), combining the synchronized-distance and
//!   derived-speed-difference thresholds;
//! * [`TdSp`] — top-down variant of the spatiotemporal criteria (named in
//!   the paper's §4.3; split rule documented in `DESIGN.md`).
//!
//! Beyond the paper, the one-pass SED family (Lin et al., arXiv
//! 1801.05360) removes the OW family's O(n²) worst case:
//!
//! * [`OnePassFit`] — OPERB-style rectangular fitting region, O(n) with
//!   a *strict* SED bound;
//! * [`OnePassCone`] — CISED-style inscribed-polygon region, tighter fit
//!   at O(m) state (see `DESIGN.md` §2e).
//!
//! All batch algorithms implement [`Compressor`] and return a
//! [`CompressionResult`] — the *subset of original sample indices kept* —
//! so that any error notion can be evaluated against the original series.
//! The opening-window and one-pass families are also available in true
//! online form via [`streaming::OwStream`] and
//! [`streaming::OnePassStream`], which share the
//! [`streaming::StreamingCompressor`] lifecycle.
//!
//! ## Error calculus
//!
//! [`error`] implements the paper's §4 measures, most importantly the
//! **average synchronous error** `α(p, a)` (§4.2): the time-average
//! distance between the original and approximated object travelling
//! synchronously, in closed form (with the paper's full case analysis)
//! and cross-validated by adaptive quadrature.
//!
//! ## Example
//!
//! ```
//! use traj_compress::{Compressor, TdTr, evaluate};
//! use traj_model::Trajectory;
//!
//! // A car driving east, dwelling, then driving on: spatially a straight
//! // line, temporally anything but.
//! let trip = Trajectory::from_triples([
//!     (0.0, 0.0, 0.0),
//!     (10.0, 150.0, 0.0),
//!     (20.0, 300.0, 0.0),
//!     (30.0, 305.0, 0.0),   // dwell
//!     (40.0, 310.0, 0.0),   // dwell
//!     (50.0, 460.0, 0.0),
//!     (60.0, 610.0, 0.0),
//! ]).unwrap();
//!
//! let result = TdTr::new(20.0).compress(&trip);       // 20 m SED budget
//! let eval = evaluate(&trip, &result);
//! assert!(result.kept_len() < trip.len());            // compression happened
//! assert!(eval.max_sed_m <= 20.0);                    // within budget
//! // The dwell survives: a perpendicular-only simplifier would erase it.
//! assert!(result.kept_len() > 2);
//! ```

#![deny(missing_docs)]

pub mod bottom_up;
pub mod criterion;
pub mod dead_reckoning;
pub(crate) mod obs;
pub mod distance;
pub mod douglas_peucker;
pub mod error;
pub mod one_pass;
pub mod opening_window;
pub(crate) mod pair_map;
pub mod result;
pub mod segmentation;
pub mod simple;
pub mod sliding_window;
pub mod spt;
pub mod streaming;
pub mod sweep;
pub mod td_sp;
pub mod workspace;

pub use bottom_up::BottomUp;
pub use criterion::{Criterion, SplitDecision};
pub use dead_reckoning::DeadReckoning;
pub use distance::{perpendicular_distance, sed, speed_difference};
pub use douglas_peucker::{DouglasPeucker, TdTr, TopDown};
pub use error::{
    average_synchronous_error, evaluate, evaluate_sweep, evaluate_with, ErrorEval, EvalWorkspace,
    Evaluation,
};
pub use one_pass::{OnePassCone, OnePassFit, CONE_DIRECTIONS};
pub use opening_window::{BreakStrategy, OpeningWindow};
pub use result::{CompressionResult, CompressionResultBuf, Compressor, InvalidResult};
pub use segmentation::{detect_stops, segment_stops_moves, stop_ratio, Episode, Stop};
pub use simple::{DistanceThreshold, UniformSample};
pub use sliding_window::SlidingWindow;
pub use spt::spt;
pub use streaming::{OnePassStream, OwStream, StreamingCompressor};
pub use td_sp::TdSp;
pub use workspace::Workspace;
