//! Per-mover ingest sessions: the online codec between a mover's raw
//! report stream and its shard's WAL.
//!
//! Every mover gets its own session codec, one boxed
//! [`StreamingCompressor`] built by [`CodecSpec::build`]; fixes the
//! codec *emits* are what the shard buffers into the durable store, so
//! compression happens before the log — it shrinks WAL volume and fsync
//! payloads, not just the in-memory representation. The default is the
//! one-pass cone (`op-cone`): O(1) state per session, no buffered window
//! to replay, and the strongest point reduction of the one-pass family
//! (see `ALGORITHMS.md`). `raw` is the [`PassThrough`] stream: it logs
//! every fix, after the same validation every codec runs.
//!
//! The durability consequence of a lossy codec: a fix the codec absorbs
//! into its open window is acknowledged with *no* WAL record. A crash
//! therefore loses every mover's fixes since its last emitted point,
//! and recovery ends the mover's trajectory at that point — the lost
//! fixes have no recovered position to be within ε of, so no error
//! bound covers them. `raw` sessions keep the exact per-fix durability
//! of the store layer. A clean shutdown finishes every session, so
//! nothing is lost in the graceful case either way. Making an ack mean
//! "within ε of the recovered trajectory" is ROADMAP item 2.

use traj_compress::streaming::{OnePassStream, OwStream, PassThrough, StreamingCompressor};

/// Which online codec a session runs, with its thresholds. Parsed from
/// the CLI `--algo` name by [`CodecSpec::parse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecSpec {
    /// No compression: every accepted fix is logged. Exact per-fix
    /// durability; maximum WAL volume.
    Raw,
    /// One-pass cone intersection (the ingest default).
    OpCone {
        /// SED tolerance, metres.
        eps: f64,
    },
    /// One-pass linear-fit test.
    OpFit {
        /// SED tolerance, metres.
        eps: f64,
    },
    /// Opening-window with the time-ratio (SED) criterion.
    OpwTr {
        /// SED tolerance, metres.
        eps: f64,
    },
    /// Opening-window with the spatiotemporal (SED + speed) criterion.
    OpwSp {
        /// SED tolerance, metres.
        eps: f64,
        /// Speed-difference tolerance, m/s.
        speed_eps: f64,
    },
}

/// Opening-window sessions cap their buffered window so one mover's
/// pathological stream cannot grow a shard's memory without bound.
const OPW_SESSION_MAX_WINDOW: usize = 64;

impl CodecSpec {
    /// The ingest default: one-pass cone at `eps` metres.
    #[must_use]
    pub fn default_with(eps: f64) -> Self {
        CodecSpec::OpCone { eps }
    }

    /// Parses a CLI `--algo` name. Only *streaming* algorithms are
    /// valid here — batch algorithms (`td-tr`, `ndp`, …) need the whole
    /// trajectory and cannot run inside an ingest session.
    ///
    /// # Errors
    /// Unknown or non-streaming names, and `opw-sp` without a speed
    /// threshold.
    pub fn parse(algo: &str, eps: f64, speed_eps: Option<f64>) -> Result<Self, String> {
        match algo {
            "raw" => Ok(CodecSpec::Raw),
            "op-cone" => Ok(CodecSpec::OpCone { eps }),
            "op-fit" => Ok(CodecSpec::OpFit { eps }),
            "opw-tr" => Ok(CodecSpec::OpwTr { eps }),
            "opw-sp" => match speed_eps {
                Some(v) if v > 0.0 => Ok(CodecSpec::OpwSp { eps, speed_eps: v }),
                _ => Err("serve: opw-sp sessions need --speed-eps > 0".into()),
            },
            other => Err(format!(
                "serve: unknown session algorithm {other:?} \
                 (streaming algorithms: raw op-cone op-fit opw-tr opw-sp)"
            )),
        }
    }

    /// Builds a fresh session codec for one mover.
    #[must_use]
    pub fn build(&self) -> Box<dyn StreamingCompressor> {
        match *self {
            CodecSpec::Raw => Box::new(PassThrough::default()),
            CodecSpec::OpCone { eps } => Box::new(OnePassStream::cone(eps)),
            CodecSpec::OpFit { eps } => Box::new(OnePassStream::fit(eps)),
            CodecSpec::OpwTr { eps } => {
                Box::new(OwStream::opw_tr(eps).with_max_window(OPW_SESSION_MAX_WINDOW))
            }
            CodecSpec::OpwSp { eps, speed_eps } => {
                Box::new(OwStream::opw_sp(eps, speed_eps).with_max_window(OPW_SESSION_MAX_WINDOW))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::Fix;

    fn fix(t: f64, x: f64) -> Fix {
        Fix::from_parts(t, x, 0.0)
    }

    #[test]
    fn parse_covers_the_streaming_family_and_rejects_batch_algos() {
        for (name, spec) in [
            ("raw", CodecSpec::Raw),
            ("op-cone", CodecSpec::OpCone { eps: 30.0 }),
            ("op-fit", CodecSpec::OpFit { eps: 30.0 }),
            ("opw-tr", CodecSpec::OpwTr { eps: 30.0 }),
        ] {
            assert_eq!(CodecSpec::parse(name, 30.0, None).unwrap(), spec);
        }
        assert!(CodecSpec::parse("opw-sp", 30.0, None).is_err(), "needs speed");
        assert_eq!(
            CodecSpec::parse("opw-sp", 30.0, Some(5.0)).unwrap(),
            CodecSpec::OpwSp { eps: 30.0, speed_eps: 5.0 }
        );
        // Batch algorithms are real elsewhere but invalid as sessions.
        assert!(CodecSpec::parse("td-tr", 30.0, None).is_err());
        assert!(CodecSpec::parse("ndp", 30.0, None).is_err());
        assert_eq!(CodecSpec::default_with(25.0), CodecSpec::OpCone { eps: 25.0 });
    }

    #[test]
    fn raw_sessions_pass_every_fix_through() {
        let mut codec = CodecSpec::Raw.build();
        let mut out = Vec::new();
        for i in 0..5 {
            out.extend(codec.push(fix(i as f64, i as f64)).unwrap());
        }
        assert_eq!(out.len(), 5);
        // The pass-through validates like every codec.
        assert!(codec.push(fix(4.0, 9.0)).is_err(), "stale");
        assert!(codec.push(fix(f64::NAN, 9.0)).is_err(), "NaN");
        assert!(codec.finish().is_empty());
    }

    #[test]
    fn lossy_sessions_emit_fewer_points_on_a_straight_line() {
        for spec in [
            CodecSpec::OpCone { eps: 10.0 },
            CodecSpec::OpFit { eps: 10.0 },
            CodecSpec::OpwTr { eps: 10.0 },
            CodecSpec::OpwSp { eps: 10.0, speed_eps: 5.0 },
        ] {
            let mut codec = spec.build();
            let mut out = Vec::new();
            for i in 0..100 {
                out.extend(codec.push(fix(i as f64 * 10.0, i as f64 * 100.0)).unwrap());
            }
            out.extend(codec.finish());
            assert!(out.len() < 10, "{spec:?}: straight line kept {} of 100 points", out.len());
            assert!(out.len() >= 2, "{spec:?}: endpoints must survive");
            for w in out.windows(2) {
                assert!(w[1].t > w[0].t, "{spec:?}: emitted times not monotone");
            }
        }
    }

    #[test]
    fn sessions_reject_non_monotone_time_without_breaking() {
        let mut codec = CodecSpec::default_with(10.0).build();
        let mut out = codec.push(fix(10.0, 0.0)).unwrap();
        assert!(codec.push(fix(5.0, 1.0)).is_err());
        // The session keeps working after a rejected fix.
        out.extend(codec.push(fix(20.0, 2.0)).unwrap());
        out.extend(codec.finish());
        assert!(!out.is_empty());
    }
}
