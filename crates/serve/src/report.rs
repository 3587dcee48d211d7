//! Run reports: the JSON summary `trajc serve --report-json` writes
//! (the format `BENCH_PR10.json` aggregates).
//!
//! Ack latencies are a [`LogHistogram`], the always-compiled value type
//! of `traj-obs`: each shard worker records plain integers into its own
//! on its own thread and the service merges them at shutdown, so the
//! report carries real tail latencies even in a `--no-default-features`
//! build where all instrumentation compiles out.

use traj_obs::LogHistogram;

/// The configuration block echoed at the head of a serve report, so a
/// result file is self-describing.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Store shard count.
    pub shards: usize,
    /// Durability mode name (`group-commit` / `every-append`).
    pub sync: String,
    /// Session codec name (`raw`, `op-cone`, …).
    pub algo: String,
    /// Session SED tolerance, metres (unused by `raw`).
    pub eps: f64,
    /// Group commit batch bound.
    pub max_batch: usize,
    /// Group commit delay bound, microseconds.
    pub max_delay_us: u64,
    /// Per-shard queue capacity.
    pub queue_cap: usize,
    /// Load-generator fleet size.
    pub movers: u64,
    /// Fixes per mover.
    pub fixes_per_mover: u64,
    /// Open-loop offered rate, fixes/s over the whole fleet (0 = as
    /// fast as possible).
    pub rate: f64,
    /// Load-generator submitter threads.
    pub threads: usize,
}

/// Everything one `trajc serve --load-gen` run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration that produced these numbers.
    pub config: ReportConfig,
    /// Wall-clock seconds from first submit to full shutdown (all
    /// sessions finished, all shards committed).
    pub duration_s: f64,
    /// Fixes offered to the service.
    pub submitted: u64,
    /// Fixes shed with typed backpressure.
    pub rejected: u64,
    /// Fixes rejected as invalid (non-finite or out of time order).
    pub invalid: u64,
    /// Fixes acknowledged after their covering fsync.
    pub acked: u64,
    /// Compressed points actually written to the WALs.
    pub emitted: u64,
    /// Fsync batches across all shards.
    pub commits: u64,
    /// Total WAL bytes on disk after shutdown (absent for in-memory
    /// test backends).
    pub wal_bytes: Option<u64>,
    /// Submit→fsync ack latency, nanoseconds.
    pub ack: LogHistogram,
}

impl ServeReport {
    /// Acknowledged fixes per wall-clock second.
    #[must_use]
    pub fn acks_per_sec(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.acked as f64 / self.duration_s
        } else {
            0.0
        }
    }

    /// Mean fixes per fsync (the group-commit amortization factor).
    #[must_use]
    pub fn mean_group_size(&self) -> f64 {
        if self.commits > 0 {
            self.emitted as f64 / self.commits as f64
        } else {
            0.0
        }
    }

    /// Renders the report as a self-contained JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let wal_bytes =
            self.wal_bytes.map_or_else(|| "null".to_string(), |b| b.to_string());
        format!(
            "{{\n  \"config\": {{\n    \"shards\": {},\n    \"sync\": \"{}\",\n    \
             \"algo\": \"{}\",\n    \"eps_m\": {},\n    \"max_batch\": {},\n    \
             \"max_delay_us\": {},\n    \"queue_cap\": {},\n    \"movers\": {},\n    \
             \"fixes_per_mover\": {},\n    \"rate_fixes_per_s\": {},\n    \"threads\": {}\n  }},\n  \
             \"duration_s\": {:.6},\n  \"submitted\": {},\n  \"rejected\": {},\n  \
             \"invalid\": {},\n  \"acked\": {},\n  \"emitted\": {},\n  \"commits\": {},\n  \
             \"wal_bytes\": {},\n  \"acks_per_sec\": {:.1},\n  \"mean_group_size\": {:.2},\n  \
             \"ack_latency_ns\": {{\n    \"count\": {},\n    \"mean\": {},\n    \"p50\": {},\n    \
             \"p90\": {},\n    \"p99\": {},\n    \"p999\": {},\n    \"max\": {}\n  }}\n}}\n",
            c.shards,
            c.sync,
            c.algo,
            c.eps,
            c.max_batch,
            c.max_delay_us,
            c.queue_cap,
            c.movers,
            c.fixes_per_mover,
            c.rate,
            c.threads,
            self.duration_s,
            self.submitted,
            self.rejected,
            self.invalid,
            self.acked,
            self.emitted,
            self.commits,
            wal_bytes,
            self.acks_per_sec(),
            self.mean_group_size(),
            self.ack.count(),
            self.ack.mean(),
            self.ack.quantile(0.50),
            self.ack.quantile(0.90),
            self.ack.quantile(0.99),
            self.ack.quantile(0.999),
            self.ack.quantile(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_parseable_and_complete() {
        let mut ack = LogHistogram::new();
        for i in 1..=100u64 {
            ack.record(i * 1_000);
        }
        let report = ServeReport {
            config: ReportConfig {
                shards: 2,
                sync: "group-commit".into(),
                algo: "op-cone".into(),
                eps: 30.0,
                max_batch: 256,
                max_delay_us: 500,
                queue_cap: 1024,
                movers: 100,
                fixes_per_mover: 50,
                rate: 0.0,
                threads: 1,
            },
            duration_s: 2.5,
            submitted: 5_000,
            rejected: 10,
            invalid: 0,
            acked: 4_990,
            emitted: 800,
            commits: 40,
            wal_bytes: Some(32_800),
            ack,
        };
        let json = report.to_json();
        let doc = traj_obs::json::parse(&json).expect("report must be valid JSON");
        let get = |k: &str| doc.get(k).expect(k);
        assert_eq!(get("acked").as_f64(), Some(4_990.0));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("shards")).and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(get("acks_per_sec").as_f64(), Some(1996.0));
        assert_eq!(get("mean_group_size").as_f64(), Some(20.0));
        let tail = doc.get("ack_latency_ns").and_then(|h| h.get("p999")).unwrap();
        assert!(tail.as_f64().unwrap() > 0.0);
        assert_eq!(get("wal_bytes").as_f64(), Some(32_800.0));
    }
}
