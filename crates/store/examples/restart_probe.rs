//! Restart probe: what opening a served shard costs in time and memory.
//!
//! `write` fills a new shard directory on the real filesystem the way
//! `trajc serve` does: 10,000 movers of a synthetic fleet, `FIXES` fixes
//! each, buffered through a `GroupCommitStore` and committed every 4,096
//! fixes. `open`, run in a fresh process, opens that directory with
//! `GroupCommitStore::open_with` (what a shard restart runs) or
//! `DurableStore::open_with` (what `trajc store recover` runs) and prints
//! the open time, the records replayed and the process's peak resident
//! set (`VmHWM`, read from `/proc/self/status`; Linux only).
//!
//! ```text
//! cargo run --release -p traj-store --example restart_probe -- write DIR 16
//! cargo run --release -p traj-store --example restart_probe -- open DIR group
//! cargo run --release -p traj-store --example restart_probe -- open DIR durable
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use traj_gen::fleet::{Fleet, FleetConfig};
use traj_store::storage::FsStorage;
use traj_store::{
    DurableOptions, DurableStore, GroupCommitOptions, GroupCommitStore, IngestMode,
    RecoveryReport, StoreError,
};

/// Movers in the shard.
const MOVERS: u64 = 10_000;

/// Writes `fixes` fixes for each of [`MOVERS`] movers into the new shard
/// directory `dir`, round by round as a fleet reports them.
fn write_shard(dir: &Path, fixes: u64) -> Result<(), StoreError> {
    let fleet = Fleet::new(FleetConfig { movers: MOVERS, seed: 7, report_dt: 10.0 });
    let (mut store, _) = GroupCommitStore::open_with(
        Arc::new(FsStorage),
        dir,
        IngestMode::Raw,
        DurableOptions::default(),
        GroupCommitOptions::default(),
    )?;
    for k in 0..fixes {
        for mover in 0..MOVERS {
            store.buffer(mover, fleet.fix_for(mover, k))?;
            if store.pending() >= 4_096 {
                store.commit()?;
            }
        }
    }
    store.commit()?;
    Ok(())
}

/// Opens the shard at `dir` with the named store and reports the open.
fn open_shard(dir: &Path, store: &str) -> Result<RecoveryReport, StoreError> {
    let (storage, opts) = (Arc::new(FsStorage), DurableOptions::default());
    let report = match store {
        "durable" => DurableStore::open_with(storage, dir, IngestMode::Raw, opts)?.1,
        _ => {
            let group = GroupCommitOptions::default();
            GroupCommitStore::open_with(storage, dir, IngestMode::Raw, opts, group)?.1
        }
    };
    Ok(report)
}

/// The process's peak resident set in MB, if `/proc/self/status` has it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb = line.trim_start_matches("VmHWM:").trim_end_matches("kB").trim();
    Some(kb.parse::<f64>().ok()? / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: restart_probe write DIR FIXES | restart_probe open DIR group|durable";
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["write", dir, fixes] => {
            let dir = Path::new(dir);
            let fixes: u64 = fixes.parse().expect(usage);
            assert!(!dir.exists(), "{} exists: write fills a new directory", dir.display());
            let t0 = Instant::now();
            write_shard(dir, fixes).expect("write the shard");
            let secs = t0.elapsed().as_secs_f64();
            println!("wrote: {} movers x {fixes} fixes in {secs:.2} s", MOVERS);
        }
        ["open", dir, store @ ("group" | "durable")] => {
            let t0 = Instant::now();
            let report = open_shard(Path::new(dir), store).expect("open the shard");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let hwm = vm_hwm_mb().map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.1} MB"));
            println!(
                "open {store}: {ms:.1} ms, replayed {} records, VmHWM {hwm}",
                report.replayed
            );
        }
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
