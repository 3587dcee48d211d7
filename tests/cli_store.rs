//! `trajc store recover --snapshot` end to end, on the real binary: a
//! served shard is checkpointed, recovered again from the checkpoint
//! alone, and reopened by `trajc serve`, which must remember each
//! mover's latest time; a snapshot file of the older per-object CSV
//! format is refused by name.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Runs `trajc args…` with `stdin` piped in.
fn trajc(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trajc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trajc binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait for trajc")
}

/// Stdout of a run that must exit 0.
fn stdout_of(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}: {stderr}",
        out.status.code()
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The report line that starts with `label`.
fn line<'a>(report: &'a str, label: &str) -> &'a str {
    report
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no {label:?} in {report}"))
}

#[test]
fn recover_snapshot_checkpoints_a_served_shard() {
    let root = std::env::temp_dir().join("trajc_cli_store_served");
    std::fs::remove_dir_all(&root).ok();
    let root_arg = root.to_str().expect("utf-8 temp path");
    let shard = root.join("shard-0");
    let shard_arg = shard.to_str().expect("utf-8 temp path");

    // 20 movers × 5 fixes, every fix logged.
    let mut fleet = String::from("id,t,x,y\n");
    for k in 0..5 {
        for m in 0..20 {
            fleet.push_str(&format!("{m},{},{},{}\n", k * 10, k * 30 + m, m * 50));
        }
    }
    let served = stdout_of(&trajc(
        &["serve", root_arg, "--shards", "1", "--algo", "raw"],
        &fleet,
    ));
    assert!(served.contains("acked:            100 fixes"), "{served}");

    let first = stdout_of(&trajc(&["store", "recover", shard_arg, "--snapshot"], ""));
    assert!(first.contains("replayed:         100 records"), "{first}");
    assert!(
        first.contains("snapshotted:      20 objects, log truncated"),
        "{first}"
    );
    let entries: Vec<_> = std::fs::read_dir(shard.join("snapshot"))
        .expect("snapshot dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(entries, ["checkpoint.log"], "one checkpoint file");

    // The checkpoint alone restores the same state.
    let second = stdout_of(&trajc(&["store", "recover", shard_arg], ""));
    assert!(
        second.contains("snapshot:         20 objects, 100 fixes"),
        "{second}"
    );
    assert!(second.contains("replayed:         0 records"), "{second}");
    assert_eq!(
        line(&second, "recovered state:"),
        line(&first, "recovered state:")
    );
    assert!(second.contains("health:           clean"), "{second}");

    // A restarted service reads each mover's latest time from the
    // checkpoint: mover 3's fix at t = 40 is refused, a later one acked.
    let again = stdout_of(&trajc(
        &["serve", root_arg, "--shards", "1", "--algo", "raw"],
        "id,t,x,y\n3,40,0,0\n3,50,1,1\n",
    ));
    assert!(again.contains("(1 invalid)"), "{again}");
    assert!(again.contains("acked:            1 fixes"), "{again}");

    // A snapshot file an older version left is its only copy: recovery
    // refuses the store and names the file.
    std::fs::write(shard.join("snapshot").join("7.csv"), "t,x,y\n0,0,0\n").expect("write");
    let refused = trajc(&["store", "recover", shard_arg], "");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("7.csv"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        shard.join("snapshot").join("7.csv").exists(),
        "left in place"
    );
    std::fs::remove_dir_all(&root).ok();
}
