//! What a result records about the machine that produced it, and the
//! process counters the end-to-end metrics read (all from `/proc`, so no
//! dependency beyond `std`).

use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Times a fixed pure-ALU loop, three times, and returns the median in
/// milliseconds. The loop never changes, so drift in this number is the
/// host's, not the program's; it is recorded beside every result and
/// divides no metric.
pub fn calib_ms() -> f64 {
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..20_000_000u32 {
                // xorshift64: a serial dependency chain the compiler cannot
                // vectorize or shorten.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// CPU seconds (user + system) of a `/proc/.../stat` file's task.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may itself hold
    // spaces: state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / USER_HZ
}

/// CPU seconds used by the whole process so far, exited threads included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the checkout, when it is a git work tree; the benchmark
/// also runs from plain exports, which record `"unknown"`.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}
