//! Facts about the machine a result was measured on, CPU pinning and the
//! process's peak memory.

use std::process::Command;

/// Size in bytes of glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Pins the calling thread — and so every thread it spawns afterwards — to
/// the highest-numbered CPU it is allowed on. Called first thing in `main`,
/// before any thread exists, so the whole benchmark, wire client lane and
/// socket server handlers included, shares that one CPU.
///
/// Returns a description of the pinning for the host-facts line.
pub fn pin_to_one_cpu() -> String {
    let allowed = allowed_cpus();
    let Some(&cpu) = allowed.last() else {
        return "unpinned (sched_getaffinity failed)".to_string();
    };
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) };
    if status == 0 {
        format!("all threads on cpu {cpu} (of {} allowed)", allowed.len())
    } else {
        "unpinned (sched_setaffinity failed)".to_string()
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes the loopback interface has carried so far (`lo` transmit bytes
/// of `/proc/net/dev`, TCP/IP headers included). The counter is shared by
/// the network namespace, so it counts this benchmark's wire traffic only
/// while nothing else talks over loopback.
pub fn loopback_bytes() -> u64 {
    let dev = std::fs::read_to_string("/proc/net/dev").unwrap_or_default();
    dev.lines()
        .find_map(|line| line.trim_start().strip_prefix("lo:"))
        .and_then(|counters| counters.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args);
    // Keep `git` from reporting the commit of some repository that merely
    // encloses this checkout.
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
}

/// One line naming the machine and build: CPU count, CPU model, rustc
/// version, commit and pinning. Numbers measured elsewhere are recognisable
/// by it.
pub fn facts(nproc: usize, pinning: &str) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map_or("unknown", |rest| rest.trim_start_matches([' ', '\t', ':']));
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!("host: nproc={nproc}; cpu={model}; rustc={rustc}; commit={commit}; pinning={pinning}")
}
