//! What the host looked like while the benchmark ran: recorded beside the
//! numbers so a noisy run can be told from a slow build.

use std::process::Command;

/// This process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One line describing the host: CPUs available, compiler, 1-minute load.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} rustc=\"{rustc}\" load1m={load}")
}
