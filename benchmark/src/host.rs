//! Host facts recorded beside every result: numbers from this benchmark
//! compare on the same host only.

use smt_stats::json::Json;

fn first_line_value(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = first_line_value(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mib`] covers only what ran in between. `false` where the
/// kernel or the sandbox does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `f` under a fresh peak-RSS mark and a stopwatch: its result, the
/// seconds it took and the peak RSS it reached in MiB (the process-wide
/// peak so far where the mark cannot be reset, `None` where `/proc` is mute).
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, Option<f64>) {
    reset_peak_rss();
    let (out, seconds) = crate::measure::timed(f);
    (out, seconds, peak_rss_mib())
}

/// The host fingerprint: CPU model, usable parallelism, and the frequency
/// governor where readable.
pub fn fingerprint() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let cpu = read("/proc/cpuinfo").and_then(|t| first_line_value(&t, "model name"));
    let governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    let text = |v: Option<String>| v.map_or(Json::Null, |s| Json::from(s.trim()));
    Json::object([
        ("cpu_model", text(cpu)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("governor", text(governor)),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(
            first_line_value(status, "VmHWM").as_deref(),
            Some("204800 kB")
        );
        assert_eq!(first_line_value(status, "Missing"), None);
    }
}
