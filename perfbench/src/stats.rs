//! Order statistics and the process's peak resident memory.

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile (0–100), interpolating linearly between order
/// statistics; 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Resets the kernel's peak-RSS mark of this process to its current RSS,
/// so the next [`peak_rss_mb`] reports the peak of what ran in between.
/// Returns false where the kernel offers no reset (the peak is then the
/// process's).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process since start or the last
/// [`reset_peak_rss`], in MB (`VmHWM`); `None` where `/proc` lacks it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
