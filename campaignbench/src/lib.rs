//! End-to-end campaign benchmark over the checked-in example specs.
//!
//! An untraced run (`--trace 0`) measures the CPU time of whole campaigns
//! at the machine's thread count and prints the end-to-end metrics; a
//! traced run (`--trace 1`) interleaves untraced campaigns with sequential
//! ones that have timing wrappers around each layer's public calls, and
//! prints the per-layer breakdown. Every campaign's output is checked; a failed check
//! counts the campaign as failed.

pub mod catalogue;
pub mod checks;
pub mod e2e;
pub mod probe;
pub mod setup;
pub mod traced;
pub mod vm;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; a non-finite value reads 0 and fails the run.
    pub fn put(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.metrics.insert(name, 0.0);
            self.fail(format!("{name} is not finite"));
        }
    }

    /// Runs one campaign or check, counting it as attempted, and as
    /// failed if it returns an error or panics.
    pub fn attempt<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            Err(format!("panicked: {message}"))
        });
        result
            .map_err(|e| self.fail(format!("{label} (attempt {}): {e}", self.attempted)))
            .ok()
    }

    /// Counts a failed campaign or check.
    pub fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: one JSON object with exactly the catalogue's
    /// metrics for this kind of run.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue = catalogue::metrics_for(traced);
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            // A failed campaign may leave a metric unmeasured; it reads 0
            // in a result that is already marked incorrect.
            let value = match self.metrics.get(m.name) {
                Some(v) => *v,
                None if self.failed > 0 => 0.0,
                None => return Err(format!("metric {} was not measured", m.name)),
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !catalogue.iter().any(|m| m.name == **k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// CPU time this process has used on all its threads, ended ones too.
///
/// The kernel counts only time the threads ran: time the scheduler gave
/// to other processes, and with paravirtual steal accounting time the
/// host gave to other guests, is left out. On a shared machine a campaign's
/// CPU time therefore holds still where its wall time follows the load.
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Cores the machine offers this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&[4.0, 1.0], 0.5), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_result_line_needs_exactly_the_catalogue() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for m in catalogue::END_TO_END {
            out.put(m.name, 1.5);
        }
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(out.result_line(true).is_err());
        out.put("vm.share", 0.5);
        assert!(out.result_line(false).is_err());
    }
}
