//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! module printed by `--manifest`; a test keeps the two equal.

use ax_dse::json::Json;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 40;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("campaign_cpu_ms_p50", "ms", Lower, 0.25),
    e2e("steps_per_cpu_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("hypervolume", "volume", Higher, 0.05),
    e2e("best_score", "score", Higher, 0.05),
    e2e("evals_spent", "count", Lower, 0.05),
    e2e("campaign_success_rate", "ratio", Higher, 0.01),
];

/// Printed by traced runs (`--trace 1`). Per-campaign values are medians
/// over the run's traced campaigns.
pub const PER_LAYER: &[Metric] = &[
    layer("run.cores", "count", Higher),
    layer("run.threads", "count", Higher),
    layer("spec.parse_ms", "ms", Lower),
    layer("operators.library_build_ms", "ms", Lower),
    layer("context.prepare_ms", "ms", Lower),
    layer("context.count", "count", Lower),
    layer("backend.calls", "count", Lower),
    layer("backend.busy_ms", "ms", Lower),
    layer("backend.share", "ratio", Lower),
    layer("backend.executions", "count", Lower),
    layer("backend.local_hits", "count", Higher),
    layer("backend.shared_hits", "count", Higher),
    layer("backend.hit_ratio", "ratio", Higher),
    layer("cache.entries", "count", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.load_ms", "ms", Lower),
    layer("cache.file_bytes", "bytes", Lower),
    layer("cache.duplicate_executions", "count", Lower),
    layer("vm.exec_ms", "ms", Lower),
    layer("vm.exec_us_mean", "us", Lower),
    layer("vm.share", "ratio", Lower),
    layer("vm.replayed_designs", "count", Lower),
    layer("vm.bind_us", "us", Lower),
    layer("vm.specialize_us", "us", Lower),
    layer("vm.run_us", "us", Lower),
    layer("vm.run_batch_us", "us", Lower),
    layer("vm.collapse_factor", "ratio", Higher),
    layer("explore.self_ms", "ms", Lower),
    layer("explore.share", "ratio", Lower),
    layer("campaign.traced_ms", "ms", Lower),
    layer("campaign.parallel_ms_p50", "ms", Lower),
    layer("campaign.parallel_ms_p90", "ms", Lower),
    layer("campaign.rounds", "count", Lower),
    layer("campaign.stopped_runs", "count", Lower),
    layer("budget.overshoot", "count", Lower),
    layer("campaign.parallel_speedup", "ratio", Higher),
    layer("campaign.report_divergence", "ratio", Lower),
    layer("surrogate.busy_ms", "ms", Lower),
    layer("tier.memo_hits", "count", Higher),
    layer("tier.class_hits", "count", Higher),
    layer("tier.surrogate_answers", "count", Higher),
    layer("tier.exact_confirmations", "count", Lower),
    layer("tier.avoided_exact_rate", "ratio", Higher),
    layer("report.to_json_ms", "ms", Lower),
    layer("report.bytes", "bytes", Lower),
    layer("telemetry.overhead", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
];

/// The metrics a run prints: per-layer when traced, end-to-end otherwise.
pub fn metrics_for(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    fn metric(m: &Metric) -> Json {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            (
                "better",
                Json::str(match m.better {
                    Lower => "lower",
                    Higher => "higher",
                }),
            ),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::f64(bound)));
        }
        Json::obj(fields)
    }
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "campaignbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("campaignbench")])),
        ("run_seconds", Json::u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                crate::setup::WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), manifest());
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
    }
}
