//! A short run of every workload, untraced and traced, must end with a
//! correct result line naming every catalogue metric with its unit.

use ax_dse::json::Json;
use campaignbench::catalogue;
use campaignbench::setup::WORKLOADS;
use std::process::Command;

#[test]
fn short_runs_print_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_campaignbench"))
                .args([
                    "--workload",
                    workload.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace}: {}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            let Json::Obj(fields) = &result else {
                panic!("the result line is not an object: {last}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                result.get("correct").unwrap().as_bool().unwrap(),
                "{} trace {trace}: {last}",
                workload.name
            );
            assert_eq!(result.get("failed").unwrap().as_u64().unwrap(), 0);
            let metrics = result.get("metrics").unwrap();
            for m in catalogue::metrics_for(trace == "1") {
                let metric = metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} trace {trace} lacks {}", workload.name, m.name));
                assert_eq!(metric.get("unit").unwrap().as_str().unwrap(), m.unit);
                metric.get("value").unwrap().as_f64().unwrap();
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "asha-warm", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaignbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
