//! `campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics, the last line as JSON;
//! `campaignbench --manifest` prints `BENCHMARK.json`.

use campaignbench::{catalogue, e2e, setup, traced};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: &'static setup::WorkloadDef,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       campaignbench --manifest";

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 0, catalogue::RUN_SECONDS as f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(setup::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = setup::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// A per-process directory for the run's files, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--manifest"] {
        print!("{}", catalogue::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("creating {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let run = if args.traced { traced::run } else { e2e::run };
    let line = run(args.workload, args.seed, args.seconds, &work.0).and_then(|out| {
        println!(
            "workload {} seed {} trace {} cores {} threads {}",
            args.workload.name,
            args.seed,
            u8::from(args.traced),
            campaignbench::cores(),
            rayon::current_num_threads()
        );
        for note in &out.notes {
            println!("{note}");
        }
        for m in catalogue::metrics_for(args.traced) {
            if let Some(value) = out.metrics.get(m.name) {
                println!("  {:<28} {value} {}", m.name, m.unit);
            }
        }
        out.result_line(args.traced)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
