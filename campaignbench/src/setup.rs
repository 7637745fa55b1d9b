//! Workload definitions and per-run set-up: spec parse, library and
//! workload build, and (for the warm workload) the cache fill, save and
//! load.

use ax_dse::campaign::{BackendSpec, ExperimentSpec};
use ax_dse::{CampaignReport, SharedCache};
use ax_operators::OperatorLibrary;
use ax_surrogate::{run_spec_with, RunSpecOptions};
use ax_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where each campaign's design cache starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStart {
    /// An empty cache per campaign.
    Cold,
    /// A cache filled at set-up by sequential campaigns of the run's seed
    /// variants, saved and reloaded with `SharedCache::load` (the
    /// `repro run --cache` and served shared-cache case).
    Warm,
}

/// One benchmark workload: a checked-in example spec plus a cache start.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub spec_file: &'static str,
    pub cache: CacheStart,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pareto-cold",
        spec_file: "campaign_pareto.json",
        cache: CacheStart::Cold,
        why: "exact compiled engine on evoapprox-extended, fresh cache per campaign: design execution dominates the wall time",
    },
    WorkloadDef {
        name: "asha-warm",
        spec_file: "campaign_asha.json",
        cache: CacheStart::Warm,
        why: "ASHA replayed against a saved and reloaded full cache: the VM is bypassed, agent stepping and scheduling dominate",
    },
    WorkloadDef {
        name: "tiered-portfolio",
        spec_file: "campaign_matmul.json",
        cache: CacheStart::Cold,
        why: "tiered backend, fresh cache: memo, class memo and ridge surrogate answer most queries before exact runs",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Time spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: Duration,
    pub library: Duration,
    pub cache_load: Duration,
    pub total: Duration,
}

/// Agent-seed variants of the spec per run. A campaign's work depends on
/// its agent seeds, so a run cycles through several of them: its medians
/// then describe the spec, not one trajectory.
pub const SEED_VARIANTS: u64 = 64;

/// Everything a run needs before its first timed campaign.
pub struct Prepared {
    /// The spec as checked in.
    pub spec: ExperimentSpec,
    /// The run's variants of it, from [`variants`].
    pub specs: Vec<ExperimentSpec>,
    pub lib: OperatorLibrary,
    pub workloads: Vec<Box<dyn Workload>>,
    /// The saved warm cache (warm workloads only).
    pub cache_file: Option<PathBuf>,
    pub cache_file_bytes: u64,
    pub times: SetupTimes,
}

impl Prepared {
    /// The design cache one campaign starts from: empty, or a fresh load
    /// of the saved warm cache so every campaign sees the same state.
    pub fn fresh_cache(&self) -> Result<Arc<SharedCache>, String> {
        match &self.cache_file {
            None => Ok(SharedCache::new()),
            Some(path) => {
                SharedCache::load(path).map_err(|e| format!("loading the warm cache: {e}"))
            }
        }
    }

    /// The spec of the `i`-th campaign of a phase.
    pub fn spec(&self, i: usize) -> &ExperimentSpec {
        &self.specs[i % self.specs.len()]
    }

    /// The benchmark input seeds the spec's contexts are prepared with.
    pub fn input_seeds(&self) -> Vec<u64> {
        let spec = &self.specs[0];
        if spec.input_seeds.is_empty() {
            vec![spec.explore.input_seed]
        } else {
            spec.input_seeds.clone()
        }
    }
}

/// The [`SEED_VARIANTS`] variants of `spec` for run `seed`: its agent
/// seeds shifted by `seed × SEED_VARIANTS + variant`, so that seed 0's
/// first variant is the spec as checked in.
pub fn variants(spec: &ExperimentSpec, seed: u64) -> Result<Vec<ExperimentSpec>, String> {
    (0..SEED_VARIANTS)
        .map(|variant| {
            let start = seed
                .checked_mul(SEED_VARIANTS)
                .and_then(|s| s.checked_add(variant))
                .and_then(|shift| spec.seeds.start.checked_add(shift))
                .ok_or("the seed shifts the spec's agent seeds past u64::MAX")?;
            let mut shifted = spec.clone();
            shifted.seeds.start = start;
            Ok(shifted)
        })
        .collect()
}

/// `spec` forced to one worker thread (deterministic today).
pub fn sequential(spec: &ExperimentSpec) -> ExperimentSpec {
    ExperimentSpec {
        parallelism: Some(1),
        ..spec.clone()
    }
}

/// Runs one campaign the way `repro run --report-json` and the daemon do:
/// the spec through `run_spec_with`, then the report to JSON text.
/// Returns the report, its text and the wall time of both.
pub fn run_campaign(
    lib: &OperatorLibrary,
    spec: &ExperimentSpec,
    cache: Arc<SharedCache>,
) -> Result<(CampaignReport, String, Duration), String> {
    let started = Instant::now();
    let report = run_spec_with(
        lib,
        spec,
        RunSpecOptions {
            cache: Some(cache),
            ..Default::default()
        },
    )
    .map_err(|e| format!("campaign failed: {e}"))?;
    let text = report.to_json_string();
    Ok((report, text, started.elapsed()))
}

/// Set-up for one run of `def`, writing the warm cache under `work`.
pub fn setup(def: &WorkloadDef, seed: u64, work: &Path) -> Result<Prepared, String> {
    let started = Instant::now();
    // The example specs of the repository this package sits in.
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../examples")
        .join(def.spec_file);
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("reading {}: {e}", spec_path.display()))?;
    let t = Instant::now();
    let spec = ExperimentSpec::from_json_str(&text).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    spec.validate().map_err(|e| e.to_string())?;
    let specs = variants(&spec, seed)?;
    if spec.explore.batch_neighborhood {
        // `check_report` bounds the overshoot by one design per step.
        return Err("specs with batch_neighborhood are not supported".into());
    }
    if matches!(spec.backend, BackendSpec::ExactInterpreted) {
        return Err("the traced run has no probe for the interpreted backend".into());
    }

    let t = Instant::now();
    let lib = spec.library.build();
    let library = t.elapsed();
    let workloads = spec.build_workloads();

    let mut times = SetupTimes {
        parse,
        library,
        ..SetupTimes::default()
    };
    let (cache_file, cache_file_bytes) = match def.cache {
        CacheStart::Cold => (None, 0),
        CacheStart::Warm => {
            let path = work.join(format!("{}.cache.json", def.name));
            // Filled sequentially (deterministic), with every variant, so
            // that sequential replays of the spec execute nothing.
            let fill = SharedCache::new();
            for spec in &specs {
                run_campaign(&lib, &sequential(spec), Arc::clone(&fill))?;
            }
            fill.save(&path)
                .map_err(|e| format!("saving the warm cache: {e}"))?;
            let t = Instant::now();
            let loaded =
                SharedCache::load(&path).map_err(|e| format!("loading the warm cache: {e}"))?;
            times.cache_load = t.elapsed();
            if loaded.len() != fill.len() {
                return Err(format!(
                    "the reloaded cache holds {} designs, the saved one {}",
                    loaded.len(),
                    fill.len()
                ));
            }
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            (Some(path), bytes)
        }
    };
    times.total = started.elapsed();
    Ok(Prepared {
        spec,
        specs,
        lib,
        workloads,
        cache_file,
        cache_file_bytes,
        times,
    })
}
