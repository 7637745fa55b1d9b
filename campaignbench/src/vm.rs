//! Replays a campaign's distinct designs through the VM's public calls:
//! `Binding::new`, compile/specialise, `CompiledProgram::run`, and the
//! batched `PreparedWorkload::run_batch_stats` path campaigns never reach.
//! Every compiled outcome is compared with the interpreter's
//! (`PreparedWorkload::run`).

use ax_dse::SharedCache;
use ax_operators::OperatorLibrary;
use ax_vm::compile::{CompiledProgram, CompiledSkeleton};
use ax_vm::exec::{Binding, ExecOutcome, ExecScratch};
use ax_vm::instrument::VarMask;
use ax_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Summed replay timings.
#[derive(Debug, Default)]
pub struct Replay {
    pub designs: u64,
    pub bind: Duration,
    pub specialize: Duration,
    pub run: Duration,
    pub run_batch: Duration,
    /// Designs submitted to the batch kernel per design it executed.
    pub collapse_factor: f64,
}

impl Replay {
    /// Mean microseconds per design of a summed duration.
    pub fn per_design_us(&self, total: Duration) -> f64 {
        total.as_secs_f64() * 1e6 / self.designs.max(1) as f64
    }
}

/// `true` when two outcomes agree bit for bit.
fn same_outcome(a: &ExecOutcome, b: &ExecOutcome) -> bool {
    a == b
        && a.profile.power_mw.to_bits() == b.profile.power_mw.to_bits()
        && a.profile.time_ns.to_bits() == b.profile.time_ns.to_bits()
}

/// Replays every design `cache` holds for the given workloads and input
/// seeds, in configuration order.
pub fn replay(
    lib: &OperatorLibrary,
    workloads: &[Box<dyn Workload>],
    input_seeds: &[u64],
    cache: &SharedCache,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let (mut submitted, mut executed) = (0u64, 0u64);
    for workload in workloads {
        for &seed in input_seeds {
            let mut designs: Vec<_> = cache
                .snapshot(&workload.name(), seed)
                .into_iter()
                .map(|(config, _)| (config.adder, config.mul, config.vars))
                .collect();
            if designs.is_empty() {
                continue;
            }
            designs.sort_unstable();
            let prepared = workload.prepare(seed).map_err(|e| e.to_string())?;
            let program = &prepared.program;
            let image = prepared
                .executor()
                .and_then(|ex| ex.initial_memory())
                .map_err(|e| e.to_string())?;
            let skeleton = Arc::new(CompiledSkeleton::new(program));
            let mut scratch = ExecScratch::new();
            let mut mask = VarMask::none(program);
            let mut compiled: Option<CompiledProgram> = None;
            let mut singles = Vec::with_capacity(designs.len());
            for &(adder, mul, bits) in &designs {
                let t = Instant::now();
                let binding = Binding::new(lib, program, adder, mul).map_err(|e| e.to_string())?;
                out.bind += t.elapsed();

                let t = Instant::now();
                let program_for_design = match &mut compiled {
                    Some(c) => {
                        c.specialize(&binding, bits);
                        c
                    }
                    none => none.insert(skeleton.compile(&binding, bits)),
                };
                out.specialize += t.elapsed();

                let t = Instant::now();
                let outcome = program_for_design
                    .run(&image, &mut scratch)
                    .map_err(|e| e.to_string())?;
                out.run += t.elapsed();

                mask.set_raw_bits(bits);
                let reference = prepared.run(&binding, &mask).map_err(|e| e.to_string())?;
                if !same_outcome(&outcome, &reference) {
                    return Err(format!(
                        "{} design ({adder}, {mul}, {bits:#x}): compiled and interpreted outcomes differ",
                        workload.name()
                    ));
                }
                singles.push(outcome);
            }

            let t = Instant::now();
            let (batched, stats) = prepared
                .run_batch_stats(lib, &designs)
                .map_err(|e| e.to_string())?;
            out.run_batch += t.elapsed();
            if batched.len() != singles.len()
                || batched
                    .iter()
                    .zip(&singles)
                    .any(|(b, s)| !same_outcome(b, s))
            {
                return Err(format!(
                    "{}: batched outcomes differ from the single runs",
                    workload.name()
                ));
            }
            out.designs += designs.len() as u64;
            submitted += stats.designs;
            executed += stats.kernel_designs + stats.sequential_designs;
        }
    }
    out.collapse_factor = submitted as f64 / executed.max(1) as f64;
    Ok(out)
}
