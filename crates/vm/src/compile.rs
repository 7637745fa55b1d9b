//! Threaded-code design specialisation: compile the interpreter away.
//!
//! [`crate::exec::run_from_image`] pays, per instruction and per design:
//! a `flags[pc]` lookup and branch, an operator-model `match`, up to three
//! `Program::offset` double indirections, and two cost-meter updates — plus
//! a full per-design instruction-flag recomputation. A DSE sweep executes
//! the *same program* thousands of times, so all of that is loop-invariant
//! with respect to the design and can be resolved once.
//!
//! The compilation pass works in two stages:
//!
//! 1. [`CompiledSkeleton`] — built **once per program**: every operand slot
//!    is resolved to its flat `usize` memory offset, every arithmetic
//!    instruction carries the bitmask of approximable variables it touches
//!    (so the per-design approximate/precise decision is a single `AND`),
//!    and output ranges are precomputed.
//! 2. [`CompiledProgram`] — the skeleton **specialised to one
//!    `(Binding, VarMask)` design**: each instruction is rewritten into an
//!    exact or approximate opcode (no `flags[pc]` branch at run time;
//!    precise additions and multiplications compile to raw two's-complement
//!    arithmetic, bypassing the operator-model `match` entirely), and the
//!    run's [`ArithProfile`] is computed **analytically at compile time**
//!    from the static approximate/precise operation counts and the
//!    binding's precomputed [`OpCost`] pairs — the run loop is just loads,
//!    operator-model calls, and stores.
//!
//! Re-specialising is asymmetric by design: changing the variable selection
//! rewrites the opcode vector in place (one linear pass, no allocation),
//! while changing only the operator binding is O(1) — the approximate
//! models live in the [`CompiledProgram`] header, not in each opcode, so a
//! sweep iterating operators in the inner loop pays nothing per design
//! beyond the profile refresh.
//!
//! Equivalence with the interpreter is bit-exact, for outputs *and*
//! profiles: the precise opcodes are algebraically identical to the
//! interpreter's precise model path (see `exact_add`/`exact_mul` notes),
//! and both engines derive power/time through the single
//! [`ArithProfile::from_counts`] formula.

use crate::cost::{ArithCounts, ArithProfile, OpCost};
use crate::error::VmError;
#[allow(unused_imports)] // doc links
use crate::exec::sliced_add;
use crate::exec::{Binding, ExecOutcome, ExecScratch};
use crate::ir::{Instr, Program};
use ax_operators::signed::mul_signed;
use ax_operators::{AdderId, AdderModel, BitWidth, MulId, MulModel, OperatorLibrary};
use std::collections::HashMap;
use std::sync::Arc;

/// What fully determines a design's outcome under one program: see
/// [`CompiledSkeleton::outcome_key`].
pub type OutcomeKey = (u64, Option<AdderId>, Option<MulId>);

/// One instruction with operand offsets resolved and its touched-variable
/// bitmask attached — everything about the instruction that does not depend
/// on the design.
#[derive(Debug, Clone, Copy)]
enum SkelOp {
    Const {
        dst: usize,
        value: i64,
    },
    Copy {
        dst: usize,
        src: usize,
    },
    Add {
        dst: usize,
        a: usize,
        b: usize,
        /// Bit `i` set iff the instruction touches approximable variable
        /// `i` (mask-bit order): the design's flag is `touched & bits != 0`.
        touched: u64,
    },
    Mul {
        dst: usize,
        a: usize,
        b: usize,
        shift: u32,
        /// Original instruction index, kept for overflow-error parity with
        /// the interpreter.
        pc: u32,
        touched: u64,
    },
}

/// The design-independent compiled form of one [`Program`]: offsets
/// resolved, touched-variable masks attached, output ranges precomputed.
/// Built once per program and shared (via `Arc`) by every
/// [`CompiledProgram`] specialised from it.
#[derive(Debug, Clone)]
pub struct CompiledSkeleton {
    ops: Vec<SkelOp>,
    /// `(base, len)` of each output variable, in declaration order.
    outputs: Vec<(usize, usize)>,
    total_cells: usize,
    output_cells: usize,
    add_width: BitWidth,
    mul_width: BitWidth,
    adds_total: u64,
    muls_total: u64,
    /// The distinct non-zero `touched` masks across all instructions — the
    /// program's *flag classes*. Two variable selections that intersect
    /// every class identically flag every instruction identically, which
    /// [`CompiledSkeleton::flag_signature`] exploits.
    flag_classes: Vec<u64>,
    /// Signature bits whose flag class holds at least one addition
    /// (respectively multiplication).
    add_classes: u64,
    mul_classes: u64,
}

impl CompiledSkeleton {
    /// Resolves `program` into its offset-resolved skeleton.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than 64 approximable variables (the
    /// same bound [`crate::instrument::VarMask`] enforces).
    pub fn new(program: &Program) -> Self {
        // Bit position of each variable in the approximable list; u64::MAX
        // shifts below never match (var not selectable -> touched bit 0).
        let approximable = program.approximable_vars();
        assert!(
            approximable.len() <= 64,
            "at most 64 approximable variables supported"
        );
        let mut var_bit = vec![0u64; program.vars().len()];
        for (i, v) in approximable.iter().enumerate() {
            var_bit[v.index()] = 1u64 << i;
        }

        let (mut adds_total, mut muls_total) = (0u64, 0u64);
        let ops: Vec<SkelOp> = program
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, instr)| match *instr {
                Instr::Const { dst, value } => SkelOp::Const {
                    dst: program.offset(dst),
                    value,
                },
                Instr::Copy { dst, src } => SkelOp::Copy {
                    dst: program.offset(dst),
                    src: program.offset(src),
                },
                Instr::Add { dst, a, b } => {
                    adds_total += 1;
                    SkelOp::Add {
                        dst: program.offset(dst),
                        a: program.offset(a),
                        b: program.offset(b),
                        touched: var_bit[dst.var.index()]
                            | var_bit[a.var.index()]
                            | var_bit[b.var.index()],
                    }
                }
                Instr::Mul { dst, a, b, shift } => {
                    muls_total += 1;
                    SkelOp::Mul {
                        dst: program.offset(dst),
                        a: program.offset(a),
                        b: program.offset(b),
                        shift,
                        pc: pc as u32,
                        touched: var_bit[dst.var.index()]
                            | var_bit[a.var.index()]
                            | var_bit[b.var.index()],
                    }
                }
            })
            .collect();

        let outputs: Vec<(usize, usize)> = program
            .output_vars()
            .into_iter()
            .map(|id| (program.offset(id.at(0)), program.var(id).len() as usize))
            .collect();
        let output_cells = outputs.iter().map(|&(_, len)| len).sum();

        let mut flag_classes: Vec<u64> = Vec::new();
        let (mut add_classes, mut mul_classes) = (0u64, 0u64);
        for op in &ops {
            let (touched, classes) = match *op {
                SkelOp::Add { touched, .. } => (touched, &mut add_classes),
                SkelOp::Mul { touched, .. } => (touched, &mut mul_classes),
                _ => continue,
            };
            if touched == 0 {
                continue;
            }
            let class = match flag_classes.iter().position(|&c| c == touched) {
                Some(i) => i,
                None => {
                    flag_classes.push(touched);
                    flag_classes.len() - 1
                }
            };
            if class < 64 {
                *classes |= 1 << class;
            }
        }

        Self {
            ops,
            outputs,
            total_cells: program.total_cells() as usize,
            output_cells,
            add_width: program.add_width(),
            mul_width: program.mul_width(),
            adds_total,
            muls_total,
            flag_classes,
            add_classes,
            mul_classes,
        }
    }

    /// Width class of the program's additions.
    pub fn add_width(&self) -> BitWidth {
        self.add_width
    }

    /// Width class of the program's multiplications.
    pub fn mul_width(&self) -> BitWidth {
        self.mul_width
    }

    /// A value characterising exactly which instructions run approximate
    /// under the raw variable selection `bits`: selections with equal
    /// signatures flag every instruction identically, so they compile to
    /// identical opcode vectors and identical operation counts — for any
    /// fixed operator pair, bit-identical outcomes. Bit `i` of the
    /// signature is the non-empty intersection of `bits` with the `i`-th
    /// flag class. Programs with more than 64 flag classes (none in
    /// practice — classes are bounded by distinct instruction shapes) fall
    /// back to the selection itself, which is trivially sound.
    pub fn flag_signature(&self, bits: u64) -> u64 {
        if self.flag_classes.len() > 64 {
            return bits;
        }
        self.flag_classes
            .iter()
            .enumerate()
            .fold(0, |sig, (i, &touched)| {
                sig | (u64::from(touched & bits != 0) << i)
            })
    }

    /// The key of the design `(adder, mul, bits)`'s execution-equivalence
    /// class: designs with equal keys produce bit-identical outcomes,
    /// outputs *and* profile. The key is the selection's
    /// [`CompiledSkeleton::flag_signature`] plus each operator only if the
    /// signature makes some instruction of its kind approximate — an adder
    /// no addition runs through cannot change the outcome, and likewise a
    /// multiplier. With more than 64 flag classes the key is the raw
    /// `(bits, adder, mul)`.
    pub fn outcome_key(&self, adder: AdderId, mul: MulId, bits: u64) -> OutcomeKey {
        if self.flag_classes.len() > 64 {
            return (bits, Some(adder), Some(mul));
        }
        let sig = self.flag_signature(bits);
        (
            sig,
            (sig & self.add_classes != 0).then_some(adder),
            (sig & self.mul_classes != 0).then_some(mul),
        )
    }

    /// Specialises this skeleton to one design. See
    /// [`CompiledProgram::compile`].
    pub fn compile(self: &Arc<Self>, binding: &Binding<'_>, mask_bits: u64) -> CompiledProgram {
        CompiledProgram::compile(self, binding, mask_bits)
    }
}

/// One opcode of a specialised program: the approximate/precise choice is
/// baked into the variant, so the run loop has no flag lookup and no cost
/// accounting. Operand offsets are `u32` deliberately — a sweep streams the
/// opcode vector thousands of times, and the narrow encoding keeps whole
/// programs resident in L1 (cell counts are bounded by the program IR's
/// `u32` cell space, so the narrowing is lossless).
#[derive(Debug, Clone, Copy)]
enum CompiledOp {
    Const {
        dst: u32,
        value: i64,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    /// Precise addition: raw two's-complement `wrapping_add` (bit-identical
    /// to the precise adder slice, see `exact_add`).
    AddExact {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Approximate addition through the design's adder model.
    AddApprox {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Precise multiplication: operand check + raw `wrapping_mul`
    /// (bit-identical to the sign-magnitude precise model, see `exact_mul`).
    MulExact {
        dst: u32,
        a: u32,
        b: u32,
        shift: u32,
        pc: u32,
    },
    /// Approximate multiplication through the design's multiplier model.
    MulApprox {
        dst: u32,
        a: u32,
        b: u32,
        shift: u32,
        pc: u32,
    },
}

/// Resolves an [`AdderModel`] to a fully inlined approximate-add closure
/// and runs `$body` with it bound to `$add` — the adder-kind `match` is
/// hoisted out of the execution loops, so each kind monomorphises its loop
/// with the kernel inlined (no per-instruction operator dispatch survives
/// to run time). The embedding is bit-identical to the interpreter's
/// [`sliced_add`]; `AdderKind::Precise` shortcuts to `wrapping_add`, which
/// the exactness notes prove equal to the precise sliced path.
macro_rules! with_add_kernel {
    ($model:expr, $w:expr, |$add:ident| $body:expr) => {{
        use ax_operators::adders as kernel;
        use ax_operators::AdderKind as K;
        let w = $w;
        match $model.kind() {
            K::Precise => {
                let $add = |x: i64, y: i64| x.wrapping_add(y);
                $body
            }
            K::Loa { approx_bits } => {
                let $add =
                    move |x: i64, y: i64| sliced(x, y, w, |a, b| kernel::loa(a, b, w, approx_bits));
                $body
            }
            K::Trunc { cut_bits } => {
                let $add =
                    move |x: i64, y: i64| sliced(x, y, w, |a, b| kernel::trunc(a, b, w, cut_bits));
                $body
            }
            K::SetOne { cut_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::set_one(a, b, w, cut_bits))
                };
                $body
            }
            K::SetMid { cut_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::set_mid(a, b, w, cut_bits))
                };
                $body
            }
            K::CarryCut { cut, window } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::carry_cut(a, b, w, cut, window))
                };
                $body
            }
            K::PassB { approx_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::pass_b(a, b, w, approx_bits))
                };
                $body
            }
        }
    }};
}

/// Counters describing what the batch kernel did across
/// [`CompiledProgram::run_batch`] calls: how many designs were answered by
/// the cross-group signature cache, collapsed by model-equivalence dedup,
/// executed through the factored kernel vs the sequential fallback, and
/// how long the two kernel stages ran.
///
/// The count fields are schedule-deterministic (they depend only on the
/// batch contents); the `*_ns` timing fields are wall-clock and must be
/// excluded from determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Designs submitted across all batches.
    pub designs: u64,
    /// Mask-sharing groups the batches split into.
    pub groups: u64,
    /// Designs answered by an outcome an earlier group computed (equal
    /// [`CompiledSkeleton::outcome_key`]).
    pub signature_hits: u64,
    /// Designs sharing an outcome key with an earlier design of their own
    /// group, collapsed before execution.
    pub dedup_hits: u64,
    /// Distinct designs actually executed by the factored kernel.
    pub kernel_designs: u64,
    /// Designs executed through the sequential (rebind + run) fallback.
    pub sequential_designs: u64,
    /// Stage-2 kernel invocations (one per adder-homogeneous lane batch).
    pub kernel_invocations: u64,
    /// Wall-clock nanoseconds spent in stage 1 (adder-independent work).
    pub stage1_ns: u64,
    /// Wall-clock nanoseconds spent in stage 2 (per-design lanes).
    pub stage2_ns: u64,
}

impl BatchStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        self.designs += other.designs;
        self.groups += other.groups;
        self.signature_hits += other.signature_hits;
        self.dedup_hits += other.dedup_hits;
        self.kernel_designs += other.kernel_designs;
        self.sequential_designs += other.sequential_designs;
        self.kernel_invocations += other.kernel_invocations;
        self.stage1_ns += other.stage1_ns;
        self.stage2_ns += other.stage2_ns;
    }

    /// How many submitted designs each *executed* design answered for:
    /// `designs / (kernel_designs + sequential_designs)`. 1.0 means no
    /// collapse; `None` before any design executed.
    pub fn collapse_factor(&self) -> Option<f64> {
        let executed = self.kernel_designs + self.sequential_designs;
        (executed > 0).then(|| self.designs as f64 / executed as f64)
    }
}

/// A `(Program, Binding, VarMask)` triple compiled to threaded code, ready
/// to run against any input image of the program.
///
/// The approximate models and the multiplier's overflow bound live in this
/// header (one `Copy` each — operator models are plain value types), the
/// per-instruction choice lives in the opcode variants, and the whole run's
/// cost profile is a precomputed constant.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    skeleton: Arc<CompiledSkeleton>,
    ops: Vec<CompiledOp>,
    mask_bits: u64,
    add_model: AdderModel,
    mul_model: MulModel,
    add_costs: [OpCost; 2],
    mul_costs: [OpCost; 2],
    /// Operand-magnitude bound of the multiplier width (overflow mask).
    mul_mask: u64,
    mul_width_bits: u32,
    counts: ArithCounts,
    profile: ArithProfile,
    batch: BatchStats,
}

impl CompiledProgram {
    /// Specialises `skeleton` to the design `(binding, mask_bits)`.
    ///
    /// `mask_bits` is the raw variable selection
    /// ([`crate::instrument::VarMask::raw_bits`]) over the program's
    /// approximable variables.
    pub fn compile(
        skeleton: &Arc<CompiledSkeleton>,
        binding: &Binding<'_>,
        mask_bits: u64,
    ) -> Self {
        let mut compiled = Self {
            skeleton: Arc::clone(skeleton),
            ops: Vec::with_capacity(skeleton.ops.len()),
            mask_bits: 0,
            add_model: binding.adder().model,
            mul_model: binding.mul().model,
            add_costs: *binding.add_costs(),
            mul_costs: *binding.mul_costs(),
            mul_mask: skeleton.mul_width.mask(),
            mul_width_bits: skeleton.mul_width.bits(),
            counts: ArithCounts::default(),
            profile: ArithProfile::default(),
            batch: BatchStats::default(),
        };
        compiled.select_impl(mask_bits, true);
        compiled
    }

    /// Re-specialises to a new operator binding, keeping the variable
    /// selection: O(1) — swaps the models and refreshes the analytic
    /// profile, without touching the opcode vector.
    pub fn rebind(&mut self, binding: &Binding<'_>) {
        self.add_model = binding.adder().model;
        self.mul_model = binding.mul().model;
        self.add_costs = *binding.add_costs();
        self.mul_costs = *binding.mul_costs();
        self.profile = ArithProfile::from_counts(self.counts, &self.add_costs, &self.mul_costs);
    }

    /// Re-specialises to a new variable selection, keeping the binding:
    /// rewrites the opcode vector in place (one pass, allocation-free). A
    /// no-op when `mask_bits` is unchanged.
    pub fn select(&mut self, mask_bits: u64) {
        if mask_bits != self.mask_bits {
            self.select_impl(mask_bits, false);
        }
    }

    /// Re-specialises to a whole new design: [`CompiledProgram::rebind`] +
    /// [`CompiledProgram::select`].
    pub fn specialize(&mut self, binding: &Binding<'_>, mask_bits: u64) {
        self.rebind(binding);
        self.select(mask_bits);
    }

    fn select_impl(&mut self, mask_bits: u64, force: bool) {
        debug_assert!(force || mask_bits != self.mask_bits);
        let skeleton = &self.skeleton;
        let (mut adds_approx, mut muls_approx) = (0u64, 0u64);
        self.ops.clear();
        self.ops.extend(skeleton.ops.iter().map(|op| match *op {
            SkelOp::Const { dst, value } => CompiledOp::Const {
                dst: dst as u32,
                value,
            },
            SkelOp::Copy { dst, src } => CompiledOp::Copy {
                dst: dst as u32,
                src: src as u32,
            },
            SkelOp::Add { dst, a, b, touched } => {
                let (dst, a, b) = (dst as u32, a as u32, b as u32);
                if touched & mask_bits != 0 {
                    adds_approx += 1;
                    CompiledOp::AddApprox { dst, a, b }
                } else {
                    CompiledOp::AddExact { dst, a, b }
                }
            }
            SkelOp::Mul {
                dst,
                a,
                b,
                shift,
                pc,
                touched,
            } => {
                let (dst, a, b) = (dst as u32, a as u32, b as u32);
                if touched & mask_bits != 0 {
                    muls_approx += 1;
                    CompiledOp::MulApprox {
                        dst,
                        a,
                        b,
                        shift,
                        pc,
                    }
                } else {
                    CompiledOp::MulExact {
                        dst,
                        a,
                        b,
                        shift,
                        pc,
                    }
                }
            }
        }));
        self.mask_bits = mask_bits;
        self.counts = ArithCounts {
            adds_total: skeleton.adds_total,
            adds_approx,
            muls_total: skeleton.muls_total,
            muls_approx,
        };
        self.profile = ArithProfile::from_counts(self.counts, &self.add_costs, &self.mul_costs);
    }

    /// The design's run profile, computed analytically at compile time —
    /// identical to what [`CompiledProgram::run`] returns in its outcome.
    pub fn profile(&self) -> ArithProfile {
        self.profile
    }

    /// The raw variable-selection bits this program is specialised to.
    pub fn mask_bits(&self) -> u64 {
        self.mask_bits
    }

    /// The shared offset-resolved skeleton.
    pub fn skeleton(&self) -> &Arc<CompiledSkeleton> {
        &self.skeleton
    }

    /// Executes the compiled design against one input image (see
    /// [`crate::exec::Executor::initial_memory`]), reusing `scratch`'s
    /// memory buffer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OperandOverflow`] if a multiplication operand's
    /// magnitude exceeds the multiplier width.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the program's cell count.
    pub fn run(&self, image: &[i64], scratch: &mut ExecScratch) -> Result<ExecOutcome, VmError> {
        assert_eq!(
            image.len(),
            self.skeleton.total_cells,
            "memory image size does not match the program"
        );
        let mem = &mut scratch.mem;
        mem.clear();
        mem.extend_from_slice(image);

        self.exec_ops(&self.ops, mem, &self.add_model, &self.mul_model)?;

        let mut outputs = Vec::with_capacity(self.skeleton.output_cells);
        for &(base, len) in &self.skeleton.outputs {
            outputs.extend_from_slice(&mem[base..base + len]);
        }
        Ok(ExecOutcome {
            outputs,
            profile: self.profile,
        })
    }

    /// The execution loop shared by [`CompiledProgram::run`] and the
    /// factored group kernel: dispatches once on the adder kind (see
    /// [`with_add_kernel!`]) and runs the monomorphised loop.
    fn exec_ops(
        &self,
        ops: &[CompiledOp],
        mem: &mut [i64],
        add_model: &AdderModel,
        mul_model: &MulModel,
    ) -> Result<(), VmError> {
        with_add_kernel!(add_model, self.skeleton.add_width, |add| self
            .exec_ops_with(ops, mem, add, mul_model))
    }

    /// The monomorphised loop behind [`CompiledProgram::exec_ops`]: pure
    /// loads, arithmetic, and stores against `mem`, with `add` the fully
    /// resolved approximate-add kernel.
    fn exec_ops_with(
        &self,
        ops: &[CompiledOp],
        mem: &mut [i64],
        add: impl Fn(i64, i64) -> i64,
        mul_model: &MulModel,
    ) -> Result<(), VmError> {
        for op in ops {
            match *op {
                CompiledOp::Const { dst, value } => mem[dst as usize] = value,
                CompiledOp::Copy { dst, src } => mem[dst as usize] = mem[src as usize],
                CompiledOp::AddExact { dst, a, b } => {
                    mem[dst as usize] = mem[a as usize].wrapping_add(mem[b as usize]);
                }
                CompiledOp::AddApprox { dst, a, b } => {
                    mem[dst as usize] = add(mem[a as usize], mem[b as usize]);
                }
                CompiledOp::MulExact {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (x, y) = (mem[a as usize], mem[b as usize]);
                    self.check_mul_operands(x, y, pc)?;
                    mem[dst as usize] = x.wrapping_mul(y) >> shift;
                }
                CompiledOp::MulApprox {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (x, y) = (mem[a as usize], mem[b as usize]);
                    self.check_mul_operands(x, y, pc)?;
                    mem[dst as usize] = mul_signed(mul_model, x, y) >> shift;
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn check_mul_operands(&self, x: i64, y: i64, pc: u32) -> Result<(), VmError> {
        for v in [x, y] {
            if v.unsigned_abs() > self.mul_mask {
                return Err(VmError::OperandOverflow {
                    pc: pc as usize,
                    value: v,
                    width_bits: self.mul_width_bits,
                });
            }
        }
        Ok(())
    }

    /// Evaluates a whole neighbourhood of designs against one input image,
    /// compiling each design's variant from the shared skeleton in place —
    /// the batch kernel behind `PreparedWorkload::run_batch`.
    ///
    /// Runs of consecutive configurations sharing a variable selection form
    /// a *group*: the opcode rewrite runs once per group (operator swaps are
    /// O(1)), and groups of at least [`MIN_FACTORED_GROUP`] designs execute
    /// through the factored kernel (`run_group`), which runs
    /// adder-independent work once per distinct multiplier instead of once
    /// per design. Designs are evaluated once per
    /// [`CompiledSkeleton::outcome_key`] for the whole batch: within a group
    /// that collapses operators the selection never exercises
    /// approximately, and across groups it shares selections that flag
    /// every instruction identically. Callers ordering a sweep mask-major
    /// therefore pay `distinct signatures` compile passes and dramatically
    /// fewer instruction executions than `designs × program length`.
    /// Results keep the order of `configs` and are bit-identical to
    /// evaluating each design alone.
    ///
    /// # Errors
    ///
    /// Propagates binding and execution errors; evaluation stops at the
    /// first failing configuration (in `configs` order, exactly as
    /// sequential evaluation would).
    pub fn run_batch(
        &mut self,
        lib: &OperatorLibrary,
        image: &[i64],
        configs: &[(AdderId, MulId, u64)],
    ) -> Result<Vec<ExecOutcome>, VmError> {
        let mut scratch = ExecScratch::new();
        let mut outcomes = Vec::with_capacity(configs.len());
        let mut stats = BatchStats {
            designs: configs.len() as u64,
            ..BatchStats::default()
        };
        // Cross-group equivalence cache: designs with equal outcome keys
        // ([`CompiledSkeleton::outcome_key`]) share one evaluation.
        let mut cache: HashMap<OutcomeKey, ExecOutcome> = HashMap::new();
        let mut start = 0;
        while start < configs.len() {
            let bits = configs[start].2;
            let mut end = start + 1;
            while end < configs.len() && configs[end].2 == bits {
                end += 1;
            }
            let group = &configs[start..end];
            let keys: Vec<OutcomeKey> = group
                .iter()
                .map(|&(adder, mul, _)| self.skeleton.outcome_key(adder, mul, bits))
                .collect();
            // One representative per key the cache cannot answer, in group
            // order.
            let mut missing: Vec<(AdderId, MulId, u64)> = Vec::new();
            let mut missing_keys: Vec<OutcomeKey> = Vec::new();
            for (&(adder, mul, _), &key) in group.iter().zip(&keys) {
                if cache.contains_key(&key) {
                    stats.signature_hits += 1;
                } else if missing_keys.contains(&key) {
                    stats.dedup_hits += 1;
                } else {
                    missing_keys.push(key);
                    missing.push((adder, mul, bits));
                }
            }
            stats.groups += 1;
            if !missing.is_empty() {
                self.select(bits);
                let factored = if missing.len() >= MIN_FACTORED_GROUP {
                    let mut group_stats = BatchStats::default();
                    match self.run_group(lib, image, &missing, &mut group_stats) {
                        Ok(outs) => {
                            stats.merge(&group_stats);
                            Some(outs)
                        }
                        Err(_) => None,
                    }
                } else {
                    None
                };
                let results = match factored {
                    Some(outs) => outs,
                    // Small remainder — or a failing one: replay it
                    // sequentially so the first error surfaces in exact
                    // `configs` order with the interpreter's `pc`
                    // (equivalent designs fail identically, so a class
                    // representative's error *is* the first duplicate's).
                    None => {
                        stats.sequential_designs += missing.len() as u64;
                        let mut outs = Vec::with_capacity(missing.len());
                        for &(adder, mul, _) in &missing {
                            let binding = Binding::for_widths(
                                lib,
                                self.skeleton.add_width,
                                self.skeleton.mul_width,
                                adder,
                                mul,
                            )?;
                            self.rebind(&binding);
                            outs.push(self.run(image, &mut scratch)?);
                        }
                        outs
                    }
                };
                cache.extend(missing_keys.into_iter().zip(results));
            }
            outcomes.extend(keys.iter().map(|key| cache[key].clone()));
            start = end;
        }
        self.batch.merge(&stats);
        Ok(outcomes)
    }

    /// Cumulative [`BatchStats`] over every `run_batch` call on this
    /// program since construction (or the last
    /// [`CompiledProgram::reset_batch_stats`]).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch
    }

    /// Zeroes the cumulative [`BatchStats`].
    pub fn reset_batch_stats(&mut self) {
        self.batch = BatchStats::default();
    }

    /// Factored execution of one mask-sharing group of designs — the
    /// neighbourhood kernel.
    ///
    /// The specialised opcode vector is first rewritten into SSA form over
    /// an extended memory (original cells keep the input image; every write
    /// allocates a fresh cell) while being split into two stages by model
    /// dependence:
    ///
    /// * **stage 1** — ops whose value cannot depend on the adder model
    ///   (no approximate addition upstream). These run once per *distinct
    ///   multiplier* in the group — or just once, if no approximate
    ///   multiplication lands in the stage.
    /// * **stage 2** — everything downstream of an approximate addition.
    ///   These run per design, batched by adder and interleaved across the
    ///   batch's lanes ([`CompiledProgram::exec_batch_with`]): SSA
    ///   renaming guarantees stage 2 only writes fresh (private, per-lane)
    ///   cells, so the shared stage-1 values are never clobbered and no
    ///   per-design copy is needed.
    ///
    /// The caller passes one design per outcome key
    /// ([`CompiledSkeleton::outcome_key`]), so every lane is distinct work.
    ///
    /// # Errors
    ///
    /// Any error aborts the whole group; the caller replays it
    /// sequentially so error ordering matches the interpreter.
    fn run_group(
        &self,
        lib: &OperatorLibrary,
        image: &[i64],
        group: &[(AdderId, MulId, u64)],
        stats: &mut BatchStats,
    ) -> Result<Vec<ExecOutcome>, VmError> {
        const ADDER_DEP: u8 = 1;
        const MUL_DEP: u8 = 2;

        // --- SSA renaming + stage split (one linear pass per group).
        let n = self.skeleton.total_cells;
        let mut cur: Vec<u32> = (0..n as u32).collect();
        let mut cls: Vec<u8> = vec![0; n];
        let mut stage1: Vec<CompiledOp> = Vec::new();
        let mut stage2: Vec<CompiledOp> = Vec::new();
        let mut stage1_mul_dependent = false;
        for op in &self.ops {
            match *op {
                CompiledOp::Const { dst, value } => {
                    let d = cls.len() as u32;
                    cls.push(0);
                    cur[dst as usize] = d;
                    stage1.push(CompiledOp::Const { dst: d, value });
                }
                CompiledOp::Copy { dst, src } => {
                    let s = cur[src as usize];
                    let c = cls[s as usize];
                    let d = cls.len() as u32;
                    cls.push(c);
                    cur[dst as usize] = d;
                    let stage = if c & ADDER_DEP == 0 {
                        &mut stage1
                    } else {
                        &mut stage2
                    };
                    stage.push(CompiledOp::Copy { dst: d, src: s });
                }
                CompiledOp::AddExact { dst, a, b } => {
                    let (ra, rb) = (cur[a as usize], cur[b as usize]);
                    let c = cls[ra as usize] | cls[rb as usize];
                    let d = cls.len() as u32;
                    cls.push(c);
                    cur[dst as usize] = d;
                    let stage = if c & ADDER_DEP == 0 {
                        &mut stage1
                    } else {
                        &mut stage2
                    };
                    stage.push(CompiledOp::AddExact {
                        dst: d,
                        a: ra,
                        b: rb,
                    });
                }
                CompiledOp::AddApprox { dst, a, b } => {
                    let (ra, rb) = (cur[a as usize], cur[b as usize]);
                    let c = cls[ra as usize] | cls[rb as usize] | ADDER_DEP;
                    let d = cls.len() as u32;
                    cls.push(c);
                    cur[dst as usize] = d;
                    stage2.push(CompiledOp::AddApprox {
                        dst: d,
                        a: ra,
                        b: rb,
                    });
                }
                CompiledOp::MulExact {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (ra, rb) = (cur[a as usize], cur[b as usize]);
                    let c = cls[ra as usize] | cls[rb as usize];
                    let d = cls.len() as u32;
                    cls.push(c);
                    cur[dst as usize] = d;
                    let stage = if c & ADDER_DEP == 0 {
                        &mut stage1
                    } else {
                        &mut stage2
                    };
                    stage.push(CompiledOp::MulExact {
                        dst: d,
                        a: ra,
                        b: rb,
                        shift,
                        pc,
                    });
                }
                CompiledOp::MulApprox {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (ra, rb) = (cur[a as usize], cur[b as usize]);
                    let c = cls[ra as usize] | cls[rb as usize] | MUL_DEP;
                    let d = cls.len() as u32;
                    cls.push(c);
                    cur[dst as usize] = d;
                    let stage = if c & ADDER_DEP == 0 {
                        stage1_mul_dependent = true;
                        &mut stage1
                    } else {
                        &mut stage2
                    };
                    stage.push(CompiledOp::MulApprox {
                        dst: d,
                        a: ra,
                        b: rb,
                        shift,
                        pc,
                    });
                }
            }
        }
        // --- Remap the extended cell space: *shared* cells (originals +
        // stage-1 results; one buffer per distinct multiplier) get dense
        // low indices, *private* cells (stage-2 results; one lane per
        // design) are tagged with [`PRIV`]. Defs dominate uses, so one
        // in-order pass per stage rewrites every operand.
        let total_ext = cls.len();
        assert!(total_ext < PRIV as usize, "program exceeds the cell space");
        let mut remap: Vec<u32> = (0..total_ext as u32).collect();
        let mut next_shared = n as u32;
        for op in &mut stage1 {
            match op {
                CompiledOp::Const { dst, .. } => {
                    remap[*dst as usize] = next_shared;
                    *dst = next_shared;
                    next_shared += 1;
                }
                CompiledOp::Copy { dst, src } => {
                    *src = remap[*src as usize];
                    remap[*dst as usize] = next_shared;
                    *dst = next_shared;
                    next_shared += 1;
                }
                CompiledOp::AddExact { dst, a, b }
                | CompiledOp::AddApprox { dst, a, b }
                | CompiledOp::MulExact { dst, a, b, .. }
                | CompiledOp::MulApprox { dst, a, b, .. } => {
                    *a = remap[*a as usize];
                    *b = remap[*b as usize];
                    remap[*dst as usize] = next_shared;
                    *dst = next_shared;
                    next_shared += 1;
                }
            }
        }
        let n_shared = next_shared as usize;
        let mut next_priv = 0u32;
        for op in &mut stage2 {
            match op {
                CompiledOp::Const { dst, .. } => {
                    remap[*dst as usize] = PRIV | next_priv;
                    *dst = PRIV | next_priv;
                    next_priv += 1;
                }
                CompiledOp::Copy { dst, src } => {
                    *src = remap[*src as usize];
                    remap[*dst as usize] = PRIV | next_priv;
                    *dst = PRIV | next_priv;
                    next_priv += 1;
                }
                CompiledOp::AddExact { dst, a, b }
                | CompiledOp::AddApprox { dst, a, b }
                | CompiledOp::MulExact { dst, a, b, .. }
                | CompiledOp::MulApprox { dst, a, b, .. } => {
                    *a = remap[*a as usize];
                    *b = remap[*b as usize];
                    remap[*dst as usize] = PRIV | next_priv;
                    *dst = PRIV | next_priv;
                    next_priv += 1;
                }
            }
        }
        let priv_count = next_priv as usize;
        let out_ids: Vec<u32> = self
            .skeleton
            .outputs
            .iter()
            .flat_map(|&(base, len)| base..base + len)
            .map(|cell| remap[cur[cell] as usize])
            .collect();

        // Per-lane models and analytic profiles.
        let mut lane_add: Vec<AdderModel> = Vec::with_capacity(group.len());
        let mut lane_mul: Vec<MulModel> = Vec::with_capacity(group.len());
        let mut lane_profile: Vec<ArithProfile> = Vec::with_capacity(group.len());
        for &(adder, mul, _) in group {
            let binding = Binding::for_widths(
                lib,
                self.skeleton.add_width,
                self.skeleton.mul_width,
                adder,
                mul,
            )?;
            lane_add.push(binding.adder().model);
            lane_mul.push(binding.mul().model);
            lane_profile.push(ArithProfile::from_counts(
                self.counts,
                binding.add_costs(),
                binding.mul_costs(),
            ));
        }

        stats.kernel_designs += group.len() as u64;

        // --- Stage 1: once per distinct multiplier (just once when no
        // approximate multiplication lands in the stage).
        let stage1_started = std::time::Instant::now();
        let mut base_mem: Vec<i64> = Vec::with_capacity(n_shared);
        base_mem.extend_from_slice(image);
        base_mem.resize(n_shared, 0);
        let mut mems: Vec<(Option<MulId>, Vec<i64>)> = Vec::new();
        let mut mem_of: Vec<usize> = Vec::with_capacity(group.len());
        for (i, &(_, mul, _)) in group.iter().enumerate() {
            let mkey = stage1_mul_dependent.then_some(mul);
            let idx = match mems.iter().position(|(k, _)| *k == mkey) {
                Some(j) => j,
                None => {
                    let mut mem = base_mem.clone();
                    self.exec_ops(&stage1, &mut mem, &lane_add[i], &lane_mul[i])?;
                    mems.push((mkey, mem));
                    mems.len() - 1
                }
            };
            mem_of.push(idx);
        }
        stats.stage1_ns += stage1_started.elapsed().as_nanos() as u64;

        // --- Stage 2: lanes batched by adder (one monomorphised kernel
        // per batch), executed op-by-op across the batch so independent
        // designs' dependency chains overlap instead of serialising.
        let stage2_started = std::time::Instant::now();
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_unstable_by_key(|&i| group[i].0);
        let mut outputs_per_lane: Vec<Vec<i64>> = vec![Vec::new(); group.len()];
        let mut privs: Vec<i64> = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let adder = group[order[start]].0;
            let mut end = start + 1;
            while end < order.len() && group[order[end]].0 == adder {
                end += 1;
            }
            let lanes = &order[start..end];
            let k = lanes.len();
            let shareds: Vec<&[i64]> = lanes
                .iter()
                .map(|&i| mems[mem_of[i]].1.as_slice())
                .collect();
            let mul_models: Vec<MulModel> = lanes.iter().map(|&i| lane_mul[i]).collect();
            privs.clear();
            privs.resize(priv_count * k, 0);
            stats.kernel_invocations += 1;
            self.exec_batch(
                &stage2,
                &shareds,
                &mut privs,
                &lane_add[lanes[0]],
                &mul_models,
            )?;
            for (lane, &i) in lanes.iter().enumerate() {
                outputs_per_lane[i] = out_ids
                    .iter()
                    .map(|&id| {
                        if id & PRIV != 0 {
                            privs[(id & !PRIV) as usize * k + lane]
                        } else {
                            shareds[lane][id as usize]
                        }
                    })
                    .collect();
            }
            start = end;
        }
        stats.stage2_ns += stage2_started.elapsed().as_nanos() as u64;

        Ok(outputs_per_lane
            .into_iter()
            .zip(lane_profile)
            .map(|(outputs, profile)| ExecOutcome { outputs, profile })
            .collect())
    }

    /// Stage-2 batch executor: dispatches once on the batch-wide adder kind
    /// and runs [`CompiledProgram::exec_batch_with`].
    fn exec_batch(
        &self,
        ops: &[CompiledOp],
        shareds: &[&[i64]],
        privs: &mut [i64],
        add_model: &AdderModel,
        mul_models: &[MulModel],
    ) -> Result<(), VmError> {
        with_add_kernel!(add_model, self.skeleton.add_width, |add| self
            .exec_batch_with(ops, shareds, privs, add, mul_models))
    }

    /// Runs remapped stage-2 `ops` for every lane of a batch **op-by-op
    /// across lanes**: lane `d` reads shared cells from `shareds[d]`,
    /// reads/writes private cells in its stripe of `privs` (layout
    /// `[cell][lane]`), and multiplies through `mul_models[d]`; all lanes
    /// share the monomorphised `add` kernel. Interleaving the lanes
    /// overlaps their serial accumulation chains — the latency bound of
    /// running designs one at a time — turning the batch throughput-bound.
    fn exec_batch_with(
        &self,
        ops: &[CompiledOp],
        shareds: &[&[i64]],
        privs: &mut [i64],
        add: impl Fn(i64, i64) -> i64,
        mul_models: &[MulModel],
    ) -> Result<(), VmError> {
        let k = shareds.len();
        // Reads `privs` (never the cell being written — SSA guarantees
        // freshness) or the lane's shared buffer; the tag branch is the
        // same for every lane of an op, so it predicts perfectly.
        macro_rules! ld {
            ($i:expr, $d:expr) => {{
                let i = $i;
                if i & PRIV != 0 {
                    privs[(i & !PRIV) as usize * k + $d]
                } else {
                    shareds[$d][i as usize]
                }
            }};
        }
        for op in ops {
            match *op {
                CompiledOp::Const { dst, value } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        privs[r + d] = value;
                    }
                }
                CompiledOp::Copy { dst, src } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        privs[r + d] = ld!(src, d);
                    }
                }
                CompiledOp::AddExact { dst, a, b } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        privs[r + d] = ld!(a, d).wrapping_add(ld!(b, d));
                    }
                }
                CompiledOp::AddApprox { dst, a, b } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        privs[r + d] = add(ld!(a, d), ld!(b, d));
                    }
                }
                CompiledOp::MulExact {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        let (x, y) = (ld!(a, d), ld!(b, d));
                        self.check_mul_operands(x, y, pc)?;
                        privs[r + d] = x.wrapping_mul(y) >> shift;
                    }
                }
                CompiledOp::MulApprox {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let r = (dst & !PRIV) as usize * k;
                    for d in 0..k {
                        let (x, y) = (ld!(a, d), ld!(b, d));
                        self.check_mul_operands(x, y, pc)?;
                        privs[r + d] = mul_signed(&mul_models[d], x, y) >> shift;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Smallest mask-sharing group [`CompiledProgram::run_batch`] routes
/// through the factored kernel; smaller groups run design-by-design
/// (factoring has a per-group setup pass to amortise).
pub const MIN_FACTORED_GROUP: usize = 3;

/// Tag bit marking a *private* (per-design, stage-2) cell id in the
/// factored kernel's remapped operand space; untagged ids index the shared
/// stage-1 buffers.
const PRIV: u32 = 1 << 31;

/// The sliced-ALU embedding of [`sliced_add`], generic over the low-part
/// adder kernel so each [`ax_operators::AdderKind`] monomorphises into a
/// branch-free inline sequence. Must stay structurally identical to
/// [`sliced_add`] — the differential tests pin the equivalence.
#[inline(always)]
fn sliced(a: i64, b: i64, width: BitWidth, low_add: impl Fn(u64, u64) -> u64) -> i64 {
    let bits = width.bits();
    let mask = width.mask();
    let low = low_add((a as u64) & mask, (b as u64) & mask);
    let carry = (low >> bits) as i64;
    let high = (a >> bits).wrapping_add(b >> bits).wrapping_add(carry);
    (high << bits) | (low & mask) as i64
}

/// Notes on exactness (checked by the `compiled_matches_interpreter_*`
/// tests and the cross-crate differential suite):
///
/// * **`AddExact` ≡ precise sliced add.** The interpreter's precise path
///   splits each operand at the add width, feeds the low parts through the
///   exact adder (low sum + carry) and adds the upper parts with
///   `wrapping_add`, then reassembles. That is the standard carry
///   decomposition of two's-complement addition — equal to
///   `a.wrapping_add(b)` for **all** `i64` pairs.
/// * **`MulExact` ≡ precise sign-magnitude mul.** The interpreter's precise
///   path computes `|a|·|b|` exactly in `u64` (operands are pre-checked to
///   the multiplier width, so the product cannot wrap `u64`) and applies
///   the sign — congruent mod 2⁶⁴ to `a.wrapping_mul(b)`, hence
///   bit-identical after the cast.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_from_image, Executor};
    use crate::instrument::VarMask;
    use crate::ir::ProgramBuilder;

    fn lib() -> OperatorLibrary {
        OperatorLibrary::evoapprox()
    }

    /// dot product of two length-3 vectors on 8-bit operators (same shape
    /// as the interpreter's test kernel).
    fn dot3() -> Program {
        let mut pb = ProgramBuilder::new("dot3", BitWidth::W8, BitWidth::W8);
        let x = pb.input("x", 3);
        let y = pb.input("y", 3);
        let p = pb.temp("p", 1);
        let acc = pb.output("acc", 1);
        pb.konst(acc.at(0), 0);
        for i in 0..3 {
            pb.mul(p.at(0), x.at(i), y.at(i), 0);
            pb.add(acc.at(0), acc.at(0), p.at(0));
        }
        pb.build().unwrap()
    }

    fn image(prog: &Program, x: &[i64], y: &[i64]) -> Vec<i64> {
        Executor::new(prog)
            .with_input("x", x)
            .unwrap()
            .with_input("y", y)
            .unwrap()
            .initial_memory()
            .unwrap()
    }

    #[test]
    fn compiled_matches_interpreter_across_the_whole_space() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[3, 5, 7], &[11, 13, 2]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let mut mask = VarMask::none(&prog);
        let mut scratch = ExecScratch::new();
        let mut compiled_scratch = ExecScratch::new();
        for adder in 0..6 {
            for mul in 0..6 {
                let binding = Binding::new(&lib, &prog, AdderId(adder), MulId(mul)).unwrap();
                let mut compiled = skeleton.compile(&binding, 0);
                for bits in 0..(1u64 << mask.len()) {
                    mask.set_raw_bits(bits);
                    compiled.select(bits);
                    let reference =
                        run_from_image(&prog, &img, &binding, &mask, &mut scratch).unwrap();
                    let got = compiled.run(&img, &mut compiled_scratch).unwrap();
                    assert_eq!(got, reference, "adder {adder}, mul {mul}, bits {bits:#b}");
                    assert_eq!(compiled.profile(), reference.profile);
                }
            }
        }
    }

    #[test]
    fn rebind_matches_fresh_compile() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[100, 101, 102], &[55, 66, 77]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let b0 = Binding::new(&lib, &prog, AdderId(0), MulId(0)).unwrap();
        let b5 = Binding::new(&lib, &prog, AdderId(5), MulId(5)).unwrap();
        let bits = 0b1011;

        let mut reused = skeleton.compile(&b0, bits);
        reused.rebind(&b5);
        let fresh = skeleton.compile(&b5, bits);

        let mut s = ExecScratch::new();
        assert_eq!(
            reused.run(&img, &mut s).unwrap(),
            fresh.run(&img, &mut s).unwrap()
        );
        assert_eq!(reused.profile(), fresh.profile());
    }

    #[test]
    fn run_batch_matches_sequential_specialisation() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[9, 8, 7], &[1, 2, 3]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let configs = [
            (AdderId(0), MulId(0), 0u64),
            (AdderId(3), MulId(2), 0b101),
            (AdderId(5), MulId(5), 0b1111),
            (AdderId(1), MulId(4), 0b1111), // mask shared with previous
        ];
        let precise = Binding::precise(&lib, &prog).unwrap();
        let mut batcher = skeleton.compile(&precise, 0);
        let batch = batcher.run_batch(&lib, &img, &configs).unwrap();

        let mut mask = VarMask::none(&prog);
        let mut scratch = ExecScratch::new();
        for (&(a, m, bits), got) in configs.iter().zip(&batch) {
            let binding = Binding::new(&lib, &prog, a, m).unwrap();
            mask.set_raw_bits(bits);
            let reference = run_from_image(&prog, &img, &binding, &mask, &mut scratch).unwrap();
            assert_eq!(*got, reference);
        }
    }

    #[test]
    fn factored_batch_matches_interpreter_mask_major() {
        // A full mask-major sweep: groups of 36 designs per mask (large
        // enough for the factored kernel), masks sharing flag signatures
        // (exercising the cross-group cache), and model-equivalent designs
        // inside each group (exercising the dedup).
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[3, 5, 7], &[11, 13, 2]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let mut configs = Vec::new();
        for bits in 0..(1u64 << prog.approximable_vars().len()) {
            for adder in 0..6 {
                for mul in 0..6 {
                    configs.push((AdderId(adder), MulId(mul), bits));
                }
            }
        }
        let precise = Binding::precise(&lib, &prog).unwrap();
        let mut batcher = skeleton.compile(&precise, 0);
        let batch = batcher.run_batch(&lib, &img, &configs).unwrap();
        assert_eq!(batch.len(), configs.len());

        let mut mask = VarMask::none(&prog);
        let mut scratch = ExecScratch::new();
        for (&(a, m, bits), got) in configs.iter().zip(&batch) {
            let binding = Binding::new(&lib, &prog, a, m).unwrap();
            mask.set_raw_bits(bits);
            let reference = run_from_image(&prog, &img, &binding, &mask, &mut scratch).unwrap();
            assert_eq!(
                *got, reference,
                "adder {}, mul {}, bits {bits:#b}",
                a.0, m.0
            );
        }
    }

    #[test]
    fn flag_signatures_partition_the_selections() {
        // dot3 has two flag classes (every mul touches {x, y, p}, every add
        // touches {acc, p}), so its 16 selections collapse to 4 signatures.
        let prog = dot3();
        let skeleton = CompiledSkeleton::new(&prog);
        let sigs: std::collections::HashSet<u64> =
            (0..16).map(|bits| skeleton.flag_signature(bits)).collect();
        assert_eq!(sigs.len(), 4);
    }

    #[test]
    fn batch_error_matches_sequential_order() {
        // An input overflowing the multiplier width: the batch must surface
        // the interpreter's exact error (pc, value, width) even though the
        // factored kernel evaluates designs out of order internally.
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[300, 0, 0], &[1, 0, 0]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let mut configs = Vec::new();
        for adder in 0..6 {
            for mul in 0..6 {
                configs.push((AdderId(adder), MulId(mul), 0b1111));
            }
        }
        let precise = Binding::precise(&lib, &prog).unwrap();
        let mut batcher = skeleton.compile(&precise, 0);
        let got = batcher.run_batch(&lib, &img, &configs).unwrap_err();

        let binding = Binding::new(&lib, &prog, AdderId(0), MulId(0)).unwrap();
        let mut mask = VarMask::none(&prog);
        mask.set_raw_bits(0b1111);
        let reference =
            run_from_image(&prog, &img, &binding, &mask, &mut ExecScratch::new()).unwrap_err();
        assert_eq!(got, reference);
    }

    #[test]
    fn overflow_error_matches_interpreter() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[300, 0, 0], &[1, 0, 0]);
        let binding = Binding::precise(&lib, &prog).unwrap();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let compiled = skeleton.compile(&binding, 0);
        let got = compiled.run(&img, &mut ExecScratch::new()).unwrap_err();
        let reference = run_from_image(
            &prog,
            &img,
            &binding,
            &VarMask::none(&prog),
            &mut ExecScratch::new(),
        )
        .unwrap_err();
        assert_eq!(got, reference, "pc/value/width must all round-trip");
    }

    #[test]
    fn static_profile_is_the_run_profile() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[1, 2, 3], &[4, 5, 6]);
        let binding = Binding::new(&lib, &prog, AdderId(2), MulId(3)).unwrap();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let compiled = skeleton.compile(&binding, 0b110);
        let out = compiled.run(&img, &mut ExecScratch::new()).unwrap();
        assert_eq!(out.profile, compiled.profile());
        assert_eq!(out.profile.adds_total, 3);
        assert_eq!(out.profile.muls_total, 3);
    }
}
