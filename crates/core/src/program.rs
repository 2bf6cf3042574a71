//! One lowering, one executor.
//!
//! [`lower`] turns a circuit and a [`Strategy`] into a [`Program`]: the
//! exact list of state sweeps (plus measurements and classically
//! controlled gates) the engine will execute. Everything that needs to
//! know what a strategy *does* reads the program instead of re-deriving
//! it — the single-run and batched engines execute it, the calibrated
//! pricer behind [`Strategy::Auto`] prices it
//! ([`crate::calibrate::predict_strategy_ns`]), the A64FX model predicts
//! it ([`crate::perf::predict_program`]), and the tracer records one
//! span per executed op. What runs, what is priced and what is reported
//! are therefore the same by construction.
//!
//! The executor runs programs over a slice of member states. A
//! single run's one member shares each sweep out across the pool
//! (worksharing inside the sweep); batch members run (member × block)
//! cells, each with the *serial* kernel sequence, so a batched member is
//! bit-identical to a serial single run — a lone batch member included,
//! since worksharing may round differently from the serial kernels.
//! Per-op lowering products ([`PreparedFused`], [`PreparedRun`]) are
//! built once, before the sweep loop.

use std::sync::Arc;
use std::time::Instant;

use a64fx_model::traffic::KernelKind;
use omp_par::{for_each_cell, CellGrid, Schedule, ThreadPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calibrate::{self, Calibration};
use crate::circuit::{Circuit, Gate};
use crate::complex::C64;
use crate::fusion::{fuse_costed, FusedOp};
use crate::kernels::blocked::{apply_block_chunk, BlockGate, PreparedRun};
use crate::kernels::dispatch::{apply_gate_parallel_with, apply_gate_with};
use crate::kernels::fused::PreparedFused;
use crate::kernels::simd::{self, KernelBackend};
use crate::kernels::{parallel, AmpPtr};
use crate::measure::{measure_qubit, MeasurementResult};
use crate::plan::{plan_circuit_with, Plan};
use crate::sim::{RunGuard, SimError, Strategy};
use crate::state::StateVector;
use crate::telemetry::Tracer;

/// One step of a [`Program`]. Every op but [`Op::Measure`] is one state
/// sweep.
#[derive(Debug, Clone)]
pub enum Op {
    /// One full-state gate sweep through the gate's specialized kernel.
    Gate(Gate),
    /// One full-state sweep of a fused ≤ k-qubit product.
    Fused(FusedOp),
    /// One cache-blocked pass applying unfused gates (all below
    /// [`Program::block_qubits`]) block by block.
    BlockRun(Vec<BlockGate>),
    /// Relabeling sweep: swap two physical amplitude axes.
    SwapAxes(u32, u32),
    /// One cache-blocked pass applying fused ops (all on physical qubits
    /// below [`Program::block_qubits`]) block by block.
    Block(Vec<FusedOp>),
    /// Projective measurement of qubit `q` into classical bit `creg`: a
    /// barrier no lowering crosses.
    Measure { q: u32, creg: u32 },
    /// `gate` applied iff `creg & mask == val`; a sweep when taken.
    Cif { mask: u64, val: u64, gate: Gate },
}

/// A lowered circuit: what the engine executes, op by op.
#[derive(Debug, Clone)]
pub struct Program {
    pub ops: Vec<Op>,
    pub n_qubits: u32,
    /// Block width of the [`Op::BlockRun`] and [`Op::Block`] passes.
    pub block_qubits: u32,
}

impl Program {
    /// State sweeps the program executes: every op but measurements
    /// (a measured run only pays the `Cif` sweeps it takes).
    pub fn sweeps(&self) -> usize {
        self.ops.iter().filter(|op| !matches!(op, Op::Measure { .. })).count()
    }

    /// A program of full-state fused sweeps, e.g. from
    /// [`crate::fusion::fuse`].
    pub fn from_fused(n_qubits: u32, ops: Vec<FusedOp>) -> Program {
        Program { ops: ops.into_iter().map(Op::Fused).collect(), n_qubits, block_qubits: n_qubits }
    }
}

impl From<Plan> for Program {
    fn from(plan: Plan) -> Program {
        Program { ops: plan.ops, n_qubits: plan.n_qubits, block_qubits: plan.block_qubits }
    }
}

/// Lower `circuit` under `strategy`, pricing fusion and relocation with
/// `cal`. [`Strategy::Auto`] resolves first, to the cheapest concrete
/// candidate for the whole circuit; a circuit with measurements is then
/// lowered one unitary segment at a time, so a collapse stays a barrier.
pub fn lower(circuit: &Circuit, strategy: Strategy, cal: &Calibration) -> Program {
    lower_with(circuit, strategy, || cal)
}

/// [`lower`] with the calibration fetched only when the strategy prices
/// anything: naive and blocked lowerings never do, so runs under them
/// never pay the process-wide startup calibration.
pub(crate) fn lower_with<'c>(
    circuit: &Circuit,
    strategy: Strategy,
    cal: impl Fn() -> &'c Calibration,
) -> Program {
    let strategy = match strategy {
        Strategy::Auto => calibrate::choose_with(circuit, cal()),
        s => s,
    };
    let n = circuit.n_qubits();
    let block_qubits = match strategy {
        Strategy::Blocked { block_qubits } | Strategy::Planned { block_qubits, .. } => {
            block_qubits.min(n)
        }
        _ => n,
    };
    let mut program = Program { ops: Vec::new(), n_qubits: n, block_qubits };
    if !circuit.has_nonunitary() {
        lower_segment(circuit, strategy, &cal, &mut program.ops);
        return program;
    }
    let mut segment = Circuit::new(n);
    for g in circuit.gates() {
        let classical = match g {
            Gate::Measure { q, creg } => Op::Measure { q: *q, creg: *creg },
            Gate::Cif { mask, val, gate } => {
                Op::Cif { mask: *mask, val: *val, gate: (**gate).clone() }
            }
            g => {
                segment.push(g.clone());
                continue;
            }
        };
        lower_segment(&segment, strategy, &cal, &mut program.ops);
        segment = Circuit::new(n);
        program.ops.push(classical);
    }
    lower_segment(&segment, strategy, &cal, &mut program.ops);
    program
}

/// Append the sweeps of one unitary segment under a concrete strategy.
fn lower_segment<'c>(
    segment: &Circuit,
    strategy: Strategy,
    cal: &impl Fn() -> &'c Calibration,
    ops: &mut Vec<Op>,
) {
    if segment.is_empty() {
        return;
    }
    match strategy {
        Strategy::Naive => ops.extend(segment.gates().iter().cloned().map(Op::Gate)),
        Strategy::Fused { max_k } => {
            // Cost-aware: merge only where the calibrated block kernel
            // beats the member gates' own kernels.
            let fused = fuse_costed(segment, max_k, &cal().fuse_costs());
            ops.extend(fused.into_iter().map(Op::Fused));
        }
        Strategy::Blocked { block_qubits } => {
            lower_blocked(segment, block_qubits.min(segment.n_qubits()), ops)
        }
        Strategy::Planned { block_qubits, max_k } => {
            ops.extend(plan_circuit_with(segment, block_qubits, max_k, cal()).ops)
        }
        Strategy::Auto => unreachable!("Auto resolves before any segment is lowered"),
    }
}

/// Runs of gates that fit below the block width become one blocked
/// pass each; every other gate falls back to its own full sweep.
fn lower_blocked(circuit: &Circuit, block_qubits: u32, ops: &mut Vec<Op>) {
    let mut run: Vec<BlockGate> = Vec::new();
    for g in circuit.gates() {
        match to_block_gate(g, block_qubits) {
            Some(bg) => run.push(bg),
            None => {
                if !run.is_empty() {
                    ops.push(Op::BlockRun(std::mem::take(&mut run)));
                }
                ops.push(Op::Gate(g.clone()));
            }
        }
    }
    if !run.is_empty() {
        ops.push(Op::BlockRun(run));
    }
}

/// A gate's blocked form, if all its qubits fit below the block width.
fn to_block_gate(g: &Gate, block_qubits: u32) -> Option<BlockGate> {
    if g.qubits().iter().any(|&q| q >= block_qubits) {
        return None;
    }
    if let Some((q, m)) = g.as_single() {
        return Some(if g.is_diagonal() {
            BlockGate::Diag1(q, m.m[0][0], m.m[1][1])
        } else {
            BlockGate::One(q, m)
        });
    }
    if let Gate::Swap(a, b) = *g {
        return Some(BlockGate::Swap(a, b));
    }
    match g.as_controlled() {
        Some((c, t, m)) => Some(BlockGate::Controlled(c, t, m)),
        None => g.as_two().map(|(h, l, m)| BlockGate::Two(h, l, m)),
    }
}

/// What one member's execution observed.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemberRun {
    /// Sweeps executed (taken `Cif` gates included).
    pub sweeps: usize,
    /// Classical register after the last measurement.
    pub creg: u64,
    /// Every measurement, in program order.
    pub outcomes: Vec<MeasurementResult>,
}

/// One member's row of the executor's tables. Cells get a row each, so
/// no two threads ever share one.
struct Row<'s> {
    state: &'s mut StateVector,
    rng: StdRng,
    run: MemberRun,
}

/// Lowering products of one op, built once before the sweep loop.
enum Prepared<'p> {
    /// Nothing to lower (gates, axis swaps, classical ops).
    Direct,
    Fused(PreparedFused<'p>),
    /// An unfused blocked run and its block length.
    Gates(&'p [BlockGate], usize),
    Run(PreparedRun<'p>),
}

impl<'p> Prepared<'p> {
    fn new(op: &'p Op, block_qubits: u32) -> Prepared<'p> {
        match op {
            Op::Fused(f) => Prepared::Fused(PreparedFused::new(f)),
            Op::BlockRun(gates) => Prepared::Gates(gates, 1 << block_qubits),
            Op::Block(ops) => Prepared::Run(PreparedRun::new(ops, block_qubits)),
            _ => Prepared::Direct,
        }
    }

    /// Amplitudes per cache block, for block-by-block passes.
    fn block_len(&self) -> Option<usize> {
        match self {
            Prepared::Gates(_, block) => Some(*block),
            Prepared::Run(run) => Some(run.block_len()),
            _ => None,
        }
    }

    /// Apply a block pass to one cache-resident chunk.
    fn apply_chunk(&self, be: &KernelBackend, chunk: &mut [C64]) {
        match self {
            Prepared::Gates(gates, _) => apply_block_chunk(be, chunk, gates),
            Prepared::Run(run) => run.apply_chunk(be, chunk),
            _ => unreachable!("only block passes apply per chunk"),
        }
    }
}

/// A raw pointer to row `i` of an executor-owned table, `Copy` so
/// worksharing closures can capture it.
///
/// Same disjointness contract as [`AmpPtr`]: each row is touched by
/// exactly one cell, and the region barrier in [`for_each_cell`] orders
/// all cell writes before the caller reads the table again.
struct RowPtr<T>(*mut T);

impl<T> Clone for RowPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RowPtr<T> {}

// SAFETY: rows are handed to exactly one cell each (per-member grids),
// so no two threads alias the same element; `T: Send` is required by
// the only constructor's caller, `Executor::each_row`.
unsafe impl<T> Send for RowPtr<T> {}
unsafe impl<T> Sync for RowPtr<T> {}

impl<T> RowPtr<T> {
    /// # Safety
    /// `i` must be in bounds and exclusively owned by the calling cell.
    #[inline(always)]
    unsafe fn at<'r>(self, i: usize) -> &'r mut T {
        &mut *self.0.add(i)
    }
}

/// Where programs run: the kernel backend, the worker pool (if any) and
/// the worksharing schedule.
pub(crate) struct Executor<'a> {
    pub be: &'static KernelBackend,
    pub pool: Option<&'a ThreadPool>,
    pub sched: Schedule,
    /// Batch semantics: every member, a lone one included, runs the
    /// serial kernel sequence in its own cells, so it is bit-identical
    /// to a serial single run. Off for a single run, whose one member
    /// shares each sweep out across the pool instead.
    pub batched: bool,
}

impl Executor<'_> {
    /// Run `programs` over `states`: one shared program, or one
    /// same-shaped program per member. Member `m` measures from
    /// `StdRng::seed_from_u64(seeds[m])` (seed 0 when `seeds` is
    /// shorter). `tracers` holds one tracer per member; a guard (single
    /// member only) runs after every op and may rewind the op index.
    pub(crate) fn run(
        &self,
        programs: &[Program],
        states: &mut [StateVector],
        seeds: &[u64],
        tracers: Option<&[Arc<Tracer>]>,
        guard: &mut Option<RunGuard>,
    ) -> Result<Vec<MemberRun>, SimError> {
        debug_assert!(programs.len() == 1 || programs.len() == states.len());
        debug_assert!(guard.is_none() || states.len() == 1);
        let preps: Vec<Vec<Prepared<'_>>> = programs
            .iter()
            .map(|p| p.ops.iter().map(|op| Prepared::new(op, p.block_qubits)).collect())
            .collect();
        let mut rows: Vec<Row<'_>> = states
            .iter_mut()
            .enumerate()
            .map(|(m, state)| Row {
                state,
                rng: StdRng::seed_from_u64(seeds.get(m).copied().unwrap_or(0)),
                run: MemberRun::default(),
            })
            .collect();
        let tracer = |m: usize| tracers.map(|ts| &*ts[m]);
        let mut i = 0;
        while i < programs[0].ops.len() {
            let at = |m: usize| {
                let p = if programs.len() == 1 { 0 } else { m };
                (&programs[p].ops[i], &preps[p][i])
            };
            match at(0).0 {
                Op::Measure { .. } | Op::Cif { .. } => self
                    .per_member(&mut rows, |m, row, pool| {
                        self.classical(row, at(m).0, pool, tracer(m))
                    }),
                _ => self.sweep(&mut rows, at, tracer),
            }
            i = match guard {
                None => i + 1,
                Some(g) => g.advance(rows[0].state.amplitudes_mut(), i)?,
            };
        }
        Ok(rows.into_iter().map(|row| row.run).collect())
    }

    /// Run `body` once per member: a single run's member inline, handing
    /// it the pool so its sweep is workshared; batch members one cell
    /// each, each running the serial kernel sequence.
    fn per_member<'r>(
        &self,
        rows: &mut [Row<'r>],
        body: impl Fn(usize, &mut Row<'r>, Option<&ThreadPool>) + Sync,
    ) {
        match rows {
            [row] if !self.batched => body(0, row, self.pool),
            rows => self.each_row(rows, |m, row| body(m, row, None)),
        }
    }

    /// One sweep op across every member.
    fn sweep<'o, 't>(
        &self,
        rows: &mut [Row<'_>],
        at: impl Fn(usize) -> (&'o Op, &'o Prepared<'o>) + Sync,
        tracer: impl Fn(usize) -> Option<&'t Tracer> + Sync,
    ) {
        // Untraced batched block passes get the fine (member × block)
        // grid. Traced ones run one cell per member, so each member's
        // pass is timed as one span, exactly like a single run's.
        let fine = self.batched && tracer(0).is_none();
        match at(0).1.block_len().filter(|_| fine) {
            Some(block) => {
                let ptrs: Vec<AmpPtr> = rows
                    .iter_mut()
                    .map(|r| AmpPtr(r.state.amplitudes_mut().as_mut_ptr()))
                    .collect();
                let grid = CellGrid::new(rows.len(), rows[0].state.amplitudes().len() / block);
                for_each_cell(self.pool, self.sched, grid, |m, b| {
                    // SAFETY: cells are disjoint (member, block) slices;
                    // the region barrier ends all access before the next
                    // sweep.
                    let chunk = unsafe { ptrs[m].slice(b * block, block) };
                    at(m).1.apply_chunk(self.be, chunk);
                });
                for row in rows {
                    row.run.sweeps += 1;
                }
            }
            None => self.per_member(rows, |m, row, pool| {
                let (op, prep) = at(m);
                timed(tracer(m), op, || self.apply(pool, row.state.amplitudes_mut(), op, prep));
                row.run.sweeps += 1;
            }),
        }
    }

    /// Apply one sweep op to one member's amplitudes, workshared across
    /// `pool` when given.
    fn apply(&self, pool: Option<&ThreadPool>, amps: &mut [C64], op: &Op, prep: &Prepared<'_>) {
        let (be, sched) = (self.be, self.sched);
        if let Some(block) = prep.block_len() {
            let p = AmpPtr(amps.as_mut_ptr());
            let grid = CellGrid::new(1, amps.len() / block);
            for_each_cell(pool, sched, grid, |_, b| {
                // SAFETY: blocks are disjoint `block`-long slices; each
                // block index lands in exactly one cell.
                prep.apply_chunk(be, unsafe { p.slice(b * block, block) });
            });
            return;
        }
        match (op, prep, pool) {
            (_, Prepared::Fused(f), Some(pool)) => f.apply_parallel(be, pool, sched, amps),
            (_, Prepared::Fused(f), None) => f.apply(be, amps),
            (Op::Gate(g) | Op::Cif { gate: g, .. }, _, Some(pool)) => {
                apply_gate_parallel_with(be, pool, sched, amps, g)
            }
            (Op::Gate(g) | Op::Cif { gate: g, .. }, _, None) => apply_gate_with(be, amps, g),
            (Op::SwapAxes(a, b), _, Some(pool)) => {
                parallel::apply_swap(pool, sched, amps, *a, *b, be)
            }
            (Op::SwapAxes(a, b), _, None) => simd::apply_swap(be, amps, *a, *b),
            _ => unreachable!("every sweep op is prepared or direct"),
        }
    }

    /// A measurement, or a classically controlled gate (a sweep when
    /// its condition holds), on one member.
    fn classical(
        &self,
        row: &mut Row<'_>,
        op: &Op,
        pool: Option<&ThreadPool>,
        tr: Option<&Tracer>,
    ) {
        match op {
            Op::Measure { q, creg: bit } => {
                let r = timed(tr, op, || measure_qubit(row.state, *q, &mut row.rng));
                row.run.creg = (row.run.creg & !(1 << bit)) | (u64::from(r.outcome) << bit);
                row.run.outcomes.push(r);
            }
            Op::Cif { mask, val, .. } if row.run.creg & mask == *val => {
                timed(tr, op, || {
                    self.apply(pool, row.state.amplitudes_mut(), op, &Prepared::Direct)
                });
                row.run.sweeps += 1;
            }
            _ => {}
        }
    }

    /// Shard `rows` across the pool, one cell per row; without a pool
    /// the rows run inline, in order.
    pub(crate) fn each_row<T: Send>(&self, rows: &mut [T], body: impl Fn(usize, &mut T) + Sync) {
        let ptr = RowPtr(rows.as_mut_ptr());
        for_each_cell(self.pool, self.sched, CellGrid::per_member(rows.len()), |m, _| {
            // SAFETY: the per-member grid hands row `m` to exactly this
            // cell; the region barrier orders all writes before the
            // caller reads the table again.
            body(m, unsafe { ptr.at(m) })
        });
    }
}

/// Run `work`, recording it as `op`'s span when traced.
fn timed<R>(tr: Option<&Tracer>, op: &Op, work: impl FnOnce() -> R) -> R {
    let Some(t) = tr else { return work() };
    let t0 = Instant::now();
    let out = work();
    record(t, op, t0.elapsed().as_nanos() as u64);
    out
}

/// Record one executed op as a span.
fn record(t: &Tracer, op: &Op, ns: u64) {
    match op {
        Op::Gate(g) | Op::Cif { gate: g, .. } => t.record_gate(0, g, ns),
        Op::Fused(f) => t.record_fused(0, f, ns),
        Op::BlockRun(gates) => t.record_block_run(0, gates, ns),
        Op::SwapAxes(a, b) => t.record_kernel(0, KernelKind::Swap, &[*a, *b], ns),
        Op::Block(ops) => t.record_block_pass(0, ops, ns),
        Op::Measure { q, .. } => t.record_measure(0, *q, ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::random_circuit_seeded;

    fn members(n: u32, count: usize) -> Vec<StateVector> {
        (0..count)
            .map(|m| {
                let mut rng = StdRng::seed_from_u64(40 + m as u64);
                StateVector::random(n, &mut rng)
            })
            .collect()
    }

    #[test]
    fn measurements_stay_barriers_between_lowered_segments() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).h(2).measure(1, 0);
        c.cif_bit(0, 1, Gate::X(3));
        c.h(3).cx(3, 2);
        let program = lower(&c, Strategy::Fused { max_k: 3 }, &Calibration::analytic());
        let at = program.ops.iter().position(|op| matches!(op, Op::Measure { q: 1, creg: 0 }));
        let at = at.expect("the measurement survives lowering");
        assert!(matches!(program.ops[at + 1], Op::Cif { mask: 1, val: 1, .. }));
        // Nothing before the barrier touches a gate from after it.
        assert!(program.ops[..at].iter().all(|op| !matches!(op, Op::Gate(Gate::Cx(3, 2)))));
        assert_eq!(program.sweeps(), program.ops.len() - 1);
    }

    #[test]
    fn batched_cells_match_member_by_member_runs_bitwise() {
        // Every op kind across three members in (member × block) cells,
        // against the same program run on one member at a time.
        let c = random_circuit_seeded(5, 24, 9);
        let exec = Executor {
            be: simd::active(),
            pool: None,
            sched: Schedule::default_static(),
            batched: true,
        };
        for strategy in [
            Strategy::Naive,
            Strategy::Fused { max_k: 3 },
            Strategy::Blocked { block_qubits: 3 },
            Strategy::Planned { block_qubits: 3, max_k: 2 },
        ] {
            let program = lower(&c, strategy, &Calibration::analytic());
            let mut batch = members(5, 3);
            let one = std::slice::from_ref(&program);
            let runs = exec.run(one, &mut batch, &[], None, &mut None).unwrap();
            let mut alone = members(5, 3);
            for state in alone.iter_mut() {
                let runs =
                    exec.run(one, std::slice::from_mut(state), &[], None, &mut None).unwrap();
                assert_eq!(runs[0].sweeps, program.sweeps());
            }
            for (m, (b, a)) in batch.iter().zip(&alone).enumerate() {
                assert!(b.approx_eq(a, 0.0), "{strategy}: member {m} diverged");
                assert_eq!(runs[m].sweeps, program.sweeps());
            }
        }
    }

    #[test]
    fn each_row_visits_every_row_once() {
        let exec = Executor {
            be: simd::active(),
            pool: None,
            sched: Schedule::default_static(),
            batched: true,
        };
        let mut rows = vec![0usize; 5];
        exec.each_row(&mut rows, |m, row| *row += m + 1);
        assert_eq!(rows, vec![1, 2, 3, 4, 5]);
    }
}
