//! Exchange-minimizing distributed execution plans.
//!
//! The plain engine ([`crate::engine`]) pays communication *per gate*: a
//! dense gate on a global qubit exchanges a whole local buffer (pair
//! exchange) or a half buffer twice (relocate in, relocate out). Real
//! distributed simulators (mpiQulacs, QuEST, Qiskit Aer) instead plan a
//! sequence of global↔local qubit *permutations* over the whole circuit,
//! so each relocation is paid once and amortized over every subsequent
//! gate that benefits. This module is that planner, plus two executors:
//!
//! * [`DistPlanKind::Reorder`] — walk the circuit tracking a
//!   logical→physical qubit permutation; when a gate needs a global
//!   qubit resident, swap it with the local slot whose occupant's next
//!   dense use lies farthest ahead (Belady's rule) and leave it there.
//!   Logical `Swap` gates are absorbed into the permutation outright at
//!   zero cost. Every step's gate is communication-free after its
//!   `pre_swaps`; the only wire traffic is half-buffer swaps.
//! * [`DistPlanKind::Overlap`] — same plan, but comm-free gates that
//!   avoid the top local axis are *deferred* and folded into the next
//!   swap of that axis as the resident work of
//!   `DistState::swap_top_overlapped`: each rank applies them to its
//!   outgoing half before departure and to its resident half while the
//!   chunked nonblocking exchange is in flight, hiding the wire time
//!   behind compute.
//!
//! **Bit-exactness.** Both planned executors produce states
//! bit-identical to [`DistPlanKind::Naive`] and to the serial engine:
//! relocated gates run through the ordinary kernel dispatch, and victims
//! are drawn from local slots `≥ 2` whenever possible so a relocated
//! dense gate takes the same SIMD-vs-scalar kernel path the serial axis
//! would (slots 0 and 1 are only evicted when a gate needs more
//! relocations than there are high slots — impossible for the supported
//! gate set once `n_local ≥ 5`). The final layout is *not* restored with
//! extra swaps; the gather allgathers raw slices and unpermutes locally
//! at zero communication cost.
//!
//! The planner also prices its own plan: [`DistPlan::profile`] is an
//! exact [`ExchangeProfile`] (bytes, messages, phases, hidden bytes) in
//! the units [`qcs_core::perf::predict_distributed`] consumes, so the
//! α–β comm model and the measured [`mpi_sim::CommStats`] can be joined
//! without any out-of-band accounting.

use mpi_sim::{Comm, World};
use qcs_core::circuit::{Circuit, Gate};
use qcs_core::perf::ExchangeProfile;
use qcs_core::state::StateVector;
use qcs_core::telemetry::{RunMeta, TelemetryConfig, Trace, Tracer};
use std::sync::Arc;

use crate::engine::{DistState, OVERLAP_CHUNKS};
use crate::error::DistError;
use crate::partition::Partition;

/// How far ahead the planner scans when scoring eviction victims
/// (Belady's farthest-next-use rule); gates beyond the horizon count as
/// never used again.
const BELADY_HORIZON: usize = 4096;

/// Lowest local slot a relocated dense gate may land on without risking
/// a SIMD-vs-scalar kernel-path divergence from the serial engine
/// (strides below the widest vector width fall back to scalar kernels,
/// whose rounding differs from the FMA-based vector lanes).
const SIMD_SAFE_SLOT: u32 = 2;

/// How a distributed run schedules its communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistPlanKind {
    /// Per-gate exchanges, no planning — the engine's original regimes.
    #[default]
    Naive,
    /// Exchange-minimizing qubit reordering with blocking swaps.
    Reorder,
    /// Reordering plus comm/compute overlap: swaps of the top local
    /// axis run chunked and nonblocking while deferred comm-free gates
    /// execute on resident data.
    Overlap,
}

impl DistPlanKind {
    /// All plan kinds, in escalating-optimization order.
    pub const ALL: [DistPlanKind; 3] =
        [DistPlanKind::Naive, DistPlanKind::Reorder, DistPlanKind::Overlap];

    /// The CLI/env spelling.
    pub fn name(self) -> &'static str {
        match self {
            DistPlanKind::Naive => "naive",
            DistPlanKind::Reorder => "reorder",
            DistPlanKind::Overlap => "overlap",
        }
    }

    /// Read `QCS_DIST_PLAN`; unset or unrecognized values fall back to
    /// [`DistPlanKind::Naive`] (the conservative per-gate engine).
    pub fn from_env() -> DistPlanKind {
        std::env::var("QCS_DIST_PLAN")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DistPlanKind::Naive)
    }
}

impl std::fmt::Display for DistPlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DistPlanKind {
    type Err = String;

    fn from_str(s: &str) -> Result<DistPlanKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Ok(DistPlanKind::Naive),
            "reorder" => Ok(DistPlanKind::Reorder),
            "overlap" => Ok(DistPlanKind::Overlap),
            other => Err(format!("unknown dist plan `{other}` (naive|reorder|overlap)")),
        }
    }
}

/// One circuit gate under the plan: the global↔local swaps that must
/// precede it, then the gate itself remapped onto physical axes. After
/// the `pre_swaps` the gate is communication-free (the planner
/// guarantees it), so the resilient executor can step gate-by-gate and
/// checkpoint at gate boundaries exactly as it does for the naive
/// engine — the physical layout at any gate index is a pure function of
/// the plan prefix.
#[derive(Debug, Clone)]
pub struct PlannedGate {
    /// `(global physical axis, local physical axis)` swaps, in order.
    pub pre_swaps: Vec<(u32, u32)>,
    /// The gate on physical axes (comm-free for planned kinds; for
    /// [`DistPlanKind::Naive`] it is the original gate and may still
    /// communicate through the engine's per-gate regimes). `None` when
    /// the planner absorbed the gate entirely into its qubit
    /// permutation: a logical `Swap` is a pure relabeling of amplitude
    /// axes, so planned kinds execute it as a map update and let the
    /// gather's unpermutation realize it — zero communication, zero
    /// compute, bit-exact (no amplitude is touched at all).
    pub gate: Option<Gate>,
}

impl PlannedGate {
    /// Execute the step on one rank: the pre-swaps, then the gate. The
    /// plain planned executor and the resilient one both step through
    /// this.
    pub(crate) fn apply(&self, st: &mut DistState, comm: &mut Comm) -> Result<(), DistError> {
        for &(g, l) in &self.pre_swaps {
            st.swap_global_local(comm, g, l)?;
        }
        match &self.gate {
            Some(g) => st.apply_gate(comm, g),
            None => Ok(()),
        }
    }
}

/// One executor action of the overlap schedule (derived from the
/// gate-aligned steps by [`DistPlan::overlap_schedule`]).
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Apply a comm-free physical gate to resident data (boxed: the
    /// gate payload dwarfs the other variants).
    Gate(Box<Gate>),
    /// Blocking global–local swap of physical axes `(global, local)`.
    Swap(u32, u32),
    /// Chunked nonblocking swap of `(gq, n_local − 1)` with the deferred
    /// comm-free gates applied per-half around/during the flight.
    OverlapSwap {
        /// Global physical axis being swapped with the top local axis.
        gq: u32,
        /// Earlier comm-free gates (avoiding the top local axis) whose
        /// application is hidden behind the exchange.
        resident: Vec<Gate>,
    },
}

/// A complete execution plan for one circuit over one partition.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// Scheduling policy this plan was built for.
    pub kind: DistPlanKind,
    /// Partition geometry the plan assumes.
    pub part: Partition,
    /// Gate-aligned steps (one per circuit gate, in order).
    pub steps: Vec<PlannedGate>,
    /// Final layout: `logical_at[p]` = logical qubit living on physical
    /// axis `p` when the circuit ends. Identity for the naive kind.
    pub logical_at: Vec<u32>,
    /// Exact exchange accounting of this plan, in the per-rank units
    /// [`qcs_core::perf::predict_distributed`] consumes.
    pub profile: ExchangeProfile,
}

/// Does `gate` require qubit `q` to sit on a local axis? Diagonal gates
/// never do, and a controlled gate's *control* may stay global (the
/// engine predicates on the rank bit); everything else dense does.
fn must_be_local(gate: &Gate, q: u32) -> bool {
    if gate.is_diagonal() || !gate.qubits().contains(&q) {
        return false;
    }
    match gate.as_controlled() {
        Some((c, _, _)) => q != c,
        None => true,
    }
}

/// Distance (in gates) from `gates[from]` to the next gate that needs
/// logical qubit `q` on a local axis, following `q` through future
/// absorbed `Swap` relabelings; [`BELADY_HORIZON`] when none. The
/// eviction rule built on this is Belady's optimal offline policy:
/// evict the occupant whose next dense use is farthest away.
fn next_dense_use(gates: &[Gate], from: usize, q: u32) -> usize {
    let mut q = q;
    for (d, g) in gates[from..].iter().take(BELADY_HORIZON).enumerate() {
        if let Gate::Swap(a, b) = *g {
            // Absorbed by planned kinds: only relabels the tracked qubit.
            if q == a {
                q = b;
            } else if q == b {
                q = a;
            }
            continue;
        }
        if must_be_local(g, q) {
            return d;
        }
    }
    BELADY_HORIZON
}

/// The global physical axes of `pg` that must be swapped local before
/// the gate can run comm-free. For controlled gates only the target
/// relocates (a global control is free); for other dense gates every
/// global qubit relocates. Only called when `pg` is not comm-free, so
/// the controlled case always has a global target.
fn globals_to_localize(part: &Partition, pg: &Gate) -> Vec<u32> {
    if let Some((_, t, _)) = pg.as_controlled() {
        debug_assert!(!part.is_local(t));
        return vec![t];
    }
    pg.qubits().into_iter().filter(|&q| !part.is_local(q)).collect()
}

/// Build the execution plan for `circuit` over `n_ranks`.
pub fn plan_circuit(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
) -> Result<DistPlan, DistError> {
    let part = Partition::new(circuit.n_qubits(), n_ranks);
    let n = circuit.n_qubits() as usize;
    let gates = circuit.gates();

    if kind == DistPlanKind::Naive {
        let steps = gates
            .iter()
            .map(|g| PlannedGate { pre_swaps: Vec::new(), gate: Some(g.clone()) })
            .collect();
        return Ok(DistPlan {
            kind,
            part,
            steps,
            logical_at: (0..n as u32).collect(),
            profile: naive_profile(&part, gates),
        });
    }

    let mut phys_of: Vec<u32> = (0..n as u32).collect();
    let mut logical_at: Vec<u32> = (0..n as u32).collect();
    let mut steps = Vec::with_capacity(gates.len());
    for (i, gate) in gates.iter().enumerate() {
        // A logical Swap is a pure relabeling of amplitude axes: absorb
        // it into the permutation instead of moving any data. The step
        // stays in the plan (gate `None`) so gate indices still align
        // with the circuit for the resilient checkpoint loop.
        if let Gate::Swap(a, b) = *gate {
            let pa = phys_of[a as usize];
            let pb = phys_of[b as usize];
            phys_of.swap(a as usize, b as usize);
            logical_at[pa as usize] = b;
            logical_at[pb as usize] = a;
            steps.push(PlannedGate { pre_swaps: Vec::new(), gate: None });
            continue;
        }
        let pg = gate.remap(|q| phys_of[q as usize]);
        let mut pre_swaps = Vec::new();
        if !DistState::is_comm_free(&part, &pg) {
            for gq in globals_to_localize(&part, &pg) {
                let gate_phys: Vec<u32> =
                    gate.qubits().iter().map(|&q| phys_of[q as usize]).collect();
                let candidates: Vec<u32> =
                    (0..part.n_local()).filter(|q| !gate_phys.contains(q)).collect();
                if candidates.is_empty() {
                    return Err(DistError::UnsupportedGate {
                        gate: gate.name().to_string(),
                        reason: format!(
                            "no free local slot to relocate onto ({} local qubits per rank)",
                            part.n_local()
                        ),
                    });
                }
                // Stay on SIMD-safe slots when any exist (bit-exactness
                // with the serial kernel paths); among those, evict the
                // occupant whose next dense use lies farthest ahead
                // (Belady), breaking ties toward the top slot (which is
                // where the overlap executor can hide swaps).
                let safe: Vec<u32> =
                    candidates.iter().copied().filter(|&q| q >= SIMD_SAFE_SLOT).collect();
                let pool = if safe.is_empty() { candidates } else { safe };
                let victim = pool
                    .into_iter()
                    .max_by_key(|&slot| {
                        let occupant = logical_at[slot as usize];
                        (next_dense_use(gates, i + 1, occupant), slot)
                    })
                    .expect("candidate pool is non-empty");
                pre_swaps.push((gq, victim));
                let incoming = logical_at[gq as usize];
                let evicted = logical_at[victim as usize];
                logical_at[gq as usize] = evicted;
                logical_at[victim as usize] = incoming;
                phys_of[incoming as usize] = victim;
                phys_of[evicted as usize] = gq;
            }
        }
        let pg = gate.remap(|q| phys_of[q as usize]);
        debug_assert!(DistState::is_comm_free(&part, &pg), "planned gate must be comm-free");
        steps.push(PlannedGate { pre_swaps, gate: Some(pg) });
    }

    let mut plan = DistPlan { kind, part, steps, logical_at, profile: ExchangeProfile::default() };
    plan.profile = match kind {
        DistPlanKind::Naive => unreachable!("handled above"),
        DistPlanKind::Reorder => reorder_profile(&part, &plan.steps),
        DistPlanKind::Overlap => overlap_profile(&part, &plan.overlap_schedule()),
    };
    Ok(plan)
}

impl DistPlan {
    /// Derive the overlap executor's op sequence from the gate-aligned
    /// steps: comm-free gates avoiding the top local axis are deferred
    /// and folded into the next swap *of* that axis as resident work;
    /// any other swap or top-axis gate flushes the deferral first (those
    /// gates were planned for the pre-swap layout and must run before
    /// it changes).
    pub fn overlap_schedule(&self) -> Vec<PlanOp> {
        let lq = self.part.n_local() - 1;
        let mut ops = Vec::new();
        let mut pending: Vec<Gate> = Vec::new();
        let flush = |ops: &mut Vec<PlanOp>, pending: &mut Vec<Gate>| {
            ops.extend(pending.drain(..).map(|g| PlanOp::Gate(Box::new(g))));
        };
        for step in &self.steps {
            for (k, &(g, l)) in step.pre_swaps.iter().enumerate() {
                if k == 0 && l == lq && !pending.is_empty() {
                    ops.push(PlanOp::OverlapSwap { gq: g, resident: std::mem::take(&mut pending) });
                } else {
                    flush(&mut ops, &mut pending);
                    ops.push(PlanOp::Swap(g, l));
                }
            }
            match &step.gate {
                None => {} // absorbed into the layout permutation
                Some(g) if g.qubits().contains(&lq) => {
                    flush(&mut ops, &mut pending);
                    ops.push(PlanOp::Gate(Box::new(g.clone())));
                }
                Some(g) => pending.push(g.clone()),
            }
        }
        flush(&mut ops, &mut pending);
        ops
    }
}

/// Wire bytes of one half-buffer swap, per rank.
fn swap_bytes(part: &Partition) -> u64 {
    (part.local_len() as u64 / 2) * 16
}

/// Exchange accounting of the per-gate naive engine (the regimes of
/// [`DistState::apply_gate`]), as per-rank averages — the both-global
/// controlled exchange only involves the control-set half of the ranks,
/// so its volume averages to half a buffer per rank.
fn naive_profile(part: &Partition, gates: &[Gate]) -> ExchangeProfile {
    let full = part.local_len() as u64 * 16;
    let mut p = ExchangeProfile::default();
    for g in gates {
        if DistState::is_comm_free(part, g) {
            continue;
        }
        if g.as_single().is_some() {
            p.bytes_per_rank += full;
            p.messages_per_rank += 1;
            p.phases += 1;
        } else if let Some((c, _, _)) = g.as_controlled() {
            if part.is_local(c) {
                p.bytes_per_rank += full;
            } else {
                // Both global: only ranks with the control bit set
                // exchange — half the world on average.
                p.bytes_per_rank += full / 2;
            }
            p.messages_per_rank += 1;
            p.phases += 1;
        } else {
            // Relocation fallback: swap in + swap out per global qubit,
            // half a buffer each.
            let globals = g.qubits().iter().filter(|&&q| !part.is_local(q)).count() as u64;
            p.bytes_per_rank += 2 * globals * swap_bytes(part);
            p.messages_per_rank += 2 * globals;
            p.phases += 2 * globals;
        }
    }
    p
}

/// Exchange accounting of a reorder plan: one half-buffer message per
/// planned swap, nothing else.
fn reorder_profile(part: &Partition, steps: &[PlannedGate]) -> ExchangeProfile {
    let mut p = ExchangeProfile::default();
    for step in steps {
        for _ in &step.pre_swaps {
            p.bytes_per_rank += swap_bytes(part);
            p.messages_per_rank += 1;
            p.phases += 1;
        }
    }
    p
}

/// Exchange accounting of an overlap schedule: same bytes as reorder
/// (chunking splits messages, not volume); each overlapped swap hides
/// the resident gates' half-buffer sweeps (read + write 16-byte
/// amplitudes) behind the flight.
fn overlap_profile(part: &Partition, ops: &[PlanOp]) -> ExchangeProfile {
    let half_amps = part.local_len() as u64 / 2;
    let mut p = ExchangeProfile::default();
    for op in ops {
        match op {
            PlanOp::Gate(_) => {}
            PlanOp::Swap(..) => {
                p.bytes_per_rank += swap_bytes(part);
                p.messages_per_rank += 1;
                p.phases += 1;
            }
            PlanOp::OverlapSwap { resident, .. } => {
                p.bytes_per_rank += swap_bytes(part);
                p.messages_per_rank +=
                    mpi_sim::chunk_count(half_amps as usize, OVERLAP_CHUNKS) as u64;
                p.phases += 1;
                p.hidden_bytes_per_rank += resident.len() as u64 * half_amps * 32;
            }
        }
    }
    p
}

/// Execute the plan on one rank's state.
pub(crate) fn run_rank_planned(
    st: &mut DistState,
    comm: &mut Comm,
    plan: &DistPlan,
) -> Result<(), DistError> {
    match plan.kind {
        DistPlanKind::Naive | DistPlanKind::Reorder => {
            for step in &plan.steps {
                step.apply(st, comm)?;
            }
        }
        DistPlanKind::Overlap => {
            for op in plan.overlap_schedule() {
                match op {
                    PlanOp::Gate(g) => st.apply_gate(comm, &g)?,
                    PlanOp::Swap(g, l) => st.swap_global_local(comm, g, l)?,
                    PlanOp::OverlapSwap { gq, resident } => {
                        st.swap_top_overlapped(comm, gq, &resident, OVERLAP_CHUNKS)?
                    }
                }
            }
        }
    }
    Ok(())
}

/// Gather the full state and undo the plan's final qubit permutation
/// locally — a pure index shuffle, zero extra communication (the
/// alternative, restoring the layout with swaps, would cost one
/// half-buffer exchange per displaced qubit).
pub(crate) fn gather_unpermuted(
    st: &DistState,
    comm: &mut Comm,
    logical_at: &[u32],
) -> StateVector {
    let raw = st.allgather_full(comm);
    if logical_at.iter().enumerate().all(|(p, &l)| p as u32 == l) {
        return raw;
    }
    let amps = raw.amplitudes();
    let mut out = vec![qcs_core::complex::C64::default(); amps.len()];
    for (x, &a) in amps.iter().enumerate() {
        let mut y = 0usize;
        for (p, &l) in logical_at.iter().enumerate() {
            y |= ((x >> p) & 1) << l;
        }
        out[y] = a;
    }
    StateVector::from_amplitudes(&out)
}

/// Run `circuit` from |0…0⟩ over `n_ranks` under an explicit plan kind,
/// returning the reassembled state and per-rank communication
/// statistics. [`crate::run_distributed`] is this with the kind read
/// from `QCS_DIST_PLAN`.
pub fn run_distributed_planned(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
) -> Result<(StateVector, Vec<mpi_sim::CommStats>), DistError> {
    let plan = plan_circuit(circuit, n_ranks, kind)?;
    let (states, stats) =
        World::run_with_stats(n_ranks, |comm| -> Result<StateVector, DistError> {
            let mut st = DistState::zero(circuit.n_qubits(), comm);
            run_rank_planned(&mut st, comm, &plan)?;
            Ok(gather_unpermuted(&st, comm, &plan.logical_at))
        });
    let mut first = None;
    for s in states {
        let s: StateVector = s?;
        if first.is_none() {
            first = Some(s);
        }
    }
    let state = first.ok_or_else(|| DistError::internal("world produced no ranks"))?;
    Ok((state, stats))
}

/// [`run_distributed_planned`] with per-rank exchange traces. The
/// overlapped swaps record [`qcs_core::telemetry::ExchangePhase::OverlapSwap`]
/// spans carrying only their *exposed* wall time, so exposed-vs-hidden
/// communication separates directly in the trace.
pub fn run_distributed_planned_traced(
    circuit: &Circuit,
    n_ranks: usize,
    kind: DistPlanKind,
    telemetry: &TelemetryConfig,
) -> Result<(StateVector, Vec<mpi_sim::CommStats>, Vec<Trace>), DistError> {
    let n = circuit.n_qubits();
    let plan = plan_circuit(circuit, n_ranks, kind)?;
    let strategy = match kind {
        DistPlanKind::Naive => format!("dist:{n_ranks}"),
        DistPlanKind::Reorder => format!("dist-reorder:{n_ranks}"),
        DistPlanKind::Overlap => format!("dist-overlap:{n_ranks}"),
    };
    let (results, stats) =
        World::run_with_stats(n_ranks, |comm| -> Result<(StateVector, Trace), DistError> {
            let mut tracer = Tracer::with_defaults(n, 1, telemetry.capacity);
            tracer.set_rank(comm.rank() as i32);
            let tracer = Arc::new(tracer);
            let mut st = DistState::zero(n, comm);
            st.set_tracer(Some(Arc::clone(&tracer)));
            run_rank_planned(&mut st, comm, &plan)?;
            let state = gather_unpermuted(&st, comm, &plan.logical_at);
            st.set_tracer(None);
            let tracer = Arc::try_unwrap(tracer).map_err(|_| {
                DistError::internal("tracer still shared after detaching from state")
            })?;
            let meta = RunMeta {
                strategy: strategy.clone(),
                backend: "exchange".to_string(),
                threads: 1,
                schedule: "static".to_string(),
                n_qubits: n,
                label: telemetry.label.clone(),
            };
            Ok((state, tracer.finish(meta)))
        });
    let mut state = None;
    let mut traces = Vec::with_capacity(n_ranks);
    for r in results {
        let (s, t): (StateVector, Trace) = r?;
        if state.is_none() {
            state = Some(s);
        }
        traces.push(t);
    }
    if telemetry.trace_path.is_some() {
        let mut cfg = telemetry.clone();
        for trace in &traces {
            let _ = qcs_core::telemetry::write_configured(&cfg, trace);
            cfg.append = true;
        }
    }
    let state = state.ok_or_else(|| DistError::internal("world produced no ranks"))?;
    Ok((state, stats, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_core::library;
    use qcs_core::sim::Simulator;
    use qcs_core::telemetry::{ExchangePhase, SpanKind};

    fn serial(circuit: &Circuit) -> StateVector {
        let mut s = StateVector::zero(circuit.n_qubits());
        Simulator::new().run(circuit, &mut s).unwrap();
        s
    }

    /// Algorithm-only bytes: subtract the final-allgather baseline.
    fn algorithm_bytes(circuit: &Circuit, ranks: usize, kind: DistPlanKind) -> u64 {
        let (_, with) = run_distributed_planned(circuit, ranks, kind).unwrap();
        let (_, base) =
            run_distributed_planned(&Circuit::new(circuit.n_qubits()), ranks, kind).unwrap();
        with.iter().zip(&base).map(|(a, b)| a.bytes_sent.saturating_sub(b.bytes_sent)).sum()
    }

    #[test]
    fn repeated_high_qubit_gates_communicate_less_when_reordered() {
        // Ten H+T pairs on the top qubit: the naive plan exchanges a
        // buffer per H; reorder relocates the qubit once and runs the
        // rest locally.
        let n = 10u32;
        let ranks = 4usize;
        let mut c = Circuit::new(n);
        for _ in 0..10 {
            c.h(n - 1);
            c.t(n - 1); // diagonal, free either way
        }
        let naive = algorithm_bytes(&c, ranks, DistPlanKind::Naive);
        let reorder = algorithm_bytes(&c, ranks, DistPlanKind::Reorder);
        assert!(
            reorder * 5 <= naive,
            "reorder should slash repeated-touch traffic: {reorder} vs {naive}"
        );
        let (state, _) = run_distributed_planned(&c, ranks, DistPlanKind::Reorder).unwrap();
        assert!(state.approx_eq(&serial(&c), 0.0));
    }

    #[test]
    fn rotation_layers_on_top_qubits_benefit_from_reorder() {
        let n = 10u32;
        let ranks = 4usize;
        let mut c = Circuit::new(n);
        for l in 0..6 {
            c.rx(n - 1, 0.1 * (l + 1) as f64);
            c.ry(n - 2, 0.2 * (l + 1) as f64);
        }
        let naive = algorithm_bytes(&c, ranks, DistPlanKind::Naive);
        let reorder = algorithm_bytes(&c, ranks, DistPlanKind::Reorder);
        assert!(reorder < naive, "reorder {reorder} should beat naive {naive}");
        let (state, _) = run_distributed_planned(&c, ranks, DistPlanKind::Reorder).unwrap();
        assert!(state.approx_eq(&serial(&c), 0.0));
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for kind in DistPlanKind::ALL {
            assert_eq!(kind.name().parse::<DistPlanKind>().unwrap(), kind);
        }
        assert_eq!("OVERLAP".parse::<DistPlanKind>().unwrap(), DistPlanKind::Overlap);
        assert!("fancy".parse::<DistPlanKind>().is_err());
    }

    #[test]
    fn planned_gates_are_comm_free_and_swaps_stay_simd_safe() {
        let c = library::qft(8);
        let plan = plan_circuit(&c, 4, DistPlanKind::Reorder).unwrap();
        for step in &plan.steps {
            if let Some(g) = &step.gate {
                assert!(DistState::is_comm_free(&plan.part, g), "{g:?}");
            }
            for &(g, l) in &step.pre_swaps {
                assert!(!plan.part.is_local(g));
                assert!(plan.part.is_local(l));
                assert!(l >= SIMD_SAFE_SLOT, "victim {l} below the SIMD-safe floor");
            }
        }
    }

    #[test]
    fn all_plan_kinds_are_bit_identical_to_serial() {
        for c in [
            library::qft(8),
            library::ghz(8),
            library::random_circuit(8, 12, 7),
            library::trotter_ising(8, 2, 1.0, 0.6, 0.1),
        ] {
            let reference = serial(&c);
            for ranks in [2usize, 4] {
                for kind in DistPlanKind::ALL {
                    let (state, _) = run_distributed_planned(&c, ranks, kind).unwrap();
                    assert!(
                        state.approx_eq(&reference, 0.0),
                        "{kind} ranks={ranks}: max diff {}",
                        state.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    #[test]
    fn reorder_slashes_qft_exchange_bytes() {
        // QFT's H ladder touches every global qubit with dense gates; the
        // naive engine pays a full buffer per touch, the planner one half
        // buffer per relocation.
        let c = library::qft(10);
        let naive = algorithm_bytes(&c, 4, DistPlanKind::Naive);
        let reorder = algorithm_bytes(&c, 4, DistPlanKind::Reorder);
        assert!(
            reorder * 2 <= naive,
            "reorder must at least halve QFT traffic: {reorder} vs {naive}"
        );
    }

    #[test]
    fn profile_predicts_measured_reorder_bytes_exactly() {
        let c = library::qft(9);
        let ranks = 4usize;
        let plan = plan_circuit(&c, ranks, DistPlanKind::Reorder).unwrap();
        let measured_world = algorithm_bytes(&c, ranks, DistPlanKind::Reorder);
        assert_eq!(plan.profile.bytes_per_rank * ranks as u64, measured_world);
    }

    #[test]
    fn overlap_moves_the_same_bytes_and_hides_compute() {
        let c = library::qft(9);
        let ranks = 4usize;
        let reorder = plan_circuit(&c, ranks, DistPlanKind::Reorder).unwrap();
        let overlap = plan_circuit(&c, ranks, DistPlanKind::Overlap).unwrap();
        assert_eq!(reorder.profile.bytes_per_rank, overlap.profile.bytes_per_rank);
        assert_eq!(reorder.profile.phases, overlap.profile.phases);
        assert!(
            overlap.profile.hidden_bytes_per_rank > 0,
            "the overlap schedule must defer work behind at least one swap"
        );
        let measured_world = algorithm_bytes(&c, ranks, DistPlanKind::Overlap);
        assert_eq!(overlap.profile.bytes_per_rank * ranks as u64, measured_world);
    }

    #[test]
    fn overlap_schedule_defers_gates_into_swaps() {
        let mut c = Circuit::new(8);
        // Local work, then a dense touch of a global qubit: the planner
        // swaps, and the overlap schedule hides the local work in it.
        c.h(0).h(1).cx(0, 1).h(7);
        let plan = plan_circuit(&c, 4, DistPlanKind::Overlap).unwrap();
        let ops = plan.overlap_schedule();
        let overlapped = ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::OverlapSwap { resident, .. } => Some(resident.len()),
                _ => None,
            })
            .sum::<usize>();
        assert!(overlapped >= 3, "three local gates should ride the swap, saw {overlapped}");
    }

    #[test]
    fn traced_overlap_records_exposed_only_spans() {
        let mut c = Circuit::new(8);
        c.h(0).h(1).h(7);
        let (state, _, traces) =
            run_distributed_planned_traced(&c, 4, DistPlanKind::Overlap, &TelemetryConfig::on())
                .unwrap();
        assert!(state.approx_eq(&serial(&c), 0.0));
        let mut seen = 0;
        for t in &traces {
            assert_eq!(t.meta.strategy, "dist-overlap:4");
            for s in &t.spans {
                if s.kind == SpanKind::Exchange(ExchangePhase::OverlapSwap) {
                    seen += 1;
                    assert_eq!(s.amps, 1 << 5, "half the local buffer per swap");
                    assert!(s.model_ns > 0.0, "overlap spans are priced by the link model");
                }
            }
        }
        assert_eq!(seen, 4, "one overlapped swap per rank");
    }

    #[test]
    fn gather_unpermuted_restores_logical_order() {
        // X on the top qubit, which the planner relocates and leaves
        // displaced: the gather must still produce |10…0⟩… pattern.
        let mut c = Circuit::new(8);
        c.x(7).h(0);
        let reference = serial(&c);
        let (state, _) = run_distributed_planned(&c, 4, DistPlanKind::Reorder).unwrap();
        assert!(state.approx_eq(&reference, 0.0), "diff {}", state.max_abs_diff(&reference));
    }

    #[test]
    fn env_routes_the_default_harness() {
        // Covered indirectly: from_env falls back to Naive on unset or
        // invalid values.
        assert_eq!("naive".parse::<DistPlanKind>().unwrap(), DistPlanKind::Naive);
        assert_eq!(DistPlanKind::default(), DistPlanKind::Naive);
    }
}
