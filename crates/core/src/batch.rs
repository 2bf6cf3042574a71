//! Batched multi-circuit execution.
//!
//! A [`BatchSimulator`] is a [`Simulator`] plus a batch size.
//! [`BatchSimulator::run`] lowers one circuit once and executes the
//! [`Program`](crate::program::Program) over a batch of independent
//! state vectors in *gate-major* order: each sweep is applied to every
//! member before the next sweep starts. The gate stream (matrices,
//! block items, plan ops) stays hot across members — the locality
//! argument of the paper's cache-blocking analysis applied along the
//! batch axis — while the amplitude work per member is exactly what a
//! lone run performs.
//!
//! Every (member, block) cell executes the *serial* kernel path a
//! single-threaded [`Simulator`] run uses, and worksharing only decides
//! which thread owns which disjoint cell. Batched results are therefore
//! bit-identical to running the members sequentially, for every
//! strategy × backend × schedule combination — the property the
//! differential-conformance suite pins down.
//!
//! Trajectory sampling rides the same machinery:
//! [`BatchSimulator::run_trajectories`] runs one noisy trajectory per
//! member, each with its own seeded RNG, in a single batched call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::circuit::Circuit;
use crate::config::SimConfig;
use crate::kernels::simd::KernelBackend;
use crate::measure::MeasurementResult;
use crate::noise::{run_trajectory, NoiseChannel};
use crate::perf::{predict_batched, BatchPrediction};
use crate::program::lower_with;
use crate::sim::{check_widths, SimError, Simulator, Strategy};
use crate::state::StateVector;
use crate::telemetry::Trace;

/// Most members one batched call accepts. Far above any host memory
/// budget for interesting widths; the cap exists so configuration
/// errors (e.g. passing an amplitude count as a batch size) fail with a
/// message instead of an allocation storm.
pub const MAX_BATCH: usize = 4096;

/// Process-wide batch identity; tags every per-member trace so one
/// JSONL sink can hold many batched runs.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

fn next_batch_id() -> u64 {
    NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed)
}

/// Report of one batched execution.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Process-unique id of this batched call (also tagged into every
    /// member's trace label).
    pub batch_id: u64,
    /// Wall time of the whole batch, planning included.
    pub wall_seconds: f64,
    /// Member states executed.
    pub members: usize,
    /// Gates in the source circuit.
    pub gates: usize,
    /// Sweeps executed *per member* (= the single-run sweep count).
    pub sweeps: usize,
    /// Kernel backend name.
    pub backend: &'static str,
    /// Measured throughput: `members / wall_seconds`.
    pub circuits_per_sec: f64,
    /// A64FX-model batched-vs-sequential prediction, when a chip model
    /// is attached.
    pub predicted: Option<BatchPrediction>,
    /// One telemetry trace per member, when telemetry is enabled.
    pub traces: Vec<Trace>,
}

/// Result of one batched measured ([`BatchSimulator::run_measured`])
/// execution.
#[derive(Debug, Clone)]
pub struct MeasuredBatch {
    /// Process-unique id of this batched call.
    pub batch_id: u64,
    /// Wall time of the whole batch.
    pub wall_seconds: f64,
    /// Per-member measurement records, in circuit order.
    pub outcomes: Vec<Vec<MeasurementResult>>,
    /// Per-member final classical registers.
    pub cregs: Vec<u64>,
}

/// Result of one batched trajectory-sampling call.
#[derive(Debug, Clone)]
pub struct TrajectoryBatch {
    /// Process-unique id of this batched call.
    pub batch_id: u64,
    /// Wall time of the whole batch.
    pub wall_seconds: f64,
    /// Final state of each trajectory, member-major.
    pub states: Vec<StateVector>,
    /// Stochastic error events injected into each trajectory.
    pub errors: Vec<usize>,
}

/// The batched execution engine: a [`Simulator`] plus a batch size.
///
/// Configured through [`SimConfig`] like the single-run engine; the
/// extra knob is [`SimConfig::batch`](SimConfig::batch), which sizes
/// [`run_fresh`](BatchSimulator::run_fresh). Per-run resilience state
/// (integrity sweeps, checkpointing) is rejected at construction —
/// those are single-trajectory features.
#[derive(Clone, Debug)]
pub struct BatchSimulator {
    sim: Simulator,
    default_batch: usize,
}

impl BatchSimulator {
    /// Single-threaded, gate-by-gate, batch size 1, telemetry off.
    pub fn new() -> BatchSimulator {
        BatchSimulator { sim: Simulator::new(), default_batch: 1 }
    }

    /// Build a batched engine from a validated [`SimConfig`].
    ///
    /// Integrity sweeps and checkpointing are per-run rollback state and
    /// do not compose with gate-major interleaving; configs enabling
    /// them are rejected with [`SimError::InvalidConfig`].
    pub fn from_config(config: SimConfig) -> Result<BatchSimulator, SimError> {
        config.validate()?;
        if config.integrity.enabled() {
            return Err(SimError::InvalidConfig(
                "integrity sweeps are per-run rollback state and do not compose with \
                 batched execution; run members through `Simulator` individually"
                    .to_string(),
            ));
        }
        if config.checkpoint.is_some() {
            return Err(SimError::InvalidConfig(
                "checkpointing is per-run rollback state and does not compose with \
                 batched execution; run members through `Simulator` individually"
                    .to_string(),
            ));
        }
        let default_batch = config.batch;
        Ok(BatchSimulator { sim: Simulator::from_config(config)?, default_batch })
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.sim.strategy()
    }

    /// Worksharing threads (1 when serial).
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// The batch size [`run_fresh`](BatchSimulator::run_fresh) uses.
    pub fn batch_size(&self) -> usize {
        self.default_batch
    }

    /// The kernel backend this engine executes with.
    pub fn backend(&self) -> &'static KernelBackend {
        self.sim.backend()
    }

    /// Execute `circuit` on every member of `states`, gate-major.
    ///
    /// Results are bit-identical to running each member through a
    /// *serial* single-run [`Simulator`] with the same strategy and
    /// backend — regardless of this engine's thread count, because work
    /// is sharded at (member × block) granularity and every cell
    /// executes the serial kernel sequence.
    pub fn run(
        &self,
        circuit: &Circuit,
        states: &mut [StateVector],
    ) -> Result<BatchReport, SimError> {
        let members = states.len();
        if members == 0 {
            return Err(SimError::InvalidConfig(
                "batch needs at least 1 member state (got an empty batch)".to_string(),
            ));
        }
        check_members(members)?;
        check_widths(circuit.n_qubits(), states)?;
        if circuit.has_nonunitary() {
            return Err(SimError::InvalidConfig(
                "circuit contains measurement or classically-controlled ops; use \
                 `BatchSimulator::run_measured` (per-member RNG streams)"
                    .to_string(),
            ));
        }
        // `Auto` resolves exactly as the single-run engine resolves it,
        // so a batched run stays bit-identical to its sequential members.
        let strategy = self.sim.resolved(circuit);
        let batch_id = next_batch_id();
        let ex = self.sim.execute(self.strategy(), Some(batch_id), states, &[], None, || {
            vec![lower_with(circuit, strategy, crate::calibrate::Calibration::get)]
        })?;
        Ok(self.report(
            batch_id,
            members,
            circuit,
            ex.programs[0].sweeps(),
            ex.wall_seconds,
            ex.traces,
        ))
    }

    fn report(
        &self,
        batch_id: u64,
        members: usize,
        circuit: &Circuit,
        sweeps: usize,
        wall_seconds: f64,
        traces: Vec<Trace>,
    ) -> BatchReport {
        BatchReport {
            batch_id,
            wall_seconds,
            members,
            gates: circuit.len(),
            sweeps,
            backend: self.backend().name,
            circuits_per_sec: if wall_seconds > 0.0 { members as f64 / wall_seconds } else { 0.0 },
            predicted: self
                .sim
                .chip
                .as_ref()
                .map(|(chip, cfg)| predict_batched(chip, cfg, circuit, members)),
            traces,
        }
    }

    /// Run `circuit` on [`batch_size`](BatchSimulator::batch_size)
    /// fresh `|0…0⟩` members; returns the final states with the report.
    pub fn run_fresh(
        &self,
        circuit: &Circuit,
    ) -> Result<(Vec<StateVector>, BatchReport), SimError> {
        let mut states: Vec<StateVector> =
            (0..self.default_batch).map(|_| StateVector::zero(circuit.n_qubits())).collect();
        let report = self.run(circuit, &mut states)?;
        Ok((states, report))
    }

    /// Execute one circuit *per member*, gate-major: gate position `j`
    /// of every member's circuit is applied across the whole batch
    /// before position `j+1` starts. Circuits must be same-shaped —
    /// equal width and equal gate count — which is exactly what a
    /// parameter sweep of one parameterized circuit produces
    /// ([`crate::variational`]): the gate stream stays hot along the
    /// batch axis while each member applies its own angles.
    ///
    /// Each member runs its own naive program, so member `m`'s final
    /// state is bit-identical to running `circuits[m]` through a serial
    /// `Strategy::Naive` [`Simulator`].
    pub fn run_sweep(
        &self,
        circuits: &[Circuit],
        states: &mut [StateVector],
    ) -> Result<BatchReport, SimError> {
        let members = states.len();
        if members == 0 || circuits.len() != members {
            return Err(SimError::InvalidConfig(format!(
                "sweep needs one circuit per member state (got {} circuits, {members} states)",
                circuits.len()
            )));
        }
        check_members(members)?;
        let (n, gate_count) = (circuits[0].n_qubits(), circuits[0].len());
        for c in circuits {
            if c.n_qubits() != n || c.len() != gate_count {
                return Err(SimError::InvalidConfig(format!(
                    "sweep circuits must be same-shaped: expected {n} qubits × {gate_count} \
                     gates, got {} × {}",
                    c.n_qubits(),
                    c.len()
                )));
            }
            if c.has_nonunitary() {
                return Err(SimError::InvalidConfig(
                    "sweep circuits must be unitary; mid-circuit measurement runs \
                     through `BatchSimulator::run_measured`"
                        .to_string(),
                ));
            }
        }
        check_widths(n, states)?;
        let batch_id = next_batch_id();
        let ex = self.sim.execute(Strategy::Naive, Some(batch_id), states, &[], None, || {
            circuits
                .iter()
                .map(|c| lower_with(c, Strategy::Naive, crate::calibrate::Calibration::get))
                .collect()
        })?;
        Ok(self.report(batch_id, members, &circuits[0], gate_count, ex.wall_seconds, ex.traces))
    }

    /// Execute one circuit containing [`Gate::Measure`] /
    /// [`Gate::Cif`] ops on every member, gate-major, with **per-member
    /// RNG streams**: member `m` draws from
    /// `StdRng::seed_from_u64(seeds[m])`, one draw per `Measure`, in
    /// circuit order.
    ///
    /// The circuit is lowered once under the configured strategy, one
    /// unitary segment at a time, exactly as
    /// [`Simulator::run_measured`] lowers it. Every member therefore
    /// produces the bit-identical state, outcome list, and classical
    /// register a serial `run_measured` call with the same strategy,
    /// backend and seed produces — regardless of this engine's thread
    /// count.
    ///
    /// [`Gate::Measure`]: crate::circuit::Gate::Measure
    /// [`Gate::Cif`]: crate::circuit::Gate::Cif
    pub fn run_measured(
        &self,
        circuit: &Circuit,
        states: &mut [StateVector],
        seeds: &[u64],
    ) -> Result<MeasuredBatch, SimError> {
        let members = states.len();
        if members == 0 || seeds.len() != members {
            return Err(SimError::InvalidConfig(format!(
                "measured batch needs one seed per member state (got {} seeds, {members} \
                 states)",
                seeds.len()
            )));
        }
        check_members(members)?;
        check_widths(circuit.n_qubits(), states)?;
        let strategy = self.sim.resolved(circuit);
        let batch_id = next_batch_id();
        let ex = self.sim.execute(self.strategy(), Some(batch_id), states, seeds, None, || {
            vec![lower_with(circuit, strategy, crate::calibrate::Calibration::get)]
        })?;
        let (cregs, outcomes) = ex.runs.into_iter().map(|r| (r.creg, r.outcomes)).unzip();
        Ok(MeasuredBatch { batch_id, wall_seconds: ex.wall_seconds, outcomes, cregs })
    }

    /// Sample one noisy trajectory per seed, batched: member `m` starts
    /// from `|0…0⟩`, draws from `StdRng::seed_from_u64(seeds[m])`, and
    /// produces exactly the state and error count a sequential
    /// [`run_trajectory`] call with the same seed produces.
    pub fn run_trajectories(
        &self,
        circuit: &Circuit,
        channel: NoiseChannel,
        seeds: &[u64],
    ) -> Result<TrajectoryBatch, SimError> {
        let members: Vec<(NoiseChannel, u64)> = seeds.iter().map(|&s| (channel, s)).collect();
        self.run_trajectories_mixed(circuit, &members)
    }

    /// Trajectory sampling with a per-member `(channel, seed)` pair —
    /// one batched call can mix noise models.
    pub fn run_trajectories_mixed(
        &self,
        circuit: &Circuit,
        members: &[(NoiseChannel, u64)],
    ) -> Result<TrajectoryBatch, SimError> {
        if members.is_empty() {
            return Err(SimError::InvalidConfig(
                "batch needs at least 1 trajectory seed (got an empty batch)".to_string(),
            ));
        }
        if members.len() > MAX_BATCH {
            return Err(SimError::InvalidConfig(format!(
                "batch of {} trajectories exceeds the limit of {MAX_BATCH}",
                members.len()
            )));
        }
        if circuit.has_nonunitary() {
            return Err(SimError::InvalidConfig(
                "trajectory circuits must be unitary; mid-circuit measurement runs \
                 through `BatchSimulator::run_measured`"
                    .to_string(),
            ));
        }
        let n = circuit.n_qubits();
        let batch_id = next_batch_id();
        let start = Instant::now();
        let mut rows: Vec<(StateVector, StdRng, usize)> = members
            .iter()
            .map(|&(_, seed)| (StateVector::zero(n), StdRng::seed_from_u64(seed), 0))
            .collect();
        self.sim.executor(true).each_row(&mut rows, |m, (state, rng, errors)| {
            *errors = run_trajectory(circuit, state, members[m].0, rng);
        });
        let (states, errors) = rows.into_iter().map(|(state, _, errors)| (state, errors)).unzip();
        Ok(TrajectoryBatch {
            batch_id,
            wall_seconds: start.elapsed().as_secs_f64(),
            states,
            errors,
        })
    }
}

/// A batch may hold at most [`MAX_BATCH`] members.
fn check_members(members: usize) -> Result<(), SimError> {
    if members > MAX_BATCH {
        return Err(SimError::InvalidConfig(format!(
            "batch of {members} members exceeds the limit of {MAX_BATCH}"
        )));
    }
    Ok(())
}

impl Default for BatchSimulator {
    fn default() -> Self {
        BatchSimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;
    use crate::testing::random_circuit_seeded;
    use a64fx_model::timing::ExecConfig;
    use a64fx_model::ChipParams;
    use rand::Rng;

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::Naive,
            Strategy::Fused { max_k: 3 },
            Strategy::Blocked { block_qubits: 3 },
            Strategy::Planned { block_qubits: 3, max_k: 3 },
        ]
    }

    fn random_members(n: u32, count: usize, seed: u64) -> Vec<StateVector> {
        (0..count)
            .map(|m| {
                let mut rng = StdRng::seed_from_u64(seed + m as u64);
                StateVector::random(n, &mut rng)
            })
            .collect()
    }

    #[test]
    fn serial_batch_is_bit_identical_to_sequential_runs() {
        let circuit = random_circuit_seeded(5, 40, 7);
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy).serial();
            let single = Simulator::from_config(cfg.clone()).unwrap();
            let batch = BatchSimulator::from_config(cfg).unwrap();
            let mut expect = random_members(5, 3, 900);
            for s in expect.iter_mut() {
                single.run(&circuit, s).unwrap();
            }
            let mut got = random_members(5, 3, 900);
            let report = batch.run(&circuit, &mut got).unwrap();
            assert_eq!(report.members, 3);
            assert_eq!(report.gates, circuit.len());
            for (g, e) in got.iter().zip(&expect) {
                assert!(g.approx_eq(e, 0.0), "strategy {strategy} diverged from sequential");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads; covered serially above
    fn threaded_batch_is_bit_identical_to_serial_members() {
        let circuit = random_circuit_seeded(6, 50, 13);
        for strategy in all_strategies() {
            let serial =
                Simulator::from_config(SimConfig::default().strategy(strategy).serial()).unwrap();
            let batch =
                BatchSimulator::from_config(SimConfig::default().strategy(strategy).threads(4))
                    .unwrap();
            let mut expect = random_members(6, 5, 31);
            for s in expect.iter_mut() {
                serial.run(&circuit, s).unwrap();
            }
            let mut got = random_members(6, 5, 31);
            batch.run(&circuit, &mut got).unwrap();
            for (g, e) in got.iter().zip(&expect) {
                assert!(g.approx_eq(e, 0.0), "strategy {strategy} diverged under threads");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads
    fn lone_member_threaded_batch_is_bit_identical_to_serial() {
        // A single run shares each sweep out across the pool, which may
        // round differently from the serial kernels; a one-member batch
        // must still run the serial sequence. n = 12 makes worksharing
        // split sweeps at strides where that rounding shows.
        let circuit = random_circuit_seeded(12, 60, 23);
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy);
            let mut expect = random_members(12, 1, 77);
            Simulator::from_config(cfg.clone().serial())
                .unwrap()
                .run(&circuit, &mut expect[0])
                .unwrap();
            let mut got = random_members(12, 1, 77);
            BatchSimulator::from_config(cfg.threads(3)).unwrap().run(&circuit, &mut got).unwrap();
            assert!(got[0].approx_eq(&expect[0], 0.0), "strategy {strategy}");
        }
    }

    #[test]
    fn batched_trajectories_match_sequential_sampling() {
        let circuit = random_circuit_seeded(4, 30, 11);
        let channel = NoiseChannel::BitFlip { p: 0.3 };
        let seeds = [1u64, 2, 3];
        let batch = BatchSimulator::new();
        let got = batch.run_trajectories(&circuit, channel, &seeds).unwrap();
        assert_eq!(got.states.len(), 3);
        for (m, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = StateVector::zero(4);
            let errors = run_trajectory(&circuit, &mut state, channel, &mut rng);
            assert!(got.states[m].approx_eq(&state, 0.0), "trajectory {m} diverged");
            assert_eq!(got.errors[m], errors, "trajectory {m} error count diverged");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns worker threads
    fn threaded_trajectories_match_serial_trajectories() {
        let circuit = random_circuit_seeded(4, 25, 17);
        let mixed = [
            (NoiseChannel::BitFlip { p: 0.2 }, 5u64),
            (NoiseChannel::Depolarizing { p: 0.1 }, 6),
            (NoiseChannel::AmplitudeDamping { gamma: 0.15 }, 7),
            (NoiseChannel::PhaseFlip { p: 0.25 }, 8),
        ];
        let serial = BatchSimulator::new();
        let threaded = BatchSimulator::from_config(SimConfig::default().threads(3)).unwrap();
        let a = serial.run_trajectories_mixed(&circuit, &mixed).unwrap();
        let b = threaded.run_trajectories_mixed(&circuit, &mixed).unwrap();
        assert_eq!(a.errors, b.errors);
        for (x, y) in a.states.iter().zip(&b.states) {
            assert!(x.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn traced_batch_produces_per_member_traces() {
        let circuit = random_circuit_seeded(4, 12, 3);
        for strategy in all_strategies() {
            let cfg = SimConfig::default().strategy(strategy).traced();
            let batch = BatchSimulator::from_config(cfg.clone()).unwrap();
            let untraced =
                BatchSimulator::from_config(cfg.telemetry(TelemetryConfig::off())).unwrap();
            let mut traced_states = random_members(4, 2, 50);
            let report = batch.run(&circuit, &mut traced_states).unwrap();
            assert_eq!(report.traces.len(), 2, "strategy {strategy}");
            for (m, trace) in report.traces.iter().enumerate() {
                assert_eq!(trace.summary.spans, report.sweeps, "strategy {strategy}");
                let label = &trace.meta.label;
                assert!(label.contains(&format!("batch={}", report.batch_id)), "{label}");
                assert!(label.contains(&format!("member={m}")), "{label}");
            }
            // Tracing must not perturb the arithmetic.
            let mut plain_states = random_members(4, 2, 50);
            untraced.run(&circuit, &mut plain_states).unwrap();
            for (t, p) in traced_states.iter().zip(&plain_states) {
                assert!(t.approx_eq(p, 0.0), "strategy {strategy}: tracing changed results");
            }
        }
    }

    #[test]
    fn batch_size_and_width_limits_are_enforced() {
        let sim = BatchSimulator::new();
        let circuit = random_circuit_seeded(2, 5, 1);
        let mut empty: Vec<StateVector> = Vec::new();
        let err = sim.run(&circuit, &mut empty).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let mut mismatched = vec![StateVector::zero(3)];
        assert!(matches!(
            sim.run(&circuit, &mut mismatched).unwrap_err(),
            SimError::QubitMismatch { circuit: 2, state: 3 }
        ));
        let wide = random_circuit_seeded(1, 3, 2);
        let mut too_many: Vec<StateVector> =
            (0..MAX_BATCH + 1).map(|_| StateVector::zero(1)).collect();
        let err = sim.run(&wide, &mut too_many).unwrap_err();
        assert!(err.to_string().contains(&MAX_BATCH.to_string()), "{err}");
        assert!(sim
            .run_trajectories(&wide, NoiseChannel::BitFlip { p: 0.1 }, &[])
            .unwrap_err()
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn run_rejects_nonunitary_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let sim = BatchSimulator::new();
        let mut states = vec![StateVector::zero(2)];
        let err = sim.run(&c, &mut states).unwrap_err();
        assert!(err.to_string().contains("run_measured"), "{err}");
        let err = sim.run_trajectories(&c, NoiseChannel::BitFlip { p: 0.1 }, &[1]).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
    }

    #[test]
    fn sweep_is_bit_identical_to_serial_naive_runs() {
        use crate::variational::hardware_efficient_ansatz;
        let pc = hardware_efficient_ansatz(5, 2);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..pc.n_params()).map(|j| 0.1 * (i * 3 + j) as f64).collect())
            .collect();
        let circuits: Vec<Circuit> = points.iter().map(|p| pc.bind(p)).collect();
        let serial = Simulator::new();
        let mut expect: Vec<StateVector> = circuits.iter().map(|_| StateVector::zero(5)).collect();
        for (c, s) in circuits.iter().zip(expect.iter_mut()) {
            serial.run(c, s).unwrap();
        }
        for threads in [1usize, 4] {
            let batch = BatchSimulator::from_config(SimConfig::default().threads(threads)).unwrap();
            let mut got: Vec<StateVector> = circuits.iter().map(|_| StateVector::zero(5)).collect();
            let report = batch.run_sweep(&circuits, &mut got).unwrap();
            assert_eq!(report.sweeps, pc.len());
            for (m, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(g.approx_eq(e, 0.0), "member {m} diverged (threads={threads})");
            }
        }
    }

    #[test]
    fn sweep_validates_shapes() {
        let sim = BatchSimulator::new();
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(3);
        b.h(0).h(1);
        let mut states = vec![StateVector::zero(3), StateVector::zero(3)];
        let err = sim.run_sweep(&[a.clone(), b], &mut states).unwrap_err();
        assert!(err.to_string().contains("same-shaped"), "{err}");
        let err = sim.run_sweep(&[a.clone()], &mut states).unwrap_err();
        assert!(err.to_string().contains("one circuit per member"), "{err}");
        let mut m = Circuit::new(3);
        m.measure(0, 0);
        let mut one = vec![StateVector::zero(3)];
        let err = sim.run_sweep(&[m], &mut one).unwrap_err();
        assert!(err.to_string().contains("unitary"), "{err}");
    }

    #[test]
    fn batched_measured_matches_serial_per_seed() {
        let mut circuit = Circuit::new(4);
        for g in random_circuit_seeded(4, 10, 2).gates() {
            circuit.push(g.clone());
        }
        circuit.measure(1, 0);
        circuit.cif_bit(0, 1, crate::circuit::Gate::X(2));
        for g in random_circuit_seeded(4, 6, 5).gates() {
            circuit.push(g.clone());
        }
        circuit.measure(3, 1);
        let seeds = [11u64, 12, 13, 14];
        let serial = Simulator::new();
        for threads in [1usize, 3] {
            let batch = BatchSimulator::from_config(SimConfig::default().threads(threads)).unwrap();
            let mut states: Vec<StateVector> = seeds.iter().map(|_| StateVector::zero(4)).collect();
            let got = batch.run_measured(&circuit, &mut states, &seeds).unwrap();
            for (m, &seed) in seeds.iter().enumerate() {
                let mut expect = StateVector::zero(4);
                let report = serial.run_measured(&circuit, &mut expect, seed).unwrap();
                assert!(
                    states[m].approx_eq(&expect, 0.0),
                    "member {m} state diverged (threads={threads})"
                );
                assert_eq!(got.cregs[m], report.creg, "member {m} creg");
                assert_eq!(got.outcomes[m], report.outcomes, "member {m} outcomes");
            }
        }
    }

    #[test]
    fn measured_batch_validates_seeds() {
        let sim = BatchSimulator::new();
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let mut states = vec![StateVector::zero(2), StateVector::zero(2)];
        let err = sim.run_measured(&c, &mut states, &[1]).unwrap_err();
        assert!(err.to_string().contains("one seed per member"), "{err}");
    }

    #[test]
    fn rejects_per_run_resilience_configs() {
        use crate::integrity::IntegrityMode;
        let err =
            BatchSimulator::from_config(SimConfig::default().integrity_mode(IntegrityMode::Check))
                .unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        let err = BatchSimulator::from_config(
            SimConfig::default().checkpoint_every(4, std::env::temp_dir()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn run_fresh_uses_configured_batch_size() {
        let batch = BatchSimulator::from_config(SimConfig::default().batch(4)).unwrap();
        assert_eq!(batch.batch_size(), 4);
        let circuit = random_circuit_seeded(3, 10, 5);
        let (states, report) = batch.run_fresh(&circuit).unwrap();
        assert_eq!(states.len(), 4);
        assert_eq!(report.members, 4);
        // Identical circuit from identical |0…0⟩ starts: members agree.
        for s in &states[1..] {
            assert!(s.approx_eq(&states[0], 0.0));
        }
        assert!(report.circuits_per_sec > 0.0);
    }

    #[test]
    fn batch_ids_are_unique_and_tagged() {
        let sim = BatchSimulator::new();
        let circuit = random_circuit_seeded(3, 6, 9);
        let mut a = vec![StateVector::zero(3)];
        let mut b = vec![StateVector::zero(3)];
        let ra = sim.run(&circuit, &mut a).unwrap();
        let rb = sim.run(&circuit, &mut b).unwrap();
        assert_ne!(ra.batch_id, rb.batch_id);
    }

    #[test]
    fn attached_model_predicts_batched_gains() {
        let cfg = SimConfig::default()
            .strategy(Strategy::Fused { max_k: 3 })
            .model(ChipParams::a64fx(), ExecConfig::full_chip());
        let batch = BatchSimulator::from_config(cfg).unwrap();
        let circuit = random_circuit_seeded(6, 20, 21);
        let mut states = random_members(6, 8, 70);
        let report = batch.run(&circuit, &mut states).unwrap();
        let p = report.predicted.expect("model attached");
        assert_eq!(p.members, 8);
        assert!(p.speedup >= 1.0);
        assert!(p.batched_seconds < p.sequential_seconds);
    }

    // Seeds reaching `StateVector::random` must not collide with the
    // gate-stream seeds, or members become correlated; keep this a
    // compile-time reminder that `random_members` offsets its seeds.
    #[test]
    fn random_members_are_distinct() {
        let ms = random_members(4, 3, 200);
        let mut rng = StdRng::seed_from_u64(200);
        let _ = rng.gen_bool(0.5);
        assert!(!ms[0].approx_eq(&ms[1], 1e-6));
        assert!(!ms[1].approx_eq(&ms[2], 1e-6));
    }
}
