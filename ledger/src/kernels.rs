//! Kernel bandwidth against the benchmark's own memory roof.
//!
//! Each kernel kind is timed from outside, as one-gate `Simulator::run`
//! calls on a state far beyond the last-level cache, next to a
//! read-modify-write stream over the same array. Bytes are computed
//! from the amplitudes each kind reads and writes (16 B each), never
//! measured. A second pass times the same kinds on a cache-resident
//! 12-qubit state.

use std::time::Instant;

use a64fx_model::timing::ExecConfig;
use a64fx_model::traffic::{KernelKind, TrafficModel};
use a64fx_model::ChipParams;
use qcs_core::perf::{gate_traffic, predict_sweep};
use qcs_core::prelude::*;

use crate::report::{drift, Obj};

/// 2^27 amplitudes = 2 GiB: 6.8× the 300 MiB L3 of the reference host.
pub const N_LARGE: u32 = 27;
/// 2^12 amplitudes = 64 KiB: resident in L2.
pub const N_SMALL: u32 = 12;
const THREADS: usize = 2;
const LARGE_REPS: usize = 3;
const SMALL_REPS: usize = 20;
const SMALL_GATES: usize = 64;

/// A 4-qubit block on `q..q+4` that fuses to one dense 16×16 unitary.
fn dense_block(c: &mut Circuit, q: u32) {
    for i in 0..4 {
        c.h(q + i).ry(q + i, 0.3 + 0.1 * f64::from(i));
    }
    for i in 0..3 {
        c.cx(q + i, q + i + 1);
    }
}

/// `count` sweeps of one kernel kind on an `n`-qubit state, cycling
/// targets through the middle of the index range. Returns the circuit,
/// the strategy that runs it one kind-sweep per op, and one
/// representative gate for the traffic model.
fn kernel_circuit(kind: &str, n: u32, count: usize) -> (Circuit, Strategy, Gate) {
    let mut c = Circuit::new(n);
    let mid = n / 2;
    let t = |i: usize| mid - 2 + (i as u32 % 4);
    for i in 0..count {
        match kind {
            "dense1q" => {
                c.push(Gate::H(t(i)));
            }
            "diag1q" => {
                c.push(Gate::Rz(t(i), 0.37));
            }
            "ctrl1q" => {
                c.push(Gate::Cx(n - 1 - (i as u32 % 2), t(i)));
            }
            "dense2q" => {
                c.push(Gate::Rxx(t(i), t(i) + 4, 0.41));
            }
            "swap" => {
                c.push(Gate::Swap(t(i), t(i) + 4));
            }
            _ => dense_block(&mut c, if i % 2 == 0 { mid - 4 } else { mid }),
        }
    }
    let representative = match kind {
        "fused4" => Gate::H(mid),
        _ => c.gates()[0].clone(),
    };
    let strategy = if kind == "fused4" { Strategy::Fused { max_k: 4 } } else { Strategy::Naive };
    (c, strategy, representative)
}

pub const KINDS: [&str; 6] = ["dense1q", "diag1q", "ctrl1q", "dense2q", "swap", "fused4"];

fn model_kind(kind: &str, gate: &Gate) -> KernelKind {
    match kind {
        "fused4" => KernelKind::FusedDense { k: 4 },
        _ => qcs_core::perf::classify(gate),
    }
}

/// Minimum over `reps` of the per-sweep wall time of `circuit`.
fn per_sweep_s(sim: &Simulator, circuit: &Circuit, state: &mut StateVector, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let report = sim.run(circuit, state).expect("kernel probe circuit runs");
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt / report.sweeps.max(1) as f64);
    }
    best
}

/// One read-modify-write pass over `state` on `THREADS` threads; GB/s.
/// Each thread walks its share in blocks of 2^14 amplitudes and pairs
/// the two halves of every block: the access pattern of a one-qubit
/// kernel on qubit 13. A plain sequential loop per thread undershoots
/// the kernels on the reference host by up to 2x.
fn stream_gbs(state: &mut StateVector) -> f64 {
    let factor = std::hint::black_box(-1.0);
    let amps = state.amplitudes_mut();
    let bytes = 2.0 * 16.0 * amps.len() as f64;
    let t = Instant::now();
    std::thread::scope(|s| {
        for chunk in amps.chunks_mut(amps.len().div_ceil(THREADS)) {
            s.spawn(move || {
                for block in chunk.chunks_mut(1 << 14) {
                    let (lo, hi) = block.split_at_mut(block.len() / 2);
                    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                        a.re *= factor;
                        a.im *= factor;
                        b.re *= factor;
                        b.im *= factor;
                    }
                }
            });
        }
    });
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(&amps[0]);
    bytes / dt / 1e9
}

pub fn probe(out: &mut Obj) {
    let chip = ChipParams::a64fx();
    let cfg = ExecConfig::full_chip();
    let model = TrafficModel::new(chip.clone());

    let sim = SimConfig::default().threads(THREADS).build().expect("naive config is valid");
    let fused = SimConfig::default()
        .strategy(Strategy::Fused { max_k: 4 })
        .threads(THREADS)
        .build()
        .expect("fused config is valid");
    let mut state = StateVector::zero(N_LARGE);
    stream_gbs(&mut state); // first touch of every page
                            // Host bandwidth drifts with the machine's other tenants, so each
                            // kind's roof is the stream measured in step with it.
    let mut best_roof = 0.0f64;
    for kind in KINDS {
        let (c, strategy, gate) = kernel_circuit(kind, N_LARGE, 2);
        let engine = if strategy == Strategy::Naive { &sim } else { &fused };
        let (mut roof, mut host_s) = (0.0f64, f64::INFINITY);
        for _ in 0..LARGE_REPS {
            roof = roof.max(stream_gbs(&mut state));
            host_s = host_s.min(per_sweep_s(engine, &c, &mut state, 1));
        }
        best_roof = best_roof.max(roof);
        let traffic = gate_traffic(&model, &gate, N_LARGE);
        let mk = model_kind(kind, &gate);
        let traffic = if kind == "fused4" { model.predict(mk, N_LARGE, &[]) } else { traffic };
        let bytes = 16.0 * (traffic.amps_read + traffic.amps_written) as f64;
        let gbs = bytes / host_s / 1e9;
        let model_s = predict_sweep(&chip, &cfg, &model, mk, &traffic, N_LARGE).seconds;
        out.num(&format!("kernels.{kind}.gbs"), gbs)
            .num(&format!("kernels.{kind}.roof_frac"), gbs / roof)
            .num(&format!("kernels.{kind}.drift"), drift(host_s, model_s));
    }
    out.num("kernels.stream_gbs", best_roof);
    drop(state);

    let serial = SimConfig::default().serial().build().expect("serial config is valid");
    let serial_fused = SimConfig::default()
        .strategy(Strategy::Fused { max_k: 4 })
        .serial()
        .build()
        .expect("fused config is valid");
    let mut small = StateVector::zero(N_SMALL);
    for kind in KINDS {
        let (c, strategy, _) = kernel_circuit(kind, N_SMALL, SMALL_GATES);
        let engine = if strategy == Strategy::Naive { &serial } else { &serial_fused };
        let host_s = per_sweep_s(engine, &c, &mut small, SMALL_REPS);
        out.num(&format!("kernels.{kind}.ns_per_amp.n12"), host_s * 1e9 / (1u64 << N_SMALL) as f64);
    }
}
