//! `statevec-22`: the paper's single-circuit time to solution.
//!
//! One pass runs a fixed suite of three 22-qubit circuits — `qft(22)`,
//! a Trotterized Ising chain and a seeded random circuit — through one
//! `Simulator` with 2 threads and `Strategy::Auto`. A job is one
//! circuit run; a pass is the three.

use std::time::Instant;

use qcs_core::calibrate::{self, Calibration};
use qcs_core::library;
use qcs_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Obj;
use crate::Segment;

pub const N: u32 = 22;
const THREADS: usize = 2;
/// Trotter steps and random-circuit depth, sized so that no family
/// dominates a pass (each runs in roughly the same time as `qft(22)`).
const TROTTER_STEPS: usize = 4;
const RANDOM_DEPTH: usize = 6;
/// Latency limit of one circuit run.
pub const SLO_S: f64 = 2.0;
/// Norm and reference tolerance.
const TOL: f64 = 1e-10;

/// The seeded suite: `(family, circuit)`.
pub fn suite(seed: u64) -> Vec<(&'static str, Circuit)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_4556_4332_3200);
    let field = rng.gen_range(0.4..1.2);
    let dt = rng.gen_range(0.05..0.2);
    let random_seed = rand::RngCore::next_u64(&mut rng);
    vec![
        ("qft", library::qft(N)),
        ("trotter", library::trotter_ising(N, TROTTER_STEPS, 1.0, field, dt)),
        ("random", library::random_circuit(N, RANDOM_DEPTH, random_seed)),
    ]
}

pub fn config() -> SimConfig {
    SimConfig::default().strategy(Strategy::Auto).threads(THREADS)
}

/// Return `state` to |0…0⟩ without reallocating.
pub fn reset(state: &mut StateVector) {
    let amps = state.amplitudes_mut();
    amps.fill(C64::new(0.0, 0.0));
    amps[0] = C64::new(1.0, 0.0);
}

pub fn segment(start: Instant, seed: u64, seconds: f64, trace: bool, index: u64) -> Segment {
    let mut seg = Segment::default();
    let suite = suite(seed);
    Calibration::get();
    let sim = config().build().expect("statevec config is valid");
    let traced = trace.then(|| config().traced().build().expect("traced statevec config is valid"));
    let mut state = StateVector::zero(N);
    reset(&mut state); // first touch of every page
                       // Warm-up: the first run of a process is up to 2-3x slower.
    sim.run(&suite[0].1, &mut state).expect("warm-up run");
    seg.setup_s = start.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut auto_sweeps = Obj::new();
    let mut pass = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let traced_pass = pass % 2 == 1 && traced.is_some();
        let engine = if traced_pass { traced.as_ref().unwrap_or(&sim) } else { &sim };
        let mut pass_s = 0.0;
        for (name, c) in &suite {
            reset(&mut state);
            let t = Instant::now();
            let result = engine.run(c, &mut state);
            let dt = t.elapsed().as_secs_f64();
            let ok = match &result {
                Ok(r) => {
                    if pass == 0 {
                        auto_sweeps.int(name, r.sweeps as u64);
                    }
                    (state.norm_sqr() - 1.0).abs() <= TOL
                }
                Err(_) => false,
            };
            seg.job(dt, ok, SLO_S);
            pass_s += dt;
        }
        seg.pass_s.push(pass_s);
        if trace {
            if traced_pass { &mut seg.traced_s } else { &mut seg.untraced_s }.push(pass_s);
        }
        pass += 1;
    }
    seg.measured_s = t0.elapsed().as_secs_f64();

    let mut chosen = Obj::new();
    for (name, c) in &suite {
        chosen.text(name, &calibrate::choose(c).to_string());
    }
    seg.notes.obj("auto_strategy", &chosen).obj("auto_sweeps", &auto_sweeps);

    // Once per run, outside the timed region: each family's state must
    // match a serial `Strategy::Naive` run. The traced run makes this
    // comparison in its probes, which time the serial runs anyway.
    if index == 0 && !trace {
        let serial = SimConfig::default().serial().build().expect("serial config is valid");
        let mut reference = StateVector::zero(N);
        for (_, c) in &suite {
            reset(&mut state);
            reset(&mut reference);
            let ok = sim.run(c, &mut state).is_ok()
                && serial.run(c, &mut reference).is_ok()
                && state.max_abs_diff(&reference) <= TOL;
            seg.check(ok);
        }
    }
    seg
}

/// Auto's sweep count per family in this process: the calibration is
/// measured per process, so this count varies between processes.
pub fn auto_sweeps(seed: u64) -> Obj {
    let sim = config().build().expect("statevec config is valid");
    let mut state = StateVector::zero(N);
    let mut out = Obj::new();
    for (name, c) in suite(seed) {
        reset(&mut state);
        let sweeps = sim.run(&c, &mut state).map_or(0, |r| r.sweeps as u64);
        out.int(name, sweeps);
    }
    out
}
