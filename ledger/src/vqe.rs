//! `vqe-12`: parameter-shift gradient descent on a 12-qubit Ising chain.
//!
//! `hardware_efficient_ansatz(12, 2)` has 36 parameters, so every GD
//! iteration evaluates a 73-point batch (`2p` shifts plus the current
//! point) through `VqeDriver::energies` on a 2-thread `BatchSimulator`.
//! A job is one iteration (batch plus update); a pass is one solve of
//! `ITERS` iterations from the seeded θ0.

use std::time::Instant;

use qcs_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Segment;

pub const N: u32 = 12;
pub const LAYERS: u32 = 2;
const THREADS: usize = 2;
/// GD iterations per solve, and the step size.
pub const ITERS: usize = 10;
pub const LR: f64 = 0.05;
/// Latency limit of one iteration.
pub const SLO_S: f64 = 0.12;
const TOL: f64 = 1e-10;

pub fn hamiltonian() -> Hamiltonian {
    Hamiltonian::ising_chain(N, 1.0, 0.7)
}

pub fn driver(traced: bool) -> VqeDriver {
    let mut cfg = SimConfig::default().threads(THREADS);
    if traced {
        cfg = cfg.traced();
    }
    let engine = BatchSimulator::from_config(cfg).expect("vqe engine config is valid");
    VqeDriver::with_engine(hardware_efficient_ansatz(N, LAYERS), &hamiltonian(), engine)
}

/// Seeded starting point θ0.
pub fn theta0(seed: u64, n_params: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5651_4531_3200);
    (0..n_params).map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)).collect()
}

/// The `2p + 1` points of one GD iteration at `theta`.
pub fn iteration_points(theta: &[f64]) -> Vec<Vec<f64>> {
    let mut points = Vec::with_capacity(2 * theta.len() + 1);
    for j in 0..theta.len() {
        for shift in [std::f64::consts::FRAC_PI_2, -std::f64::consts::FRAC_PI_2] {
            let mut p = theta.to_vec();
            p[j] += shift;
            points.push(p);
        }
    }
    points.push(theta.to_vec());
    points
}

/// One GD iteration: the batch, then `θ ← θ − lr·∇E`.
fn step(driver: &VqeDriver, theta: &mut [f64]) -> Result<f64, SimError> {
    let e = driver.energies(&iteration_points(theta))?;
    for j in 0..theta.len() {
        theta[j] -= LR * (e[2 * j] - e[2 * j + 1]) / 2.0;
    }
    Ok(e[2 * theta.len()])
}

/// `⟨H⟩` of the bound circuit's state from a serial naive run and the
/// scalar reference reduction — independent of the batch engine and the
/// SIMD reductions under test.
pub fn reference_energy(driver: &VqeDriver, theta: &[f64]) -> Option<f64> {
    let sim = SimConfig::default().serial().build().ok()?;
    let mut state = StateVector::zero(N);
    sim.run(&driver.ansatz().bind(theta), &mut state).ok()?;
    Some(hamiltonian().expectation_scalar(&state))
}

pub fn segment(start: Instant, seed: u64, seconds: f64, trace: bool) -> Segment {
    let mut seg = Segment::default();
    let plain = driver(false);
    let traced = trace.then(|| driver(true));
    let theta0 = theta0(seed, plain.ansatz().n_params());
    // Warm-up: one iteration on each engine starts the pools.
    for d in std::iter::once(&plain).chain(&traced) {
        let _ = step(d, &mut theta0.clone());
    }
    seg.setup_s = start.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut iteration = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let mut theta = theta0.clone();
        let mut pass_s = 0.0;
        for _ in 0..ITERS {
            // Trace mode alternates engines per iteration: both give
            // bit-identical energies, and a traced 73-member batch is
            // slow enough that whole traced solves would overrun.
            let traced_iter = iteration % 2 == 1 && traced.is_some();
            let d = if traced_iter { traced.as_ref().unwrap_or(&plain) } else { &plain };
            let t = Instant::now();
            let ok = step(d, &mut theta).is_ok_and(f64::is_finite);
            let dt = t.elapsed().as_secs_f64();
            seg.job(dt, ok, SLO_S);
            pass_s += dt;
            if trace {
                if traced_iter { &mut seg.traced_s } else { &mut seg.untraced_s }.push(dt);
            }
            iteration += 1;
        }
        seg.pass_s.push(pass_s);
        // The solve's final energy against the scalar reference.
        let ok = match (plain.energy(&theta), reference_energy(&plain, &theta)) {
            (Ok(e), Some(r)) => (e - r).abs() <= TOL,
            _ => false,
        };
        seg.check(ok);
    }
    seg.measured_s = t0.elapsed().as_secs_f64();
    seg
}
