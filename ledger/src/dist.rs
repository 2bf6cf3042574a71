//! `dist-20` and `dist-20-reorder`: distributed runs over 2 in-process
//! ranks.
//!
//! One pass runs `qft(20)` and a seeded random circuit through
//! `run_distributed_planned`: `dist-20` with the overlap plan (the
//! planner, exchanges overlapped with compute, and the checksummed
//! transport), `dist-20-reorder` with the reorder plan (the same planner
//! and exchanges, blocking, without the overlap). A job is one circuit
//! run from |0…0⟩ to the gathered state; a pass is the two.

use std::time::Instant;

use qcs_core::library;
use qcs_core::prelude::*;
use qcs_dist::{run_distributed_planned, run_distributed_planned_traced, DistPlanKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::Segment;

pub const N: u32 = 20;
pub const RANKS: usize = 2;
/// The plan of `dist-20`, which the per-layer probes also use.
pub const PLAN: DistPlanKind = DistPlanKind::Overlap;
const RANDOM_DEPTH: usize = 12;
/// Latency limit of one distributed run.
pub const SLO_S: f64 = 1.5;
const TOL: f64 = 1e-10;

pub fn suite(seed: u64) -> Vec<(&'static str, Circuit)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4449_5354_3230);
    vec![
        ("qft", library::qft(N)),
        ("random", library::random_circuit(N, RANDOM_DEPTH, rng.next_u64())),
    ]
}

pub fn segment(
    start: Instant,
    seed: u64,
    seconds: f64,
    trace: bool,
    index: u64,
    plan: DistPlanKind,
) -> Segment {
    let mut seg = Segment::default();
    let suite = suite(seed);
    // Warm-up: one small distributed run starts the transport path.
    let mut warm = Circuit::new(N);
    warm.h(0).h(N - 1);
    let _ = run_distributed_planned(&warm, RANKS, plan);
    seg.setup_s = start.elapsed().as_secs_f64();

    let telemetry = TelemetryConfig::on();
    let mut last: Vec<Option<StateVector>> = vec![None; suite.len()];
    let t0 = Instant::now();
    let mut pass = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let traced_pass = trace && pass % 2 == 1;
        let mut pass_s = 0.0;
        for (i, (_, c)) in suite.iter().enumerate() {
            let t = Instant::now();
            let result = if traced_pass {
                run_distributed_planned_traced(c, RANKS, plan, &telemetry).map(|(s, st, _)| (s, st))
            } else {
                run_distributed_planned(c, RANKS, plan)
            };
            let dt = t.elapsed().as_secs_f64();
            let ok = match result {
                Ok((state, stats)) => {
                    let faults: u64 = stats.iter().map(|s| s.faults_injected).sum();
                    let ok = faults == 0 && (state.norm_sqr() - 1.0).abs() <= TOL;
                    last[i] = Some(state);
                    ok
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

    // Once per run: the gathered state equals a serial run.
    if index == 0 {
        let serial = SimConfig::default().serial().build().expect("serial config is valid");
        for ((_, c), got) in suite.iter().zip(&last) {
            let mut reference = StateVector::zero(N);
            let ok = serial.run(c, &mut reference).is_ok()
                && got.as_ref().is_some_and(|s| s.max_abs_diff(&reference) <= TOL);
            seg.check(ok);
        }
    }
    seg
}
