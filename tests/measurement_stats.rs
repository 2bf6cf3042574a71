//! Statistical conformance of the measurement paths.
//!
//! Two claims are tested here:
//!
//! 1. **Born statistics.** Sampling (`sample_counts`) and projective
//!    mid-circuit measurement (`run_measured`) both draw from the
//!    state's Born distribution. A chi-square goodness-of-fit against
//!    the exact probabilities — with a threshold far beyond the
//!    critical value for the degrees of freedom involved — catches a
//!    biased CDF, a wrong collapse normalization, or a reused RNG
//!    stream.
//! 2. **Batched ≡ serial, bit-exact.** `BatchSimulator::run_measured`
//!    must reproduce the serial `Simulator::run_measured` trajectory
//!    member-for-member: same outcomes, same classical registers, same
//!    final amplitudes, independent of thread count — the per-member
//!    RNG-stream contract.

use a64fx_qcs::core::circuit::Circuit;
use a64fx_qcs::core::config::{PoolSpec, SimConfig};
use a64fx_qcs::core::measure::sample_counts;
use a64fx_qcs::core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chi-square statistic of observed counts vs expected probabilities.
/// Cells with negligible expectation are pooled into their neighbors'
/// tail to keep the statistic well-behaved.
fn chi_square(counts: &[u64], probs: &[f64], shots: u64) -> f64 {
    assert_eq!(counts.len(), probs.len());
    let mut stat = 0.0;
    let mut pooled_obs = 0.0;
    let mut pooled_exp = 0.0;
    for (&obs, &p) in counts.iter().zip(probs) {
        let expected = p * shots as f64;
        if expected < 5.0 {
            pooled_obs += obs as f64;
            pooled_exp += expected;
            continue;
        }
        let d = obs as f64 - expected;
        stat += d * d / expected;
    }
    if pooled_exp > 0.0 {
        let d = pooled_obs - pooled_exp;
        stat += d * d / pooled_exp;
    }
    stat
}

/// A state with a spread-out, non-uniform distribution.
fn reference_circuit(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(q, 0.3 + 0.2 * q as f64);
    }
    c
}

/// `sample_counts` draws from the exact Born distribution: chi-square
/// across the full 2^n outcome space stays below a generous critical
/// value (df ≤ 31; χ²₀.₉₉₉(31) ≈ 61 — we allow 90).
#[test]
fn sampled_counts_follow_the_born_distribution() {
    let n = 5;
    let shots = 20_000u64;
    let circuit = reference_circuit(n);
    let mut state = StateVector::zero(n);
    Simulator::new().run(&circuit, &mut state).unwrap();
    let probs = state.probabilities();

    for seed in [3u64, 17, 99] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; 1 << n];
        for (basis, count) in sample_counts(&state, shots as usize, &mut rng) {
            counts[basis] = count;
        }
        assert_eq!(counts.iter().sum::<u64>(), shots);
        let stat = chi_square(&counts, &probs, shots);
        assert!(stat < 90.0, "seed {seed}: chi-square {stat} too large for Born sampling");
    }
}

/// Mid-circuit measurement outcomes follow the qubit's marginal: a GHZ
/// pair measured over many seeds splits ~50/50 and stays perfectly
/// correlated (both bits equal on every trajectory).
#[test]
fn measured_runs_follow_the_marginal_distribution() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    let sim = Simulator::new();

    let trials = 2_000u64;
    let mut ones = 0u64;
    for seed in 0..trials {
        let mut state = StateVector::zero(2);
        let report = sim.run_measured(&c, &mut state, seed).unwrap();
        let bits = report.creg;
        assert!(bits == 0b00 || bits == 0b11, "GHZ bits decorrelated: {bits:#b}");
        ones += bits & 1;
    }
    // Two-sided binomial check: p=0.5, σ=√(n/4)≈22.4; allow 5σ.
    let dev = (ones as f64 - trials as f64 / 2.0).abs();
    assert!(dev < 5.0 * (trials as f64 / 4.0).sqrt(), "biased coin: {ones}/{trials}");
}

/// A measured qubit's one-frequency matches `prob_qubit_one` of the
/// pre-collapse state (chi-square on a 2-cell table, df=1).
#[test]
fn collapse_frequencies_match_the_premeasure_probability() {
    let n = 4;
    let mut c = reference_circuit(n);
    c.measure(2, 0);
    // Exact marginal before the collapse.
    let mut state = StateVector::zero(n);
    Simulator::new().run(&reference_circuit(n), &mut state).unwrap();
    let p1: f64 = state
        .probabilities()
        .iter()
        .enumerate()
        .filter(|(basis, _)| basis >> 2 & 1 == 1)
        .map(|(_, p)| p)
        .sum();

    let sim = Simulator::new();
    let trials = 4_000u64;
    let mut ones = 0u64;
    for seed in 0..trials {
        let mut s = StateVector::zero(n);
        let report = sim.run_measured(&c, &mut s, seed).unwrap();
        ones += u64::from(report.outcomes[0].outcome);
    }
    let counts = [trials - ones, ones];
    let stat = chi_square(&counts, &[1.0 - p1, p1], trials);
    assert!(stat < 11.0, "chi-square {stat} (df=1, χ²₀.₉₉₉ ≈ 10.8): p1={p1}, ones={ones}");
}

/// The per-member RNG-stream contract, end to end: batched measured
/// execution is bit-identical to serial trajectories under every
/// strategy and at every thread count, for a circuit mixing collapse
/// and classical control.
#[test]
fn batched_measured_runs_are_bit_identical_to_serial() {
    let n = 5;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.cx(0, 1).rzz(1, 2, 0.4);
    c.measure(1, 0);
    c.cif_bit(0, 0, Gate::X(3));
    c.ry(2, 0.8).cx(3, 4);
    c.measure(4, 1);
    c.cif_bit(1, 1, Gate::H(0));

    let seeds: Vec<u64> = (0..6).map(|i| 1000 + 37 * i).collect();
    for strategy in ["naive", "fused:3", "blocked:3", "planned:3:3", "auto"] {
        let strategy: Strategy = strategy.parse().unwrap();
        let serial = SimConfig::default().strategy(strategy).build().unwrap();
        let mut want_states = Vec::new();
        let mut want_cregs = Vec::new();
        let mut want_outcomes = Vec::new();
        for &seed in &seeds {
            let mut s = StateVector::zero(n);
            let report = serial.run_measured(&c, &mut s, seed).unwrap();
            want_states.push(s);
            want_cregs.push(report.creg);
            want_outcomes.push(report.outcomes);
        }

        for threads in [1usize, 4] {
            let cfg = if threads == 1 {
                SimConfig::default()
            } else {
                SimConfig { pool: PoolSpec::Threads(threads), ..SimConfig::default() }
            };
            let engine = BatchSimulator::from_config(cfg.strategy(strategy)).unwrap();
            let mut states: Vec<StateVector> = seeds.iter().map(|_| StateVector::zero(n)).collect();
            let batch = engine.run_measured(&c, &mut states, &seeds).unwrap();
            for (m, seed) in seeds.iter().enumerate() {
                let at = format!("seed {seed}, {strategy}, {threads} threads");
                assert_eq!(batch.cregs[m], want_cregs[m], "creg diverged ({at})");
                assert_eq!(batch.outcomes[m], want_outcomes[m], "outcomes diverged ({at})");
                for (i, (got, want)) in
                    states[m].amplitudes().iter().zip(want_states[m].amplitudes()).enumerate()
                {
                    assert!(
                        got.re.to_bits() == want.re.to_bits()
                            && got.im.to_bits() == want.im.to_bits(),
                        "amplitude {i} diverged ({at}): {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}
