//! Per-layer probes for the traced run.
//!
//! Each layer is measured from outside, by timing calls into its public
//! entry points on the workloads' own seeded inputs, and every host
//! timing sits next to the A64FX model's prediction for the same work
//! (`perf::predict_*`) and their ratio (`drift` = host / model).

use std::collections::BTreeMap;
use std::time::Instant;

use a64fx_model::link::LinkModel;
use a64fx_model::timing::ExecConfig;
use a64fx_model::ChipParams;
use qcs_core::calibrate::{self, Calibration};
use qcs_core::measure::sample_counts;
use qcs_core::perf::{predict_batched, predict_distributed, predict_expectation, predict_measure};
use qcs_core::prelude::*;
use qcs_core::telemetry::{ExchangePhase, SpanKind};
use qcs_core::{fusion, plan};
use qcs_dist::run_distributed_planned_traced;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{drift, mean, median, quantile, Obj};
use crate::{dist, kernels, serve, statevec, vqe};

/// What the probe process hands back: metrics plus its own checks.
pub struct Probes {
    metrics: Obj,
    attempted: u64,
    failed: u64,
}

impl Probes {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn render(&self) -> String {
        let mut o = Obj::new();
        o.obj("metrics", &self.metrics).int("attempted", self.attempted).int("failed", self.failed);
        o.render()
    }
}

/// Median wall time of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        xs.push(t.elapsed().as_secs_f64());
    }
    median(&xs)
}

fn model() -> (ChipParams, ExecConfig) {
    (ChipParams::a64fx(), ExecConfig::full_chip())
}

pub fn run(seed: u64) -> Probes {
    let mut p = Probes { metrics: Obj::new(), attempted: 0, failed: 0 };
    // Nothing has touched the calibration yet in this process.
    let t = Instant::now();
    Calibration::get();
    p.metrics.num("calibrate.setup_s", t.elapsed().as_secs_f64());
    statevec_layers(&mut p, seed);
    kernels::probe(&mut p.metrics);
    vqe_layers(&mut p, seed);
    serve_layers(&mut p, seed);
    dist_layers(&mut p, seed);
    p
}

/// Lowering, executor and Auto on the statevec-22 suite.
fn statevec_layers(p: &mut Probes, seed: u64) {
    let (chip, cfg) = model();
    let auto = statevec::config().model(chip, cfg).build().expect("statevec config is valid");
    let serial = SimConfig::default().serial().build().expect("serial config is valid");
    let mut state = StateVector::zero(statevec::N);
    let mut reference = StateVector::zero(statevec::N);
    for (name, c) in statevec::suite(seed) {
        let ops = fusion::fuse(&c, 4);
        let fuse_s = time_median(3, || fusion::fuse(&c, 4));
        let planned = plan::plan_circuit(&c, 13, 4);
        let plan_s = time_median(3, || plan::plan_circuit(&c, 13, 4));
        p.metrics
            .int(&format!("fusion.sweeps.{name}"), ops.len() as u64)
            .num(&format!("fusion.plan_s.{name}"), fuse_s)
            .int(&format!("plan.sweeps.{name}"), planned.sweeps as u64)
            .num(&format!("plan.plan_s.{name}"), plan_s);

        let mut runs = Vec::new();
        let mut model_s = f64::NAN;
        for _ in 0..3 {
            statevec::reset(&mut state);
            let t = Instant::now();
            let r = auto.run(&c, &mut state).expect("auto run");
            runs.push(t.elapsed().as_secs_f64());
            model_s = r.predicted.map_or(f64::NAN, |m| m.seconds);
        }
        let run_s = median(&runs);
        statevec::reset(&mut reference);
        let t = Instant::now();
        let ok = serial.run(&c, &mut reference).is_ok();
        let serial_s = t.elapsed().as_secs_f64();
        p.check(ok && state.max_abs_diff(&reference) <= 1e-10);

        // Auto against every concrete strategy it chooses from (naive,
        // the serial baseline above, is never the best here).
        let mut best_fixed = f64::INFINITY;
        for s in calibrate::candidates(statevec::N) {
            if s == Strategy::Naive {
                continue;
            }
            let sim = statevec::config().strategy(s).build().expect("candidate config is valid");
            statevec::reset(&mut state);
            let t = Instant::now();
            let ok = sim.run(&c, &mut state).is_ok();
            best_fixed = best_fixed.min(t.elapsed().as_secs_f64());
            p.check(ok && state.max_abs_diff(&reference) <= 1e-10);
        }
        p.metrics
            .num(&format!("sim.run_s.{name}"), run_s)
            .num(&format!("sim.serial_run_s.{name}"), serial_s)
            .num(&format!("sim.model_s.{name}"), model_s)
            .num(&format!("sim.drift.{name}"), drift(run_s, model_s))
            .num(&format!("calibrate.auto_regret.{name}"), run_s / best_fixed);
    }
}

/// Batch engine, observable reductions and the variational driver on
/// the vqe-12 inputs.
fn vqe_layers(p: &mut Probes, seed: u64) {
    let (chip, cfg) = model();
    let driver = vqe::driver(false);
    let theta = vqe::theta0(seed, driver.ansatz().n_params());
    let circuits: Vec<Circuit> =
        vqe::iteration_points(&theta).iter().map(|pt| driver.ansatz().bind(pt)).collect();
    let members = circuits.len();
    let fresh =
        |k: usize| -> Vec<StateVector> { (0..k).map(|_| StateVector::zero(vqe::N)).collect() };
    let sweep_time = |engine: &BatchSimulator, circuits: &[Circuit]| {
        let mut states = fresh(circuits.len());
        let t = Instant::now();
        let ok = engine.run_sweep(circuits, &mut states).is_ok();
        (t.elapsed().as_secs_f64(), ok)
    };
    // The workload's 2-thread engine for the sweep time; a serial engine
    // for the amortization, which the model prices per member without
    // threads (a one-member sweep cannot use the second thread).
    let engine = BatchSimulator::from_config(SimConfig::default().threads(2))
        .expect("vqe engine config is valid");
    let serial_engine = BatchSimulator::new();
    let (mut batched, mut serial_batched, mut singles) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let (dt, ok) = sweep_time(&engine, &circuits);
        batched.push(dt);
        p.check(ok);
        serial_batched.push(sweep_time(&serial_engine, &circuits).0);
        singles.push(
            circuits.iter().map(|c| sweep_time(&serial_engine, std::slice::from_ref(c)).0).sum(),
        );
    }
    let sweep_s = median(&batched);
    let prediction = predict_batched(&chip, &cfg, &circuits[members - 1], members);
    p.metrics
        .num("batch.run_sweep_s.p50", sweep_s)
        .int("batch.members", members as u64)
        .num("batch.amortization", median(&singles) / median(&serial_batched))
        .num("batch.model_amortization", prediction.speedup)
        .num("batch.model_s", prediction.batched_seconds)
        .num("batch.drift", drift(sweep_s, prediction.batched_seconds));

    let observable = driver.observable();
    let mut state = StateVector::zero(vqe::N);
    let serial = SimConfig::default().serial().build().expect("serial config is valid");
    serial.run(&circuits[members - 1], &mut state).expect("bound ansatz runs");
    let eval_s = time_median(201, || observable.expectation(&state));
    let (_, eval_model) =
        predict_expectation(&chip, &cfg, vqe::N, observable.terms(), observable.sweeps());
    p.metrics
        .num("expectation.eval_s.p50", eval_s)
        .int("expectation.sweeps", observable.sweeps() as u64)
        .int("expectation.terms", observable.terms() as u64)
        .num("expectation.model_s", eval_model.seconds)
        .num("expectation.drift", drift(eval_s, eval_model.seconds));

    let gradient_s = time_median(7, || driver.gradient(&theta));
    let shifts = members - 1;
    let gradient_model = predict_batched(&chip, &cfg, &circuits[0], shifts).batched_seconds
        + shifts as f64 * eval_model.seconds;
    p.metrics
        .num("variational.gradient_s.p50", gradient_s)
        .int("variational.points_per_iter", members as u64)
        .num("variational.model_s", gradient_model)
        .num("variational.drift", drift(gradient_s, gradient_model));
    let energy = driver.energy(&theta);
    let reference = vqe::reference_energy(&driver, &theta);
    p.check(matches!((energy, reference), (Ok(e), Some(r)) if (e - r).abs() <= 1e-10));
}

/// Server, sampling and QASM front end on a short serve-mixed schedule.
fn serve_layers(p: &mut Probes, seed: u64) {
    const ROUNDS: usize = 4;
    let (chip, cfg) = model();
    let server = serve::start_server();
    let jobs = serve::mix(seed, ROUNDS);
    let outcomes = serve::drive(server.addr(), &jobs);
    let stats = server.stats();
    server.shutdown();

    let mut submit = Vec::new();
    let mut wait = Vec::new();
    let mut result_rtt = Vec::new();
    let mut lag = Vec::new();
    let mut packs: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut completed = 0u64;
    let mut lost = 0u64;
    for (j, (job, o)) in jobs.iter().zip(&outcomes).enumerate() {
        let ok = serve::job_ok(&jobs, &outcomes, j);
        p.check(ok);
        lag.push(o.sent_s - job.sched_s);
        let Some(done_s) = o.done_s.filter(|_| !o.refused) else {
            lost += 1;
            continue;
        };
        completed += 1;
        submit.push(o.acked_s - o.sent_s);
        result_rtt.push(o.result_rtt_s);
        if !o.cached {
            wait.push(done_s - o.acked_s);
            packs.entry(o.batch_id).or_default().push(j);
        }
    }

    let parse_s: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let t = Instant::now();
            let _ = std::hint::black_box(qcs_serve::json::parse(&j.body));
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Replay every pack the server ran through the batch engine alone:
    // wait minus engine time is window, queue and polling time.
    let mut engine_s = Vec::new();
    let mut pack_sizes = Vec::new();
    for members in packs.values() {
        let first = &jobs[members[0]];
        let size = outcomes[members[0]].members.max(1) as usize;
        pack_sizes.push(size as f64);
        let t = Instant::now();
        let ok = if !first.sweep.is_empty() {
            let circuits: Vec<Circuit> =
                members.iter().flat_map(|&j| jobs[j].sweep.iter().cloned()).collect();
            let mut states: Vec<StateVector> =
                circuits.iter().map(|c| StateVector::zero(c.n_qubits())).collect();
            BatchSimulator::from_config(SimConfig::default().strategy(Strategy::Auto))
                .and_then(|e| e.run_sweep(&circuits, &mut states))
                .is_ok()
        } else {
            let mut states: Vec<StateVector> =
                (0..size).map(|_| StateVector::zero(first.circuit.n_qubits())).collect();
            BatchSimulator::from_config(SimConfig::default().strategy(Strategy::Auto).batch(size))
                .and_then(|e| e.run(&first.circuit, &mut states))
                .is_ok()
        };
        engine_s.push(t.elapsed().as_secs_f64());
        p.check(ok);
    }

    p.metrics
        .num("serve.submit_rtt_s.p50", quantile(&submit, 0.5))
        .num("serve.submit_rtt_s.p90", quantile(&submit, 0.9))
        .num("serve.wait_s.p50", quantile(&wait, 0.5))
        .num("serve.wait_s.p90", quantile(&wait, 0.9))
        .num("serve.result_rtt_s.p50", median(&result_rtt))
        .num("serve.json_parse_s.p50", median(&parse_s))
        .num("serve.engine_s.p50", median(&engine_s))
        .num("serve.pack_size.mean", mean(&pack_sizes))
        .int("serve.batches", stats.batches)
        .num("serve.cache_hit_share", stats.cache_hits as f64 / jobs.len() as f64)
        .int("serve.rejected", stats.rejected)
        .int("serve.failed", stats.failed + lost)
        .num("loadgen.lag_s.p90", quantile(&lag, 0.9))
        .int("loadgen.sent", jobs.len() as u64)
        .int("loadgen.completed", completed);

    // Sampling at the served shot count, on a 12-qubit template state.
    let n = 12;
    let c = jobs
        .iter()
        .find(|j| j.sweep.is_empty() && j.circuit.n_qubits() == n)
        .map_or_else(|| Circuit::new(n), |j| j.circuit.clone());
    let mut state = StateVector::zero(n);
    let serial = SimConfig::default().serial().build().expect("serial config is valid");
    serial.run(&c, &mut state).expect("template runs");
    let mut rng = StdRng::seed_from_u64(seed);
    let sample_s = time_median(101, || sample_counts(&state, serve::SHOTS as usize, &mut rng));
    let (_, measure_model) = predict_measure(&chip, &cfg, n);
    p.metrics
        .num("measure.sample_s.p50", sample_s)
        .num("measure.model_s", measure_model.seconds)
        .num("measure.drift", drift(sample_s, measure_model.seconds));

    let qasm_s: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.qasm.as_deref())
        .map(|src| {
            let t = Instant::now();
            let _ = std::hint::black_box(qcs_core::qasm::parse(src));
            t.elapsed().as_secs_f64()
        })
        .collect();
    p.metrics.num("qasm.parse_s.p50", median(&qasm_s));
}

/// Planner, exchanges and transport on the dist-20 suite.
fn dist_layers(p: &mut Probes, seed: u64) {
    let (chip, cfg) = model();
    let link = LinkModel::default();
    let serial = SimConfig::default().serial().build().expect("serial config is valid");
    let (mut plan_s, mut bytes, mut messages, mut exposed, mut model_comm) = (0.0, 0, 0, 0.0, 0.0);
    let (mut retries, mut faults) = (0u64, 0u64);
    for (_, c) in dist::suite(seed) {
        plan_s += time_median(3, || qcs_dist::plan_circuit(&c, dist::RANKS, dist::PLAN));
        let Ok(planned) = qcs_dist::plan_circuit(&c, dist::RANKS, dist::PLAN) else {
            p.check(false);
            continue;
        };
        model_comm += predict_distributed(&chip, &cfg, &c, dist::RANKS, &link, &planned.profile)
            .exposed_comm_seconds;
        let result =
            run_distributed_planned_traced(&c, dist::RANKS, dist::PLAN, &TelemetryConfig::on());
        let Ok((state, stats, traces)) = result else {
            p.check(false);
            continue;
        };
        bytes += stats.iter().map(|s| s.bytes_sent).sum::<u64>();
        messages += stats.iter().map(|s| s.messages_sent).sum::<u64>();
        retries += stats.iter().map(|s| s.retries).sum::<u64>();
        faults += stats.iter().map(|s| s.faults_injected).sum::<u64>();
        // Exposed algorithm exchange time: the slowest rank's exchange
        // spans, without the final gather the model does not price.
        exposed += traces
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .filter(|s| matches!(s.kind, SpanKind::Exchange(ph) if ph != ExchangePhase::Collective))
                    .map(|s| s.wall_ns as f64 * 1e-9)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let mut reference = StateVector::zero(dist::N);
        let ok = serial.run(&c, &mut reference).is_ok() && state.max_abs_diff(&reference) <= 1e-10;
        p.check(ok);
    }
    p.check(faults == 0);
    p.metrics
        .num("dist.plan_s", plan_s)
        .int("dist.bytes", bytes)
        .int("dist.messages", messages)
        .num("dist.exposed_comm_s", exposed)
        .num("dist.model_comm_s", model_comm)
        .num("dist.comm_drift", drift(exposed, model_comm))
        .int("mpi.retries", retries)
        .int("mpi.faults_injected", faults);
}
