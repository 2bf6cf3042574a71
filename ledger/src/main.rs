//! The measuring process behind `ledger/run.py`.
//!
//! `run.py` builds this binary and starts it several times per run:
//!
//! * `qcs-ledger segment --workload W --seed S --seconds T --trace 0|1`
//!   sets the workload up, measures it for `T` seconds and prints one
//!   JSON line of raw samples (`--trace 1` alternates traced and
//!   untraced units so the tracing overhead can be read off);
//! * `qcs-ledger probes --seed S` times each layer's public entry
//!   points from outside and prints one JSON line of per-layer metrics.
//!
//! The aggregation into the benchmark's metrics happens in `run.py`.

mod dist;
mod kernels;
mod probes;
mod report;
mod serve;
mod statevec;
mod vqe;

use std::time::Instant;

use qcs_dist::DistPlanKind;

use report::Obj;

/// What one measuring process hands back to `run.py`.
#[derive(Default)]
pub struct Segment {
    /// Process start until timing could begin.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    /// Latency of every completed job (the workload's unit of work).
    pub job_s: Vec<f64>,
    /// Wall time of every completed pass over the workload's suite.
    pub pass_s: Vec<f64>,
    /// Jobs started (a failed or refused job still counts).
    pub jobs_attempted: u64,
    /// Operations attempted, jobs and correctness checks together.
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Jobs counted within the workload's latency limit.
    pub slo_met: u64,
    /// Trace mode: wall time of the traced and untraced units.
    pub traced_s: Vec<f64>,
    pub untraced_s: Vec<f64>,
    /// Workload-specific observations (Auto's choices, generator lag).
    pub notes: Obj,
}

impl Segment {
    /// Record one finished job against the workload's latency limit.
    pub fn job(&mut self, seconds: f64, ok: bool, limit_s: f64) {
        self.jobs_attempted += 1;
        self.attempted += 1;
        if ok {
            self.job_s.push(seconds);
            if seconds <= limit_s {
                self.slo_met += 1;
            }
        } else {
            self.failed += 1;
        }
    }

    /// Record one correctness check that is not itself a job.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn render(&self) -> String {
        let mut o = Obj::new();
        o.num("setup_s", self.setup_s)
            .num("measured_s", self.measured_s)
            .int("peak_rss_kib", report::peak_rss_kib())
            .nums("job_s", &self.job_s)
            .nums("pass_s", &self.pass_s)
            .int("jobs_attempted", self.jobs_attempted)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .int("slo_met", self.slo_met)
            .nums("traced_s", &self.traced_s)
            .nums("untraced_s", &self.untraced_s)
            .obj("notes", &self.notes);
        o.render()
    }
}

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] =
    ["statevec-22", "vqe-12", "serve-mixed", "dist-20", "dist-20-reorder"];

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    index: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("usage: qcs-ledger segment|probes --workload W --seed S ...")?;
    let mut args =
        Args { mode, workload: String::new(), seed: 0, seconds: 1.0, trace: false, index: 0 };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--index" => args.index = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.mode == "segment" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (valid: {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcs-ledger: {e}");
            std::process::exit(2);
        }
    };
    let line = match args.mode.as_str() {
        "segment" => {
            let mut seg = match args.workload.as_str() {
                "statevec-22" => {
                    statevec::segment(start, args.seed, args.seconds, args.trace, args.index)
                }
                "vqe-12" => vqe::segment(start, args.seed, args.seconds, args.trace),
                "serve-mixed" => serve::segment(start, args.seed, args.seconds, args.trace),
                workload => {
                    let plan =
                        if workload == "dist-20" { dist::PLAN } else { DistPlanKind::Reorder };
                    dist::segment(start, args.seed, args.seconds, args.trace, args.index, plan)
                }
            };
            // Every traced process records Auto's per-process sweep count
            // on the statevec-22 suite (statevec-22 records its own): it
            // varies with each process's calibration.
            if args.trace && args.workload != "statevec-22" {
                seg.notes.obj("auto_sweeps", &statevec::auto_sweeps(args.seed));
            }
            seg.render()
        }
        "probes" => probes::run(args.seed).render(),
        other => {
            eprintln!("qcs-ledger: unknown mode `{other}` (valid: segment, probes)");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
