//! `serve-mixed`: an in-process job server driven open-loop.
//!
//! The server runs with `ServeConfig::default()` (ephemeral port, one
//! worker, 5 ms packing window). One generator thread sends a seeded
//! mix on a fixed schedule whether or not earlier jobs are done, polls
//! each outstanding job every 2 ms, and fetches the results once the
//! schedule is over. A job's
//! latency runs from its *scheduled* send time until the generator sees
//! `done`, so a stall is charged to every job queued behind it. A pass
//! is one round of the schedule: from the round's start until its last
//! job is done.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qcs_core::prelude::*;
use qcs_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::report::quantile;
use crate::Segment;

/// Offered load: jobs per second, about half of what the server
/// sustains on this mix (see README.md).
pub const RATE: f64 = 250.0;
/// One round of the schedule, seconds.
pub const ROUND_S: f64 = 1.0;
pub const SHOTS: u64 = 256;
pub const TENANTS: u64 = 10;
pub const WIDTHS: std::ops::RangeInclusive<u32> = 8..=14;
const TEMPLATES_PER_WIDTH: usize = 2;
const TEMPLATE_LAYERS: usize = 4;
const SWEEP_POINTS: usize = 4;
/// Latency limit of one job.
pub const SLO_S: f64 = 0.1;
/// How long the generator waits for stragglers after its last send.
const DRAIN_S: f64 = 20.0;
/// How often the generator asks after each outstanding job. Every poll
/// is a connection and a server thread, so polling faster would take
/// CPU from the server on a 2-core host.
const POLL_S: f64 = 0.002;

/// One generated submission.
#[derive(Clone)]
pub struct JobReq {
    pub body: String,
    pub sched_s: f64,
    pub round: usize,
    /// Index of the job this one resubmits verbatim.
    pub original: Option<usize>,
    /// The circuit (plain and QASM jobs), or one bound circuit per point
    /// (sweeps), for replaying the job's pack outside the server.
    pub circuit: Circuit,
    pub sweep: Vec<Circuit>,
    /// The OpenQASM source of a QASM job.
    pub qasm: Option<String>,
}

/// A seeded template circuit: layers of random rotations and a ladder
/// of CX/CZ pairs.
fn template(rng: &mut StdRng, n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..TEMPLATE_LAYERS {
        for q in 0..n {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            match rng.gen_range(0..3u32) {
                0 => c.rx(q, theta),
                1 => c.ry(q, theta),
                _ => c.rz(q, theta),
            };
        }
        for q in (layer as u32 % 2..n - 1).step_by(2) {
            if rng.gen_bool(0.5) {
                c.cx(q, q + 1);
            } else {
                c.cz(q, q + 1);
            }
        }
    }
    c
}

/// The gate-list JSON of a template circuit.
fn gate_list(c: &Circuit) -> String {
    let mut out = String::new();
    for g in c.gates() {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = match *g {
            Gate::Rx(q, t) => write!(out, "{{\"gate\":\"rx\",\"q\":[{q}],\"theta\":{t:?}}}"),
            Gate::Ry(q, t) => write!(out, "{{\"gate\":\"ry\",\"q\":[{q}],\"theta\":{t:?}}}"),
            Gate::Rz(q, t) => write!(out, "{{\"gate\":\"rz\",\"q\":[{q}],\"theta\":{t:?}}}"),
            Gate::Cx(a, b) => write!(out, "{{\"gate\":\"cx\",\"q\":[{a},{b}]}}"),
            Gate::Cz(a, b) => write!(out, "{{\"gate\":\"cz\",\"q\":[{a},{b}]}}"),
            ref other => unreachable!("templates only use rx/ry/rz/cx/cz, got {other:?}"),
        };
    }
    out
}

/// The same template as an OpenQASM 2.0 program.
fn qasm_source(c: &Circuit) -> String {
    let mut out = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{}];\n", c.n_qubits());
    for g in c.gates() {
        let _ = match *g {
            Gate::Rx(q, t) => writeln!(out, "rx({t:?}) q[{q}];"),
            Gate::Ry(q, t) => writeln!(out, "ry({t:?}) q[{q}];"),
            Gate::Rz(q, t) => writeln!(out, "rz({t:?}) q[{q}];"),
            Gate::Cx(a, b) => writeln!(out, "cx q[{a}],q[{b}];"),
            Gate::Cz(a, b) => writeln!(out, "cz q[{a}],q[{b}];"),
            ref other => unreachable!("templates only use rx/ry/rz/cx/cz, got {other:?}"),
        };
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sweep template: one `ry` parameter slot per qubit, then a CZ ladder
/// (the gate list `mix` sends spells out the same template).
fn sweep_template(n: u32) -> ParamCircuit {
    let mut pc = ParamCircuit::new(n);
    for q in 0..n {
        pc.ry(q);
    }
    for q in 0..n - 1 {
        pc.fixed(Gate::Cz(q, q + 1));
    }
    pc
}

/// The seeded job mix for `rounds` rounds: arrivals are a Poisson
/// process conditioned on `RATE·ROUND_S` jobs per round (uniform order
/// statistics within each round). About 25% of jobs resubmit an earlier
/// body verbatim (cache hits), 20% are parameter sweeps, 10% are
/// OpenQASM bodies, and half of the plain and QASM jobs carry
/// observables. Tenants and shot seeds are drawn per job.
pub fn mix(seed: u64, rounds: usize) -> Vec<JobReq> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5345_5256);
    let templates: Vec<Vec<Circuit>> =
        WIDTHS.map(|n| (0..TEMPLATES_PER_WIDTH).map(|_| template(&mut rng, n)).collect()).collect();
    let per_round = (RATE * ROUND_S).round() as usize;
    let mut jobs: Vec<JobReq> = Vec::with_capacity(rounds * per_round);
    let mut originals: Vec<usize> = Vec::new();
    for round in 0..rounds {
        let mut times: Vec<f64> =
            (0..per_round).map(|_| rng.gen_range(0.0..ROUND_S) + round as f64 * ROUND_S).collect();
        times.sort_by(f64::total_cmp);
        for sched_s in times {
            let u = rng.gen_range(0.0..1.0);
            if u < 0.25 && !originals.is_empty() {
                let i = originals[rng.gen_range(0..originals.len())];
                let mut again = jobs[i].clone();
                again.sched_s = sched_s;
                again.round = round;
                again.original = Some(i);
                jobs.push(again);
                continue;
            }
            let n = rng.gen_range(*WIDTHS.start()..*WIDTHS.end() + 1);
            let tenant = rng.gen_range(0..TENANTS);
            let job_seed = rng.next_u64() >> 12;
            let head = format!(
                "\"tenant\":\"tenant-{tenant}\",\"n\":{n},\"shots\":{SHOTS},\"seed\":{job_seed}"
            );
            let observables = if rng.gen_bool(0.5) {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                format!(",\"observables\":[\"Z{a} Z{b}\",\"X{a}\"]")
            } else {
                String::new()
            };
            let c = templates[(n - WIDTHS.start()) as usize][rng.gen_range(0..TEMPLATES_PER_WIDTH)]
                .clone();
            let (body, sweep, qasm) = if u < 0.45 {
                let pc = sweep_template(n);
                let points: Vec<Vec<f64>> = (0..SWEEP_POINTS)
                    .map(|_| (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect())
                    .collect();
                let mut gates = String::new();
                for q in 0..n {
                    let _ = write!(gates, "{{\"gate\":\"ry\",\"q\":[{q}],\"param\":{q}}},");
                }
                for q in 0..n - 1 {
                    let _ = write!(gates, "{{\"gate\":\"cz\",\"q\":[{q},{}]}},", q + 1);
                }
                gates.pop();
                let pts: Vec<String> = points
                    .iter()
                    .map(|p| {
                        let vals: Vec<String> = p.iter().map(|v| format!("{v:?}")).collect();
                        format!("[{}]", vals.join(","))
                    })
                    .collect();
                let body =
                    format!("{{{head},\"circuit\":[{gates}],\"points\":[{}]}}", pts.join(","));
                let bound = points.iter().map(|p| pc.bind(p)).collect();
                (body, bound, None)
            } else if u < 0.55 {
                let src = qasm_source(&c);
                let body = format!("{{{head},\"qasm\":{}{observables}}}", json_string(&src));
                (body, Vec::new(), Some(src))
            } else {
                let body = format!("{{{head},\"circuit\":[{}]{observables}}}", gate_list(&c));
                (body, Vec::new(), None)
            };
            originals.push(jobs.len());
            jobs.push(JobReq { body, sched_s, round, original: None, circuit: c, sweep, qasm });
        }
    }
    jobs
}

/// One blocking request on a fresh connection; `(status, body)`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// The raw value of a top-level `"key":` in a flat JSON object.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Whether every `"counts"` list in a result body sums to `shots`, and
/// there is one list per point (one for a plain job).
pub fn counts_ok(body: &str, shots: u64, points: usize) -> bool {
    let mut lists = 0usize;
    let mut rest = body;
    while let Some(at) = rest.find("\"counts\":[") {
        rest = &rest[at + "\"counts\":[".len()..];
        let Some(end) = rest.find("]]").or_else(|| rest.starts_with(']').then_some(0)) else {
            return false;
        };
        let total: Option<u64> = rest[..end]
            .split("],[")
            .map(|pair| {
                pair.trim_matches(['[', ']']).split(',').nth(1).and_then(|c| c.parse::<u64>().ok())
            })
            .sum();
        if total != Some(shots) {
            return false;
        }
        lists += 1;
        rest = &rest[end..];
    }
    lists == points.max(1)
}

/// What the generator saw for one job; times are seconds since the
/// schedule's origin.
#[derive(Clone, Default)]
pub struct Outcome {
    pub sent_s: f64,
    pub acked_s: f64,
    pub done_s: Option<f64>,
    pub status: String,
    pub result: Option<String>,
    pub result_rtt_s: f64,
    pub batch_id: u64,
    pub members: u64,
    pub cached: bool,
    pub refused: bool,
}

/// Send `jobs` on their schedule from one thread, one connection at a
/// time, asking after each outstanding job every `POLL_S`; then fetch
/// every result.
pub fn drive(addr: SocketAddr, jobs: &[JobReq]) -> Vec<Outcome> {
    let mut out = vec![Outcome::default(); jobs.len()];
    let mut ids: Vec<u64> = vec![0; jobs.len()];
    // (job, when it is next polled)
    let mut outstanding: Vec<(usize, f64)> = Vec::new();
    let mut next = 0usize;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let last_sched = jobs.last().map_or(0.0, |j| j.sched_s);
    loop {
        let t = now();
        if next < jobs.len() && t >= jobs[next].sched_s {
            let j = next;
            next += 1;
            out[j].sent_s = t;
            match http(addr, "POST", "/jobs", &jobs[j].body) {
                Ok((202, body)) => {
                    out[j].acked_s = now();
                    ids[j] = field(&body, "job_id").and_then(|v| v.parse().ok()).unwrap_or(0);
                    out[j].status = field(&body, "status").unwrap_or("").to_string();
                    if out[j].status == "done" {
                        out[j].done_s = Some(out[j].acked_s);
                        out[j].cached = true;
                    } else {
                        outstanding.push((j, out[j].acked_s + POLL_S));
                    }
                }
                _ => {
                    out[j].acked_s = now();
                    out[j].refused = true;
                }
            }
            continue;
        }
        if outstanding.is_empty() && next == jobs.len() {
            break;
        }
        if t > last_sched + DRAIN_S {
            break; // stragglers stay without `done` and count as failed
        }
        let due =
            (0..outstanding.len()).min_by(|&a, &b| outstanding[a].1.total_cmp(&outstanding[b].1));
        if let Some(k) = due.filter(|&k| outstanding[k].1 <= t) {
            let j = outstanding[k].0;
            if poll(addr, ids[j], &mut out[j], t0) {
                outstanding.swap_remove(k);
            } else {
                outstanding[k].1 = now() + POLL_S;
            }
            continue;
        }
        // Sleep until the next send or the next due poll.
        let next_send = jobs.get(next).map_or(f64::INFINITY, |j| j.sched_s);
        let next_poll = due.map_or(f64::INFINITY, |k| outstanding[k].1);
        let wait = next_send.min(next_poll) - now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait.min(POLL_S)));
        }
    }
    // Results are fetched once the schedule is over, so the fetches add
    // no connections to the load being measured.
    for (o, &id) in out.iter_mut().zip(&ids) {
        if o.status == "done" {
            let t = Instant::now();
            if let Ok((200, body)) = http(addr, "GET", &format!("/jobs/{id}/result"), "") {
                o.result = Some(body);
            }
            o.result_rtt_s = t.elapsed().as_secs_f64();
        }
    }
    out
}

/// `GET /jobs/<id>`: whether the job has left the queue for good.
fn poll(addr: SocketAddr, id: u64, out: &mut Outcome, t0: Instant) -> bool {
    match http(addr, "GET", &format!("/jobs/{id}"), "") {
        Ok((200, body)) => {
            let status = field(&body, "status").unwrap_or("");
            if status != "done" && status != "failed" {
                return false;
            }
            out.done_s = (status == "done").then(|| t0.elapsed().as_secs_f64());
            out.batch_id = field(&body, "batch_id").and_then(|v| v.parse().ok()).unwrap_or(0);
            out.members = field(&body, "members").and_then(|v| v.parse().ok()).unwrap_or(0);
            out.cached = field(&body, "cached") == Some("true");
            out.status = status.to_string();
            true
        }
        _ => {
            out.status = "lost".to_string();
            true
        }
    }
}

/// Per-job verdict: done, counts sum to shots, and a resubmission's body
/// is byte-identical to its original's.
pub fn job_ok(jobs: &[JobReq], outcomes: &[Outcome], j: usize) -> bool {
    let o = &outcomes[j];
    let Some(body) = o.result.as_deref() else { return false };
    if o.refused || o.done_s.is_none() || !counts_ok(body, SHOTS, jobs[j].sweep.len()) {
        return false;
    }
    match jobs[j].original {
        Some(i) => outcomes[i].result.as_deref().is_some_and(|first| first == body),
        None => true,
    }
}

/// Start the server and warm it: one job per width calibrates Auto and
/// opens the first connections.
pub fn start_server() -> Server {
    let server = Server::start(ServeConfig::default()).expect("server starts on an ephemeral port");
    let mut warm = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x5741_524d);
    for n in WIDTHS {
        let c = template(&mut rng, n);
        let body = format!(
            "{{\"tenant\":\"warm-up\",\"n\":{n},\"shots\":{SHOTS},\"seed\":{n},\"circuit\":[{}]}}",
            gate_list(&c)
        );
        warm.push(JobReq {
            body,
            sched_s: 0.0,
            round: 0,
            original: None,
            circuit: c,
            sweep: Vec::new(),
            qasm: None,
        });
    }
    drive(server.addr(), &warm);
    server
}

pub fn segment(start: Instant, seed: u64, seconds: f64, trace: bool) -> Segment {
    let mut seg = Segment::default();
    // Generating the inputs is the benchmark's work, not the server's:
    // it is kept out of the set-up time.
    let t = Instant::now();
    let rounds = (seconds / ROUND_S).floor().max(1.0) as usize;
    let jobs = mix(seed, rounds);
    let generate_s = t.elapsed().as_secs_f64();
    let server = start_server();
    seg.setup_s = start.elapsed().as_secs_f64() - generate_s;

    let outcomes = drive(server.addr(), &jobs);
    // The measured phase runs from the schedule's origin until the last
    // job is done; fetching results afterwards is not part of it.
    seg.measured_s = outcomes.iter().filter_map(|o| o.done_s).fold(0.0, f64::max);
    // A round's pass ends when its last job is done; a failed job voids it.
    let mut round_done: Vec<Option<f64>> = vec![Some(0.0); rounds];
    let mut by_round: Vec<Vec<f64>> = vec![Vec::new(); rounds];
    let mut lag = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let o = &outcomes[j];
        lag.push(o.sent_s - job.sched_s);
        let ok = job_ok(&jobs, &outcomes, j);
        let latency = o.done_s.map_or(f64::INFINITY, |d| d - job.sched_s);
        seg.job(latency, ok, SLO_S);
        by_round[job.round].push(latency);
        round_done[job.round] = match (round_done[job.round], o.done_s) {
            (Some(a), Some(b)) if ok => Some(a.max(b)),
            _ => None,
        };
    }
    for (round, done) in round_done.iter().enumerate() {
        let Some(done) = done else { continue };
        seg.pass_s.push(done - round as f64 * ROUND_S);
        if trace {
            // The server builds its engines untraced, so serve-mixed has
            // no tracing to switch on: alternate rounds are labelled
            // traced and untraced, and their difference reads the
            // round-to-round noise floor.
            let lat = quantile(&by_round[round], 0.5);
            if round % 2 == 1 { &mut seg.traced_s } else { &mut seg.untraced_s }.push(lat);
        }
    }
    let stats = server.stats();
    seg.notes
        .num("lag_p90_s", quantile(&lag, 0.9))
        .num("lag_max_s", lag.iter().copied().fold(0.0, f64::max))
        .int("sent", jobs.len() as u64)
        .int("cache_hits", stats.cache_hits)
        .int("batches", stats.batches)
        .int("rejected", stats.rejected)
        .int("server_failed", stats.failed);
    server.shutdown();
    seg
}
