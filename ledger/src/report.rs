//! Small helpers shared by every workload: a JSON object writer for the
//! one line each process prints, order statistics, and the peak-RSS
//! reading.

use std::fmt::Write as _;

/// Builds one flat JSON object. Non-finite numbers are written as `null`
/// so the aggregator rejects them instead of reading garbage.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{key}\":");
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.key(key);
        push_num(&mut self.body, v);
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Obj {
        self.key(key);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Obj {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", v.replace(['"', '\\'], "_"));
        self
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Obj {
        self.key(key);
        self.body.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_num(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    pub fn obj(&mut self, key: &str, v: &Obj) -> &mut Obj {
        self.key(key);
        let _ = write!(self.body, "{{{}}}", v.body);
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Host time / A64FX-model time; NaN when the model predicts nothing.
pub fn drift(host_s: f64, model_s: f64) -> f64 {
    if model_s > 0.0 {
        host_s / model_s
    } else {
        f64::NAN
    }
}
