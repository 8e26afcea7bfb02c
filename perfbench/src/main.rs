//! One benchmark for the ALS trainer and the serving stack.
//!
//! ```text
//! python3 perfbench/run.py --workload serve-ann --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every workload runs the same pipeline — synthesize a Netflix replica,
//! build a `ServeEngine`, then until `--seconds` are spent: train an ALS
//! epoch (repeating a fixed-length fit), publish the model and drive it
//! open-loop at a fixed base rate — and checks the answers it got. The
//! workloads differ in shape, so a different layer dominates each (see
//! `workloads.rs`).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that also replays one epoch layer by layer, probes a fixed rate
//! ladder for capacity, builds spans from the base-rate traffic and prints
//! the per-layer metrics. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 1 when an answer was wrong and 5 when the run is invalid
//! because the load generator fell behind.

mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use spans::{Clock, Spans};
use std::process::ExitCode;

/// How a metric was obtained.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Measured on a clock.
    Clock(Clock),
    /// Computed from array sizes, not measured.
    Computed,
    /// A count or a ratio of counts read from the program's reports.
    Count,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Clock(c) => c.label(),
            Source::Computed => "computed",
            Source::Count => "count",
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    source: Source,
}

/// What one run measured and checked.
pub struct Report {
    /// A traced run reports per-layer metrics; an untraced one end-to-end.
    pub traced: bool,
    metrics: Vec<Metric>,
    /// Operations attempted: requests sent, epochs trained, answers checked.
    pub attempted: u64,
    /// Operations that failed: typed errors, refusals at the base rate and
    /// wrong answers.
    pub failed: u64,
    /// Descriptions of failed correctness checks.
    pub wrong: Vec<String>,
    /// Notes printed beside the metrics (sample counts, absences, flags).
    pub notes: Vec<String>,
    /// Why the run's measurements cannot be trusted, such as a load
    /// generator that fell behind; a run with any is invalid.
    pub invalid: Vec<String>,
}

impl Report {
    fn new(traced: bool) -> Report {
        Report {
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
            notes: Vec::new(),
            invalid: Vec::new(),
        }
    }

    /// An end-to-end metric, reported by untraced runs.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        if !self.traced {
            self.push(name, value, unit, source);
        }
    }

    /// A per-layer metric, reported by traced runs.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        if self.traced {
            self.push(name, value, unit, source);
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    /// Count one checked answer; a wrong one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.wrong.len() < 20 {
                self.wrong.push(what());
            }
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn correct(&self) -> bool {
        self.wrong.is_empty()
    }
}

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (a limit missed by every sample) become the largest
/// finite double so the line stays valid JSON.
fn num(x: f64) -> String {
    let x = if x.is_finite() { x } else { f64::MAX };
    format!("{x:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                 workloads: {}",
                workloads::WORKLOADS.map(|w| w.name).join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} ({}) seed {} seconds {} trace {} ({} cores)",
        w.name,
        w.why,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::cores()
    );
    let mut report = Report::new(args.trace);
    let mut spans = args.trace.then(Spans::new);
    let data = train::setup(w, args.seed, &mut report);
    let mut training = train::Training::new(w, &data.data);
    serve::run(
        w,
        args.seed,
        args.seconds,
        &data,
        &mut training,
        spans.as_mut(),
        &mut report,
    );
    if let Some(spans) = &spans {
        let dir = std::path::Path::new("perfbench").join("out");
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut files = Vec::new();
            for clock in [Clock::Host, Clock::Sim] {
                if spans.has(clock) {
                    let path = dir.join(format!("{}.{}.trace.json", w.name, clock.label()));
                    std::fs::write(&path, spans.chrome(clock))?;
                    files.push(path.display().to_string());
                }
            }
            Ok(files)
        });
        for (name, clock, count, total, own) in spans.totals() {
            report.note(format!(
                "span {name} [{}]: {count} spans, {total:.4} s total, {own:.4} s self",
                clock.label()
            ));
        }
        match written {
            Ok(files) => report.note(format!(
                "wrote {} spans to {}",
                spans.len(),
                files.join(", ")
            )),
            Err(e) => {
                eprintln!("perfbench: writing the span file failed: {e}");
                return ExitCode::from(3);
            }
        }
    }

    println!("{:<40} {:>16} {:<8} source", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "{:<40} {:>16.6} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            m.source.label()
        );
    }
    for n in &report.notes {
        println!("note: {n}");
    }
    for wrong in &report.wrong {
        println!("WRONG: {wrong}");
    }
    for why in &report.invalid {
        println!("INVALID: {why}");
    }
    println!(
        "{} operations attempted, {} failed; outputs {}",
        report.attempted,
        report.failed,
        if report.correct() { "correct" } else { "WRONG" }
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !report.correct() {
        ExitCode::from(1)
    } else if !report.invalid.is_empty() {
        ExitCode::from(5)
    } else {
        ExitCode::SUCCESS
    }
}
