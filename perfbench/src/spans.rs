//! In-memory spans recorded around calls into each layer, written out at
//! the end of a traced run with `cumf_telemetry::chrome_trace`.

use cumf_telemetry::{chrome_trace, Event, PhaseSpan};
use std::time::Instant;

/// Which clock a duration is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall seconds.
    Host,
    /// Simulated device seconds from `gpu-sim`.
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    pub clock: Clock,
}

/// Host spans are seconds since `anchor`; sim spans are seconds on the
/// simulated clock.
pub struct Spans {
    anchor: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            anchor: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Host seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.anchor.elapsed().as_secs_f64()
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: Option<u64>,
        clock: Clock,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
            clock,
        });
        self.spans.len() - 1
    }

    /// Open a host span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.push(name, t, t, parent, None, Clock::Host)
    }

    pub fn close(&mut self, idx: usize) {
        let t = self.now();
        self.spans[idx].end = t;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace JSON of the spans on `clock`. Request ids and the clock
    /// ride in the span names; parents show as nesting.
    pub fn chrome(&self, clock: Clock) -> String {
        let events: Vec<Event> = self
            .spans
            .iter()
            .filter(|s| s.clock == clock)
            .map(|s| {
                let name = match s.request {
                    Some(id) => format!("{} #{id} [{}]", s.name, clock.label()),
                    None => format!("{} [{}]", s.name, clock.label()),
                };
                Event::Phase {
                    span: PhaseSpan::new(name, s.start, s.end),
                }
            })
            .collect();
        chrome_trace(&events)
    }

    /// Per span name: count, total seconds and self seconds (total minus
    /// the time its direct children cover), largest total first.
    pub fn totals(&self) -> Vec<(&'static str, Clock, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut by: Vec<(&'static str, Clock, usize, f64, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let d = s.end - s.start;
            match by.iter_mut().find(|e| e.0 == s.name && e.1 == s.clock) {
                Some(e) => {
                    e.2 += 1;
                    e.3 += d;
                    e.4 += d - c;
                }
                None => by.push((s.name, s.clock, 1, d, d - c)),
            }
        }
        by.sort_by(|a, b| b.3.total_cmp(&a.3));
        by
    }

    pub fn has(&self, clock: Clock) -> bool {
        self.spans.iter().any(|s| s.clock == clock)
    }
}
