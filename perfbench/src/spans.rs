//! Host-time spans recorded by the benchmark around every call it makes
//! into a simulator layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans stay in memory; the per-layer metrics are
//! the *self time* of each name: a span's duration minus the part of it
//! that its children cover. Recording is off in the untraced pass, where
//! [`Spans::time`] only measures the call it wraps.
//!
//! The recorder also keeps the pass's host-speed calibration samples
//! ([`Spans::calibrate`]), which the pass's wall time leaves out.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, in seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `soc.system_new`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
}

/// The span recorder of one pass.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
    calibration: Vec<f64>,
}

impl Spans {
    /// A recorder; `on = false` makes it measure without recording.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            calibration: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the host seconds it took. The span nests under the innermost span
    /// still open, and `f` may open spans of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let t0 = Instant::now();
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start: (t0 - self.origin).as_secs_f64(),
                end: f64::NAN,
            });
            self.open.push(self.spans.len() - 1);
        }
        let out = f(self);
        let t1 = Instant::now();
        if self.on {
            let idx = self.open.pop().expect("span stack balanced by time()");
            self.spans[idx].end = (t1 - self.origin).as_secs_f64();
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// Takes one host-speed calibration sample (in a `calibrate` span).
    pub fn calibrate(&mut self) {
        let (secs, _) = self.time("calibrate", |_| crate::calibrate::sample());
        self.calibration.push(secs);
    }

    /// The calibration samples taken so far, in seconds.
    #[must_use]
    pub fn calibration(&self) -> &[f64] {
        &self.calibration
    }

    /// Self seconds per span name (see [`self_times`]).
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }
}

/// Self seconds per span name: each span's duration minus the durations
/// of its direct children, summed over every span of that name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,10] ⊃ setup [0,4] ⊃ upload [1,3]; pass ⊃ run [4,9].
        let spans = vec![
            span("pass", None, 0.0, 10.0),
            span("setup", Some(0), 0.0, 4.0),
            span("soc.upload", Some(1), 1.0, 3.0),
            span("soc.run", Some(0), 4.0, 9.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 1.0);
        assert_eq!(t["setup"], 2.0);
        assert_eq!(t["soc.upload"], 2.0);
        assert_eq!(t["soc.run"], 5.0);
        // Self times partition the root span.
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn repeated_names_sum() {
        let spans = vec![
            span("pass", None, 0.0, 6.0),
            span("soc.run", Some(0), 0.0, 2.0),
            span("soc.run", Some(0), 3.0, 6.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["soc.run"], 5.0);
        assert_eq!(t["pass"], 1.0);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut on = Spans::new(true);
        let ((), outer) = on.time("outer", |s| {
            let ((), _) = s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        let t = on.self_times();
        assert!(t["inner"] >= 0.002 && t["outer"] >= 0.0);
        assert!((t["inner"] + t["outer"] - outer).abs() < 1e-3);

        let mut off = Spans::new(false);
        let (v, secs) = off.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans.is_empty() && off.self_times().is_empty());
    }
}
