//! Spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start and end (host ns since the pass began), the
//! span that caused it and the unit it belongs to. Spans are kept in
//! memory and written out once, when the pass ends. With tracing off
//! nothing is recorded.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    unit: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one pass.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; the returned id closes it and parents its children.
    pub fn open(&mut self, name: &'static str, unit: usize, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.end_ns - s.start_ns
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// All spans as a JSON array, one span per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"unit\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                sp.name, sp.unit, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("unit", 0, None);
        assert_eq!(t.close(id), 0);
        assert_eq!(t.to_json(), "[\n]\n");
    }

    #[test]
    fn children_name_their_parent() {
        let mut t = Tracer::new(true);
        let u = t.open("unit", 7, None);
        let c = t.open("attacks.measure", 7, Some(u));
        t.close(c);
        t.close(u);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"attacks.measure\", \"unit\": 7, \"parent\": 0"));
        assert!(json.contains("\"name\": \"unit\", \"unit\": 7, \"parent\": null"));
    }
}
