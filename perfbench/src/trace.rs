//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches inside the crates: a span starts before a
//! public entry point is called and ends when it returns.
//!
//! Each op is one root span with its own op id; its children are the
//! layer calls it made, in pipeline order. A span's self time is its
//! duration minus the time its children cover. The spans are kept in
//! memory and exported as a Chrome trace when the run ends.

use rml::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`syntax.parse`, `eval.execute`, …), or `op` for the
    /// root span of an op.
    pub name: &'static str,
    /// Index into [`Tracer::keys`] of the op this span belongs to.
    pub op: usize,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time; `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration of a closed span (0 while open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e - self.start_ns)
    }
}

/// Timing of one op, as the pass aggregation needs it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTime {
    /// Wall time of the whole op.
    pub wall_ns: u64,
    /// The op's own time outside every layer call (traced ops only).
    pub self_ns: u64,
    /// Self time of each layer call the op made (traced ops only).
    pub layers: Vec<(&'static str, u64)>,
}

/// Records spans while `on`; otherwise only times whole ops.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are recorded.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    keys: Vec<String>,
    open: Vec<usize>,
}

fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// An empty tracer.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            keys: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The key (`run fib rg`, …) of each op id.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Self time of span `i`: its duration minus its children's.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self.spans[i + 1..]
            .iter()
            .take_while(|s| s.parent.is_some())
            .filter(|s| s.parent == Some(i))
            .map(Span::dur_ns)
            .sum();
        self.spans[i].dur_ns().saturating_sub(children)
    }

    /// Times `f` as one op named `key`. When tracing, the op is a root
    /// span and every [`Tracer::layer`] call inside `f` becomes its child.
    pub fn op<T>(&mut self, key: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, OpTime) {
        let root = self.spans.len();
        let start = Instant::now();
        if self.on {
            self.keys.push(key.to_string());
            self.push("op", start);
        }
        let r = f(self);
        let end = Instant::now();
        if !self.on {
            let wall_ns = since(start, end);
            let time = OpTime {
                wall_ns,
                self_ns: wall_ns,
                layers: Vec::new(),
            };
            return (r, time);
        }
        self.pop(end);
        let layers = (root + 1..self.spans.len())
            .map(|i| (self.spans[i].name, self.self_ns(i)))
            .collect();
        let time = OpTime {
            wall_ns: self.spans[root].dur_ns(),
            self_ns: self.self_ns(root),
            layers,
        };
        (r, time)
    }

    /// Calls one layer entry point, as a child span of the current op.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.push(name, Instant::now());
        let r = f();
        self.pop(Instant::now());
        r
    }

    fn push(&mut self, name: &'static str, at: Instant) {
        self.spans.push(Span {
            name,
            op: self.keys.len() - 1,
            parent: self.open.last().copied(),
            start_ns: since(self.epoch, at),
            end_ns: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn pop(&mut self, at: Instant) {
        let i = self.open.pop().expect("pop matches a push");
        self.spans[i].end_ns = Some(since(self.epoch, at));
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto), with
    /// the run metadata attached.
    pub fn chrome(&self, meta: Json) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("perfbench")),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.dur_ns())),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::UInt(s.op as u64)),
                            ("key", Json::str(&self.keys[s.op])),
                            ("span", Json::UInt(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("self_us", us(self.self_ns(i))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("metadata", meta)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_and_op_self_time_sum_to_the_op_wall_time() {
        let mut tr = Tracer::new(true);
        let ((), t) = tr.op("demo", |tr| {
            tr.layer("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.layer("b", || ());
        });
        let layer_sum: u64 = t.layers.iter().map(|(_, ns)| ns).sum();
        assert_eq!(layer_sum + t.self_ns, t.wall_ns);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(t.layers[0].1 >= 2_000_000);
    }

    #[test]
    fn an_untraced_op_records_no_spans() {
        let mut tr = Tracer::new(false);
        let (v, t) = tr.op("demo", |tr| tr.layer("a", || 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty() && t.layers.is_empty());
    }
}
