//! The observability facade: spans, instants, and counters, fanned out to
//! the sink of the session that asked for them.
//!
//! Every layer of the stack (pipeline phases, the region-inference
//! fix-point, the abstract machine, the collector) calls into this module
//! unconditionally; whether anything happens is decided by one
//! thread-local load. **The disabled path performs no allocation and
//! takes no lock** — [`enabled`] reads one `Cell<bool>`, and every entry
//! point checks it before touching arguments. The perf smoke suite pins
//! this contract (`events_recorded()` must stay zero across an
//! instrumented run with no sink installed).
//!
//! Sinks are scoped to a session, not to the process: [`install`] pushes a
//! sink on the *current thread's* sink stack and returns a guard that pops
//! it. Events go to the top of the stack, so concurrent sessions on
//! different threads never see each other's events. A session that hands
//! work to another thread passes its sink along explicitly
//! ([`current`], then [`install`] on the worker).
//!
//! The default sink is a [`Recorder`]: an in-memory event buffer with a
//! Chrome trace-event JSON exporter ([`Recorder::to_chrome_json`]) whose
//! output loads in `about://tracing` and Perfetto. Spans are emitted as
//! paired `B`/`E` events per thread, so nesting (GC pauses inside a run
//! span, phases inside a compile span) is reconstructed by the viewer.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Instant event (`i`).
    Instant,
    /// Counter sample (`C`).
    Counter,
}

impl TracePhase {
    fn chrome(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
            TracePhase::Counter => "C",
        }
    }
}

/// One recorded event (as stored by the [`Recorder`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (`"gc.collect"`, `"region-inference"`, …).
    pub name: &'static str,
    /// Category (`"pipeline"`, `"eval"`, `"runtime"`, `"counter"`).
    pub cat: &'static str,
    /// Phase.
    pub ph: TracePhase,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Logical thread id (small integers, stable per thread).
    pub tid: u64,
    /// Numeric arguments (counter values, sizes, counts).
    pub args: Vec<(&'static str, f64)>,
}

/// A destination for trace events. Implementations must be cheap enough
/// to call from the machine's step loop (the facade already gates on
/// [`enabled`], so a sink only ever sees events somebody asked for).
pub trait TraceSink: Send + Sync {
    /// Records one event. `args` is borrowed; sinks copy what they keep.
    fn record(
        &self,
        ph: TracePhase,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, f64)],
    );
}

static RECORDED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The sinks installed on this thread; events go to the last one.
    static SINKS: RefCell<Vec<Arc<dyn TraceSink>>> = const { RefCell::new(Vec::new()) };
    /// Mirrors `!SINKS.is_empty()`, so the disabled check is one load.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Is a sink installed on this thread? One thread-local load; the whole
/// cost of the instrumentation when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Keeps a sink installed on the thread that installed it; dropping it
/// uninstalls the sink and re-exposes the one installed before, if any.
#[must_use = "the sink is uninstalled when the guard drops"]
pub struct SinkGuard {
    /// Guards pop the installing thread's stack, so they stay on it.
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        SINKS.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            ENABLED.with(|e| e.set(!s.is_empty()));
        });
    }
}

/// Installs `sink` for the current thread until the returned guard drops.
/// Other threads, including ones this thread spawns, do not see it unless
/// it is installed there too.
pub fn install(sink: Arc<dyn TraceSink>) -> SinkGuard {
    SINKS.with(|s| s.borrow_mut().push(sink));
    ENABLED.with(|e| e.set(true));
    SinkGuard {
        _thread_bound: PhantomData,
    }
}

/// The sink events on this thread currently go to, for handing to a
/// worker thread that should record into the same session.
pub fn current() -> Option<Arc<dyn TraceSink>> {
    if !enabled() {
        return None;
    }
    SINKS.with(|s| s.borrow().last().cloned())
}

/// Events delivered to any sink on any thread since process start — a
/// cheap handle for tests asserting the disabled path stays silent.
pub fn events_recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

fn deliver(
    sink: &dyn TraceSink,
    ph: TracePhase,
    name: &'static str,
    cat: &'static str,
    args: &[(&'static str, f64)],
) {
    RECORDED.fetch_add(1, Ordering::Relaxed);
    sink.record(ph, name, cat, args);
}

fn emit(ph: TracePhase, name: &'static str, cat: &'static str, args: &[(&'static str, f64)]) {
    SINKS.with(|s| {
        if let Some(sink) = s.borrow().last() {
            deliver(&**sink, ph, name, cat, args);
        }
    });
}

/// An RAII span: `B` on creation, `E` on drop, both delivered to the sink
/// current at creation and suppressed when there was none.
#[must_use = "a span traces the scope it is alive for"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            deliver(&**sink, TracePhase::End, self.name, self.cat, &[]);
        }
    }
}

/// Opens a span. Zero-cost (a bool check, no allocation) when disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let sink = current();
    if let Some(s) = &sink {
        deliver(&**s, TracePhase::Begin, name, cat, &[]);
    }
    Span { name, cat, sink }
}

/// Emits an instant event with numeric arguments.
#[inline]
pub fn instant(name: &'static str, cat: &'static str, args: &[(&'static str, f64)]) {
    if enabled() {
        emit(TracePhase::Instant, name, cat, args);
    }
}

/// Emits a counter sample (rendered as a stacked chart by trace viewers).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if enabled() {
        emit(TracePhase::Counter, name, "counter", &[("value", value)]);
    }
}

fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The in-memory sink: timestamps events against its construction epoch
/// and exports them as Chrome trace-event JSON.
pub struct Recorder {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is "now".
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Renders the buffer in the Chrome trace-event format (JSON object
    /// form, loadable in `about://tracing` and Perfetto). Spans come out
    /// as `B`/`E` pairs, instants as `i` with thread scope, counters as
    /// `C` samples.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut arr = Vec::with_capacity(events.len());
        for e in &events {
            let mut fields = vec![
                ("name".to_string(), Json::str(e.name)),
                ("cat".to_string(), Json::str(e.cat)),
                ("ph".to_string(), Json::str(e.ph.chrome())),
                ("ts".to_string(), Json::UInt(e.ts_us)),
                ("pid".to_string(), Json::UInt(1)),
                ("tid".to_string(), Json::UInt(e.tid)),
            ];
            if e.ph == TracePhase::Instant {
                fields.push(("s".to_string(), Json::str("t")));
            }
            if !e.args.is_empty() {
                let args = e
                    .args
                    .iter()
                    .map(|(k, v)| {
                        let val = if v.is_finite() {
                            Json::Num(*v)
                        } else {
                            Json::Null
                        };
                        (k.to_string(), val)
                    })
                    .collect();
                fields.push(("args".to_string(), Json::Obj(args)));
            }
            arr.push(Json::Obj(fields));
        }
        Json::obj([
            ("traceEvents", Json::Arr(arr)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

impl TraceSink for Recorder {
    fn record(
        &self,
        ph: TracePhase,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, f64)],
    ) {
        let ev = TraceEvent {
            name,
            cat,
            ph,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            tid: current_tid(),
            args: args.to_vec(),
        };
        if let Ok(mut buf) = self.events.lock() {
            buf.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sinks are per thread and every test runs on its own thread, so the
    // tests need no lock against each other.

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!enabled());
        let rec = Arc::new(Recorder::new());
        drop(install(rec.clone()));
        {
            let _s = span("quiet", "test");
            instant("quiet.i", "test", &[("n", 1.0)]);
            counter("quiet.c", 2.0);
        }
        assert!(rec.events().is_empty());
        assert!(current().is_none());
    }

    #[test]
    fn recorder_pairs_spans_and_exports_chrome_events() {
        let rec = Arc::new(Recorder::new());
        let guard = install(rec.clone());
        {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test");
            counter("bytes", 42.0);
        }
        drop(guard);
        let evs = rec.events();
        let phs: Vec<TracePhase> = evs.iter().map(|e| e.ph).collect();
        assert_eq!(
            phs,
            vec![
                TracePhase::Begin,
                TracePhase::Begin,
                TracePhase::Counter,
                TracePhase::End,
                TracePhase::End
            ]
        );
        // Inner closes before outer (drop order).
        assert_eq!(evs[3].name, "inner");
        assert_eq!(evs[4].name, "outer");
        let json = rec.to_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"args\":{\"value\":42}"), "{json}");
    }

    #[test]
    fn span_created_before_install_never_emits_its_end() {
        let s = span("pre", "test");
        let rec = Arc::new(Recorder::new());
        let guard = install(rec.clone());
        drop(s); // was created unarmed; must stay silent
        drop(guard);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn nested_sinks_stack_and_spans_end_where_they_began() {
        let outer = Arc::new(Recorder::new());
        let g1 = install(outer.clone());
        let s = span("outer.span", "test");
        let inner = Arc::new(Recorder::new());
        let g2 = install(inner.clone());
        instant("inner.i", "test", &[]);
        drop(s); // begun on `outer`, so it ends there
        drop(g2);
        instant("outer.i", "test", &[]);
        drop(g1);
        assert!(!enabled());
        let names = |r: &Recorder| r.events().iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(&inner), ["inner.i"]);
        assert_eq!(names(&outer), ["outer.span", "outer.span", "outer.i"]);
    }

    #[test]
    fn a_sink_is_invisible_to_other_threads() {
        let rec = Arc::new(Recorder::new());
        let _g = install(rec.clone());
        std::thread::spawn(|| {
            assert!(!enabled());
            instant("elsewhere", "test", &[]);
        })
        .join()
        .unwrap();
        let sink = current();
        std::thread::spawn(move || {
            let _g = sink.map(install);
            instant("inherited", "test", &[]);
        })
        .join()
        .unwrap();
        let names: Vec<_> = rec.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["inherited"]);
    }
}
