//! Run-level span tracing of the sweep engine itself.
//!
//! The simulator side of the observability stack (DESIGN.md §12–§14)
//! answers "where did the machine's cycles go"; this module answers the
//! same question for the *harness*: where did the wall-clock of a
//! `repro` run go? It records a hierarchical trace of engine work —
//! per-point spans in [`super::SweepEngine::run_series`], warm-pool
//! hits/misses/warmups, checkpoint loads/stores/fallbacks, and batch
//! fork events — tagged with the worker lane that did the work, and
//! exports it as JSONL, a Chrome `trace_event` file (one track per
//! worker), and a Prometheus text summary of the engine counters. The
//! recorder only maps its events and counters into the writers of
//! `smt_sim::obs::export`, which own all three formats; the labelled
//! per-lane busy-time family is the one text it renders itself.
//!
//! Design mirrors the simulator's zero-overhead contract at the harness
//! level: the recorder is process-wide but **disabled by default**, and
//! every entry point checks one relaxed atomic before doing anything
//! else — no allocation, no lock, no clock read on the disabled path.
//! `tests/span_trace.rs` exercises the enabled path end-to-end.
//!
//! Span hierarchy is tracked per thread: each worker keeps a
//! thread-local stack of open span ids, so a `ckpt-load` span started
//! inside a `point` span records that point as its parent. Lanes are
//! explicit ([`set_lane`]) rather than derived from thread ids so the
//! Chrome trace rows are stable across runs: lane 0 is the main thread,
//! lanes 1..=N the executor workers.

use serde::{Serialize, Value};
use smt_sim::obs::export::{self, ChromeEvent};
use smt_sim::obs::MetricsRegistry;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// Worker lane of the current thread (0 = main).
    static LANE: Cell<u32> = const { Cell::new(0) };
    /// Ids of spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded engine event.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanEvent {
    /// A completed begin/end interval.
    Span {
        /// Unique id (process-wide, allocation order).
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Worker lane the span ran on.
        lane: u32,
        /// Human-readable label, e.g. `"point:fixed:MIX01/ICOUNT"`.
        name: String,
        /// Coarse category: `"point"`, `"warm"`, `"ckpt"`, …
        cat: &'static str,
        /// Microseconds since the recorder's epoch.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker (cache hit, batch fork, fallback, …).
    Instant {
        /// Worker lane the event occurred on.
        lane: u32,
        /// Human-readable label.
        name: String,
        /// Coarse category.
        cat: &'static str,
        /// Microseconds since the recorder's epoch.
        ts_us: u64,
    },
}

impl SpanEvent {
    /// The event's lane.
    pub fn lane(&self) -> u32 {
        match *self {
            SpanEvent::Span { lane, .. } | SpanEvent::Instant { lane, .. } => lane,
        }
    }

    /// The event's label.
    pub fn name(&self) -> &str {
        match self {
            SpanEvent::Span { name, .. } | SpanEvent::Instant { name, .. } => name,
        }
    }

    /// The event's category.
    pub fn cat(&self) -> &'static str {
        match self {
            SpanEvent::Span { cat, .. } | SpanEvent::Instant { cat, .. } => cat,
        }
    }
}

impl Serialize for SpanEvent {
    fn to_value(&self) -> Value {
        match self {
            SpanEvent::Span {
                id,
                parent,
                lane,
                name,
                cat,
                start_us,
                dur_us,
            } => Value::Map(vec![
                ("kind".into(), "span".to_value()),
                ("id".into(), id.to_value()),
                ("parent".into(), parent.to_value()),
                ("lane".into(), lane.to_value()),
                ("name".into(), name.to_value()),
                ("cat".into(), cat.to_value()),
                ("start_us".into(), start_us.to_value()),
                ("dur_us".into(), dur_us.to_value()),
            ]),
            SpanEvent::Instant {
                lane,
                name,
                cat,
                ts_us,
            } => Value::Map(vec![
                ("kind".into(), "instant".to_value()),
                ("lane".into(), lane.to_value()),
                ("name".into(), name.to_value()),
                ("cat".into(), cat.to_value()),
                ("ts_us".into(), ts_us.to_value()),
            ]),
        }
    }
}

/// Pending state carried by an open [`SpanGuard`].
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    lane: u32,
    name: String,
    cat: &'static str,
    start: Instant,
}

/// RAII handle for an open span; recording happens on drop. A guard
/// from a disabled recorder is inert.
pub struct SpanGuard<'a> {
    rec: &'a SpanRecorder,
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.rec.finish(open);
        }
    }
}

/// Process-wide engine trace: interval spans, instant markers, and
/// monotonic counters, all behind one enable flag.
pub struct SpanRecorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A disabled recorder with its epoch at construction time.
    pub fn new() -> Self {
        SpanRecorder {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turn recording on or off. Spans opened while enabled still record
    /// on drop even if recording was disabled in between (their cost was
    /// already paid).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is the recorder currently accepting events?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_us(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_micros() as u64
    }

    /// Open a span; it records when the returned guard drops. On the
    /// disabled path this is one atomic load and an inert guard.
    pub fn begin(&self, name: &str, cat: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        SpanGuard {
            rec: self,
            open: Some(OpenSpan {
                id,
                parent,
                lane: LANE.with(Cell::get),
                name: name.to_string(),
                cat,
                start: Instant::now(),
            }),
        }
    }

    fn finish(&self, open: OpenSpan) {
        let dur_us = open.start.elapsed().as_micros() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // Guards normally drop LIFO; tolerate stragglers anyway.
            if o.last() == Some(&open.id) {
                o.pop();
            } else {
                o.retain(|&x| x != open.id);
            }
        });
        self.events
            .lock()
            .expect("span events poisoned")
            .push(SpanEvent::Span {
                id: open.id,
                parent: open.parent,
                lane: open.lane,
                name: open.name,
                cat: open.cat,
                start_us: self.now_us(open.start),
                dur_us,
            });
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, name: &str, cat: &'static str) {
        if !self.enabled() {
            return;
        }
        let ev = SpanEvent::Instant {
            lane: LANE.with(Cell::get),
            name: name.to_string(),
            cat,
            ts_us: self.now_us(Instant::now()),
        };
        self.events.lock().expect("span events poisoned").push(ev);
    }

    /// Add `delta` to the named engine counter.
    pub fn bump(&self, counter: &'static str, delta: u64) {
        if !self.enabled() || delta == 0 {
            return;
        }
        *self
            .counters
            .lock()
            .expect("span counters poisoned")
            .entry(counter)
            .or_insert(0) += delta;
    }

    /// Snapshot of every recorded event, in recording order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("span events poisoned").clone()
    }

    /// Snapshot of the engine counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .expect("span counters poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Drop all recorded events and counters (tests; epoch unchanged).
    pub fn clear(&self) {
        self.events.lock().expect("span events poisoned").clear();
        self.counters
            .lock()
            .expect("span counters poisoned")
            .clear();
    }

    /// One JSON object per line, in recording order.
    pub fn spans_jsonl(&self) -> String {
        export::jsonl(self.events.lock().expect("span events poisoned").iter())
    }

    /// Chrome `trace_event` JSON: one process, one track per lane
    /// (lane 0 = "engine main", lane N = "worker N"), spans as complete
    /// (`ph:"X"`) events and markers as thread-scoped instants.
    pub fn chrome_trace(&self) -> String {
        let events = self.events.lock().expect("span events poisoned");
        let mut lanes: Vec<u32> = events.iter().map(SpanEvent::lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let lane_names = lanes.into_iter().map(|lane| ChromeEvent {
            name: "thread_name".into(),
            ph: "M",
            tid: lane.into(),
            args: vec![(
                "name",
                match lane {
                    0 => "engine main".to_value(),
                    _ => format!("worker {lane}").to_value(),
                },
            )],
            ..ChromeEvent::default()
        });
        let entries = events.iter().map(|ev| match ev {
            SpanEvent::Span {
                id,
                parent,
                lane,
                name,
                cat,
                start_us,
                dur_us,
            } => ChromeEvent {
                name: name.clone().into(),
                cat: Some(cat),
                ph: "X",
                ts: Some(*start_us),
                dur: Some(*dur_us),
                tid: (*lane).into(),
                args: vec![("id", id.to_value()), ("parent", parent.to_value())],
                ..ChromeEvent::default()
            },
            SpanEvent::Instant {
                lane,
                name,
                cat,
                ts_us,
            } => ChromeEvent {
                name: name.clone().into(),
                cat: Some(cat),
                ph: "i",
                ts: Some(*ts_us),
                s: Some("t"),
                tid: (*lane).into(),
                ..ChromeEvent::default()
            },
        });
        export::chrome(lane_names.chain(entries))
    }

    /// Prometheus text summary: every engine counter as
    /// `smt_engine_<name>`, plus per-lane busy time (sum of *top-level*
    /// span durations, so nested spans are not double-counted).
    pub fn engine_prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        for (name, v) in self.counters() {
            let id = reg.counter(&format!("engine_{name}"));
            reg.inc(id, v);
        }
        let mut out = export::prometheus(&reg);
        let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
        for ev in self.events.lock().expect("span events poisoned").iter() {
            if let SpanEvent::Span {
                parent: None,
                lane,
                dur_us,
                ..
            } = ev
            {
                *busy.entry(*lane).or_insert(0) += dur_us;
            }
        }
        if !busy.is_empty() {
            out.push_str("# TYPE smt_engine_lane_busy_us counter\n");
            for (lane, us) in busy {
                out.push_str(&format!(
                    "smt_engine_lane_busy_us{{lane=\"{lane}\"}} {us}\n"
                ));
            }
        }
        out
    }

    /// Write `spans.jsonl`, `spans.trace.json`, and `engine.prom` under
    /// `dir` (created if missing).
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<SpanArtifacts> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join("spans.jsonl");
        std::fs::write(&jsonl, self.spans_jsonl())?;
        let trace = dir.join("spans.trace.json");
        std::fs::write(&trace, self.chrome_trace())?;
        let prom = dir.join("engine.prom");
        std::fs::write(&prom, self.engine_prometheus())?;
        Ok(SpanArtifacts { jsonl, trace, prom })
    }
}

/// Paths written by [`SpanRecorder::write_artifacts`].
#[derive(Clone, Debug)]
pub struct SpanArtifacts {
    /// One JSON object per event.
    pub jsonl: PathBuf,
    /// Chrome `trace_event` file (`chrome://tracing`, Perfetto).
    pub trace: PathBuf,
    /// Prometheus text summary of the engine counters.
    pub prom: PathBuf,
}

static SPANS: OnceLock<SpanRecorder> = OnceLock::new();

/// The process-wide recorder (disabled until [`set_enabled`]).
pub fn spans() -> &'static SpanRecorder {
    SPANS.get_or_init(SpanRecorder::new)
}

/// Enable/disable the process-wide recorder.
pub fn set_enabled(on: bool) {
    spans().set_enabled(on);
}

/// Tag the calling thread as worker `lane` (0 = main thread). The
/// executor calls this when it spawns sweep workers.
pub fn set_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// Record one batch quantum's fork events on the process-wide recorder:
/// counters split by fork kind (plan vs boundary divergence) plus an
/// instant marker naming the quantum, and a `batch_helpers` counter of
/// the helper threads the quantum borrowed. No-ops when disabled; the
/// fork events are left out when the quantum forked nothing.
pub fn note_batch_forks(quantum: u64, forks: &smt_sim::QuantumForks) {
    let r = spans();
    r.bump("batch_helpers", forks.helpers as u64);
    if !r.enabled() || !forks.forked() {
        return;
    }
    r.bump("batch_plan_forks", forks.plan_forks);
    r.bump("batch_boundary_forks", forks.boundary_forks);
    r.instant(
        &format!(
            "fork q{quantum}: +{} plan, +{} boundary -> {} groups",
            forks.plan_forks, forks.boundary_forks, forks.groups
        ),
        "batch",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding fixed events and counters: a root span on each
    /// of two lanes, a nested span, an instant, and a counter bumped
    /// twice.
    fn sample_recorder() -> SpanRecorder {
        let r = SpanRecorder::new();
        let span = |id, parent, lane, name: &str, cat, start_us, dur_us| SpanEvent::Span {
            id,
            parent,
            lane,
            name: name.into(),
            cat,
            start_us,
            dur_us,
        };
        *r.events.lock().unwrap() = vec![
            span(2, Some(1), 1, "ckpt-load MIX01", "ckpt", 20, 40),
            SpanEvent::Instant {
                lane: 1,
                name: "fork q3: +1 plan, +0 boundary -> 2 groups".into(),
                cat: "batch",
                ts_us: 30,
            },
            span(1, None, 1, "point:fixed:MIX01/ICOUNT", "point", 10, 100),
            span(3, None, 0, "scope table1", "scope", 0, 250),
        ];
        r.set_enabled(true);
        r.bump("warmups", 1);
        r.bump("cache_hits", 2);
        r.bump("cache_hits", 3);
        r
    }

    #[test]
    fn span_jsonl_and_prometheus_bytes_are_pinned() {
        let r = sample_recorder();
        let jsonl = concat!(
            r#"{"kind":"span","id":2,"parent":1,"lane":1,"name":"ckpt-load MIX01","cat":"ckpt","start_us":20,"dur_us":40}"#,
            "\n",
            r#"{"kind":"instant","lane":1,"name":"fork q3: +1 plan, +0 boundary -> 2 groups","cat":"batch","ts_us":30}"#,
            "\n",
            r#"{"kind":"span","id":1,"parent":null,"lane":1,"name":"point:fixed:MIX01/ICOUNT","cat":"point","start_us":10,"dur_us":100}"#,
            "\n",
            r#"{"kind":"span","id":3,"parent":null,"lane":0,"name":"scope table1","cat":"scope","start_us":0,"dur_us":250}"#,
            "\n",
        );
        assert_eq!(r.spans_jsonl(), jsonl);
        assert_eq!(r.counters(), vec![("cache_hits", 5), ("warmups", 1)]);
        let prom = "\
# TYPE smt_engine_cache_hits counter
smt_engine_cache_hits 5
# TYPE smt_engine_warmups counter
smt_engine_warmups 1
# TYPE smt_engine_lane_busy_us counter
smt_engine_lane_busy_us{lane=\"0\"} 250
smt_engine_lane_busy_us{lane=\"1\"} 100
";
        assert_eq!(r.engine_prometheus(), prom);
    }

    #[test]
    fn span_chrome_trace_bytes_are_pinned() {
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"engine main"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker 1"}},"#,
            r#"{"name":"ckpt-load MIX01","cat":"ckpt","ph":"X","ts":20,"dur":40,"pid":0,"tid":1,"args":{"id":2,"parent":1}},"#,
            r#"{"name":"fork q3: +1 plan, +0 boundary -> 2 groups","cat":"batch","ph":"i","ts":30,"s":"t","pid":0,"tid":1},"#,
            r#"{"name":"point:fixed:MIX01/ICOUNT","cat":"point","ph":"X","ts":10,"dur":100,"pid":0,"tid":1,"args":{"id":1,"parent":null}},"#,
            r#"{"name":"scope table1","cat":"scope","ph":"X","ts":0,"dur":250,"pid":0,"tid":0,"args":{"id":3,"parent":null}}"#,
            "]}",
        );
        assert_eq!(sample_recorder().chrome_trace(), expected);
        let v: Value = serde::json::from_str(expected).expect("trace parses");
        assert!(matches!(v.get("traceEvents"), Some(Value::Seq(s)) if s.len() == 6));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = SpanRecorder::new();
        {
            let _g = r.begin("nothing", "test");
            r.instant("nor this", "test");
            r.bump("count", 3);
        }
        assert!(r.events().is_empty());
        assert!(r.counters().is_empty());
        assert_eq!(r.spans_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _outer = r.begin("outer", "test");
            {
                let _inner = r.begin("inner", "test");
                r.instant("mark", "test");
            }
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        // Drop order: instant first, then inner, then outer.
        assert!(matches!(&evs[0], SpanEvent::Instant { name, .. } if name == "mark"));
        let (inner_parent, inner_id) = match &evs[1] {
            SpanEvent::Span {
                name, id, parent, ..
            } if name == "inner" => (*parent, *id),
            other => panic!("expected inner span, got {other:?}"),
        };
        let outer_id = match &evs[2] {
            SpanEvent::Span {
                name, id, parent, ..
            } if name == "outer" => {
                assert_eq!(*parent, None, "outer span is a root");
                *id
            }
            other => panic!("expected outer span, got {other:?}"),
        };
        assert_eq!(inner_parent, Some(outer_id));
        assert_ne!(inner_id, outer_id);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _g = r.begin("p:fixed:MIX01", "point");
        }
        r.instant("fork q3 (+1 plan)", "batch");
        let text = r.spans_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: Value = serde::json::from_str(line).expect("line parses");
            assert!(v.get("kind").is_some(), "{line}");
            assert!(v.get("lane").is_some(), "{line}");
        }
        let first: Value = serde::json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.get("kind"),
            Some(&Value::Str("span".into())),
            "span dropped before the instant was recorded"
        );
    }
}
