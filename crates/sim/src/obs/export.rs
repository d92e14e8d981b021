//! Exporters: the one writer of each interchange format.
//!
//! Every JSONL, Chrome `trace_event` and Prometheus artifact the
//! workspace writes goes through the three writers here; other layers
//! only map their records into the writers' inputs:
//!
//! - [`jsonl`] — one canonical-JSON record per line, for any
//!   [`Serialize`] record: pipeline events (each line parses back into a
//!   [`TraceEvent`]), ADTS and allocation decisions, engine spans;
//! - [`chrome`] — the Chrome `trace_event` JSON-object format from
//!   [`ChromeEvent`]s, which opens directly in `chrome://tracing` /
//!   Perfetto. [`chrome_trace`] maps a quantum's pipeline events onto one
//!   timeline row per hardware context (`ts` is the simulated cycle,
//!   execution intervals are `X` complete events, everything else an `i`
//!   instant), [`chrome_multicore_trace`] adds one track group per core
//!   and migration flow arrows, and [`chrome_slot_tracks`] draws slot
//!   stacks as `C` counter tracks;
//! - [`prometheus`] — the Prometheus text exposition format for a
//!   [`MetricsRegistry`]'s counters and histograms (`_bucket`/`_sum`/
//!   `_count` triplets with cumulative `le` buckets).

use crate::obs::attr::{CommitCause, FetchCause, IssueCause, SlotStack};
use crate::obs::metrics::MetricsRegistry;
use crate::trace::{MissLevel, TraceEvent};
use serde::{Serialize, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Serialize records as JSON Lines, one canonical-JSON record per line,
/// in iteration order.
pub fn jsonl<T: Serialize>(records: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&serde::json::to_string(&record));
        out.push('\n');
    }
    out
}

/// One Chrome `trace_event` entry. [`chrome`] writes its keys in
/// declaration order and omits every `None` key, and `args` when empty.
#[derive(Clone, Debug, Default)]
pub struct ChromeEvent {
    pub name: Cow<'static, str>,
    pub cat: Option<&'static str>,
    /// Phase: `X` complete, `i` instant, `C` counter, `M` metadata, `s`
    /// and `f` flow start and finish.
    pub ph: &'static str,
    /// Flow binding point (`e`: the enclosing slice).
    pub bp: Option<&'static str>,
    /// Flow id shared by an `s`/`f` pair.
    pub id: Option<u64>,
    pub ts: Option<u64>,
    pub dur: Option<u64>,
    /// Instant scope: `t` thread, `p` process, `g` global.
    pub s: Option<&'static str>,
    pub pid: u64,
    pub tid: u64,
    pub args: Vec<(&'static str, Value)>,
}

impl ChromeEvent {
    /// Append the entry as one JSON object: keys in declaration order,
    /// every `None` key and an empty `args` omitted. `name` and the args
    /// go through the canonical JSON writer; the `&'static str` keys and
    /// codes are plain identifiers that need no escaping.
    fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"name":"#);
        serde::json::write_string(out, &self.name);
        let codes = [("cat", self.cat), ("ph", Some(self.ph)), ("bp", self.bp)];
        for (key, code) in codes {
            if let Some(code) = code {
                let _ = write!(out, r#","{key}":"{code}""#);
            }
        }
        for (key, n) in [("id", self.id), ("ts", self.ts), ("dur", self.dur)] {
            if let Some(n) = n {
                let _ = write!(out, r#","{key}":{n}"#);
            }
        }
        if let Some(s) = self.s {
            let _ = write!(out, r#","s":"{s}""#);
        }
        let _ = write!(out, r#","pid":{},"tid":{}"#, self.pid, self.tid);
        for (i, (key, value)) in self.args.iter().enumerate() {
            let open = if i == 0 { r#","args":{"# } else { "," };
            let _ = write!(out, r#"{open}"{key}":"#);
            serde::json::write_value(out, value);
        }
        if !self.args.is_empty() {
            out.push('}');
        }
        out.push('}');
    }
}

/// Render entries in the Chrome `trace_event` format (the JSON-object
/// flavor, `{"traceEvents": [...]}`), in iteration order.
pub fn chrome(events: impl IntoIterator<Item = ChromeEvent>) -> String {
    let mut out = String::from(r#"{"traceEvents":["#);
    for (i, ev) in events.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ev.write_json(&mut out);
    }
    out.push_str("]}");
    out
}

/// Synthetic Chrome "tid" for machine-wide events (policy switches and
/// migration markers).
const CHROME_MACHINE_ROW: u64 = 99;

/// One pipeline event on the track of Chrome process `pid` (one process
/// per core in the multi-core trace; 0 standalone).
fn chrome_event(ev: &TraceEvent, pid: u64) -> ChromeEvent {
    let instant = |name: &'static str, args| ChromeEvent {
        name: name.into(),
        ph: "i",
        ts: Some(ev.cycle()),
        s: Some("t"),
        pid,
        tid: ev.tid().map_or(CHROME_MACHINE_ROW, |t| u64::from(t.0)),
        args,
        ..ChromeEvent::default()
    };
    match *ev {
        TraceEvent::Issue {
            cycle,
            seq,
            done_at,
            ..
        } => ChromeEvent {
            ph: "X",
            dur: Some(done_at.saturating_sub(cycle).max(1)),
            s: None,
            ..instant("exec", vec![("seq", seq.to_value())])
        },
        TraceEvent::Fetch {
            seq,
            kind,
            wrong_path,
            ..
        } => instant(
            "fetch",
            vec![
                ("seq", seq.to_value()),
                ("kind", Value::Str(format!("{kind:?}"))),
                ("wrong_path", wrong_path.to_value()),
            ],
        ),
        TraceEvent::Dispatch { seq, .. } => instant("dispatch", vec![("seq", seq.to_value())]),
        TraceEvent::Complete { seq, .. } => instant("complete", vec![("seq", seq.to_value())]),
        TraceEvent::Commit { seq, .. } => instant("commit", vec![("seq", seq.to_value())]),
        TraceEvent::Squash {
            after_seq, victims, ..
        } => instant(
            "squash",
            vec![
                ("after_seq", after_seq.to_value()),
                ("victims", victims.to_value()),
            ],
        ),
        TraceEvent::Flush { victims, .. } => {
            instant("flush", vec![("victims", victims.to_value())])
        }
        TraceEvent::CacheMiss {
            addr, level, rot, ..
        } => {
            let name = match level {
                MissLevel::L1I => "miss-l1i",
                MissLevel::L1D => "miss-l1d",
                MissLevel::L2 => "miss-l2",
            };
            instant(
                name,
                vec![("addr", addr.to_value()), ("rot", rot.to_value())],
            )
        }
        TraceEvent::PolicySwitch { from, to, .. } => ChromeEvent {
            s: Some("g"),
            ..instant(
                "policy_switch",
                vec![("from", from.to_value()), ("to", to.to_value())],
            )
        },
    }
}

/// Render pipeline events as a Chrome trace on process 0, oldest first.
pub fn chrome_trace<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    chrome(events.into_iter().map(|ev| chrome_event(ev, 0)))
}

/// One completed cross-core migration, for flow-arrow export: thread
/// `thread` left `from_core` for `to_core` at `cycle` (the quantum
/// boundary the allocation decision took effect).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationArrow {
    pub cycle: u64,
    pub thread: usize,
    pub from_core: usize,
    pub to_core: usize,
}

impl MigrationArrow {
    /// The arrow as Chrome entries: an `i` instant at each endpoint
    /// (`migrate-out`/`migrate-in`, so the hop shows even in viewers
    /// that drop unbound flow events) and the `s`/`f` flow pair sharing
    /// id `id`.
    fn chrome_events(&self, id: u64) -> [ChromeEvent; 4] {
        let (from, to) = (self.from_core as u64, self.to_core as u64);
        let thread = ("thread", self.thread.to_value());
        let marker = |name: &'static str, pid, args| ChromeEvent {
            name: name.into(),
            ph: "i",
            ts: Some(self.cycle),
            s: Some("p"),
            pid,
            tid: CHROME_MACHINE_ROW,
            args,
            ..ChromeEvent::default()
        };
        let flow = ChromeEvent {
            name: format!("migration t{}", self.thread).into(),
            cat: Some("migration"),
            ph: "s",
            id: Some(id),
            ts: Some(self.cycle),
            pid: from,
            tid: CHROME_MACHINE_ROW,
            ..ChromeEvent::default()
        };
        [
            marker(
                "migrate-out",
                from,
                vec![thread.clone(), ("to_core", to.to_value())],
            ),
            marker(
                "migrate-in",
                to,
                vec![thread, ("from_core", from.to_value())],
            ),
            flow.clone(),
            ChromeEvent {
                ph: "f",
                bp: Some("e"),
                pid: to,
                ..flow
            },
        ]
    }
}

/// Render a multi-core run as one merged Chrome trace: one process
/// ("track group") per core — `pid` is the core id, named by a
/// `process_name` metadata event — holding that core's pipeline events,
/// then every migration as a flow arrow from the source core's timeline
/// to the destination's at the migration cycle.
pub fn chrome_multicore_trace(
    per_core: &[Vec<TraceEvent>],
    migrations: &[MigrationArrow],
) -> String {
    let cores = per_core.iter().enumerate().flat_map(|(c, events)| {
        let pid = c as u64;
        let name = ChromeEvent {
            name: "process_name".into(),
            ph: "M",
            pid,
            args: vec![("name", Value::Str(format!("core {c}")))],
            ..ChromeEvent::default()
        };
        std::iter::once(name).chain(events.iter().map(move |ev| chrome_event(ev, pid)))
    });
    let arrows = (0u64..)
        .zip(migrations)
        .flat_map(|(id, m)| m.chrome_events(id));
    chrome(cores.chain(arrows))
}

/// Render per-quantum slot stacks as Chrome counter tracks (`ph: "C"`):
/// one stacked-area track per thread and stage, sampled at `ts` (the
/// quantum-end cycle). Opens alongside [`chrome_trace`]'s event rows,
/// since both use process 0.
pub fn chrome_slot_tracks<'a>(
    samples: impl IntoIterator<Item = (u64, u8, &'a SlotStack)>,
) -> String {
    chrome(samples.into_iter().flat_map(|(ts, tid, stack)| {
        let track = move |stage: &str, names: &[&'static str], counts: &[u64]| ChromeEvent {
            name: format!("{stage} slots t{tid}").into(),
            ph: "C",
            ts: Some(ts),
            tid: u64::from(tid),
            args: names
                .iter()
                .copied()
                .zip(counts.iter().map(Serialize::to_value))
                .collect(),
            ..ChromeEvent::default()
        };
        [
            track(
                "fetch",
                &FetchCause::ALL.map(FetchCause::name),
                &stack.fetch,
            ),
            track(
                "issue",
                &IssueCause::ALL.map(IssueCause::name),
                &stack.issue,
            ),
            track(
                "commit",
                &CommitCause::ALL.map(CommitCause::name),
                &stack.commit,
            ),
        ]
    }))
}

/// Restrict a metric name to the Prometheus charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Format a bucket bound the Prometheus way (no trailing noise for exact
/// integers, `{:?}`-style shortest float otherwise).
fn fmt_le(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

/// Render the registry in the Prometheus text exposition format. All
/// metric names get the `smt_` prefix.
pub fn prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in reg.counters() {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE smt_{n} counter");
        let _ = writeln!(out, "smt_{n} {value}");
    }
    for (name, h) in reg.hists() {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE smt_{n} histogram");
        let mut cumulative = 0u64;
        for (i, c) in h.counts().iter().enumerate() {
            cumulative += c;
            let _ = writeln!(
                out,
                "smt_{n}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_le(h.upper_edge(i))
            );
        }
        let _ = writeln!(out, "smt_{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "smt_{n}_sum {:?}", h.sum());
        let _ = writeln!(out, "smt_{n}_count {}", h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::{OpKind, Tid};

    /// One event of every kind (and every miss level), in cycle order.
    fn sample_events() -> Vec<TraceEvent> {
        let t0 = Tid(0);
        vec![
            TraceEvent::Fetch {
                cycle: 1,
                tid: t0,
                seq: 0,
                kind: OpKind::Load,
                wrong_path: false,
            },
            TraceEvent::Dispatch {
                cycle: 2,
                tid: t0,
                seq: 0,
            },
            TraceEvent::Issue {
                cycle: 3,
                tid: t0,
                seq: 0,
                done_at: 9,
            },
            TraceEvent::CacheMiss {
                cycle: 3,
                tid: t0,
                addr: 4096,
                level: MissLevel::L1D,
                rot: 0,
            },
            TraceEvent::PolicySwitch {
                cycle: 5,
                from: 0,
                to: 4,
            },
            TraceEvent::CacheMiss {
                cycle: 6,
                tid: Tid(1),
                addr: 256,
                level: MissLevel::L1I,
                rot: 1,
            },
            TraceEvent::CacheMiss {
                cycle: 6,
                tid: Tid(1),
                addr: 8192,
                level: MissLevel::L2,
                rot: 1,
            },
            TraceEvent::Fetch {
                cycle: 7,
                tid: Tid(1),
                seq: 4,
                kind: OpKind::Branch,
                wrong_path: true,
            },
            TraceEvent::Squash {
                cycle: 8,
                tid: Tid(1),
                after_seq: 3,
                victims: 1,
            },
            TraceEvent::Complete {
                cycle: 9,
                tid: t0,
                seq: 0,
            },
            TraceEvent::Commit {
                cycle: 10,
                tid: t0,
                seq: 0,
            },
            TraceEvent::Flush {
                cycle: 11,
                tid: Tid(1),
                victims: 2,
            },
        ]
    }

    /// The registry behind the exact Prometheus output: a counter whose
    /// name needs sanitizing, and histograms with integer and fractional
    /// bucket edges.
    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("commits/total");
        reg.inc(c, 41);
        let h = reg.hist("iq depth", 0.0, 4.0, 4);
        for x in [0.5, 3.5, 1.25] {
            reg.observe(h, x);
        }
        let f = reg.hist("frac", 0.0, 1.0, 4);
        reg.observe(f, 0.3);
        reg
    }

    /// Parse a Chrome trace and count its `traceEvents` entries.
    fn entries(text: &str) -> usize {
        let v: serde::Value = serde::json::from_str(text).expect("Chrome trace JSON");
        match v.get("traceEvents") {
            Some(serde::Value::Seq(items)) => items.len(),
            other => panic!("traceEvents must be an array, got {other:?}"),
        }
    }

    #[test]
    fn event_jsonl_bytes_are_pinned() {
        let expected = concat!(
            r#"{"Fetch":{"cycle":1,"tid":0,"seq":0,"kind":"Load","wrong_path":false}}"#,
            "\n",
            r#"{"Dispatch":{"cycle":2,"tid":0,"seq":0}}"#,
            "\n",
            r#"{"Issue":{"cycle":3,"tid":0,"seq":0,"done_at":9}}"#,
            "\n",
            r#"{"CacheMiss":{"cycle":3,"tid":0,"addr":4096,"level":"L1D","rot":0}}"#,
            "\n",
            r#"{"PolicySwitch":{"cycle":5,"from":0,"to":4}}"#,
            "\n",
            r#"{"CacheMiss":{"cycle":6,"tid":1,"addr":256,"level":"L1I","rot":1}}"#,
            "\n",
            r#"{"CacheMiss":{"cycle":6,"tid":1,"addr":8192,"level":"L2","rot":1}}"#,
            "\n",
            r#"{"Fetch":{"cycle":7,"tid":1,"seq":4,"kind":"Branch","wrong_path":true}}"#,
            "\n",
            r#"{"Squash":{"cycle":8,"tid":1,"after_seq":3,"victims":1}}"#,
            "\n",
            r#"{"Complete":{"cycle":9,"tid":0,"seq":0}}"#,
            "\n",
            r#"{"Commit":{"cycle":10,"tid":0,"seq":0}}"#,
            "\n",
            r#"{"Flush":{"cycle":11,"tid":1,"victims":2}}"#,
            "\n",
        );
        assert_eq!(jsonl(sample_events()), expected);
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"fetch","ph":"i","ts":1,"s":"t","pid":0,"tid":0,"args":{"seq":0,"kind":"Load","wrong_path":false}},"#,
            r#"{"name":"dispatch","ph":"i","ts":2,"s":"t","pid":0,"tid":0,"args":{"seq":0}},"#,
            r#"{"name":"exec","ph":"X","ts":3,"dur":6,"pid":0,"tid":0,"args":{"seq":0}},"#,
            r#"{"name":"miss-l1d","ph":"i","ts":3,"s":"t","pid":0,"tid":0,"args":{"addr":4096,"rot":0}},"#,
            r#"{"name":"policy_switch","ph":"i","ts":5,"s":"g","pid":0,"tid":99,"args":{"from":0,"to":4}},"#,
            r#"{"name":"miss-l1i","ph":"i","ts":6,"s":"t","pid":0,"tid":1,"args":{"addr":256,"rot":1}},"#,
            r#"{"name":"miss-l2","ph":"i","ts":6,"s":"t","pid":0,"tid":1,"args":{"addr":8192,"rot":1}},"#,
            r#"{"name":"fetch","ph":"i","ts":7,"s":"t","pid":0,"tid":1,"args":{"seq":4,"kind":"Branch","wrong_path":true}},"#,
            r#"{"name":"squash","ph":"i","ts":8,"s":"t","pid":0,"tid":1,"args":{"after_seq":3,"victims":1}},"#,
            r#"{"name":"complete","ph":"i","ts":9,"s":"t","pid":0,"tid":0,"args":{"seq":0}},"#,
            r#"{"name":"commit","ph":"i","ts":10,"s":"t","pid":0,"tid":0,"args":{"seq":0}},"#,
            r#"{"name":"flush","ph":"i","ts":11,"s":"t","pid":0,"tid":1,"args":{"victims":2}}"#,
            "]}",
        );
        assert_eq!(chrome_trace(&sample_events()), expected);
        assert_eq!(entries(expected), sample_events().len());
        assert_eq!(chrome_trace(&[]), r#"{"traceEvents":[]}"#);
    }

    #[test]
    fn multicore_trace_bytes_are_pinned() {
        let evs = sample_events();
        let per_core = vec![evs[..1].to_vec(), vec![evs[2], evs[4]]];
        let arrows = [MigrationArrow {
            cycle: 4096,
            thread: 2,
            from_core: 0,
            to_core: 1,
        }];
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"core 0"}},"#,
            r#"{"name":"fetch","ph":"i","ts":1,"s":"t","pid":0,"tid":0,"args":{"seq":0,"kind":"Load","wrong_path":false}},"#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"core 1"}},"#,
            r#"{"name":"exec","ph":"X","ts":3,"dur":6,"pid":1,"tid":0,"args":{"seq":0}},"#,
            r#"{"name":"policy_switch","ph":"i","ts":5,"s":"g","pid":1,"tid":99,"args":{"from":0,"to":4}},"#,
            r#"{"name":"migrate-out","ph":"i","ts":4096,"s":"p","pid":0,"tid":99,"args":{"thread":2,"to_core":1}},"#,
            r#"{"name":"migrate-in","ph":"i","ts":4096,"s":"p","pid":1,"tid":99,"args":{"thread":2,"from_core":0}},"#,
            r#"{"name":"migration t2","cat":"migration","ph":"s","id":0,"ts":4096,"pid":0,"tid":99},"#,
            r#"{"name":"migration t2","cat":"migration","ph":"f","bp":"e","id":0,"ts":4096,"pid":1,"tid":99}"#,
            "]}",
        );
        assert_eq!(chrome_multicore_trace(&per_core, &arrows), expected);
        // A process_name entry per core, its events, four per migration.
        assert_eq!(entries(expected), 2 + 3 + 4);
    }

    #[test]
    fn slot_tracks_bytes_are_pinned() {
        let mut stack = SlotStack::default();
        stack.fetch[0] = 11;
        stack.issue[2] = 5;
        stack.commit[1] = 3;
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"fetch slots t0","ph":"C","ts":4096,"pid":0,"tid":0,"args":{"used":11,"l1i_miss":0,"redirect":0,"front_end_full":0,"rob_full":0,"policy_starved":0,"drain":0,"migration":0}},"#,
            r#"{"name":"issue slots t0","ph":"C","ts":4096,"pid":0,"tid":0,"args":{"used":0,"iq_empty":0,"deps_not_ready":5,"fu_busy":0,"drain":0}},"#,
            r#"{"name":"commit slots t0","ph":"C","ts":4096,"pid":0,"tid":0,"args":{"used":0,"data_miss":3,"not_ready":0,"squash_drain":0,"empty":0}},"#,
            r#"{"name":"fetch slots t1","ph":"C","ts":8192,"pid":0,"tid":1,"args":{"used":11,"l1i_miss":0,"redirect":0,"front_end_full":0,"rob_full":0,"policy_starved":0,"drain":0,"migration":0}},"#,
            r#"{"name":"issue slots t1","ph":"C","ts":8192,"pid":0,"tid":1,"args":{"used":0,"iq_empty":0,"deps_not_ready":5,"fu_busy":0,"drain":0}},"#,
            r#"{"name":"commit slots t1","ph":"C","ts":8192,"pid":0,"tid":1,"args":{"used":0,"data_miss":3,"not_ready":0,"squash_drain":0,"empty":0}}"#,
            "]}",
        );
        let samples = [(4096u64, 0u8, &stack), (8192, 1, &stack)];
        assert_eq!(chrome_slot_tracks(samples), expected);
        assert_eq!(entries(expected), 6, "3 stage tracks per sample");
    }

    #[test]
    fn prometheus_bytes_are_pinned() {
        let expected = "\
# TYPE smt_commits_total counter
smt_commits_total 41
# TYPE smt_iq_depth histogram
smt_iq_depth_bucket{le=\"1\"} 1
smt_iq_depth_bucket{le=\"2\"} 2
smt_iq_depth_bucket{le=\"3\"} 2
smt_iq_depth_bucket{le=\"4\"} 3
smt_iq_depth_bucket{le=\"+Inf\"} 3
smt_iq_depth_sum 5.25
smt_iq_depth_count 3
# TYPE smt_frac histogram
smt_frac_bucket{le=\"0.25\"} 0
smt_frac_bucket{le=\"0.5\"} 1
smt_frac_bucket{le=\"0.75\"} 1
smt_frac_bucket{le=\"1\"} 1
smt_frac_bucket{le=\"+Inf\"} 1
smt_frac_sum 0.3
smt_frac_count 1
";
        assert_eq!(prometheus(&sample_registry()), expected);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let evs = sample_events();
        let text = jsonl(&evs);
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde::json::from_str(l).expect("line must parse"))
            .collect();
        assert_eq!(parsed, evs);
    }
}
