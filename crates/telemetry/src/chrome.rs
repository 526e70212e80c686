//! Chrome `trace_event` JSON export, and the [`Trace`] it consumes.
//!
//! A [`Trace`] is what [`recorder::to_trace`](crate::recorder::to_trace)
//! reconstructs from a flight-recorder snapshot: completed spans and
//! instant markers on per-thread tracks. This module emits it in the
//! JSON-object format (`{"traceEvents": [...]}`) that `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) load directly: complete
//! (`"ph": "X"`) events for spans, instant (`"ph": "i"`) events for
//! markers, and `thread_name` metadata so each thread gets its own labeled
//! track.

use crate::json::{Json, ObjBuilder};

/// One trace event: a completed span or an instant marker.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span name (e.g. `"engine.exec"`, `"kernel.step"`, a phase label).
    pub name: String,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Recorder thread id of the track the event is drawn on.
    pub tid: u32,
    /// Numeric arguments shown in the trace viewer's detail pane.
    pub args: Vec<(&'static str, f64)>,
}

/// A reconstructed trace: all events plus thread-name metadata.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every event, ascending by timestamp.
    pub events: Vec<Event>,
    /// `(tid, thread name)` pairs for track labeling.
    pub threads: Vec<(u32, String)>,
}

impl Trace {
    /// Per-name summary: `(count, total span microseconds)` sorted by name.
    pub fn summary(&self) -> Vec<(String, u64, u64)> {
        let mut map: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for e in &self.events {
            let entry = map.entry(&e.name).or_default();
            entry.0 += 1;
            entry.1 += e.dur_us.unwrap_or(0);
        }
        map.into_iter()
            .map(|(name, (count, us))| (name.to_string(), count, us))
            .collect()
    }
}

/// Process id used for all events (one process, one track group).
const PID: u64 = 1;

fn args_json(args: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|&(k, v)| (k.to_string(), Json::Num(v)))
            .collect(),
    )
}

fn event_json(e: &Event) -> Json {
    let b = ObjBuilder::new()
        .push("name", Json::Str(e.name.clone()))
        .push("cat", Json::Str(category(&e.name).to_string()))
        .push(
            "ph",
            Json::Str(if e.dur_us.is_some() { "X" } else { "i" }.into()),
        )
        .push("ts", Json::Num(e.ts_us as f64))
        .push_opt("dur", e.dur_us.map(|d| Json::Num(d as f64)))
        .push("pid", Json::Num(PID as f64))
        .push("tid", Json::Num(e.tid as f64));
    let b = if e.dur_us.is_none() {
        // instant events need a scope; "t" = thread-scoped
        b.push("s", Json::Str("t".into()))
    } else {
        b
    };
    b.push("args", args_json(&e.args)).build()
}

/// Category from the span name's first dotted segment
/// (`engine.exec` → `engine`), which Perfetto can filter on.
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Render a trace as a Chrome `trace_event` JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(trace.events.len() + trace.threads.len());
    for (tid, name) in &trace.threads {
        events.push(
            ObjBuilder::new()
                .push("name", Json::Str("thread_name".into()))
                .push("ph", Json::Str("M".into()))
                .push("pid", Json::Num(PID as f64))
                .push("tid", Json::Num(*tid as f64))
                .push(
                    "args",
                    ObjBuilder::new()
                        .push("name", Json::Str(name.clone()))
                        .build(),
                )
                .build(),
        );
    }
    events.extend(trace.events.iter().map(event_json));
    ObjBuilder::new()
        .push("traceEvents", Json::Arr(events))
        .push("displayTimeUnit", Json::Str("ms".into()))
        .build()
        .to_compact()
}

/// Write a trace to `path` as Chrome trace JSON.
pub fn write_chrome_trace(trace: &Trace, path: &str) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_json(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Trace {
        Trace {
            events: vec![
                Event {
                    name: "kernel.step".into(),
                    ts_us: 10,
                    dur_us: Some(250),
                    tid: 0,
                    args: vec![("req", 1.0), ("arg", 64.0)],
                },
                Event {
                    name: "admit".into(),
                    ts_us: 300,
                    dur_us: None,
                    tid: 2,
                    args: vec![("req", 2.0)],
                },
            ],
            threads: vec![(0, "main".into()), (2, "graphbig-worker-1".into())],
        }
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let text = to_chrome_json(&sample());
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2 events
        assert_eq!(events.len(), 4);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("main")
        );
        let step = &events[2];
        assert_eq!(step.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(step.get("cat").unwrap().as_str(), Some("kernel"));
        assert_eq!(step.get("dur").unwrap().as_u64(), Some(250));
        assert_eq!(
            step.get("args").unwrap().get("arg").unwrap().as_u64(),
            Some(64)
        );
        let marker = &events[3];
        assert_eq!(marker.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(marker.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(marker.get("tid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn summary_aggregates_by_name() {
        let event = |name: &str, dur_us, tid| Event {
            name: name.into(),
            ts_us: 0,
            dur_us,
            tid,
            args: vec![],
        };
        let t = Trace {
            events: vec![
                event("a", Some(5), 0),
                event("a", Some(7), 1),
                event("b", None, 0),
            ],
            threads: vec![],
        };
        assert_eq!(
            t.summary(),
            vec![("a".to_string(), 2, 12), ("b".to_string(), 1, 0)]
        );
    }

    #[test]
    fn empty_trace_still_loads() {
        let doc = parse(&to_chrome_json(&Trace::default())).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
