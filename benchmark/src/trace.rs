//! Spans around each call into a layer, recorded by the benchmark itself.
//!
//! Spans live in memory until the run ends. Every span is summarized (count,
//! total, self time = span minus the part its children cover); the first
//! spans are also kept whole and written as a Chrome `trace_event` file.
//! Spans inside the crates are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One scripted op, as the benchmark's client sees it.
    Op,
    /// `Engine::submit`.
    EngineSubmit,
    /// `Ticket::wait`: the hand-off back to the client.
    EngineWait,
    /// The response's `queue_us`, laid inside the wait.
    EngineQueue,
    /// The response's `exec_us`, laid inside the wait.
    EngineExec,
    /// `Engine::mutate`.
    EngineMutate,
    /// `Engine::compact`.
    EngineCompact,
    /// `workloads::service::run_service`, engine bypassed.
    RunService,
}

impl SpanName {
    pub const ALL: [SpanName; 8] = [
        SpanName::Op,
        SpanName::EngineSubmit,
        SpanName::EngineWait,
        SpanName::EngineQueue,
        SpanName::EngineExec,
        SpanName::EngineMutate,
        SpanName::EngineCompact,
        SpanName::RunService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::EngineSubmit => "engine.submit",
            SpanName::EngineWait => "engine.wait",
            SpanName::EngineQueue => "engine.queue",
            SpanName::EngineExec => "engine.exec",
            SpanName::EngineMutate => "engine.mutate",
            SpanName::EngineCompact => "engine.compact",
            SpanName::RunService => "workloads.run_service",
        }
    }

    pub fn is_engine(self) -> bool {
        self.name().starts_with("engine.")
    }
}

/// One recorded span. `parent` indexes the kept spans, `-1` for a root.
pub struct Span {
    pub name: SpanName,
    pub op: u32,
    pub parent: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of one span name over every traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    children_ns: u64,
    kept: i32,
}

/// Spans kept whole for the Chrome trace; the summary covers all of them.
const KEEP: usize = 40_000;

/// The span recorder. Disabled, every call is one predictable branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: [SpanTotals; SpanName::ALL.len()],
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            kept: Vec::with_capacity(KEEP),
            totals: [SpanTotals::default(); SpanName::ALL.len()],
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keep(&mut self, name: SpanName, op: u32, start_ns: u64) -> i32 {
        if self.kept.len() >= KEEP {
            return -1;
        }
        let parent = self.stack.last().map_or(-1, |o| o.kept);
        self.kept.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.kept.len() as i32 - 1
    }

    /// Open a span as a child of the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: SpanName, op: usize) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let kept = self.keep(name, op as u32, start_ns);
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            kept,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end() without begin()");
        self.close(open, end_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if open.kept >= 0 {
            self.kept[open.kept as usize].end_ns = end_ns;
        }
    }

    /// Lay the response's `queue_us` then `exec_us` inside the innermost
    /// open span, ending now and clipped to it: the engine reports these
    /// durations but not when they started.
    #[inline]
    pub fn queue_exec(&mut self, op: usize, queue_us: u64, exec_us: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let floor = self.stack.last().map_or(0, |o| o.start_ns);
        let exec_start = end_ns.saturating_sub(exec_us * 1_000).max(floor);
        let queue_start = exec_start.saturating_sub(queue_us * 1_000).max(floor);
        for (name, start_ns, stop_ns) in [
            (SpanName::EngineQueue, queue_start, exec_start),
            (SpanName::EngineExec, exec_start, end_ns),
        ] {
            let kept = self.keep(name, op as u32, start_ns);
            let leaf = Open {
                name,
                start_ns,
                children_ns: 0,
                kept,
            };
            self.close(leaf, stop_ns);
        }
    }

    pub fn totals(&self, name: SpanName) -> SpanTotals {
        self.totals[name as usize]
    }

    /// Sum of self times: the traced passes' op time, split by layer.
    pub fn self_total_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Write the kept spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.kept.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name.name(),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
                i,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_parents_are_kept() {
        let mut tr = Tracer::new();
        tr.begin(SpanName::Op, 0); // disabled: nothing recorded
        tr.end();
        assert_eq!(tr.span_count(), 0);
        tr.set_enabled(true);
        tr.begin(SpanName::Op, 7);
        tr.begin(SpanName::EngineSubmit, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end();
        tr.begin(SpanName::EngineWait, 7);
        std::thread::sleep(std::time::Duration::from_millis(3));
        tr.queue_exec(7, 1_000, 1_000);
        tr.end();
        tr.end();
        let op = tr.totals(SpanName::Op);
        let submit = tr.totals(SpanName::EngineSubmit);
        let wait = tr.totals(SpanName::EngineWait);
        let queue = tr.totals(SpanName::EngineQueue);
        let exec = tr.totals(SpanName::EngineExec);
        assert_eq!(
            (op.count, submit.count, wait.count, queue.count, exec.count),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(op.self_ns, op.total_ns - submit.total_ns - wait.total_ns);
        assert_eq!(wait.self_ns, wait.total_ns - queue.total_ns - exec.total_ns);
        assert_eq!((queue.total_ns, exec.total_ns), (1_000_000, 1_000_000));
        assert_eq!(tr.self_total_ns(), op.total_ns);
        let kept = tr.kept();
        assert_eq!(kept.len(), 5);
        assert_eq!(kept[0].parent, -1);
        assert_eq!((kept[1].parent, kept[2].parent), (0, 0));
        assert_eq!((kept[3].parent, kept[4].parent), (2, 2));
        assert!(kept.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn queue_and_exec_are_clipped_to_the_wait() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(SpanName::EngineWait, 0);
        tr.queue_exec(0, 10_000_000, 10_000_000); // 10 s each: far longer than the wait
        tr.end();
        let wait = tr.totals(SpanName::EngineWait);
        let covered =
            tr.totals(SpanName::EngineQueue).total_ns + tr.totals(SpanName::EngineExec).total_ns;
        assert!(covered <= wait.total_ns);
    }

    #[test]
    fn chrome_trace_parses_as_json() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin(SpanName::Op, 1);
        tr.begin(SpanName::RunService, 1);
        tr.end();
        tr.end();
        let path = std::env::temp_dir().join(format!(
            "graphbig-benchmark-trace-{}.json",
            std::process::id()
        ));
        tr.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = graphbig_json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("workloads.run_service")
        );
    }
}
