//! The always-on flight recorder: fixed-capacity lock-free per-thread ring
//! buffers of compact binary events.
//!
//! The flight recorder is the only place an event is ever recorded, and it
//! has **no cargo feature**: it is compiled into every build and recording
//! is on by default. It is cheap
//! enough for that role because one event is four relaxed `AtomicU64`
//! stores into a preallocated per-thread ring (no locks, no allocation, no
//! cross-thread contention on the hot path). When the ring wraps, the
//! oldest events are overwritten: the recorder always holds the
//! *last-N-events story* per thread, which is exactly what a post-mortem
//! wants.
//!
//! The engine threads its request ids through here ([`EventKind`] has one
//! variant per lifecycle stage), chaos fault fires are recorded with the
//! triggering request key, kernels mark supersteps, and the workload
//! harness brackets its phases ([`phase`]) — so when
//! `invariants.rs` finds a violation, a kernel panics outside injection, or
//! `graphbig-serve` exits non-zero, [`auto_dump`] writes a JSON file that
//! tells the full per-request story leading up to the failure, and
//! [`to_trace`] turns the same stream into one Chrome timeline.
//!
//! Readers ([`snapshot`]) are non-destructive and tolerate concurrent
//! writers: events whose slots may have been overwritten during the read
//! are dropped (detected by re-reading the write cursor), so a snapshot
//! never contains torn events.
//!
//! [`pause`]/[`resume`] gate recording behind one relaxed atomic load — the
//! overhead bench (`flight_recorder_overhead`) measures enabled-vs-paused
//! on a full kernel to back the "always-on is affordable" claim.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::{Event, Trace};
use crate::json::{Json, ObjBuilder};

/// Default ring capacity per thread, in events. Override with the
/// `GRAPHBIG_FLIGHT_CAPACITY` environment variable (read once, at the
/// first recording in the process).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Words of storage per event (timestamp, packed header, id, argument).
const WORDS: usize = 4;

/// Lane value meaning "no lane" (the event is not lane-scoped).
pub const NO_LANE: u8 = u8::MAX;

/// Schema identifier written into every dump.
pub const DUMP_SCHEMA: &str = "graphbig.flight_recorder/v1";

/// What kind of moment an event marks. One variant per request lifecycle
/// stage plus the cross-cutting markers (faults, retries, kernel progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered admission (arg = chaos tag, correlating the
    /// request id with fault-fire events keyed by tag).
    Admit = 1,
    /// Admission rejected the request (arg: 0 = queue full, 1 = cost
    /// budget). Terminal — rejected requests have no further stages.
    Reject = 2,
    /// The admitted request was pushed into its priority lane (arg = cost).
    Enqueue = 3,
    /// An executor popped the request (arg = queue wait in µs).
    Dequeue = 4,
    /// Execution finished, in any status (arg = status code: 0 completed,
    /// 1 deadline, 2 cancelled, 3 unsupported, 4 failed).
    Run = 5,
    /// The one-shot resolver delivered the response (arg = status code).
    Resolve = 6,
    /// A second resolution attempt lost the CAS — an invariant violation
    /// in the making.
    DoubleResolve = 7,
    /// `Ticket::cancel` was called for this request.
    CancelRequest = 8,
    /// The driver re-submitted after a rejection (id = chaos tag of the
    /// failed attempt, arg = attempt number).
    Retry = 9,
    /// A chaos failpoint fired (id = chaos tag, code = interned site name,
    /// arg = fault index within the armed plan).
    FaultFired = 10,
    /// A kernel started on behalf of a traced request (arg = workload
    /// index in `Workload::ALL`).
    KernelStart = 11,
    /// A cancellable kernel passed a superstep boundary (arg = the
    /// kernel's payload for the step it is entering — the frontier length
    /// for BFS — or 0; the step's depth is its ordinal).
    KernelStep = 12,
    /// The feedback cost model scaled a request's static cost estimate
    /// (arg = adjusted cost actually charged against the budget).
    CostAdjust = 13,
    /// The request was answered from the epoch-keyed result cache
    /// (arg = snapshot epoch the cached entry was computed under).
    CacheHit = 14,
    /// A mutation batch was applied to the write buffer (id = request id,
    /// arg = the delta-sequence number it advanced the overlay to).
    Mutate = 15,
    /// The background compactor began folding the overlay into a fresh CSR
    /// (arg = the delta-sequence number being compacted).
    CompactStart = 16,
    /// Compaction published a new epoch and reset the overlay (arg = the
    /// new epoch), or gave up on a contended attempt (arg = 0).
    CompactEnd = 17,
    /// An executor formed a coalesced batch behind this request (the batch
    /// leader; arg = number of requests sharing the kernel, including the
    /// leader).
    BatchStart = 18,
    /// The request was drained from its lane into another request's batch
    /// (arg = the leader's request id).
    BatchJoin = 19,
    /// A phase opened on the recording thread (id = 0, code = interned
    /// phase name, arg = the phase's one numeric payload).
    PhaseBegin = 20,
    /// The phase opened by the matching [`EventKind::PhaseBegin`] on this
    /// thread closed (code = the same interned phase name, arg = the payload
    /// if it was only known at close, else 0).
    PhaseEnd = 21,
}

impl EventKind {
    /// Stable lowercase name used in dumps and traces.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Run => "run",
            EventKind::Resolve => "resolve",
            EventKind::DoubleResolve => "double_resolve",
            EventKind::CancelRequest => "cancel_request",
            EventKind::Retry => "retry",
            EventKind::FaultFired => "fault_fired",
            EventKind::KernelStart => "kernel_start",
            EventKind::KernelStep => "kernel_step",
            EventKind::CostAdjust => "cost_adjust",
            EventKind::CacheHit => "cache_hit",
            EventKind::Mutate => "mutate",
            EventKind::CompactStart => "compact_start",
            EventKind::CompactEnd => "compact_end",
            EventKind::BatchStart => "batch_start",
            EventKind::BatchJoin => "batch_join",
            EventKind::PhaseBegin => "phase_begin",
            EventKind::PhaseEnd => "phase_end",
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            1 => Admit,
            2 => Reject,
            3 => Enqueue,
            4 => Dequeue,
            5 => Run,
            6 => Resolve,
            7 => DoubleResolve,
            8 => CancelRequest,
            9 => Retry,
            10 => FaultFired,
            11 => KernelStart,
            12 => KernelStep,
            13 => CostAdjust,
            14 => CacheHit,
            15 => Mutate,
            16 => CompactStart,
            17 => CompactEnd,
            18 => BatchStart,
            19 => BatchJoin,
            20 => PhaseBegin,
            21 => PhaseEnd,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderEvent {
    /// Microseconds since the process epoch ([`now_us`]).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Priority lane (0 point, 1 traversal, 2 analytics, 3 write) or
    /// [`NO_LANE`].
    pub lane: u8,
    /// Interned label code (see [`label`]); 0 = none.
    pub code: u16,
    /// Recorder thread id (see the `threads` list in a snapshot).
    pub tid: u32,
    /// Request id (or chaos tag for `Retry`/`FaultFired`).
    pub id: u64,
    /// Kind-specific argument.
    pub arg: u64,
}

/// One thread's ring: a single-writer array of event slots plus a
/// monotonically increasing event counter. Writers store the four words
/// relaxed and publish with a release store of the counter; readers
/// acquire-load the counter, copy slots, then re-read the counter and drop
/// anything that may have been overwritten meanwhile.
struct Ring {
    slots: Box<[AtomicU64]>,
    capacity: usize,
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let slots = (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect();
        Ring {
            slots,
            capacity,
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, words: [u64; WORDS]) {
        let i = self.head.load(Ordering::Relaxed);
        let base = (i as usize % self.capacity) * WORDS;
        for (off, w) in words.iter().enumerate() {
            self.slots[base + off].store(*w, Ordering::Relaxed);
        }
        self.head.store(i + 1, Ordering::Release);
    }

    /// Copy out the currently-held events as (index, words) pairs, dropping
    /// any entry that a concurrent writer may have overwritten mid-read.
    fn read(&self) -> (Vec<[u64; WORDS]>, u64) {
        let h1 = self.head.load(Ordering::Acquire);
        let start = h1.saturating_sub(self.capacity as u64);
        let mut out = Vec::with_capacity((h1 - start) as usize);
        for i in start..h1 {
            let base = (i as usize % self.capacity) * WORDS;
            let words = std::array::from_fn(|off| self.slots[base + off].load(Ordering::Relaxed));
            out.push((i, words));
        }
        // Entries older than h2 - capacity may have been overwritten while
        // we were copying; drop them so the snapshot has no torn events.
        let h2 = self.head.load(Ordering::Acquire);
        let safe_start = h2.saturating_sub(self.capacity as u64);
        let events = out
            .into_iter()
            .filter(|(i, _)| *i >= safe_start)
            .map(|(_, w)| w)
            .collect();
        (events, h2.saturating_sub(self.capacity as u64))
    }
}

type ThreadEntry = (u32, String, Arc<Ring>);

fn registry() -> &'static Mutex<Vec<ThreadEntry>> {
    static REG: OnceLock<Mutex<Vec<ThreadEntry>>> = OnceLock::new();
    REG.get_or_init(Default::default)
}

fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("GRAPHBIG_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c: &usize| c > 0)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static RECORDING: AtomicBool = AtomicBool::new(true);
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: std::cell::RefCell<Option<(u32, Arc<Ring>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Microseconds since the process-wide monotonic epoch (fixed at the first
/// call), the timebase of every recorded event.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Mint a process-unique request id (starts at 1; 0 means "untraced").
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Pause recording (one relaxed store). Events recorded while paused are
/// dropped at the gate — this is the baseline the overhead bench compares
/// against.
pub fn pause() {
    RECORDING.store(false, Ordering::Relaxed);
}

/// Resume recording after [`pause`]. Recording is on by default.
pub fn resume() {
    RECORDING.store(true, Ordering::Relaxed);
}

/// True when events are being recorded.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Record one event with full addressing: lane, interned label code,
/// request id, and argument.
#[inline]
pub fn record_full(kind: EventKind, lane: u8, code: u16, id: u64, arg: u64) {
    if !recording() {
        return;
    }
    let header = ((kind as u64) << 56) | ((lane as u64) << 48) | ((code as u64) << 32);
    let ts = now_us();
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, ring) = slot.get_or_insert_with(register_thread);
        ring.push([ts, header | *tid as u64, id, arg]);
    });
}

/// Record an event with no lane and no label code.
#[inline]
pub fn record(kind: EventKind, id: u64, arg: u64) {
    record_full(kind, NO_LANE, 0, id, arg);
}

/// Record a lane-scoped event (request lifecycle stages).
#[inline]
pub fn record_lane(kind: EventKind, lane: u8, id: u64, arg: u64) {
    record_full(kind, lane, 0, id, arg);
}

/// An open phase; records the closing [`EventKind::PhaseEnd`] when dropped.
#[must_use = "a phase measures the scope it is bound to; bind it to a variable"]
#[derive(Debug)]
pub struct Phase {
    code: u16,
    /// Payload given at close (0 = keep the one given at open).
    end_arg: u64,
}

/// Open a phase on the calling thread. `code` is the phase name,
/// [`intern`]ed once by the call site (interning locks and scans, so it
/// must not run per call); `arg` is the phase's one numeric payload.
#[inline]
pub fn phase(code: u16, arg: u64) -> Phase {
    record_full(EventKind::PhaseBegin, NO_LANE, code, 0, arg);
    Phase { code, end_arg: 0 }
}

impl Phase {
    /// Close the phase now with `arg` as its payload, for a count only the
    /// finished work knows (open it with 0). A non-zero `arg` replaces the
    /// payload the phase was opened with.
    #[inline]
    pub fn close_with(mut self, arg: u64) {
        self.end_arg = arg;
    }
}

impl Drop for Phase {
    #[inline]
    fn drop(&mut self) {
        record_full(EventKind::PhaseEnd, NO_LANE, self.code, 0, self.end_arg);
    }
}

fn register_thread() -> (u32, Arc<Ring>) {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    let ring = Arc::new(Ring::new(capacity()));
    registry()
        .lock()
        .unwrap()
        .push((tid, name, Arc::clone(&ring)));
    (tid, ring)
}

/// Label interning: small site-name table shared by all dumps. Codes are
/// 1-based; 0 means "no label".
fn labels() -> &'static Mutex<Vec<String>> {
    static LABELS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    LABELS.get_or_init(Default::default)
}

/// Intern `label` and return its code (idempotent; linear scan over a small
/// table, called off the hot path — e.g. once per fired fault).
pub fn intern(label: &str) -> u16 {
    let mut table = labels().lock().unwrap();
    if let Some(pos) = table.iter().position(|l| l == label) {
        return (pos + 1) as u16;
    }
    table.push(label.to_string());
    table.len() as u16
}

/// Resolve an interned code back to its label (None for 0 or unknown).
pub fn label(code: u16) -> Option<String> {
    if code == 0 {
        return None;
    }
    labels().lock().unwrap().get(code as usize - 1).cloned()
}

/// A non-destructive snapshot of every thread's ring.
#[derive(Debug, Clone, Default)]
pub struct RecorderSnapshot {
    /// All captured events, ascending by timestamp.
    pub events: Vec<RecorderEvent>,
    /// `(tid, thread name)` for every thread that ever recorded.
    pub threads: Vec<(u32, String)>,
    /// The interned label table (code `i+1` = `labels[i]`).
    pub labels: Vec<String>,
    /// Events lost to ring wraparound across all threads.
    pub evicted: u64,
}

fn decode(words: [u64; WORDS]) -> Option<RecorderEvent> {
    let kind = EventKind::from_u8((words[1] >> 56) as u8)?;
    Some(RecorderEvent {
        ts_us: words[0],
        kind,
        lane: (words[1] >> 48) as u8,
        code: (words[1] >> 32) as u16,
        tid: words[1] as u32,
        id: words[2],
        arg: words[3],
    })
}

/// Snapshot every ring without draining it. Tolerant of concurrent
/// writers: events that may have been overwritten mid-read are dropped and
/// counted in `evicted` on the next snapshot.
pub fn snapshot() -> RecorderSnapshot {
    let reg = registry().lock().unwrap();
    let mut snap = RecorderSnapshot {
        labels: labels().lock().unwrap().clone(),
        ..Default::default()
    };
    for (tid, name, ring) in reg.iter() {
        let (raw, evicted) = ring.read();
        if !raw.is_empty() || evicted > 0 {
            snap.threads.push((*tid, name.clone()));
        }
        snap.evicted += evicted;
        snap.events.extend(raw.into_iter().filter_map(decode));
    }
    snap.events.sort_by_key(|e| (e.ts_us, e.id));
    snap
}

/// Convert a snapshot to a [`Trace`] for Chrome export: per-request queue /
/// exec / resolve spans placed on the executor's track; each traced
/// request's [`EventKind::KernelStep`] as a `kernel.step` span lasting
/// until its next step or its [`EventKind::Run`], so supersteps sit inside
/// `engine.exec`; phases as spans named by their label, paired begin-to-end
/// as a stack per recording thread (they carry id 0, so pairing by id would
/// merge unrelated runs; a half whose partner was lost to ring wrap-around
/// is dropped); and everything else as instant markers on the thread that
/// recorded it.
pub fn to_trace(snap: &RecorderSnapshot) -> Trace {
    use std::collections::BTreeMap;
    let mut trace = Trace {
        events: Vec::new(),
        threads: snap.threads.clone(),
    };
    // Per-request stage timestamps for span reconstruction.
    #[derive(Default)]
    struct Stages<'a> {
        enqueue: Option<u64>,
        dequeue: Option<(u64, u32)>,
        run: Option<(u64, u32)>,
        resolve: Option<u64>,
        /// The kernel step still waiting for the event that ends it.
        step: Option<&'a RecorderEvent>,
    }
    let span = |name: String, from: &RecorderEvent, end_us: u64| Event {
        name,
        ts_us: from.ts_us,
        dur_us: Some(end_us.saturating_sub(from.ts_us)),
        tid: from.tid,
        args: vec![("req", from.id as f64), ("arg", from.arg as f64)],
    };
    let instant = |e: &RecorderEvent| Event {
        dur_us: None,
        ..span(e.kind.name().into(), e, e.ts_us)
    };
    let mut stages: BTreeMap<u64, Stages> = BTreeMap::new();
    let mut open_phases: BTreeMap<u32, Vec<&RecorderEvent>> = BTreeMap::new();
    for e in &snap.events {
        let s = stages.entry(e.id).or_default();
        if matches!(e.kind, EventKind::KernelStep | EventKind::Run) {
            if let Some(step) = s.step.take() {
                trace.events.push(span("kernel.step".into(), step, e.ts_us));
            }
        }
        match e.kind {
            EventKind::Enqueue => s.enqueue = Some(e.ts_us),
            EventKind::Dequeue => s.dequeue = Some((e.ts_us, e.tid)),
            EventKind::Run => s.run = Some((e.ts_us, e.tid)),
            EventKind::Resolve => s.resolve = Some(e.ts_us),
            EventKind::KernelStep if e.id != 0 => s.step = Some(e),
            EventKind::PhaseBegin => open_phases.entry(e.tid).or_default().push(e),
            EventKind::PhaseEnd => {
                let open = open_phases.entry(e.tid).or_default();
                if let Some(depth) = open.iter().rposition(|b| b.code == e.code) {
                    // Codes are 1-based; 0 wraps out of range and gets the fallback.
                    let name = snap.labels.get((e.code as usize).wrapping_sub(1));
                    let name = name.cloned().unwrap_or_else(|| "phase".into());
                    let mut phase = span(name, open[depth], e.ts_us);
                    if e.arg != 0 {
                        phase.args[1].1 = e.arg as f64; // payload given at close
                    }
                    trace.events.push(phase);
                    open.truncate(depth);
                }
            }
            _ => trace.events.push(instant(e)),
        }
    }
    for (id, s) in &stages {
        // A step nothing ended yet (the request is still inside its kernel)
        // stays visible as a marker.
        trace.events.extend(s.step.map(instant));
        let mut stage = |name: &str, ts_us: u64, end_us: u64, tid| {
            trace.events.push(Event {
                name: name.into(),
                ts_us,
                dur_us: Some(end_us.saturating_sub(ts_us)),
                tid,
                args: vec![("req", *id as f64)],
            });
        };
        if let (Some(enq), Some((deq, tid))) = (s.enqueue, s.dequeue) {
            stage("engine.queue", enq, deq, tid);
        }
        if let (Some((deq, tid)), Some((run, _))) = (s.dequeue, s.run) {
            stage("engine.exec", deq, run, tid);
        }
        if let (Some((run, tid)), Some(res)) = (s.run, s.resolve) {
            stage("engine.resolve", run, res, tid);
        }
    }
    trace.events.sort_by_key(|e| e.ts_us);
    trace
}

const LANE_NAMES: [&str; 4] = ["point", "traversal", "analytics", "write"];

/// Render a snapshot as the dump JSON document.
pub fn to_json(snap: &RecorderSnapshot, reason: &str) -> String {
    let events = snap
        .events
        .iter()
        .map(|e| {
            let b = ObjBuilder::new()
                .push("ts_us", Json::Num(e.ts_us as f64))
                .push("kind", Json::Str(e.kind.name().into()))
                .push("tid", Json::Num(e.tid as f64))
                .push("id", Json::Num(e.id as f64))
                .push("arg", Json::Num(e.arg as f64));
            let b = if (e.lane as usize) < LANE_NAMES.len() {
                b.push("lane", Json::Str(LANE_NAMES[e.lane as usize].into()))
            } else {
                b
            };
            let b = match label(e.code) {
                Some(site) => b.push("site", Json::Str(site)),
                None => b,
            };
            b.build()
        })
        .collect();
    ObjBuilder::new()
        .push("schema", Json::Str(DUMP_SCHEMA.into()))
        .push("reason", Json::Str(reason.into()))
        .push("captured_events", Json::Num(snap.events.len() as f64))
        .push("evicted", Json::Num(snap.evicted as f64))
        .push(
            "threads",
            Json::Arr(
                snap.threads
                    .iter()
                    .map(|(tid, name)| {
                        ObjBuilder::new()
                            .push("tid", Json::Num(*tid as f64))
                            .push("name", Json::Str(name.clone()))
                            .build()
                    })
                    .collect(),
            ),
        )
        .push(
            "labels",
            Json::Arr(snap.labels.iter().cloned().map(Json::Str).collect()),
        )
        .push("events", Json::Arr(events))
        .build()
        .to_pretty()
}

/// Write a dump of the current snapshot to `path`.
pub fn dump_to(path: &str, reason: &str) -> std::io::Result<()> {
    std::fs::write(path, to_json(&snapshot(), reason))
}

fn dump_path() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(Default::default)
}

/// Set the process-wide destination [`auto_dump`] writes to (overrides the
/// `GRAPHBIG_FLIGHT_DUMP` environment variable and the default
/// `flight_recorder_dump.json`).
pub fn set_auto_dump_path(path: &str) {
    *dump_path().lock().unwrap() = Some(path.to_string());
}

/// Dump the flight recorder to the configured path: the
/// [`set_auto_dump_path`] override, else `GRAPHBIG_FLIGHT_DUMP`, else
/// `flight_recorder_dump.json` in the working directory. Returns the path
/// written, or `None` when the write failed (a failing post-mortem dump
/// must never mask the original failure).
pub fn auto_dump(reason: &str) -> Option<String> {
    let path = dump_path()
        .lock()
        .unwrap()
        .clone()
        .or_else(|| std::env::var("GRAPHBIG_FLIGHT_DUMP").ok())
        .unwrap_or_else(|| "flight_recorder_dump.json".to_string());
    dump_to(&path, reason).ok().map(|_| path)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; every test filters by its own
    // freshly-minted ids so parallel tests cannot interfere.

    #[test]
    fn events_round_trip_through_the_ring() {
        resume();
        let id = next_request_id();
        record_lane(EventKind::Admit, 1, id, 77);
        record(EventKind::KernelStep, id, 3);
        let snap = snapshot();
        let mine: Vec<_> = snap.events.iter().filter(|e| e.id == id).collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, EventKind::Admit);
        assert_eq!(mine[0].lane, 1);
        assert_eq!(mine[0].arg, 77);
        assert_eq!(mine[1].kind, EventKind::KernelStep);
        assert_eq!(mine[1].lane, NO_LANE);
        assert!(mine[1].ts_us >= mine[0].ts_us);
        // Snapshots are non-destructive.
        let again = snapshot();
        assert_eq!(again.events.iter().filter(|e| e.id == id).count(), 2);
    }

    #[test]
    fn paused_recorder_drops_events() {
        let id = next_request_id();
        pause();
        record(EventKind::Admit, id, 0);
        resume();
        record(EventKind::Enqueue, id, 0);
        let snap = snapshot();
        let mine: Vec<_> = snap.events.iter().filter(|e| e.id == id).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].kind, EventKind::Enqueue);
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_events() {
        // A dedicated thread gets its own ring; overflow it.
        resume();
        let base = next_request_id();
        let cap = capacity() as u64;
        let handle = std::thread::spawn(move || {
            for i in 0..cap + 10 {
                record(EventKind::KernelStep, base, i);
            }
        });
        handle.join().unwrap();
        let snap = snapshot();
        let mine: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.id == base && e.kind == EventKind::KernelStep)
            .collect();
        assert_eq!(mine.len() as u64, cap, "ring holds exactly capacity");
        assert!(mine.iter().any(|e| e.arg == cap + 9), "newest kept");
        assert!(mine.iter().all(|e| e.arg >= 10), "oldest evicted");
        assert!(snap.evicted >= 10);
    }

    #[test]
    fn interned_labels_resolve() {
        let code = intern("unit.test.site");
        assert_eq!(intern("unit.test.site"), code, "idempotent");
        assert_eq!(label(code).as_deref(), Some("unit.test.site"));
        assert_eq!(label(0), None);
    }

    #[test]
    fn lifecycle_events_become_chrome_spans() {
        resume();
        let id = next_request_id();
        record_lane(EventKind::Admit, 0, id, 5);
        record_lane(EventKind::Enqueue, 0, id, 1);
        record_lane(EventKind::Dequeue, 0, id, 12);
        record_lane(EventKind::Run, 0, id, 0);
        record_lane(EventKind::Resolve, 0, id, 0);
        let mut snap = snapshot();
        snap.events.retain(|e| e.id == id);
        let trace = to_trace(&snap);
        let spans: Vec<_> = trace.events.iter().filter(|e| e.dur_us.is_some()).collect();
        let names: Vec<_> = spans.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"engine.queue"), "{names:?}");
        assert!(names.contains(&"engine.exec"), "{names:?}");
        assert!(names.contains(&"engine.resolve"), "{names:?}");
        // Admit stays an instant marker.
        assert!(trace
            .events
            .iter()
            .any(|e| e.name == "admit" && e.dur_us.is_none()));
        // The Chrome exporter accepts it.
        let chrome = crate::chrome::to_chrome_json(&trace);
        assert!(chrome.contains("engine.queue"));
    }

    /// A hand-built event for the pure `to_trace` tests below.
    fn ev(ts_us: u64, kind: EventKind, tid: u32, code: u16, id: u64, arg: u64) -> RecorderEvent {
        RecorderEvent {
            ts_us,
            kind,
            lane: NO_LANE,
            code,
            tid,
            id,
            arg,
        }
    }

    /// `(name, start, duration, tid, arg)` of every span `to_trace` makes of
    /// `events`, with labels `a` = code 1 and `b` = code 2.
    fn spans_of(events: Vec<RecorderEvent>) -> Vec<(String, u64, u64, u32, f64)> {
        let snap = RecorderSnapshot {
            events,
            labels: vec!["a".into(), "b".into()],
            ..Default::default()
        };
        to_trace(&snap)
            .events
            .into_iter()
            .filter_map(|e| Some((e.name, e.ts_us, e.dur_us?, e.tid, e.args[1].1)))
            .collect()
    }

    #[test]
    fn recorded_phases_pair_into_nested_and_sibling_spans() {
        resume();
        let [outer, inner, sibling] = ["unit.outer", "unit.inner", "unit.sibling"].map(intern);
        {
            let _outer = phase(outer, 7);
            drop(phase(inner, 1));
            phase(sibling, 0).close_with(2);
        }
        let mut snap = snapshot();
        snap.events
            .retain(|e| [outer, inner, sibling].contains(&e.code));
        assert_eq!(snap.events.len(), 6, "a begin and an end per phase");
        let trace = to_trace(&snap);
        let span = |name: &str| {
            let e = trace.events.iter().find(|e| e.name == name).unwrap();
            (e.ts_us, e.ts_us + e.dur_us.expect("a span"), e.args[1].1)
        };
        let (o, i, s) = (span("unit.outer"), span("unit.inner"), span("unit.sibling"));
        assert_eq!(
            (o.2, i.2, s.2),
            (7.0, 1.0, 2.0),
            "arg is the payload, given at open or at close"
        );
        assert!(o.0 <= i.0 && i.1 <= s.0 && s.1 <= o.1, "{o:?} {i:?} {s:?}");
        assert_eq!(trace.events.len(), 3, "nothing but the three spans");
    }

    #[test]
    fn phases_pair_as_a_stack_per_thread() {
        use EventKind::{PhaseBegin as B, PhaseEnd as E};
        // Thread 0 nests b inside a while thread 1 runs its own a: by id
        // (all 0) or by name alone these would cross-pair.
        let spans = spans_of(vec![
            ev(10, B, 0, 1, 0, 5),
            ev(11, B, 1, 1, 0, 6),
            ev(12, B, 0, 2, 0, 0),
            ev(13, E, 1, 1, 0, 0),
            ev(14, E, 0, 2, 0, 0),
            ev(15, E, 0, 1, 0, 0),
        ]);
        assert_eq!(
            spans,
            vec![
                ("a".to_string(), 10, 5, 0, 5.0),
                ("a".to_string(), 11, 2, 1, 6.0),
                ("b".to_string(), 12, 2, 0, 0.0),
            ]
        );
    }

    #[test]
    fn a_phase_half_without_its_partner_is_dropped() {
        use EventKind::{PhaseBegin as B, PhaseEnd as E};
        // Ring wrap-around evicted the begin of the first `a` and the end of
        // the inner `b`; only the intact `a` survives, and the orphan end
        // does not steal a later begin.
        let spans = spans_of(vec![
            ev(10, E, 0, 1, 0, 0),
            ev(20, B, 0, 1, 0, 3),
            ev(21, B, 0, 2, 0, 0),
            ev(30, E, 0, 1, 0, 0),
            ev(40, B, 0, 2, 0, 0),
        ]);
        assert_eq!(spans, vec![("a".to_string(), 20, 10, 0, 3.0)]);
    }

    #[test]
    fn kernel_steps_become_spans_until_the_next_step_or_run() {
        use EventKind::{KernelStart, KernelStep, Run};
        let spans = spans_of(vec![
            ev(10, KernelStart, 3, 0, 9, 0),
            ev(12, KernelStep, 3, 0, 9, 1),
            ev(20, KernelStep, 3, 0, 9, 64),
            ev(35, Run, 3, 0, 9, 0),
        ]);
        assert_eq!(
            spans,
            vec![
                ("kernel.step".to_string(), 12, 8, 3, 1.0),
                ("kernel.step".to_string(), 20, 15, 3, 64.0),
            ]
        );
        // An untraced step (id 0) and a step nothing ended yet stay markers.
        let markers = vec![ev(1, KernelStep, 0, 0, 0, 5), ev(3, KernelStep, 0, 0, 4, 7)];
        assert!(spans_of(markers.clone()).is_empty());
        let snap = RecorderSnapshot {
            events: markers,
            ..Default::default()
        };
        assert_eq!(to_trace(&snap).events.len(), 2);
    }

    #[test]
    fn dump_json_is_valid_and_labelled() {
        resume();
        let id = next_request_id();
        let code = intern("dump.test.site");
        record_full(EventKind::FaultFired, NO_LANE, code, id, 2);
        let snap = snapshot();
        let text = to_json(&snap, "unit-test");
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(DUMP_SCHEMA));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("unit-test"));
        let events = doc.get("events").unwrap().as_arr().unwrap();
        let mine = events
            .iter()
            .find(|e| e.get("id").and_then(Json::as_u64) == Some(id))
            .expect("fault event in dump");
        assert_eq!(mine.get("kind").unwrap().as_str(), Some("fault_fired"));
        assert_eq!(mine.get("site").unwrap().as_str(), Some("dump.test.site"));
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(a > 0 && b > a);
    }
}
