//! The four workloads. Each owns its serving state and its script, runs an
//! untimed verifying warm-up pass, then replays the script for timed passes
//! that re-check every output digest.

use std::time::Instant;

use graphbig_engine::{Engine, EngineConfig, Query, QueryOutput, QueryResponse, QueryStatus};
use graphbig_telemetry::metrics::Registry;

use crate::score::PassTimes;
use crate::script::Op;
use crate::trace::{SpanName, Tracer};

pub mod bfs_storm;
pub mod kernel_sweep;
pub mod live_rw;
pub mod point_closed;

pub const NAMES: [&str; 4] = ["kernel_sweep", "point_closed", "bfs_storm", "live_rw"];

/// One workload, ready to replay.
pub trait Bench {
    /// The script one pass replays.
    fn ops(&self) -> &[Op];

    /// Pass 0: untimed, runs every verifier and fixes the expected output
    /// digest of every op.
    fn warm_up(&mut self) -> PassTimes;

    /// One timed pass; every output is checked against its expected digest.
    fn pass(&mut self, tr: &mut Tracer) -> PassTimes;
}

/// One runnable thread: a single executor and a single pool worker, which
/// with the single client block on each other on the one pinned CPU. A
/// 2-worker pool varied +-16 % between instances on this box, a 1-worker
/// pool +-4 %.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        executors: 1,
        pool_threads: 1,
        ..EngineConfig::default()
    }
}

/// `submit().wait()` under an `op` span, timed as the client sees it.
pub fn round_trip(
    engine: &Engine,
    query: Query,
    op: usize,
    tr: &mut Tracer,
) -> (Result<QueryResponse, String>, u64) {
    tr.begin(SpanName::Op, op);
    let started = Instant::now();
    tr.begin(SpanName::EngineSubmit, op);
    let ticket = engine.submit(query);
    tr.end();
    let response = match ticket {
        Ok(ticket) => {
            tr.begin(SpanName::EngineWait, op);
            let response = ticket.wait();
            tr.queue_exec(op, response.queue_us, response.exec_us);
            tr.end();
            Ok(response)
        }
        Err(reason) => Err(format!("rejected: {reason:?}")),
    };
    let ns = started.elapsed().as_nanos() as u64;
    tr.end();
    (response, ns)
}

/// The output of a response that ran to completion.
pub fn completed(response: Result<QueryResponse, String>) -> Result<QueryOutput, String> {
    match response?.status {
        QueryStatus::Completed(output) => Ok(output),
        other => Err(format!("ended {other:?}")),
    }
}

/// Check a timed pass's output against the digest the warm-up fixed.
pub fn check_digest(pass: &mut PassTimes, op: usize, got: Result<u64, String>, want: u64) {
    match got {
        Ok(d) if d == want => {}
        Ok(d) => pass.fail(
            op,
            format!("digest {d:#x} changed from the verified {want:#x}"),
        ),
        Err(e) => pass.fail(op, e),
    }
}

/// `(count, sum)` of a histogram of `registry`.
pub fn histogram(registry: &Registry, name: &str) -> (u64, u64) {
    let snapshot = registry.histogram(name).snapshot();
    (snapshot.count, snapshot.sum)
}
