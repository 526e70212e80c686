//! Flight-recorder overhead benchmark: the always-on claim, measured.
//!
//! The flight recorder has no feature gate — every build records lifecycle
//! events into per-thread rings. This bench prices that decision on the
//! heaviest per-event producer: a traced kernel (direction-optimizing BFS
//! over LDBC at 2^16 vertices) whose cancel token carries a request id, so
//! every cooperative cancel check drops a `kernel_step` event.
//!
//! * `recorder_on` — recording (the production default): each event is
//!   four relaxed stores plus a release bump of the ring head.
//! * `recorder_paused` — the runtime gate closed: one relaxed load per
//!   event site, the floor the recording path is compared against.
//!
//! Baseline numbers live in `results/BENCH_flight_recorder.json`. The
//! difference is inside this box's run-to-run noise (6.5 / −5.7 / 10.3 /
//! 2.7 % over four runs of one binary), so nothing asserts on it: what CI
//! gates is the event *count* per request, in
//! `crates/engine/tests/lifecycle.rs`.

use graphbig::framework::csr::{BiCsr, Csr};
use graphbig::prelude::*;
use graphbig::runtime::CancelToken;
use graphbig::telemetry::recorder;
use graphbig::workloads::parallel;
use graphbig_bench::timing::{black_box, Runner};

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(4);
    let g = Dataset::Ldbc.generate_with_vertices(1usize << 16);
    let bi = BiCsr::directed(Csr::from_graph(&g));
    let pool = ThreadPool::new(threads);

    let mut r = Runner::new("flight_recorder_overhead_ldbc_64k");

    let gates: [(&str, fn()); 2] = [("on", recorder::resume), ("paused", recorder::pause)];
    for (state, gate) in gates {
        gate();
        r.bench(&format!("bfs_dir_opt/recorder_{state}"), || {
            let token = CancelToken::new().with_trace_id(recorder::next_request_id());
            black_box(parallel::bfs_dir_opt_cancellable(&pool, &bi, 0, &token).unwrap());
        });
    }
    recorder::resume();

    r.finish();
}
