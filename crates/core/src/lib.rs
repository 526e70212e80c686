//! # graphbig
//!
//! GraphBIG-RS: a Rust reproduction of *GraphBIG: Understanding Graph
//! Computing in the Context of Industrial Solutions* (SC '15) — the
//! System-G-inspired benchmark suite plus the CPU/GPU architecture models
//! that regenerate the paper's characterization figures.
//!
//! This umbrella crate re-exports every subsystem:
//!
//! * [`framework`] — dynamic vertex-centric property graph, CSR/COO, tracing
//! * [`datagen`] — the five Table 5/7 datasets plus DAG/Bayesian inputs
//! * [`machine`] — CPU model (caches, DTLB, branch predictor, top-down cycles)
//! * [`simt`] — GPU model (warp divergence, coalescing, throughput)
//! * [`runtime`] — thread pool, parallel-for, cancellation
//! * [`workloads`] — the 13 CPU workloads (Table 4)
//! * [`engine`] — sharded, admission-controlled concurrent query engine
//! * [`gpu`] — the 8 GPU workloads
//! * [`profile`] — reports and paper reference values
//! * [`telemetry`] — always-on flight recorder, metrics, run manifests
//! * [`chaos`] — deterministic fault-injection failpoints (the `chaos`
//!   feature compiles injection sites into the runtime and engine)
//!
//! ```
//! use graphbig::prelude::*;
//!
//! let g = Dataset::Ldbc.generate_with_vertices(1_000);
//! let csr = Csr::from_graph(&g);
//! assert_eq!(csr.num_vertices(), 1_000);
//! ```

#![warn(missing_docs)]

pub use graphbig_chaos as chaos;
pub use graphbig_datagen as datagen;
pub use graphbig_engine as engine;
pub use graphbig_framework as framework;
pub use graphbig_gpu as gpu;
pub use graphbig_machine as machine;
pub use graphbig_profile as profile;
pub use graphbig_runtime as runtime;
pub use graphbig_simt as simt;
pub use graphbig_telemetry as telemetry;
pub use graphbig_workloads as workloads;

/// One-stop import for applications and examples.
pub mod prelude {
    pub use graphbig_datagen::{Dataset, DatasetSpec};
    pub use graphbig_framework::prelude::*;
    pub use graphbig_machine::{CoreModel, CpuConfig, PerfCounters};
    pub use graphbig_runtime::ThreadPool;
    pub use graphbig_simt::{GpuConfig, GpuMetrics};
    pub use graphbig_workloads::prelude::*;
}
