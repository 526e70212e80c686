//! # graphbig-bench
//!
//! Figure/table regeneration binaries, ablation studies, and four
//! wall-clock bench targets on the in-tree [`timing`] loop (median ± MAD,
//! no criterion): `mutation`, `batching`, `frontier`, `chaos_overhead` —
//! the ones a gate or a doc reads; per-layer serving numbers belong to
//! the standalone `benchmark/` package. Binaries and benches report
//! through one [`harness::Reporter`], so every `--emit` is the same run
//! manifest and `graphbig-report` reads them all.
//!
//! ## Binaries (`cargo run --release -p graphbig-bench --bin <name>`)
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig01_framework_time` | Figure 1: in-framework execution time |
//! | `fig01b_primitives` | Figure 1 companion: per-primitive breakdown |
//! | `fig04_use_cases` | Figure 4: use-case analysis |
//! | `fig05_breakdown` | Figure 5: cycle breakdown |
//! | `fig06_core` | Figure 6: DTLB / ICache / branch |
//! | `fig07_cache` | Figure 7: cache MPKI |
//! | `fig08_comptype` | Figure 8: per-computation-type averages |
//! | `fig09_data_sensitivity` | Figure 9: CPU data sensitivity |
//! | `fig10_divergence` | Figure 10: GPU BDR/MDR scatter |
//! | `fig11_throughput` | Figure 11: GPU throughput + IPC |
//! | `fig12_speedup` | Figure 12: GPU vs 16-core CPU |
//! | `fig13_data_divergence` | Figure 13: divergence across datasets |
//! | `table4_workloads`, `table5_datasets`, `table6_machines` | Tables 4–7 |
//! | `ablation_representation` | CSR vs vertex-centric cost |
//! | `ablation_predictor` | tournament vs gshare vs bimodal |
//! | `ablation_gpu_l2` | device L2 on/off |
//! | `ablation_cache_sweep` | L3 capacity sweep over a recorded trace |
//! | `ablation_ndp` | near-data-processing future-work model |
//! | `diag_branch_sites` | per-site branch-miss diagnostic |
//! | `graphbig-report` | diff/inspect/check `--emit` run manifests |
//!
//! `scripts/figures.sh` runs every `table*` / `fig*` / `ablation_*`
//! binary at its default scale into `results/figures.txt`.
//!
//! All figure binaries accept `--scale <f>` (dataset size as a fraction of
//! the paper's Table 7 experiment sizes) plus the common reporting flags
//! parsed by [`harness::Reporter`]: `--emit <path>` (write a
//! [`RunManifest`](graphbig::telemetry::RunManifest) JSON), `--trace
//! <path>` (write a Chrome `trace_event` JSON of the recorded spans), and
//! `--quiet` (suppress stdout tables; they still land in the manifest).

pub mod cpu_char;
pub mod gpu_char;
pub mod harness;
pub mod timing;
