//! Uniform run wiring: one entry point that executes any [`Workload`] on a
//! dataset graph under any tracer — the glue the figure binaries use.
//!
//! Per-workload input conventions (matching the paper's methodology):
//!
//! * traversal/analytics workloads run on the dataset graph as-is;
//! * `GCons` rebuilds the dataset graph through framework insertions;
//! * `GUp` deletes a deterministic random sample of vertices;
//! * `TMorph` first orients the dataset's arcs into a DAG (low-to-high
//!   position), then moralizes it;
//! * `Gibbs` always runs on the MUNIN-shaped Bayesian network (Section 5.1:
//!   "because of the special computation requirement of Gibbs Inference
//!   workload, the bayesian network MUNIN is used").

use graphbig_datagen::bayes::{self, BayesConfig};
use graphbig_framework::property::keys;
use graphbig_framework::trace::Tracer;
use graphbig_framework::{PropertyGraph, VertexId};
use graphbig_telemetry::recorder;

use crate::registry::Workload;
use crate::{bcentr, bfs, ccomp, dcentr, dfs, gcolor, gcons, gibbs, gup, kcore, spath, tc, tmorph};

/// Tunable parameters of a harness run.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Preferred traversal source (falls back to the first vertex).
    pub source: Option<VertexId>,
    /// Brandes source-sample size.
    pub bcentr_sources: usize,
    /// Gibbs sweeps over the network.
    pub gibbs_sweeps: usize,
    /// Scale of the Gibbs Bayesian network (1.0 = MUNIN's 1041 vertices).
    pub gibbs_scale: f64,
    /// Fraction of vertices GUp deletes.
    pub gup_fraction: f64,
    /// Seed for stochastic pieces (victim sampling, Gibbs).
    pub seed: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            source: None,
            bcentr_sources: 8,
            gibbs_sweeps: 3,
            gibbs_scale: 1.0,
            gup_fraction: 0.05,
            seed: 0x6b1f,
        }
    }
}

/// Summary of one workload execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Headline result (visited vertices, components, triangles, ...).
    pub primary_metric: f64,
    /// Human-readable result description.
    pub description: String,
}

/// Slots of [`phase_codes`] after the per-workload ones: `harness.kernel`
/// (one uniform name for cross-workload aggregation) and `harness.prep`
/// (input shaping that is not the workload's own work).
const KERNEL: usize = Workload::ALL.len();
const PREP: usize = KERNEL + 1;

/// Flight-recorder phase names, interned once for the process: each
/// workload's short name at `Workload as usize`, then the two above.
fn phase_codes() -> &'static [u16; PREP + 1] {
    static CODES: std::sync::OnceLock<[u16; PREP + 1]> = std::sync::OnceLock::new();
    CODES.get_or_init(|| {
        let mut codes = [0; PREP + 1];
        for w in Workload::ALL {
            codes[w as usize] = recorder::intern(w.short_name());
        }
        codes[KERNEL] = recorder::intern("harness.kernel");
        codes[PREP] = recorder::intern("harness.prep");
        codes
    })
}

/// Execute `w` on `g` under tracer `t`.
///
/// `g` is consumed conceptually: workloads mutate properties and `GUp`
/// mutates structure — pass a freshly generated graph per run (as the
/// paper's per-experiment runs do).
pub fn run_traced<T: Tracer>(
    w: Workload,
    g: &mut PropertyGraph,
    params: &RunParams,
    t: &mut T,
) -> RunOutcome {
    let source = params
        .source
        .filter(|&s| g.find_vertex(s).is_some())
        .or_else(|| g.vertex_ids().first().copied())
        .unwrap_or(0);
    // Two nested phases: the uniform `harness.kernel` (arg = vertices) and
    // the workload's short name for trace readability.
    let codes = phase_codes();
    let _kernel = recorder::phase(codes[KERNEL], g.num_vertices() as u64);
    let _named = recorder::phase(codes[w as usize], 0);
    match w {
        Workload::Bfs => {
            g.clear_prop(keys::STATUS);
            let r = bfs::run_t(g, source, t);
            outcome(
                w,
                r.visited as f64,
                format!("visited {} (depth {})", r.visited, r.max_level),
            )
        }
        Workload::Dfs => {
            g.clear_prop(keys::STATUS);
            let r = dfs::run_t(g, source, t);
            outcome(
                w,
                r.visited as f64,
                format!("visited {} (max depth {})", r.visited, r.max_depth),
            )
        }
        Workload::GCons => {
            let prep = recorder::phase(codes[PREP], 0);
            let n = g.num_vertices();
            let dense: std::collections::HashMap<VertexId, u64> = g
                .vertex_ids()
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u64))
                .collect();
            let edges: Vec<(u64, u64, f32)> = g
                .arcs()
                .map(|(u, e)| (dense[&u], dense[&e.target], e.weight))
                .collect();
            drop(prep);
            let (_, r) = gcons::run_t(n, &edges, t);
            outcome(
                w,
                r.arcs as f64,
                format!("built {} vertices / {} arcs", r.vertices, r.arcs),
            )
        }
        Workload::GUp => {
            let count = ((g.num_vertices() as f64 * params.gup_fraction) as usize).max(1);
            let victims = gup::pick_victims(g, count, params.seed);
            let r = gup::run_t(g, &victims, t);
            outcome(
                w,
                r.deleted_vertices as f64,
                format!(
                    "deleted {} vertices / {} arcs",
                    r.deleted_vertices, r.deleted_arcs
                ),
            )
        }
        Workload::TMorph => {
            let dag = {
                let _prep = recorder::phase(codes[PREP], 0);
                orient_to_dag(g)
            };
            let (_, r) = tmorph::run_t(&dag, t);
            outcome(
                w,
                r.moral_edges as f64,
                format!(
                    "moral graph: {} edges ({} marriages)",
                    r.moral_edges, r.marriages
                ),
            )
        }
        Workload::SPath => {
            g.clear_prop(keys::DISTANCE);
            let r = spath::run_t(g, source, t);
            outcome(
                w,
                r.reached as f64,
                format!("reached {} (max dist {:.2})", r.reached, r.max_distance),
            )
        }
        Workload::KCore => {
            g.clear_prop(keys::CORE);
            let r = kcore::run_t(g, t);
            outcome(
                w,
                r.max_core as f64,
                format!("degeneracy {} (core size {})", r.max_core, r.max_core_size),
            )
        }
        Workload::CComp => {
            g.clear_prop(keys::COMPONENT);
            let r = ccomp::run_t(g, t);
            outcome(
                w,
                r.components as f64,
                format!("{} components (largest {})", r.components, r.largest),
            )
        }
        Workload::GColor => {
            g.clear_prop(keys::COLOR);
            let r = gcolor::run_t(g, t);
            outcome(
                w,
                r.colors as f64,
                format!("{} colors in {} rounds", r.colors, r.rounds),
            )
        }
        Workload::Tc => {
            g.clear_prop(keys::TRIANGLES);
            let r = tc::run_t(g, t);
            outcome(w, r.triangles as f64, format!("{} triangles", r.triangles))
        }
        Workload::Gibbs => {
            let cfg = if (params.gibbs_scale - 1.0).abs() < 1e-9 {
                BayesConfig::munin_like()
            } else {
                BayesConfig::with_vertices((1041.0 * params.gibbs_scale) as usize)
            };
            let mut net = {
                let _prep = recorder::phase(codes[PREP], 0);
                bayes::generate(&cfg)
            };
            let r = gibbs::run_t(&mut net, params.gibbs_sweeps, params.seed, t);
            outcome(
                w,
                r.samples as f64,
                format!("{} samples (flip rate {:.2})", r.samples, r.flip_rate),
            )
        }
        Workload::DCentr => {
            g.clear_prop(keys::CENTRALITY);
            let r = dcentr::run_t(g, t);
            outcome(
                w,
                r.max_centrality,
                format!("max centrality {:.4} at {}", r.max_centrality, r.max_vertex),
            )
        }
        Workload::BCentr => {
            g.clear_prop(keys::CENTRALITY);
            let r = bcentr::run_t(g, params.bcentr_sources, t);
            outcome(
                w,
                r.max_centrality,
                format!(
                    "max betweenness {:.1} at {} ({} sources)",
                    r.max_centrality, r.max_vertex, r.sources_used
                ),
            )
        }
    }
}

fn outcome(workload: Workload, primary_metric: f64, description: String) -> RunOutcome {
    RunOutcome {
        workload,
        primary_metric,
        description,
    }
}

/// Orient a graph's arcs into a DAG by keeping only arcs that go forward in
/// the deterministic vertex order (deduplicated).
pub fn orient_to_dag(g: &PropertyGraph) -> PropertyGraph {
    let pos: std::collections::HashMap<VertexId, usize> = g
        .vertex_ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let mut dag = PropertyGraph::with_capacity(g.num_vertices());
    for &id in g.vertex_ids() {
        dag.add_vertex_with_id(id).expect("unique ids");
    }
    for (u, e) in g.arcs() {
        if pos[&u] < pos[&e.target] && !dag.has_edge(u, e.target) {
            dag.add_edge(u, e.target, e.weight)
                .expect("endpoints exist");
        }
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::Dataset;
    use graphbig_framework::trace::{CountingTracer, NullTracer};

    #[test]
    fn every_workload_runs_on_a_small_ldbc_graph() {
        let params = RunParams {
            gibbs_scale: 0.1,
            ..Default::default()
        };
        for w in Workload::ALL {
            let mut g = Dataset::Ldbc.generate_with_vertices(300);
            let mut t = CountingTracer::new();
            let out = run_traced(w, &mut g, &params, &mut t);
            assert_eq!(out.workload, w);
            assert!(t.instructions() > 0, "{w} traced nothing");
            assert!(!out.description.is_empty());
        }
    }

    #[test]
    fn orient_to_dag_is_acyclic_and_lossy_only_backward() {
        let g = Dataset::Ldbc.generate_with_vertices(200);
        let dag = orient_to_dag(&g);
        assert!(graphbig_datagen::dag::is_acyclic(&dag));
        assert!(dag.num_arcs() <= g.num_arcs());
        assert!(dag.num_arcs() > 0);
    }

    #[test]
    fn traversal_source_falls_back_to_first_vertex() {
        let mut g = Dataset::CaRoad.generate_with_vertices(100);
        let params = RunParams {
            source: Some(999_999),
            ..Default::default()
        };
        let out = run_traced(Workload::Bfs, &mut g, &params, &mut NullTracer);
        assert!(out.primary_metric >= 1.0, "fell back and visited something");
    }

    #[test]
    fn gup_respects_fraction() {
        let mut g = Dataset::Ldbc.generate_with_vertices(200);
        let params = RunParams {
            gup_fraction: 0.10,
            ..Default::default()
        };
        let out = run_traced(Workload::GUp, &mut g, &params, &mut NullTracer);
        assert_eq!(out.primary_metric, 20.0);
        assert_eq!(g.num_vertices(), 180);
    }

    #[test]
    fn framework_time_dominates_traversal() {
        let mut g = Dataset::Ldbc.generate_with_vertices(400);
        let mut t = CountingTracer::new();
        run_traced(Workload::Bfs, &mut g, &RunParams::default(), &mut t);
        assert!(t.framework_fraction() > 0.6, "{}", t.framework_fraction());
    }
}
