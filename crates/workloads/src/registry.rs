//! Workload metadata: Table 4 (categories and computation types) and the
//! Figure 4 use-case analysis.

use graphbig_framework::ComputationType;
use graphbig_json::{json_enum, json_struct_to};

/// High-level workload grouping of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Fundamental traversal operations.
    GraphTraversal,
    /// Computations on dynamic graphs.
    GraphUpdate,
    /// Topological analysis and path/flow analytics.
    GraphAnalytics,
    /// Centrality-style social analysis.
    SocialAnalysis,
}

json_enum!(WorkloadCategory {
    GraphTraversal,
    GraphUpdate,
    GraphAnalytics,
    SocialAnalysis,
});

impl WorkloadCategory {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadCategory::GraphTraversal => "Graph traversal",
            WorkloadCategory::GraphUpdate => "Graph construction/update",
            WorkloadCategory::GraphAnalytics => "Graph analytics",
            WorkloadCategory::SocialAnalysis => "Social analysis",
        }
    }
}

/// Serving-cost class of a workload, used by the query engine's admission
/// control, queues and per-class latency metrics. The classes order by expected work: a point
/// query touches O(degree) edges, a traversal touches each edge at most
/// once, and analytics kernels make several passes over the whole graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostClass {
    /// O(degree) neighborhood lookups (k-hop, degree centrality).
    Point,
    /// Single-pass whole-graph traversals (BFS, DFS).
    Traversal,
    /// Multi-pass iterative kernels (components, cores, paths, …).
    Analytics,
    /// Structural mutations (graph updates, topology morphing): O(degree)
    /// buffer appends plus the amortized compaction they eventually fund.
    Write,
}

json_enum!(CostClass {
    Point,
    Traversal,
    Analytics,
    Write
});

impl CostClass {
    /// All classes in lane order (the class index of engine metrics and
    /// recorder events). The read classes stay cheapest first (lanes 0–2,
    /// exactly as before Write existed); the write lane is appended last so
    /// adding it never renumbered a read lane.
    pub const ALL: [CostClass; 4] = [
        CostClass::Point,
        CostClass::Traversal,
        CostClass::Analytics,
        CostClass::Write,
    ];

    /// Lowercase label used in metric names (`engine.latency_us.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Point => "point",
            CostClass::Traversal => "traversal",
            CostClass::Analytics => "analytics",
            CostClass::Write => "write",
        }
    }
}

/// The 13 GraphBIG CPU workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// Breadth-first search.
    Bfs,
    /// Depth-first search.
    Dfs,
    /// Graph construction.
    GCons,
    /// Graph update (vertex deletion).
    GUp,
    /// Topology morphing (DAG moralization).
    TMorph,
    /// Shortest path (Dijkstra).
    SPath,
    /// k-core decomposition (Matula & Beck).
    KCore,
    /// Connected components (BFS-based on CPU).
    CComp,
    /// Graph coloring (Luby–Jones).
    GColor,
    /// Triangle count (Schank).
    Tc,
    /// Gibbs inference on Bayesian networks.
    Gibbs,
    /// Degree centrality.
    DCentr,
    /// Betweenness centrality (Brandes).
    BCentr,
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMeta {
    /// The workload.
    pub workload: Workload,
    /// Short name used in figures.
    pub short_name: &'static str,
    /// Table 4 category.
    pub category: WorkloadCategory,
    /// Table 1 computation type.
    pub computation_type: ComputationType,
    /// Number of the 21 analyzed use cases employing this workload
    /// (Figure 4(A); the paper states the endpoints — BFS 10, TC 4 — the
    /// intermediate counts are estimated from the figure).
    pub use_cases: u32,
    /// Whether the paper also ships a GPU version (8 of 13 do).
    pub on_gpu: bool,
    /// Algorithm reference as given in Section 4.2.
    pub algorithm: &'static str,
    /// Serving-cost class for the query engine's lanes and admission.
    pub cost_class: CostClass,
}

json_enum!(Workload {
    Bfs,
    Dfs,
    GCons,
    GUp,
    TMorph,
    SPath,
    KCore,
    CComp,
    GColor,
    Tc,
    Gibbs,
    DCentr,
    BCentr,
});

// Encode-only: the `&'static str` name/algorithm columns come from the
// compiled-in Table 4, so metadata is emitted but never parsed back.
json_struct_to!(WorkloadMeta {
    workload,
    short_name,
    category,
    computation_type,
    use_cases,
    on_gpu,
    algorithm,
    cost_class
});

impl Workload {
    /// All 13 workloads in the paper's figure order.
    pub const ALL: [Workload; 13] = [
        Workload::Bfs,
        Workload::Dfs,
        Workload::GCons,
        Workload::GUp,
        Workload::TMorph,
        Workload::SPath,
        Workload::KCore,
        Workload::CComp,
        Workload::GColor,
        Workload::Tc,
        Workload::Gibbs,
        Workload::DCentr,
        Workload::BCentr,
    ];

    /// Static metadata for this workload.
    pub fn meta(self) -> WorkloadMeta {
        use ComputationType::*;
        use Workload::*;
        use WorkloadCategory::*;
        let (short_name, category, computation_type, use_cases, on_gpu, algorithm) = match self {
            Bfs => ("BFS", GraphTraversal, CompStruct, 10, true, "frontier BFS"),
            Dfs => (
                "DFS",
                GraphTraversal,
                CompStruct,
                8,
                false,
                "iterative stack DFS",
            ),
            GCons => (
                "GCons",
                GraphUpdate,
                CompDyn,
                7,
                false,
                "incremental construction",
            ),
            GUp => ("GUp", GraphUpdate, CompDyn, 6, false, "vertex deletion"),
            TMorph => ("TMorph", GraphUpdate, CompDyn, 5, false, "DAG moralization"),
            SPath => ("SPath", GraphAnalytics, CompStruct, 8, true, "Dijkstra"),
            KCore => (
                "kCore",
                GraphAnalytics,
                CompStruct,
                5,
                true,
                "Matula & Beck",
            ),
            CComp => (
                "CComp",
                GraphAnalytics,
                CompStruct,
                7,
                true,
                "BFS labeling / Soman (GPU)",
            ),
            GColor => ("GColor", GraphAnalytics, CompStruct, 5, true, "Luby-Jones"),
            Tc => ("TC", GraphAnalytics, CompProp, 4, true, "Schank"),
            Gibbs => (
                "Gibbs",
                GraphAnalytics,
                CompProp,
                5,
                false,
                "Gibbs sampling",
            ),
            DCentr => (
                "DCentr",
                SocialAnalysis,
                CompStruct,
                9,
                true,
                "degree centrality",
            ),
            BCentr => ("BCentr", SocialAnalysis, CompStruct, 7, true, "Brandes"),
        };
        WorkloadMeta {
            workload: self,
            short_name,
            category,
            computation_type,
            use_cases,
            on_gpu,
            algorithm,
            cost_class: self.cost_class(),
        }
    }

    /// Serving-cost class: degree centrality is an O(degree)-per-vertex
    /// point lookup, BFS/DFS are single-pass traversals, the dynamic-graph
    /// workloads (vertex deletion, topology morphing) are structural
    /// writes, and everything else iterates to a fixpoint (analytics).
    pub fn cost_class(self) -> CostClass {
        match self {
            Workload::DCentr => CostClass::Point,
            Workload::Bfs | Workload::Dfs => CostClass::Traversal,
            Workload::GUp | Workload::TMorph => CostClass::Write,
            _ => CostClass::Analytics,
        }
    }

    /// Abstract admission-control cost of one run over a graph with `n`
    /// vertices and `m` directed edges, in "touched element" units: point
    /// queries read one adjacency list, traversals touch `n + m` elements
    /// once, analytics kernels make a small constant number of full passes.
    pub fn cost_estimate(self, n: u64, m: u64) -> u64 {
        match self.cost_class() {
            CostClass::Point => n.max(1),
            CostClass::Traversal => n.saturating_add(m).max(1),
            CostClass::Analytics => 4u64.saturating_mul(n.saturating_add(m)).max(1),
            // A mutation batch touches one adjacency list plus its share of
            // the eventual compaction — point-like, not traversal-like.
            CostClass::Write => (n / 2).max(1),
        }
    }

    /// Short figure label.
    pub fn short_name(self) -> &'static str {
        self.meta().short_name
    }

    /// The workloads with GPU implementations (Table 3's "8 GPU workloads").
    pub fn gpu_workloads() -> Vec<Workload> {
        Self::ALL
            .iter()
            .copied()
            .filter(|w| w.meta().on_gpu)
            .collect()
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The six use-case categories of Figure 4(B) with their share of the 21
/// analyzed use cases.
pub const USE_CASE_CATEGORIES: [(&str, f64); 6] = [
    ("Cognitive Computing", 0.24),
    ("Exploration and Science", 0.24),
    ("Data Warehouse Augmentation", 0.14),
    ("Operations Analysis", 0.14),
    ("Security / 360 Degree View", 0.14),
    ("Data Exploration", 0.10),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_cpu_workloads_eight_on_gpu() {
        assert_eq!(Workload::ALL.len(), 13);
        assert_eq!(Workload::gpu_workloads().len(), 8);
    }

    #[test]
    fn figure4_endpoints_match_paper() {
        assert_eq!(Workload::Bfs.meta().use_cases, 10, "BFS is the most used");
        assert_eq!(Workload::Tc.meta().use_cases, 4, "TC is the least used");
        for w in Workload::ALL {
            let u = w.meta().use_cases;
            assert!((4..=10).contains(&u), "{w}: {u}");
        }
    }

    #[test]
    fn all_computation_types_are_covered() {
        use graphbig_framework::ComputationType;
        for ct in ComputationType::ALL {
            assert!(
                Workload::ALL
                    .iter()
                    .any(|w| w.meta().computation_type == ct),
                "no workload covers {ct}"
            );
        }
    }

    #[test]
    fn all_categories_are_covered() {
        for cat in [
            WorkloadCategory::GraphTraversal,
            WorkloadCategory::GraphUpdate,
            WorkloadCategory::GraphAnalytics,
            WorkloadCategory::SocialAnalysis,
        ] {
            assert!(Workload::ALL.iter().any(|w| w.meta().category == cat));
        }
    }

    #[test]
    fn use_case_category_shares_sum_to_one() {
        let sum: f64 = USE_CASE_CATEGORIES.iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_workloads_are_compdyn() {
        use graphbig_framework::ComputationType::CompDyn;
        for w in [Workload::GCons, Workload::GUp, Workload::TMorph] {
            assert_eq!(w.meta().computation_type, CompDyn);
        }
    }

    #[test]
    fn cost_classes_order_by_estimate() {
        let (n, m) = (1000u64, 8000u64);
        let point = Workload::DCentr.cost_estimate(n, m);
        let traversal = Workload::Bfs.cost_estimate(n, m);
        let analytics = Workload::CComp.cost_estimate(n, m);
        let write = Workload::GUp.cost_estimate(n, m);
        assert!(point < traversal && traversal < analytics);
        assert!(write <= point, "a buffered mutation is at most point-cheap");
        assert_eq!(point, n);
        assert_eq!(traversal, n + m);
        assert_eq!(analytics, 4 * (n + m));
        assert_eq!(write, n / 2);
        // Estimates never degenerate to 0 (admission math divides by them).
        for w in Workload::ALL {
            assert!(w.cost_estimate(0, 0) >= 1);
        }
    }

    #[test]
    fn every_workload_has_a_cost_class() {
        for class in CostClass::ALL {
            assert!(Workload::ALL.iter().any(|w| w.cost_class() == class));
        }
        assert_eq!(Workload::Bfs.meta().cost_class, CostClass::Traversal);
        assert_eq!(Workload::DCentr.meta().cost_class, CostClass::Point);
        assert_eq!(Workload::KCore.meta().cost_class, CostClass::Analytics);
        assert_eq!(Workload::GUp.meta().cost_class, CostClass::Write);
        assert_eq!(Workload::TMorph.meta().cost_class, CostClass::Write);
        assert_eq!(CostClass::Point.name(), "point");
        assert_eq!(CostClass::Traversal.name(), "traversal");
        assert_eq!(CostClass::Analytics.name(), "analytics");
        assert_eq!(CostClass::Write.name(), "write");
        // Appending Write must never renumber a read lane — the engine's
        // lane indices, metric arrays, and recorder lane bytes rely on it.
        assert_eq!(
            &CostClass::ALL[..3],
            &[CostClass::Point, CostClass::Traversal, CostClass::Analytics]
        );
    }

    #[test]
    fn property_workloads_are_compprop() {
        use graphbig_framework::ComputationType::CompProp;
        for w in [Workload::Tc, Workload::Gibbs] {
            assert_eq!(w.meta().computation_type, CompProp);
        }
    }
}
