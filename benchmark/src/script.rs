//! Seeded scripts: the fixed work one pass replays.
//!
//! The graphs are fixed datasets; the seed picks everything asked of them —
//! sources, vertices, hot keys, mutations. Degrees are power-law, so what a
//! read costs depends heavily on the vertex it lands on: traversal sources
//! are drawn one per equal slice of the eligible vertices (stratified) and
//! read and write vertices are dealt from a shuffled deck of all vertices
//! (without replacement), so two seeds ask for equally hard work and a
//! run-to-run difference is the machine's, not the draw's. Independent draws
//! moved `live_rw`'s point reads by +-6 % between seeds.

use graphbig_datagen::Rng;
use graphbig_engine::{Mutation, Query};
use graphbig_workloads::Workload;

use crate::dataset::{EdgeList, Kind};
use crate::score::Class;
use crate::verify;

/// One scripted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `run_service` straight on a `ServiceGraph`, engine bypassed.
    Kernel {
        graph: Kind,
        workload: Workload,
        source: u32,
    },
    /// `Engine::submit(..).wait()`.
    Read(Query),
    /// `Engine::mutate` with this one mutation.
    Write(Mutation),
    /// `Engine::compact`.
    Compact,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Kernel { workload, .. } | Op::Read(Query::Run { workload, .. }) => match workload {
                Workload::Bfs => Class::Traversal,
                _ => Class::Analytics,
            },
            Op::Read(_) => Class::Point,
            Op::Write(_) => Class::Write,
            Op::Compact => Class::Compact,
        }
    }
}

impl Op {
    /// The query of a read op.
    pub fn query(&self) -> Query {
        match self {
            Op::Read(q) => *q,
            other => unreachable!("not a read: {other:?}"),
        }
    }
}

pub fn classes(ops: &[Op]) -> Vec<Class> {
    ops.iter().map(Op::class).collect()
}

fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Vertices a traversal is worth starting from: in the largest weakly
/// connected component and with an out-edge (GAP's source rule). Ascending.
pub fn eligible_sources(list: &EdgeList, offsets: &[u32]) -> Vec<u32> {
    let roots = verify::union_find_roots(list);
    let mut size = vec![0u32; list.n];
    for &r in &roots {
        size[r as usize] += 1;
    }
    let Some(giant) = (0..list.n as u32).max_by_key(|&r| size[r as usize]) else {
        return Vec::new();
    };
    (0..list.n as u32)
        .filter(|&v| roots[v as usize] == giant && offsets[v as usize + 1] > offsets[v as usize])
        .collect()
}

/// `k` distinct picks, one from each of `k` equal slices of `from`.
fn stratified(rng: &mut Rng, from: &[u32], k: usize) -> Vec<u32> {
    assert!(
        from.len() >= k,
        "{} eligible vertices for {k} picks",
        from.len()
    );
    (0..k)
        .map(|i| {
            let (lo, hi) = (i * from.len() / k, (i + 1) * from.len() / k);
            from[lo + rng.u64_below((hi - lo) as u64) as usize]
        })
        .collect()
}

/// All vertices in shuffled order, dealt one at a time and reshuffled when
/// they run out.
struct Deck {
    cards: Vec<u32>,
    dealt: usize,
}

impl Deck {
    fn new(rng: &mut Rng, n: usize) -> Self {
        let mut cards: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut cards);
        Deck { cards, dealt: 0 }
    }

    fn deal(&mut self, rng: &mut Rng) -> u32 {
        if self.dealt == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

const HOPS: u32 = 2;

fn khop(source: u32) -> Op {
    Op::Read(Query::KHop { source, hops: HOPS })
}

fn degree(vertex: u32) -> Op {
    Op::Read(Query::Degree { vertex })
}

fn bfs(source: u32) -> Op {
    Op::Read(Query::Run {
        workload: Workload::Bfs,
        source,
    })
}

const SWEEP_LDBC_BFS: usize = 24;
const SWEEP_ROAD_BFS: usize = 16;

/// `kernel_sweep`: LDBC BFS x24, SPath x2, CComp, KCore; road BFS x16,
/// CComp, KCore.
pub fn kernel_sweep(seed: u64, ldbc_sources: &[u32], road_sources: &[u32]) -> Vec<Op> {
    let mut r = rng(seed, 1);
    let kernel = |graph, workload, source| Op::Kernel {
        graph,
        workload,
        source,
    };
    let mut ops = Vec::new();
    for s in stratified(&mut r, ldbc_sources, SWEEP_LDBC_BFS) {
        ops.push(kernel(Kind::Ldbc, Workload::Bfs, s));
    }
    for s in stratified(&mut r, ldbc_sources, 2) {
        ops.push(kernel(Kind::Ldbc, Workload::SPath, s));
    }
    ops.push(kernel(Kind::Ldbc, Workload::CComp, 0));
    ops.push(kernel(Kind::Ldbc, Workload::KCore, 0));
    for s in stratified(&mut r, road_sources, SWEEP_ROAD_BFS) {
        ops.push(kernel(Kind::Road, Workload::Bfs, s));
    }
    ops.push(kernel(Kind::Road, Workload::CComp, 0));
    ops.push(kernel(Kind::Road, Workload::KCore, 0));
    ops
}

const POINT_DEGREE: usize = 1_024;
const POINT_KHOP_COLD: usize = 512;
const POINT_KHOP_HOT: usize = 512;
const POINT_HOT_POOL: usize = 64;

/// `point_closed`: `Degree` and `KHop` reads all over the graph (cache
/// misses) mixed with `KHop` reads from a small hot pool (cache hits),
/// shuffled. A 2-hop neighbourhood grows with the out-degree of its source
/// (`out_degrees[v]`), so the cold `KHop` sources are drawn one per equal
/// slice of the vertices in degree order.
pub fn point_closed(seed: u64, out_degrees: &[u32]) -> Vec<Op> {
    let mut r = rng(seed, 2);
    let mut deck = Deck::new(&mut r, out_degrees.len());
    let hot: Vec<u32> = (0..POINT_HOT_POOL).map(|_| deck.deal(&mut r)).collect();
    let mut ops = Vec::with_capacity(POINT_DEGREE + POINT_KHOP_COLD + POINT_KHOP_HOT);
    for _ in 0..POINT_DEGREE {
        ops.push(degree(deck.deal(&mut r)));
    }
    let mut by_degree: Vec<u32> = (0..out_degrees.len() as u32).collect();
    by_degree.sort_by_key(|&v| (out_degrees[v as usize], v));
    for source in stratified(&mut r, &by_degree, POINT_KHOP_COLD) {
        ops.push(khop(source));
    }
    for _ in 0..POINT_KHOP_HOT {
        ops.push(khop(hot[r.u64_below(hot.len() as u64) as usize]));
    }
    r.shuffle(&mut ops);
    ops
}

const STORM_BFS: usize = 228;
const STORM_KHOP: usize = 28;

/// `bfs_storm`: one burst, the `KHop` reads first, then BFS from distinct
/// sources. The seed picks the sources; the order of the burst is fixed,
/// because it decides which batch the executor forms first and so every
/// sojourn of the burst: shuffled, the mean BFS sojourn ranged 28 % between
/// seeds, and with a point read after every eighth BFS one burst in seven
/// had a third less mean sojourn than the rest (with the points first, under
/// one in a hundred).
pub fn bfs_storm(seed: u64, n: usize, sources: &[u32]) -> Vec<Op> {
    let mut r = rng(seed, 3);
    let mut traversals = stratified(&mut r, sources, STORM_BFS);
    r.shuffle(&mut traversals);
    let mut deck = Deck::new(&mut r, n);
    let mut ops: Vec<Op> = (0..STORM_KHOP).map(|_| khop(deck.deal(&mut r))).collect();
    ops.extend(traversals.into_iter().map(bfs));
    ops
}

const LIVE_ADDS: usize = 96;
const LIVE_REMOVES: usize = 32;

fn row<'a>(list: &'a EdgeList, offsets: &[u32], u: u32) -> &'a [(u32, u32, f32)] {
    &list.edges[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
}

/// The forward mutations of `live_rw`: `AddEdge` of distinct non-base,
/// non-self pairs and `RemoveEdge` of distinct base pairs that have no
/// parallel copy (a tombstone kills every copy), shuffled. Sources and
/// added targets are dealt from decks; a removal takes a random out-edge of
/// its source.
pub fn live_forward(seed: u64, list: &EdgeList, offsets: &[u32]) -> Vec<Mutation> {
    let mut r = rng(seed, 4);
    let (mut sources, mut targets) = (Deck::new(&mut r, list.n), Deck::new(&mut r, list.n));
    let mut writes = Vec::with_capacity(LIVE_ADDS + LIVE_REMOVES);
    let mut chosen = std::collections::HashSet::new();
    while writes.len() < LIVE_ADDS {
        let (u, v) = (sources.deal(&mut r), targets.deal(&mut r));
        if u != v && row(list, offsets, u).iter().all(|e| e.1 != v) && chosen.insert((u, v)) {
            let w = 0.5 + r.f64() as f32;
            writes.push(Mutation::AddEdge { u, v, w });
        }
    }
    while writes.len() < LIVE_ADDS + LIVE_REMOVES {
        let out = row(list, offsets, sources.deal(&mut r));
        if out.is_empty() {
            continue;
        }
        let (u, v, _) = out[r.u64_below(out.len() as u64) as usize];
        let copies = out.iter().filter(|e| e.1 == v).count();
        if u != v && copies == 1 && chosen.insert((u, v)) {
            writes.push(Mutation::RemoveEdge { u, v });
        }
    }
    r.shuffle(&mut writes);
    writes
}

/// The exact inverse of each forward mutation, in the same order: added
/// pairs are removed, removed base edges come back with their base weight.
pub fn live_backward(forward: &[Mutation], list: &EdgeList, offsets: &[u32]) -> Vec<Mutation> {
    forward
        .iter()
        .map(|m| match *m {
            Mutation::AddEdge { u, v, .. } => Mutation::RemoveEdge { u, v },
            Mutation::RemoveEdge { u, v } => {
                let w = row(list, offsets, u)
                    .iter()
                    .find(|e| e.1 == v)
                    .expect("forward removals are base edges")
                    .2;
                Mutation::AddEdge { u, v, w }
            }
            other => unreachable!("live_rw only adds and removes edges: {other:?}"),
        })
        .collect()
}

fn endpoints(m: &Mutation) -> (u32, u32) {
    match *m {
        Mutation::AddEdge { u, v, .. } | Mutation::RemoveEdge { u, v } => (u, v),
        _ => unreachable!("live_rw only adds and removes edges"),
    }
}

/// `live_rw`: the forward phase (each write followed by four point reads,
/// half of them aimed at the endpoints just written; a BFS over the
/// half-grown overlay; compaction; a BFS on the clean epoch), then the
/// backward phase that undoes it (same reads, compaction, clean BFS), so
/// every pass ends on the graph it started from. A 2-hop neighbourhood grows
/// with the out-degree of its source, so each phase's `KHop` sources are
/// drawn one per equal slice of the vertices in degree order (aimed at the
/// random endpoints instead, `point_us` ranged 17 % between seeds).
pub fn live_rw(seed: u64, list: &EdgeList, offsets: &[u32], sources: &[u32]) -> Vec<Op> {
    let forward = live_forward(seed, list, offsets);
    let backward = live_backward(&forward, list, offsets);
    let mut r = rng(seed, 5);
    let bfs_sources = stratified(&mut r, sources, 3);
    let mut by_degree: Vec<u32> = (0..list.n as u32).collect();
    by_degree.sort_by_key(|&v| (offsets[v as usize + 1] - offsets[v as usize], v));
    let mut deck = Deck::new(&mut r, list.n);
    let mut ops = Vec::new();
    for (phase, writes) in [&forward, &backward].into_iter().enumerate() {
        let mut khop_sources = stratified(&mut r, &by_degree, writes.len());
        r.shuffle(&mut khop_sources);
        for (i, m) in writes.iter().enumerate() {
            let (u, v) = endpoints(m);
            ops.push(Op::Write(*m));
            ops.extend([
                degree(u),
                degree(v),
                degree(deck.deal(&mut r)),
                khop(khop_sources[i]),
            ]);
            if phase == 0 && i + 1 == writes.len() / 2 {
                ops.push(bfs(bfs_sources[0]));
            }
        }
        ops.push(Op::Compact);
        ops.push(bfs(bfs_sources[1 + phase]));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A 64-vertex ring with chords, a duplicated edge and distinct weights.
    fn small() -> (EdgeList, Vec<u32>) {
        let n = 64u32;
        let mut edges = Vec::new();
        for u in 0..n {
            edges.push((u, (u + 1) % n, 1.0 + u as f32));
            edges.push((u, (u + 7) % n, 100.0 + u as f32));
            if u % 8 == 0 {
                edges.push((u, (u + 1) % n, 0.25)); // parallel copy: never removable
            }
        }
        let list = EdgeList {
            n: n as usize,
            edges,
            generate_s: 0.0,
        };
        let offsets = list.row_offsets();
        (list, offsets)
    }

    fn sources_of(ops: &[Op]) -> Vec<u32> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Kernel {
                    workload: Workload::Bfs,
                    source,
                    ..
                } => Some(*source),
                Op::Read(Query::Run { source, .. }) => Some(*source),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_script_other_seed_other_sources() {
        let eligible: Vec<u32> = (0..4096).collect();
        let a = kernel_sweep(11, &eligible, &eligible);
        assert_eq!(a, kernel_sweep(11, &eligible, &eligible));
        assert_eq!(a.len(), 46);
        assert_ne!(
            sources_of(&a),
            sources_of(&kernel_sweep(12, &eligible, &eligible))
        );

        let degrees: Vec<u32> = (0..4096).map(|v| v % 37).collect();
        let p = point_closed(11, &degrees);
        assert_eq!(p, point_closed(11, &degrees));
        assert_ne!(p, point_closed(12, &degrees));
        assert_eq!(p.len(), 2_048);

        let s = bfs_storm(11, 4096, &eligible);
        assert_eq!(s, bfs_storm(11, 4096, &eligible));
        assert_ne!(sources_of(&s), sources_of(&bfs_storm(12, 4096, &eligible)));
        let mut distinct = sources_of(&s);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!((s.len(), distinct.len()), (256, STORM_BFS));
        // Where the point reads sit in the burst does not depend on the seed.
        assert_eq!(classes(&s), classes(&bfs_storm(12, 4096, &eligible)));
        assert_eq!(s[0].class(), Class::Point);
    }

    #[test]
    fn class_counts_follow_the_script() {
        let eligible: Vec<u32> = (0..4096).collect();
        let count = |ops: &[Op], c: Class| ops.iter().filter(|o| o.class() == c).count();
        let sweep = kernel_sweep(1, &eligible, &eligible);
        assert_eq!(
            (
                count(&sweep, Class::Traversal),
                count(&sweep, Class::Analytics)
            ),
            (40, 6)
        );
        let storm = bfs_storm(1, 4096, &eligible);
        assert_eq!(
            (count(&storm, Class::Traversal), count(&storm, Class::Point)),
            (228, 28)
        );
    }

    /// Edge multiset model: `AddEdge` inserts one copy, `RemoveEdge` drops
    /// every copy of the pair — the engine's tombstone semantics.
    fn apply(model: &mut BTreeMap<(u32, u32, u32), usize>, m: &Mutation) {
        match *m {
            Mutation::AddEdge { u, v, w } => *model.entry((u, v, w.to_bits())).or_default() += 1,
            Mutation::RemoveEdge { u, v } => model.retain(|k, _| (k.0, k.1) != (u, v)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn backward_phase_undoes_forward_on_a_set_model() {
        let (list, offsets) = small();
        // A removal of a unique base edge and two adds of new pairs.
        let forward = [
            Mutation::RemoveEdge { u: 3, v: 4 },
            Mutation::AddEdge {
                u: 3,
                v: 40,
                w: 0.75,
            },
            Mutation::AddEdge {
                u: 9,
                v: 2,
                w: 1.25,
            },
        ];
        let backward = live_backward(&forward, &list, &offsets);
        assert_eq!(
            backward[0],
            Mutation::AddEdge { u: 3, v: 4, w: 4.0 },
            "base weight restored"
        );
        let mut model = BTreeMap::new();
        for &(u, v, w) in &list.edges {
            *model.entry((u, v, w.to_bits())).or_default() += 1;
        }
        let start = model.clone();
        forward.iter().for_each(|m| apply(&mut model, m));
        assert_ne!(model, start);
        backward.iter().for_each(|m| apply(&mut model, m));
        assert_eq!(model, start);
    }

    #[test]
    fn generated_forward_writes_are_safe_to_invert() {
        // A graph big enough for the full script.
        let n = 2048u32;
        let mut edges = Vec::new();
        for u in 0..n {
            edges.push((u, (u + 1) % n, 1.0));
            edges.push((u, (u + 5) % n, 2.0));
            if u % 4 == 0 {
                edges.push((u, (u + 5) % n, 3.0)); // parallel copy
            }
        }
        let list = EdgeList {
            n: n as usize,
            edges,
            generate_s: 0.0,
        };
        let offsets = list.row_offsets();
        let forward = live_forward(9, &list, &offsets);
        assert_eq!(forward, live_forward(9, &list, &offsets));
        assert_ne!(forward, live_forward(10, &list, &offsets));
        let mut pairs = std::collections::HashSet::new();
        let (mut adds, mut removes) = (0, 0);
        for m in &forward {
            let (u, v) = endpoints(m);
            assert!(u != v && pairs.insert((u, v)), "distinct non-self pairs");
            let copies = row(&list, &offsets, u).iter().filter(|e| e.1 == v).count();
            match m {
                Mutation::AddEdge { .. } => {
                    adds += 1;
                    assert_eq!(copies, 0, "adds are non-base pairs");
                }
                _ => {
                    removes += 1;
                    assert_eq!(copies, 1, "removals have no parallel copy");
                }
            }
        }
        assert_eq!((adds, removes), (LIVE_ADDS, LIVE_REMOVES));
        let mut model = BTreeMap::new();
        for &(u, v, w) in &list.edges {
            *model.entry((u, v, w.to_bits())).or_default() += 1;
        }
        let start = model.clone();
        forward.iter().for_each(|m| apply(&mut model, m));
        live_backward(&forward, &list, &offsets)
            .iter()
            .for_each(|m| apply(&mut model, m));
        assert_eq!(model, start);

        let sources: Vec<u32> = (0..n).collect();
        let ops = live_rw(9, &list, &offsets, &sources);
        let writes = LIVE_ADDS + LIVE_REMOVES;
        // Each write with its four reads; a compaction and a clean BFS per
        // phase; one overlay BFS.
        assert_eq!(ops.len(), 2 * (writes * 5 + 2) + 1);
        assert_eq!(ops.iter().filter(|o| **o == Op::Compact).count(), 2);
    }

    #[test]
    fn eligible_sources_skip_islands_and_sinks() {
        // Component {0,1,2} with 2 a sink; island {3}; pair {4,5}.
        let list = EdgeList {
            n: 6,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0)],
            generate_s: 0.0,
        };
        assert_eq!(eligible_sources(&list, &list.row_offsets()), vec![0, 1]);
    }
}
