//! Independent verifiers: the benchmark's own answers, computed from the raw
//! edge list with textbook algorithms that share no code with the kernels
//! they check.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::dataset::EdgeList;

/// Edges added to and removed from an [`EdgeList`] — the benchmark's model
/// of a live overlay, for checking traversals over a mutated graph.
#[derive(Default)]
pub struct EdgeDelta {
    pub added: HashMap<u32, Vec<u32>>,
    pub removed: HashSet<(u32, u32)>,
}

/// Queue-based BFS over the raw edge list (`-1` = unreached), optionally
/// through a delta.
pub fn bfs_levels(
    list: &EdgeList,
    offsets: &[u32],
    delta: Option<&EdgeDelta>,
    source: u32,
) -> Vec<i64> {
    let mut levels = vec![-1i64; list.n];
    if source as usize >= list.n {
        return levels;
    }
    levels[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        let mut visit = |v: u32| {
            if levels[v as usize] < 0 {
                levels[v as usize] = next;
                queue.push_back(v);
            }
        };
        for &(_, v, _) in
            &list.edges[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
        {
            if delta.is_none_or(|d| !d.removed.contains(&(u, v))) {
                visit(v);
            }
        }
        if let Some(row) = delta.and_then(|d| d.added.get(&u)) {
            row.iter().for_each(|&v| visit(v));
        }
    }
    levels
}

/// Exact comparison of a kernel's level array with the reference.
pub fn check_levels(got: &[i64], want: &[i64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} levels, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(v) => Err(format!(
            "vertex {v}: level {}, reference BFS says {}",
            got[v], want[v]
        )),
        None => Ok(()),
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Weakly-connected-component roots by union-find over the raw edges.
pub fn union_find_roots(list: &EdgeList) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..list.n as u32).collect();
    for &(u, v, _) in &list.edges {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..list.n as u32).map(|v| find(&mut parent, v)).collect()
}

/// The kernel's labels must induce exactly the union-find partition: one
/// label per root and one root per label.
pub fn check_partition(labels: &[u32], roots: &[u32]) -> Result<(), String> {
    if labels.len() != roots.len() {
        return Err(format!("{} labels, expected {}", labels.len(), roots.len()));
    }
    let mut label_of_root: HashMap<u32, u32> = HashMap::new();
    let mut root_of_label: HashMap<u32, u32> = HashMap::new();
    for (v, (&l, &r)) in labels.iter().zip(roots).enumerate() {
        if *label_of_root.entry(r).or_insert(l) != l || *root_of_label.entry(l).or_insert(r) != r {
            return Err(format!(
                "vertex {v}: label {l} splits or merges a component"
            ));
        }
    }
    Ok(())
}

/// Shortest-path certificate: the source is at 0, no edge can still be
/// relaxed, every other reached vertex has a tight in-edge, and exactly the
/// BFS-reachable vertices are reached.
pub fn check_distances(
    list: &EdgeList,
    source: u32,
    dist: &[f32],
    reachable: &[i64],
) -> Result<(), String> {
    if dist.len() != list.n {
        return Err(format!("{} distances, expected {}", dist.len(), list.n));
    }
    if dist[source as usize] != 0.0 {
        return Err(format!(
            "source {source} at distance {}",
            dist[source as usize]
        ));
    }
    let mut tight = vec![false; list.n];
    tight[source as usize] = true;
    for &(u, v, w) in &list.edges {
        let (du, dv) = (dist[u as usize], dist[v as usize]);
        if du.is_finite() {
            if du + w < dv {
                return Err(format!(
                    "edge {u}->{v} can still be relaxed: {du} + {w} < {dv}"
                ));
            }
            if du + w == dv {
                tight[v as usize] = true;
            }
        }
    }
    for v in 0..list.n {
        if dist[v].is_finite() != (reachable[v] >= 0) {
            return Err(format!(
                "vertex {v}: distance {} but BFS level {}",
                dist[v], reachable[v]
            ));
        }
        if dist[v].is_finite() && !tight[v] {
            return Err(format!(
                "vertex {v}: distance {} has no tight in-edge",
                dist[v]
            ));
        }
    }
    Ok(())
}

/// Core numbers by Batagelj-Zaversnik bucket peeling over the simple
/// undirected graph of the raw edges (self-loops and duplicates dropped).
pub fn core_numbers(list: &EdgeList) -> Vec<u32> {
    let n = list.n;
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(list.edges.len() * 2);
    for &(u, v, _) in &list.edges {
        if u != v {
            pairs.push((u, v));
            pairs.push((v, u));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut start = vec![0usize; n + 1];
    for &(u, _) in &pairs {
        start[u as usize + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut deg: Vec<usize> = (0..n).map(|u| start[u + 1] - start[u]).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    // Vertices sorted by degree, with each degree's first position.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &deg {
        bin[d + 1] += 1;
    }
    for d in 0..=max_deg {
        bin[d + 1] += bin[d];
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0u32; n];
    let mut next = bin.clone();
    for v in 0..n {
        pos[v] = next[deg[v]];
        order[pos[v]] = v as u32;
        next[deg[v]] += 1;
    }
    for i in 0..n {
        let v = order[i] as usize;
        for &(_, u) in &pairs[start[v]..start[v + 1]] {
            let u = u as usize;
            if deg[u] > deg[v] {
                // Move u to the front of its degree's block, then shrink it.
                let (du, pu) = (deg[u], pos[u]);
                let pw = bin[du];
                let w = order[pw] as usize;
                if u != w {
                    order.swap(pu, pw);
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    deg.into_iter().map(|d| d as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    fn list(n: usize, pairs: &[(u32, u32)]) -> EdgeList {
        let mut edges: Vec<(u32, u32, f32)> = pairs.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        edges.sort_by_key(|e| e.0);
        EdgeList {
            n,
            edges,
            generate_s: 0.0,
        }
    }

    #[test]
    fn reference_bfs_and_perturbed_levels() {
        let g = list(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let levels = bfs_levels(&g, &g.row_offsets(), None, 0);
        assert_eq!(levels, vec![0, 1, 1, 2, -1]);
        assert!(check_levels(&levels, &levels).is_ok());
        let mut wrong = levels.clone();
        wrong[3] = 3;
        let err = check_levels(&wrong, &levels).unwrap_err();
        assert!(err.contains("vertex 3"), "{err}");
        assert!(check_levels(&levels[..4], &levels).is_err());
    }

    #[test]
    fn bfs_through_a_delta() {
        let g = list(4, &[(0, 1), (1, 2)]);
        let mut delta = EdgeDelta::default();
        delta.removed.insert((1, 2));
        delta.added.entry(0).or_default().push(3);
        delta.added.entry(3).or_default().push(2);
        assert_eq!(
            bfs_levels(&g, &g.row_offsets(), Some(&delta), 0),
            vec![0, 1, 2, 1]
        );
    }

    #[test]
    fn partition_check_rejects_merges_and_splits() {
        let g = list(5, &[(0, 1), (3, 4)]);
        let roots = union_find_roots(&g);
        assert_eq!(roots, vec![0, 0, 2, 3, 3]);
        assert!(check_partition(&[7, 7, 9, 1, 1], &roots).is_ok());
        assert!(check_partition(&[7, 7, 7, 1, 1], &roots).is_err(), "merge");
        assert!(check_partition(&[7, 8, 9, 1, 1], &roots).is_err(), "split");
    }

    #[test]
    fn distance_certificate() {
        let mut g = list(4, &[(0, 1), (1, 2), (0, 2)]);
        g.edges[1].2 = 5.0; // 0->2 is the long way round
        let reach = bfs_levels(&g, &g.row_offsets(), None, 0);
        let inf = f32::INFINITY;
        assert!(check_distances(&g, 0, &[0.0, 1.0, 2.0, inf], &reach).is_ok());
        assert!(
            check_distances(&g, 0, &[0.0, 1.0, 5.0, inf], &reach).is_err(),
            "relaxable"
        );
        assert!(
            check_distances(&g, 0, &[0.0, 1.0, 1.5, inf], &reach).is_err(),
            "not tight"
        );
        assert!(
            check_distances(&g, 0, &[0.0, 1.0, 2.0, 9.0], &reach).is_err(),
            "unreachable"
        );
    }

    #[test]
    fn core_numbers_of_a_triangle_with_a_tail() {
        // Triangle 0-1-2 (2-core), tail 2-3 (1-core), isolated 4; the
        // duplicate and the self-loop must not count.
        let g = list(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (0, 1), (4, 4)]);
        assert_eq!(core_numbers(&g), vec![2, 2, 2, 1, 0]);
    }
}
