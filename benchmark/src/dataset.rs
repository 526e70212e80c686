//! Datasets, generated in a child process.
//!
//! The measuring process never runs a generator: it re-executes its own
//! binary as `gen`, which builds the `PropertyGraph`, flattens it to dense
//! `(u, v, w)` triples in CSR row order and writes them to a file the parent
//! reads and deletes. A process's peak resident set (`peak_rss_mb` is read in
//! the `rss` child, which loads its datasets the same way) then holds the
//! edge list and the serving state, not the generator's heap.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use graphbig_datagen::Dataset;
use graphbig_framework::csr::Csr;

const MAGIC: &[u8; 8] = b"GBIGEDG1";
const HEADER_BYTES: u64 = 32;
const EDGE_BYTES: u64 = 12;

/// Which generated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// LDBC-like social network: power-law, community-structured, directed.
    Ldbc,
    /// CA-road-like perturbed lattice: degree ~3, diameter in the hundreds.
    Road,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ldbc => "ldbc",
            Kind::Road => "road",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "ldbc" => Some(Kind::Ldbc),
            "road" => Some(Kind::Road),
            _ => None,
        }
    }

    fn dataset(self) -> Dataset {
        match self {
            Kind::Ldbc => Dataset::Ldbc,
            Kind::Road => Dataset::CaRoad,
        }
    }
}

/// A dense edge list in CSR row order (all edges of vertex 0, then 1, ...).
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<(u32, u32, f32)>,
    /// Seconds the child spent in the generator and `Csr::from_graph`.
    pub generate_s: f64,
}

impl EdgeList {
    /// `offsets[u]..offsets[u + 1]` indexes vertex `u`'s edges.
    pub fn row_offsets(&self) -> Vec<u32> {
        let mut offsets = vec![0u32; self.n + 1];
        for &(u, _, _) in &self.edges {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..self.n {
            offsets[u + 1] += offsets[u];
        }
        offsets
    }

    pub fn csr(&self) -> Csr {
        Csr::from_edges(self.n, &self.edges)
    }
}

/// Body of the `gen` subcommand: generate, flatten, write.
pub fn write_generated(kind: Kind, vertices: usize, out: &Path) -> std::io::Result<()> {
    let started = Instant::now();
    let csr = Csr::from_graph(&kind.dataset().generate_with_vertices(vertices));
    let generate_s = started.elapsed().as_secs_f64();
    let mut w = BufWriter::new(File::create(out)?);
    w.write_all(MAGIC)?;
    w.write_all(&(csr.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(csr.num_edges() as u64).to_le_bytes())?;
    w.write_all(&generate_s.to_le_bytes())?;
    for u in 0..csr.num_vertices() as u32 {
        let weights = csr.edge_weights(u);
        for (i, &v) in csr.neighbors(u).iter().enumerate() {
            w.write_all(&u.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
            w.write_all(&weights[i].to_le_bytes())?;
        }
    }
    w.flush()
}

fn read_generated(path: &Path) -> Result<EdgeList, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let file_len = file.metadata().map_err(|e| e.to_string())?.len();
    let mut r = BufReader::with_capacity(1 << 16, file);
    let mut header = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut header).map_err(|e| e.to_string())?;
    if &header[..8] != MAGIC {
        return Err(format!("{}: not a generated edge file", path.display()));
    }
    let word = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8 bytes"));
    let (n, m) = (word(8), word(16));
    let generate_s = f64::from_bits(word(24));
    // The edge count sizes an allocation, so it must match the bytes on disk.
    if m.checked_mul(EDGE_BYTES)
        .and_then(|b| b.checked_add(HEADER_BYTES))
        != Some(file_len)
        || n > u32::MAX as u64
    {
        return Err(format!(
            "{}: header disagrees with file size",
            path.display()
        ));
    }
    let mut edges = Vec::with_capacity(m as usize);
    let mut rec = [0u8; EDGE_BYTES as usize];
    for _ in 0..m {
        r.read_exact(&mut rec).map_err(|e| e.to_string())?;
        let u = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let v = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let w = f32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
        if u as u64 >= n || v as u64 >= n || edges.last().is_some_and(|&(pu, _, _)| pu > u) {
            return Err(format!("{}: edge out of range or order", path.display()));
        }
        edges.push((u, v, w));
    }
    Ok(EdgeList {
        n: n as usize,
        edges,
        generate_s,
    })
}

/// Generate `kind` at `vertices` in a child process and load the result.
/// The child is waited for and its file removed before this returns.
pub fn generate(kind: Kind, vertices: usize, scratch: &Path) -> Result<EdgeList, String> {
    let path: PathBuf = scratch.join(format!(
        "graphbig-benchmark-{}-{}-{}.edges",
        std::process::id(),
        kind.name(),
        vertices
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("gen")
        .args(["--dataset", kind.name()])
        .args(["--vertices", &vertices.to_string()])
        .arg("--out")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let loaded = if status.success() {
        read_generated(&path)
    } else {
        Err(format!("generator child exited with {status}"))
    };
    let _ = std::fs::remove_file(&path);
    loaded
}

/// Tests cannot re-execute the benchmark binary: generate in-process.
#[cfg(test)]
pub fn generate_here(kind: Kind, vertices: usize) -> EdgeList {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "graphbig-benchmark-test-{}-{unique}.edges",
        std::process::id()
    ));
    write_generated(kind, vertices, &path).expect("write generated edges");
    let list = read_generated(&path).expect("read generated edges");
    std::fs::remove_file(&path).expect("remove generated edges");
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_file_round_trips_in_row_order() {
        let list = generate_here(Kind::Road, 400);
        assert_eq!(list.n, 400);
        let direct = Csr::from_graph(&Dataset::CaRoad.generate_with_vertices(400));
        assert_eq!(list.edges.len(), direct.num_edges());
        let rebuilt = list.csr();
        for u in 0..400u32 {
            assert_eq!(rebuilt.neighbors(u), direct.neighbors(u));
            assert_eq!(rebuilt.edge_weights(u), direct.edge_weights(u));
        }
        let offsets = list.row_offsets();
        assert_eq!(offsets[400] as usize, list.edges.len());
        for u in 0..400usize {
            for e in offsets[u]..offsets[u + 1] {
                assert_eq!(list.edges[e as usize].0 as usize, u);
            }
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "graphbig-benchmark-trunc-{}.edges",
            std::process::id()
        ));
        write_generated(Kind::Road, 100, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let r = read_generated(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(r.is_err());
    }
}
