//! # graphbig-framework
//!
//! The graph substrate of GraphBIG-RS: an abstraction of the IBM System G
//! industrial framework as described in *GraphBIG: Understanding Graph
//! Computing in the Context of Industrial Solutions* (SC '15).
//!
//! The central type is [`PropertyGraph`], a **dynamic, vertex-centric**
//! property graph: each vertex is an individually heap-allocated structure
//! that holds its properties *and* its outgoing edge list, and all vertices
//! are reachable through a hash index ([`index::VertexIndex`]). This is the
//! data representation of Figure 2(c) in the paper, and the scattered heap
//! layout it produces is exactly what the paper's CPU characterization
//! studies.
//!
//! Static, compact representations — [`csr::Csr`] and [`coo::Coo`], Figure
//! 2(b) — are produced from a `PropertyGraph` by the "graph populating" step
//! ([`csr::Csr::from_graph`]), mirroring how the paper transfers dynamic
//! CPU-side graphs to the GPU.
//!
//! Every framework primitive (find/add/delete vertex/edge, neighbor
//! traversal, property update) is *instrumented*: it reports loads, stores,
//! branches, ALU work and code-region switches to a generic [`trace::Tracer`].
//! [`trace::NullTracer`] is a zero-sized no-op so uninstrumented runs compile
//! to plain code; the `graphbig-machine` and `graphbig-simt` crates provide
//! tracers that model CPU and GPU hardware.
//!
//! ```
//! use graphbig_framework::prelude::*;
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_vertex();
//! let b = g.add_vertex();
//! g.add_edge(a, b, 1.0).unwrap();
//! assert_eq!(g.out_degree(a), Some(1));
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod coo;
pub mod csr;
pub mod error;
pub mod graph;
pub mod index;
pub mod property;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod types;
pub mod vertex;

pub use error::GraphError;
pub use graph::PropertyGraph;
pub use types::{ComputationType, DataSource, VertexId};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::bitmap::AtomicBitmap;
    pub use crate::coo::Coo;
    pub use crate::csr::{Adjacency, BiCsr, Csr, InAdjacency};
    pub use crate::error::GraphError;
    pub use crate::graph::PropertyGraph;
    pub use crate::property::{Property, PropertyKey, PropertyMap};
    pub use crate::stats::GraphStats;
    pub use crate::trace::{CountingTracer, NullTracer, Region, Tracer};
    pub use crate::types::{ComputationType, DataSource, VertexId};
    pub use crate::vertex::{Edge, Vertex};
}
