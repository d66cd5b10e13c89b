//! Implicit lattice families: grid, torus, hypercube.
//!
//! These have closed-form neighborhoods, so generating a list is pure
//! arithmetic — the cleanest demonstration that "the input" can be a
//! formula rather than a data structure. Like every implicit family they
//! read their lists through the calling thread's [`super::ListStore`], so a
//! server's list-store counters cover every family alike. They mirror
//! [`crate::gen::structured::grid`], [`crate::gen::structured::torus`] and
//! [`crate::gen::structured::hypercube`] in shape (not in adjacency order:
//! an implicit oracle fixes its own canonical order).

use crate::{Oracle, VertexId};

use super::scratch::{stored_probes, Generator};
use super::{Access, ImplicitOracle, ListStore};

/// The `rows × cols` grid served implicitly. Vertex `r·cols + c` is adjacent
/// to its existing 4-neighborhood in the fixed order north, west, east,
/// south.
///
/// # Example
///
/// ```
/// use lca_graph::implicit::ImplicitGrid;
/// use lca_graph::{Oracle, VertexId};
///
/// let o = ImplicitGrid::new(30_000, 30_000); // 900M vertices, zero bytes of adjacency
/// assert_eq!(o.degree(VertexId::new(0)), 2); // corner
/// ```
#[derive(Debug, Clone)]
pub struct ImplicitGrid {
    rows: usize,
    cols: usize,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitGrid {
    /// Builds the oracle for a `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            store_id: ListStore::next_oracle_id(),
        }
    }
}

impl Generator for ImplicitGrid {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        let i = v.index();
        assert!(i < self.rows * self.cols, "vertex {v} out of range");
        let (r, c) = (i / self.cols, i % self.cols);
        if r > 0 {
            out.push(VertexId::new(i - self.cols)); // north
        }
        if c > 0 {
            out.push(VertexId::new(i - 1)); // west
        }
        if c + 1 < self.cols {
            out.push(VertexId::new(i + 1)); // east
        }
        if r + 1 < self.rows {
            out.push(VertexId::new(i + self.cols)); // south
        }
    }
}

impl Oracle for ImplicitGrid {
    fn vertex_count(&self) -> usize {
        self.rows * self.cols
    }

    stored_probes!();

    fn label(&self, v: VertexId) -> u64 {
        v.index() as u64
    }
    fn probe_cost_hint(&self) -> crate::ProbeCost {
        crate::ProbeCost::Compute
    }
}

impl ImplicitOracle for ImplicitGrid {
    fn family(&self) -> &'static str {
        "implicit-grid"
    }
}

/// The `rows × cols` torus (both dimensions ≥ 3, so it is 4-regular and
/// simple) served implicitly. Neighbor order: east, south, west, north.
#[derive(Debug, Clone)]
pub struct ImplicitTorus {
    rows: usize,
    cols: usize,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitTorus {
    /// Builds the oracle for a `rows × cols` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 3 (wraparound would create
    /// parallel edges), matching [`crate::gen::structured::torus`].
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "torus needs both dimensions ≥ 3");
        Self {
            rows,
            cols,
            store_id: ListStore::next_oracle_id(),
        }
    }
}

impl Generator for ImplicitTorus {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        let i = v.index();
        assert!(i < self.rows * self.cols, "vertex {v} out of range");
        let (r, c) = (i / self.cols, i % self.cols);
        out.extend([
            VertexId::new(r * self.cols + (c + 1) % self.cols), // east
            VertexId::new(((r + 1) % self.rows) * self.cols + c), // south
            VertexId::new(r * self.cols + (c + self.cols - 1) % self.cols), // west
            VertexId::new(((r + self.rows - 1) % self.rows) * self.cols + c), // north
        ]);
    }
}

impl Oracle for ImplicitTorus {
    fn vertex_count(&self) -> usize {
        self.rows * self.cols
    }

    stored_probes!();

    fn label(&self, v: VertexId) -> u64 {
        v.index() as u64
    }
    fn probe_cost_hint(&self) -> crate::ProbeCost {
        crate::ProbeCost::Compute
    }
}

impl ImplicitOracle for ImplicitTorus {
    fn family(&self) -> &'static str {
        "implicit-torus"
    }
}

/// The `d`-dimensional hypercube on `2^d` vertices served implicitly:
/// the `i`-th neighbor of `v` is `v XOR 2^i`.
#[derive(Debug, Clone)]
pub struct ImplicitHypercube {
    dim: u32,
    /// This oracle's key in the per-thread [`ListStore`].
    store_id: u32,
}

impl ImplicitHypercube {
    /// Builds the oracle for dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `d > 30` (vertex handles are `u32`).
    pub fn new(dim: u32) -> Self {
        assert!((1..=30).contains(&dim), "dimension must be in 1..=30");
        Self {
            dim,
            store_id: ListStore::next_oracle_id(),
        }
    }
}

impl Generator for ImplicitHypercube {
    fn store_id(&self) -> u32 {
        self.store_id
    }

    fn generate(&self, v: VertexId, out: &mut Vec<VertexId>) {
        assert!(v.index() < self.vertex_count(), "vertex {v} out of range");
        out.extend((0..self.dim).map(|i| VertexId::from(v.raw() ^ (1u32 << i))));
    }
}

impl Oracle for ImplicitHypercube {
    fn vertex_count(&self) -> usize {
        1usize << self.dim
    }

    stored_probes!();

    fn label(&self, v: VertexId) -> u64 {
        v.index() as u64
    }
    fn probe_cost_hint(&self) -> crate::ProbeCost {
        crate::ProbeCost::Compute
    }
}

impl ImplicitOracle for ImplicitHypercube {
    fn family(&self) -> &'static str {
        "implicit-hypercube"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_corners_edges_interior() {
        let o = ImplicitGrid::new(5, 7);
        assert_eq!(o.vertex_count(), 35);
        assert_eq!(o.degree(VertexId::new(0)), 2);
        assert_eq!(o.degree(VertexId::new(3)), 3);
        assert_eq!(o.degree(VertexId::new(8)), 4);
        // Interior order: north, west, east, south.
        assert_eq!(o.neighbor(VertexId::new(8), 0), Some(VertexId::new(1)));
        assert_eq!(o.neighbor(VertexId::new(8), 3), Some(VertexId::new(15)));
    }

    #[test]
    fn torus_is_four_regular_and_wraps() {
        let o = ImplicitTorus::new(3, 4);
        for v in 0..12 {
            assert_eq!(o.degree(VertexId::new(v)), 4);
        }
        // Vertex 0 wraps west to vertex 3 and north to vertex 8.
        assert_eq!(o.neighbor(VertexId::new(0), 2), Some(VertexId::new(3)));
        assert_eq!(o.neighbor(VertexId::new(0), 3), Some(VertexId::new(8)));
    }

    #[test]
    #[should_panic(expected = "torus needs both dimensions ≥ 3")]
    fn tiny_torus_panics() {
        let _ = ImplicitTorus::new(2, 5);
    }

    #[test]
    fn hypercube_adjacency_is_xor() {
        let o = ImplicitHypercube::new(10);
        assert_eq!(o.vertex_count(), 1024);
        let v = VertexId::new(0b1010101010);
        assert_eq!(o.degree(v), 10);
        for i in 0..10 {
            let w = o.neighbor(v, i).unwrap();
            assert_eq!(o.adjacency(v, w), Some(i));
            assert_eq!(o.adjacency(w, v), Some(i));
        }
        assert_eq!(o.neighbor(v, 10), None);
        assert_eq!(o.adjacency(v, VertexId::new(0)), None); // distance > 1
    }
}
