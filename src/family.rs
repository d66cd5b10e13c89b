//! The implicit-family registry: named, enumerable construction of
//! generator-backed oracles.
//!
//! [`AlgorithmKind`](crate::registry::AlgorithmKind) names *algorithms*;
//! [`ImplicitFamily`] names *inputs* — the `lca_graph::implicit` families —
//! so a wire protocol or CLI can pin an instance with four scalars:
//! `(family, n, seed, algorithm kind)`. Every family builds from the same
//! `(n, seed)` shape; family-specific shape parameters (the expected degree
//! of G(n, c/n), the degree of the regular family, …) default to the values
//! below and can be overridden with one knob, [`ImplicitFamily::build_with`].
//!
//! ```
//! use lca::family::ImplicitFamily;
//! use lca::prelude::*;
//!
//! let oracle = ImplicitFamily::Gnp.build(1_000_000, Seed::new(7));
//! assert_eq!(oracle.family(), "implicit-gnp");
//! let mis = LcaBuilder::new(AlgorithmKind::Classic(ClassicKind::Mis)).build(&oracle);
//! let v = lca::graph::VertexId::new(123_456);
//! mis.query(lca::core::DynQuery::Vertex(v)).unwrap();
//! ```

use lca_graph::implicit::{
    ImplicitChungLu, ImplicitGnp, ImplicitGrid, ImplicitHypercube, ImplicitOracle, ImplicitRegular,
    ImplicitTorus,
};
use lca_rand::Seed;

/// A boxed implicit oracle, shareable across serving threads.
pub type BoxedImplicitOracle = Box<dyn ImplicitOracle + Send + Sync>;

/// Largest shape knob [`ImplicitFamily::check`] accepts: a degree of 1024
/// keeps a matching family's slot count, and so its per-list generation
/// work and seed table, bounded.
pub const MAX_KNOB: f64 = 1024.0;

/// The generator-backed input families of `lca_graph::implicit`, as an
/// enumerable registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplicitFamily {
    /// [`ImplicitGnp`] — sparse G(n, c/n)-style; knob = expected degree `c`
    /// (default 4).
    Gnp,
    /// [`ImplicitRegular`] — random d-regular; knob = degree `d` (default 8).
    Regular,
    /// [`ImplicitChungLu`] — power-law Chung–Lu with exponent 2.5;
    /// knob = average degree (default 5).
    ChungLu,
    /// [`ImplicitGrid`] — a near-square rows × cols grid; no knob, no seed
    /// dependence.
    Grid,
    /// [`ImplicitTorus`] — the wrap-around grid; no knob, no seed dependence.
    Torus,
    /// [`ImplicitHypercube`] — dimension ⌊log₂ n⌋; no knob, no seed
    /// dependence.
    Hypercube,
}

impl ImplicitFamily {
    /// Enumerates every registered family.
    pub fn all() -> [ImplicitFamily; 6] {
        [
            ImplicitFamily::Gnp,
            ImplicitFamily::Regular,
            ImplicitFamily::ChungLu,
            ImplicitFamily::Grid,
            ImplicitFamily::Torus,
            ImplicitFamily::Hypercube,
        ]
    }

    /// The registered name, matching [`ImplicitOracle::family`] of the built
    /// oracle.
    pub fn name(self) -> &'static str {
        match self {
            ImplicitFamily::Gnp => "implicit-gnp",
            ImplicitFamily::Regular => "implicit-regular",
            ImplicitFamily::ChungLu => "implicit-chung-lu",
            ImplicitFamily::Grid => "implicit-grid",
            ImplicitFamily::Torus => "implicit-torus",
            ImplicitFamily::Hypercube => "implicit-hypercube",
        }
    }

    /// Parses a family name as written by humans and wire protocols: the
    /// registered name with or without the `implicit-` prefix,
    /// case-insensitively, plus `chung_lu`/`chunglu` spellings.
    ///
    /// ```
    /// use lca::family::ImplicitFamily;
    ///
    /// assert_eq!(ImplicitFamily::parse("gnp"), Some(ImplicitFamily::Gnp));
    /// assert_eq!(
    ///     ImplicitFamily::parse("implicit-chung-lu"),
    ///     Some(ImplicitFamily::ChungLu)
    /// );
    /// assert_eq!(ImplicitFamily::parse("petersen"), None);
    /// ```
    pub fn parse(name: &str) -> Option<ImplicitFamily> {
        const PREFIX: &str = "implicit-";
        const ALIASES: &[(&str, ImplicitFamily)] = &[
            ("gnp", ImplicitFamily::Gnp),
            ("regular", ImplicitFamily::Regular),
            ("chung-lu", ImplicitFamily::ChungLu),
            ("chung_lu", ImplicitFamily::ChungLu),
            ("chunglu", ImplicitFamily::ChungLu),
            ("grid", ImplicitFamily::Grid),
            ("torus", ImplicitFamily::Torus),
            ("hypercube", ImplicitFamily::Hypercube),
        ];
        // Compared in place, without a lowercased copy of `name`.
        let bare = match name.get(..PREFIX.len()) {
            Some(prefix) if prefix.eq_ignore_ascii_case(PREFIX) => &name[PREFIX.len()..],
            _ => name,
        };
        ALIASES
            .iter()
            .find(|(alias, _)| alias.eq_ignore_ascii_case(bare))
            .map(|&(_, family)| family)
    }

    /// Checks that [`ImplicitFamily::build_with`] can build `(n, knob)`:
    /// `1 ≤ n ≤ 2³²` (vertex handles are `u32`), a knob inside
    /// `[0, MAX_KNOB]` (`(0, MAX_KNOB]` for Chung–Lu, whose average degree
    /// must be positive) for the families that read one (the lattices
    /// ignore theirs), at least 9 vertices for a torus (3 × 3) and
    /// `2 ≤ n < 2³¹` for a hypercube (dimension 1 to 30). The knob bound
    /// also bounds the matching families' slot count, which sizes their
    /// seed tables. The error names the offending field.
    ///
    /// ```
    /// use lca::family::ImplicitFamily;
    ///
    /// assert!(ImplicitFamily::Gnp.check(1_000, Some(4.0)).is_ok());
    /// assert!(ImplicitFamily::Gnp.check(1_000, Some(-1.0)).is_err());
    /// assert!(ImplicitFamily::Torus.check(4, None).is_err());
    /// assert!(ImplicitFamily::Grid.check(1_000, Some(-1.0)).is_ok());
    /// ```
    pub fn check(self, n: usize, knob: Option<f64>) -> Result<(), String> {
        if n == 0 || n as u64 > 1 << 32 {
            return Err(format!("`n` must be in 1..=2^32, got {n}"));
        }
        let too_small = match self {
            ImplicitFamily::Torus => n < 9,
            ImplicitFamily::Hypercube => !(2..1 << 31).contains(&n),
            _ => false,
        };
        if too_small {
            return Err(format!(
                "`n` = {n} is outside the sizes {self} can build \
                 (torus: n ≥ 9; hypercube: 2 ≤ n < 2^31)"
            ));
        }
        let (knob, low_ok) = match (self, knob) {
            (ImplicitFamily::Gnp | ImplicitFamily::Regular, Some(k)) => (k, k >= 0.0),
            (ImplicitFamily::ChungLu, Some(k)) => (k, k > 0.0),
            _ => return Ok(()),
        };
        if !(low_ok && knob <= MAX_KNOB) {
            return Err(format!(
                "`knob` must be in [0, {MAX_KNOB}] (positive for chung-lu), got {knob}"
            ));
        }
        Ok(())
    }

    /// Builds the family's oracle at (approximately) `n` vertices with the
    /// default shape knob — see [`ImplicitFamily::build_with`].
    pub fn build(self, n: usize, seed: Seed) -> BoxedImplicitOracle {
        self.build_with(n, seed, None)
    }

    /// Builds the family's oracle with an explicit shape knob.
    ///
    /// `knob` means: expected degree `c` for [`ImplicitFamily::Gnp`], degree
    /// `d` for [`ImplicitFamily::Regular`] (rounded), average degree for
    /// [`ImplicitFamily::ChungLu`]; it is ignored by the closed-form lattice
    /// families, whose shape is fully determined by `n`.
    ///
    /// The lattice families round `n` to the nearest realizable size: grids
    /// and tori use the most-square `rows × cols ≤ n` factorization with
    /// `rows = ⌊√n⌋`, the hypercube uses dimension `⌊log₂ n⌋`. Check
    /// `vertex_count()` on the result rather than assuming `n`.
    ///
    /// # Panics
    ///
    /// Panics on a shape the family cannot build; every `(n, knob)` that
    /// [`ImplicitFamily::check`] accepts builds.
    pub fn build_with(self, n: usize, seed: Seed, knob: Option<f64>) -> BoxedImplicitOracle {
        match self {
            ImplicitFamily::Gnp => Box::new(ImplicitGnp::new(n, knob.unwrap_or(4.0), seed)),
            ImplicitFamily::Regular => {
                let d = knob.unwrap_or(8.0).max(1.0).round() as usize;
                Box::new(ImplicitRegular::new(n, d, seed))
            }
            ImplicitFamily::ChungLu => Box::new(ImplicitChungLu::power_law(
                n,
                2.5,
                knob.unwrap_or(5.0),
                seed,
            )),
            ImplicitFamily::Grid => {
                let (rows, cols) = near_square(n);
                Box::new(ImplicitGrid::new(rows, cols))
            }
            ImplicitFamily::Torus => {
                let (rows, cols) = near_square(n);
                Box::new(ImplicitTorus::new(rows, cols))
            }
            ImplicitFamily::Hypercube => Box::new(ImplicitHypercube::new(log2_floor(n))),
        }
    }
}

impl std::fmt::Display for ImplicitFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The most-square `rows × cols` with `rows = ⌊√n⌋` and `rows × cols ≤ n`
/// (at least 1×1).
fn near_square(n: usize) -> (usize, usize) {
    let n = n.max(1);
    let rows = (n as f64).sqrt().floor() as usize;
    let rows = rows.max(1);
    (rows, n / rows)
}

/// `⌊log₂ n⌋`, with `n = 0` treated as dimension 0.
fn log2_floor(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - 1 - n.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lca_graph::Oracle;

    #[test]
    fn names_round_trip_for_every_family() {
        for family in ImplicitFamily::all() {
            assert_eq!(ImplicitFamily::parse(family.name()), Some(family));
            // The bare name (without the implicit- prefix) parses too.
            let bare = family.name().strip_prefix("implicit-").unwrap();
            assert_eq!(ImplicitFamily::parse(bare), Some(family), "{bare}");
            // And the built oracle reports the registered family string.
            let oracle = family.build(256, Seed::new(1));
            assert_eq!(oracle.family(), family.name());
        }
        assert_eq!(ImplicitFamily::parse(""), None);
        assert_eq!(ImplicitFamily::parse("implicit-"), None);
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(ImplicitFamily::parse("GNP"), Some(ImplicitFamily::Gnp));
        assert_eq!(
            ImplicitFamily::parse("Implicit-Chung_Lu"),
            Some(ImplicitFamily::ChungLu)
        );
    }

    #[test]
    fn built_sizes_are_near_n() {
        for family in ImplicitFamily::all() {
            let oracle = family.build(10_000, Seed::new(2));
            let n = oracle.vertex_count();
            assert!(
                (8_192..=10_000).contains(&n),
                "{family}: built {n} vertices for requested 10000"
            );
        }
    }

    #[test]
    fn knob_controls_shape() {
        let sparse = ImplicitFamily::Regular.build_with(1_000, Seed::new(3), Some(2.0));
        let dense = ImplicitFamily::Regular.build_with(1_000, Seed::new(3), Some(12.0));
        let deg = |o: &BoxedImplicitOracle| {
            (0..100)
                .map(|v| o.degree(lca_graph::VertexId::new(v)))
                .sum::<usize>()
        };
        assert!(deg(&dense) > deg(&sparse));
    }

    #[test]
    fn every_checked_shape_builds_and_every_rejected_one_is_refused() {
        let sizes = [0, 1, 2, 4, 8, 9, 12, 100, (1 << 31) - 1, 1 << 31];
        let knobs = [
            None,
            Some(-1.0),
            Some(0.0),
            Some(0.5),
            Some(4.0),
            Some(MAX_KNOB),
            Some(1e6),
        ];
        for family in ImplicitFamily::all() {
            for n in sizes {
                for knob in knobs {
                    let verdict = family.check(n, knob);
                    // Building allocates O(slots), not O(n), so even the
                    // largest accepted n builds instantly.
                    let built = std::panic::catch_unwind(|| {
                        family.build_with(n, Seed::new(1), knob).vertex_count()
                    });
                    if verdict.is_ok() {
                        assert!(
                            built.is_ok(),
                            "{family} n={n} knob={knob:?} passed check but panicked"
                        );
                    }
                }
            }
            // The rejections the daemon must answer instead of building.
            assert!(family.check(0, None).is_err());
            assert!(family.check(1 << 33, None).is_err());
            // Only the families that read the knob judge it.
            let reads_knob = matches!(
                family,
                ImplicitFamily::Gnp | ImplicitFamily::Regular | ImplicitFamily::ChungLu
            );
            assert_eq!(family.check(100, Some(-1.0)).is_err(), reads_knob);
            assert_eq!(family.check(100, Some(1e6)).is_err(), reads_knob);
        }
        assert!(ImplicitFamily::Torus.check(4, None).is_err());
        assert!(ImplicitFamily::Hypercube.check(1, None).is_err());
        assert!(ImplicitFamily::ChungLu.check(100, Some(0.0)).is_err());
        assert!(ImplicitFamily::Gnp.check(100, Some(0.0)).is_ok());
    }

    #[test]
    fn helpers_handle_degenerate_sizes() {
        assert_eq!(near_square(0), (1, 1));
        assert_eq!(near_square(12), (3, 4));
        assert_eq!(log2_floor(0), 0);
        assert_eq!(log2_floor(1), 0);
        assert_eq!(log2_floor(1 << 20), 20);
    }
}
