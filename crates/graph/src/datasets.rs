//! Synthetic analogue of the paper's Table 3 dataset suite.
//!
//! The paper evaluates on twelve public SNAP / LAW graphs (GrQc … Indochina,
//! 5 k – 7.4 M nodes). Those files are not bundled here, so each dataset is
//! replaced by a deterministic synthetic graph that matches its *type*
//! (directed vs. undirected), its density regime, and its degree-distribution
//! family, scaled to laptop size:
//!
//! * collaboration / social graphs (GrQc, HepTh, Enron, LiveJournal) →
//!   Barabási–Albert preferential attachment (heavy-tailed, symmetric);
//! * internet topology (AS) → sparse undirected Erdős–Rényi;
//! * voting / web / hyperlink graphs (Wiki-Vote, Slashdot, EuAll,
//!   NotreDame, Google, In-2004, Indochina) → R-MAT with the canonical
//!   skew parameters.
//!
//! SimRank methods only interact with topology statistics, so the paper's
//! comparative results (who wins, by what rough factor) are preserved.

use crate::digraph::DiGraph;
use crate::generators::{barabasi_albert, erdos_renyi_undirected, rmat, RmatConfig};

/// Size tier of a dataset, controlling which experiments include it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Ground-truth-feasible (power method runs): Figures 5–7.
    Small,
    /// Default performance experiments: Figures 1–4.
    Medium,
    /// Opt-in scale experiments: Figures 9–10 and `--large` runs.
    Large,
}

/// A named synthetic dataset mirroring one row of the paper's Table 3.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Name used by the benchmark harness (e.g. `grqc-sim`).
    pub name: &'static str,
    /// The Table 3 dataset this stands in for.
    pub paper_name: &'static str,
    /// Whether the original dataset is directed.
    pub directed: bool,
    /// Size tier.
    pub tier: Tier,
    /// n of the original dataset (for the Table 3 report).
    pub paper_n: usize,
    /// m of the original dataset.
    pub paper_m: usize,
    kind: Kind,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Barabási–Albert with attachment factor k.
    Ba { n: usize, k: usize },
    /// Undirected Erdős–Rényi with m undirected edges.
    ErUndirected { n: usize, m: usize },
    /// R-MAT with 2^scale nodes and m directed edges.
    Rmat { scale: u32, m: usize },
}

/// Deterministic seed per dataset so every run sees identical graphs.
fn seed_for(name: &str) -> u64 {
    // FNV-1a over the name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl DatasetSpec {
    /// Materialize the graph (deterministic in the dataset name).
    pub fn build(&self) -> DiGraph {
        let seed = seed_for(self.name);
        match self.kind {
            Kind::Ba { n, k } => barabasi_albert(n, k, seed).expect("valid BA config"),
            Kind::ErUndirected { n, m } => {
                erdos_renyi_undirected(n, m, seed).expect("valid ER config")
            }
            Kind::Rmat { scale, m } => {
                rmat(scale, m, RmatConfig::default(), seed).expect("valid RMAT config")
            }
        }
    }
}

/// The full suite, in the paper's Table 3 order.
pub fn suite() -> &'static [DatasetSpec] {
    &SUITE
}

/// Datasets of at most the given tier.
pub fn up_to_tier(tier: Tier) -> impl Iterator<Item = &'static DatasetSpec> {
    SUITE.iter().filter(move |d| d.tier <= tier)
}

/// Look up a dataset by harness name.
pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
    SUITE.iter().find(|d| d.name == name)
}

static SUITE: [DatasetSpec; 10] = [
    DatasetSpec {
        name: "grqc-sim",
        paper_name: "GrQc",
        directed: false,
        tier: Tier::Small,
        paper_n: 5_242,
        paper_m: 14_496,
        kind: Kind::Ba { n: 3_000, k: 3 },
    },
    DatasetSpec {
        name: "as-sim",
        paper_name: "AS",
        directed: false,
        tier: Tier::Small,
        paper_n: 6_474,
        paper_m: 13_895,
        kind: Kind::ErUndirected { n: 3_200, m: 6_800 },
    },
    DatasetSpec {
        name: "wikivote-sim",
        paper_name: "Wiki-Vote",
        directed: true,
        tier: Tier::Small,
        paper_n: 7_115,
        paper_m: 103_689,
        kind: Kind::Rmat {
            scale: 11,
            m: 30_000,
        },
    },
    DatasetSpec {
        name: "hepth-sim",
        paper_name: "HepTh",
        directed: false,
        tier: Tier::Small,
        paper_n: 9_877,
        paper_m: 25_998,
        kind: Kind::Ba { n: 4_000, k: 3 },
    },
    DatasetSpec {
        name: "enron-sim",
        paper_name: "Enron",
        directed: false,
        tier: Tier::Medium,
        paper_n: 36_692,
        paper_m: 183_831,
        kind: Kind::Ba { n: 15_000, k: 5 },
    },
    DatasetSpec {
        name: "slashdot-sim",
        paper_name: "Slashdot",
        directed: true,
        tier: Tier::Medium,
        paper_n: 77_360,
        paper_m: 905_468,
        kind: Kind::Rmat {
            scale: 15,
            m: 300_000,
        },
    },
    DatasetSpec {
        name: "euall-sim",
        paper_name: "EuAll",
        directed: true,
        tier: Tier::Medium,
        paper_n: 265_214,
        paper_m: 400_045,
        kind: Kind::Rmat {
            scale: 16,
            m: 110_000,
        },
    },
    DatasetSpec {
        name: "notredame-sim",
        paper_name: "NotreDame",
        directed: true,
        tier: Tier::Medium,
        paper_n: 325_728,
        paper_m: 1_497_134,
        kind: Kind::Rmat {
            scale: 17,
            m: 600_000,
        },
    },
    DatasetSpec {
        name: "google-sim",
        paper_name: "Google",
        directed: true,
        tier: Tier::Large,
        paper_n: 875_713,
        paper_m: 5_105_049,
        kind: Kind::Rmat {
            scale: 18,
            m: 1_500_000,
        },
    },
    DatasetSpec {
        name: "livejournal-sim",
        paper_name: "LiveJournal",
        directed: true,
        tier: Tier::Large,
        paper_n: 4_847_571,
        paper_m: 68_993_773,
        kind: Kind::Rmat {
            scale: 19,
            m: 3_000_000,
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn suite_names_are_unique() {
        let mut names: Vec<_> = suite().iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite().len());
    }

    #[test]
    fn small_tier_builds_and_matches_type() {
        for spec in up_to_tier(Tier::Small) {
            let g = spec.build();
            assert!(g.num_nodes() >= 1_000, "{} too small", spec.name);
            assert!(g.validate(), "{} invalid", spec.name);
            let stats = GraphStats::compute(&g);
            assert_eq!(
                stats.symmetric, !spec.directed,
                "{} directedness mismatch",
                spec.name
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let spec = by_name("grqc-sim").unwrap();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("wikivote-sim").is_some());
        assert!(by_name("no-such-dataset").is_none());
    }

    #[test]
    fn tier_filter_is_monotone() {
        let small = up_to_tier(Tier::Small).count();
        let medium = up_to_tier(Tier::Medium).count();
        let large = up_to_tier(Tier::Large).count();
        assert!(small <= medium && medium <= large);
        assert_eq!(large, suite().len());
        assert_eq!(small, 4);
    }
}
