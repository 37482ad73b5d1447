//! Deterministic random-graph generators and closed-form utility graphs.
//!
//! These stand in for the paper's real-world datasets (see [`crate::datasets`])
//! and supply the small structured graphs the test suites use to check
//! SimRank values against hand-computed results.

mod barabasi_albert;
mod bipartite;
mod erdos_renyi;
mod lattice;
mod rmat;
mod utility;
mod watts_strogatz;

pub use barabasi_albert::barabasi_albert;
pub use bipartite::{preferential_bipartite, random_bipartite};
pub use erdos_renyi::{erdos_renyi_directed, erdos_renyi_undirected};
pub use lattice::{binary_in_tree, grid_graph};
pub use rmat::{rmat, RmatConfig};
pub use utility::{complete_graph, cycle_graph, path_graph, star_graph, two_cliques_bridge};
pub use watts_strogatz::watts_strogatz;
