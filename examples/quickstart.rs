//! Quickstart: build a SLING index over a small collaboration-style
//! graph and answer single-pair and single-source SimRank queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::barabasi_albert;
use sling_simrank::graph::NodeId;

fn main() {
    // A 2000-node preferential-attachment graph: a stand-in for a small
    // co-authorship network (heavy-tailed degrees, symmetric edges).
    let graph = barabasi_albert(2000, 3, 42).expect("valid generator config");
    println!(
        "graph: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Paper parameters: c = 0.6, worst-case error eps = 0.025 per score.
    let config = SlingConfig::from_epsilon(0.6, 0.025).with_seed(7);
    let start = std::time::Instant::now();
    let index = SlingIndex::build(&graph, &config).expect("config satisfies Theorem 1");
    println!(
        "index built in {:.2?}: {} HP entries, {} bytes, {} reduced nodes",
        start.elapsed(),
        index.stats().entries_stored,
        index.resident_bytes(),
        index.stats().reduced_nodes,
    );

    // Every query goes through the engine. Converting the index moves
    // it; the engine picks how to restore §5.2-reduced lists from it.
    let engine = SharedEngine::from(index);

    // Single-pair queries (Algorithm 3): O(1/eps) each.
    let (a, b, c_) = (NodeId(10), NodeId(11), NodeId(1500));
    let start = std::time::Instant::now();
    let s_ab = engine.single_pair(&graph, a, b).expect("nodes in range");
    let s_ac = engine.single_pair(&graph, a, c_).expect("nodes in range");
    println!(
        "s({a}, {b}) = {s_ab:.4}   s({a}, {c_}) = {s_ac:.4}   ({:.1?} for both)",
        start.elapsed()
    );

    // Single-source query (Algorithm 6) + top-k ranking.
    let start = std::time::Instant::now();
    let top = engine.top_k(&graph, a, 5).expect("node in range");
    println!("top-5 nodes most similar to {a} ({:.2?}):", start.elapsed());
    for (v, s) in top {
        println!("  {v:>6}  s = {s:.4}");
    }
}
