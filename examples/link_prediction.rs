//! Link prediction on a social network — one of the applications the
//! paper's introduction motivates (Liben-Nowell & Kleinberg).
//!
//! Protocol: generate a planted-partition "friendship" graph (dense
//! communities plus sparse random ties), hide a random 10% of its
//! undirected edges, build SLING on the remaining graph, and check how
//! often the hidden neighbor appears in the top-k SimRank
//! recommendations of each probed node — versus a random-guess baseline.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::{GraphBuilder, NodeId};

const COMMUNITIES: u32 = 40;
const COMMUNITY_SIZE: u32 = 30;

fn main() {
    let n = (COMMUNITIES * COMMUNITY_SIZE) as usize;
    let mut rng = SmallRng::seed_from_u64(5);

    // Planted partition: ~8 intra-community and ~1 inter-community ties
    // per node. Community of node v is v / COMMUNITY_SIZE.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n as u32 {
        let comm = v / COMMUNITY_SIZE;
        let base = comm * COMMUNITY_SIZE;
        for _ in 0..8 {
            let w = base + rng.random_range(0..COMMUNITY_SIZE);
            if w != v {
                edges.push((v.min(w), v.max(w)));
            }
        }
        let w = rng.random_range(0..n as u32);
        if w != v {
            edges.push((v.min(w), v.max(w)));
        }
    }
    edges.sort_unstable();
    edges.dedup();

    // Hide 10% of the undirected edges (deterministic shuffle).
    let mut keyed: Vec<(u64, (u32, u32))> = edges.into_iter().map(|e| (rng.random(), e)).collect();
    keyed.sort_unstable();
    let hidden_count = keyed.len() / 10;
    let hidden: Vec<(u32, u32)> = keyed[..hidden_count].iter().map(|&(_, e)| e).collect();
    let kept: Vec<(u32, u32)> = keyed[hidden_count..].iter().map(|&(_, e)| e).collect();

    let mut builder = GraphBuilder::with_nodes(n).symmetric(true);
    for (u, v) in &kept {
        builder.add_edge(*u, *v);
    }
    let graph = builder.build().expect("fits");
    println!(
        "training graph: {} nodes, {} edges ({} undirected edges hidden)",
        graph.num_nodes(),
        graph.num_edges(),
        hidden.len()
    );

    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(1);
    let index = SharedEngine::from(SlingIndex::build(&graph, &config).expect("valid config"));

    // For each hidden edge (u, v): does v appear among u's top-k
    // non-neighbor recommendations?
    let k = 20usize;
    let probes = hidden.len().min(200);
    let mut hits = 0usize;
    for &(u, v) in hidden.iter().take(probes) {
        let ranked = index
            .top_k(&graph, NodeId(u), k + graph.out_degree(NodeId(u)))
            .expect("node in range");
        let recommended: Vec<u32> = ranked
            .into_iter()
            .map(|(w, _)| w.0)
            .filter(|&w| !graph.has_edge(NodeId(u), NodeId(w))) // new links only
            .take(k)
            .collect();
        if recommended.contains(&v) {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / probes as f64;
    // Random guessing hits with probability ~ k / n.
    let random_rate = k as f64 / n as f64;
    println!("hidden-link hit rate in top-{k}: {hit_rate:.3} over {probes} probes");
    println!("random-guess baseline:          {random_rate:.3}");
    println!("lift over random: {:.1}x", hit_rate / random_rate);
    assert!(
        hit_rate > 10.0 * random_rate,
        "SimRank should beat random guessing decisively on community graphs"
    );
}
