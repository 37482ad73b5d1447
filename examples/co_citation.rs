//! Co-citation analysis — the scenario SimRank was designed for
//! (Jeh & Widom 2002): two papers are similar when they are cited by
//! similar papers.
//!
//! This example builds a layered synthetic citation DAG (papers cite
//! earlier papers, with topic-community structure), indexes it with
//! SLING, and shows that within-topic papers score far higher than
//! cross-topic ones. It also round-trips the graph through the SNAP
//! edge-list format to demonstrate the IO path a user would take with a
//! real citation dataset.
//!
//! ```sh
//! cargo run --release --example co_citation
//! ```

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::{edgelist, GraphBuilder, NodeId};

/// Papers per topic community and number of topics.
const PAPERS_PER_TOPIC: u32 = 300;
const TOPICS: u32 = 4;

fn main() {
    // Generate a citation DAG: paper i cites ~8 earlier papers, 90% from
    // its own topic, 10% from a random topic.
    let n = PAPERS_PER_TOPIC * TOPICS;
    let mut rng = SmallRng::seed_from_u64(2016);
    let mut builder = GraphBuilder::with_nodes(n as usize);
    for paper in 1..n {
        let topic = paper % TOPICS;
        for _ in 0..8 {
            let target_topic = if rng.random::<f64>() < 0.9 {
                topic
            } else {
                rng.random_range(0..TOPICS)
            };
            // Sample an earlier paper of the chosen topic.
            let pool = paper / TOPICS; // papers per topic published so far
            if pool == 0 {
                continue;
            }
            let idx = rng.random_range(0..pool);
            let cited = idx * TOPICS + target_topic;
            if cited < paper {
                // Edge direction: citing -> cited, so I(v) = papers citing v
                // and SimRank(v, w) measures co-citation similarity.
                builder.add_edge(paper, cited);
            }
        }
    }
    let graph = builder.build().expect("node ids fit");
    println!(
        "citation DAG: {} papers, {} citations",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Round-trip through the SNAP edge-list format (what you would do
    // with a real dataset downloaded from snap.stanford.edu).
    let path = std::env::temp_dir().join("sling_citations.txt");
    edgelist::save_path(&graph, &path).expect("write edge list");
    let reloaded = edgelist::load_path(&path, edgelist::ParseOptions::default()).expect("parse");
    assert_eq!(reloaded.num_edges(), graph.num_edges());
    println!("edge list round-tripped through {}", path.display());

    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(3);
    let index = SharedEngine::from(SlingIndex::build(&graph, &config).expect("valid config"));

    // Compare within-topic vs cross-topic similarity over a sample of
    // well-cited pairs (early papers accumulate citations).
    let mut within = Vec::new();
    let mut across = Vec::new();
    for a in 40..80u32 {
        for b in 40..80u32 {
            if a >= b {
                continue;
            }
            let s = index
                .single_pair(&graph, NodeId(a), NodeId(b))
                .expect("nodes in range");
            if a % TOPICS == b % TOPICS {
                within.push(s);
            } else {
                across.push(s);
            }
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "average SimRank: same-topic pairs {:.4}  vs  cross-topic pairs {:.4}",
        avg(&within),
        avg(&across)
    );
    assert!(
        avg(&within) > 2.0 * avg(&across),
        "same-topic papers should be much more co-citation-similar"
    );

    // "Related papers" for one paper via single-source + top-k.
    let query = NodeId(44); // topic 44 % 4 = 0
    let related = index.top_k(&graph, query, 5).expect("node in range");
    println!(
        "papers most related to paper {query} (topic {}):",
        query.0 % TOPICS
    );
    let mut same_topic = 0;
    for (v, s) in &related {
        println!("  paper {v:>5} (topic {})  s = {s:.4}", v.0 % TOPICS);
        if v.0 % TOPICS == query.0 % TOPICS {
            same_topic += 1;
        }
    }
    println!("{same_topic}/5 recommendations share the query's topic");
    std::fs::remove_file(path).ok();
}
