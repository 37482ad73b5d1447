//! §5.4 in action: parallel construction, out-of-core construction with
//! a bounded sort buffer, index persistence, and disk-resident querying.
//!
//! ```sh
//! cargo run --release --example parallel_out_of_core
//! ```

use sling_simrank::core::out_of_core::{build_out_of_core, OutOfCoreConfig};
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::rmat;
use sling_simrank::graph::generators::RmatConfig;
use sling_simrank::graph::NodeId;

fn main() {
    // A web-graph-like directed R-MAT graph.
    let graph = rmat(13, 60_000, RmatConfig::default(), 77).expect("valid config");
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );
    let config = SlingConfig::from_epsilon(0.6, 0.1).with_seed(9);

    // 1. Serial vs parallel construction: identical indexes.
    let start = std::time::Instant::now();
    let serial = SlingIndex::build(&graph, &config).expect("valid");
    let serial_time = start.elapsed();
    let start = std::time::Instant::now();
    let parallel = SlingIndex::build(&graph, &config.clone().with_threads(4)).expect("valid");
    let parallel_time = start.elapsed();
    assert_eq!(serial.correction_factors(), parallel.correction_factors());
    println!(
        "serial build {serial_time:.2?}, 4-thread build {parallel_time:.2?} (identical indexes)"
    );

    // 2. Out-of-core construction with a 1 MB sort buffer.
    let occ = OutOfCoreConfig::with_buffer(1 << 20);
    let start = std::time::Instant::now();
    let ooc = build_out_of_core(&graph, &config, &occ).expect("ooc build");
    println!(
        "out-of-core build (1MB buffer) {:.2?}; {} entries — matches in-memory: {}",
        start.elapsed(),
        ooc.stats().entries_stored,
        ooc.stats().entries_stored == serial.stats().entries_stored,
    );

    // 3. Persist the index and reload it.
    let idx_path = std::env::temp_dir().join("sling_example.idx");
    serial.save(&idx_path).expect("save");
    let loaded = SharedEngine::from(SlingIndex::load(&graph, &idx_path).expect("load"));
    let serial_bytes = serial.resident_bytes();
    let serial = SharedEngine::from(serial);
    let (u, v) = (NodeId(17), NodeId(4000));
    assert_eq!(
        serial.single_pair(&graph, u, v).expect("memory query"),
        loaded.single_pair(&graph, u, v).expect("memory query")
    );
    println!(
        "index persisted to {} ({} bytes) and reloaded",
        idx_path.display(),
        std::fs::metadata(&idx_path).map(|m| m.len()).unwrap_or(0)
    );

    // 4. Disk-resident querying: only O(n) stays in memory.
    let engine = SharedEngine::open_disk(&graph, &idx_path).expect("disk engine");
    let mem = serial.single_pair(&graph, u, v).expect("memory query");
    let disk = engine.single_pair(&graph, u, v).expect("disk query");
    println!(
        "disk engine: {} resident bytes vs {} in-memory; s({u},{v}) = {disk:.5} (memory {mem:.5})",
        engine.resident_bytes(),
        serial_bytes
    );
    assert!((mem - disk).abs() < 1e-12);
    std::fs::remove_file(idx_path).ok();
}
