//! Integration tests for the operational paths: persistence, parallel
//! construction, out-of-core construction, and disk-resident querying on
//! larger graphs than the unit tests use.

use sling_simrank::core::out_of_core::{build_out_of_core, OutOfCoreConfig};
use sling_simrank::core::{SharedEngine, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::{barabasi_albert, rmat, RmatConfig};
use sling_simrank::graph::NodeId;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn serial_parallel_and_out_of_core_builds_are_identical() {
    let g = rmat(11, 12_000, RmatConfig::default(), 8).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1).with_seed(5);
    let serial = SlingIndex::build(&g, &config).unwrap();
    let parallel = SlingIndex::build(&g, &config.clone().with_threads(3)).unwrap();
    let ooc = build_out_of_core(
        &g,
        &config,
        &OutOfCoreConfig {
            buffer_bytes: 64 * 1024,
            temp_dir: tmp("ooc_runs"),
        },
    )
    .unwrap();
    assert_eq!(serial.correction_factors(), parallel.correction_factors());
    assert_eq!(serial.correction_factors(), ooc.correction_factors());
    for v in [0u32, 99, 2047, 1000] {
        let a: Vec<_> = serial.stored_entries(NodeId(v)).collect();
        let b: Vec<_> = parallel.stored_entries(NodeId(v)).collect();
        let c: Vec<_> = ooc.stored_entries(NodeId(v)).collect();
        assert_eq!(a, b, "parallel mismatch at node {v}");
        assert_eq!(a, c, "out-of-core mismatch at node {v}");
    }
}

#[test]
fn save_load_disk_store_agree_on_larger_graph() {
    let g = barabasi_albert(1000, 3, 12).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.05)
        .with_seed(9)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();

    let idx_path = tmp("index.bin");
    idx.save(&idx_path).unwrap();
    let loaded = SlingIndex::load(&g, &idx_path).unwrap();

    let disk = SharedEngine::open_disk(&g, &idx_path).unwrap();

    for (u, v) in [(0u32, 1u32), (17, 940), (500, 501), (999, 0), (3, 3)] {
        let a = idx.single_pair(&g, NodeId(u), NodeId(v));
        let b = loaded.single_pair(&g, NodeId(u), NodeId(v));
        assert_eq!(a, b, "persisted index disagrees at ({u},{v})");
        // The disk store persists the §5.3 marks along with everything
        // else, so it answers bit-identically to the enhanced in-memory
        // index.
        let c = disk.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
        assert_eq!(a, c, "disk store disagrees at ({u},{v})");
    }
    std::fs::remove_file(idx_path).ok();
}

#[test]
fn index_rebuild_with_same_seed_is_bitwise_stable_across_processes() {
    // Determinism claim: same seed + same graph => same bytes.
    let g = barabasi_albert(300, 2, 77).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1).with_seed(123);
    let a = SlingIndex::build(&g, &config).unwrap().to_bytes();
    let b = SlingIndex::build(&g, &config).unwrap().to_bytes();
    assert_eq!(a, b);
}

#[test]
fn medium_graph_smoke_build_and_query() {
    // A quick sanity pass at the scale the benchmark harness uses.
    let g = rmat(13, 50_000, RmatConfig::default(), 3).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.2).with_seed(2);
    let idx = SlingIndex::build(&g, &config).unwrap();
    assert!(idx.stats().entries_stored > g.num_nodes()); // at least step-0 entries
    let scores = idx.single_source(&g, NodeId(42));
    assert_eq!(scores.len(), g.num_nodes());
    assert_eq!(scores[42], 1.0);
    assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
}
