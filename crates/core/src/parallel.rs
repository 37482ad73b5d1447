//! §5.4 — embarrassingly parallel index construction.
//!
//! Both preprocessing phases shard perfectly by node:
//!
//! * correction factors: each `d̃_k` is an independent sampling task, and
//!   its RNG stream is keyed by `(seed, k)`, so the result is identical to
//!   the serial build regardless of scheduling;
//! * hitting probabilities: each Algorithm 2 traversal (one per target
//!   `v_k`) only reads the graph and writes its own triples; workers emit
//!   into thread-local buffers that are concatenated and sorted once at
//!   the end — the same multiset, hence (after the total `(owner, step,
//!   target)` sort) the same index the serial builder produces.
//!
//! Work is distributed in fixed-size node blocks claimed from an atomic
//! counter, which balances the degree skew of real graphs far better than
//! a static partition.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::correction::estimate_dk;
use crate::error::SlingError;
use crate::index::SlingIndex;
use crate::local_update::{reverse_hp_from, HpTriple};
use crate::walk::{task_rng, WalkEngine};

/// Nodes claimed per atomic fetch; small enough to balance skew, large
/// enough that contention on the counter is negligible.
const BLOCK: usize = 64;

pub(crate) fn build_parallel(
    graph: &DiGraph,
    config: &SlingConfig,
) -> Result<SlingIndex, SlingError> {
    config.validate()?;
    let n = graph.num_nodes();
    let threads = config.threads.max(1).min(n.max(1));
    let delta_d = config.delta_d(n);

    // Phase 1: correction factors.
    let cursor = AtomicUsize::new(0);
    let total_samples = AtomicU64::new(0);
    let d_parts: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let engine = WalkEngine::new(graph, config.c);
                let mut samples = 0u64;
                loop {
                    let lo = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    let hi = (lo + BLOCK).min(n);
                    let mut block = Vec::with_capacity(hi - lo);
                    for k in lo..hi {
                        let node = NodeId::from_index(k);
                        let mut rng = task_rng(config.seed, k as u64);
                        let est = estimate_dk(
                            graph,
                            &engine,
                            &mut rng,
                            node,
                            config.c,
                            config.eps_d,
                            delta_d,
                            config.adaptive_dk,
                        );
                        samples += est.samples;
                        block.push(est.d);
                    }
                    d_parts.lock().push((lo, block));
                }
                total_samples.fetch_add(samples, Ordering::Relaxed);
            });
        }
    })
    .expect("worker thread panicked during d_k estimation");

    let mut d = vec![0.0f64; n];
    for (lo, block) in d_parts.into_inner() {
        d[lo..lo + block.len()].copy_from_slice(&block);
    }

    // Phase 2: Algorithm 2 traversals.
    let cursor = AtomicUsize::new(0);
    let triple_parts: Mutex<Vec<Vec<HpTriple>>> = Mutex::new(Vec::new());
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut local: Vec<HpTriple> = Vec::new();
                loop {
                    let lo = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    let hi = (lo + BLOCK).min(n);
                    for k in lo..hi {
                        reverse_hp_from(
                            graph,
                            config.sqrt_c(),
                            config.theta,
                            NodeId::from_index(k),
                            &mut |t| local.push(t),
                        );
                    }
                }
                triple_parts.lock().push(local);
            });
        }
    })
    .expect("worker thread panicked during HP construction");

    let parts = triple_parts.into_inner();
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut triples = Vec::with_capacity(total);
    for part in parts {
        triples.extend(part);
    }
    SlingIndex::from_parts(
        graph,
        config,
        d,
        triples,
        total_samples.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};

    #[test]
    fn parallel_build_equals_serial_build() {
        let g = barabasi_albert(300, 3, 17).unwrap();
        let serial_cfg = SlingConfig::from_epsilon(0.6, 0.1).with_seed(9);
        let parallel_cfg = serial_cfg.clone().with_threads(4);
        let a = SlingIndex::build(&g, &serial_cfg).unwrap();
        let b = SlingIndex::build(&g, &parallel_cfg).unwrap();
        assert_eq!(a.d, b.d, "correction factors must be identical");
        assert_eq!(a.hp, b.hp, "HP arenas must be identical");
        assert_eq!(a.reduced, b.reduced);
        assert_eq!(a.stats().dk_samples, b.stats().dk_samples);
    }

    #[test]
    fn parallel_build_with_enhancement_and_more_threads_than_blocks() {
        let g = two_cliques_bridge(5); // only 10 nodes, 8 threads
        let cfg = SlingConfig::from_epsilon(0.6, 0.1)
            .with_seed(4)
            .with_threads(8)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &cfg).unwrap();
        let serial = SlingIndex::build(&g, &cfg.clone().with_threads(1)).unwrap();
        assert_eq!(idx.d, serial.d);
        assert_eq!(idx.hp, serial.hp);
        assert_eq!(idx.marks, serial.marks);
    }

    #[test]
    fn queries_agree_between_serial_and_parallel_indexes() {
        let g = barabasi_albert(200, 2, 3).unwrap();
        let cfg = SlingConfig::from_epsilon(0.6, 0.1).with_seed(5);
        let a = crate::SharedEngine::from(SlingIndex::build(&g, &cfg).unwrap());
        let b =
            crate::SharedEngine::from(SlingIndex::build(&g, &cfg.clone().with_threads(3)).unwrap());
        for u in [0u32, 7, 42, 199] {
            let su = a.single_source(&g, NodeId(u)).unwrap();
            let sv = b.single_source(&g, NodeId(u)).unwrap();
            assert_eq!(su, sv);
        }
    }
}
