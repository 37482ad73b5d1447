//! Seeded operation streams and arrival schedules.
//!
//! Everything the program under test sees is generated here from the
//! workload seed, with a generator local to the benchmark (SplitMix64),
//! so the streams do not change when the workspace's own RNG does.

use sling_graph::DiGraph;

/// `k` of every TOPK operation.
pub const TOPK_K: usize = 10;

/// Number of highest-in-degree nodes that count as hubs.
const HUBS: usize = 32;

/// SplitMix64: tiny, fast and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive the seed of one independent stream from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Stream tags for [`sub_seed`].
pub mod stream {
    pub const BUILD: u64 = 2;
    pub const OPS: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const BUILD_B: u64 = 5;
    pub const CLOSED_OPS: u64 = 6;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Pair(u32, u32),
    Source(u32),
    TopK(u32),
}

/// Verb index used for per-verb arrays: 0 PAIR, 1 SOURCE, 2 TOPK.
pub const VERBS: [&str; 3] = ["pair", "source", "topk"];

impl Op {
    pub fn verb(&self) -> usize {
        match self {
            Op::Pair(..) => 0,
            Op::Source(_) => 1,
            Op::TopK(_) => 2,
        }
    }

    /// The wire request line, newline included.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let _ = match *self {
            Op::Pair(u, v) => writeln!(out, "PAIR {u} {v}"),
            Op::Source(u) => writeln!(out, "SOURCE {u}"),
            Op::TopK(u) => writeln!(out, "TOPK {u} {TOPK_K}"),
        };
    }
}

fn uniform_pair(rng: &mut Rng, n: u32) -> (u32, u32) {
    let u = rng.below(n as u64) as u32;
    let mut v = rng.below(n as u64 - 1) as u32;
    if v >= u {
        v += 1;
    }
    (u, v)
}

/// Hubs (the [`HUBS`] highest in-degree nodes) and leaves (nodes whose
/// in-degree is at most the median).
pub fn hubs_and_leaves(g: &DiGraph) -> (Vec<u32>, Vec<u32>) {
    let mut by_degree: Vec<(usize, u32)> = g.nodes().map(|v| (g.in_degree(v), v.0)).collect();
    by_degree.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hubs = by_degree.iter().take(HUBS).map(|&(_, v)| v).collect();
    let median = by_degree[by_degree.len() / 2].0;
    let leaves = g
        .nodes()
        .filter(|&v| g.in_degree(v) <= median)
        .map(|v| v.0)
        .collect();
    (hubs, leaves)
}

/// The in-process kernel mix: 80% PAIR (half uniform, half hub×leaf),
/// 10% SOURCE, 10% TOPK.
pub fn kernel_mix(seed: u64, g: &DiGraph, len: usize) -> Vec<Op> {
    let n = g.num_nodes() as u32;
    let (hubs, leaves) = hubs_and_leaves(g);
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| match rng.below(100) {
            0..=39 => {
                let (u, v) = uniform_pair(&mut rng, n);
                Op::Pair(u, v)
            }
            40..=79 => {
                let hub = hubs[rng.below(hubs.len() as u64) as usize];
                let mut leaf = leaves[rng.below(leaves.len() as u64) as usize];
                if leaf == hub {
                    leaf = (leaf + 1) % n;
                }
                Op::Pair(hub, leaf)
            }
            80..=89 => Op::Source(rng.below(n as u64) as u32),
            _ => Op::TopK(rng.below(n as u64) as u32),
        })
        .collect()
}

/// Ranks of the Zipf pair universe.
const ZIPF_UNIVERSE: usize = 1 << 17;

/// Zipf exponent of the served pair popularity.
const ZIPF_S: f64 = 1.15;

/// Zipf-skewed pairs over a seeded universe of canonical `(u < v)` pairs.
pub struct ZipfPairs {
    cdf: Vec<f64>,
    salt: u64,
    n: u32,
}

impl ZipfPairs {
    pub fn new(seed: u64, n: u32) -> ZipfPairs {
        let mut acc = 0.0;
        let cdf = (0..ZIPF_UNIVERSE)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        ZipfPairs { cdf, salt: seed, n }
    }

    pub fn sample(&self, rng: &mut Rng) -> (u32, u32) {
        let total = *self.cdf.last().expect("non-empty universe");
        let x = rng.unit() * total;
        let rank = self.cdf.partition_point(|&c| c <= x) as u64;
        let (u, v) = uniform_pair(&mut Rng::new(self.salt ^ rank), self.n);
        (u.min(v), u.max(v))
    }
}

/// The served mix: ~94% Zipf-skewed PAIR, ~3% SOURCE, ~3% TOPK.
pub fn serve_mix(seed: u64, n: u32, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let zipf = ZipfPairs::new(sub_seed(seed, 99), n);
    (0..len)
        .map(|_| match rng.below(100) {
            0..=93 => {
                let (u, v) = zipf.sample(&mut rng);
                Op::Pair(u, v)
            }
            94..=96 => Op::Source(rng.below(n as u64) as u32),
            _ => Op::TopK(rng.below(n as u64) as u32),
        })
        .collect()
}

/// Poisson arrivals at `rate` per second in `[start_ns, end_ns)`,
/// appended to `out` as nanosecond offsets.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, start_ns: u64, end_ns: u64, out: &mut Vec<u64>) {
    let mut t = start_ns as f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end_ns as f64 {
            return;
        }
        out.push(t as u64);
    }
}

/// Wire request lines of `ops`, for timing the protocol parser.
pub fn request_lines(ops: &[Op]) -> Vec<String> {
    ops.iter()
        .map(|op| {
            let mut line = Vec::new();
            op.write_line(&mut line);
            line.pop();
            String::from_utf8(line).expect("ASCII request line")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::barabasi_albert;

    #[test]
    fn same_seed_same_streams_different_seed_different_streams() {
        let g = barabasi_albert(500, 4, 3).unwrap();
        assert_eq!(kernel_mix(7, &g, 2000), kernel_mix(7, &g, 2000));
        assert_ne!(kernel_mix(7, &g, 2000), kernel_mix(8, &g, 2000));
        assert_eq!(serve_mix(7, 500, 2000), serve_mix(7, 500, 2000));
        assert_ne!(serve_mix(7, 500, 2000), serve_mix(8, 500, 2000));
        let arrivals = |seed| {
            let mut out = Vec::new();
            poisson_arrivals(&mut Rng::new(seed), 1e4, 0, 1_000_000_000, &mut out);
            out
        };
        assert_eq!(arrivals(7), arrivals(7));
        assert_ne!(arrivals(7), arrivals(8));
        assert_ne!(sub_seed(7, stream::OPS), sub_seed(8, stream::OPS));
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let g = barabasi_albert(500, 4, 3).unwrap();
        let share = |ops: &[Op], verb: usize| {
            ops.iter().filter(|o| o.verb() == verb).count() as f64 / ops.len() as f64
        };
        let k = kernel_mix(1, &g, 20_000);
        assert!((share(&k, 0) - 0.80).abs() < 0.02);
        assert!((share(&k, 1) - 0.10).abs() < 0.02);
        let s = serve_mix(1, 500, 20_000);
        assert!((share(&s, 0) - 0.94).abs() < 0.02);
        assert!(s.iter().all(|op| match *op {
            Op::Pair(u, v) => u < v,
            _ => true,
        }));
    }

    #[test]
    fn poisson_rate_matches() {
        let mut out = Vec::new();
        poisson_arrivals(&mut Rng::new(5), 20_000.0, 0, 2_000_000_000, &mut out);
        assert!(
            (out.len() as f64 - 40_000.0).abs() < 1_000.0,
            "{}",
            out.len()
        );
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }
}
