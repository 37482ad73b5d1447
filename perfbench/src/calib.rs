//! Host-speed calibration.
//!
//! The sizing host's speed drifted by 30–45% within a quarter of an hour
//! (other tenants of the machine come and go), moving every time in the
//! same direction at once. So each run also times a fixed loop that is
//! local to the benchmark and independent of the program under test —
//! a pointer chase through an L1-sized cyclic permutation, mixed into a
//! hash — on the measuring thread: a few units before set-up and one
//! unit per 100 ms slice of the timed window. Times are reported scaled
//! by `REFERENCE_UNIT_S / median unit time`, i.e. in seconds of the
//! sizing host at its reference speed; README.md gives the raw-time
//! conversion (`host.speed_factor`).

use std::hint::black_box;
use std::time::Instant;

use crate::ops::Rng;
use crate::stats::median;

/// Entries of the cyclic permutation (16 KiB: L1-resident, so that what
/// the workload left in the caches does not change the unit's time).
const CHAIN_LEN: usize = 1 << 12;

/// Timed pointer-chase steps per unit (a few hundred microseconds).
const STEPS: usize = 200_000;

/// Units timed before set-up.
pub const WARM_UNITS: usize = 20;

/// Median unit time on the sizing host at its reference speed
/// (README.md): 2-vCPU Xeon VM, release build.
const REFERENCE_UNIT_S: f64 = 0.000_37;

pub struct Calibration {
    chain: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        // Sattolo's algorithm: a single cycle through every entry.
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut rng = Rng::new(0x5eed);
        for i in (1..CHAIN_LEN).rev() {
            let j = rng.below(i as u64) as usize;
            chain.swap(i, j);
        }
        Calibration {
            chain,
            samples: Vec::new(),
        }
    }

    /// Time one unit, after an untimed pass that brings the chain back
    /// into L1.
    pub fn sample(&mut self) {
        black_box(self.chase(CHAIN_LEN));
        let t0 = Instant::now();
        black_box(self.chase(STEPS));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    fn chase(&self, steps: usize) -> u64 {
        let (mut at, mut h) = (0u32, 0u64);
        for _ in 0..steps {
            at = self.chain[at as usize];
            h = (h ^ at as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(23);
        }
        h
    }

    pub fn units(&self) -> usize {
        self.samples.len()
    }

    /// Reference speed over this run's speed: multiply a measured time by
    /// it, divide a measured rate by it.
    pub fn factor(&self) -> f64 {
        REFERENCE_UNIT_S / median(&self.samples)
    }
}
