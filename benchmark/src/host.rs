//! A host-noise diagnostic, nothing more.
//!
//! The reference host is a two-vCPU guest on shared cores: a fixed unit of
//! CPU-bound work takes 1.0× to 1.3× its best time, in plateaus of a second
//! or a few. The benchmark times plain wall clock and rides that out with
//! whole-second regions and medians over rounds. This kernel runs once
//! before every round, outside every timed region, and the header of the
//! report prints its fastest, median and slowest time, so a reader can tell a
//! run that met a slow host from a program that got slower. No reported
//! metric depends on it.

use std::hint::black_box;
use std::time::Instant;

/// Words the kernel walks: 256 KiB, resident in L2.
const KERNEL_WORDS: usize = 32 * 1024;
/// Walks per probe: about a millisecond.
const KERNEL_WALKS: usize = 64;

pub struct HostProbe {
    words: Vec<u64>,
    pub samples_us: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            words: (0..KERNEL_WORDS as u64).collect(),
            samples_us: Vec::new(),
        }
    }

    pub fn probe(&mut self) {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..KERNEL_WALKS {
            for w in self.words.iter_mut() {
                *w = w
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc ^= *w >> 7;
            }
        }
        black_box(acc);
        self.samples_us
            .push(start.elapsed().as_nanos() as f64 / 1e3);
    }
}
