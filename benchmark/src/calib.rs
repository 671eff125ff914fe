//! The machine-speed reference.
//!
//! The box this benchmark runs on is shared: for minutes at a time the
//! neighbours slow *everything*, register arithmetic included, by 10
//! to 40 % — far beyond any regression bound. A median over rounds
//! cannot help when the whole run sits inside such an episode. So
//! every round is preceded by a reading of one fixed probe loop, the
//! run's machine speed is the median of the readings, and every time
//! the run reports is scaled to speed 1.0. The probe lives in this
//! package and calls nothing from the measured crates: no change to
//! them can move the reference.
//!
//! The probe is deliberately core-bound (a 64 KB table). The
//! workloads also feel the neighbours through the shared cache, which
//! the probe does not, so the scaling under-corrects: over 100 to
//! 150 s of rounds that included such episodes, the op rate moved
//! about twice as much (in log terms) as the probe did, and scaling by
//! it took the spread between 20 s windows from 13.5 % to 8.2 %
//! (`compile-cold`), 5.4 % to 4.1 % (`kernel-steady`) and 5.7 % to
//! 3.7 % (`serve-hot`). A probe that also walks an 8 MB table tracked
//! those episodes better and then over-corrected by 40 % in an episode
//! that thrashed the shared cache; under-correcting is the safe side.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Slices per reading; the reading is their median, so a preemption
/// inside one or two slices does not move it.
const SLICES: usize = 5;

/// Words in the probe's table: 64 KB, resident in L1/L2.
const TABLE_WORDS: usize = 8 << 10;

/// Steps per slice.
const STEPS: u32 = 170_000;

/// Time of one slice on the box the workloads were sized on,
/// undisturbed. It only fixes the scale of the reported numbers;
/// comparisons between two commits do not depend on it.
const NOMINAL_SLICE_NS: f64 = 1_000_000.0;

/// The speed readings of one run.
pub struct SpeedReadings {
    table: Vec<u64>,
    readings: Vec<f64>,
    secs: f64,
}

impl Default for SpeedReadings {
    fn default() -> SpeedReadings {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        SpeedReadings {
            table,
            readings: Vec::new(),
            secs: 0.0,
        }
    }
}

impl SpeedReadings {
    /// One slice of the probe: a pseudo-random walk over the table,
    /// mixing dependent loads, integer arithmetic and data-dependent
    /// branches — what the compiler passes and the kernel dispatch loop
    /// are made of.
    fn slice_ns(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = 1u64;
        let mut odd = 0u64;
        for i in 0..STEPS {
            let v = self.table[(x as usize ^ i as usize) % TABLE_WORDS];
            x = x.rotate_left(5).wrapping_add(v) ^ u64::from(i);
            if v & 1 == 1 {
                odd += 1;
            } else {
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
        }
        black_box((x, odd));
        t0.elapsed().as_nanos() as f64
    }

    /// Takes one reading now: 1.0 when a slice takes its nominal time,
    /// 0.8 when it takes a quarter longer.
    pub fn take(&mut self) {
        let t0 = Instant::now();
        let slices: Vec<f64> = (0..SLICES).map(|_| self.slice_ns()).collect();
        self.readings.push(NOMINAL_SLICE_NS / median(&slices));
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// The run's machine speed: the median reading, so it follows an
    /// episode that lasts minutes and ignores a jitter that lasts a
    /// round.
    ///
    /// # Panics
    ///
    /// Panics before the first reading.
    pub fn median(&self) -> f64 {
        median(&self.readings)
    }

    /// CPU seconds the readings themselves burnt (they spin), to take
    /// out of the timed region's CPU time.
    pub fn cpu_secs(&self) -> f64 {
        self.secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_their_median_is_the_runs_speed() {
        let mut s = SpeedReadings::default();
        for _ in 0..3 {
            s.take();
        }
        assert_eq!(s.readings.len(), 3);
        assert!(s.readings.iter().all(|r| *r > 0.0 && r.is_finite()));
        assert_eq!(s.median(), median(&s.readings));
        assert!(s.cpu_secs() > 0.0);
    }
}
