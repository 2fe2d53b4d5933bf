//! Host-speed calibration for `solo-draw`.
//!
//! The benchmark shares its machine with other tenants. Their load changes
//! how fast the same frames run, by up to 2× from one minute to the next,
//! mostly through the shared caches and memory. So after every timed
//! frame (never inside one) `solo-draw` runs a fixed loop that uses no
//! library code: an untimed sweep over a buffer twice the size of a core's
//! private cache, so that the loop starts from the same cache state
//! whatever the frame left behind, then a timed pass of random reads and
//! writes over a table far larger than that cache.
//!
//! Every host time `solo-draw` reports is scaled by
//! `sqrt(NOMINAL_MS / mean pass time)`. A frame's time is scaled by the
//! passes around it (`local_scales`), so a slow stretch within a run
//! scales the frames it slowed; set-up and per-layer times by the mean of
//! the whole run. The loop, bound by memory latency, reacts to host load more
//! strongly than the frames do, hence the square root: over four sets of
//! eight runs on a shared 2-vCPU host, it left a worst-case quartile
//! spread across seeds of 0.094, against 0.24 unscaled and 0.12 with the
//! plain ratio. A change to the library moves the frames and not the
//! loop, so it shows in full.
//!
//! The fleets are not scaled: their frames run on both host threads inside
//! `Server::run`, and a pass after each round, on one thread, tracked
//! their speed no better than no scaling (worse on fleet-preprocess).

use std::time::Instant;

/// Words in the loop's table: 32 MiB.
const TABLE_WORDS: usize = 1 << 23;
/// Words in the sweep buffer: 4 MiB, twice a 2 MiB private L2.
const SWEEP_WORDS: usize = 1 << 20;
/// Random accesses per pass.
const STEPS: u32 = 200_000;
/// Pass time, ms, that defines the reference host speed.
pub const NOMINAL_MS: f64 = 5.0;
/// Memory the loop holds, MiB; resident, since every word is written.
pub const RESIDENT_MIB: f64 = ((TABLE_WORDS + SWEEP_WORDS) * 4) as f64 / (1024.0 * 1024.0);

/// The loop's buffers and the time of every pass so far.
pub struct Calibration {
    table: Vec<u32>,
    sweep: Vec<u32>,
    passes_ms: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_WORDS as u32)
                .map(|v| v.wrapping_mul(0x9e37_79b1))
                .collect(),
            sweep: vec![0; SWEEP_WORDS],
            passes_ms: Vec::with_capacity(1024),
        }
    }

    /// Sweeps, then runs one timed pass and returns its time, ms. Every
    /// pass visits the same sequence of table slots.
    pub fn sample(&mut self) -> f64 {
        for (i, w) in self.sweep.iter_mut().enumerate() {
            *w = w.wrapping_add(i as u32);
        }
        std::hint::black_box(&self.sweep);
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x: u32 = 0x9e37_79b9;
        let (mut acc, mut f) = (0.0f32, 1.0001f32);
        for k in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let j = x as usize & mask;
            let v = self.table[j];
            self.table[j] = v.rotate_left(7) ^ k;
            acc = acc * 0.999 + (v & 0xffff) as f32 * f;
            f = f * 1.000_001 + 1e-7;
        }
        std::hint::black_box(acc);
        let pass_ms = start.elapsed().as_secs_f64() * 1e3;
        self.passes_ms.push(pass_ms);
        pass_ms
    }

    /// Mean pass time, ms (`NOMINAL_MS` before the first pass).
    pub fn mean_ms(&self) -> f64 {
        if self.passes_ms.is_empty() {
            return NOMINAL_MS;
        }
        self.passes_ms.iter().sum::<f64>() / self.passes_ms.len() as f64
    }

    /// Factor that takes a host time measured in this run to the
    /// reference host speed.
    pub fn time_scale(&self) -> f64 {
        (NOMINAL_MS / self.mean_ms()).sqrt()
    }

    /// Prints the run's mean pass time and its host metrics as measured.
    pub fn report(&self, fps: f64, p50_ms: f64, p90_ms: f64, setup_s: f64) {
        println!(
            "  host speed: calibration pass {:.4} ms (mean of {}), nominal {NOMINAL_MS} ms; \
             as measured: fps {fps:.4}, frame_ms_p50 {p50_ms:.4}, frame_ms_p90 {p90_ms:.4}, \
             setup_s {setup_s:.4}",
            self.mean_ms(),
            self.passes_ms.len(),
        );
    }
}

/// The factor that takes the `i`-th timed frame to the reference host
/// speed, from the mean of `passes[i - half ..= i + half]` (clipped to the
/// run), where `passes[i]` is the pass that ran right after frame `i`.
pub fn local_scales(passes: &[f64], half: usize) -> Vec<f64> {
    (0..passes.len())
        .map(|i| {
            let near = &passes[i.saturating_sub(half)..(i + half + 1).min(passes.len())];
            let mean_ms = near.iter().sum::<f64>() / near.len() as f64;
            (NOMINAL_MS / mean_ms).sqrt()
        })
        .collect()
}
