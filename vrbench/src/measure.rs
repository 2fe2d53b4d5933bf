//! Measurement helpers: the metric list, percentiles, process counters
//! read from `/proc`, content digests and seeded parameters.

use std::time::Instant;

use gsplat::index::CullStats;

/// One reported metric: name, value and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `samples` (sorted in place).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); the mean of the middle pair for
/// an even count.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process, seconds (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 Hz) ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn eat_f32s(&mut self, a: f32, b: f32) {
        self.eat(a.to_bits() as u64 | (b.to_bits() as u64) << 32);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a sorted splat list plus its preprocessing counters — the
/// bits a served preprocess must reproduce (incremental-culling counters
/// are excluded: batched frames account culling in the shared round).
pub fn splat_digest(f: &vrpipe::FrameInput<'_>) -> u64 {
    let mut h = Fnv::default();
    for s in f.splats {
        h.eat_f32s(s.center.x, s.center.y);
        h.eat_f32s(s.depth, s.conic.0);
        h.eat_f32s(s.conic.1, s.conic.2);
        h.eat_f32s(s.axis_major.x, s.axis_major.y);
        h.eat_f32s(s.axis_minor.x, s.axis_minor.y);
        h.eat_f32s(s.color.x, s.color.y);
        h.eat_f32s(s.color.z, s.opacity);
        h.eat(s.source as u64);
    }
    h.eat(f.preprocess.input_gaussians as u64);
    h.eat(f.preprocess.visible_splats as u64);
    h.eat(f.preprocess.sorted_keys as u64);
    h.eat(f.preprocess.total_obb_area.to_bits());
    h.finish()
}

/// Digest of a color buffer's pixel bits.
pub fn color_digest(color: &gsplat::framebuffer::ColorBuffer) -> u64 {
    let mut h = Fnv::default();
    h.eat(color.width() as u64 | (color.height() as u64) << 32);
    for p in color.pixels() {
        h.eat_f32s(p.r, p.g);
        h.eat_f32s(p.b, p.a);
    }
    h.finish()
}

/// SplitMix64: derives independent workload parameters from one seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform value in `[lo, hi)` drawn from `state`.
pub fn uniform(state: &mut u64, lo: f32, hi: f32) -> f32 {
    let u = (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32;
    lo + (hi - lo) * u
}

/// Field-wise sum of two cull-counter sets.
pub fn add_cull(a: CullStats, b: CullStats) -> CullStats {
    CullStats {
        frames: a.frames + b.frames,
        cells_skipped: a.cells_skipped + b.cells_skipped,
        cells_refreshed: a.cells_refreshed + b.cells_refreshed,
        cells_reprojected: a.cells_reprojected + b.cells_reprojected,
        gaussians_skipped: a.gaussians_skipped + b.gaussians_skipped,
        gaussians_refreshed: a.gaussians_refreshed + b.gaussians_refreshed,
        gaussians_reprojected: a.gaussians_reprojected + b.gaussians_reprojected,
    }
}
