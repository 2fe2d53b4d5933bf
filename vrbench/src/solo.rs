//! `solo-draw`: one session, one client, every frame drawn by the serial
//! simulated hardware pipeline.
//!
//! A `Session` pinned to one host thread runs an indexed temporal orbit
//! over Train at scale 0.12; each frame is drawn by `try_draw_in_place`
//! with the HET+QM variant. The simulator replay is nearly the whole
//! frame, so this workload moves with `vrpipe::pipeline` and `gpu_sim`
//! and with nothing in the serve or swrender layers. The timed phase runs
//! whole revolutions, so every run averages the same views whatever its
//! length or speed, and a calibration pass after each frame scales its
//! host times to a reference host speed (`calib.rs`).

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::camera::CameraPath;
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::index::CullStats;
use gsplat::scene::{SceneSpec, EVALUATED_SCENES};
use gsplat::splat::Splat;
use gsplat::ThreadPolicy;
use vrpipe::{
    try_draw, try_draw_in_place, DrawScratch, PipelineVariant, SequenceConfig, Session, SharedScene,
};

use crate::calib::{self, Calibration};
use crate::measure::{
    self, add_cull, color_digest, median, ms, percentile, ratio, uniform, Metrics,
};
use crate::trace::{self, Trace};
use crate::{Args, Outcome};

const SCALE: f32 = 0.12;
const VARIANT: PipelineVariant = PipelineVariant::HetQm;
/// Orbit period in frames; with one revolution per period every frame
/// turns the camera by the same 4° however long the run is.
const ORBIT_FRAMES: usize = 90;
/// A frame's time is scaled by the calibration passes of the frames
/// within this many frames of it.
const CALIB_HALF_WINDOW: usize = 5;
/// Frames drawn during set-up before timing starts.
const WARMUP_FRAMES: usize = 2;
/// The timed phase runs at least this many whole revolutions, so that the
/// p90 has at least ten samples beyond it.
const MIN_REVOLUTIONS: usize = 2;
/// Every `SAMPLE_EVERY`-th timed frame, up to `MAX_KEPT` frames, is kept
/// for the correctness gate (a fixed count keeps memory independent of
/// run length).
const SAMPLE_EVERY: usize = 8;
const MAX_KEPT: usize = 12;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// A timed frame kept for the gate: its splat list and what the
/// persistent-target draw produced from it.
struct Kept {
    splats: Vec<Splat>,
    stats: PipelineStats,
    color: u64,
}

/// Per-frame layer counters, summed.
#[derive(Default)]
struct Sums {
    visible: u64,
    input: u64,
    cull: CullStats,
    draw: PipelineStats,
}

impl Sums {
    fn add(&mut self, s: &PipelineStats) {
        let d = &mut self.draw;
        d.raster_quads += s.raster_quads;
        d.tc_flushes += s.tc_flushes;
        d.tc_evictions += s.tc_evictions;
        d.warps_launched += s.warps_launched;
        d.warp_quad_slots_used += s.warp_quad_slots_used;
        d.shaded_fragments += s.shaded_fragments;
        d.crop_fragments += s.crop_fragments;
        d.merged_pairs += s.merged_pairs;
        d.retired_tile_skips += s.retired_tile_skips;
        d.zrop_term_tests += s.zrop_term_tests;
        d.zrop_term_discards += s.zrop_term_discards;
        d.crop_cache.hits += s.crop_cache.hits;
        d.crop_cache.misses += s.crop_cache.misses;
        d.z_cache.hits += s.z_cache.hits;
        d.z_cache.misses += s.z_cache.misses;
    }
}

/// Everything set-up builds: scene, session, render targets, scratch.
struct Solo {
    shared: SharedScene,
    cfg: SequenceConfig,
    gpu: GpuConfig,
    session: Session,
    color: ColorBuffer,
    ds: DepthStencilBuffer,
    scratch: DrawScratch,
    /// Orbit frame the timed phase starts at (the seeded camera phase).
    phase: usize,
}

/// What one frame produced.
struct FrameOut {
    stats: PipelineStats,
    visible: usize,
    input: usize,
    cull: CullStats,
}

impl Solo {
    fn new(seed: u64) -> Self {
        let mut rng = seed;
        let base = &EVALUATED_SCENES[2]; // Train
        let spec = SceneSpec {
            seed: base.seed ^ measure::splitmix(&mut rng),
            ..base.clone()
        };
        let scene = spec.generate_scaled(SCALE);
        let (w, h) = spec.scaled_viewport(SCALE);
        let path = CameraPath::orbit(
            scene.center,
            scene.view_radius * uniform(&mut rng, 0.95, 1.05),
            scene.view_height * uniform(&mut rng, 0.9, 1.1),
            1.0,
        );
        let cfg = SequenceConfig::new(path, ORBIT_FRAMES, w, h).with_index();
        let phase = (measure::splitmix(&mut rng) % ORBIT_FRAMES as u64) as usize;
        let gpu = GpuConfig {
            threads: 1,
            ..GpuConfig::default()
        };
        let shared = SharedScene::new(scene);
        let session = shared.session(ThreadPolicy::serial(), &cfg);
        let mut solo = Self {
            color: ColorBuffer::new(w, h, gpu.pixel_format),
            ds: DepthStencilBuffer::new(w, h),
            scratch: DrawScratch::default(),
            shared,
            cfg,
            gpu,
            session,
            phase,
        };
        for i in 0..WARMUP_FRAMES {
            let frame = solo.phase + i;
            solo.frame(&None, frame, None)
                .expect("warm-up draw of a valid configuration");
        }
        solo.phase += WARMUP_FRAMES;
        solo
    }

    /// Preprocesses and draws one frame; copies the splat list into `keep`
    /// when asked.
    fn frame(
        &mut self,
        trace: &Trace,
        index: usize,
        keep: Option<&mut Vec<Splat>>,
    ) -> Result<FrameOut, vrpipe::DrawError> {
        let Self {
            shared,
            cfg,
            gpu,
            session,
            color,
            ds,
            scratch,
            ..
        } = self;
        let span = trace::open(trace, "render_frame", None, 0, index);
        let out = session.render_frame(shared.scene(), cfg, index, |f| {
            let draw = trace::open(trace, "try_draw_in_place", span, 0, index);
            let stats = try_draw_in_place(f.splats, gpu, VARIANT, color, ds, scratch);
            trace::close(trace, draw);
            if let Some(keep) = keep {
                keep.clear();
                keep.extend_from_slice(f.splats);
            }
            stats.map(|stats| FrameOut {
                stats,
                visible: f.preprocess.visible_splats,
                input: f.preprocess.input_gaussians,
                cull: f.cull,
            })
        });
        trace::close(trace, span);
        out
    }
}

pub fn run(args: &Args, trace: &Trace) -> Outcome {
    let mut calib = Calibration::new();
    let mut setups = Vec::new();
    let mut solo = None;
    for _ in 0..SETUP_REPEATS {
        drop(solo.take());
        calib.sample();
        let t = Instant::now();
        solo = Some(Solo::new(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut solo = solo.expect("at least one set-up");
    if let Some(t) = trace {
        t.clear();
    }

    let mut samples = Vec::new();
    let mut passes = Vec::new();
    let mut kept: Vec<(usize, Kept)> = Vec::new();
    let mut splat_copy = Vec::new();
    let mut sums = Sums::default();
    let mut sim_ms = 0.0;
    let (mut attempted, mut undelivered) = (0u64, 0u64);
    let resort0 = solo.session.resort_stats();
    let t0 = Instant::now();
    let mut i = 0usize;
    loop {
        let index = solo.phase + i;
        let sampled = i.is_multiple_of(SAMPLE_EVERY) && kept.len() < MAX_KEPT;
        let start = Instant::now();
        let out = solo.frame(trace, index, sampled.then_some(&mut splat_copy));
        let end = Instant::now();
        let pass_ms = calib.sample();
        attempted += 1;
        match out {
            Ok(out) => {
                samples.push(ms(start, end));
                passes.push(pass_ms);
                // `sim_ms_per_frame` averages the first revolution, so it
                // depends on the seed only.
                if i < ORBIT_FRAMES {
                    sim_ms += solo.gpu.cycles_to_ms(out.stats.total_cycles);
                }
                sums.visible += out.visible as u64;
                sums.input += out.input as u64;
                sums.cull = add_cull(sums.cull, out.cull);
                sums.add(&out.stats);
                if sampled {
                    let keep = Kept {
                        splats: std::mem::take(&mut splat_copy),
                        stats: out.stats,
                        color: color_digest(&solo.color),
                    };
                    kept.push((index, keep));
                }
            }
            Err(e) => {
                eprintln!("solo-draw: frame {index} failed: {e}");
                undelivered += 1;
            }
        }
        i += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let whole = i.is_multiple_of(ORBIT_FRAMES) && i >= MIN_REVOLUTIONS * ORBIT_FRAMES;
        if (elapsed >= args.seconds && whole) || elapsed >= crate::HARD_CAP_S {
            break;
        }
    }
    let resort = solo.session.resort_stats();
    let delivered = samples.len();

    // Correctness gate, outside the timed phase: each kept frame's image
    // bits and draw statistics must equal a fresh draw of its splat list.
    let (w, h) = (solo.cfg.width, solo.cfg.height);
    let mut mismatches = 0u64;
    for (index, k) in &kept {
        let fresh = try_draw(&k.splats, w, h, &solo.gpu, VARIANT);
        let ok = fresh
            .as_ref()
            .is_ok_and(|f| color_digest(&f.color) == k.color && f.stats == k.stats);
        if !ok {
            eprintln!("solo-draw: frame {index} differs from a fresh draw of its splats");
            mismatches += 1;
        }
    }
    let sim_frames = delivered.min(ORBIT_FRAMES);

    // fps: frames over the summed frame times of the timed phase (the
    // calibration passes between frames are not part of it). Every host
    // time is reported at the reference host speed (`calib.rs`).
    let scale = calib.time_scale();
    let mut scaled: Vec<f64> = samples
        .iter()
        .zip(calib::local_scales(&passes, CALIB_HALF_WINDOW))
        .map(|(ms, s)| ms * s)
        .collect();
    let fps = ratio(delivered as f64, samples.iter().sum::<f64>() / 1e3);
    let (p50, p90) = (percentile(&mut samples, 0.5), percentile(&mut samples, 0.9));
    let setup_s = median(&mut setups);
    calib.report(fps, p50, p90, setup_s);
    let mut e2e = Metrics::default();
    let scaled_s: f64 = scaled.iter().sum::<f64>() / 1e3;
    e2e.push("fps", ratio(delivered as f64, scaled_s), "frames/s");
    e2e.push("frame_ms_p50", percentile(&mut scaled, 0.5), "ms");
    e2e.push("frame_ms_p90", percentile(&mut scaled, 0.9), "ms");
    e2e.push("sim_ms_per_frame", ratio(sim_ms, sim_frames as f64), "ms");
    e2e.push("setup_s", setup_s * scale, "s");

    let mut layers = Metrics::default();
    if let Some(t) = trace {
        let times = trace::layer_times(&t.spans());
        let frame_ms = times.get("render_frame").map_or(0.0, |l| l.total_ms) * scale;
        let pre_ms = times.get("render_frame").map_or(0.0, |l| l.self_ms) * scale;
        let draw_ms = times.get("try_draw_in_place").map_or(0.0, |l| l.total_ms) * scale;
        let n = delivered as f64;
        let d = &sums.draw;
        crate::push_preprocess_layers(
            &mut layers,
            pre_ms / n,
            ratio(pre_ms, frame_ms),
            sums.visible as f64 / n,
            ratio(
                (resort.repaired - resort0.repaired) as f64,
                (resort.frames - resort0.frames) as f64,
            ),
            sums.input,
            &sums.cull,
        );
        layers.push("batch.mean_occupancy", 0.0, "frames");
        layers.push("batch.fallback_ratio", 0.0, "ratio");
        layers.push("batch.batched_frame_share", 0.0, "ratio");
        layers.push("draw.ms_per_frame", draw_ms / n, "ms");
        layers.push("draw.share", ratio(draw_ms, frame_ms), "ratio");
        layers.push(
            "draw.host_ns_per_quad",
            ratio(draw_ms * 1e6, d.raster_quads as f64),
            "ns",
        );
        layers.push("draw.raster_quads", d.raster_quads as f64 / n, "count");
        layers.push("draw.tc_flushes", d.tc_flushes as f64 / n, "count");
        layers.push("draw.tc_evictions", d.tc_evictions as f64 / n, "count");
        layers.push("draw.warps_launched", d.warps_launched as f64 / n, "count");
        layers.push(
            "draw.shaded_fragments",
            d.shaded_fragments as f64 / n,
            "count",
        );
        layers.push("draw.crop_fragments", d.crop_fragments as f64 / n, "count");
        layers.push("draw.merged_pairs", d.merged_pairs as f64 / n, "count");
        layers.push(
            "draw.retired_tile_skips",
            d.retired_tile_skips as f64 / n,
            "count",
        );
        layers.push(
            "draw.het_discard_ratio",
            ratio(d.zrop_term_discards as f64, d.zrop_term_tests as f64),
            "ratio",
        );
        layers.push("draw.warp_occupancy", d.warp_occupancy(), "ratio");
        layers.push("draw.crop_cache_hit_rate", d.crop_cache.hit_rate(), "ratio");
        layers.push("draw.z_cache_hit_rate", d.z_cache.hit_rate(), "ratio");
        crate::push_no_sw(&mut layers);
        layers.push("serve.cpu_busy_share", 0.0, "ratio");
        layers.push("serve.gap_ms_p50", 0.0, "ms");
        layers.push("serve.task_ms_p50", 0.0, "ms");
    }
    Outcome {
        attempted,
        failed: undelivered + mismatches,
        frames: delivered,
        end_to_end: e2e,
        per_layer: layers,
        bench_mib: calib::RESIDENT_MIB,
    }
}
