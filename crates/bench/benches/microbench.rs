//! Criterion bench for Fig. 20 / §VII-A: fixed-function unit probes, the
//! fragment-kernel microbench (scalar AoS oracle vs SoA stream), and the
//! simulator's serial draw replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::config::GpuConfig;
use gpu_sim::microbench::{crop_cache_probe, tile_binning_probe};
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::{FragmentKernel, SplatStream};
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};
use vrpipe::{try_draw, try_draw_in_place, DrawScratch, PipelineVariant};

/// Fragment-kernel throughput: one warm frame loop per kernel, serial
/// threading so the measurement isolates the kernel itself. Parity-gated.
/// The SoA loop consumes a stream built once from the preprocessed splats,
/// so it pays no per-frame re-layout.
fn bench_fragment_kernel(c: &mut Criterion) {
    let scene = EVALUATED_SCENES[4].generate_scaled(0.08); // Lego
    let cam = scene.default_camera();
    let splats = preprocess(&scene, &cam).splats;
    let stream = SplatStream::from_splats(&splats);
    let mut group = c.benchmark_group("fragment_kernel");
    group.sample_size(10);
    let mut parity: Option<gsplat::ColorBuffer> = None;
    for kernel in FragmentKernel::ALL {
        let sw = CudaLikeRenderer::new(
            SwConfig {
                threads: 1,
                kernel,
                ..SwConfig::default()
            },
            true,
        );
        let mut scratch = SwScratch::default();
        let frame = sw.render_prepared(&splats, &stream, cam.width(), cam.height(), &mut scratch);
        match &parity {
            None => parity = Some(frame.color),
            Some(reference) => assert_eq!(
                reference.max_abs_diff(&frame.color),
                0.0,
                "{kernel:?} diverged from the oracle"
            ),
        }
        group.bench_function(BenchmarkId::from_parameter(kernel.label()), |b| {
            b.iter(|| {
                sw.render_prepared(&splats, &stream, cam.width(), cam.height(), &mut scratch)
                    .stats
                    .blended_fragments
            })
        });
    }
    group.finish();
}

/// Simulator replay: one Train draw (`HetQm`, one host thread) into reused
/// targets and one reused `DrawScratch` — the serial raster, bin, cache and
/// timer replay that dominates a served vrpipe frame. Parity-gated: the
/// reused draws must reproduce a fresh `try_draw`'s stats and color bits.
fn bench_draw_replay(c: &mut Criterion) {
    let scene = EVALUATED_SCENES[2].generate_scaled(0.12); // Train
    let cam = scene.default_camera();
    let splats = preprocess(&scene, &cam).splats;
    let cfg = GpuConfig {
        threads: 1,
        ..GpuConfig::default()
    };
    let variant = PipelineVariant::HetQm;
    let (w, h) = (cam.width(), cam.height());
    let fresh = try_draw(&splats, w, h, &cfg, variant).expect("valid config");
    let bits = |color: &ColorBuffer| -> Vec<u32> {
        color
            .pixels()
            .iter()
            .flat_map(|p| [p.r, p.g, p.b, p.a].map(f32::to_bits))
            .collect()
    };
    let mut color = ColorBuffer::new(w, h, cfg.pixel_format);
    let mut ds = DepthStencilBuffer::new(w, h);
    let mut scratch = DrawScratch::default();
    for _ in 0..2 {
        let stats = try_draw_in_place(&splats, &cfg, variant, &mut color, &mut ds, &mut scratch)
            .expect("valid config");
        assert_eq!(stats, fresh.stats, "reused draw diverged from a fresh one");
        assert_eq!(
            bits(&color),
            bits(&fresh.color),
            "reused draw changed color bits"
        );
    }
    let mut group = c.benchmark_group("draw_replay");
    group.sample_size(10);
    group.bench_function("train_hetqm", |b| {
        b.iter(|| {
            try_draw_in_place(&splats, &cfg, variant, &mut color, &mut ds, &mut scratch)
                .expect("valid config")
                .total_cycles
        })
    });
    group.finish();
}

fn bench_microbench(c: &mut Criterion) {
    let cfg = GpuConfig::default();

    let mut group = c.benchmark_group("fig20a_crop_cache");
    group.sample_size(20);
    for rects in [8u32, 16, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(rects), &rects, |b, &r| {
            b.iter(|| crop_cache_probe(&cfg, 8, 16, r, 42).l2_accesses)
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vii_a_tile_binning");
    group.sample_size(20);
    for tiles in [32u32, 33] {
        group.bench_with_input(BenchmarkId::from_parameter(tiles), &tiles, |b, &t| {
            b.iter(|| tile_binning_probe(&cfg, t, t * 10).warps)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_microbench,
    bench_fragment_kernel,
    bench_draw_replay
);
criterion_main!(benches);
