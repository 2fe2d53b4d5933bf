//! Criterion bench for Fig. 20 / §VII-A: fixed-function unit probes, plus
//! the fragment-kernel microbench (scalar AoS oracle vs SoA stream).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::config::GpuConfig;
use gpu_sim::microbench::{crop_cache_probe, tile_binning_probe};
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::{FragmentKernel, SplatStream};
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};

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

criterion_group!(benches, bench_microbench, bench_fragment_kernel);
criterion_main!(benches);
