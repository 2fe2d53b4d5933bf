//! Criterion bench for Figs. 5/17: end-to-end rendering across renderers,
//! plus the parallel-vs-serial speedup of the tile-based render path.
//!
//! The `parallel_speedup` group renders the same frame with `threads: 1`
//! and `threads: 0` (all cores), asserts bit-exact image parity, and
//! prints a `SPEEDUP` line consumed by humans and by `figures`'
//! `BENCH_pipeline.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::config::GpuConfig;
use gsplat::preprocess::{preprocess, preprocess_into, PreprocessOpts, PreprocessScratch};
use gsplat::scene::EVALUATED_SCENES;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};
use vrpipe::{FrameScratch, PipelineVariant, Renderer};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig17_end_to_end");
    group.sample_size(10);
    let spec = &EVALUATED_SCENES[4]; // Lego
    let scene = spec.generate_scaled(0.06);
    let cam = scene.default_camera();

    group.bench_function("sw_cuda_with_et", |b| {
        let pre = preprocess(&scene, &cam);
        let sw = CudaLikeRenderer::new(SwConfig::default(), true);
        let mut scratch = SwScratch::default();
        b.iter(|| {
            sw.render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .total_ms()
        })
    });
    group.bench_function("hw_baseline", |b| {
        let r = Renderer::new(GpuConfig::default(), PipelineVariant::Baseline);
        let mut scratch = FrameScratch::default();
        b.iter(|| r.render_with(&scene, &cam, &mut scratch).time.total_ms())
    });
    group.bench_function("vrpipe_het_qm", |b| {
        let r = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm);
        let mut scratch = FrameScratch::default();
        b.iter(|| r.render_with(&scene, &cam, &mut scratch).time.total_ms())
    });
    group.finish();

    bench_parallel_speedup(c);
}

/// Times one closure: median-of-`samples` wall time in seconds.
fn time_median<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn bench_parallel_speedup(c: &mut Criterion) {
    // A frame large enough to exercise the tile fan-out (the paper's
    // workloads are megapixel-scale; 0.25 of Lego is 200x200 px over a
    // ~22k-splat cloud).
    let spec = &EVALUATED_SCENES[4];
    let scene = spec.generate_scaled(0.25);
    let cam = scene.default_camera();
    let serial_cfg = SwConfig {
        threads: 1,
        ..SwConfig::default()
    };
    let parallel_cfg = SwConfig {
        threads: 0,
        ..SwConfig::default()
    };

    let pre = preprocess(&scene, &cam);
    let serial = CudaLikeRenderer::new(serial_cfg, true);
    let parallel = CudaLikeRenderer::new(parallel_cfg, true);

    // Bit-exact parity gates before timing anything: parallel-vs-serial
    // and SoA-vs-scalar (both kernels, both threading modes).
    let a = serial.render(&pre.splats, cam.width(), cam.height());
    let b = parallel.render(&pre.splats, cam.width(), cam.height());
    assert_eq!(
        a.color.max_abs_diff(&b.color),
        0.0,
        "parallel render must be bit-exact with serial"
    );
    assert_eq!(a.stats, b.stats, "parallel stats must match serial");
    let soa = CudaLikeRenderer::new(
        SwConfig {
            kernel: gsplat::stream::FragmentKernel::Soa,
            ..SwConfig::default()
        },
        true,
    );
    let soa_serial = CudaLikeRenderer::new(
        SwConfig {
            threads: 1,
            kernel: gsplat::stream::FragmentKernel::Soa,
            ..SwConfig::default()
        },
        true,
    );
    let s = soa.render(&pre.splats, cam.width(), cam.height());
    assert_eq!(
        a.color.max_abs_diff(&s.color),
        0.0,
        "SoA kernel must be bit-exact with the scalar oracle"
    );
    let mut masked = s.stats;
    masked.bound_skipped_iterations = 0;
    assert_eq!(masked, a.stats, "SoA kernel stats must match the oracle");

    let mut group = c.benchmark_group("parallel_speedup");
    group.sample_size(10);
    let mut scratch = SwScratch::default();
    group.bench_function("sw_cuda_serial", |bench| {
        bench.iter(|| {
            serial
                .render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .stats
                .blended_fragments
        })
    });
    group.bench_function("sw_cuda_parallel", |bench| {
        bench.iter(|| {
            parallel
                .render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .stats
                .blended_fragments
        })
    });
    group.finish();

    // Fragment-kernel speedup at fixed threading (serial and parallel).
    let mut group = c.benchmark_group("fragment_kernel");
    group.sample_size(10);
    group.bench_function("scalar_serial", |bench| {
        bench.iter(|| {
            serial
                .render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .stats
                .blended_fragments
        })
    });
    group.bench_function("soa_serial", |bench| {
        bench.iter(|| {
            soa_serial
                .render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .stats
                .blended_fragments
        })
    });
    group.bench_function("soa_parallel", |bench| {
        bench.iter(|| {
            soa.render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut scratch)
                .stats
                .blended_fragments
        })
    });
    group.finish();

    // Whole-frame speedup (preprocess + render), reported for the JSON
    // trail: median of repeated full frames.
    let mut sw_scratch = SwScratch::default();
    let t_serial = time_median(
        || {
            let mut splats = Vec::new();
            let opts = PreprocessOpts {
                policy: gsplat::par::ThreadPolicy::serial(),
                ..Default::default()
            };
            preprocess_into(
                &scene,
                &cam,
                opts,
                &mut PreprocessScratch::default(),
                &mut splats,
            );
            serial.render_with_scratch(&splats, cam.width(), cam.height(), &mut sw_scratch);
        },
        7,
    );
    let t_parallel = time_median(
        || {
            let pre = preprocess(&scene, &cam);
            parallel.render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut sw_scratch);
        },
        7,
    );
    println!(
        "SPEEDUP end_to_end parallel/serial: {:.2}x ({:.1} ms -> {:.1} ms, {} threads)",
        t_serial / t_parallel,
        t_serial * 1e3,
        t_parallel * 1e3,
        gsplat::par::effective_threads(0, usize::MAX)
    );

    // Kernel speedup at serial threading (pure fragment-kernel effect,
    // no fan-out in the quotient).
    let t_scalar_kernel = time_median(
        || {
            serial.render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut sw_scratch);
        },
        7,
    );
    let t_soa_kernel = time_median(
        || {
            soa_serial.render_with_scratch(&pre.splats, cam.width(), cam.height(), &mut sw_scratch);
        },
        7,
    );
    println!(
        "SPEEDUP fragment_kernel soa/scalar: {:.2}x ({:.1} ms -> {:.1} ms, serial)",
        t_scalar_kernel / t_soa_kernel,
        t_scalar_kernel * 1e3,
        t_soa_kernel * 1e3,
    );
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
