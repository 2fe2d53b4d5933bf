//! Fragment-kernel experiment: SoA vs scalar throughput and the
//! tile-retirement ratios, on the indoor and outdoor archetypes.
//!
//! Parity-gated: the experiment asserts bit-exact images between the two
//! kernels before timing anything, so a reported speedup can never hide a
//! quality regression.

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::{FragmentKernel, SplatStream};
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwScratch};
use vrpipe::{FrameScratch, PipelineVariant, Renderer};

use crate::common::{banner, default_scale};

/// Median wall seconds of `reps` runs of `f`.
fn median_secs<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// One archetype's software-renderer kernel measurement.
pub struct KernelMeasurement {
    /// Scene name.
    pub scene: &'static str,
    /// Fragment throughput of the scalar oracle in Mfrag/s.
    pub scalar_mfrag_s: f64,
    /// Fragment throughput of the SoA kernel in Mfrag/s.
    pub soa_mfrag_s: f64,
    /// Fraction of swept tiles that fully retired.
    pub retired_tile_ratio: f64,
    /// Warp iterations elided by the conservative tile alpha bound.
    pub bound_skipped_iterations: u64,
}

/// Measures both kernels on one scene spec, gating on bit-exact parity.
/// The SoA stream is built once from the preprocessed splats, so the
/// timed SoA loop pays no per-frame re-layout.
pub fn measure_sw_kernels(spec_index: usize, scale: f32) -> KernelMeasurement {
    let spec = &EVALUATED_SCENES[spec_index];
    let scene = spec.generate_scaled(scale);
    let cam = scene.default_camera();
    let splats = preprocess(&scene, &cam).splats;
    let stream = SplatStream::from_splats(&splats);
    let scalar = CudaLikeRenderer::new(SwConfig::default(), true);
    let soa = CudaLikeRenderer::new(
        SwConfig {
            kernel: FragmentKernel::Soa,
            ..SwConfig::default()
        },
        true,
    );

    // Parity gate before any timing.
    let mut scratch = SwScratch::default();
    let a = scalar.render(&splats, cam.width(), cam.height());
    let b = soa.render_prepared(&splats, &stream, cam.width(), cam.height(), &mut scratch);
    assert_eq!(
        a.color.max_abs_diff(&b.color),
        0.0,
        "{}: SoA kernel diverged from the scalar oracle",
        spec.name
    );
    let mut masked = b.stats;
    masked.bound_skipped_iterations = 0;
    assert_eq!(masked, a.stats, "{}: kernel stats diverged", spec.name);

    let reps = 5;
    let t_scalar = median_secs(
        || {
            scalar.render_with_scratch(&splats, cam.width(), cam.height(), &mut scratch);
        },
        reps,
    );
    let t_soa = median_secs(
        || {
            soa.render_prepared(&splats, &stream, cam.width(), cam.height(), &mut scratch);
        },
        reps,
    );
    let frags = a.stats.blended_fragments as f64;
    KernelMeasurement {
        scene: spec.name,
        scalar_mfrag_s: frags / t_scalar / 1e6,
        soa_mfrag_s: frags / t_soa / 1e6,
        retired_tile_ratio: b.stats.retired_tile_ratio(),
        bound_skipped_iterations: b.stats.bound_skipped_iterations,
    }
}

/// The `kernel` experiment: fragment-kernel throughput and retired-tile
/// ratios on the indoor (Room) and outdoor (Train) archetypes, for the
/// software renderer and the simulated VR-Pipe pipeline.
pub fn kernel() {
    banner(
        "kernel",
        "SoA fragment-kernel throughput and tile retirement (indoor/outdoor)",
    );
    let scale = default_scale();

    println!("software (CUDA-style) renderer, early termination on:");
    println!(
        "  scene        scalar Mfrag/s   soa Mfrag/s   speedup   retired-tile ratio   bound-skips"
    );
    for spec_index in [1usize, 2] {
        let m = measure_sw_kernels(spec_index, scale);
        println!(
            "  {:<12} {:>14.1} {:>13.1} {:>8.2}x {:>20.3} {:>13}",
            m.scene,
            m.scalar_mfrag_s,
            m.soa_mfrag_s,
            m.soa_mfrag_s / m.scalar_mfrag_s.max(1e-12),
            m.retired_tile_ratio,
            m.bound_skipped_iterations,
        );
        assert!(
            m.retired_tile_ratio > 0.0,
            "{}: expected a nonzero retired-tile ratio",
            m.scene
        );
    }

    println!();
    println!("vrpipe pipeline (HET+QM), tile-granularity ZROP fast path:");
    println!("  scene        retired tiles   wholesale flush discards   zrop tests scalar->soa");
    for spec_index in [1usize, 2] {
        let spec = &EVALUATED_SCENES[spec_index];
        let scene = spec.generate_scaled(scale);
        let cam = scene.default_camera();
        let mut scratch = FrameScratch::default();
        let scalar = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm).render_with(
            &scene,
            &cam,
            &mut scratch,
        );
        let soa_cfg = GpuConfig {
            kernel: FragmentKernel::Soa,
            ..GpuConfig::default()
        };
        let soa =
            Renderer::new(soa_cfg, PipelineVariant::HetQm).render_with(&scene, &cam, &mut scratch);
        assert_eq!(
            scalar.color.max_abs_diff(&soa.color),
            0.0,
            "{}: pipeline kernels diverged",
            spec.name
        );
        println!(
            "  {:<12} {:>13} {:>26} {:>12} -> {}",
            spec.name,
            soa.stats.retired_tiles,
            soa.stats.retired_tile_skips,
            scalar.stats.zrop_term_tests,
            soa.stats.zrop_term_tests,
        );
    }
}
