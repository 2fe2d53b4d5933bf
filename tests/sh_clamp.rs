//! SH-degree clamping bit-exactness: preprocessing with
//! `PreprocessOpts::max_sh_degree = d` must produce *bit-identical* splats
//! to preprocessing a scene whose SH coefficient lists were physically
//! truncated to degree `d` — the quality ladder's SH rung is a pure
//! evaluation-order contract, not an approximation. Verified on the flat,
//! indexed and batched preprocess paths and through all three software
//! render backends (CUDA-style, multipass, in-shader workload model).

use gsplat::batch::BatchCullState;
use gsplat::camera::CameraPath;
use gsplat::index::{CullState, SceneIndex};
use gsplat::math::Vec3;
use gsplat::preprocess::{
    preprocess, preprocess_into, CullMode, PreprocessOpts, PreprocessOutput, PreprocessScratch,
};
use gsplat::scene::{Scene, EVALUATED_SCENES};
use gsplat::sh::{coeff_count, ShColor, MAX_SH_DEGREE};
use gsplat::splat::Splat;
use gsplat::ThreadPolicy;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use swrender::inshader::fragment_workload;
use swrender::multipass::{render_multipass, MultiPassConfig};

/// A scene whose Gaussians all carry full degree-3 SH with varied,
/// deterministic higher-band coefficients — generated scenes are
/// degree-0, so without this upgrade a clamp would be a no-op on bits.
fn degree3_scene() -> Scene {
    let mut scene = EVALUATED_SCENES[4].generate_scaled(0.04);
    for (i, g) in scene.gaussians.iter_mut().enumerate() {
        let base = g.sh.coeffs()[0];
        let coeffs = (0..coeff_count(3))
            .map(|c| {
                if c == 0 {
                    base
                } else {
                    // Sub-unit magnitudes keyed off (gaussian, coeff): every
                    // band contributes visibly different bits.
                    let s = ((i * 31 + c * 7) % 97) as f32 / 97.0 - 0.5;
                    Vec3::new(s * 0.3, -s * 0.2, s * 0.25)
                }
            })
            .collect();
        g.sh = ShColor::new(3, coeffs);
    }
    scene
}

/// The same scene with every coefficient list physically cut at `degree`.
fn truncated_scene(scene: &Scene, degree: u8) -> Scene {
    let mut t = scene.clone();
    for g in &mut t.gaussians {
        g.sh = g.sh.truncated(degree);
    }
    t
}

/// [`preprocess`] with the SH evaluation degree capped at `max_sh_degree`.
fn preprocess_clamped(scene: &Scene, cam: &gsplat::Camera, max_sh_degree: u8) -> PreprocessOutput {
    let mut splats = Vec::new();
    let opts = PreprocessOpts {
        max_sh_degree,
        ..Default::default()
    };
    let stats = preprocess_into(
        scene,
        cam,
        opts,
        &mut PreprocessScratch::default(),
        &mut splats,
    );
    PreprocessOutput { splats, stats }
}

/// Exact per-splat digest: `Debug` for f32 prints the shortest exactly
/// round-tripping decimal, so two splats format identically iff their
/// bits match.
fn splat_bits(splats: &[Splat]) -> Vec<String> {
    splats.iter().map(|s| format!("{s:?}")).collect()
}

#[test]
fn clamped_preprocess_is_bit_exact_with_truncated_scene() {
    let scene = degree3_scene();
    let cam = scene.default_camera();
    for max in 0..=MAX_SH_DEGREE {
        let clamped = preprocess_clamped(&scene, &cam, max);
        let reference = preprocess(&truncated_scene(&scene, max), &cam);
        assert_eq!(clamped.stats, reference.stats, "degree {max}");
        assert_eq!(
            splat_bits(&clamped.splats),
            splat_bits(&reference.splats),
            "degree {max}: clamped evaluation must equal truncated coefficients bit for bit"
        );
    }
    // Clamping at (or above) the scene's own degree is the identity.
    let full = preprocess_clamped(&scene, &cam, MAX_SH_DEGREE);
    let plain = preprocess(&scene, &cam);
    assert_eq!(splat_bits(&full.splats), splat_bits(&plain.splats));
}

#[test]
fn indexed_clamped_preprocess_matches_truncated_scene() {
    // The indexed path caches degree-0 base colors in its
    // camera-invariant projection head; that cache is clamp-invariant, so
    // the clamped indexed path must also be bit-exact against the
    // truncated scene run through its own index.
    let scene = degree3_scene();
    let cam = scene.default_camera();
    for max in [0u8, 2] {
        let index = SceneIndex::build(&scene.gaussians);
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        let mut clamped = Vec::new();
        let opts = PreprocessOpts {
            max_sh_degree: max,
            cull: CullMode::Indexed(&index, &mut cull),
            ..Default::default()
        };
        let a = preprocess_into(&scene, &cam, opts, &mut scratch, &mut clamped);

        let trunc = truncated_scene(&scene, max);
        let t_index = SceneIndex::build(&trunc.gaussians);
        let mut t_cull = CullState::default();
        let mut t_scratch = PreprocessScratch::default();
        let mut reference = Vec::new();
        let opts = PreprocessOpts {
            cull: CullMode::Indexed(&t_index, &mut t_cull),
            ..Default::default()
        };
        let b = preprocess_into(&trunc, &cam, opts, &mut t_scratch, &mut reference);
        assert_eq!(a, b, "degree {max}");
        assert_eq!(
            splat_bits(&clamped),
            splat_bits(&reference),
            "degree {max}: indexed clamped path diverged"
        );
    }
}

/// One batched round may mix SH caps: the shared verdicts and covariance
/// cache are geometric, and each member's cap rides its own frame
/// transform. Under a multi-worker policy, every member's splats and stats
/// equal its solo `Full { temporal: true }` run at the same cap, over
/// rounds that both re-project and replay the shared cache.
#[test]
fn batched_round_with_mixed_caps_matches_solo_full_runs() {
    let scene = degree3_scene();
    let index = SceneIndex::build(&scene.gaussians);
    let path = CameraPath::flythrough(
        scene.center + Vec3::new(0.0, 1.0, scene.view_radius),
        scene.center,
        scene.view_radius * 0.005,
        scene.view_radius * 0.002,
    )
    .stereo(0.065);
    // Frames 2r and 2r + 1 are round r's two eyes.
    let cams = path.cameras(6, 128, 96, 1.0);
    let caps = [0, MAX_SH_DEGREE];
    let policy = ThreadPolicy {
        threads: 4,
        deterministic: true,
    };
    let mut batch = BatchCullState::default();
    let mut batched: [(PreprocessScratch, Vec<Splat>); 2] = Default::default();
    let mut solo: [(PreprocessScratch, Vec<Splat>); 2] = Default::default();
    for (round, pair) in cams.chunks(2).enumerate() {
        batch.begin_round(&index, pair);
        for (k, cam) in pair.iter().enumerate() {
            let (scratch, out) = &mut batched[k];
            let opts = PreprocessOpts {
                policy,
                max_sh_degree: caps[k],
                cull: CullMode::Batched(&index, &mut batch),
            };
            let a = preprocess_into(&scene, cam, opts, scratch, out);
            let (scratch, reference) = &mut solo[k];
            let opts = PreprocessOpts {
                policy: ThreadPolicy::serial(),
                max_sh_degree: caps[k],
                cull: CullMode::Full { temporal: true },
            };
            let b = preprocess_into(&scene, cam, opts, scratch, reference);
            assert_eq!(a, b, "round {round} member {k}: stats diverged");
            assert_eq!(
                splat_bits(out),
                splat_bits(reference),
                "round {round} member {k}: splats diverged"
            );
        }
    }
    assert!(
        batch.stats().gaussians_refreshed > 0,
        "later rounds must replay the shared covariance cache"
    );
    // The cap must change this scene's colors, or the check is vacuous.
    let uncapped = preprocess(&scene, &cams[4]).splats;
    assert_ne!(splat_bits(&solo[0].1), splat_bits(&uncapped));
}

#[test]
fn clamped_splats_render_identically_on_all_backends() {
    let scene = degree3_scene();
    let cam = scene.default_camera();
    let (w, h) = (cam.width(), cam.height());
    for max in [0u8, 1, 2] {
        let clamped = preprocess_clamped(&scene, &cam, max);
        let reference = preprocess(&truncated_scene(&scene, max), &cam);

        let sw_a = CudaLikeRenderer::new(SwConfig::default(), false).render(&clamped.splats, w, h);
        let sw_b =
            CudaLikeRenderer::new(SwConfig::default(), false).render(&reference.splats, w, h);
        assert_eq!(
            sw_a.color.max_abs_diff(&sw_b.color),
            0.0,
            "degree {max}: CUDA-style images differ"
        );
        assert_eq!(sw_a.stats.blended_fragments, sw_b.stats.blended_fragments);

        let mp_a = render_multipass(&clamped.splats, w, h, 4, &MultiPassConfig::default());
        let mp_b = render_multipass(&reference.splats, w, h, 4, &MultiPassConfig::default());
        assert_eq!(
            mp_a.color.max_abs_diff(&mp_b.color),
            0.0,
            "degree {max}: multipass images differ"
        );
        assert_eq!(mp_a.blended_fragments, mp_b.blended_fragments);

        assert_eq!(
            fragment_workload(&clamped.splats, w, h),
            fragment_workload(&reference.splats, w, h),
            "degree {max}: in-shader workload model differs"
        );
    }
    // Sanity: a real clamp actually changes the image vs full quality —
    // the parity above isn't comparing constants.
    let full = preprocess(&scene, &cam);
    let cut = preprocess_clamped(&scene, &cam, 0);
    let img_full = CudaLikeRenderer::new(SwConfig::default(), false).render(&full.splats, w, h);
    let img_cut = CudaLikeRenderer::new(SwConfig::default(), false).render(&cut.splats, w, h);
    assert!(
        img_full.color.max_abs_diff(&img_cut.color) > 0.0,
        "degree-3 bands must be visible at this viewpoint for the test to bite"
    );
}
