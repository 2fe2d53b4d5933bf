//! The preprocessing + sorting stage shared by every renderer
//! (paper Fig. 4, left): frustum culling, EWA projection, SH color
//! evaluation, and the global front-to-back depth sort.
//!
//! On real hardware this runs as CUDA kernels (with NVIDIA CUB for the
//! sort); every renderer in this repository — software, hardware-baseline
//! and VR-Pipe — consumes the same output, mirroring the paper's setup where
//! only the rasterization step differs.
//!
//! [`preprocess_into`] is the one frame-loop entry: a [`PreprocessOpts`]
//! value picks the thread policy, the SH cap and the [`CullMode`], and
//! every combination emits the same bits. Projection is embarrassingly
//! parallel, so it fans the Gaussian list out over worker chunks and
//! concatenates the surviving splats in chunk order — bit-exact with the
//! serial sweep. With a reusable [`PreprocessScratch`] the whole stage
//! (projection, keying, fused radix sort, reorder) allocates nothing once
//! warmed up.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::batch::BatchCullState;
use crate::camera::Camera;
use crate::gaussian::Gaussian;
use crate::index::{CellClass, CovCacheEntry, CullState, SceneIndex};
use crate::par::{chunked_ranges_mut, ThreadPolicy};
use crate::projection::{
    covariance_entries, project_gaussian_frame, splat_from_covariance, ColorSource, FrameTransform,
};
use crate::scene::Scene;
use crate::sh::MAX_SH_DEGREE;
use crate::sort::{sort_splats_by_depth_into, IncrementalSorter, ResortStats, SortScratch};
use crate::splat::Splat;

/// Output of preprocessing: visible splats in front-to-back order, plus the
/// work counters the cost models consume.
#[derive(Debug, Clone)]
pub struct PreprocessOutput {
    /// Visible splats, sorted front-to-back by camera depth.
    pub splats: Vec<Splat>,
    /// Statistics of the preprocessing pass.
    pub stats: PreprocessStats,
}

/// Work counters for the preprocessing + sorting stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessStats {
    /// Gaussians considered (scene size).
    pub input_gaussians: usize,
    /// Gaussians surviving frustum culling + opacity pruning.
    pub visible_splats: usize,
    /// Keys sorted (== visible splats for the hardware path; the CUDA path
    /// re-sorts duplicated per-tile keys and overrides this).
    pub sorted_keys: usize,
    /// Total OBB area of visible splats in pixels² — the rasterization
    /// workload proxy.
    pub total_obb_area: f64,
}

/// How [`preprocess_into`] finds the visible Gaussians. Each mode borrows
/// the cross-frame state it replays, so a mode cannot be asked for without
/// its state; every mode emits the same splats, order and
/// [`PreprocessStats`] — only the work to produce them differs.
#[derive(Debug)]
pub enum CullMode<'a> {
    /// Test every Gaussian against the frustum. With `temporal` the depth
    /// sort warm-starts from the previous call's near-sorted order through
    /// the scratch's [`IncrementalSorter`] (insertion-repair fast path,
    /// fused-radix fallback); the output is bit-exact with the cold sort.
    /// Use [`PreprocessScratch::resort_stats`] to observe the
    /// repair/fallback mix and [`PreprocessScratch::invalidate_temporal`]
    /// on scene cuts.
    Full {
        /// Warm-start the depth sort from the previous call.
        temporal: bool,
    },
    /// Incremental, spatially indexed culling for coherent frame sequences.
    /// Per frame the scene's grid cells ([`SceneIndex`]) are classified
    /// against the frustum; fully-outside cells are skipped wholesale,
    /// fully-inside cells skip the per-Gaussian cull test, and the
    /// covariance product `W Σ Wᵀ` of every visible Gaussian is replayed
    /// from the [`CullState`] cache whenever the camera delta is a pure
    /// translation ([`Camera::is_translation_of`]). Splats are emitted in
    /// scene order and the depth sort always warm-starts, as
    /// `Full { temporal: true }` does. [`CullState::stats`] reports what was
    /// skipped.
    ///
    /// The index must be built from this scene's cloud: a length mismatch
    /// panics on every call, and a content (fingerprint) mismatch panics on
    /// the first frame after the state (re)pairs with the index — the
    /// full-content check is `O(scene)` and runs once per pairing, so an
    /// **in-place** mutation of the cloud after pairing goes undetected
    /// (rebuild the index, or use [`CullState::invalidate`] plus a fresh
    /// [`SceneIndex`], after mutating).
    Indexed(&'a SceneIndex, &'a mut CullState),
    /// One member's sweep of a **batched** round — bit-exact with the
    /// member's solo `Indexed` run. The caller owns the round:
    /// [`BatchCullState::begin_round`] must have admitted the camera
    /// (leader or proven translation-bound member), after which M member
    /// sweeps share the round's single widened classification and the
    /// group-wide `W Σ Wᵀ` cache — the covariance product depends on the
    /// camera only through the view rotation, which the bound makes
    /// bit-identical across the group. Everything genuinely per-camera
    /// (sphere tests in `Boundary` cells, the projection tail, SH color,
    /// the warm-started depth sort over the member's own scratch) runs with
    /// the member's own [`FrameTransform`]. Mixed SH caps within one batch
    /// are sound: the shared verdicts and covariance cache are geometric
    /// (cap-invariant), and the cap rides each member's own frame transform.
    ///
    /// Panics on an index/cloud mismatch (as `Indexed`), when the state was
    /// not paired with this index by `begin_round`, or when the camera is
    /// not admitted by the current round — unprovable deltas must take the
    /// solo path.
    Batched(&'a SceneIndex, &'a mut BatchCullState),
}

/// The options of one [`preprocess_into`] call. The default is what
/// [`preprocess`] runs: the default thread policy, no SH cap and a full
/// cull with a cold sort.
#[derive(Debug)]
pub struct PreprocessOpts<'a> {
    /// Host threading of the projection sweep; results are bit-exact for
    /// every policy.
    pub policy: ThreadPolicy,
    /// SH evaluation degree cap (the quality-ladder color knob). Bit-exact
    /// with an uncapped run over a scene whose SH coefficients were
    /// truncated to the same degree; [`MAX_SH_DEGREE`] is the identity.
    /// The index's degree-0 color cache is cap-invariant, so the indexed
    /// modes stay bit-exact under any cap.
    pub max_sh_degree: u8,
    /// The culling mode and the cross-frame state it replays.
    pub cull: CullMode<'a>,
}

impl Default for PreprocessOpts<'_> {
    fn default() -> Self {
        Self {
            policy: ThreadPolicy::default(),
            max_sh_degree: MAX_SH_DEGREE,
            cull: CullMode::Full { temporal: false },
        }
    }
}

/// Visible splats in emission (pre-sort) order plus their sort keys,
/// filled at emission so the sort never makes a second pass over the
/// 64-byte splats.
#[derive(Debug, Default)]
struct Staging {
    splats: Vec<Splat>,
    /// Camera-space depths of `splats`.
    depths: Vec<f32>,
    /// Stable splat identities (`source`) of `splats`, for the temporal
    /// warm start.
    ids: Vec<u32>,
}

impl Staging {
    fn clear(&mut self) {
        self.splats.clear();
        self.depths.clear();
        self.ids.clear();
    }

    /// Both key streams are pushed unconditionally — the cold sort never
    /// reads `ids`, but one u32 push per visible splat is cheaper than
    /// splitting the emission loops per sort mode.
    #[inline]
    fn push(&mut self, s: Splat) {
        self.depths.push(s.depth);
        self.ids.push(s.source);
        self.splats.push(s);
    }

    /// Moves `chunk` onto the end, leaving it empty.
    fn append(&mut self, chunk: &mut Staging) {
        self.splats.append(&mut chunk.splats);
        self.depths.append(&mut chunk.depths);
        self.ids.append(&mut chunk.ids);
    }
}

/// Reusable buffers for the preprocessing stage: per-worker projection
/// outputs, the unsorted splat staging list with its keys and the
/// fused-sort scratch.
#[derive(Debug, Default)]
pub struct PreprocessScratch {
    /// Per-worker emission chunks (kept allocated across frames).
    chunks: Vec<Staging>,
    /// This frame's visible splats and keys in input (pre-sort) order.
    staging: Staging,
    /// Front-to-back permutation of `staging`.
    order: Vec<u32>,
    /// Radix-sort buffers.
    sort: SortScratch,
    /// Warm-start sorter for the warm-started [`preprocess_into`] modes
    /// (temporal full culls and both indexed modes).
    sorter: IncrementalSorter,
}

impl PreprocessScratch {
    /// Counters of the incremental re-sort (frames repaired vs radix
    /// fallbacks), accumulated across warm-started [`preprocess_into`]
    /// calls.
    pub fn resort_stats(&self) -> ResortStats {
        self.sorter.stats()
    }

    /// Forgets the temporal warm-start order, e.g. on a scene or camera
    /// cut where the next frame's depth order shares nothing with the
    /// previous one.
    pub fn invalidate_temporal(&mut self) {
        self.sorter.invalidate();
    }
}

/// Runs culling, projection and the global depth sort for one viewpoint.
///
/// # Examples
///
/// ```
/// use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.05); // Lego, tiny
/// let cam = scene.default_camera();
/// let out = preprocess(&scene, &cam);
/// assert!(out.stats.visible_splats > 0);
/// // Front-to-back order:
/// assert!(out.splats.windows(2).all(|w| w[0].depth <= w[1].depth));
/// ```
pub fn preprocess(scene: &Scene, camera: &Camera) -> PreprocessOutput {
    let mut splats = Vec::new();
    let stats = preprocess_into(
        scene,
        camera,
        PreprocessOpts::default(),
        &mut PreprocessScratch::default(),
        &mut splats,
    );
    PreprocessOutput { splats, stats }
}

/// [`preprocess`] under explicit options into caller-provided buffers —
/// the allocation-free frame-loop entry point. `out` is cleared and
/// refilled with the sorted splats. Every [`CullMode`] and thread policy
/// produces the same splats, order and stats; see [`CullMode`] for what
/// each mode replays and when the indexed modes panic.
///
/// # Examples
///
/// ```
/// use gsplat::index::{CullState, SceneIndex};
/// use gsplat::preprocess::{preprocess_into, CullMode, PreprocessOpts, PreprocessScratch};
/// use gsplat::scene::EVALUATED_SCENES;
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let cam = scene.default_camera();
/// let index = SceneIndex::build(&scene.gaussians);
/// let mut cull = CullState::default();
/// let (mut s1, mut s2) = (PreprocessScratch::default(), PreprocessScratch::default());
/// let (mut indexed, mut full) = (Vec::new(), Vec::new());
/// let opts = PreprocessOpts {
///     cull: CullMode::Indexed(&index, &mut cull),
///     ..Default::default()
/// };
/// let a = preprocess_into(&scene, &cam, opts, &mut s1, &mut indexed);
/// let b = preprocess_into(&scene, &cam, PreprocessOpts::default(), &mut s2, &mut full);
/// assert_eq!(a, b);
/// assert_eq!(indexed, full);
/// ```
// vrlint: hot
pub fn preprocess_into(
    scene: &Scene,
    camera: &Camera,
    opts: PreprocessOpts<'_>,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<Splat>,
) -> PreprocessStats {
    let n = scene.len();
    let workers = opts.policy.workers(n);
    // Hoist the camera constants out of the per-Gaussian loop; every
    // worker shares the same precomputed frame transform.
    let frame = FrameTransform::new(camera).with_max_sh_degree(opts.max_sh_degree);
    scratch.staging.clear();
    let temporal = match opts.cull {
        CullMode::Full { temporal } => {
            let (gaussians, frame) = (&scene.gaussians, &frame);
            fan_out(scratch, n, workers, &mut [], |range, _: &mut [()], out| {
                let start = range.start;
                // vrlint: allow(VL01[index], reason = "chunk ranges partition 0..gaussians.len() by construction")
                for (k, g) in gaussians[range].iter().enumerate() {
                    if let Some(s) = project_gaussian_frame(g, frame, (start + k) as u32) {
                        out.push(s);
                    }
                }
                (0, 0)
            });
            temporal
        }
        CullMode::Indexed(index, cull) => {
            check_index(scene, index, cull.paired_with() != index.fingerprint());
            cull.begin_frame(index, &frame, camera);
            let (refreshed, reprojected) = project_indexed(
                scene,
                index,
                &frame,
                cull.projection_parts(),
                workers,
                scratch,
            );
            cull.record_projection(refreshed, reprojected);
            // The indexed path is inherently temporal: it exists for
            // coherent frame streams, so it always feeds the id-keyed
            // warm-started sort.
            true
        }
        CullMode::Batched(index, batch) => {
            assert_eq!(
                batch.paired_with(),
                index.fingerprint(),
                "batch state not paired with this index (begin_round not called)"
            );
            check_index(scene, index, !batch.content_checked());
            batch.mark_content_checked();
            assert!(
                batch.admits(camera),
                "camera not admitted by the current batch round — unprovable deltas take the solo path"
            );
            let (refreshed, reprojected) = project_indexed(
                scene,
                index,
                &frame,
                batch.projection_parts(),
                workers,
                scratch,
            );
            batch.record_projection(refreshed, reprojected);
            // Same warm-started id-keyed sort as the solo indexed path,
            // over the member's own scratch: the per-stream sorter sequence
            // is preserved whether a frame was served batched or solo.
            true
        }
    };
    finish_preprocess(n, scratch, out, temporal)
}

/// The indexed modes' guard that `index` describes this cloud: the O(1)
/// length check on every frame, plus the `O(scene)` content check when
/// `check_content` is set — once per pairing; steady-state frames skip it.
fn check_index(scene: &Scene, index: &SceneIndex, check_content: bool) {
    assert_eq!(
        index.len(),
        scene.len(),
        "spatial index built for a different cloud size"
    );
    if check_content {
        assert_eq!(
            index.fingerprint(),
            crate::index::cloud_fingerprint(&scene.gaussians),
            "spatial index built for a different scene"
        );
    }
}

/// Runs `project` over the Gaussians `0..n` into the scratch staging:
/// in one call on the caller's thread, or split into `workers`
/// contiguous chunks on scoped threads whose outputs are concatenated in
/// chunk order — identical to the serial emission order. `state` (empty,
/// or one entry per Gaussian) is split into the window matching each
/// chunk. Returns the summed `(refreshed, reprojected)` counters.
// vrlint: hot
fn fan_out<S: Send>(
    scratch: &mut PreprocessScratch,
    n: usize,
    workers: usize,
    state: &mut [S],
    project: impl Fn(Range<usize>, &mut [S], &mut Staging) -> (u64, u64) + Sync,
) -> (u64, u64) {
    if workers <= 1 {
        return project(0..n, state, &mut scratch.staging);
    }
    let parts = chunked_ranges_mut(n, workers, state);
    // Exactly one chunk per spawned part: a shorter part list must not
    // leave stale chunks for the merge to pick up. Growing the table
    // happens only on first use or a worker-count change.
    scratch.chunks.resize_with(parts.len(), Default::default);
    // Integer sums commute, so the totals do not depend on which worker
    // finishes first — and no per-frame handle list is needed to join.
    let (refreshed, reprojected) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for ((range, state), chunk) in parts.into_iter().zip(&mut scratch.chunks) {
            let (project, refreshed, reprojected) = (&project, &refreshed, &reprojected);
            s.spawn(move || {
                chunk.clear();
                let (r, p) = project(range, state, chunk);
                refreshed.fetch_add(r, Ordering::Relaxed);
                reprojected.fetch_add(p, Ordering::Relaxed);
            });
        }
    });
    // Chunk-order concatenation == serial emission order.
    for chunk in &mut scratch.chunks {
        scratch.staging.append(chunk);
    }
    (refreshed.into_inner(), reprojected.into_inner())
}

/// The projection sweep shared by [`CullMode::Indexed`] and
/// [`CullMode::Batched`]: fans [`project_indexed_range`] out over the
/// classification, covariance cache and epoch of `parts` (the state's
/// `projection_parts`), returning `(refreshed, reprojected)`.
fn project_indexed(
    scene: &Scene,
    index: &SceneIndex,
    frame: &FrameTransform,
    (classes, mcache, epoch): (&[CellClass], &mut [CovCacheEntry], u32),
    workers: usize,
    scratch: &mut PreprocessScratch,
) -> (u64, u64) {
    fan_out(
        scratch,
        scene.len(),
        workers,
        mcache,
        |range, mstate, out| {
            project_indexed_range(
                &scene.gaussians,
                index,
                frame,
                classes,
                epoch,
                range,
                mstate,
                out,
            )
        },
    )
}

/// The shared sort-and-emit tail of every preprocess path: the
/// (optionally warm-started) front-to-back sort over the key streams the
/// emission loops already extracted, the reorder into `out` and the stats.
fn finish_preprocess(
    input_gaussians: usize,
    scratch: &mut PreprocessScratch,
    out: &mut Vec<Splat>,
    temporal: bool,
) -> PreprocessStats {
    let staging = &scratch.staging;
    debug_assert_eq!(staging.depths.len(), staging.splats.len());
    debug_assert_eq!(staging.ids.len(), staging.splats.len());
    if temporal {
        // Warm-start by stable identity: `source` survives visibility
        // churn at the frustum edges, unlike the staging index.
        scratch
            .sorter
            .sort_depths_with_ids_into(&staging.depths, &staging.ids, &mut scratch.order);
    } else {
        sort_splats_by_depth_into(&staging.depths, &mut scratch.sort, &mut scratch.order);
    }

    out.clear();
    out.reserve(staging.splats.len());
    // One pass reorders and accumulates the workload proxy — the f64 adds
    // run in sorted order, exactly as a separate sweep over `out` would.
    let mut total_obb_area = 0.0f64;
    out.extend(scratch.order.iter().map(|&i| {
        let s = staging.splats[i as usize];
        total_obb_area += s.obb_area() as f64;
        s
    }));
    PreprocessStats {
        input_gaussians,
        visible_splats: out.len(),
        sorted_keys: out.len(),
        total_obb_area,
    }
}

/// Projects the Gaussians of `range` through the classification lattice
/// into `out`, returning `(refreshed, reprojected)` covariance counters.
/// `mstate` is the covariance-cache window covering exactly `range`.
#[allow(clippy::too_many_arguments)]
fn project_indexed_range(
    gaussians: &[Gaussian],
    index: &SceneIndex,
    frame: &FrameTransform,
    classes: &[CellClass],
    epoch: u32,
    range: std::ops::Range<usize>,
    mstate: &mut [CovCacheEntry],
    out: &mut Staging,
) -> (u64, u64) {
    let base = range.start;
    let (mut refreshed, mut reprojected) = (0u64, 0u64);
    // Zipped SoA iteration: the hot loop streams only the values the
    // camera-dependent tail consumes (mean, opacity, the caches) and never
    // touches the ~80-byte Gaussian structs; no per-item bounds checks
    // beyond the per-cell class lookup.
    let cell_of = &index.cell_of()[range.clone()];
    let cov3d = &index.cov3d()[range.clone()];
    let cutoff = &index.cutoff()[range.clone()];
    let base_color = &index.base_color()[range.clone()];
    let means = &index.means()[range.clone()];
    let opacities = &index.opacities()[range.clone()];
    let radius = &index.radius()[range];
    for (k, ((((&cell, &mean), &opacity), entry), cov3)) in cell_of
        .iter()
        .zip(means)
        .zip(opacities)
        .zip(mstate.iter_mut())
        .zip(cov3d)
        .enumerate()
    {
        match classes[cell as usize] {
            // Every live resident provably fails the sphere cull — and
            // dead Gaussians (camera-invariantly culled: the full path's
            // opacity and finiteness gates return `None` for them under
            // every camera) point at the always-`Outside` sentinel entry.
            CellClass::Outside => continue,
            // Every live resident provably passes it: skip the test.
            CellClass::Inside => {}
            CellClass::Boundary => {
                if !frame.sphere_visible(mean, radius[k]) {
                    continue;
                }
            }
        }
        if entry.epoch == epoch {
            refreshed += 1;
        } else {
            entry.m = covariance_entries(frame, cov3);
            entry.epoch = epoch;
            reprojected += 1;
        }
        let m6 = entry.m;
        let color = match base_color[k] {
            Some(c) => ColorSource::Cached(c),
            // View-dependent SH (degree > 0): fall back to the struct.
            None => ColorSource::Sh(&gaussians[base + k].sh),
        };
        if let Some(s) = splat_from_covariance(
            mean,
            opacity,
            frame,
            (base + k) as u32,
            move || m6,
            cutoff[k],
            color,
        ) {
            out.push(s);
        }
    }
    (refreshed, reprojected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::EVALUATED_SCENES;
    use crate::stream::SplatStream;

    /// Default options with the given culling mode.
    fn opts(cull: CullMode<'_>) -> PreprocessOpts<'_> {
        PreprocessOpts {
            cull,
            ..Default::default()
        }
    }

    /// [`preprocess`] under an explicit threading policy.
    fn preprocess_with(scene: &Scene, cam: &Camera, policy: ThreadPolicy) -> PreprocessOutput {
        let mut splats = Vec::new();
        let opts = PreprocessOpts {
            policy,
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

    #[test]
    fn output_is_depth_sorted() {
        let scene = EVALUATED_SCENES[5].generate_scaled(0.06);
        let out = preprocess(&scene, &scene.default_camera());
        assert!(out.splats.windows(2).all(|w| w[0].depth <= w[1].depth));
    }

    #[test]
    fn culling_reduces_count() {
        let scene = EVALUATED_SCENES[2].generate_scaled(0.06); // outdoor Train
        let out = preprocess(&scene, &scene.default_camera());
        assert!(out.stats.visible_splats <= out.stats.input_gaussians);
        assert!(out.stats.visible_splats > 0);
    }

    #[test]
    fn stats_are_consistent() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05);
        let out = preprocess(&scene, &scene.default_camera());
        assert_eq!(out.stats.visible_splats, out.splats.len());
        assert_eq!(out.stats.sorted_keys, out.splats.len());
        assert!(out.stats.total_obb_area > 0.0);
    }

    #[test]
    fn different_viewpoints_yield_different_visibility() {
        let scene = EVALUATED_SCENES[3].generate_scaled(0.04); // Truck outdoor
        let cams = scene.viewpoints(4);
        let counts: Vec<usize> = cams
            .iter()
            .map(|c| preprocess(&scene, c).stats.visible_splats)
            .collect();
        // At least two viewpoints should differ in visible splats.
        assert!(counts.iter().any(|&c| c != counts[0]) || counts[0] > 0);
    }

    #[test]
    fn parallel_matches_serial_bit_exactly() {
        let scene = EVALUATED_SCENES[1].generate_scaled(0.06);
        let cam = scene.default_camera();
        let serial = preprocess_with(&scene, &cam, ThreadPolicy::serial());
        for policy in [
            ThreadPolicy {
                threads: 3,
                deterministic: true,
            },
            ThreadPolicy {
                threads: 5,
                deterministic: false,
            },
            ThreadPolicy::default(),
        ] {
            let par = preprocess_with(&scene, &cam, policy);
            assert_eq!(par.stats, serial.stats, "{policy:?}");
            assert_eq!(par.splats.len(), serial.splats.len());
            assert!(
                par.splats.iter().zip(&serial.splats).all(|(a, b)| a == b),
                "{policy:?}: splat stream diverged"
            );
        }
    }

    #[test]
    fn stream_output_matches_aos_output() {
        let scene = EVALUATED_SCENES[0].generate_scaled(0.05);
        let cam = scene.default_camera();
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        let mut stream = SplatStream::new();
        let stats = preprocess_into(
            &scene,
            &cam,
            PreprocessOpts::default(),
            &mut scratch,
            &mut out,
        );
        stream.rebuild_from(&out);
        assert_eq!(stats.visible_splats, out.len());
        assert_eq!(stream.len(), out.len());
        assert!((0..out.len()).all(|i| stream.get(i) == out[i]));
    }

    #[test]
    fn temporal_preprocess_is_bit_exact_with_full_sort() {
        use crate::camera::CameraPath;
        let scene = EVALUATED_SCENES[2].generate_scaled(0.05); // Train
        let path = CameraPath::flythrough(
            scene.center + crate::math::Vec3::new(0.0, 1.5, scene.view_radius),
            scene.center,
            0.05,
            0.02,
        );
        let cams = path.cameras(8, 160, 120, 1.0);
        let mut temporal_scratch = PreprocessScratch::default();
        let mut full_scratch = PreprocessScratch::default();
        let mut temporal_out = Vec::new();
        let mut full_out = Vec::new();
        for (i, cam) in cams.iter().enumerate() {
            let ts = preprocess_into(
                &scene,
                cam,
                opts(CullMode::Full { temporal: true }),
                &mut temporal_scratch,
                &mut temporal_out,
            );
            let fs = preprocess_into(
                &scene,
                cam,
                PreprocessOpts::default(),
                &mut full_scratch,
                &mut full_out,
            );
            assert_eq!(ts, fs, "frame {i}: stats diverged");
            assert_eq!(
                temporal_out, full_out,
                "frame {i}: splat order diverged from the full sort"
            );
        }
        let rs = temporal_scratch.resort_stats();
        assert_eq!(rs.frames, 8);
        assert!(
            rs.repaired >= 1,
            "coherent path must hit the repair fast path: {rs:?}"
        );
    }

    /// Indexed preprocessing must be bit-exact with the full path on every
    /// frame of a sequence, for both camera-delta regimes: a flythrough
    /// (pure translation — the covariance cache is hot) and an orbit
    /// (rotation every frame — every epoch misses).
    #[test]
    fn indexed_preprocess_is_bit_exact_with_full() {
        use crate::camera::CameraPath;
        use crate::index::{CullState, SceneIndex};
        let scene = EVALUATED_SCENES[2].generate_scaled(0.05); // Train
        let index = SceneIndex::build(&scene.gaussians);
        let paths = [
            CameraPath::flythrough(
                scene.center + crate::math::Vec3::new(0.0, 1.5, scene.view_radius),
                scene.center,
                scene.view_radius * 0.01,
                scene.view_radius * 0.005,
            ),
            CameraPath::orbit(scene.center, scene.view_radius, 1.2, 0.05),
        ];
        for path in paths {
            let cams = path.cameras(6, 160, 120, 1.0);
            let mut cull = CullState::default();
            let mut s_idx = PreprocessScratch::default();
            let mut s_full = PreprocessScratch::default();
            let mut indexed = Vec::new();
            let mut full = Vec::new();
            for (i, cam) in cams.iter().enumerate() {
                let a = preprocess_into(
                    &scene,
                    cam,
                    opts(CullMode::Indexed(&index, &mut cull)),
                    &mut s_idx,
                    &mut indexed,
                );
                let b = preprocess_into(
                    &scene,
                    cam,
                    PreprocessOpts::default(),
                    &mut s_full,
                    &mut full,
                );
                assert_eq!(a, b, "{path:?}: frame {i} stats diverged");
                assert_eq!(
                    indexed.len(),
                    full.len(),
                    "{path:?}: frame {i} visible count diverged"
                );
                for (k, (x, y)) in indexed.iter().zip(&full).enumerate() {
                    assert_eq!(x, y, "{path:?}: frame {i} splat {k} diverged");
                }
            }
            let cs = cull.stats();
            assert_eq!(cs.frames, 6);
            assert!(
                cs.gaussians_skipped + cs.gaussians_refreshed + cs.gaussians_reprojected > 0,
                "{path:?}: no per-Gaussian decisions recorded: {cs:?}"
            );
        }
    }

    /// The translation bound must actually fire on a flythrough: frames
    /// after the first replay cached covariance products.
    #[test]
    fn indexed_preprocess_refreshes_under_translation() {
        use crate::camera::CameraPath;
        use crate::index::{CullState, SceneIndex};
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05); // Lego
        let index = SceneIndex::build(&scene.gaussians);
        let path = CameraPath::flythrough(
            scene.center + crate::math::Vec3::new(0.0, 1.0, scene.view_radius),
            scene.center,
            scene.view_radius * 0.005,
            scene.view_radius * 0.002,
        );
        let cams = path.cameras(5, 128, 96, 1.0);
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        for cam in &cams {
            preprocess_into(
                &scene,
                cam,
                opts(CullMode::Indexed(&index, &mut cull)),
                &mut scratch,
                &mut out,
            );
        }
        let cs = cull.stats();
        assert!(
            cs.gaussians_refreshed > cs.gaussians_reprojected,
            "flythrough frames 2..5 should be cache hits: {cs:?}"
        );
    }

    /// The indexed path is bit-exact for every threading policy, like the
    /// full path.
    #[test]
    fn indexed_parallel_matches_indexed_serial() {
        use crate::index::{CullState, SceneIndex};
        let scene = EVALUATED_SCENES[1].generate_scaled(0.05);
        let cam = scene.default_camera();
        let index = SceneIndex::build(&scene.gaussians);
        let run = |policy: ThreadPolicy| {
            let mut cull = CullState::default();
            let mut scratch = PreprocessScratch::default();
            let mut out = Vec::new();
            let opts = PreprocessOpts {
                policy,
                cull: CullMode::Indexed(&index, &mut cull),
                ..Default::default()
            };
            let stats = preprocess_into(&scene, &cam, opts, &mut scratch, &mut out);
            (stats, out)
        };
        let (ref_stats, ref_out) = run(ThreadPolicy::serial());
        for policy in [
            ThreadPolicy {
                threads: 3,
                deterministic: true,
            },
            ThreadPolicy {
                threads: 5,
                deterministic: false,
            },
            ThreadPolicy::default(),
        ] {
            let (stats, out) = run(policy);
            assert_eq!(stats, ref_stats, "{policy:?}");
            assert_eq!(out, ref_out, "{policy:?}: splat stream diverged");
        }
    }

    /// A `CullState` reused across two different (same-length) scenes must
    /// auto-invalidate when handed the second scene's index: replaying the
    /// first scene's cached covariance products would be silently wrong.
    #[test]
    fn cull_state_invalidates_when_repaired_with_another_index() {
        use crate::index::{CullState, SceneIndex};
        let scene_a = EVALUATED_SCENES[4].generate_scaled(0.04);
        let mut scene_b = scene_a.clone();
        for g in &mut scene_b.gaussians {
            g.mean.x += 0.35; // same length, different cloud
        }
        let cam = scene_a.default_camera();
        let index_a = SceneIndex::build(&scene_a.gaussians);
        let index_b = SceneIndex::build(&scene_b.gaussians);
        let mut cull = CullState::default();
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        // Warm the covariance cache on scene A (two frames, same camera —
        // the second is a pure-translation delta, all cache hits).
        for _ in 0..2 {
            preprocess_into(
                &scene_a,
                &cam,
                opts(CullMode::Indexed(&index_a, &mut cull)),
                &mut scratch,
                &mut out,
            );
        }
        assert!(cull.stats().gaussians_refreshed > 0);
        // Same camera, same cloud size, *different* scene: without the
        // pairing guard the epoch would hold and scene A's products would
        // be replayed for scene B's Gaussians.
        let stats_b = preprocess_into(
            &scene_b,
            &cam,
            opts(CullMode::Indexed(&index_b, &mut cull)),
            &mut scratch,
            &mut out,
        );
        let mut full_scratch = PreprocessScratch::default();
        let mut full = Vec::new();
        let full_stats = preprocess_into(
            &scene_b,
            &cam,
            PreprocessOpts::default(),
            &mut full_scratch,
            &mut full,
        );
        assert_eq!(stats_b, full_stats);
        assert_eq!(out, full, "stale covariance cache leaked across scenes");
    }

    #[test]
    #[should_panic(expected = "different scene")]
    fn indexed_preprocess_rejects_mismatched_index() {
        use crate::index::{CullState, SceneIndex};
        let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
        let mut other = scene.clone();
        other.gaussians[0].mean.x += 10.0;
        let index = SceneIndex::build(&other.gaussians);
        let _ = preprocess_into(
            &scene,
            &scene.default_camera(),
            opts(CullMode::Indexed(&index, &mut CullState::default())),
            &mut PreprocessScratch::default(),
            &mut Vec::new(),
        );
    }

    /// Phase-attribution probe for the preprocess paths (not a test of
    /// behaviour): run on demand with
    /// `cargo test --release -p gsplat perf_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn perf_probe() {
        use crate::camera::CameraPath;
        use crate::index::{CullState, SceneIndex};
        use std::time::Instant;
        let scene = EVALUATED_SCENES[2].generate_scaled(0.1);
        let frames = 16;
        let path = CameraPath::flythrough(
            scene.center + crate::math::Vec3::new(0.0, scene.view_height, scene.view_radius),
            scene.center,
            scene.view_radius * 0.0015,
            scene.view_radius * 0.0008,
        );
        let (w, h) = scene.spec.scaled_viewport(scene.scale);
        let cams = path.cameras(frames, w, h, 55f32.to_radians());
        let index = SceneIndex::build(&scene.gaussians);
        let policy = ThreadPolicy::serial();
        let reps = 20;

        let mut best = [f64::INFINITY; 5];
        let mut out = Vec::new();
        for _ in 0..reps {
            // 0: full temporal preprocess.
            let t0 = Instant::now();
            let mut scratch = PreprocessScratch::default();
            for cam in &cams {
                let opts = PreprocessOpts {
                    policy,
                    cull: CullMode::Full { temporal: true },
                    ..Default::default()
                };
                preprocess_into(&scene, cam, opts, &mut scratch, &mut out);
            }
            best[0] = best[0].min(t0.elapsed().as_secs_f64() * 1e3);

            // 1: indexed preprocess.
            let t0 = Instant::now();
            let mut cull = CullState::default();
            let mut scratch = PreprocessScratch::default();
            for cam in &cams {
                let opts = PreprocessOpts {
                    policy,
                    cull: CullMode::Indexed(&index, &mut cull),
                    ..Default::default()
                };
                preprocess_into(&scene, cam, opts, &mut scratch, &mut out);
            }
            best[1] = best[1].min(t0.elapsed().as_secs_f64() * 1e3);

            // 2: indexed sweep only (classification + projection, no sort).
            let t0 = Instant::now();
            let mut cull = CullState::default();
            let mut scratch = PreprocessScratch::default();
            for cam in &cams {
                let frame = FrameTransform::new(cam);
                cull.begin_frame(&index, &frame, cam);
                scratch.staging.clear();
                let (classes, mcache, epoch) = cull.projection_parts();
                project_indexed_range(
                    &scene.gaussians,
                    &index,
                    &frame,
                    classes,
                    epoch,
                    0..scene.len(),
                    mcache,
                    &mut scratch.staging,
                );
            }
            best[2] = best[2].min(t0.elapsed().as_secs_f64() * 1e3);

            // 3: full projection sweep only.
            let t0 = Instant::now();
            let mut scratch = PreprocessScratch::default();
            for cam in &cams {
                let frame = FrameTransform::new(cam);
                scratch.staging.clear();
                for (i, g) in scene.gaussians.iter().enumerate() {
                    if let Some(s) = project_gaussian_frame(g, &frame, i as u32) {
                        scratch.staging.push(s);
                    }
                }
            }
            best[3] = best[3].min(t0.elapsed().as_secs_f64() * 1e3);

            // 4: classification alone.
            let t0 = Instant::now();
            let mut cull = CullState::default();
            for cam in &cams {
                let frame = FrameTransform::new(cam);
                cull.begin_frame(&index, &frame, cam);
            }
            best[4] = best[4].min(t0.elapsed().as_secs_f64() * 1e3);
        }
        println!("full preprocess      : {:.3} ms", best[0]);
        println!("indexed preprocess   : {:.3} ms", best[1]);
        println!("indexed sweep only   : {:.3} ms", best[2]);
        println!("full sweep only      : {:.3} ms", best[3]);
        println!("classification only  : {:.3} ms", best[4]);
        println!(
            "finish (full/indexed): {:.3} / {:.3} ms",
            best[0] - best[3],
            best[1] - best[2]
        );
    }

    #[test]
    fn scratch_reuse_is_stable_across_frames() {
        let scene = EVALUATED_SCENES[4].generate_scaled(0.05);
        let mut scratch = PreprocessScratch::default();
        let mut out = Vec::new();
        let cams = scene.viewpoints(3);
        for cam in &cams {
            let stats = preprocess_into(
                &scene,
                cam,
                PreprocessOpts::default(),
                &mut scratch,
                &mut out,
            );
            let fresh = preprocess(&scene, cam);
            assert_eq!(stats, fresh.stats);
            assert_eq!(out.len(), fresh.splats.len());
        }
    }
}
