//! Coarse spatial index over the Gaussian cloud for **incremental frustum
//! preprocessing**: a uniform grid built once per scene whose cells carry
//! conservative world-space AABBs (inflated by the 3σ extent of their
//! resident Gaussians), classified per frame against the view frustum as
//! fully-outside / fully-inside / boundary.
//!
//! The classification lattice drives three per-Gaussian fast paths, every
//! one of them **bit-exact** with the full [`crate::projection`] sweep:
//!
//! * **Fully-outside cells** — every resident provably fails
//!   [`Camera::sphere_visible`], so the whole cell is skipped without any
//!   per-Gaussian camera work (the full path would have paid the sphere
//!   test per resident just to cull it).
//! * **Fully-inside cells** — every resident provably passes the sphere
//!   test, so the test itself is skipped and projection starts directly.
//! * **Boundary cells** — the per-Gaussian sphere test runs exactly as in
//!   the full path.
//!
//! Orthogonally, a per-Gaussian cache in [`CullState`] holds the
//! **camera-invariant head** of the projection (the 3D covariance
//! `Σ = R S Sᵀ Rᵀ`, the tight-OBB cutoff, degree-0 SH colors, the
//! opacity/finiteness cull verdict) computed once at index build, plus the
//! view-rotation product `W Σ Wᵀ` tagged with a *rotation epoch*: under the
//! camera-delta bound ([`Camera::is_translation_of`]) the product is
//! bit-identical to the previous frame's and is replayed from the cache
//! instead of recomputed. Only the genuinely camera-dependent tail
//! (perspective Jacobian, conic, tight OBB, depth key) runs per frame —
//! which is why the output bits cannot differ from the full path's.
//!
//! Classification is recomputed every frame — it costs `O(cells)`, orders
//! of magnitude below `O(gaussians)` — while the previous frame's
//! classification is kept for change tracking ([`CullStats`]) and the
//! delta-soundness property tests.

use crate::camera::Camera;
use crate::gaussian::Gaussian;
use crate::math::{Mat3, Vec3};
use crate::projection::{culled_before_projection, tight_cutoff_sigmas, FrameTransform};

/// Target mean resident count per grid cell: coarse enough that per-frame
/// classification is negligible next to projection, fine enough that
/// frustum edges land in boundary cells rather than smearing whole-scene
/// cells into `Boundary`.
pub const TARGET_GAUSSIANS_PER_CELL: usize = 64;

/// Grid resolution bounds per axis. The floor keeps cells small enough
/// that frustum edges produce genuinely outside/inside cells even for
/// small (scaled-down) clouds — classifying a few hundred cells per frame
/// is noise next to projecting thousands of Gaussians — while the cap
/// bounds classification cost and memory for very large clouds.
const MIN_CELLS_PER_AXIS: usize = 8;
const MAX_CELLS_PER_AXIS: usize = 48;

/// Frustum classification of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Every live resident provably fails the sphere-vs-frustum cull: the
    /// whole cell is skipped.
    Outside,
    /// Every live resident provably passes the sphere-vs-frustum cull: the
    /// per-Gaussian test is skipped.
    Inside,
    /// Neither bound holds — residents take the full per-Gaussian path.
    Boundary,
}

/// One grid cell: the AABB of its live residents' means, the largest
/// resident 3σ bounding radius (the conservative inflation), and the live
/// resident count.
#[derive(Debug, Clone)]
struct Cell {
    /// Component-wise minimum of live resident means.
    lo: Vec3,
    /// Component-wise maximum of live resident means.
    hi: Vec3,
    /// Largest [`Gaussian::bounding_radius`] among live residents.
    radius: f32,
    /// Number of live residents (Gaussians not culled camera-invariantly).
    live: u32,
}

impl Cell {
    const EMPTY: Cell = Cell {
        lo: Vec3::splat(f32::INFINITY),
        hi: Vec3::splat(f32::NEG_INFINITY),
        radius: 0.0,
        live: 0,
    };
}

/// The per-scene spatial index: grid cells plus the per-Gaussian
/// camera-invariant projection head.
///
/// Built once per scene with [`SceneIndex::build`]; consumed by
/// [`crate::preprocess::preprocess_into`] in
/// [`crate::preprocess::CullMode::Indexed`] mode together with a
/// per-session [`CullState`].
///
/// # Examples
///
/// ```
/// use gsplat::index::{CellClass, SceneIndex};
/// use gsplat::projection::FrameTransform;
/// use gsplat::scene::EVALUATED_SCENES;
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let index = SceneIndex::build(&scene.gaussians);
/// assert_eq!(index.len(), scene.gaussians.len());
/// let mut classes = Vec::new();
/// index.classify_into(&FrameTransform::new(&scene.default_camera()), &mut classes);
/// // One entry per cell plus the trailing sentinel for dead Gaussians.
/// assert_eq!(classes.len(), index.cell_count() + 1);
/// ```
#[derive(Debug, Clone)]
pub struct SceneIndex {
    cells: Vec<Cell>,
    /// Cell id of each Gaussian.
    cell_of: Vec<u32>,
    /// Camera-invariant cull verdict ([`culled_before_projection`]).
    dead: Vec<bool>,
    /// Cached `Σ = R S Sᵀ Rᵀ` per Gaussian (bit-identical to recomputing).
    cov3d: Vec<Mat3>,
    /// Cached [`tight_cutoff_sigmas`] of each Gaussian's opacity.
    cutoff: Vec<f32>,
    /// Cached view-independent color for degree-0 SH Gaussians.
    base_color: Vec<Option<Vec3>>,
    /// SoA mirror of the means: the only geometric input the per-frame
    /// refresh needs, streamed without dragging the ~80-byte Gaussian
    /// structs (and their heap SH pointers) through the cache.
    means: Vec<Vec3>,
    /// SoA mirror of the opacities (bit-copies).
    opacities: Vec<f32>,
    /// Cached [`Gaussian::bounding_radius`] per Gaussian.
    radius: Vec<f32>,
    /// Fingerprint of the cloud the index was built from.
    fingerprint: u64,
}

impl SceneIndex {
    /// Builds the index for a Gaussian cloud: two `O(n)` sweeps (cull
    /// verdicts + world bounds, then cell assignment + AABB accumulation +
    /// the camera-invariant projection head).
    pub fn build(gaussians: &[Gaussian]) -> Self {
        let n = gaussians.len();
        let mut dead = Vec::with_capacity(n);
        let mut lo = Vec3::splat(f32::INFINITY);
        let mut hi = Vec3::splat(f32::NEG_INFINITY);
        let mut live_total = 0usize;
        for g in gaussians {
            let d = culled_before_projection(g);
            dead.push(d);
            if !d {
                lo = lo.min(g.mean);
                hi = hi.max(g.mean);
                live_total += 1;
            }
        }

        // Grid resolution: cube-root of the target cell count, clamped.
        let target_cells = (live_total / TARGET_GAUSSIANS_PER_CELL).max(1);
        let axis = ((target_cells as f32).cbrt().ceil() as usize)
            .clamp(MIN_CELLS_PER_AXIS, MAX_CELLS_PER_AXIS);
        let dims = if live_total == 0 { 1 } else { axis };
        let extent = hi - lo;
        let cell_size = Vec3::new(
            (extent.x / dims as f32).max(f32::MIN_POSITIVE),
            (extent.y / dims as f32).max(f32::MIN_POSITIVE),
            (extent.z / dims as f32).max(f32::MIN_POSITIVE),
        );

        let mut cells = vec![Cell::EMPTY; dims * dims * dims];
        let mut cell_of = Vec::with_capacity(n);
        let mut cov3d = Vec::with_capacity(n);
        let mut cutoff = Vec::with_capacity(n);
        let mut base_color = Vec::with_capacity(n);
        let mut means = Vec::with_capacity(n);
        let mut opacities = Vec::with_capacity(n);
        let mut radius = Vec::with_capacity(n);
        let clamp_axis = |v: f32| -> usize {
            // NaN casts to 0; anything else clamps into the grid.
            (v as usize).min(dims - 1)
        };
        for (i, g) in gaussians.iter().enumerate() {
            if dead[i] {
                // Dead Gaussians live in the sentinel cell past the grid,
                // which always classifies `Outside`: the hot loop skips
                // them with the same single lookup as a culled cell.
                cell_of.push((dims * dims * dims) as u32);
            } else {
                let cx = clamp_axis((g.mean.x - lo.x) / cell_size.x);
                let cy = clamp_axis((g.mean.y - lo.y) / cell_size.y);
                let cz = clamp_axis((g.mean.z - lo.z) / cell_size.z);
                let cell_id = (cz * dims + cy) * dims + cx;
                cell_of.push(cell_id as u32);
                let cell = &mut cells[cell_id];
                cell.lo = cell.lo.min(g.mean);
                cell.hi = cell.hi.max(g.mean);
                cell.radius = cell.radius.max(g.bounding_radius());
                cell.live += 1;
            }
            cov3d.push(g.covariance_3d());
            cutoff.push(tight_cutoff_sigmas(g.opacity));
            // Degree-0 SH is view-independent: evaluate once. The probe
            // direction is irrelevant (the basis reduces to the DC term).
            base_color.push((g.sh.degree() == 0).then(|| g.sh.evaluate(Vec3::new(0.0, 0.0, 1.0))));
            means.push(g.mean);
            opacities.push(g.opacity);
            radius.push(g.bounding_radius());
        }

        Self {
            cells,
            cell_of,
            dead,
            cov3d,
            cutoff,
            base_color,
            means,
            opacities,
            radius,
            fingerprint: cloud_fingerprint(gaussians),
        }
    }

    /// Number of indexed Gaussians.
    pub fn len(&self) -> usize {
        self.cell_of.len()
    }

    /// `true` when the indexed cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.cell_of.is_empty()
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Fingerprint of the cloud this index was built from (see
    /// [`cloud_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Cell id of each Gaussian. Dead Gaussians (see [`SceneIndex::dead`])
    /// carry the sentinel id [`SceneIndex::cell_count`], whose
    /// classification entry is always [`CellClass::Outside`].
    pub fn cell_of(&self) -> &[u32] {
        &self.cell_of
    }

    /// Camera-invariant cull verdict of each Gaussian
    /// ([`culled_before_projection`] precomputed).
    pub fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Live-resident count of cell `cell_id`.
    pub fn cell_live(&self, cell_id: usize) -> u32 {
        self.cells[cell_id].live
    }

    pub(crate) fn cov3d(&self) -> &[Mat3] {
        &self.cov3d
    }

    pub(crate) fn cutoff(&self) -> &[f32] {
        &self.cutoff
    }

    pub(crate) fn base_color(&self) -> &[Option<Vec3>] {
        &self.base_color
    }

    pub(crate) fn means(&self) -> &[Vec3] {
        &self.means
    }

    pub(crate) fn opacities(&self) -> &[f32] {
        &self.opacities
    }

    pub(crate) fn radius(&self) -> &[f32] {
        &self.radius
    }

    /// Classifies every cell against the frustum of `frame`, writing into
    /// `classes` (cleared and refilled; one entry per cell **plus** a
    /// trailing sentinel entry — always [`CellClass::Outside`] — that
    /// dead Gaussians' [`SceneIndex::cell_of`] ids point at).
    pub fn classify_into(&self, frame: &FrameTransform, classes: &mut Vec<CellClass>) {
        self.classify_widened_into(frame, Vec3::ZERO, Vec3::ZERO, classes);
    }

    /// [`SceneIndex::classify_into`] widened to cover a whole **batch** of
    /// translation-bound cameras at once: `frame` is the batch leader's
    /// transform, and every member camera's space differs from the
    /// leader's by a pure camera-space offset `d_m` (see
    /// [`crate::camera::Camera::is_translation_of`]). With `mid` and
    /// `spread` the component-wise center and half-range of the member
    /// offsets (leader included at `d = 0`), each cell's camera-space box
    /// is widened to contain its image in **every** member's camera space,
    /// so one classification pass yields verdicts that are simultaneously
    /// conservative for all members: `Outside` ⇒ every resident fails the
    /// sphere cull in every member frame, `Inside` ⇒ every resident passes
    /// it in every member frame. Verdicts feed only comparisons, never
    /// output arithmetic, which is why shared (widened) verdicts keep every
    /// member's emitted splat stream bit-exact with its solo run.
    pub fn classify_widened_into(
        &self,
        frame: &FrameTransform,
        mid: Vec3,
        spread: Vec3,
        classes: &mut Vec<CellClass>,
    ) {
        classes.clear();
        classes.extend(
            self.cells
                .iter()
                .map(|c| classify_cell_widened(c, frame, mid, spread)),
        );
        classes.push(CellClass::Outside);
    }
}

/// Conservative frustum classification of one cell.
///
/// Works on the camera-space AABB of the cell's mean-AABB corners plus the
/// resident-radius inflation `r`, mirroring [`Camera::sphere_visible`]'s
/// exact half-space structure. Soundness relies only on **monotonicity** of
/// the shared frustum-slope expressions (multiplication by positive
/// constants, `max`, and subtraction of a common term are all monotone
/// under IEEE-754 rounding), never on exact arithmetic:
///
/// * `Outside` requires that for every resident `(c, rad)` with `c` in the
///   mean-AABB and `0 ≤ rad ≤ r`, one of the sphere test's reject
///   conditions provably holds.
/// * `Inside` requires that every such resident provably passes all four
///   accept conditions.
///
/// Any non-finite intermediate (overflowing corners, infinite radius)
/// falls through to `Boundary` — comparisons with NaN are false, and an
/// explicit finiteness check guards the corner fold.
///
/// The widened form (`mid`/`spread` non-zero) grows the camera-space box
/// by the batch members' offset range before the proofs run — see
/// [`SceneIndex::classify_widened_into`]. The solo path passes zeros;
/// adding `±0.0` cannot change any verdict because verdicts depend only
/// on numeric comparisons (where `-0.0 == 0.0`), never on output bits.
fn classify_cell_widened(
    cell: &Cell,
    frame: &FrameTransform,
    mid: Vec3,
    spread: Vec3,
) -> CellClass {
    if cell.live == 0 {
        // Nothing lives here; classification is never consulted. `Outside`
        // keeps the stats honest (zero Gaussians skipped).
        return CellClass::Outside;
    }
    // Camera-space bounds of the mean-AABB via the affine-AABB identity:
    // the image of a box under `x ↦ W x + t` has center `W c + t` and
    // half-extents `|W| h` — exact (the corner hull's AABB), at two
    // transforms per cell instead of eight. A batch shifts the center by
    // the member-offset midpoint and inflates the half-extents by the
    // offset half-range, so the box covers every member's image of the
    // cell (the `CLASSIFY_PAD` below absorbs the extra f32 roundings the
    // same way it absorbs the transform's own).
    let center = frame.to_camera_space((cell.lo + cell.hi) * 0.5) + mid;
    let half_in = (cell.hi - cell.lo) * 0.5;
    let rot = frame.rotation();
    let abs_col = |c: usize| {
        Vec3::new(
            rot.cols[c].x.abs(),
            rot.cols[c].y.abs(),
            rot.cols[c].z.abs(),
        )
    };
    let half = abs_col(0) * half_in.x + abs_col(1) * half_in.y + abs_col(2) * half_in.z + spread;
    let lo = center - half;
    let hi = center + half;
    if !lo.is_finite() || !hi.is_finite() {
        return CellClass::Boundary;
    }
    // Guard against f32 evaluation error: the affine transform is not
    // evaluated monotonically over the box in f32, so an interior mean's
    // *computed* camera-space coordinate can exceed the computed corner
    // hull by a few ulps. Pad the bounds by a relative epsilon orders of
    // magnitude above that scale (the cost in classification tightness is
    // invisible at cell granularity). A pad that overflows to infinity
    // simply forces `Boundary`, which is always sound.
    const CLASSIFY_PAD: f32 = 1e-5;
    let pad = Vec3::new(
        lo.x.abs().max(hi.x.abs()),
        lo.y.abs().max(hi.y.abs()),
        lo.z.abs().max(hi.z.abs()),
    ) * CLASSIFY_PAD;
    let lo = lo - pad;
    let hi = hi + pad;
    let r = cell.radius;
    // Depth runs along -z: the nearest corner has the largest z.
    let d_min = -hi.z;
    let d_max = -lo.z;

    // --- Fully-outside proofs (every resident rejected). ---
    // Near/far: depth(c)+rad ≤ d_max+r and depth(c)-rad ≥ d_min-r.
    if d_max + r < frame.near() || d_min - r > frame.far() {
        return CellClass::Outside;
    }
    // Side planes against the *largest* frustum cross-section the cell can
    // see (half-width/height are monotone in depth).
    let hh_hi = frame.half_height_at(d_max);
    let hw_hi = frame.half_width_of(hh_hi);
    // Right: all x ≥ lo.x, so |x|-rad ≥ lo.x-r; left symmetric with -hi.x.
    if lo.x - r > hw_hi || -hi.x - r > hw_hi {
        return CellClass::Outside;
    }
    if lo.y - r > hh_hi || -hi.y - r > hh_hi {
        return CellClass::Outside;
    }

    // --- Fully-inside proofs (every resident accepted; rad ≥ 0 only). ---
    // depth+rad ≥ depth ≥ d_min and depth-rad ≤ depth ≤ d_max;
    // |x| ≤ max(|lo.x|, |hi.x|) against the *smallest* cross-section.
    let hh_lo = frame.half_height_at(d_min);
    let hw_lo = frame.half_width_of(hh_lo);
    let max_ax = lo.x.abs().max(hi.x.abs());
    let max_ay = lo.y.abs().max(hi.y.abs());
    if d_min >= frame.near() && d_max <= frame.far() && max_ax <= hw_lo && max_ay <= hh_lo {
        return CellClass::Inside;
    }
    CellClass::Boundary
}

/// Content fingerprint of a Gaussian cloud: FNV-1a over the length and
/// the bits of **every** Gaussian (mean, scale, rotation, opacity and SH
/// coefficients — full coverage, so two clouds differing anywhere the
/// index caches from hash differently). `O(total data)`, paid once per
/// [`SceneIndex::build`] and once per index/state (re)pairing — never per
/// frame.
pub fn cloud_fingerprint(gaussians: &[Gaussian]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
    h = mix(h, gaussians.len() as u64);
    for g in gaussians {
        h = mix(
            h,
            (g.mean.x.to_bits() as u64) | ((g.mean.y.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.mean.z.to_bits() as u64) | ((g.opacity.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.scale.x.to_bits() as u64) | ((g.scale.y.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.scale.z.to_bits() as u64) | ((g.rotation[0].to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.rotation[1].to_bits() as u64) | ((g.rotation[2].to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.rotation[3].to_bits() as u64) | ((g.sh.degree() as u64) << 32),
        );
        for c in g.sh.coeffs() {
            h = mix(h, (c.x.to_bits() as u64) | ((c.y.to_bits() as u64) << 32));
            h = mix(h, c.z.to_bits() as u64);
        }
    }
    h
}

/// Counters of the incremental preprocessing path, accumulated per frame
/// (the per-frame delta is available via [`CullStats::delta_since`]).
///
/// The cell counters follow the classification-change lattice: a cell is
/// *skipped* when fully outside, *refreshed* when fully inside with its
/// classification unchanged from the previous frame under the camera-delta
/// bound (its residents replay cached covariance work), and *re-projected*
/// otherwise (boundary, or a rotation delta invalidated the cache).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CullStats {
    /// Frames preprocessed through the index.
    pub frames: u64,
    /// Cells classified fully-outside — skipped wholesale.
    pub cells_skipped: u64,
    /// Fully-inside cells stable under the camera-delta bound.
    pub cells_refreshed: u64,
    /// Cells whose residents ran the per-Gaussian cull test and/or a full
    /// covariance rebuild.
    pub cells_reprojected: u64,
    /// Live Gaussians skipped without any per-Gaussian camera work
    /// (residents of fully-outside cells).
    pub gaussians_skipped: u64,
    /// Gaussians projected through the cached `W Σ Wᵀ` product (epoch hit
    /// under the translation bound).
    pub gaussians_refreshed: u64,
    /// Gaussians that recomputed the covariance product (epoch miss: first
    /// frame, or a rotation delta).
    pub gaussians_reprojected: u64,
}

impl CullStats {
    /// The counters accumulated since `earlier` (field-wise difference) —
    /// e.g. one frame's contribution.
    pub fn delta_since(&self, earlier: &CullStats) -> CullStats {
        CullStats {
            frames: self.frames - earlier.frames,
            cells_skipped: self.cells_skipped - earlier.cells_skipped,
            cells_refreshed: self.cells_refreshed - earlier.cells_refreshed,
            cells_reprojected: self.cells_reprojected - earlier.cells_reprojected,
            gaussians_skipped: self.gaussians_skipped - earlier.gaussians_skipped,
            gaussians_refreshed: self.gaussians_refreshed - earlier.gaussians_refreshed,
            gaussians_reprojected: self.gaussians_reprojected - earlier.gaussians_reprojected,
        }
    }

    /// Total Gaussians that took any per-frame decision (skipped, refreshed
    /// or re-projected).
    pub fn gaussians_touched(&self) -> u64 {
        self.gaussians_skipped + self.gaussians_refreshed + self.gaussians_reprojected
    }
}

/// Per-Gaussian cached covariance product `W Σ Wᵀ` (the six entries the
/// EWA expansion reads) tagged with the rotation epoch it was computed
/// under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CovCacheEntry {
    /// Cached [`crate::projection::covariance_entries`] value.
    pub m: [f32; 6],
    /// Rotation epoch the entry is valid for (`0` = never computed).
    pub epoch: u32,
}

impl Default for CovCacheEntry {
    fn default() -> Self {
        Self {
            m: [0.0; 6],
            epoch: 0,
        }
    }
}

/// Per-session temporal state of the incremental preprocess: current and
/// previous cell classifications, the epoch-tagged covariance cache, and
/// the accumulated [`CullStats`].
///
/// One `CullState` pairs with one [`SceneIndex`] and one camera stream;
/// [`CullState::invalidate`] forgets the temporal state on a scene or
/// camera cut (results stay bit-exact either way — only reuse is lost).
#[derive(Debug, Default)]
pub struct CullState {
    classes: Vec<CellClass>,
    prev_classes: Vec<CellClass>,
    mcache: Vec<CovCacheEntry>,
    /// Current rotation epoch; bumped whenever the camera delta is not a
    /// pure translation. Entries tagged with an older epoch are stale.
    epoch: u32,
    prev_camera: Option<Camera>,
    /// Fingerprint of the [`SceneIndex`] this state's caches were filled
    /// under (`0` = not yet paired). A state handed a *different* index
    /// auto-invalidates instead of replaying the previous scene's
    /// covariance products.
    paired_index: u64,
    stats: CullStats,
}

impl CullState {
    /// Counters accumulated across all frames preprocessed with this state.
    pub fn stats(&self) -> CullStats {
        self.stats
    }

    /// Current per-cell classification (valid after the first frame).
    pub fn classes(&self) -> &[CellClass] {
        &self.classes
    }

    /// Forgets all temporal state (classification history, covariance
    /// cache validity, the delta-bound reference camera). Call on a scene
    /// or camera cut; the next frame re-projects everything.
    pub fn invalidate(&mut self) {
        self.prev_classes.clear();
        self.prev_camera = None;
        // Epoch bump invalidates every cache entry without touching them.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely long sessions wrap the epoch; clear tags so no
            // stale entry can alias the restarted counter.
            for e in &mut self.mcache {
                e.epoch = u32::MAX;
            }
            self.epoch = 1;
        }
    }

    /// Starts a frame: binds the state to `index` (auto-invalidating when
    /// handed a different index than the caches were filled under), sizes
    /// the caches, applies the camera-delta bound (epoch bump on any
    /// non-translation delta), reclassifies every cell and folds the
    /// cell-level counters into [`CullStats`].
    pub(crate) fn begin_frame(
        &mut self,
        index: &SceneIndex,
        frame: &FrameTransform,
        camera: &Camera,
    ) {
        if self.paired_index != index.fingerprint() {
            // Re-pairing: every cached covariance product belongs to the
            // previous index's Gaussians — forget all temporal state.
            self.invalidate();
            self.paired_index = index.fingerprint();
        }
        self.mcache.resize(index.len(), CovCacheEntry::default());
        let translation = self
            .prev_camera
            .as_ref()
            .is_some_and(|prev| camera.is_translation_of(prev));
        if !translation {
            self.epoch = self.epoch.wrapping_add(1).max(1);
        }
        self.prev_camera = Some(camera.clone());

        std::mem::swap(&mut self.classes, &mut self.prev_classes);
        index.classify_into(frame, &mut self.classes);

        self.stats.frames += 1;
        let history = self.prev_classes.len() == self.classes.len();
        // Skip the trailing sentinel entry — it holds no live residents.
        for (cell_id, class) in self.classes.iter().take(index.cell_count()).enumerate() {
            match class {
                CellClass::Outside => {
                    self.stats.cells_skipped += 1;
                    self.stats.gaussians_skipped += index.cell_live(cell_id) as u64;
                }
                CellClass::Inside
                    if translation
                        && history
                        && self.prev_classes[cell_id] == CellClass::Inside =>
                {
                    self.stats.cells_refreshed += 1;
                }
                _ => self.stats.cells_reprojected += 1,
            }
        }
    }

    /// Fingerprint of the index this state is currently paired with
    /// (`0` = not yet paired). The next [`CullState::begin_frame`] with a
    /// different index auto-invalidates.
    pub(crate) fn paired_with(&self) -> u64 {
        self.paired_index
    }

    /// Folds the per-worker projection counters of one frame into the
    /// accumulated stats.
    pub(crate) fn record_projection(&mut self, refreshed: u64, reprojected: u64) {
        self.stats.gaussians_refreshed += refreshed;
        self.stats.gaussians_reprojected += reprojected;
    }

    /// Disjoint borrows for the projection sweep: current classes, the
    /// mutable covariance cache, and the epoch entries must be tagged with.
    pub(crate) fn projection_parts(&mut self) -> (&[CellClass], &mut [CovCacheEntry], u32) {
        (&self.classes, &mut self.mcache, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::project_gaussian;
    use crate::scene::EVALUATED_SCENES;

    fn scene() -> crate::scene::Scene {
        EVALUATED_SCENES[2].generate_scaled(0.04) // outdoor Train
    }

    #[test]
    fn build_covers_every_gaussian() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        assert_eq!(index.len(), s.gaussians.len());
        assert!(index.cell_count() > 1);
        // Live Gaussians map into the grid; dead ones hit the sentinel.
        for (i, &c) in index.cell_of().iter().enumerate() {
            if index.dead()[i] {
                assert_eq!(c as usize, index.cell_count(), "gaussian {i}");
            } else {
                assert!((c as usize) < index.cell_count(), "gaussian {i}");
            }
        }
        let live: u64 = (0..index.cell_count())
            .map(|c| index.cell_live(c) as u64)
            .sum();
        let dead = index.dead().iter().filter(|&&d| d).count() as u64;
        assert_eq!(live + dead, s.gaussians.len() as u64);
    }

    #[test]
    fn dead_mask_matches_camera_invariant_cull() {
        let mut gaussians = scene().gaussians;
        gaussians[3].opacity = f32::NAN;
        gaussians[7].mean = crate::math::Vec3::new(f32::INFINITY, 0.0, 0.0);
        gaussians[11].opacity = 0.0001; // below the prune threshold
        let index = SceneIndex::build(&gaussians);
        for (i, g) in gaussians.iter().enumerate() {
            assert_eq!(index.dead()[i], culled_before_projection(g), "gaussian {i}");
        }
        assert!(index.dead()[3] && index.dead()[7] && index.dead()[11]);
    }

    #[test]
    fn classification_is_conservative_for_every_resident() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        // A close-in camera so the frustum cuts through the cloud.
        let cam = Camera::look_at(
            s.center + crate::math::Vec3::new(0.0, 1.0, s.view_radius * 0.5),
            s.center,
            160,
            120,
            1.0,
        );
        let frame = FrameTransform::new(&cam);
        let mut classes = Vec::new();
        index.classify_into(&frame, &mut classes);
        let mut outside = 0;
        let mut inside = 0;
        for (i, g) in s.gaussians.iter().enumerate() {
            if index.dead()[i] {
                continue;
            }
            match classes[index.cell_of()[i] as usize] {
                CellClass::Outside => {
                    outside += 1;
                    assert!(
                        !cam.sphere_visible(g.mean, g.bounding_radius()),
                        "gaussian {i} visible inside an Outside cell"
                    );
                    assert!(project_gaussian(g, &cam, i as u32).is_none());
                }
                CellClass::Inside => {
                    inside += 1;
                    assert!(
                        cam.sphere_visible(g.mean, g.bounding_radius()),
                        "gaussian {i} culled inside an Inside cell"
                    );
                }
                CellClass::Boundary => {}
            }
        }
        // The close-in camera must actually exercise both terminal classes.
        assert!(outside > 0, "no outside gaussians — test camera too wide");
        assert!(inside > 0, "no inside gaussians — test camera too narrow");
    }

    #[test]
    fn nan_poisoned_cells_never_classify_terminally_wrong() {
        // A Gaussian with a finite-but-huge mean overflows the camera
        // transform; its cell must fall back to Boundary, never Outside.
        let mut gaussians = scene().gaussians;
        gaussians[0].mean = crate::math::Vec3::splat(1e38);
        let index = SceneIndex::build(&gaussians);
        let cam = scene().default_camera();
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        let class = classes[index.cell_of()[0] as usize];
        assert_ne!(class, CellClass::Inside);
        // Full-path agreement regardless of classification.
        if class == CellClass::Outside {
            assert!(project_gaussian(&gaussians[0], &cam, 0).is_none());
        }
    }

    #[test]
    fn epoch_bumps_on_rotation_and_holds_on_translation() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let mut state = CullState::default();
        let path = crate::camera::CameraPath::flythrough(
            s.center + crate::math::Vec3::new(0.0, 1.0, s.view_radius),
            s.center,
            0.05,
            0.01,
        );
        let cams = path.cameras(4, 96, 72, 1.0);
        let mut epochs = Vec::new();
        for cam in &cams {
            state.begin_frame(&index, &FrameTransform::new(cam), cam);
            epochs.push(state.projection_parts().2);
        }
        // Flythrough translates without spinning: one epoch for all frames.
        assert!(epochs.windows(2).all(|w| w[0] == w[1]), "{epochs:?}");
        // An orbit step rotates the view: the epoch must advance.
        let orbit = crate::camera::CameraPath::orbit(s.center, s.view_radius, 1.0, 0.25);
        let cam = orbit.camera(1, 8, 96, 72, 1.0);
        state.begin_frame(&index, &FrameTransform::new(&cam), &cam);
        assert!(state.projection_parts().2 > epochs[0]);
        // Invalidation also advances it.
        let e = state.projection_parts().2;
        state.invalidate();
        state.begin_frame(&index, &FrameTransform::new(&cam), &cam);
        assert!(state.projection_parts().2 > e);
    }

    #[test]
    fn fingerprint_tracks_cloud_identity() {
        let s = scene();
        let a = cloud_fingerprint(&s.gaussians);
        assert_eq!(a, cloud_fingerprint(&s.gaussians));
        let mut altered = s.gaussians.clone();
        altered[0].mean.x += 1.0;
        assert_ne!(a, cloud_fingerprint(&altered));
        assert_ne!(a, cloud_fingerprint(&s.gaussians[1..]));
        assert_eq!(SceneIndex::build(&s.gaussians).fingerprint(), a);
    }

    #[test]
    fn empty_and_all_dead_clouds_build() {
        let index = SceneIndex::build(&[]);
        assert!(index.is_empty());
        assert_eq!(index.cell_count(), 1);
        let dead_cloud = vec![
            Gaussian::isotropic(Vec3::ZERO, 0.1, 0.0, Vec3::splat(0.5)),
            Gaussian::isotropic(Vec3::new(1.0, 0.0, 0.0), 0.1, 0.001, Vec3::splat(0.5)),
        ];
        let index = SceneIndex::build(&dead_cloud);
        assert_eq!(index.len(), 2);
        assert!(index.dead().iter().all(|&d| d));
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 64, 64, 1.0);
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        assert!(classes.iter().all(|&c| c == CellClass::Outside));
    }

    #[test]
    fn cull_stats_delta_and_touched() {
        let a = CullStats {
            frames: 2,
            cells_skipped: 10,
            cells_refreshed: 4,
            cells_reprojected: 6,
            gaussians_skipped: 100,
            gaussians_refreshed: 50,
            gaussians_reprojected: 25,
        };
        let b = CullStats {
            frames: 3,
            cells_skipped: 15,
            cells_refreshed: 6,
            cells_reprojected: 9,
            gaussians_skipped: 160,
            gaussians_refreshed: 80,
            gaussians_reprojected: 30,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.frames, 1);
        assert_eq!(d.gaussians_skipped, 60);
        assert_eq!(d.gaussians_touched(), 60 + 30 + 5);
    }
}
