//! Pinned simulator counters: the exact integer `PipelineStats` fields and
//! an FNV-1a digest of the color and depth/stencil bits for Train and Lego
//! at `generate_scaled(0.04)`, default camera, every `PipelineVariant` ×
//! `FragmentKernel`.
//!
//! The expected values were recorded from the `HashMap`/`VecDeque` bin
//! tables and the `Vec<Vec<Line>>` caches that the slot-indexed bin tables
//! and flat caches replaced. The other reuse and thread-count tests compare
//! the simulator with itself; this one compares it with the implementation
//! it replaced, so any change to the modeled cycles, flushes, cache traffic
//! or image bits fails here.
//!
//! The default `GpuConfig` never evicts a bin at this scale, so every draw
//! also runs under a pressured geometry (4 TC bins, 2 one-tile TGC grids
//! of 8 primitives, 2 KiB crop and 1 KiB z caches) that exercises the
//! eviction and writeback paths.

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::PipelineStats;
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::preprocess::preprocess;
use gsplat::scene::scene_by_name;
use gsplat::stream::FragmentKernel;
use vrpipe::{try_draw, PipelineVariant};

const SCALE: f32 = 0.04;

#[derive(Debug, Clone, Copy)]
enum Geometry {
    Default,
    Pressured,
}

impl Geometry {
    fn config(self, kernel: FragmentKernel) -> GpuConfig {
        let cfg = GpuConfig {
            kernel,
            ..GpuConfig::default()
        };
        match self {
            Geometry::Default => cfg,
            Geometry::Pressured => GpuConfig {
                tc_bins: 4,
                tgc_bins: 2,
                tgc_bin_size: 8,
                tile_grid_tiles: 1,
                crop_cache_bytes: 2048,
                z_cache_bytes: 1024,
                ..cfg
            },
        }
    }
}

/// The pinned integer counters of one draw.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    total_cycles: u64,
    busy_cycles: [u64; 10],
    tc_flushes: u64,
    tc_evictions: u64,
    tgc_flushes: u64,
    tgc_evictions: u64,
    /// Crop cache `(hits, misses, writebacks)`.
    crop_cache: (u64, u64, u64),
    /// Z cache `(hits, misses, writebacks)`.
    z_cache: (u64, u64, u64),
    crop_fragments: u64,
    merged_pairs: u64,
    retired_tile_skips: u64,
    /// FNV-1a over the color bits, then the depth and stencil bits.
    image_digest: u64,
}

fn pin(stats: &PipelineStats, color: &ColorBuffer, ds: &DepthStencilBuffer) -> Pinned {
    Pinned {
        total_cycles: stats.total_cycles,
        busy_cycles: stats.busy_cycles,
        tc_flushes: stats.tc_flushes,
        tc_evictions: stats.tc_evictions,
        tgc_flushes: stats.tgc_flushes,
        tgc_evictions: stats.tgc_evictions,
        crop_cache: (
            stats.crop_cache.hits,
            stats.crop_cache.misses,
            stats.crop_cache.writebacks,
        ),
        z_cache: (
            stats.z_cache.hits,
            stats.z_cache.misses,
            stats.z_cache.writebacks,
        ),
        crop_fragments: stats.crop_fragments,
        merged_pairs: stats.merged_pairs,
        retired_tile_skips: stats.retired_tile_skips,
        image_digest: image_digest(color, ds),
    }
}

fn image_digest(color: &ColorBuffer, ds: &DepthStencilBuffer) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    for p in color.pixels() {
        for c in [p.r, p.g, p.b, p.a] {
            mix(c.to_bits());
        }
    }
    for y in 0..ds.height() {
        for x in 0..ds.width() {
            mix(ds.depth(x, y).to_bits());
            mix(ds.stencil(x, y) as u32);
        }
    }
    h
}

#[test]
fn draw_counters_match_the_recorded_simulator() {
    let mut scene_name = "";
    let mut prepared = None;
    for (name, geometry, variant, kernel, expected) in EXPECTED {
        if name != scene_name {
            let scene = scene_by_name(name)
                .expect("evaluated scene")
                .generate_scaled(SCALE);
            let cam = scene.default_camera();
            prepared = Some((preprocess(&scene, &cam).splats, cam.width(), cam.height()));
            scene_name = name;
        }
        let (splats, width, height) = prepared.as_ref().expect("scene prepared");
        let cfg = geometry.config(kernel);
        let out = try_draw(splats, *width, *height, &cfg, variant).expect("valid config");
        assert_eq!(
            pin(&out.stats, &out.color, &out.depth_stencil),
            expected,
            "{name} {geometry:?} {variant} {kernel:?}"
        );
    }
}

const EXPECTED: [(&str, Geometry, PipelineVariant, FragmentKernel, Pinned); 32] = [
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Baseline,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 45912,
            busy_cycles: [1303, 0, 10205, 10502, 0, 45741, 19036, 35239, 20, 31],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (70397, 80, 80),
            z_cache: (0, 0, 0),
            crop_fragments: 251383,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x12f2758e23ef6d7c,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Baseline,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 45892,
            busy_cycles: [1303, 0, 10205, 10502, 0, 45741, 19940, 35239, 3712, 31],
            tc_flushes: 1660,
            tc_evictions: 1538,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (55630, 14847, 14847),
            z_cache: (0, 0, 0),
            crop_fragments: 251383,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x12f2758e23ef6d7c,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Baseline,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 45912,
            busy_cycles: [1303, 0, 10205, 10502, 0, 45741, 19036, 35239, 20, 31],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (70397, 80, 80),
            z_cache: (0, 0, 0),
            crop_fragments: 251383,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x12f2758e23ef6d7c,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Baseline,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 45892,
            busy_cycles: [1303, 0, 10205, 10502, 0, 45741, 19940, 35239, 3712, 31],
            tc_flushes: 1660,
            tc_evictions: 1538,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (55630, 14847, 14847),
            z_cache: (0, 0, 0),
            crop_fragments: 251383,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x12f2758e23ef6d7c,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Qm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 33414,
            busy_cycles: [1303, 1289, 10205, 10502, 0, 33214, 24544, 22712, 20, 31],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 81,
            tgc_evictions: 0,
            crop_cache: (45344, 80, 80),
            z_cache: (0, 0, 0),
            crop_fragments: 168277,
            merged_pairs: 34416,
            retired_tile_skips: 0,
            image_digest: 0xda452f847348ad00,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Qm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 40289,
            busy_cycles: [1303, 4682, 13598, 10502, 0, 40128, 22777, 29626, 3704, 31],
            tc_flushes: 1672,
            tc_evictions: 1542,
            tgc_flushes: 4109,
            tgc_evictions: 4107,
            crop_cache: (44435, 14816, 14816),
            z_cache: (0, 0, 0),
            crop_fragments: 217847,
            merged_pairs: 16879,
            retired_tile_skips: 0,
            image_digest: 0xb22011484a1fc4e8,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Qm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 33414,
            busy_cycles: [1303, 1289, 10205, 10502, 0, 33214, 24544, 22712, 20, 31],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 81,
            tgc_evictions: 0,
            crop_cache: (45344, 80, 80),
            z_cache: (0, 0, 0),
            crop_fragments: 168277,
            merged_pairs: 34416,
            retired_tile_skips: 0,
            image_digest: 0xda452f847348ad00,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Qm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 40289,
            busy_cycles: [1303, 4682, 13598, 10502, 0, 40128, 22777, 29626, 3704, 31],
            tc_flushes: 1672,
            tc_evictions: 1542,
            tgc_flushes: 4109,
            tgc_evictions: 4107,
            crop_cache: (44435, 14816, 14816),
            z_cache: (0, 0, 0),
            crop_fragments: 217847,
            merged_pairs: 16879,
            retired_tile_skips: 0,
            image_digest: 0xb22011484a1fc4e8,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Het,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 11202,
            busy_cycles: [1303, 0, 10205, 10502, 5875, 10496, 4511, 8301, 23, 36],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (16522, 80, 80),
            z_cache: (85250, 12, 12),
            crop_fragments: 64135,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x94cbf7bab2d439c9,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Het,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 11062,
            busy_cycles: [1303, 0, 10205, 10502, 5875, 10385, 4537, 8214, 1588, 36],
            tc_flushes: 1660,
            tc_evictions: 1538,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (12457, 3971, 3971),
            z_cache: (82884, 2378, 76),
            crop_fragments: 63494,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x8744030bdf273818,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::Het,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 11202,
            busy_cycles: [1303, 0, 10205, 10502, 1904, 10496, 4511, 8301, 23, 36],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (16522, 80, 80),
            z_cache: (21204, 12, 12),
            crop_fragments: 64135,
            merged_pairs: 0,
            retired_tile_skips: 503,
            image_digest: 0x94cbf7bab2d439c9,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::Het,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 11057,
            busy_cycles: [1303, 0, 10205, 10502, 1946, 10385, 4537, 8214, 1144, 36],
            tc_flushes: 1660,
            tc_evictions: 1538,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (12457, 3971, 3971),
            z_cache: (20506, 602, 29),
            crop_fragments: 63494,
            merged_pairs: 0,
            retired_tile_skips: 1285,
            image_digest: 0x8744030bdf273818,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::HetQm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 10620,
            busy_cycles: [1303, 1289, 10205, 10502, 5875, 6775, 5814, 4581, 23, 36],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 81,
            tgc_evictions: 0,
            crop_cache: (9081, 80, 80),
            z_cache: (85250, 12, 12),
            crop_fragments: 35696,
            merged_pairs: 8242,
            retired_tile_skips: 0,
            image_digest: 0x8434df35dddcac0f,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::HetQm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 13660,
            busy_cycles: [1303, 4682, 13598, 10502, 5875, 10076, 4675, 7905, 1578, 36],
            tc_flushes: 1672,
            tc_evictions: 1542,
            tgc_flushes: 4109,
            tgc_evictions: 4107,
            crop_cache: (11837, 3973, 3973),
            z_cache: (82926, 2336, 74),
            crop_fragments: 61244,
            merged_pairs: 837,
            retired_tile_skips: 0,
            image_digest: 0x0bfe5d897c11e9f4,
        },
    ),
    (
        "Train",
        Geometry::Default,
        PipelineVariant::HetQm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 10593,
            busy_cycles: [1303, 1289, 10205, 10502, 1904, 6775, 5814, 4581, 23, 36],
            tc_flushes: 659,
            tc_evictions: 0,
            tgc_flushes: 81,
            tgc_evictions: 0,
            crop_cache: (9081, 80, 80),
            z_cache: (21204, 12, 12),
            crop_fragments: 35696,
            merged_pairs: 8242,
            retired_tile_skips: 503,
            image_digest: 0x8434df35dddcac0f,
        },
    ),
    (
        "Train",
        Geometry::Pressured,
        PipelineVariant::HetQm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 13648,
            busy_cycles: [1303, 4682, 13598, 10502, 1947, 10076, 4675, 7905, 1144, 36],
            tc_flushes: 1672,
            tc_evictions: 1542,
            tgc_flushes: 4109,
            tgc_evictions: 4107,
            crop_cache: (11837, 3973, 3973),
            z_cache: (20505, 603, 28),
            crop_fragments: 61244,
            merged_pairs: 837,
            retired_tile_skips: 1295,
            image_digest: 0x0bfe5d897c11e9f4,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Baseline,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 13416,
            busy_cycles: [572, 0, 3433, 3152, 0, 13236, 5804, 10084, 16, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (20105, 62, 62),
            z_cache: (0, 0, 0),
            crop_fragments: 66515,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x8d8b5c8b9210b3cf,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Baseline,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 13420,
            busy_cycles: [572, 0, 3433, 3152, 0, 13236, 5804, 10084, 469, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (18292, 1875, 1875),
            z_cache: (0, 0, 0),
            crop_fragments: 66515,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x8d8b5c8b9210b3cf,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Baseline,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 13416,
            busy_cycles: [572, 0, 3433, 3152, 0, 13236, 5804, 10084, 16, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (20105, 62, 62),
            z_cache: (0, 0, 0),
            crop_fragments: 66515,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x8d8b5c8b9210b3cf,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Baseline,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 13420,
            busy_cycles: [572, 0, 3433, 3152, 0, 13236, 5804, 10084, 469, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (18292, 1875, 1875),
            z_cache: (0, 0, 0),
            crop_fragments: 66515,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0x8d8b5c8b9210b3cf,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Qm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 9858,
            busy_cycles: [572, 572, 3433, 3152, 0, 9657, 7459, 6505, 16, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 36,
            tgc_evictions: 0,
            crop_cache: (12947, 62, 62),
            z_cache: (0, 0, 0),
            crop_fragments: 46220,
            merged_pairs: 10294,
            retired_tile_skips: 0,
            image_digest: 0x4395cc7f681c8b18,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Qm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 9889,
            busy_cycles: [572, 2114, 4975, 3152, 0, 9657, 7459, 6505, 471, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 1970,
            tgc_evictions: 1968,
            crop_cache: (11127, 1882, 1882),
            z_cache: (0, 0, 0),
            crop_fragments: 46220,
            merged_pairs: 10294,
            retired_tile_skips: 0,
            image_digest: 0x4395cc7f681c8b18,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Qm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 9858,
            busy_cycles: [572, 572, 3433, 3152, 0, 9657, 7459, 6505, 16, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 36,
            tgc_evictions: 0,
            crop_cache: (12947, 62, 62),
            z_cache: (0, 0, 0),
            crop_fragments: 46220,
            merged_pairs: 10294,
            retired_tile_skips: 0,
            image_digest: 0x4395cc7f681c8b18,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Qm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 9889,
            busy_cycles: [572, 2114, 4975, 3152, 0, 9657, 7459, 6505, 471, 24],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 1970,
            tgc_evictions: 1968,
            crop_cache: (11127, 1882, 1882),
            z_cache: (0, 0, 0),
            crop_fragments: 46220,
            merged_pairs: 10294,
            retired_tile_skips: 0,
            image_digest: 0x4395cc7f681c8b18,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Het,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 11000,
            busy_cycles: [572, 0, 3433, 3152, 1643, 10832, 4948, 8211, 18, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (16359, 62, 62),
            z_cache: (25339, 8, 4),
            crop_fragments: 53950,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0xcdee15f3e6d413e7,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Het,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 11005,
            busy_cycles: [572, 0, 3433, 3152, 1643, 10832, 4948, 8211, 452, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (14621, 1800, 1800),
            z_cache: (25339, 8, 4),
            crop_fragments: 53950,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0xcdee15f3e6d413e7,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::Het,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 11000,
            busy_cycles: [572, 0, 3433, 3152, 1643, 10832, 4948, 8211, 18, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (16359, 62, 62),
            z_cache: (25339, 8, 4),
            crop_fragments: 53950,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0xcdee15f3e6d413e7,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::Het,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 11005,
            busy_cycles: [572, 0, 3433, 3152, 1643, 10832, 4948, 8211, 452, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 0,
            tgc_evictions: 0,
            crop_cache: (14621, 1800, 1800),
            z_cache: (25339, 8, 4),
            crop_fragments: 53950,
            merged_pairs: 0,
            retired_tile_skips: 0,
            image_digest: 0xcdee15f3e6d413e7,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::HetQm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 8231,
            busy_cycles: [572, 572, 3433, 3152, 1643, 8042, 6290, 5421, 18, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 36,
            tgc_evictions: 0,
            crop_cache: (10779, 62, 62),
            z_cache: (25339, 8, 4),
            crop_fragments: 38178,
            merged_pairs: 8277,
            retired_tile_skips: 0,
            image_digest: 0xa64b215e1fb825e5,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::HetQm,
        FragmentKernel::Scalar,
        Pinned {
            total_cycles: 8266,
            busy_cycles: [572, 2114, 4975, 3152, 1643, 8042, 6290, 5421, 454, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 1970,
            tgc_evictions: 1968,
            crop_cache: (9034, 1807, 1807),
            z_cache: (25339, 8, 4),
            crop_fragments: 38178,
            merged_pairs: 8277,
            retired_tile_skips: 0,
            image_digest: 0xa64b215e1fb825e5,
        },
    ),
    (
        "Lego",
        Geometry::Default,
        PipelineVariant::HetQm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 8231,
            busy_cycles: [572, 572, 3433, 3152, 1643, 8042, 6290, 5421, 18, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 36,
            tgc_evictions: 0,
            crop_cache: (10779, 62, 62),
            z_cache: (25339, 8, 4),
            crop_fragments: 38178,
            merged_pairs: 8277,
            retired_tile_skips: 0,
            image_digest: 0xa64b215e1fb825e5,
        },
    ),
    (
        "Lego",
        Geometry::Pressured,
        PipelineVariant::HetQm,
        FragmentKernel::Soa,
        Pinned {
            total_cycles: 8266,
            busy_cycles: [572, 2114, 4975, 3152, 1643, 8042, 6290, 5421, 454, 27],
            tc_flushes: 199,
            tc_evictions: 0,
            tgc_flushes: 1970,
            tgc_evictions: 1968,
            crop_cache: (9034, 1807, 1807),
            z_cache: (25339, 8, 4),
            crop_fragments: 38178,
            merged_pairs: 8277,
            retired_tile_skips: 0,
            image_digest: 0xa64b215e1fb825e5,
        },
    ),
];
