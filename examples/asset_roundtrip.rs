//! Asset pipeline walkthrough: build the Train scene, save it as a
//! checksummed `.gspa` file, damage copies with seeded corruptions and
//! watch every one surface as a typed error (or a documented
//! quarantine), then hot-reload the scene into a running server — a
//! corrupt reload is refused mid-flight with zero effect on the serving
//! streams, a clean one swaps under an epoch bump.
//!
//! ```text
//! cargo run --release --example asset_roundtrip [scale] [seed]
//! ```

use gpu_sim::config::GpuConfig;
use gsplat::asset::faults::{seeded_corruptions, Corruption};
use gsplat::asset::{decode_scene, encode_scene, load_scene, save_scene, LoadPolicy};
use gsplat::camera::CameraPath;
use gsplat::math::Vec3;
use gsplat::scene::EVALUATED_SCENES;
use vrpipe::{
    PipelineVariant, SceneSource, SequenceConfig, Server, SharedScene, StreamPhase, StreamSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0xA55E7);

    // --- Save -----------------------------------------------------------
    let spec = &EVALUATED_SCENES[2]; // Train
    let scene = spec.generate_scaled(scale);
    let path = std::env::temp_dir().join(format!("asset_roundtrip_{}.gspa", std::process::id()));
    save_scene(&path, &scene)?;
    let bytes = std::fs::read(&path)?;
    println!(
        "'{}': {} Gaussians → {} ({} bytes, CRC32-sectioned)",
        spec.name,
        scene.len(),
        path.display(),
        bytes.len()
    );

    // --- Reload, clean --------------------------------------------------
    let back = load_scene(&path, LoadPolicy::Strict)?;
    assert_eq!(back.scene.gaussians, scene.gaussians);
    println!(
        "  strict reload: {} kept / {} stored, clean={}, fingerprint {:#018x}\n",
        back.report.kept,
        back.report.total,
        back.report.is_clean(),
        back.report.file_fingerprint
    );

    // --- Seeded corruption sweep ----------------------------------------
    println!("Seeded corruption sweep (seed {seed:#x}):");
    for c in seeded_corruptions(seed, bytes.len(), 8) {
        let damaged = c.apply(&bytes);
        match decode_scene(&damaged, LoadPolicy::Strict) {
            Err(e) => println!("  {c:?} → {e}"),
            Ok(_) => println!("  {c:?} → (no-op corruption)"),
        }
    }

    // --- Quarantine degradation -----------------------------------------
    let mut poisoned = scene.clone();
    let n = poisoned.gaussians.len();
    poisoned.gaussians[1].mean = Vec3::new(f32::NAN, 0.0, 0.0);
    poisoned.gaussians[n / 2].opacity = 7.5;
    let loaded = decode_scene(&encode_scene(&poisoned), LoadPolicy::Quarantine)?;
    println!("\nQuarantine load of a poisoned copy:");
    for q in &loaded.report.quarantined {
        println!("  dropped #{}: {}", q.index, q.defect);
    }
    println!(
        "  {} of {} residents survive\n",
        loaded.report.kept, loaded.report.total
    );

    // --- Hot reload under serving ---------------------------------------
    // Each viewer renders through the simulated VR-Pipe pipeline in a
    // closure backend, returning (frame cycles, splat count).
    let frames = 6;
    let viewer_backend = || {
        let gpu = GpuConfig::default();
        move |f: vrpipe::FrameInput<'_>| {
            let out = vrpipe::try_draw(f.splats, 96, 72, &gpu, PipelineVariant::HetQm)
                .expect("valid config");
            (out.stats.total_cycles, f.splats.len())
        }
    };
    let mut server: Server<(u64, usize)> = Server::new(SharedScene::new(scene.clone()), 2);
    for k in 0..2u32 {
        let path = CameraPath::orbit(
            scene.center,
            scene.view_radius * (0.9 + 0.1 * k as f32),
            1.0 + 0.2 * k as f32,
            0.04,
        );
        server.add_stream(StreamSpec::new(
            format!("viewer-{k}"),
            SequenceConfig::new(path, frames, 96, 72).with_index(),
            viewer_backend(),
        ));
    }

    // Mid-flight: a driver stream fires a corrupt reload (refused, rolled
    // back) and then a clean reload of the same scene (no-op swap).
    let handle = server.handle();
    let corrupt = Corruption::ClobberSectionCrc { section: 2 }.apply(&bytes);
    let clean = bytes.clone();
    let mut fired = 0usize;
    server.add_stream(StreamSpec::new(
        "reload-driver",
        SequenceConfig::new(
            CameraPath::orbit(scene.center, scene.view_radius, 1.0, 0.05),
            2,
            32,
            24,
        ),
        move |f| {
            match fired {
                0 => handle.reload_scene(SceneSource::Bytes(corrupt.clone(), LoadPolicy::Strict)),
                _ => handle.reload_scene(SceneSource::Bytes(clean.clone(), LoadPolicy::Strict)),
            }
            fired += 1;
            (0, f.splats.len())
        },
    ));

    let report = server.run();
    println!(
        "Serving {} streams across two mid-flight reloads:",
        report.streams.len()
    );
    for r in &report.reloads {
        match r {
            Ok(o) => println!(
                "  reload ok: epoch {}, changed={}, quarantined={}",
                o.epoch, o.changed, o.quarantined
            ),
            Err(e) => println!("  reload refused: {e}"),
        }
    }
    for s in &report.streams {
        println!("  {:>14}: {:?}, {} frames", s.name, s.phase, s.frames.len());
        assert_eq!(s.phase, StreamPhase::Completed);
    }

    // Idle swap to the quarantined survivors, served next run.
    let outcome = server.reload_scene(SceneSource::Bytes(
        encode_scene(&poisoned),
        LoadPolicy::Quarantine,
    ))?;
    println!(
        "\nIdle swap to the poisoned copy under Quarantine: epoch {}, changed={}, {} quarantined",
        outcome.epoch, outcome.changed, outcome.quarantined
    );
    let report = server.run();
    println!(
        "  re-served {} frames over the surviving cloud (epoch {})",
        report.total_frames, report.scene_epoch
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
