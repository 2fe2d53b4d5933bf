//! The repository benchmark: one command runs one named workload with a
//! seed, checks that its outputs are correct and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path vrbench/Cargo.toml -- \
//!     --workload solo-draw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (each one process, sized for two host threads):
//!
//! * `solo-draw`: one session draws every frame through the serial
//!   simulated pipeline (`vrpipe::pipeline` + `gpu_sim`).
//! * `fleet-preprocess`: eight batched translation-bound streams whose
//!   backend only hashes the splat list (`gsplat` preprocess, batching,
//!   `vrpipe::serve`).
//! * `fleet-swrender`: four unbatched orbit streams rendered by the SoA
//!   `cuda_like` kernel (`swrender`).
//!
//! `solo-draw` reports its host times at a reference host speed: a fixed
//! calibration loop runs after every timed frame, and each host time is
//! scaled by the square root of how much faster than nominal the loop ran
//! (`calib.rs`). It also prints its host metrics as measured, and its
//! `peak_rss_mib` leaves out the loop's resident buffers.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` first runs the same workload untraced in a child process,
//! then runs it with a span around every call into a library layer,
//! reports the per-layer metrics plus `trace.overhead`, and writes the
//! spans to `vrbench/out/`. A traced run reports no end-to-end metric:
//! spans slow the frames they wrap, so its timings are never comparable
//! with an untraced run's or with the end-to-end bounds.

mod calib;
mod fleet;
mod measure;
mod solo;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use gsplat::index::CullStats;
use measure::{peak_rss_mib, ratio, Metrics};

/// A timed phase never runs longer than this, seconds.
pub const HARD_CAP_S: f64 = 120.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames attempted in the timed phase.
    pub attempted: u64,
    /// Frames not delivered, plus frames that failed the correctness gate.
    pub failed: u64,
    /// Frames delivered in the timed phase.
    pub frames: usize,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Memory the benchmark itself keeps resident for the whole run (the
    /// calibration buffers), MiB; `peak_rss_mib` leaves it out.
    pub bench_mib: f64,
}

const USAGE: &str = "usage: vrbench --workload <solo-draw|fleet-preprocess|fleet-swrender> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= HARD_CAP_S) {
        return Err(format!("--seconds must be in (0, {HARD_CAP_S}]"));
    }
    Ok(args)
}

fn run_workload(args: &Args, trace: &trace::Trace) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "solo-draw" => Ok(solo::run(args, trace)),
        "fleet-preprocess" => fleet::run(fleet::Kind::Preprocess, args, trace),
        "fleet-swrender" => fleet::run(fleet::Kind::SwRender, args, trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

/// Runs the workload untraced in a child process and returns its `fps`.
fn untraced_fps(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let value = last
        .split_once("\"fps\": {\"value\": ")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|v| v.parse::<f64>().ok());
    value.ok_or_else(|| format!("untraced run printed no fps: {last}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let untraced = if args.trace {
        match untraced_fps(&args) {
            Ok(fps) => Some(fps),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let tracer = args.trace.then(|| trace::Tracer::new(1 << 16));
    let mut outcome = match run_workload(&args, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    let metrics = if let (Some(t), Some(untraced)) = (&tracer, untraced) {
        let traced = outcome.end_to_end.get("fps").unwrap_or(0.0);
        outcome
            .per_layer
            .push("trace.overhead", 1.0 - ratio(traced, untraced), "ratio");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match t.write_chrome(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        outcome.per_layer
    } else {
        outcome
            .end_to_end
            .push("peak_rss_mib", peak_rss_mib() - outcome.bench_mib, "MiB");
        outcome.end_to_end
    };

    // A metric that is not a finite number is a broken computation, not a
    // reading: the run fails and prints no result.
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a finite number: {}", m.name, m.value);
        return ExitCode::from(1);
    }
    let failed_share = ratio(outcome.failed as f64, outcome.attempted as f64);
    println!(
        "workload {} seed {} ({} frames delivered)",
        args.workload, args.seed, outcome.frames
    );
    for m in &metrics.0 {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16.6} ratio",
        "failed_frame_share", failed_share
    );
    let correct = outcome.failed == 0;
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The preprocess-layer metrics (`gsplat::preprocess`, `index`, `sort`).
pub fn push_preprocess_layers(
    layers: &mut Metrics,
    ms_per_frame: f64,
    share: f64,
    visible_per_frame: f64,
    repair_ratio: f64,
    input_gaussians: u64,
    cull: &CullStats,
) {
    layers.push("preprocess.ms_per_frame", ms_per_frame, "ms");
    layers.push("preprocess.share", share, "ratio");
    layers.push("preprocess.visible_splats", visible_per_frame, "count");
    layers.push("sort.repair_ratio", repair_ratio, "ratio");
    layers.push(
        "index.skip_share",
        ratio(cull.gaussians_skipped as f64, input_gaussians as f64),
        "ratio",
    );
    layers.push(
        "index.cov_replay_ratio",
        ratio(
            cull.gaussians_refreshed as f64,
            (cull.gaussians_refreshed + cull.gaussians_reprojected) as f64,
        ),
        "ratio",
    );
}

/// The simulated-pipeline metrics of a workload that draws nothing.
pub fn push_no_draw(layers: &mut Metrics) {
    for (name, unit) in [
        ("draw.ms_per_frame", "ms"),
        ("draw.share", "ratio"),
        ("draw.host_ns_per_quad", "ns"),
        ("draw.raster_quads", "count"),
        ("draw.tc_flushes", "count"),
        ("draw.tc_evictions", "count"),
        ("draw.warps_launched", "count"),
        ("draw.shaded_fragments", "count"),
        ("draw.crop_fragments", "count"),
        ("draw.merged_pairs", "count"),
        ("draw.retired_tile_skips", "count"),
        ("draw.het_discard_ratio", "ratio"),
        ("draw.warp_occupancy", "ratio"),
        ("draw.crop_cache_hit_rate", "ratio"),
        ("draw.z_cache_hit_rate", "ratio"),
    ] {
        layers.push(name, 0.0, unit);
    }
}

/// The software-renderer metrics of a workload that renders nothing in
/// software.
pub fn push_no_sw(layers: &mut Metrics) {
    for (name, unit) in [
        ("sw.ms_per_frame", "ms"),
        ("sw.share", "ratio"),
        ("sw.warp_iterations", "count"),
        ("sw.duplicated_keys", "count"),
        ("sw.bound_skip_ratio", "ratio"),
        ("sw.blending_thread_pct", "%"),
    ] {
        layers.push(name, 0.0, unit);
    }
}
