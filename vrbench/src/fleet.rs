//! The two served fleets: `fleet-preprocess` and `fleet-swrender`.
//!
//! Both run a `vrpipe::Server` with two pool workers and one frame in
//! flight per stream (a closed loop: each client asks for its next frame
//! when the previous one is delivered). The timed phase repeats
//! `Server::run` rounds of a fixed number of frames per stream until the
//! run's time is up, so each frame's work does not depend on how long the
//! run is. Completed streams keep their warm temporal state between
//! rounds.
//!
//! * `fleet-preprocess`: 8 translation-bound flythroughs over Train at
//!   scale 0.3 with batching on. The backend only hashes the sorted splat
//!   list, so the work is preprocess, batch formation and scheduling.
//! * `fleet-swrender`: 4 orbits over Bonsai at scale 0.12, batching off.
//!   The backend renders each frame with the SoA `cuda_like` kernel, so
//!   the fragment kernel is nearly all of the work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gsplat::camera::CameraPath;
use gsplat::index::CullStats;
use gsplat::math::Vec3;
use gsplat::scene::{Scene, SceneSpec, EVALUATED_SCENES};
use gsplat::stream::FragmentKernel;
use gsplat::ThreadPolicy;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig, SwFrame, SwScratch, SwStats};
use vrpipe::renderer::{PREPROCESS_MS_PER_GAUSSIAN, SORT_MS_PER_SPLAT};
use vrpipe::{
    FrameInput, SequenceConfig, ServeReport, Server, Session, SharedScene, StreamPhase, StreamSpec,
};

use crate::measure::{
    self, add_cull, color_digest, cpu_seconds, median, ms, percentile, ratio, splat_digest,
    uniform, Fnv, Metrics,
};
use crate::trace::{self, Trace};
use crate::{Args, Outcome};

/// Pool workers: the host budget of a 2-CPU machine.
const WORKERS: usize = 2;
/// The timed phase delivers at least this many frame intervals.
const MIN_INTERVALS: usize = 110;
/// Set-up repetitions; `setup_s` is their median. Each set-up includes a
/// warm-up round, so fleets repeat fewer times than `solo-draw`.
const SETUP_REPEATS: usize = 3;
/// No parent span recorded (untraced run, or set-up).
const NO_SPAN: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Preprocess,
    SwRender,
}

impl Kind {
    fn streams(self) -> usize {
        match self {
            Kind::Preprocess => 8,
            Kind::SwRender => 4,
        }
    }

    /// Frames per stream in one `Server::run` round.
    fn round_frames(self) -> usize {
        match self {
            Kind::Preprocess => 32,
            Kind::SwRender => 12,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Preprocess => "fleet-preprocess",
            Kind::SwRender => "fleet-swrender",
        }
    }
}

/// What a backend returns for one frame.
#[derive(Debug, Clone, Copy)]
pub struct Out {
    digest: u64,
    /// Modelled GPU time of the frame, ms.
    sim_ms: f64,
}

/// One backend call as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
struct Call {
    round: usize,
    frame: usize,
    start: Instant,
    end: Instant,
    visible: usize,
    input: usize,
    cull: CullStats,
    sw: SwStats,
}

/// The per-stream call log, written by the backend closure.
type Log = Arc<Mutex<Vec<Call>>>;

/// State the main thread shares with every backend closure.
#[derive(Debug, Default)]
struct Round {
    /// Index of the `Server::run` round in progress.
    index: AtomicUsize,
    /// Span id of that round's `Server::run` span (or `NO_SPAN`).
    span: AtomicUsize,
}

/// Everything set-up builds.
struct Fleet {
    server: Server<Out>,
    cfgs: Vec<SequenceConfig>,
    logs: Vec<Log>,
    round: Arc<Round>,
}

/// The k-th stream's sequence. `rng` carries the seeded offsets.
fn stream_cfg(
    kind: Kind,
    scene: &Scene,
    k: usize,
    rng: &mut u64,
    w: u32,
    h: u32,
) -> SequenceConfig {
    let n = kind.round_frames();
    let path = match kind {
        // Parallel -z flythroughs at 1/32 unit per frame (1 unit per
        // round, well inside the cloud). Every eye differs by a pure
        // translation: x/y offsets are seeded, while z, the velocity and
        // the look direction stay dyadic so the view rotation is
        // bit-identical across the fleet and the rounds batch.
        Kind::Preprocess => {
            let dx = 0.5 * (k % 4) as f32 - 0.75 + uniform(rng, -0.2, 0.2);
            let dy = 0.25 * (k / 4) as f32 + uniform(rng, -0.1, 0.1);
            let start = scene.center + Vec3::new(dx, dy, scene.view_radius);
            CameraPath::flythrough(start, start + Vec3::new(0.0, 0.0, -8.0), 1.0 / 32.0, 0.01)
        }
        // Orbits of different radius, height and angular speed; every
        // frame rotates the view, so the covariance cache misses and no
        // two streams could batch.
        Kind::SwRender => {
            let deg_per_frame = (0.4 + 0.15 * k as f32) * uniform(rng, 0.9, 1.1);
            CameraPath::orbit(
                scene.center,
                scene.view_radius * (0.85 + 0.05 * k as f32) * uniform(rng, 0.97, 1.03),
                scene.view_height * (0.6 + 0.25 * k as f32) * uniform(rng, 0.9, 1.1),
                deg_per_frame * n as f32 / 360.0,
            )
        }
    };
    SequenceConfig::new(path, n, w, h).with_index()
}

fn sw_config(kernel: FragmentKernel) -> SwConfig {
    SwConfig {
        threads: 1,
        kernel,
        ..SwConfig::default()
    }
}

/// Digest of a software-rendered frame: image bits, statistics and
/// modelled time.
fn sw_digest(frame: &SwFrame) -> u64 {
    let mut h = Fnv::default();
    h.eat(color_digest(&frame.color));
    let s = &frame.stats;
    for v in [
        s.duplicated_keys,
        s.warp_iterations,
        s.thread_slots,
        s.blending_threads,
        s.blended_fragments,
        s.terminated_fragments,
        s.warp_iterations_saved,
        s.tiles_swept,
        s.retired_tiles,
        s.bound_skipped_iterations,
    ] {
        h.eat(v);
    }
    h.eat(frame.total_ms().to_bits());
    h.finish()
}

/// Modelled GPU preprocess + sort time of a frame, ms (the reference-GPU
/// cost constants of `vrpipe::renderer`, at the benchmark's scale).
fn preprocess_sim_ms(f: &FrameInput<'_>) -> f64 {
    f.preprocess.input_gaussians as f64 * PREPROCESS_MS_PER_GAUSSIAN
        + f.preprocess.visible_splats as f64 * SORT_MS_PER_SPLAT
}

impl Fleet {
    fn new(kind: Kind, seed: u64, trace: &Trace) -> Result<Self, String> {
        let mut rng = seed;
        let (base, scale) = match kind {
            Kind::Preprocess => (&EVALUATED_SCENES[2], 0.3), // Train
            Kind::SwRender => (&EVALUATED_SCENES[1], 0.12),  // Bonsai
        };
        let spec = SceneSpec {
            seed: base.seed ^ measure::splitmix(&mut rng),
            ..base.clone()
        };
        let scene = spec.generate_scaled(scale);
        let (w, h) = spec.scaled_viewport(scale);
        let cfgs: Vec<SequenceConfig> = (0..kind.streams())
            .map(|k| stream_cfg(kind, &scene, k, &mut rng, w, h))
            .collect();
        let shared = SharedScene::new(scene);
        shared.index();
        let mut server = Server::new(shared, WORKERS);
        if kind == Kind::Preprocess {
            server = server.with_batching();
        }
        let round = Arc::new(Round::default());
        round.span.store(NO_SPAN, Ordering::Relaxed);
        let mut logs = Vec::new();
        for (k, cfg) in cfgs.iter().enumerate() {
            let log: Log = Arc::new(Mutex::new(Vec::with_capacity(4096)));
            logs.push(Arc::clone(&log));
            let (trace, round) = (trace.clone(), Arc::clone(&round));
            let name = format!("{}-{k}", kind.name());
            let spec = match kind {
                Kind::Preprocess => StreamSpec::new(name, cfg.clone(), move |f| {
                    let span = backend_span(&trace, &round, k, f.index);
                    let start = Instant::now();
                    let out = Out {
                        digest: splat_digest(&f),
                        sim_ms: preprocess_sim_ms(&f),
                    };
                    record(&log, &round, &f, start, SwStats::default());
                    trace::close(&trace, span);
                    out
                }),
                Kind::SwRender => {
                    let renderer = CudaLikeRenderer::new(sw_config(FragmentKernel::Soa), true);
                    let mut scratch = SwScratch::default();
                    StreamSpec::new(name, cfg.clone(), move |f| {
                        let span = backend_span(&trace, &round, k, f.index);
                        let start = Instant::now();
                        let (w, h) = (f.camera.width(), f.camera.height());
                        let child = trace::open(&trace, "render_prepared", span, k, f.index);
                        let frame =
                            renderer.render_prepared(f.splats, f.stream, w, h, &mut scratch);
                        trace::close(&trace, child);
                        let out = Out {
                            digest: sw_digest(&frame),
                            sim_ms: frame.total_ms(),
                        };
                        record(&log, &round, &f, start, frame.stats);
                        trace::close(&trace, span);
                        out
                    })
                    .with_stream()
                }
            };
            server.add_stream(spec);
        }
        let mut fleet = Self {
            server,
            cfgs,
            logs,
            round,
        };
        // Warm-up round: builds every session's temporal state and the
        // batch states, then is forgotten.
        let warm = fleet.server.run();
        check_round(kind, &warm, &fleet.cfgs)?;
        if kind == Kind::Preprocess && warm.batch.batched_frames == 0 {
            return Err("fleet-preprocess: the translation-bound fleet did not batch".into());
        }
        for log in &fleet.logs {
            lock(log).clear();
        }
        Ok(fleet)
    }
}

fn lock(log: &Log) -> std::sync::MutexGuard<'_, Vec<Call>> {
    log.lock().expect("call log poisoned by a panicking frame")
}

fn backend_span(trace: &Trace, round: &Round, stream: usize, frame: usize) -> Option<usize> {
    let parent = round.span.load(Ordering::Relaxed);
    trace::open(
        trace,
        "backend",
        (parent != NO_SPAN).then_some(parent),
        stream,
        frame,
    )
}

fn record(log: &Log, round: &Round, f: &FrameInput<'_>, start: Instant, sw: SwStats) {
    let call = Call {
        round: round.index.load(Ordering::Relaxed),
        frame: f.index,
        start,
        end: Instant::now(),
        visible: f.preprocess.visible_splats,
        input: f.preprocess.input_gaussians,
        cull: f.cull,
        sw,
    };
    lock(log).push(call);
}

/// Every stream must complete every frame of the round, in order.
fn check_round(
    kind: Kind,
    report: &ServeReport<Out>,
    cfgs: &[SequenceConfig],
) -> Result<(), String> {
    for (s, cfg) in report.streams.iter().zip(cfgs) {
        if s.phase != StreamPhase::Completed || s.produced.len() != cfg.frames {
            return Err(format!(
                "{}: stream {} ended {:?} with {} of {} frames",
                kind.name(),
                s.name,
                s.phase,
                s.produced.len(),
                cfg.frames
            ));
        }
    }
    Ok(())
}

/// One timed `Server::run` round.
struct Timed {
    start: Instant,
    cpu_s: f64,
    report: ServeReport<Out>,
}

pub fn run(kind: Kind, args: &Args, trace: &Trace) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous fleet first, so its pool is gone before the
        // next one is timed.
        drop(fleet.take());
        let t = Instant::now();
        fleet = Some(Fleet::new(kind, args.seed, trace)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one set-up");
    if let Some(t) = trace {
        t.clear();
    }

    let mut rounds: Vec<Timed> = Vec::new();
    let streams = kind.streams();
    let per_round = streams * kind.round_frames();
    let t0 = Instant::now();
    loop {
        let r = rounds.len();
        fleet.round.index.store(r, Ordering::Relaxed);
        let span = trace::open(trace, "Server::run", None, streams, r);
        fleet
            .round
            .span
            .store(span.unwrap_or(NO_SPAN), Ordering::Relaxed);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let report = fleet.server.run();
        let cpu_s = cpu_seconds() - cpu0;
        trace::close(trace, span);
        rounds.push(Timed {
            start,
            cpu_s,
            report,
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = rounds.len() * per_round >= MIN_INTERVALS;
        if (elapsed >= args.seconds && enough) || elapsed >= crate::HARD_CAP_S {
            break;
        }
    }

    // Frame intervals and gaps, per stream, from the backend call log.
    let mut intervals = Vec::new();
    let mut gaps = Vec::new();
    let mut calls: Vec<Vec<Call>> = fleet.logs.iter().map(|l| lock(l).clone()).collect();
    for stream_calls in &mut calls {
        stream_calls.sort_by_key(|c| (c.round, c.frame));
        let mut prev: Option<&Call> = None;
        for c in stream_calls.iter() {
            match prev.filter(|p| p.round == c.round) {
                Some(p) => {
                    intervals.push(ms(p.end, c.end));
                    gaps.push(ms(p.end, c.start));
                }
                None => intervals.push(ms(rounds[c.round].start, c.end)),
            }
            prev = Some(c);
        }
    }

    // Correctness gate, outside the timed phase: every stream's frames in
    // every round must match a solo session over the same sequence.
    let attempted = (rounds.len() * per_round) as u64;
    let delivered: usize = rounds.iter().map(|t| t.report.total_frames).sum();
    let mut failed = attempted - delivered as u64;
    for t in &rounds {
        if let Err(e) = check_round(kind, &t.report, &fleet.cfgs) {
            eprintln!("{e}");
        }
    }
    let shared = Arc::clone(fleet.server.shared());
    let mut solo_skip = (0u64, 0u64);
    for (k, cfg) in fleet.cfgs.iter().enumerate() {
        let solo = solo_reference(kind, &shared, cfg);
        failed += solo.oracle_misses;
        solo_skip.0 += solo.skipped;
        solo_skip.1 += solo.input;
        for t in &rounds {
            let s = &t.report.streams[k];
            for (i, out) in s.produced.iter().zip(&s.frames) {
                if solo.outs.get(*i).map(|o| o.digest) != Some(out.digest) {
                    eprintln!(
                        "{}: stream {k} frame {i} differs from its solo session",
                        kind.name()
                    );
                    failed += 1;
                }
            }
        }
    }

    let first = &rounds[0].report;
    let sim_frames: Vec<f64> = first
        .streams
        .iter()
        .flat_map(|s| s.frames.iter().map(|o| o.sim_ms))
        .collect();
    // fps: the median over rounds, so that a burst of host noise moves
    // one round rather than the whole run.
    let mut round_fps: Vec<f64> = rounds
        .iter()
        .map(|t| t.report.total_frames as f64 / (t.report.wall_ms / 1e3))
        .collect();
    let mut e2e = Metrics::default();
    e2e.push("fps", median(&mut round_fps), "frames/s");
    e2e.push("frame_ms_p50", percentile(&mut intervals, 0.5), "ms");
    e2e.push("frame_ms_p90", percentile(&mut intervals, 0.9), "ms");
    e2e.push(
        "sim_ms_per_frame",
        ratio(sim_frames.iter().sum(), sim_frames.len() as f64),
        "ms",
    );
    e2e.push("setup_s", median(&mut setups), "s");

    let layers = match trace {
        Some(t) => layer_metrics(kind, t, &rounds, &calls, &mut gaps, solo_skip),
        None => Metrics::default(),
    };
    Ok(Outcome {
        attempted,
        failed,
        frames: delivered,
        end_to_end: e2e,
        per_layer: layers,
        bench_mib: 0.0,
    })
}

/// A stream's sequence replayed by a fresh solo session.
struct Reference {
    /// Per-frame outputs of the same backend.
    outs: Vec<Out>,
    /// Sampled frames whose SoA render differs from the scalar oracle.
    oracle_misses: u64,
    /// Gaussians the index skipped, and Gaussians considered, summed over
    /// the frames.
    skipped: u64,
    input: u64,
}

/// Runs `cfg` through a fresh solo session with the same backend. For
/// `fleet-swrender` it also renders sampled frames with the scalar oracle
/// kernel and counts the frames whose SoA image or statistics differ.
fn solo_reference(kind: Kind, shared: &SharedScene, cfg: &SequenceConfig) -> Reference {
    let mut session = Session::new(ThreadPolicy::serial());
    if kind == Kind::SwRender {
        session = session.with_stream();
    }
    session.prepare_shared(shared, cfg);
    let mut misses = 0u64;
    let (mut skipped, mut input) = (0u64, 0u64);
    let outs = match kind {
        Kind::Preprocess => session.run(shared.scene(), cfg, |f| {
            skipped += f.cull.gaussians_skipped;
            input += f.preprocess.input_gaussians as u64;
            Out {
                digest: splat_digest(&f),
                sim_ms: preprocess_sim_ms(&f),
            }
        }),
        Kind::SwRender => {
            let soa = CudaLikeRenderer::new(sw_config(FragmentKernel::Soa), true);
            let scalar = CudaLikeRenderer::new(sw_config(FragmentKernel::Scalar), true);
            let (mut a, mut b) = (SwScratch::default(), SwScratch::default());
            let sampled = [0, cfg.frames / 2, cfg.frames - 1];
            session.run(shared.scene(), cfg, |f| {
                let (w, h) = (f.camera.width(), f.camera.height());
                let frame = soa.render_prepared(f.splats, f.stream, w, h, &mut a);
                if sampled.contains(&f.index) {
                    let oracle = scalar.render_prepared(f.splats, f.stream, w, h, &mut b);
                    // Only the bound-skip counter is SoA-specific.
                    let stats = SwStats {
                        bound_skipped_iterations: oracle.stats.bound_skipped_iterations,
                        ..frame.stats
                    };
                    let same = color_digest(&oracle.color) == color_digest(&frame.color)
                        && stats == oracle.stats
                        && oracle.total_ms().to_bits() == frame.total_ms().to_bits();
                    if !same {
                        eprintln!(
                            "fleet-swrender: frame {} differs from the scalar oracle",
                            f.index
                        );
                        misses += 1;
                    }
                }
                Out {
                    digest: sw_digest(&frame),
                    sim_ms: frame.total_ms(),
                }
            })
        }
    };
    Reference {
        outs,
        oracle_misses: misses,
        skipped,
        input,
    }
}

fn layer_metrics(
    kind: Kind,
    tracer: &crate::trace::Tracer,
    rounds: &[Timed],
    calls: &[Vec<Call>],
    gaps: &mut [f64],
    solo_skip: (u64, u64),
) -> Metrics {
    let mut layers = Metrics::default();
    let delivered: usize = rounds.iter().map(|t| t.report.total_frames).sum();
    let times = trace::layer_times(&tracer.spans());
    let backend_ms = times.get("backend").map_or(0.0, |l| l.total_ms);
    let sw_ms = times.get("render_prepared").map_or(0.0, |l| l.total_ms);
    let busy_ms: f64 = rounds
        .iter()
        .flat_map(|t| t.report.streams.iter().map(|s| s.busy_ms))
        .sum();
    let cpu_ms: f64 = rounds.iter().map(|t| t.cpu_s * 1e3).sum();
    let run_ms: f64 = rounds.iter().map(|t| t.report.wall_ms).sum();
    // Batched members report their latency from the start of the shared
    // round task, so their busy time overlaps; the batched fleet measures
    // its frame work as process CPU time instead.
    let task_ms = match kind {
        Kind::Preprocess => cpu_ms,
        Kind::SwRender => busy_ms,
    };
    let n = delivered as f64;
    let pre_ms = task_ms - backend_ms;

    let mut visible = 0u64;
    let mut input = 0u64;
    let mut cull = CullStats::default();
    let mut sw = SwStats::default();
    for c in calls.iter().flatten() {
        visible += c.visible as u64;
        input += c.input as u64;
        cull = add_cull(cull, c.cull);
        let s = &mut sw;
        s.duplicated_keys += c.sw.duplicated_keys;
        s.warp_iterations += c.sw.warp_iterations;
        s.thread_slots += c.sw.thread_slots;
        s.blending_threads += c.sw.blending_threads;
        s.bound_skipped_iterations += c.sw.bound_skipped_iterations;
    }
    let mut skip_input = input;
    if kind == Kind::Preprocess {
        // A batched round classifies cells once for all its members, and
        // no public counter reports what that pass skipped. The skip share
        // is read from the solo sessions of the gate instead: the same
        // cameras over the same index, classified one at a time.
        (cull.gaussians_skipped, skip_input) = solo_skip;
    }
    let (repaired, sorted): (u64, u64) = rounds
        .iter()
        .flat_map(|t| t.report.streams.iter())
        .fold((0, 0), |(r, f), s| {
            (r + s.resort.repaired, f + s.resort.frames)
        });
    crate::push_preprocess_layers(
        &mut layers,
        pre_ms / n,
        ratio(pre_ms, task_ms),
        visible as f64 / n,
        ratio(repaired as f64, sorted as f64),
        skip_input,
        &cull,
    );

    let mut batch = vrpipe::BatchStats::default();
    for t in rounds {
        let b = &t.report.batch;
        batch.rounds += b.rounds;
        batch.batched_rounds += b.batched_rounds;
        batch.batched_frames += b.batched_frames;
        batch.solo_frames += b.solo_frames;
    }
    layers.push("batch.mean_occupancy", batch.mean_occupancy(), "frames");
    layers.push("batch.fallback_ratio", batch.fallback_ratio(), "ratio");
    layers.push(
        "batch.batched_frame_share",
        ratio(batch.batched_frames as f64, n),
        "ratio",
    );

    crate::push_no_draw(&mut layers);
    if kind == Kind::SwRender {
        layers.push("sw.ms_per_frame", sw_ms / n, "ms");
        layers.push("sw.share", ratio(sw_ms, task_ms), "ratio");
        layers.push("sw.warp_iterations", sw.warp_iterations as f64 / n, "count");
        layers.push("sw.duplicated_keys", sw.duplicated_keys as f64 / n, "count");
        layers.push(
            "sw.bound_skip_ratio",
            ratio(
                sw.bound_skipped_iterations as f64,
                sw.warp_iterations as f64,
            ),
            "ratio",
        );
        layers.push("sw.blending_thread_pct", sw.blending_thread_pct(), "%");
    } else {
        crate::push_no_sw(&mut layers);
    }

    let task_p50: Vec<f64> = rounds
        .iter()
        .flat_map(|t| t.report.streams.iter().map(|s| s.latency_p50_ms))
        .collect();
    layers.push(
        "serve.cpu_busy_share",
        ratio(cpu_ms, run_ms * WORKERS as f64),
        "ratio",
    );
    layers.push("serve.gap_ms_p50", percentile(gaps, 0.5), "ms");
    layers.push(
        "serve.task_ms_p50",
        ratio(task_p50.iter().sum(), task_p50.len() as f64),
        "ms",
    );
    layers
}
