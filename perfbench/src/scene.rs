//! The closed-loop scene workload (`mix`).
//!
//! Each run builds `SCENES` variants of the scene, warms each up and
//! checkpoints it. The measured window is a series of *passes*, rotating
//! over the variants: each pass restores a checkpoint and runs the same
//! `pass_steps` steps, like a game loop that calls `actors.update` and
//! `world.step` back to back. Every measured step therefore comes from the
//! same stretch of the scenes however fast the engine is, and every pass
//! over a variant must end on the same world digest.

use std::time::{Duration, Instant};

use parallax_bench::server_gate::percentile;
use parallax_physics::{
    world_digest, BroadphaseKind, InvariantMonitor, MonitorConfig, PhaseKind, SimdMode,
    StepProfile, World,
};
use parallax_telemetry as telemetry;
use parallax_telemetry::stats::SplitMix64;
use parallax_workloads::{BenchmarkId, Scene, SceneCheckpoint, SceneParams};

use crate::spans::Recorder;
use crate::{ratio, Args, Metrics, Outcome};

/// Warm-up steps before the checkpoint: the paper's scenes are active in
/// their first 10 frames of 3 steps.
const WARM_STEPS: u64 = 30;
/// Scene variants per run, each built from its own seed drawn from the
/// run's seed; the passes rotate over them, so one run averages over
/// placements rather than measuring one.
const SCENES: usize = 5;
/// Real-time demand of the paper: 30 frames/s of 3 steps each.
const REALTIME_STEPS_PER_S: f64 = 90.0;
const STEPS_PER_FRAME: usize = 3;
/// The paper's real-time budget for one step: a 30 FPS frame of 3 steps.
const STEP_BUDGET_MS: f64 = 1000.0 / 30.0 / STEPS_PER_FRAME as f64;
/// Timed `World::snapshot` calls in a traced run.
const SNAPSHOTS: usize = 20;

/// Engine threads: one, see `README.md` for why not the host's two.
const THREADS: usize = 1;

struct Spec {
    scale: f32,
    pass_steps: u64,
}

/// The `Mix` scene at scale 0.25; `--smoke` shrinks it.
fn spec(smoke: bool) -> Spec {
    if smoke {
        Spec {
            scale: 0.05,
            pass_steps: 9,
        }
    } else {
        Spec {
            scale: 0.25,
            pass_steps: 300,
        }
    }
}

/// Every `SceneParams` field, set here rather than from the environment.
fn params(spec: &Spec, seed: u64) -> SceneParams {
    SceneParams {
        scale: spec.scale,
        seed,
        threads: THREADS,
        warm_starting: true,
        simd: SimdMode::detect(),
        digests: false,
        sleeping: false,
    }
}

/// Sets every `WorldConfig` field to the paper's values (∆t = 0.01 s,
/// 20 solver iterations, 3 steps per frame, spatial-hash broad-phase).
fn pin(world: &mut World, params: &SceneParams) {
    world.set_broadphase(BroadphaseKind::Grid { cell: 1.2 });
    let c = world.config_mut();
    c.gravity = parallax_math::Vec3::new(0.0, -9.81, 0.0);
    c.dt = 0.01;
    c.solver_iterations = 20;
    c.erp = 0.2;
    c.contact_cfm = 1e-5;
    c.threads = params.threads;
    c.island_queue_threshold = 25;
    c.max_linear_velocity = 100.0;
    c.max_angular_velocity = 50.0;
    c.steps_per_frame = STEPS_PER_FRAME;
    c.slider_spring_k = 35_000.0;
    c.slider_spring_c = 1_200.0;
    c.warm_starting = params.warm_starting;
    c.simd = params.simd;
    c.digests = params.digests;
    c.digest_fault = None;
    c.sleeping = params.sleeping;
    c.sleep_lin_threshold = 0.08;
    c.sleep_ang_threshold = 0.10;
    c.sleep_steps = 30;
}

struct SetUp {
    scene: Scene,
    checkpoint: SceneCheckpoint,
    digest: u64,
}

fn set_up(spec: &Spec, seed: u64) -> (SetUp, f64) {
    let start = Instant::now();
    let params = params(spec, seed);
    let mut scene = BenchmarkId::Mix.build(&params);
    pin(&mut scene.world, &params);
    for _ in 0..WARM_STEPS {
        scene.step();
    }
    let checkpoint = scene.checkpoint();
    let secs = start.elapsed().as_secs_f64();
    let digest = world_digest(&scene.world);
    let set_up = SetUp {
        scene,
        checkpoint,
        digest,
    };
    (set_up, secs)
}

/// Per-step wall times, ms, of `actors.update` + `world.step`, one list
/// per pass.
#[derive(Default)]
struct Timings {
    passes: Vec<Vec<f64>>,
}

impl Timings {
    fn loop_secs(&self) -> f64 {
        self.passes.iter().flatten().sum::<f64>() / 1e3
    }

    fn step_ms(&self) -> Vec<f64> {
        self.passes.iter().flatten().copied().collect()
    }
}

/// Work counts taken from a step's `StepProfile`, attached to its span.
fn profile_attrs(p: &StepProfile) -> Vec<(&'static str, f64)> {
    let ms = |phase: PhaseKind| p.wall_time(phase).as_secs_f64() * 1e3;
    let active = p.pairs.iter().filter(|w| w.active).count();
    let touching = p.pairs.iter().filter(|w| w.contacts > 0).count();
    let row_iters: usize = p.islands.iter().map(|i| i.rows * i.iterations).sum();
    let queued = p.islands.iter().filter(|i| i.queued).count();
    let projections: usize = p.cloths.iter().map(|c| c.stats.projections).sum();
    let collision_tests: usize = p.cloths.iter().map(|c| c.stats.collision_tests).sum();
    vec![
        ("broadphase_ms", ms(PhaseKind::Broadphase)),
        ("narrowphase_ms", ms(PhaseKind::Narrowphase)),
        ("island_ms", ms(PhaseKind::IslandCreation)),
        ("solver_ms", ms(PhaseKind::IslandProcessing)),
        ("cloth_ms", ms(PhaseKind::Cloth)),
        ("overlap_tests", p.broadphase.overlap_tests as f64),
        ("bp_pairs", p.broadphase.pairs as f64),
        ("np_pairs", p.pairs.len() as f64),
        ("np_active", active as f64),
        ("np_touching", touching as f64),
        ("union_ops", p.island_creation.union_ops as f64),
        ("islands", p.island_creation.islands as f64),
        ("solved_islands", p.islands.len() as f64),
        ("queued_islands", queued as f64),
        ("row_iters", row_iters as f64),
        ("projections", projections as f64),
        ("collision_tests", collision_tests as f64),
        ("sleeping_bodies", p.sleeping_bodies as f64),
        ("bodies", p.body_count as f64),
    ]
}

/// What one pass checked.
struct PassResult {
    steps: u64,
    violations: u64,
    digest: u64,
}

/// Runs one pass from the checkpoint. With a recorder, each step gets an
/// `actors` and a `step` span under `parent`.
fn pass(
    s: &mut SetUp,
    steps: u64,
    timings: &mut Timings,
    mut trace: Option<(&mut Recorder, u64)>,
) -> PassResult {
    let restore_start = Instant::now();
    s.scene
        .restore(&s.checkpoint)
        .expect("a checkpoint restores into the scene it was taken from");
    if let Some((rec, parent)) = trace.as_mut() {
        rec.record(
            *parent,
            "restore",
            restore_start,
            Instant::now(),
            Vec::new(),
        );
    }
    let mut monitor = InvariantMonitor::new(MonitorConfig::default());
    let mut violations = 0;
    let mut step_ms = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let step = s.scene.world.step_count();
        let t0 = Instant::now();
        s.scene.actors.update(&mut s.scene.world, step);
        let t1 = Instant::now();
        let profile = s.scene.world.step();
        let t2 = Instant::now();
        step_ms.push((t2 - t0).as_secs_f64() * 1e3);
        if let Some((rec, parent)) = trace.as_mut() {
            rec.record(*parent, "actors", t0, t1, Vec::new());
            rec.record(*parent, "step", t1, t2, profile_attrs(&profile));
            // The engine's own span rings are not read here; empty them so
            // they never fill.
            telemetry::drain_spans(&mut Vec::new());
        }
        let bad = monitor.check_step(&s.scene.world, &profile);
        if !bad.is_empty() {
            eprintln!("invariant violation at step {step}: {bad:?}");
            violations += 1;
        }
    }
    timings.passes.push(step_ms);
    PassResult {
        steps,
        violations,
        digest: world_digest(&s.scene.world),
    }
}

pub fn run(args: &Args) -> Outcome {
    let spec = spec(args.smoke);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let root = rec.next_id();
    let mut notes = Vec::new();

    let mut rng = SplitMix64::new(args.seed);
    let seeds: Vec<u64> = (0..SCENES).map(|_| rng.next_u64() >> 16).collect();
    let setup_start = Instant::now();
    let mut setup_secs = Vec::with_capacity(SCENES + 1);
    let mut scenes: Vec<SetUp> = seeds
        .iter()
        .map(|&seed| {
            let (s, secs) = set_up(&spec, seed);
            setup_secs.push(secs);
            s
        })
        .collect();
    rec.record(root, "setup", setup_start, Instant::now(), Vec::new());

    // Untraced passes fill the window (half of it in a traced run), in
    // whole rounds over the scenes; the traced half then replays the same
    // passes with spans on.
    let window = Duration::from_secs_f64(args.seconds);
    let untraced_window = if args.trace { window / 2 } else { window };
    let measure_start = Instant::now();
    let mut untraced = Timings::default();
    let mut results: Vec<(usize, PassResult)> = Vec::new();
    while results.is_empty() || measure_start.elapsed() < untraced_window {
        for (i, s) in scenes.iter_mut().enumerate() {
            results.push((i, pass(s, spec.pass_steps, &mut untraced, None)));
        }
    }
    let mut traced = Timings::default();
    let mut counters = telemetry::Snapshot::default();
    if args.trace {
        let traced_start = Instant::now();
        let measure = rec.next_id();
        telemetry::set_enabled(true);
        let before = telemetry::snapshot();
        while traced.passes.len() < untraced.passes.len() {
            for (i, s) in scenes.iter_mut().enumerate() {
                let trace = Some((&mut rec, measure));
                results.push((i, pass(s, spec.pass_steps, &mut traced, trace)));
            }
        }
        counters = telemetry::snapshot().delta_since(&before);
        telemetry::set_enabled(false);
        rec.record_as(
            measure,
            root,
            "measure",
            traced_start,
            Instant::now(),
            Vec::new(),
        );
        for _ in 0..SNAPSHOTS {
            let start = Instant::now();
            std::hint::black_box(scenes[0].scene.world.snapshot());
            rec.record(root, "snapshot", start, Instant::now(), Vec::new());
        }
    }

    // Every pass over a scene must end where its first pass ended.
    let first: Vec<u64> = results[..SCENES].iter().map(|(_, r)| r.digest).collect();
    let mut mismatches = 0;
    for (n, (i, r)) in results.iter().enumerate() {
        if r.digest != first[*i] {
            mismatches += 1;
            notes.push(format!(
                "pass {n} on scene {i} ended on digest {:016x}, its first pass on {:016x}",
                r.digest, first[*i]
            ));
        }
    }
    let digest = first.iter().fold(0u64, |acc, d| acc.rotate_left(17) ^ d);
    let attempted: u64 = results.iter().map(|(_, r)| r.steps).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.violations).sum::<u64>() + mismatches;

    // The host's speed switches between levels within a run, so the steps
    // of a run can form two clusters. A median over all of them then jumps
    // from one cluster to the other as their shares cross a half; the mean
    // over passes of each pass's median follows the shares smoothly.
    let mut m = Metrics::default();
    let step_ms = untraced.step_ms();
    let steps_per_s = step_ms.len() as f64 / untraced.loop_secs();
    let p50 = mean(untraced.passes.iter().map(|p| percentile(p, 50.0)));
    m.set("steps_per_s", steps_per_s);
    m.set("step_ms_p50", p50);
    m.set("step_ms_p95", percentile(&step_ms, 95.0));
    m.set("sustain", steps_per_s / REALTIME_STEPS_PER_S);
    // A closed-loop request is one step: the caller waits for it.
    m.set("req_ms_p50", p50);
    let in_budget = step_ms.iter().filter(|&&ms| ms <= STEP_BUDGET_MS).count();
    m.set(
        "req_within_tick_frac",
        in_budget as f64 / step_ms.len() as f64,
    );
    m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    if args.trace {
        layer_metrics(&mut m, &rec, &counters, &scenes[0]);
        // Both halves ran the same passes over the same steps.
        m.set(
            "trace.overhead_frac",
            traced.loop_secs() / untraced.loop_secs() - 1.0,
        );
    }
    match crate::peak_rss_mb() {
        Ok(mb) => m.set("peak_rss_mb", mb),
        Err(e) => notes.push(e),
    }

    // Build the first scene again: the same seed must reach the same
    // state after warm-up.
    let setup_digest = scenes[0].digest;
    drop(scenes);
    let (again, secs) = set_up(&spec, seeds[0]);
    setup_secs.push(secs);
    if again.digest != setup_digest {
        notes.push(format!(
            "set-up digest {:016x} on a repeated build, {setup_digest:016x} on the first",
            again.digest
        ));
    }
    m.set(
        "setup_s",
        telemetry::median(&setup_secs).expect("set-up ran"),
    );
    rec.record_as(
        root,
        0,
        args.workload.name(),
        origin,
        Instant::now(),
        Vec::new(),
    );

    Outcome {
        attempted,
        failed,
        notes,
        digest,
        metrics: m,
        spans: rec,
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Per-layer metrics of a scene, from the traced passes' spans and the
/// registry counters they moved.
fn layer_metrics(m: &mut Metrics, rec: &Recorder, counters: &telemetry::Snapshot, s: &SetUp) {
    let steps: Vec<&crate::spans::Span> = rec.named("step").collect();
    let n = steps.len().max(1) as f64;
    let total = |key: &str| steps.iter().map(|sp| sp.attr(key)).sum::<f64>();
    let per_step = |key: &str| total(key) / n;

    m.set("physics.broadphase.ms", per_step("broadphase_ms"));
    m.set(
        "physics.broadphase.overlap_tests",
        per_step("overlap_tests"),
    );
    m.set("physics.broadphase.pairs", per_step("bp_pairs"));
    m.set(
        "physics.broadphase.ns_per_test",
        ratio(total("broadphase_ms") * 1e6, total("overlap_tests")),
    );
    m.set(
        "physics.broadphase.pair_yield",
        ratio(total("bp_pairs"), total("overlap_tests")),
    );
    m.set("physics.narrowphase.ms", per_step("narrowphase_ms"));
    m.set("physics.narrowphase.pairs", per_step("np_pairs"));
    m.set(
        "physics.narrowphase.active_frac",
        ratio(total("np_active"), total("np_pairs")),
    );
    m.set(
        "physics.narrowphase.contact_yield",
        ratio(total("np_touching"), total("np_active")),
    );
    m.set(
        "physics.narrowphase.ns_per_pair",
        ratio(total("narrowphase_ms") * 1e6, total("np_pairs")),
    );
    m.set("physics.island.ms", per_step("island_ms"));
    m.set("physics.island.union_ops", per_step("union_ops"));
    m.set("physics.island.islands", per_step("islands"));
    m.set("physics.solver.ms", per_step("solver_ms"));
    m.set("physics.solver.row_iters", per_step("row_iters"));
    m.set(
        "physics.solver.ns_per_row_iter",
        ratio(total("solver_ms") * 1e6, total("row_iters")),
    );
    m.set(
        "physics.solver.queued_frac",
        ratio(total("queued_islands"), total("solved_islands")),
    );
    m.set("physics.cloth.ms", per_step("cloth_ms"));
    m.set("physics.cloth.projections", per_step("projections"));
    m.set("physics.cloth.collision_tests", per_step("collision_tests"));
    m.set(
        "physics.cloth.ns_per_projection",
        ratio(total("cloth_ms") * 1e6, total("projections")),
    );
    let phases = [
        "broadphase_ms",
        "narrowphase_ms",
        "island_ms",
        "solver_ms",
        "cloth_ms",
    ];
    let step_ms = mean(steps.iter().map(|sp| sp.ms()));
    let phase_ms: f64 = phases.iter().map(|k| per_step(k)).sum();
    m.set("physics.step.ms", step_ms);
    m.set("physics.step.self_ms", step_ms - phase_ms);
    m.set(
        "workloads.actors_ms",
        mean(rec.named("actors").map(|sp| sp.ms())),
    );
    m.set(
        "physics.sleep.sleeping_frac",
        ratio(total("sleeping_bodies"), total("bodies")),
    );
    let snapshot_ms: Vec<f64> = rec.named("snapshot").map(|sp| sp.ms()).collect();
    m.set(
        "physics.snapshot.snapshot_ms",
        telemetry::median(&snapshot_ms).unwrap_or(0.0),
    );
    m.set(
        "physics.snapshot.restore_ms",
        mean(rec.named("restore").map(|sp| sp.ms())),
    );
    m.set("physics.snapshot.bytes", s.checkpoint.world.len() as f64);
    crate::registry_metrics(m, counters, n);
}
