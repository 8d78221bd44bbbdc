//! Executor-scaling experiment: real (wall-clock) steps/sec of the
//! pipeline versus executor width.
//!
//! Unlike the figure binaries — which feed step *traces* into the timing
//! models — this experiment measures the actual engine: the persistent
//! [`Executor`](parallax_physics::parallel::Executor) serving the three
//! parallel stages. It reports steps/sec per thread count, the serial /
//! parallel wall split of the single-thread run, the Amdahl bound implied
//! by that split, and whether the run was serial-bound (either because
//! the host has too few hardware threads for the executor to help, or
//! because the scene's serial phases dominate its step).

use std::time::Instant;

use parallax_physics::PhaseKind;
use parallax_telemetry::json::Json;
use parallax_workloads::{BenchmarkId, SceneParams};

use crate::envelope::{field_arr, field_f64, field_str, field_u64, Config, Envelope, Group};
use crate::harness::{phase_series, sample_step};

/// How the experiment runs: the `config` section of
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Scene measured.
    pub scene: BenchmarkId,
    /// Scene scale.
    pub scale: f32,
    /// Executor widths measured, ascending; the first must be 1.
    pub threads: Vec<usize>,
    /// Warm-up steps per point, stepped but not timed.
    pub warmup: usize,
    /// Timed steps per point.
    pub steps: usize,
}

impl Config for ScalingConfig {
    const EXPERIMENT: &'static str = "executor_scaling";
    const RECORD: &'static str = "cargo run --release -p parallax-bench --bin executor_scaling";

    /// Also records the scene's solver warm starting, so the document
    /// carries its solver configuration; the reader skips it.
    fn to_json(&self) -> String {
        let threads: Vec<String> = self.threads.iter().map(usize::to_string).collect();
        format!(
            "{{\"scene\": \"{}\", \"scale\": {}, \"threads\": [{}], \"warmup\": {}, \
             \"steps\": {}, \"warm_starting\": {}}}",
            self.scene.name(),
            self.scale,
            threads.join(", "),
            self.warmup,
            self.steps,
            SceneParams::default().warm_starting
        )
    }

    fn from_json(c: &Json) -> Result<ScalingConfig, String> {
        let scene = field_str(c, "scene")?;
        Ok(ScalingConfig {
            scene: crate::benchmark_by_name(&scene).ok_or(format!("unknown scene {scene:?}"))?,
            scale: field_f64(c, "scale")? as f32,
            threads: field_arr(c, "threads")?
                .iter()
                .map(|t| {
                    t.as_u64()
                        .map(|t| t as usize)
                        .ok_or("non-integer thread count")
                })
                .collect::<Result<_, _>>()?,
            warmup: field_u64(c, "warmup")? as usize,
            steps: field_u64(c, "steps")? as usize,
        })
    }
}

/// One measured point: the pipeline stepped with a given executor width.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Executor width (participants incl. the caller).
    pub threads: usize,
    /// Measured steps per second over the window.
    pub steps_per_sec: f64,
    /// Speed-up versus the 1-thread point.
    pub speedup: f64,
    /// Per-step wall time of each phase in nanoseconds,
    /// [`PhaseKind::ALL`] order.
    pub phase_wall_ns: [Vec<f64>; 5],
}

impl ScalingPoint {
    /// Wall seconds spent per phase, summed over the window.
    pub fn phase_wall(&self) -> [f64; 5] {
        self.phase_wall_ns
            .each_ref()
            .map(|w| w.iter().sum::<f64>() / 1e9)
    }
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// How the experiment ran.
    pub config: ScalingConfig,
    /// Hardware threads the host offers the process.
    pub available_parallelism: usize,
    /// Measured points, ascending thread count (first entry is 1 thread).
    pub points: Vec<ScalingPoint>,
    /// Fraction of the 1-thread step spent in the parallelizable phases.
    pub parallel_fraction: f64,
    /// Amdahl speed-up bound at the widest measured point, from
    /// `parallel_fraction`.
    pub amdahl_bound: f64,
    /// `true` when executor scaling cannot be expected on this run.
    pub serial_bound: bool,
    /// Human-readable explanation when `serial_bound`.
    pub serial_bound_reason: String,
}

/// Measures one point: builds the scene fresh at executor width
/// `threads`, warms up, then times `cfg.steps` steps.
pub fn measure_point(cfg: &ScalingConfig, threads: usize) -> ScalingPoint {
    let mut scene = cfg.scene.build(&SceneParams {
        scale: cfg.scale,
        threads,
        ..SceneParams::default()
    });
    for _ in 0..cfg.warmup {
        scene.step();
    }
    let mut phase_wall_ns = Default::default();
    let t0 = Instant::now();
    for _ in 0..cfg.steps {
        sample_step(&mut scene, &mut phase_wall_ns);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    ScalingPoint {
        threads,
        steps_per_sec: cfg.steps as f64 / elapsed.max(1e-9),
        speedup: 1.0,
        phase_wall_ns,
    }
}

/// Runs the experiment over `cfg.threads` (must start with 1).
pub fn run(cfg: ScalingConfig) -> ScalingReport {
    assert_eq!(
        cfg.threads.first(),
        Some(&1),
        "baseline point must be 1 thread"
    );
    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut points: Vec<ScalingPoint> = cfg
        .threads
        .iter()
        .map(|&t| measure_point(&cfg, t))
        .collect();
    let base = points[0].steps_per_sec;
    for p in &mut points {
        p.speedup = p.steps_per_sec / base.max(1e-12);
    }

    // Amdahl split from the 1-thread run's phase wall times.
    let wall = points[0].phase_wall();
    let serial_wall: f64 = PhaseKind::ALL
        .iter()
        .zip(wall)
        .filter(|(k, _)| k.is_serial())
        .map(|(_, w)| w)
        .sum();
    let total_wall: f64 = wall.iter().sum();
    let parallel_fraction = if total_wall > 0.0 {
        1.0 - serial_wall / total_wall
    } else {
        0.0
    };
    let widest = *cfg.threads.last().expect("points") as f64;
    let amdahl_bound = 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / widest);

    let (serial_bound, serial_bound_reason) = if available_parallelism < 2 {
        (
            true,
            format!(
                "host exposes {available_parallelism} hardware thread(s); worker threads \
                 time-slice one core, so wall-clock scaling is impossible regardless of \
                 the pipeline's parallel fraction ({:.0}% of the 1-thread step)",
                parallel_fraction * 100.0
            ),
        )
    } else if parallel_fraction < 1.0 / 3.0 {
        (
            true,
            format!(
                "only {:.0}% of the 1-thread step is in parallel phases; Amdahl bound at \
                 {widest:.0} threads is {amdahl_bound:.2}x",
                parallel_fraction * 100.0
            ),
        )
    } else {
        (false, String::new())
    };

    ScalingReport {
        config: cfg,
        available_parallelism,
        points,
        parallel_fraction,
        amdahl_bound,
        serial_bound,
        serial_bound_reason,
    }
}

impl ScalingReport {
    /// The report as a BENCH document: one group per point (values
    /// `threads`, `steps_per_sec`, `speedup`; the per-phase and step-total
    /// series of the timed steps) plus an `amdahl` group holding the
    /// 1-thread split (`parallel_fraction`, `amdahl_bound`,
    /// `serial_bound` as 0/1).
    pub fn envelope(&self) -> Envelope<ScalingConfig> {
        let value = |k: &str, v: f64| (k.to_string(), v);
        let mut groups: Vec<Group> = self
            .points
            .iter()
            .map(|p| Group {
                name: format!("{} thread(s)", p.threads),
                values: vec![
                    value("threads", p.threads as f64),
                    value("steps_per_sec", p.steps_per_sec),
                    value("speedup", p.speedup),
                ],
                series: phase_series(p.phase_wall_ns.clone()),
            })
            .collect();
        groups.push(Group {
            name: "amdahl".to_string(),
            values: vec![
                value("parallel_fraction", self.parallel_fraction),
                value("amdahl_bound", self.amdahl_bound),
                value("serial_bound", f64::from(u8::from(self.serial_bound))),
            ],
            series: Vec::new(),
        });
        Envelope::new(self.config.clone(), groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_runs_and_serializes() {
        let r = run(ScalingConfig {
            scene: BenchmarkId::Periodic,
            scale: 0.05,
            threads: vec![1, 2],
            warmup: 2,
            steps: 3,
        });
        assert_eq!(r.points.len(), 2);
        assert!((r.points[0].speedup - 1.0).abs() < 1e-9);
        assert!(r.points.iter().all(|p| p.steps_per_sec > 0.0));
        assert!((0.0..=1.0).contains(&r.parallel_fraction));
        // Round trip through the shared reader.
        let doc = r.envelope();
        let parsed = Envelope::<ScalingConfig>::from_json(&doc.to_json()).expect("parse");
        assert_eq!(parsed.config.threads, vec![1, 2]);
        assert_eq!(parsed.config.scene, BenchmarkId::Periodic);
        assert_eq!(parsed.groups, doc.groups);
        assert_eq!(parsed.groups[1].value("threads"), 2.0);
        // Five phases plus the step total, one sample per timed step.
        let series = &parsed.groups[1].series;
        assert_eq!(series.len(), 6);
        assert!(series.iter().all(|(_, s)| s.len() == 3));
    }
}
