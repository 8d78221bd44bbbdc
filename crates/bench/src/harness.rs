//! The `bench_gate` scene recorder: per-scene, per-phase wall-time
//! samples of the paper scenes, written as a [`crate::envelope`]
//! document (`BENCH_scenes.json`) and gated by
//! [`crate::envelope::compare_series`].
//!
//! Each scene is one group. Its series are the raw per-step wall times,
//! in nanoseconds, of every pipeline phase plus their sum
//! ([`STEP_TOTAL`]); its values are the enabled body count and the
//! telemetry counter deltas of the measured window.

use parallax_math::SimdMode;
use parallax_physics::PhaseKind;
use parallax_telemetry::json::{write_str, Json};
use parallax_workloads::{BenchmarkId, Scene, SceneParams};

pub use crate::envelope::Fingerprint;
use crate::envelope::{
    field_arr, field_bool, field_f64, field_str, field_u64, Config, Envelope, Group, STEP_TOTAL,
};

/// How a baseline is recorded and compared.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Measured steps per scene (after warm-up).
    pub steps: usize,
    /// Warm-up steps stepped but not recorded.
    pub warmup: usize,
    /// Scene scale (fraction of paper scale).
    pub scale: f32,
    /// Executor width.
    pub threads: usize,
    /// Relative median-change threshold a regression must clear
    /// (0.35 = 35% slower).
    pub threshold: f64,
    /// Solver warm starting from the persistent contact cache. Part of
    /// the envelope so a baseline is always compared against a run with
    /// the same solver configuration.
    pub warm_starting: bool,
    /// SIMD kernel width the samples were taken with (default: the
    /// widest the CPU supports). Part of the envelope so a scalar
    /// baseline is never silently compared against an AVX2 run.
    pub simd: SimdMode,
    /// Per-phase state digests computed during the run (the flight
    /// recorder's fingerprinting). Part of the envelope because digests
    /// add per-step work; the `digest_overhead` binary A/B-compares
    /// off-vs-on.
    pub digests: bool,
    /// Island sleeping enabled during the run (default off). Part of the
    /// envelope because sleeping changes how much work settled scenes do
    /// per step; `bench_gate --sleep` A/B-compares off-vs-on.
    pub sleeping: bool,
    /// Scenes measured, in order.
    pub scenes: Vec<BenchmarkId>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            steps: 40,
            warmup: 8,
            scale: 0.2,
            threads: 1,
            threshold: 0.35,
            warm_starting: true,
            simd: SimdMode::detect(),
            digests: false,
            sleeping: false,
            scenes: BenchmarkId::ALL.to_vec(),
        }
    }
}

impl GateConfig {
    /// The CI smoke variant: few steps, a threshold so wide (+100%)
    /// that only a catastrophic slowdown trips it. Never *narrows* an
    /// explicitly requested threshold.
    pub fn quick(mut self) -> GateConfig {
        self.steps = 10;
        self.warmup = 3;
        self.threshold = self.threshold.max(1.0);
        self
    }
}

impl Config for GateConfig {
    const EXPERIMENT: &'static str = "scene_gate";
    const RECORD: &'static str = "bench_gate record";

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"steps\": {}, \"warmup\": {}, \"scale\": {}, \"threads\": {}, \
             \"threshold\": {}, \"warm_starting\": {}, \"simd\": \"{}\", \"digests\": {}, \
             \"sleeping\": {}, \"scenes\": [",
            self.steps,
            self.warmup,
            self.scale,
            self.threads,
            self.threshold,
            self.warm_starting,
            self.simd.name(),
            self.digests,
            self.sleeping
        );
        for (i, id) in self.scenes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_str(&mut s, id.name());
        }
        s.push_str("]}");
        s
    }

    fn from_json(c: &Json) -> Result<GateConfig, String> {
        let simd = field_str(c, "simd")?;
        Ok(GateConfig {
            steps: field_u64(c, "steps")? as usize,
            warmup: field_u64(c, "warmup")? as usize,
            scale: field_f64(c, "scale")? as f32,
            threads: field_u64(c, "threads")? as usize,
            threshold: field_f64(c, "threshold")?,
            warm_starting: field_bool(c, "warm_starting")?,
            simd: SimdMode::from_name(&simd).ok_or(format!("unknown simd mode {simd:?}"))?,
            digests: field_bool(c, "digests")?,
            sleeping: field_bool(c, "sleeping")?,
            scenes: field_arr(c, "scenes")?
                .iter()
                .map(|n| {
                    n.as_str()
                        .and_then(crate::benchmark_by_name)
                        .ok_or(format!("unknown scene {n:?}"))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    fn threshold(&self) -> Option<f64> {
        Some(self.threshold)
    }
}

/// Runs every scene in `cfg` and records its samples. Telemetry is
/// switched on for the duration so counter deltas are captured, then
/// restored to its previous state; span rings are drained per scene so
/// a long recording cannot overflow them.
pub fn record(cfg: &GateConfig) -> Envelope<GateConfig> {
    record_interleaved(&[cfg]).pop().expect("one side recorded")
}

/// Records two configurations as one pass, *interleaved in small step
/// blocks within each scene*: two instances of the scene run
/// alternately (A block, B block, A block, …) until both have their
/// sample budget.
///
/// Sequential `record` passes minutes apart are confounded by slow host
/// drift (thermal/scheduling) that the per-step bootstrap CI cannot
/// see — identical builds routinely differ by 10% across passes on a
/// busy host. Interleaving makes any drift hit both configurations
/// nearly equally, so an A-vs-B comparison measures the configuration
/// change, not the weather. Telemetry counter deltas cannot be split per
/// side, so both sides record none.
pub fn record_paired(
    a: &GateConfig,
    b: &GateConfig,
) -> (Envelope<GateConfig>, Envelope<GateConfig>) {
    let mut docs = record_interleaved(&[a, b]).into_iter();
    let a = docs.next().expect("side a recorded");
    (a, docs.next().expect("side b recorded"))
}

/// The one scene recorder behind [`record`] and [`record_paired`]: per
/// scene, builds one instance per side, warms each up, then steps the
/// sides in turn, a block of steps at a time, until every side has its
/// samples.
fn record_interleaved(sides: &[&GateConfig]) -> Vec<Envelope<GateConfig>> {
    /// Steps run on one side before yielding to the next: small enough
    /// that drift within a block is negligible, large enough that cache
    /// warmup from the side switch does not dominate.
    const BLOCK: usize = 8;
    let scenes = &sides[0].scenes;
    assert!(
        sides.iter().all(|c| c.scenes == *scenes),
        "interleaved recording needs one scene list"
    );
    let was_enabled = parallax_telemetry::enabled();
    parallax_telemetry::set_enabled(true);
    let mut discard = Vec::new();
    let mut groups: Vec<Vec<Group>> = vec![Vec::new(); sides.len()];
    for &id in scenes {
        let mut runs: Vec<(Scene, [Vec<f64>; 5], usize)> = sides
            .iter()
            .map(|cfg| {
                let mut scene = id.build(&SceneParams {
                    scale: cfg.scale,
                    threads: cfg.threads,
                    warm_starting: cfg.warm_starting,
                    simd: cfg.simd,
                    digests: cfg.digests,
                    sleeping: cfg.sleeping,
                    ..SceneParams::default()
                });
                for _ in 0..cfg.warmup {
                    scene.step();
                }
                (scene, Default::default(), 0)
            })
            .collect();
        parallax_telemetry::drain_spans(&mut discard);
        let before = parallax_telemetry::snapshot();
        while runs
            .iter()
            .zip(sides)
            .any(|(r, cfg)| r.1[0].len() < cfg.steps)
        {
            for ((scene, walls, bodies), cfg) in runs.iter_mut().zip(sides) {
                for _ in 0..BLOCK.min(cfg.steps - walls[0].len()) {
                    *bodies = sample_step(scene, walls);
                }
            }
        }
        let counters = match sides {
            [_] => parallax_telemetry::snapshot().delta_since(&before).counters,
            _ => Vec::new(),
        };
        parallax_telemetry::drain_spans(&mut discard);
        for (docs, (_, walls, bodies)) in groups.iter_mut().zip(runs) {
            let mut values = vec![("bodies".to_string(), bodies as f64)];
            values.extend(counters.iter().map(|(k, v)| (k.clone(), *v as f64)));
            docs.push(Group {
                name: id.name().to_string(),
                values,
                series: phase_series(walls),
            });
        }
    }
    parallax_telemetry::set_enabled(was_enabled);
    sides
        .iter()
        .zip(groups)
        .map(|(cfg, g)| Envelope::new((*cfg).clone(), g))
        .collect()
}

/// Steps `scene` once, appending each phase's wall time (ns) to `walls`
/// in [`PhaseKind::ALL`] order; returns the enabled body count.
pub(crate) fn sample_step(scene: &mut Scene, walls: &mut [Vec<f64>; 5]) -> usize {
    let profile = scene.step();
    for (samples, w) in walls.iter_mut().zip(&profile.wall) {
        samples.push(w.as_nanos() as f64);
    }
    profile.body_count
}

/// Names per-phase samples and appends their per-step sum as
/// [`STEP_TOTAL`]: phase rows can individually sit inside the threshold
/// while their sum drifts past it.
pub(crate) fn phase_series(walls: [Vec<f64>; 5]) -> Vec<(String, Vec<f64>)> {
    let n = walls.iter().map(Vec::len).min().unwrap_or(0);
    let total = (0..n).map(|s| walls.iter().map(|p| p[s]).sum()).collect();
    let mut series: Vec<(String, Vec<f64>)> = PhaseKind::ALL
        .iter()
        .zip(walls)
        .map(|(phase, w)| (phase.name().to_string(), w))
        .collect();
    series.push((STEP_TOTAL.to_string(), total));
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{compare_series, SCHEMA_VERSION};

    fn tiny_config() -> GateConfig {
        GateConfig {
            steps: 4,
            warmup: 1,
            scale: 0.05,
            threads: 1,
            threshold: 0.35,
            warm_starting: true,
            simd: SimdMode::Scalar,
            digests: false,
            sleeping: false,
            scenes: vec![BenchmarkId::Periodic, BenchmarkId::Ragdoll],
        }
    }

    #[test]
    fn record_captures_all_phases_for_every_scene() {
        let b = record(&tiny_config());
        assert_eq!(b.groups.len(), 2);
        for g in &b.groups {
            // Five phases plus the step total.
            assert_eq!(g.series.len(), 6, "{}", g.name);
            for (name, samples) in &g.series {
                assert_eq!(samples.len(), 4, "{} {name}", g.name);
            }
            assert!(g.value("bodies") > 0.0);
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = record(&tiny_config());
        let parsed = Envelope::<GateConfig>::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.config.to_json(), b.config.to_json());
        assert_eq!(parsed.config.scenes, b.config.scenes);
        assert_eq!(parsed.groups, b.groups);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let parse = Envelope::<GateConfig>::from_json;
        assert!(parse("not json").is_err());
        let err = parse("{\"schema_version\": 999}").unwrap_err();
        assert!(err.contains("bench_gate record"), "{err}");
        let wrong = format!(
            "{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"executor_scaling\"}}"
        );
        let err = parse(&wrong).unwrap_err();
        assert!(err.contains("executor_scaling"), "{err}");
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let b = record(&tiny_config());
        let rows = compare_series(&b.groups, &b.groups, 0.35);
        // 5 phase rows + 1 step-total row per scene.
        assert_eq!(rows.len(), 2 * 6);
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    #[test]
    fn quick_widens_but_never_narrows_threshold() {
        let q = GateConfig::default().quick();
        assert_eq!(q.steps, 10);
        assert_eq!(q.threshold, 1.0);
        let strict = GateConfig {
            threshold: 2.5,
            ..GateConfig::default()
        }
        .quick();
        assert_eq!(strict.threshold, 2.5);
    }
}
