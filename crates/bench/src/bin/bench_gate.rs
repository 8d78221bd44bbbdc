//! The performance regression gate.
//!
//! ```text
//! bench_gate record  [--out BENCH_scenes.json] [--steps N] [--warmup N]
//!                    [--scale F] [--threads N] [--quick]
//! bench_gate compare [--baseline BENCH_scenes.json] [--threshold F]
//!                    [--steps N] [--warmup N] [--quick]
//!                    [--allow-missing-baseline]
//! ```
//!
//! `record` steps every paper scene for a fixed window and writes the
//! raw per-phase wall-time samples (plus telemetry counter deltas) to a
//! BENCH envelope (schema v2, see `parallax_bench::envelope`). `compare`
//! re-runs the same scenes at the baseline's scale/threads and exits
//! nonzero when any scene×phase is statistically significantly slower
//! than the baseline beyond the threshold — "significantly" meaning the
//! entire bootstrap confidence interval of the relative median change
//! clears it, so one noisy step on a busy host cannot fail CI.
//!
//! `--quick` is the CI smoke shape: 10 steps and a +100% threshold, so
//! it only trips on catastrophic slowdowns but still exercises the full
//! record → parse → compare → verdict path on every run.

use parallax_bench::envelope::{
    flag_value, run_compare, write_document, Envelope, GateArgs, STEP_TOTAL,
};
use parallax_bench::harness::{record, record_paired, GateConfig};
use parallax_bench::print_table;
use parallax_math::SimdMode;

const USAGE: &str = "usage: bench_gate record  [--out PATH] [--steps N] [--warmup N] \
                     [--scale F] [--threads N] [--simd MODE] [--sleep on|off] [--quick]\n\
                     \x20      bench_gate compare [--baseline PATH] [--threshold F] \
                     [--steps N] [--warmup N] [--simd MODE] [--sleep on|off] [--quick] \
                     [--allow-missing-baseline]\n\
                     MODE: scalar | sse2 | avx2 (record defaults to the widest the CPU \
                     supports; compare defaults to the baseline's recorded mode)\n\
                     --sleep: island sleeping (record defaults to off; compare defaults \
                     to the baseline's recorded setting)";

fn main() {
    let mut cfg = GateConfig::default();
    let (mut steps, mut warmup) = (None, None);
    // An explicit `--simd`/`--sleep` choice. For `compare` it overrides
    // the baseline's recorded setting, and the comparison then
    // *measures* the kernel or sleeping speedup instead of gating a code
    // change.
    let (mut simd, mut sleep) = (None, None);
    let args = GateArgs::parse("BENCH_scenes.json", USAGE, |flag, rest| {
        match flag {
            "--steps" => steps = Some(flag_value::<usize>(flag, rest)?),
            "--warmup" => warmup = Some(flag_value(flag, rest)?),
            "--scale" => cfg.scale = flag_value(flag, rest)?,
            "--threads" => cfg.threads = flag_value(flag, rest)?,
            "--simd" => {
                let name: String = flag_value(flag, rest)?;
                simd = Some(
                    SimdMode::from_name(&name)
                        .ok_or(format!("--simd: unknown mode {name:?} (scalar|sse2|avx2)"))?,
                );
            }
            "--sleep" => {
                sleep = Some(match flag_value::<String>(flag, rest)?.as_str() {
                    "on" | "1" | "true" => true,
                    "off" | "0" | "false" => false,
                    other => return Err(format!("--sleep: expected on|off, got {other:?}")),
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Some(t) = args.threshold {
        cfg.threshold = t;
    }
    if args.quick {
        cfg = cfg.quick();
    }
    if let Some(s) = steps {
        cfg.steps = s.max(2);
    }
    cfg.warmup = warmup.unwrap_or(cfg.warmup);
    cfg.simd = simd.unwrap_or(cfg.simd);
    cfg.sleeping = sleep.unwrap_or(cfg.sleeping);
    if args.compare {
        run_compare(&args, cfg.threshold, |base| {
            measure(base, &cfg, simd, sleep)
        });
    } else {
        run_record(&args, &cfg);
    }
}

fn run_record(args: &GateArgs, cfg: &GateConfig) {
    println!(
        "recording {} scene(s): {} steps (+{} warmup) @ scale {}, {} thread(s), {} kernels, \
         sleeping {}",
        cfg.scenes.len(),
        cfg.steps,
        cfg.warmup,
        cfg.scale,
        cfg.threads,
        cfg.simd.clamp_to_supported().name(),
        if cfg.sleeping { "on" } else { "off" }
    );
    let baseline = record(cfg);
    let rows: Vec<Vec<String>> = baseline
        .groups
        .iter()
        .map(|g| {
            let step_ns = g.series(STEP_TOTAL).unwrap_or(&[]);
            let med = parallax_telemetry::median(step_ns).unwrap_or(0.0);
            vec![
                g.name.clone(),
                g.value("bodies").to_string(),
                format!("{:.3}", med / 1e6),
            ]
        })
        .collect();
    print_table("Recorded medians", &["Scene", "Bodies", "Step ms"], &rows);
    write_document(&baseline, &args.path);
}

/// The measuring half of `compare`: re-runs the baseline's workload and
/// returns the (baseline, fresh) pair to gate.
fn measure(
    base: Envelope<GateConfig>,
    cfg: &GateConfig,
    simd: Option<SimdMode>,
    sleep: Option<bool>,
) -> (Envelope<GateConfig>, Envelope<GateConfig>) {
    let b = &base.config;
    // A baseline is only meaningful against the kernels it measured:
    // comparing a scalar baseline against an AVX2 run would gate on the
    // SIMD speedup, not on a code change. The fresh run therefore runs at
    // the baseline's recorded mode unless `--simd` explicitly asks for a
    // cross-mode comparison (which measures the kernel speedup itself);
    // surface whichever situation holds.
    let cross_mode = matches!(simd, Some(m) if m != b.simd);
    let active = SimdMode::detect();
    if simd.is_none() && b.simd != active {
        eprintln!(
            "warning: baseline was recorded with {} kernels but this CPU supports {}; \
             comparing at the baseline's mode. Re-record with `bench_gate record` to gate \
             the {} kernels.",
            b.simd.name(),
            active.name(),
            active.name()
        );
    }
    // Island sleeping follows the same rule as SIMD.
    let cross_sleep = matches!(sleep, Some(s) if s != b.sleeping);

    // The fresh run must match the baseline's workload exactly; only the
    // sample count and an explicit --simd/--sleep are the comparer's
    // choice.
    let fresh = GateConfig {
        scale: b.scale,
        threads: b.threads,
        warm_starting: b.warm_starting,
        simd: simd.unwrap_or(b.simd),
        digests: b.digests,
        sleeping: sleep.unwrap_or(b.sleeping),
        scenes: b.scenes.clone(),
        ..cfg.clone()
    };
    println!(
        "measuring {} steps (+{} warmup) @ scale {}, {} thread(s), {} kernels, sleeping {}",
        fresh.steps,
        fresh.warmup,
        fresh.scale,
        fresh.threads,
        fresh.simd.clamp_to_supported().name(),
        if fresh.sleeping { "on" } else { "off" }
    );
    if !cross_mode && !cross_sleep {
        // Same-config gating keeps the stored samples: that comparison
        // against the past is the point of the gate.
        let fresh = record(&fresh);
        return (base, fresh);
    }
    // Cross-config: the stored samples were taken minutes-to-months ago,
    // and slow host drift between then and now easily exceeds a kernel or
    // sleeping effect. Re-measure *both* configurations interleaved
    // within each scene so drift cancels; the stored baseline only
    // contributes the workload configuration.
    let on_off = |on: bool| if on { "on" } else { "off" };
    if cross_mode {
        eprintln!(
            "note: cross-mode comparison: re-measuring {} and {} kernels interleaved \
             (stored samples are not drift-comparable). Verdicts measure the kernel \
             change, not a code change.",
            b.simd.name(),
            fresh.simd.name()
        );
    }
    if cross_sleep {
        eprintln!(
            "note: cross-sleep comparison: re-measuring sleeping {} and {} interleaved \
             (stored samples are not drift-comparable). Verdicts measure the sleeping \
             change, not a code change.",
            on_off(b.sleeping),
            on_off(fresh.sleeping)
        );
    }
    let base_cfg = GateConfig {
        simd: b.simd,
        sleeping: b.sleeping,
        ..fresh.clone()
    };
    record_paired(&base_cfg, &fresh)
}
