//! Executor scaling: wall-clock steps/sec of the real pipeline versus
//! executor width on the Mix scene, written to `BENCH_pipeline.json`
//! (a BENCH envelope, schema v2; see `parallax_bench::envelope`).
//!
//! This is the one experiment that measures the engine's actual parallel
//! execution (the persistent executor behind the narrow-phase, island
//! processing and cloth stages) rather than the modeled CG/FG timing.
//! Environment: `PARALLAX_SCALE` (default 0.25), `PARALLAX_EXEC_STEPS`
//! (default 60), `PARALLAX_EXEC_THREADS` (comma list starting with 1,
//! default `1,2,4,8`). A value that does not parse exits 2.

use std::str::FromStr;

use parallax_bench::executor_scaling::{self, ScalingConfig};
use parallax_bench::print_table;
use parallax_physics::PhaseKind;
use parallax_workloads::BenchmarkId;

/// Reads `name` from the environment, `default` when unset; exits 2 when
/// it is set but does not parse.
fn env_or<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("error: {name}={v:?} does not parse");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let steps = env_or("PARALLAX_EXEC_STEPS", 60usize).max(1);
    let threads: Vec<usize> = env_or::<String>("PARALLAX_EXEC_THREADS", "1,2,4,8".into())
        .split(',')
        .map(|t| t.trim().parse().ok())
        .collect::<Option<_>>()
        .filter(|t: &Vec<usize>| t.first() == Some(&1))
        .unwrap_or_else(|| {
            eprintln!(
                "error: PARALLAX_EXEC_THREADS must be a comma list of counts starting with 1"
            );
            std::process::exit(2);
        });
    let report = executor_scaling::run(ScalingConfig {
        scene: BenchmarkId::Mix,
        scale: env_or("PARALLAX_SCALE", 0.25),
        threads,
        warmup: steps / 4,
        steps,
    });

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            let wall = p.phase_wall();
            let serial: f64 = PhaseKind::ALL
                .iter()
                .zip(wall)
                .filter(|(k, _)| k.is_serial())
                .map(|(_, w)| w)
                .sum();
            let total: f64 = wall.iter().sum();
            vec![
                p.threads.to_string(),
                format!("{:.1}", p.steps_per_sec),
                format!("{:.2}x", p.speedup),
                format!("{:.0}%", 100.0 * serial / total.max(1e-12)),
            ]
        })
        .collect();
    let cfg = &report.config;
    print_table(
        &format!(
            "Executor scaling: Mix @ scale {} ({} hw thread(s))",
            cfg.scale, report.available_parallelism
        ),
        &["Threads", "Steps/s", "Speedup", "Serial wall"],
        &rows,
    );
    println!(
        "\nParallel fraction (1-thread wall): {:.0}%  |  Amdahl bound at {} threads: {:.2}x",
        report.parallel_fraction * 100.0,
        cfg.threads.last().expect("at least the 1-thread point"),
        report.amdahl_bound
    );
    if report.serial_bound {
        println!("Serial-bound run: {}", report.serial_bound_reason);
    }

    parallax_bench::envelope::write_document(&report.envelope(), "BENCH_pipeline.json");
}
