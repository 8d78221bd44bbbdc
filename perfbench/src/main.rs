//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload mix|fleet --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! One run measures one workload in its own process. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it records spans around
//! its calls into the engine and the server, writes them under `out/`
//! next to this package's manifest, and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed correctness check makes the exit code nonzero.
//! `--smoke` shrinks every workload so that a run takes a second or two.
//! See `README.md` for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod fleet;
mod scene;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use parallax_bench::harness::Fingerprint;
use parallax_physics::SimdMode;
use parallax_telemetry as telemetry;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("sustain", "ratio"),
    ("req_ms_p50", "ms"),
    ("req_within_tick_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("physics.broadphase.ms", "ms"),
    ("physics.broadphase.overlap_tests", "count"),
    ("physics.broadphase.pairs", "count"),
    ("physics.broadphase.ns_per_test", "ns"),
    ("physics.broadphase.pair_yield", "ratio"),
    ("physics.narrowphase.ms", "ms"),
    ("physics.narrowphase.pairs", "count"),
    ("physics.narrowphase.active_frac", "ratio"),
    ("physics.narrowphase.contact_yield", "ratio"),
    ("physics.narrowphase.ns_per_pair", "ns"),
    ("physics.island.ms", "ms"),
    ("physics.island.union_ops", "count"),
    ("physics.island.islands", "count"),
    ("physics.solver.ms", "ms"),
    ("physics.solver.row_iters", "count"),
    ("physics.solver.ns_per_row_iter", "ns"),
    ("physics.solver.queued_frac", "ratio"),
    ("physics.solver.warm_hit_frac", "ratio"),
    ("physics.cloth.ms", "ms"),
    ("physics.cloth.projections", "count"),
    ("physics.cloth.collision_tests", "count"),
    ("physics.cloth.ns_per_projection", "ns"),
    ("physics.parallel.idle_frac", "ratio"),
    ("physics.parallel.tasks", "count"),
    ("physics.step.ms", "ms"),
    ("physics.step.self_ms", "ms"),
    ("workloads.actors_ms", "ms"),
    ("physics.sleep.sleeping_frac", "ratio"),
    ("server.session.step_us_p50", "us"),
    ("server.session.step_us_p99", "us"),
    ("physics.snapshot.snapshot_ms", "ms"),
    ("physics.snapshot.restore_ms", "ms"),
    ("physics.snapshot.bytes", "bytes"),
    ("server.http.state.ms_p50", "ms"),
    ("server.http.state.ms_p99", "ms"),
    ("server.http.step.ms_p50", "ms"),
    ("server.http.step.ms_p99", "ms"),
    ("server.http.snapshot.ms_p50", "ms"),
    ("server.http.snapshot.ms_p99", "ms"),
    ("server.http.restore.ms_p50", "ms"),
    ("server.http.restore.ms_p99", "ms"),
    ("server.http.metrics.ms_p50", "ms"),
    ("server.http.metrics.ms_p99", "ms"),
    ("server.http.create.ms_p50", "ms"),
    ("server.http.create.ms_p99", "ms"),
    ("server.scheduler.batch_sessions_p50", "count"),
    ("server.scheduler.sustain_min_window", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    Mix,
    Fleet,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix => "mix",
            Workload::Fleet => "fleet",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload mix|fleet --seed N --seconds S --trace 0|1 [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "mix" => Workload::Mix,
                    "fleet" => Workload::Fleet,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
    })
}

/// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures that are not per-operation (digest mismatches).
    pub notes: Vec<String>,
    /// Digest that every run of this workload and seed must reproduce.
    pub digest: u64,
    pub metrics: Metrics,
    pub spans: spans::Recorder,
}

/// Metrics read from the engine's registry counters over a traced window
/// that took `steps` world steps.
pub fn registry_metrics(m: &mut Metrics, counters: &telemetry::Snapshot, steps: f64) {
    let mut busy = 0u64;
    let mut idle = 0u64;
    for (name, v) in counters.counters_with_prefix("physics.executor.worker") {
        if name.ends_with(".busy_ns") {
            busy += v;
        } else if name.ends_with(".idle_ns") {
            idle += v;
        }
    }
    m.set(
        "physics.parallel.idle_frac",
        ratio(idle as f64, (busy + idle) as f64),
    );
    m.set(
        "physics.parallel.tasks",
        ratio(counters.counter("physics.executor.tasks") as f64, steps),
    );
    let hits = counters.counter("physics.solver.warm_hits") as f64;
    let misses = counters.counter("physics.solver.warm_misses") as f64;
    m.set("physics.solver.warm_hit_frac", ratio(hits, hits + misses));
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Checks `digest` against the one an earlier run of the same build,
/// workload, size and seed recorded (traced or not), recording it if none
/// did. The build is told apart by the executable's size and modification
/// time, so a rebuild that changes trajectories starts a new record.
fn check_digest_record(args: &Args, digest: u64) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_err(|e| format!("reading the executable's metadata: {e}"))?;
    let mtime = exe
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    let size = if args.smoke { "smoke" } else { "full" };
    let dir = out_dir().join("digests");
    let path = dir.join(format!(
        "{}-{size}-{}-{:x}-{mtime}.txt",
        args.workload.name(),
        args.seed,
        exe.len()
    ));
    match std::fs::read_to_string(&path) {
        Ok(text) if text.trim() == format!("{digest:016x}") => Ok(()),
        Ok(text) => Err(format!(
            "digest {digest:016x} differs from {} recorded by an earlier run in {}",
            text.trim(),
            path.display()
        )),
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, format!("{digest:016x}\n")).map_err(|e| e.to_string())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Library defaults read these; a benchmark run must not depend on them.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PARALLAX_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; unset them");
        return ExitCode::from(2);
    }
    let host = Fingerprint::current();
    println!(
        "host: os={} arch={} hw_threads={} simd={}",
        host.os,
        host.arch,
        host.hw_threads,
        SimdMode::detect().name()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} size={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" }
    );

    let mut outcome = match args.workload {
        Workload::Mix => scene::run(&args),
        Workload::Fleet => fleet::run(&args),
    };
    if let Err(e) = check_digest_record(&args, outcome.digest) {
        outcome.notes.push(e);
    }
    if args.trace {
        let path = out_dir().join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match outcome.spans.write_jsonl(&path) {
            Ok(()) => println!(
                "trace: {} spans in {}",
                outcome.spans.spans.len(),
                path.display()
            ),
            Err(e) => outcome
                .notes
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.notes.push(format!("{name} measured as {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => panic!("workload {} did not set {name}", args.workload.name()),
        };
        println!("{name:<40} {value:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace {
        for (name, unit) in END_TO_END {
            if let Some(v) = outcome.metrics.get(name) {
                println!("untraced {name:<31} {v:>14.6} {unit}");
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let correct = outcome.notes.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed + outcome.notes.len() as u64,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
