//! The simulation-service throughput/latency gate.
//!
//! ```text
//! server_bench record  [--out BENCH_server.json] [--sessions N] [--bodies N]
//!                      [--rate HZ] [--measure-ms N] [--clients N] [--quick]
//! server_bench compare [--baseline BENCH_server.json] [--threshold F] [--quick]
//!                      [--allow-missing-baseline]
//! ```
//!
//! `record` sweeps sessions×bodies cells (each against a fresh
//! `parallax-server` on an ephemeral port), writing achieved steps/s
//! samples and closed-loop request latencies to a schema-versioned
//! baseline. `compare` re-runs the baseline's cells and exits nonzero
//! when throughput or p99-relevant latency is statistically slower than
//! the baseline beyond the threshold.
//!
//! Both modes enforce the sustain floor on the flagship cell: the
//! ROADMAP's claim is ~1000 concurrent 100-body sessions at 60 Hz on
//! one process, so a run that cannot keep `achieved/ideal ≥ min_sustain`
//! fails regardless of how it compares to the baseline.

use parallax_bench::envelope::{flag_value, run_compare, write_document, Envelope, GateArgs};
use parallax_bench::print_table;
use parallax_bench::server_gate::{record, steps_per_sec, ServerGateConfig};

const USAGE: &str = "usage: server_bench record  [--out PATH] [--sessions N] [--bodies N] \
                     [--rate HZ] [--measure-ms N] [--clients N] [--quick]\n\
                     \x20      server_bench compare [--baseline PATH] [--threshold F] \
                     [--quick] [--allow-missing-baseline]\n\
                     --sessions/--bodies replace the sweep with a single cell";

fn main() {
    let mut cfg = ServerGateConfig::default();
    let (mut sessions, mut bodies) = (None, None);
    let args = GateArgs::parse("BENCH_server.json", USAGE, |flag, rest| {
        match flag {
            "--sessions" => sessions = Some(flag_value(flag, rest)?),
            "--bodies" => bodies = Some(flag_value(flag, rest)?),
            "--rate" => cfg.step_rate = flag_value(flag, rest)?,
            "--measure-ms" => cfg.measure_ms = flag_value(flag, rest)?,
            "--clients" => cfg.clients = flag_value(flag, rest)?,
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
    if sessions.is_some() || bodies.is_some() {
        cfg.cells = vec![(sessions.unwrap_or(1000), bodies.unwrap_or(100))];
    }
    if !args.compare {
        println!(
            "recording {} cell(s) at {} Hz: warmup {} ms, measure {} ms, {} client(s)",
            cfg.cells.len(),
            cfg.step_rate,
            cfg.warmup_ms,
            cfg.measure_ms,
            cfg.clients
        );
        let baseline = record_with_table(&cfg);
        write_document(&baseline, &args.path);
        enforce_sustain(&baseline);
        return;
    }
    let fresh = run_compare(&args, cfg.threshold, |base: Envelope<ServerGateConfig>| {
        // Measure the baseline's cells at the baseline's shape; sample
        // windows and threshold are the comparer's choice.
        let fresh = record_with_table(&ServerGateConfig {
            cells: base.config.cells.clone(),
            step_rate: base.config.step_rate,
            min_sustain: base.config.min_sustain,
            ..cfg.clone()
        });
        (base, fresh)
    });
    // Without a baseline, still measure and enforce the sustain floor:
    // the service claim holds on its own, baseline or not.
    enforce_sustain(&fresh.unwrap_or_else(|| record_with_table(&cfg)));
}

/// Records `cfg` and prints the per-cell table.
fn record_with_table(cfg: &ServerGateConfig) -> Envelope<ServerGateConfig> {
    let doc = record(cfg);
    let rows: Vec<Vec<String>> = doc
        .groups
        .iter()
        .map(|c| {
            let sessions = c.value("sessions");
            vec![
                sessions.to_string(),
                c.value("bodies").to_string(),
                format!("{:.0}", steps_per_sec(c)),
                format!("{:.0}", sessions * cfg.step_rate),
                format!("{:.2}", c.value("sustain")),
                format!("{:.2}", c.value("latency_p99_ns") / 1e6),
                c.value("requests").to_string(),
            ]
        })
        .collect();
    print_table(
        "Server gate",
        &[
            "Sessions", "Bodies", "Steps/s", "Ideal", "Sustain", "p99 ms", "Requests",
        ],
        &rows,
    );
    doc
}

/// Applies the sustain floor; exits 1 when any cell misses it.
fn enforce_sustain(doc: &Envelope<ServerGateConfig>) {
    let floor = doc.config.min_sustain;
    let mut failed = false;
    for c in doc.groups.iter().filter(|c| c.value("sustain") < floor) {
        eprintln!(
            "SUSTAIN FAILED: {} sustained only {:.0}% of {} Hz (floor {:.0}%)",
            c.name,
            c.value("sustain") * 100.0,
            doc.config.step_rate,
            floor * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
