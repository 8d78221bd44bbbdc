//! The `server_bench` harness: record and gate the multi-world
//! simulation service (`parallax-server`).
//!
//! Where `bench_gate` measures one world's step pipeline, this gate
//! measures the *fleet* shape the ROADMAP targets: N concurrent
//! ~100-body sessions each scheduled at a fixed step rate, with
//! closed-loop HTTP clients querying `/state` the whole time. Per
//! sweep cell it records
//!
//! * **throughput** — achieved scheduled steps/s across the fleet,
//!   sampled per subwindow (vs the ideal `sessions × step_rate`), and
//! * **request latency** — per-request wall times of the closed-loop
//!   clients, with the p99 reported.
//!
//! The baseline (`BENCH_server.json`) is a [`crate::envelope`] document
//! with one group per cell. Throughput is stored as per-step periods
//! ([`STEP_PERIOD`]) so that both gated series are costs ("bigger =
//! slower").
//!
//! Each cell runs against a fresh server on an ephemeral port. The
//! sessions are generated settled-stack worlds: they are created with
//! `step_rate: 0`, manually stepped until their islands sleep (the
//! steady state a long-lived game level lives in), then switched to
//! the target rate with `POST /sessions/:id/rate` — which is also the
//! end-to-end exercise of the runtime rate knob.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_telemetry::json::Json;
pub use parallax_telemetry::stats::percentile;

use crate::envelope::{field_arr, field_f64, field_u64, Config, Envelope, Group, STEP_PERIOD};

/// Series name of a cell's closed-loop request latencies.
pub const REQUEST_LATENCY: &str = "request latency";

/// Steps each session is manually stepped before measurement so its
/// stacks reach their sleeping steady state (the slowest seeds settle
/// around step 210; past that the fully-asleep fast path engages).
const SETTLE_STEPS: u64 = 240;

/// Latency samples kept per cell in the baseline (evenly thinned; the
/// p99 is computed before thinning).
const MAX_STORED_LATENCIES: usize = 500;

/// How a server baseline is recorded and compared.
#[derive(Debug, Clone)]
pub struct ServerGateConfig {
    /// Sweep cells: `(sessions, bodies_per_session)`.
    pub cells: Vec<(usize, usize)>,
    /// Scheduled rate per session, Hz.
    pub step_rate: f64,
    /// Settling-in time after the rate switch, before measurement.
    pub warmup_ms: u64,
    /// Measurement window.
    pub measure_ms: u64,
    /// Throughput samples taken across the window.
    pub subwindows: usize,
    /// Closed-loop client threads hitting `/state` during measurement.
    pub clients: usize,
    /// Per-request client think time, milliseconds. Real consumers poll a
    /// session at some frame rate; zero think time turns the clients into
    /// a CPU-saturating load generator that starves the scheduler on
    /// small hosts and measures contention, not service latency.
    pub think_ms: u64,
    /// Relative median-change threshold for regressions. Service-level
    /// numbers are noisier than kernel times, so the default is wider
    /// than the scene gate's.
    pub threshold: f64,
    /// Minimum achieved/ideal throughput ratio for the flagship cell;
    /// below it the run itself fails (the ROADMAP's "thousands of
    /// worlds at 60 Hz" claim is load-bearing).
    pub min_sustain: f64,
}

impl Default for ServerGateConfig {
    fn default() -> Self {
        ServerGateConfig {
            cells: vec![(100, 100), (500, 100), (1000, 100)],
            step_rate: 60.0,
            warmup_ms: 2000,
            measure_ms: 4000,
            subwindows: 8,
            clients: 2,
            think_ms: 5,
            threshold: 0.5,
            min_sustain: 0.9,
        }
    }
}

impl ServerGateConfig {
    /// The CI smoke variant: only the flagship 1000×100 cell, shorter
    /// windows, a threshold so wide only a catastrophe trips it. The
    /// sustain check stays at full strength — that is the claim CI
    /// exists to protect.
    pub fn quick(mut self) -> ServerGateConfig {
        self.cells = vec![(1000, 100)];
        self.warmup_ms = 1500;
        self.measure_ms = 2500;
        self.subwindows = 5;
        self.threshold = self.threshold.max(1.0);
        self
    }
}

impl Config for ServerGateConfig {
    const EXPERIMENT: &'static str = "server_gate";
    const RECORD: &'static str = "server_bench record";

    fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|(s, b)| format!("[{s}, {b}]"))
            .collect();
        format!(
            "{{\"step_rate\": {}, \"warmup_ms\": {}, \"measure_ms\": {}, \"subwindows\": {}, \
             \"clients\": {}, \"think_ms\": {}, \"threshold\": {}, \"min_sustain\": {}, \
             \"cells\": [{}]}}",
            self.step_rate,
            self.warmup_ms,
            self.measure_ms,
            self.subwindows,
            self.clients,
            self.think_ms,
            self.threshold,
            self.min_sustain,
            cells.join(", ")
        )
    }

    fn from_json(c: &Json) -> Result<ServerGateConfig, String> {
        let cell = |v: &Json| match v.as_arr() {
            Some([s, b]) => Some((s.as_u64()? as usize, b.as_u64()? as usize)),
            _ => None,
        };
        Ok(ServerGateConfig {
            cells: field_arr(c, "cells")?
                .iter()
                .map(|v| cell(v).ok_or("config cell must be [sessions, bodies]"))
                .collect::<Result<_, _>>()?,
            step_rate: field_f64(c, "step_rate")?,
            warmup_ms: field_u64(c, "warmup_ms")?,
            measure_ms: field_u64(c, "measure_ms")?,
            subwindows: field_u64(c, "subwindows")? as usize,
            clients: field_u64(c, "clients")? as usize,
            think_ms: field_u64(c, "think_ms")?,
            threshold: field_f64(c, "threshold")?,
            min_sustain: field_f64(c, "min_sustain")?,
        })
    }

    fn threshold(&self) -> Option<f64> {
        Some(self.threshold)
    }
}

fn thin(samples: &[f64], keep: usize) -> Vec<f64> {
    if samples.len() <= keep {
        return samples.to_vec();
    }
    (0..keep)
        .map(|i| samples[i * samples.len() / keep])
        .collect()
}

/// Records every cell in `cfg`, each against a fresh server on an
/// ephemeral port. Each cell is one group named `"{sessions}x{bodies}"`
/// with values `sessions`, `bodies`, `sustain` (whole-window
/// achieved/ideal steps), `latency_p99_ns` (over every request, before
/// thinning) and `requests`. Prints one progress line per cell.
pub fn record(cfg: &ServerGateConfig) -> Envelope<ServerGateConfig> {
    let mut cells = Vec::with_capacity(cfg.cells.len());
    for &(sessions, bodies) in &cfg.cells {
        println!("cell {sessions} session(s) x {bodies} bodies: starting server...");
        let cell = record_cell(sessions, bodies, cfg);
        println!(
            "  achieved {:.0} steps/s of {:.0} ideal (sustain {:.2}), \
             p99 request latency {:.2} ms over {} request(s)",
            steps_per_sec(&cell),
            sessions as f64 * cfg.step_rate,
            cell.value("sustain"),
            cell.value("latency_p99_ns") / 1e6,
            cell.value("requests")
        );
        cells.push(cell);
    }
    Envelope::new(cfg.clone(), cells)
}

/// A cell's median achieved fleet steps/s, from its step periods.
pub fn steps_per_sec(cell: &Group) -> f64 {
    let period = cell
        .series(STEP_PERIOD)
        .and_then(parallax_telemetry::median)
        .unwrap_or(0.0);
    if period > 0.0 {
        1e9 / period
    } else {
        0.0
    }
}

/// Spawns `threads` workers over the session id range, each issuing
/// `POST /sessions/:id/step?n=SETTLE_STEPS` for its share.
fn settle_sessions(addr: SocketAddr, ids: &[u64], threads: usize) {
    std::thread::scope(|scope| {
        for chunk in ids.chunks(ids.len().div_ceil(threads.max(1))) {
            scope.spawn(move || {
                for id in chunk {
                    let path = format!("/sessions/{id}/step?n={SETTLE_STEPS}");
                    parallax_telemetry::http_request(addr, "POST", &path, "", b"")
                        .expect("settle step");
                }
            });
        }
    });
}

fn record_cell(sessions: usize, bodies: usize, cfg: &ServerGateConfig) -> Group {
    let server = parallax_server::serve("127.0.0.1:0").expect("bind server");
    let addr = server.addr();

    // Create the fleet parked (rate 0), settle it to sleep, then switch
    // every session to the target rate through the public rate knob.
    let mut ids = Vec::with_capacity(sessions);
    for seed in 0..sessions {
        let body = format!("{{\"bodies\":{bodies},\"seed\":{seed},\"step_rate\":0}}");
        let (status, resp) = parallax_telemetry::http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            body.as_bytes(),
        )
        .expect("create session");
        assert_eq!(
            status,
            200,
            "create failed: {}",
            String::from_utf8_lossy(&resp)
        );
        let id = Json::parse(std::str::from_utf8(&resp).expect("utf8"))
            .expect("create response json")
            .get("id")
            .and_then(Json::as_u64)
            .expect("id");
        ids.push(id);
    }
    settle_sessions(addr, &ids, cfg.clients.max(2));
    for id in &ids {
        let path = format!("/sessions/{id}/rate?hz={}", cfg.step_rate);
        let (status, _) =
            parallax_telemetry::http_request(addr, "POST", &path, "", b"").expect("set rate");
        assert_eq!(status, 200, "rate switch failed for session {id}");
    }
    std::thread::sleep(Duration::from_millis(cfg.warmup_ms));

    // Closed-loop clients: hammer /state round-robin until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let mut latencies: Vec<f64> = Vec::new();
    let mut periods = Vec::with_capacity(cfg.subwindows);
    let window = Duration::from_millis(cfg.measure_ms / cfg.subwindows.max(1) as u64);
    let total_steps = || server.table().total_steps();
    let mut window_start = total_steps();
    let measure_begin = window_start;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..cfg.clients {
            let stop = Arc::clone(&stop);
            let ids = &ids;
            workers.push(scope.spawn(move || {
                let mut samples = Vec::new();
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let id = ids[i % ids.len()];
                    i += cfg.clients.max(1);
                    let path = format!("/sessions/{id}/state?records=2&bodies=4");
                    let begin = Instant::now();
                    let (status, _) = parallax_telemetry::http_request(addr, "GET", &path, "", b"")
                        .expect("state request");
                    samples.push(begin.elapsed().as_nanos() as f64);
                    assert_eq!(status, 200);
                    if cfg.think_ms > 0 {
                        std::thread::sleep(Duration::from_millis(cfg.think_ms));
                    }
                }
                samples
            }));
        }
        for _ in 0..cfg.subwindows {
            let begin = Instant::now();
            std::thread::sleep(window);
            let now = total_steps();
            // A window with no steps has no period; the sustain ratio
            // below still counts it.
            if now > window_start {
                let ns = begin.elapsed().as_nanos() as f64;
                periods.push((ns / (now - window_start) as f64).round());
            }
            window_start = now;
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            latencies.extend(w.join().expect("client thread"));
        }
    });
    let achieved = (window_start - measure_begin) as f64;
    let ideal = sessions as f64 * cfg.step_rate * (cfg.measure_ms as f64 / 1e3);
    let values = [
        ("sessions", sessions as f64),
        ("bodies", bodies as f64),
        ("sustain", achieved / ideal.max(1e-9)),
        ("latency_p99_ns", percentile(&latencies, 99.0)),
        ("requests", latencies.len() as f64),
    ];
    Group {
        name: format!("{sessions}x{bodies}"),
        values: values.map(|(k, v)| (k.to_string(), v)).to_vec(),
        series: vec![
            (STEP_PERIOD.to_string(), periods),
            (
                REQUEST_LATENCY.to_string(),
                thin(&latencies, MAX_STORED_LATENCIES),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{compare_series, SCHEMA_VERSION};

    fn fake_baseline() -> Envelope<ServerGateConfig> {
        let config = ServerGateConfig {
            cells: vec![(10, 20)],
            ..ServerGateConfig::default()
        };
        let cell = Group {
            name: "10x20".to_string(),
            values: vec![("sustain".to_string(), 0.99), ("requests".to_string(), 4.0)],
            series: vec![
                (
                    STEP_PERIOD.to_string(),
                    vec![1_666_667.0, 1_694_915.0, 1_639_344.0, 1_652_893.0],
                ),
                (
                    REQUEST_LATENCY.to_string(),
                    vec![100_000.0, 120_000.0, 110_000.0, 105_000.0],
                ),
            ],
        };
        Envelope::new(config, vec![cell])
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = fake_baseline();
        let parsed = Envelope::<ServerGateConfig>::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.config.to_json(), b.config.to_json());
        assert_eq!(parsed.config.cells, b.config.cells);
        assert_eq!(parsed.groups, b.groups);
        assert_eq!(parsed.groups[0].value("requests"), 4.0);
    }

    #[test]
    fn from_json_rejects_other_experiments() {
        let parse = Envelope::<ServerGateConfig>::from_json;
        let wrong =
            format!("{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"scene_gate\"}}");
        assert!(parse(&wrong).unwrap_err().contains("scene_gate"));
        assert!(parse("{\"schema_version\": 99}").is_err());
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let b = fake_baseline();
        let rows = compare_series(&b.groups, &b.groups, 0.5);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quick_keeps_the_flagship_cell() {
        let q = ServerGateConfig::default().quick();
        assert_eq!(q.cells, vec![(1000, 100)]);
        assert_eq!(q.min_sustain, ServerGateConfig::default().min_sustain);
    }

    #[test]
    fn small_cell_records_end_to_end() {
        // A miniature live recording: 3 sessions, tiny windows — this is
        // the whole record path (create, settle, rate switch, clients,
        // counter sampling) compressed to test scale.
        let cfg = ServerGateConfig {
            cells: vec![(3, 10)],
            step_rate: 120.0,
            warmup_ms: 100,
            measure_ms: 400,
            subwindows: 2,
            clients: 2,
            ..ServerGateConfig::default()
        };
        let b = record(&cfg);
        assert_eq!(b.groups.len(), 1);
        let cell = &b.groups[0];
        assert_eq!(cell.series(STEP_PERIOD).map(<[f64]>::len), Some(2));
        assert!(cell.value("requests") > 0.0, "clients made no requests");
        assert!(
            cell.value("sustain") > 0.2,
            "no scheduled stepping happened: {cell:?}"
        );
        Envelope::<ServerGateConfig>::from_json(&b.to_json()).expect("round trip");
    }
}
