//! The open-loop session-fleet workload (`fleet`).
//!
//! An in-process `parallax-server` holds 500 settled stack sessions at
//! 60 Hz (the fully-asleep coast path), a few `Periodic` combat scenes at
//! 60 Hz that never settle, and a pool of manual sessions that take the
//! write traffic. An open-loop generator sends a fixed request mix on a
//! schedule made from the seed, and times every request from the moment
//! it was due, so a stall also counts against the requests queued behind
//! it.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_bench::server_gate::percentile;
use parallax_physics::world_digest;
use parallax_server::{Server, SessionTable, TableConfig};
use parallax_telemetry as telemetry;
use parallax_telemetry::json::Json;
use parallax_telemetry::stats::SplitMix64;
use parallax_telemetry::{ServerOptions, StepRecord};
use parallax_workloads::SessionWorld;

use crate::spans::Recorder;
use crate::{ratio, Args, Metrics, Outcome};

/// Scheduled step rate of every non-manual session.
const STEP_RATE_HZ: f64 = 60.0;
/// One scheduler tick: the latency limit of a request.
const TICK_MS: f64 = 1000.0 / STEP_RATE_HZ;
/// Manual steps that settle a stack world until every island sleeps (the
/// slowest seeds settle around step 210).
const SETTLE_STEPS: u64 = 240;
/// Steps between the shoves of a `Periodic` combat group.
const COMBAT_PERIOD: usize = 15;
/// Fleet set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Generator threads (the host has 2 hardware threads).
const CLIENTS: usize = 2;
/// Time between the end of set-up and the start of the window, so the
/// scheduler runs in its steady state.
const SETTLE_IN: Duration = Duration::from_millis(500);
/// Timed `World::snapshot` / `World::restore` calls in a traced run.
const SNAPSHOTS: usize = 20;

struct Size {
    coast: usize,
    periodic: usize,
    manual: usize,
    bodies: usize,
    /// Distinct settled stack worlds the fleet is fanned out from.
    seeds: usize,
    periodic_scale: f32,
    rate: f64,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            coast: 20,
            periodic: 1,
            manual: 4,
            bodies: 20,
            seeds: 2,
            periodic_scale: 0.05,
            rate: 100.0,
        }
    } else {
        Size {
            coast: 500,
            periodic: 4,
            manual: 32,
            bodies: 100,
            seeds: 4,
            periodic_scale: 0.2,
            rate: 400.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    Create,
    State,
    Step,
    Snapshot,
    Restore,
    Metrics,
    Rate,
}

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Create => "create",
            Route::State => "state",
            Route::Step => "step",
            Route::Snapshot => "snapshot",
            Route::Restore => "restore",
            Route::Metrics => "metrics",
            Route::Rate => "rate",
        }
    }
}

/// One request as sent, with its timing.
struct Sample {
    route: Route,
    session: u64,
    due: Instant,
    start: Instant,
    end: Instant,
    ok: bool,
    /// `/state` response bodies.
    body: Option<Vec<u8>>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }

    fn service_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Closes a connection whose reply was read to its end with a reset
/// (`SO_LINGER` 0), so that neither side keeps it in TIME_WAIT. A run
/// opens over ten thousand loopback connections; left in TIME_WAIT for a
/// minute, they slowed the connections of the runs after it.
fn close_with_reset(stream: TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_void};

        #[repr(C)]
        struct Linger {
            l_onoff: c_int,
            l_linger: c_int,
        }
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
        }
        const SOL_SOCKET: c_int = 1;
        const SO_LINGER: c_int = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: the descriptor belongs to `stream`, which stays open for
        // the call; `value` points at a live `Linger` whose size is `len`,
        // the `struct linger` layout the Linux call expects.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                (&linger as *const Linger).cast(),
                std::mem::size_of::<Linger>() as u32,
            )
        };
        // On failure the connection just closes normally.
        let _ = rc;
    }
    drop(stream);
}

/// One HTTP/1.1 request over a fresh connection, like
/// `telemetry::http_request`, except that the connection is reset once the
/// whole reply has been read (see [`close_with_reset`]).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let timeout = Duration::from_secs(5);
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: application/octet-stream\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    close_with_reset(stream);
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a complete head")?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status code")?;
    Ok((status, raw.split_off(head_end + 4)))
}

/// Sends one request to `session` and times it; keeps `/state` bodies.
fn send(
    addr: SocketAddr,
    route: Route,
    session: u64,
    (method, path): (&str, &str),
    body: &[u8],
    due: Instant,
) -> (Sample, Result<Vec<u8>, String>) {
    let start = Instant::now();
    let result = http(addr, method, path, body);
    let end = Instant::now();
    let (ok, body) = match result {
        Ok((status, body)) if (200..300).contains(&status) => (true, Ok(body)),
        Ok((status, body)) => (
            false,
            Err(format!(
                "{method} {path}: status {status}: {}",
                String::from_utf8_lossy(&body).trim()
            )),
        ),
        Err(e) => (false, Err(format!("{method} {path}: {e}"))),
    };
    let kept = match &body {
        Ok(b) if route == Route::State => Some(b.clone()),
        _ => None,
    };
    let sample = Sample {
        route,
        session,
        due,
        start,
        end,
        ok,
        body: kept,
    };
    (sample, body)
}

/// Sends a set-up request; a set-up failure ends the run.
fn setup_call(
    addr: SocketAddr,
    route: Route,
    session: u64,
    method: &str,
    path: &str,
    body: &[u8],
    samples: &mut Vec<Sample>,
) -> Vec<u8> {
    let now = Instant::now();
    let (sample, result) = send(addr, route, session, (method, path), body, now);
    samples.push(sample);
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: fleet set-up failed: {e}");
        std::process::exit(1)
    })
}

/// Every `SessionConfig` field, as the JSON body of `POST /sessions`.
fn session_json(scene: &str, bodies: usize, scale: f32, seed: u64, rate: f64) -> String {
    format!(
        "{{\"scene\":\"{scene}\",\"bodies\":{bodies},\"scale\":{scale},\"seed\":{seed},\
         \"step_rate\":{rate},\"sleeping\":true}}"
    )
}

fn create(addr: SocketAddr, json: &str, samples: &mut Vec<Sample>) -> u64 {
    let body = setup_call(
        addr,
        Route::Create,
        0,
        "POST",
        "/sessions",
        json.as_bytes(),
        samples,
    );
    let id = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|v| v.get("id").and_then(Json::as_u64));
    id.unwrap_or_else(|| {
        eprintln!("perfbench: create answered without an id");
        std::process::exit(1)
    })
}

struct Fleet {
    server: Server,
    /// Scheduled sessions (coast and periodic).
    scheduled: Vec<u64>,
    /// Manual sessions with the index of their settled seed world.
    manual: Vec<(u64, usize)>,
    /// Every session: targets of reads and snapshots.
    all: Vec<u64>,
    seeds: Vec<u64>,
    /// Settled PXSN snapshot of each seed world.
    snapshots: Vec<Vec<u8>>,
    /// Digest folded over the settled seed worlds.
    digest: u64,
    setup: Vec<Sample>,
}

fn set_up(sz: &Size, seed: u64) -> Fleet {
    let table = Arc::new(SessionTable::new(TableConfig {
        batch_threads: 2,
        max_sessions: 10_000,
        max_catchup: 6,
    }));
    let options = ServerOptions {
        workers: 4,
        max_head_bytes: 16 * 1024,
        max_body_bytes: 8 * 1024 * 1024,
        io_timeout: Duration::from_secs(2),
        deadline: Duration::from_secs(5),
        queue_cap: 256,
    };
    let server = parallax_server::serve_with("127.0.0.1:0", table, options).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot bind the fleet server: {e}");
        std::process::exit(1)
    });
    let addr = server.addr();
    let mut rng = SplitMix64::new(seed);
    let seeds: Vec<u64> = (0..sz.seeds).map(|_| rng.next_u64() >> 16).collect();
    let mut setup = Vec::new();

    // Settle one manual session per seed; its snapshot seeds the fan-out.
    let mut manual = Vec::with_capacity(sz.manual);
    let mut snapshots = Vec::with_capacity(sz.seeds);
    for (k, &s) in seeds.iter().enumerate() {
        let id = create(
            addr,
            &session_json("stacks", sz.bodies, 0.2, s, 0.0),
            &mut setup,
        );
        let path = format!("/sessions/{id}/step?n={SETTLE_STEPS}");
        setup_call(addr, Route::Step, id, "POST", &path, b"", &mut setup);
        let path = format!("/sessions/{id}/snapshot");
        snapshots.push(setup_call(
            addr,
            Route::Snapshot,
            id,
            "GET",
            &path,
            b"",
            &mut setup,
        ));
        manual.push((id, k));
    }
    let digest = manual.iter().fold(0u64, |acc, &(id, _)| {
        let d = server
            .table()
            .with_session(id, |s| world_digest(s.world()))
            .expect("settled session is alive");
        acc.rotate_left(17) ^ d
    });

    // Fan out: create, then restore the settled world of the same seed.
    let fan_out = |offset: usize, count: usize, rate: f64| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (seeds, snapshots) = (&seeds, &snapshots);
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        let mut ids = Vec::new();
                        for i in (c..count).step_by(CLIENTS) {
                            let k = (offset + i) % seeds.len();
                            let json = session_json("stacks", sz.bodies, 0.2, seeds[k], rate);
                            let id = create(addr, &json, &mut samples);
                            let path = format!("/sessions/{id}/restore");
                            setup_call(
                                addr,
                                Route::Restore,
                                id,
                                "POST",
                                &path,
                                &snapshots[k],
                                &mut samples,
                            );
                            ids.push((id, k));
                        }
                        (ids, samples)
                    })
                })
                .collect();
            let mut ids = Vec::with_capacity(count);
            let mut samples = Vec::new();
            for w in workers {
                let (i, s) = w.join().expect("fan-out thread");
                ids.extend(i);
                samples.extend(s);
            }
            ids.sort_unstable();
            (ids, samples)
        })
    };
    let (more_manual, s1) = fan_out(sz.seeds, sz.manual.saturating_sub(sz.seeds), 0.0);
    let (coast, s2) = fan_out(0, sz.coast, STEP_RATE_HZ);
    manual.extend(more_manual);
    setup.extend(s1);
    setup.extend(s2);
    let mut scheduled: Vec<u64> = coast.into_iter().map(|(id, _)| id).collect();
    // Combat scenes shove every COMBAT_PERIOD steps. Offsetting each
    // scene's step count spreads the shoves over the period, as in a
    // fleet of levels started at different times.
    for (k, &s) in seeds.iter().cycle().take(sz.periodic).enumerate() {
        let json = session_json("Periodic", sz.bodies, sz.periodic_scale, s, 0.0);
        let id = create(addr, &json, &mut setup);
        let offset = (k * COMBAT_PERIOD / sz.periodic) as u64;
        if offset > 0 {
            let path = format!("/sessions/{id}/step?n={offset}");
            setup_call(addr, Route::Step, id, "POST", &path, b"", &mut setup);
        }
        let path = format!("/sessions/{id}/rate?hz={STEP_RATE_HZ}");
        setup_call(addr, Route::Rate, id, "POST", &path, b"", &mut setup);
        scheduled.push(id);
    }
    let mut all = scheduled.clone();
    all.extend(manual.iter().map(|&(id, _)| id));
    Fleet {
        server,
        scheduled,
        manual,
        all,
        seeds,
        snapshots,
        digest,
        setup,
    }
}

/// One planned request of the open-loop schedule.
#[derive(Clone, Copy)]
struct Planned {
    offset: Duration,
    route: Route,
    session: u64,
    /// Seed-world index of a manual session (restore body).
    seed_index: usize,
}

/// The request schedule of one window: `rate` requests/s with 80% state
/// reads, 10% manual steps, 5% snapshots, 5% restores of a manual
/// session's own set-up snapshot, plus one `/metrics` scrape per second.
fn schedule(fleet: &Fleet, rate: f64, window: Duration, rng: &mut SplitMix64) -> Vec<Planned> {
    let n = (rate * window.as_secs_f64()).round() as usize;
    let mut plan = Vec::with_capacity(n + window.as_secs() as usize + 1);
    for i in 0..n {
        let offset = Duration::from_secs_f64(i as f64 / rate);
        let draw = rng.index(100);
        let (route, pool_manual) = match draw {
            0..=79 => (Route::State, false),
            80..=89 => (Route::Step, true),
            90..=94 => (Route::Snapshot, false),
            _ => (Route::Restore, true),
        };
        let (session, seed_index) = if pool_manual {
            fleet.manual[rng.index(fleet.manual.len())]
        } else {
            (fleet.all[rng.index(fleet.all.len())], 0)
        };
        plan.push(Planned {
            offset,
            route,
            session,
            seed_index,
        });
    }
    let half_slot = Duration::from_secs_f64(0.5 / rate);
    for s in 0..=window.as_secs() {
        let offset = Duration::from_secs(s) + half_slot;
        if offset < window {
            plan.push(Planned {
                offset,
                route: Route::Metrics,
                session: 0,
                seed_index: 0,
            });
        }
    }
    plan.sort_by_key(|p| p.offset);
    plan
}

/// What one window measured.
struct Window {
    samples: Vec<Sample>,
    start: Instant,
    secs: f64,
    /// Scheduled steps achieved while the generator ran.
    achieved: u64,
    /// Time over which `achieved` was counted.
    counted_secs: f64,
    /// Achieved ÷ ideal scheduled steps, per ~1 s sub-window.
    sustain_windows: Vec<f64>,
    counters: telemetry::Snapshot,
}

fn scheduled_steps(fleet: &Fleet) -> u64 {
    let infos = fleet.server.table().infos();
    fleet
        .scheduled
        .iter()
        .map(|id| {
            infos
                .binary_search_by_key(id, |i| i.id)
                .map_or(0, |at| infos[at].steps)
        })
        .sum()
}

fn run_window(fleet: &Fleet, plan: &[Planned], window: Duration) -> Window {
    let addr = fleet.server.addr();
    let ideal_rate = fleet.scheduled.len() as f64 * STEP_RATE_HZ;
    let counters_before = telemetry::snapshot();
    let steps_before = scheduled_steps(fleet);
    let counted_from = Instant::now();
    let start = counted_from + Duration::from_millis(5);
    let mut sustain_windows = Vec::new();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(plan.len() / CLIENTS + 1);
                    for p in plan.iter().skip(c).step_by(CLIENTS) {
                        let due = start + p.offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let id = p.session;
                        let (path, method, body): (String, &str, &[u8]) = match p.route {
                            Route::State => (
                                format!("/sessions/{id}/state?records=4&bodies=16"),
                                "GET",
                                b"",
                            ),
                            Route::Step => (format!("/sessions/{id}/step?n=1"), "POST", b""),
                            Route::Snapshot => (format!("/sessions/{id}/snapshot"), "GET", b""),
                            Route::Restore => (
                                format!("/sessions/{id}/restore"),
                                "POST",
                                &fleet.snapshots[p.seed_index],
                            ),
                            Route::Metrics => ("/metrics".to_string(), "GET", b""),
                            Route::Create | Route::Rate => unreachable!("set-up only"),
                        };
                        let (sample, result) = send(addr, p.route, id, (method, &path), body, due);
                        if let Err(e) = result {
                            eprintln!("perfbench: request failed: {e}");
                        }
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        // Sub-window sustain while the generator runs.
        let mut last = (Instant::now(), steps_before);
        while workers.iter().any(|w| !w.is_finished()) {
            std::thread::sleep(Duration::from_millis(50));
            let elapsed = last.0.elapsed();
            if elapsed >= Duration::from_secs(1) {
                let steps = scheduled_steps(fleet);
                let now = Instant::now();
                let ideal = ideal_rate * (now - last.0).as_secs_f64();
                sustain_windows.push((steps - last.1) as f64 / ideal);
                last = (now, steps);
            }
        }
        let mut samples = Vec::with_capacity(plan.len());
        for w in workers {
            samples.extend(w.join().expect("generator thread"));
        }
        samples
    });
    let achieved = scheduled_steps(fleet) - steps_before;
    let counted_secs = counted_from.elapsed().as_secs_f64();
    Window {
        samples,
        start,
        secs: window.as_secs_f64(),
        achieved,
        counted_secs,
        sustain_windows,
        counters: telemetry::snapshot().delta_since(&counters_before),
    }
}

/// Replays the probe session's seed in isolation for as many steps as the
/// probe has taken and compares digests.
fn check_probe(fleet: &Fleet, sz: &Size) -> Result<(), String> {
    let (probe, k) = fleet.manual[0];
    let (steps, digest) = fleet
        .server
        .table()
        .with_session(probe, |s| (s.steps(), world_digest(s.world())))
        .ok_or("probe session vanished")?;
    let mut world = SessionWorld {
        bodies: sz.bodies,
        seed: fleet.seeds[k],
        sleeping: true,
    }
    .build();
    for _ in 0..steps {
        world.step();
    }
    let replay = world_digest(&world);
    if replay == digest {
        Ok(())
    } else {
        Err(format!(
            "probe session {probe} at step {steps}: digest {digest:016x}, isolated replay {replay:016x}"
        ))
    }
}

/// Session step walls and sleep state, read from `/state` payloads: each
/// carries the session's last step records and a body-state line.
struct StateStats {
    /// Wall time of each distinct session step seen, µs.
    step_us: Vec<f64>,
    /// The same, for stack sessions only: the coast path's step.
    stack_step_us: Vec<f64>,
    /// Per-phase wall totals over those steps, ns.
    phase_ns: [u64; 5],
    sleeping: u64,
    bodies: u64,
}

impl StateStats {
    fn of(samples: &[Sample]) -> StateStats {
        let mut seen = std::collections::HashSet::new();
        let mut out = StateStats {
            step_us: Vec::new(),
            stack_step_us: Vec::new(),
            phase_ns: [0; 5],
            sleeping: 0,
            bodies: 0,
        };
        for s in samples {
            let Some(body) = &s.body else { continue };
            let text = String::from_utf8_lossy(body);
            for line in text.lines() {
                let Ok(v) = Json::parse(line) else { continue };
                if v.get("session").is_some() {
                    out.sleeping += v.get("sleeping_bodies").and_then(Json::as_u64).unwrap_or(0);
                    out.bodies += v.get("bodies").and_then(Json::as_u64).unwrap_or(0);
                } else if let Ok(r) = StepRecord::from_json_line(line) {
                    if seen.insert((s.session, r.step)) {
                        let us = r.wall_total_ns() as f64 / 1e3;
                        out.step_us.push(us);
                        if r.scene == "stacks" {
                            out.stack_step_us.push(us);
                        }
                        for (slot, (_, ns)) in out.phase_ns.iter_mut().zip(&r.wall_ns) {
                            *slot += ns;
                        }
                    }
                }
            }
        }
        out
    }
}

fn latencies(samples: &[Sample], route: Route) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.route == route)
        .map(Sample::service_ms)
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let sz = size(args.smoke);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let root = rec.next_id();
    let mut notes = Vec::new();

    // The first fleet is measured; the rest only time the set-up again
    // once it is gone, so they do not add to the measured peak memory.
    let setup_start = Instant::now();
    let mut fleet = set_up(&sz, args.seed);
    let mut setup_secs = vec![setup_start.elapsed().as_secs_f64()];
    let setup_id = rec.record(root, "setup", setup_start, Instant::now(), Vec::new());
    let setup_samples = std::mem::take(&mut fleet.setup);
    std::thread::sleep(SETTLE_IN);

    let mut rng = SplitMix64::new(args.seed ^ 0x10AD_6E17);
    let window = Duration::from_secs_f64(args.seconds);
    let main_window = if args.trace { window / 2 } else { window };
    let plan = schedule(&fleet, sz.rate, main_window, &mut rng);
    let untraced = run_window(&fleet, &plan, main_window);
    let traced = args.trace.then(|| {
        let plan = schedule(&fleet, sz.rate, window - main_window, &mut rng);
        run_window(&fleet, &plan, window - main_window)
    });
    if let Err(e) = check_probe(&fleet, &sz) {
        notes.push(e);
    }

    let attempted = untraced.samples.len() + traced.as_ref().map_or(0, |t| t.samples.len());
    let failed = untraced.samples.iter().filter(|s| !s.ok).count()
        + traced
            .as_ref()
            .map_or(0, |t| t.samples.iter().filter(|s| !s.ok).count());

    let mut m = Metrics::default();
    match crate::peak_rss_mb() {
        Ok(mb) => m.set("peak_rss_mb", mb),
        Err(e) => notes.push(e),
    }
    let w = &untraced;
    let ideal = fleet.scheduled.len() as f64 * STEP_RATE_HZ * w.counted_secs;
    m.set("steps_per_s", w.achieved as f64 / w.counted_secs);
    let step_ms: Vec<f64> = StateStats::of(&w.samples)
        .stack_step_us
        .iter()
        .map(|us| us / 1e3)
        .collect();
    m.set("step_ms_p50", percentile(&step_ms, 50.0));
    m.set("step_ms_p95", percentile(&step_ms, 95.0));
    m.set("sustain", w.achieved as f64 / ideal);
    let from_due: Vec<f64> = w.samples.iter().map(Sample::latency_ms).collect();
    let req_p50 = percentile(&from_due, 50.0);
    m.set("req_ms_p50", req_p50);
    let in_tick = w
        .samples
        .iter()
        .filter(|s| s.ok && s.latency_ms() <= TICK_MS)
        .count();
    m.set(
        "req_within_tick_frac",
        in_tick as f64 / w.samples.len().max(1) as f64,
    );
    m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    if let Some(t) = &traced {
        let from_due: Vec<f64> = t.samples.iter().map(Sample::latency_ms).collect();
        m.set(
            "trace.overhead_frac",
            percentile(&from_due, 50.0) / req_p50 - 1.0,
        );
        for s in &setup_samples {
            rec.record(setup_id, s.route.name(), s.start, s.end, Vec::new());
        }
        layer_metrics(&mut m, &mut rec, root, &fleet, &sz, t, &setup_samples);
    }

    let digest = fleet.digest;
    drop(fleet);
    for _ in 1..SETUPS {
        let start = Instant::now();
        let again = set_up(&sz, args.seed);
        setup_secs.push(start.elapsed().as_secs_f64());
        if again.digest != digest {
            notes.push(format!(
                "settled seed worlds digest {:016x} on a repeated set-up, {digest:016x} on the first",
                again.digest
            ));
        }
    }
    m.set(
        "setup_s",
        telemetry::median(&setup_secs).expect("set-up ran"),
    );
    rec.record_as(root, 0, "fleet", origin, Instant::now(), Vec::new());

    Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        notes,
        digest,
        metrics: m,
        spans: rec,
    }
}

/// Per-layer metrics of the traced window; also records its spans: one
/// per request, named by route, under the 60 Hz generator tick it was
/// due in.
fn layer_metrics(
    m: &mut Metrics,
    rec: &mut Recorder,
    root: u64,
    fleet: &Fleet,
    sz: &Size,
    t: &Window,
    setup: &[Sample],
) {
    let measure = rec.next_id();
    let tick = Duration::from_secs_f64(TICK_MS / 1e3);
    let ticks = (t.secs / tick.as_secs_f64()).ceil() as u64 + 1;
    let first_tick = rec.next_id();
    for _ in 1..ticks {
        rec.next_id();
    }
    let mut tick_end = vec![None::<Instant>; ticks as usize];
    for s in &t.samples {
        let idx = ((s.due - t.start).as_secs_f64() / tick.as_secs_f64()) as usize;
        let idx = idx.min(ticks as usize - 1);
        tick_end[idx] = Some(tick_end[idx].map_or(s.end, |e: Instant| e.max(s.end)));
        let attrs = vec![
            ("lag_ms", (s.start - s.due).as_secs_f64() * 1e3),
            ("ok", f64::from(u8::from(s.ok))),
            ("session", s.session as f64),
        ];
        rec.record(
            first_tick + idx as u64,
            s.route.name(),
            s.start,
            s.end,
            attrs,
        );
    }
    for (i, end) in tick_end.iter().enumerate() {
        if let Some(end) = end {
            let start = t.start + tick * i as u32;
            rec.record_as(
                first_tick + i as u64,
                measure,
                "tick",
                start,
                *end,
                Vec::new(),
            );
        }
    }
    let last_end = t.samples.iter().map(|s| s.end).max();
    let window_end = last_end.map_or(t.start, |e| e.max(t.start));
    rec.record_as(measure, root, "measure", t.start, window_end, Vec::new());

    for route in [
        Route::State,
        Route::Step,
        Route::Snapshot,
        Route::Restore,
        Route::Metrics,
        Route::Create,
    ] {
        let samples = if route == Route::Create {
            setup
        } else {
            &t.samples
        };
        let ms = latencies(samples, route);
        let (p50, p99) = (percentile(&ms, 50.0), percentile(&ms, 99.0));
        let (n50, n99) = match route {
            Route::State => ("server.http.state.ms_p50", "server.http.state.ms_p99"),
            Route::Step => ("server.http.step.ms_p50", "server.http.step.ms_p99"),
            Route::Snapshot => ("server.http.snapshot.ms_p50", "server.http.snapshot.ms_p99"),
            Route::Restore => ("server.http.restore.ms_p50", "server.http.restore.ms_p99"),
            Route::Metrics => ("server.http.metrics.ms_p50", "server.http.metrics.ms_p99"),
            Route::Create => ("server.http.create.ms_p50", "server.http.create.ms_p99"),
            Route::Rate => unreachable!("not a measured route"),
        };
        m.set(n50, p50);
        m.set(n99, p99);
    }

    let StateStats {
        step_us,
        phase_ns,
        sleeping,
        bodies,
        ..
    } = StateStats::of(&t.samples);
    let records = step_us.len().max(1) as f64;
    m.set("server.session.step_us_p50", percentile(&step_us, 50.0));
    m.set("server.session.step_us_p99", percentile(&step_us, 99.0));
    let phase_names = [
        "physics.broadphase.ms",
        "physics.narrowphase.ms",
        "physics.island.ms",
        "physics.solver.ms",
        "physics.cloth.ms",
    ];
    for (name, ns) in phase_names.into_iter().zip(phase_ns) {
        m.set(name, ns as f64 / 1e6 / records);
    }
    m.set(
        "physics.step.ms",
        phase_ns.iter().sum::<u64>() as f64 / 1e6 / records,
    );
    m.set(
        "physics.sleep.sleeping_frac",
        ratio(sleeping as f64, bodies as f64),
    );

    let mins = t
        .sustain_windows
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    m.set(
        "server.scheduler.sustain_min_window",
        if mins.is_finite() { mins } else { 0.0 },
    );
    let batch = t
        .counters
        .histogram("server.batch_sessions")
        .and_then(|h| h.quantile_upper_bound(0.5))
        .unwrap_or(0);
    m.set("server.scheduler.batch_sessions_p50", batch as f64);
    let lag: Vec<f64> = t
        .samples
        .iter()
        .map(|s| (s.start - s.due).as_secs_f64() * 1e3)
        .collect();
    m.set("loadgen.lag_ms_p99", percentile(&lag, 99.0));
    m.set("loadgen.sent", t.samples.len() as f64);
    crate::registry_metrics(m, &t.counters, t.achieved as f64);

    // Snapshot and restore of one settled session world, called directly.
    let mut world = SessionWorld {
        bodies: sz.bodies,
        seed: fleet.seeds[0],
        sleeping: true,
    }
    .build();
    let bytes = &fleet.snapshots[0];
    let mut snap_ms = Vec::with_capacity(SNAPSHOTS);
    let mut restore_ms = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let start = Instant::now();
        let ok = world.restore(bytes).is_ok();
        let mid = Instant::now();
        std::hint::black_box(world.snapshot());
        let end = Instant::now();
        restore_ms.push((mid - start).as_secs_f64() * 1e3);
        snap_ms.push((end - mid).as_secs_f64() * 1e3);
        rec.record(
            root,
            "restore",
            start,
            mid,
            vec![("ok", f64::from(u8::from(ok)))],
        );
        rec.record(root, "snapshot", mid, end, Vec::new());
    }
    m.set(
        "physics.snapshot.snapshot_ms",
        telemetry::median(&snap_ms).unwrap_or(0.0),
    );
    m.set(
        "physics.snapshot.restore_ms",
        telemetry::median(&restore_ms).unwrap_or(0.0),
    );
    m.set("physics.snapshot.bytes", bytes.len() as f64);
}
