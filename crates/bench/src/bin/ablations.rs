//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. Broad-phase algorithm: spatial hash (default) vs sweep-and-prune.
//! 2. L2 management: the paper's §6.1 claim that application-aware
//!    partitioning "reduces the required L2 space by more than half".

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_bench::{fmt_secs, print_table, traces_of, warm_measure, Ctx, PARTITION_OF_PHASE};
use parallax_physics::BroadphaseKind;
use parallax_workloads::{BenchmarkId, SceneParams};

fn main() {
    let ctx = Ctx::from_env();

    // --- Ablation 1: broad-phase algorithm -------------------------------
    let mut rows = Vec::new();
    for id in [
        BenchmarkId::Periodic,
        BenchmarkId::Explosions,
        BenchmarkId::Mix,
    ] {
        let mut row = vec![id.abbrev().to_string()];
        for kind in [
            BroadphaseKind::Grid { cell: 1.2 },
            BroadphaseKind::SweepAndPrune,
        ] {
            let params = SceneParams {
                scale: ctx.scale,
                ..Default::default()
            };
            let mut scene = id.build(&params);
            scene.world.set_broadphase(kind);
            let profiles = scene.run_measured(2, 1);
            let tests: usize = profiles.iter().map(|p| p.broadphase.overlap_tests).sum();
            let pairs: usize = profiles.iter().map(|p| p.pairs.len()).sum();
            let wall: f64 = profiles.iter().map(|p| p.wall[0].as_secs_f64()).sum();
            row.push(format!("{tests}"));
            row.push(format!("{pairs}"));
            row.push(format!("{:.1}ms", wall * 1000.0));
        }
        rows.push(row);
    }
    print_table(
        "Ablation 1: broad-phase — grid(tests, pairs, wall) vs SAP(tests, pairs, wall), 1 frame",
        &[
            "Bench", "g.tests", "g.pairs", "g.wall", "s.tests", "s.pairs", "s.wall",
        ],
        &rows,
    );
    println!("\nThe spatial hash bounds overlap tests by locality; single-axis SAP");
    println!("degenerates on clustered scenes (walls of bricks share an axis span).");

    // --- Ablation 2: partitioned vs unified L2 ----------------------------
    // Compare the serial-phase time of an 8MB *partitioned* L2 against
    // unified L2s of growing size — the paper's claim is that partitioning
    // more than halves the capacity needed for a given performance level.
    let ctx2 = Ctx::from_env();
    let mut rows = Vec::new();
    for id in [BenchmarkId::Explosions, BenchmarkId::Mix] {
        let d = parallax_bench::bench_data(id, &ctx2);
        let traces = traces_of(&d.profiles);
        let frames = ctx2.measure_frames as f64;

        let mut part_machine = MachineConfig::baseline(1, 8);
        part_machine.l2 = L2Config::partitioned(8, vec![1, 2, 1]);
        let mut sim = MulticoreSim::new(
            part_machine,
            SimOptions {
                partition_of_phase: Some(PARTITION_OF_PHASE),
                ..Default::default()
            },
        );
        let partitioned = warm_measure(&mut sim, &traces).time.serial() as f64 / 2.0e9 / frames;

        let mut row = vec![id.abbrev().to_string(), fmt_secs(partitioned)];
        for mb in [8usize, 16, 32] {
            let mut sim = MulticoreSim::new(MachineConfig::baseline(1, mb), SimOptions::default());
            let unified = warm_measure(&mut sim, &traces).time.serial() as f64 / 2.0e9 / frames;
            row.push(fmt_secs(unified));
        }
        rows.push(row);
    }
    print_table(
        "Ablation 2: serial-phase time — 8MB partitioned vs unified L2 (s/frame)",
        &["Bench", "8MB part", "8MB unif", "16MB unif", "32MB unif"],
        &rows,
    );
    println!("\nPaper §6.1: partitioning reduces the required L2 space by more than");
    println!("half — the partitioned 8MB should perform like a much larger unified L2.");

    // --- Ablation 3: next-line L2 prefetching (paper future work) --------
    let mut rows = Vec::new();
    for id in [BenchmarkId::Explosions, BenchmarkId::Mix] {
        let d = parallax_bench::bench_data(id, &ctx2);
        let traces = traces_of(&d.profiles);
        let frames = ctx2.measure_frames as f64;
        let mut row = vec![id.abbrev().to_string()];
        for prefetch in [false, true] {
            let mut machine = MachineConfig::baseline(1, 2);
            machine.l2_prefetch = prefetch;
            let mut sim = MulticoreSim::new(machine, SimOptions::default());
            let r = warm_measure(&mut sim, &traces);
            row.push(fmt_secs(r.seconds(2_000_000_000) / frames));
            row.push(r.mem.l2_misses.to_string());
        }
        rows.push(row);
    }
    print_table(
        "Ablation 3: next-line L2 prefetch at 2MB (off vs on)",
        &[
            "Bench",
            "off s/frame",
            "off misses",
            "on s/frame",
            "on misses",
        ],
        &rows,
    );
    println!("\nPaper §6.2 future work: \"L2 cache size reduction by prefetching\" —");
    println!("a next-line prefetcher recovers part of a larger cache's benefit.");
}
