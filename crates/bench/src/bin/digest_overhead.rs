//! Measures the per-step cost of the flight recorder's per-phase state
//! digests on Mix (the heaviest scene): records digests-off and
//! digests-on interleaved ([`parallax_bench::harness::record_paired`],
//! so host drift cancels) and gates on the whole-step total.
//!
//! The budget is ≤ 3% per step: a regression verdict requires the
//! *entire* bootstrap confidence interval of the step-total median
//! change to clear +3%. Exit 0 within budget, 1 over it.
//!
//! `--quick` shrinks the sample count for CI smoke runs (the threshold
//! stays 3% — unlike `bench_gate --quick`, the budget is the point).

use parallax_bench::envelope::{compare_series, STEP_TOTAL};
use parallax_bench::harness::{record_paired, GateConfig};
use parallax_workloads::BenchmarkId;

/// The digest budget: relative step-total cost on Mix.
const BUDGET: f64 = 0.03;

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let (steps, warmup) = if quick { (16, 4) } else { (60, 10) };
    let mk = |digests: bool| GateConfig {
        steps,
        warmup,
        scale: 0.2,
        threads: 1,
        threshold: BUDGET,
        digests,
        scenes: vec![BenchmarkId::Mix],
        ..GateConfig::default()
    };
    println!(
        "digest overhead on Mix: {steps} steps (+{warmup} warmup), budget +{:.0}%",
        BUDGET * 100.0
    );
    let (off, on) = record_paired(&mk(false), &mk(true));
    let rows = compare_series(&off.groups, &on.groups, BUDGET);
    for r in &rows {
        println!(
            "  {:16} {:>10.3} ms -> {:>10.3} ms  {:+.1}%  CI [{:+.1}%, {:+.1}%]  {:?}",
            r.metric,
            r.cmp.base_median / 1e6,
            r.cmp.cand_median / 1e6,
            r.cmp.rel_change * 100.0,
            r.cmp.ci.0 * 100.0,
            r.cmp.ci.1 * 100.0,
            r.cmp.verdict
        );
    }
    // Gate on the whole-step total only: digests are computed inside the
    // phase walls, and individual phases with sub-threshold absolute cost
    // are noise — the budget is a per-step budget.
    let Some(total) = rows.iter().find(|r| r.metric == STEP_TOTAL) else {
        eprintln!("error: no step-total comparison row (scene produced no samples?)");
        std::process::exit(2);
    };
    if total.is_regression() {
        println!(
            "digest overhead: OVER BUDGET: step total {:+.1}% (CI entirely above +{:.0}%)",
            total.cmp.rel_change * 100.0,
            BUDGET * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "digest overhead: within budget ({:+.1}% step total)",
        total.cmp.rel_change * 100.0
    );
}
