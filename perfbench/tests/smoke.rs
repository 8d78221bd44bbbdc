//! Runs every workload at its smoke size, untraced and traced, and checks
//! that the result line passes its correctness checks and carries every
//! metric `BENCHMARK.json` names, with the unit it names.

use std::process::Command;

use parallax_telemetry::json::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"]);
    // The benchmark refuses to run with engine overrides set.
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("PARALLAX_")) {
        cmd.env_remove(key);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in ["mix", "fleet"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload} trace={trace} not correct"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in declared(section) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
        }
    }
}
