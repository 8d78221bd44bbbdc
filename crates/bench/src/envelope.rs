//! The one BENCH file format and the one gate decision.
//!
//! Every recorder — the scene gate (`bench_gate`, `BENCH_scenes.json`),
//! the fleet gate (`server_bench`, `BENCH_server.json`) and the
//! executor-scaling experiment (`BENCH_pipeline.json`) — writes the same
//! schema-versioned envelope:
//!
//! ```text
//! {"schema_version": 2, "experiment": "scene_gate",
//!  "fingerprint": {"os": "linux", "arch": "x86_64", "hw_threads": 2},
//!  "config": {...},
//!  "groups": [{"group": "Mix", "values": {"bodies": 412, ...},
//!              "series": {"Broadphase": [ns, ...], ..., "step total": [...]}}]}
//! ```
//!
//! The `config` section is typed by the recorder's [`Config`] impl. A
//! [`Group`] is one measured unit (a scene, a fleet cell, a thread
//! count). Its *series* are raw per-sample costs, bigger = slower, which
//! [`compare_series`] gates on; its *values* are scalars recorded for
//! the reader and never gated. Keeping raw samples rather than summaries
//! is what lets the comparison bootstrap a confidence interval instead of
//! eyeballing two medians.
//!
//! The comparison is deliberately conservative: a row is a regression
//! only when the *entire* bootstrap confidence interval of the relative
//! median change clears the threshold. On a noisy host this trades
//! detection latency for a near-zero false-alarm rate, which is what a CI
//! gate needs.

use std::fmt::Write as _;

use parallax_telemetry::json::{write_str, Json};
use parallax_telemetry::stats::{compare, BootstrapConfig, Comparison, Verdict};

/// Version of the envelope layout. Bump on any incompatible change; the
/// reader refuses a mismatched document rather than mis-parse it.
pub const SCHEMA_VERSION: u64 = 2;

/// Absolute median increase (nanoseconds) a slowdown must also exceed to
/// count as a regression. A phase that does no work in a scene measures
/// in the hundreds of nanoseconds, where scheduler jitter routinely
/// doubles the median — statistically significant, practically
/// meaningless. Whole-step aggregates ([`STEP_TOTAL`], [`STEP_PERIOD`])
/// are exempt: a fleet step period is itself tens of microseconds, so the
/// floor would hide real throughput losses there.
pub const MIN_REGRESSION_NS: f64 = 10_000.0;

/// Series name of a scene's whole-step wall time (sum of its phases), so
/// a drift spread across phases still gates.
pub const STEP_TOTAL: &str = "step total";

/// Series name of a fleet cell's per-step period (inverse throughput).
pub const STEP_PERIOD: &str = "step period";

/// The machine an envelope was recorded on. Compared runs on a different
/// fingerprint still gate (the statistics absorb speed differences only
/// if they are uniform), but the mismatch is surfaced as a warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Hardware threads available to the process.
    pub hw_threads: usize,
}

impl Fingerprint {
    /// Fingerprint of the running machine.
    pub fn current() -> Fingerprint {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            hw_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// A recorder's configuration: the typed `config` section of its
/// envelope.
pub trait Config: Sized {
    /// The envelope's `"experiment"` tag.
    const EXPERIMENT: &'static str;
    /// The command that records a fresh document, named in read errors.
    const RECORD: &'static str;
    /// The config as a JSON object.
    fn to_json(&self) -> String;
    /// Parses the config object.
    fn from_json(v: &Json) -> Result<Self, String>;
    /// The regression threshold a gate baseline was recorded with;
    /// `None` for experiments that are not gated.
    fn threshold(&self) -> Option<f64> {
        None
    }
}

/// One measured unit of an envelope.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    /// Scene name, fleet cell (`"1000x100"`) or thread count.
    pub name: String,
    /// Recorded scalars, reported but never gated.
    pub values: Vec<(String, f64)>,
    /// Named sample series (costs: bigger = slower), in gate order.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Group {
    /// A recorded value by name (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// A sample series by name.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, s)| s.as_slice())
    }
}

/// A BENCH document: envelope plus measured groups.
#[derive(Debug, Clone)]
pub struct Envelope<C> {
    /// Machine the samples were taken on.
    pub fingerprint: Fingerprint,
    /// Recording configuration.
    pub config: C,
    /// Measured groups, in recording order.
    pub groups: Vec<Group>,
}

impl<C: Config> Envelope<C> {
    /// An envelope stamped with the running machine's fingerprint.
    pub fn new(config: C, groups: Vec<Group>) -> Envelope<C> {
        Envelope {
            fingerprint: Fingerprint::current(),
            config,
            groups,
        }
    }

    /// Serializes the document. Hand-rolled JSON: the workspace's `serde`
    /// is an API-only shim with no formats. Numbers are written with
    /// `f64`'s shortest round-trip form, so [`Envelope::from_json`] reads
    /// back exactly what was written.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"experiment\": ");
        write_str(&mut s, C::EXPERIMENT);
        s.push_str(",\n  \"fingerprint\": {\"os\": ");
        write_str(&mut s, &self.fingerprint.os);
        s.push_str(", \"arch\": ");
        write_str(&mut s, &self.fingerprint.arch);
        let _ = write!(
            s,
            ", \"hw_threads\": {}}},\n  \"config\": {},\n  \"groups\": [",
            self.fingerprint.hw_threads,
            self.config.to_json()
        );
        for (i, g) in self.groups.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"group\": ");
            write_str(&mut s, &g.name);
            s.push_str(", \"values\": ");
            write_object(&mut s, &g.values, |s, v| {
                let _ = write!(s, "{v}");
            });
            s.push_str(",\n     \"series\": ");
            write_object(&mut s, &g.series, |s, xs| {
                s.push('[');
                for (j, x) in xs.iter().enumerate() {
                    let _ = write!(s, "{}{x}", if j == 0 { "" } else { "," });
                }
                s.push(']');
            });
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a document, refusing another schema version or experiment.
    pub fn from_json(src: &str) -> Result<Envelope<C>, String> {
        let v = Json::parse(src)?;
        let version = field_u64(&v, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema v{version} but this build reads v{SCHEMA_VERSION}; re-record with `{}`",
                C::RECORD
            ));
        }
        let experiment = field_str(&v, "experiment")?;
        if experiment != C::EXPERIMENT {
            return Err(format!(
                "not a {} document (experiment {experiment:?})",
                C::EXPERIMENT
            ));
        }
        let fp = v.get("fingerprint").ok_or("missing fingerprint")?;
        let fingerprint = Fingerprint {
            os: field_str(fp, "os")?,
            arch: field_str(fp, "arch")?,
            hw_threads: field_u64(fp, "hw_threads")? as usize,
        };
        let config = C::from_json(v.get("config").ok_or("missing config")?)?;
        let mut groups = Vec::new();
        for g in field_arr(&v, "groups")? {
            let name = field_str(g, "group")?;
            let members = |key: &str| match g.get(key) {
                Some(Json::Obj(members)) => Ok(members.as_slice()),
                _ => Err(format!("group {name}: missing object {key:?}")),
            };
            let bad = |key: &str| format!("group {name}: non-numeric {key:?}");
            let values = members("values")?
                .iter()
                .map(|(k, x)| Ok((k.clone(), x.as_f64().ok_or_else(|| bad(k))?)))
                .collect::<Result<_, String>>()?;
            let series = members("series")?
                .iter()
                .map(|(k, x)| Ok((k.clone(), numbers(x).ok_or_else(|| bad(k))?)))
                .collect::<Result<_, String>>()?;
            groups.push(Group {
                name,
                values,
                series,
            });
        }
        Ok(Envelope {
            fingerprint,
            config,
            groups,
        })
    }
}

fn write_object<T>(s: &mut String, members: &[(String, T)], value: impl Fn(&mut String, &T)) {
    s.push('{');
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_str(s, k);
        s.push_str(": ");
        value(s, v);
    }
    s.push('}');
}

/// One group×series comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Group name (scene, fleet cell).
    pub group: String,
    /// Series name (phase, [`STEP_TOTAL`], [`STEP_PERIOD`], ...).
    pub metric: String,
    /// The statistical comparison (baseline vs fresh samples).
    pub cmp: Comparison,
}

impl Row {
    /// `true` when this row is a regression at the gate's threshold.
    pub fn is_regression(&self) -> bool {
        self.cmp.verdict == Verdict::Slower
    }
}

/// Compares fresh groups against baseline groups, series by series, in
/// the baseline's order. A group or series present on only one side is
/// skipped (the group list is part of the config, so this only happens
/// across deliberate config edits). A `Slower` verdict whose absolute
/// median increase is under [`MIN_REGRESSION_NS`] is downgraded to
/// `Indistinguishable`, except on the whole-step aggregates. The gate
/// fails on `rows.iter().any(Row::is_regression)`.
pub fn compare_series(base: &[Group], fresh: &[Group], threshold: f64) -> Vec<Row> {
    let cfg = BootstrapConfig::default();
    let mut rows = Vec::new();
    for b in base {
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            continue;
        };
        for (metric, samples) in &b.series {
            let Some(fresh_samples) = f.series(metric) else {
                continue;
            };
            let Some(mut cmp) = compare(samples, fresh_samples, threshold, &cfg) else {
                continue;
            };
            if cmp.verdict == Verdict::Slower
                && metric != STEP_TOTAL
                && metric != STEP_PERIOD
                && cmp.cand_median - cmp.base_median < MIN_REGRESSION_NS
            {
                cmp.verdict = Verdict::Indistinguishable;
            }
            rows.push(Row {
                group: b.name.clone(),
                metric: metric.clone(),
                cmp,
            });
        }
    }
    rows
}

/// The flags every gate binary's `record` and `compare` share.
#[derive(Debug, Clone)]
pub struct GateArgs {
    /// `compare` (otherwise `record`).
    pub compare: bool,
    /// `--out` / `--baseline`.
    pub path: String,
    /// `--threshold`.
    pub threshold: Option<f64>,
    /// `--quick`: the CI smoke shape.
    pub quick: bool,
    /// `--allow-missing-baseline`.
    pub allow_missing: bool,
}

impl GateArgs {
    /// Parses `record|compare` and the shared flags from the process
    /// arguments. Every other flag goes to `other(flag, rest)`, which
    /// takes the flag's value from `rest` (see [`flag_value`]) and returns
    /// `Ok(false)` for a flag it does not know. On a usage error prints
    /// `usage` and exits 2.
    pub fn parse(
        default_path: &str,
        usage: &str,
        other: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> GateArgs {
        Self::try_parse(default_path, other).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2);
        })
    }

    fn try_parse(
        default_path: &str,
        mut other: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<GateArgs, String> {
        let mut it = std::env::args().skip(1);
        let compare = match it.next().as_deref() {
            Some("record") => false,
            Some("compare") => true,
            other => return Err(format!("expected subcommand record|compare, got {other:?}")),
        };
        let mut args = GateArgs {
            compare,
            path: default_path.to_string(),
            threshold: None,
            quick: false,
            allow_missing: false,
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" | "--baseline" => args.path = flag_value(&flag, &mut it)?,
                "--threshold" => args.threshold = Some(flag_value(&flag, &mut it)?),
                "--quick" => args.quick = true,
                "--allow-missing-baseline" => args.allow_missing = true,
                _ if other(&flag, &mut it)? => {}
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(args)
    }

    /// The compare threshold: the baseline's `recorded` one unless
    /// `--threshold` or `--quick` was given, in which case `requested`.
    pub fn pick_threshold(&self, requested: f64, recorded: Option<f64>) -> f64 {
        match recorded {
            Some(t) if self.threshold.is_none() && !self.quick => t,
            _ => requested,
        }
    }
}

/// Takes and parses the value of `flag` from the remaining arguments.
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    rest: &mut dyn Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    rest.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Writes a recorded document to `path`; exits 1 when it cannot.
pub fn write_document<C: Config>(doc: &Envelope<C>, path: &str) {
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote baseline to {path}");
}

/// The `compare` subcommand shared by the gate binaries.
///
/// Loads the baseline at `args.path` and warns when it was recorded on
/// another machine. A missing baseline with `--allow-missing-baseline`
/// warns and returns `None`; any other unreadable baseline exits 2. The
/// threshold is the baseline's own unless `--threshold` or `--quick` was
/// given, in which case it is `requested` (the binary's config after
/// those flags). `measure(baseline)` returns the baseline and fresh
/// documents to compare. Prints the verdict table; exits 1 on any
/// regression, otherwise returns the fresh document.
pub fn run_compare<C: Config>(
    args: &GateArgs,
    requested: f64,
    measure: impl FnOnce(Envelope<C>) -> (Envelope<C>, Envelope<C>),
) -> Option<Envelope<C>> {
    let path = &args.path;
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if args.allow_missing => {
            eprintln!(
                "warning: no baseline at {path} ({e}); nothing to gate against. \
                 Record one with `{} --out {path}`.",
                C::RECORD
            );
            return None;
        }
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    let base = Envelope::<C>::from_json(&src).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let (was, here) = (&base.fingerprint, Fingerprint::current());
    if *was != here {
        eprintln!(
            "warning: baseline was recorded on {}/{} with {} hw thread(s); this host is \
             {}/{} with {} — absolute times are not comparable across machines, only \
             uniform relative changes",
            was.os, was.arch, was.hw_threads, here.os, here.arch, here.hw_threads
        );
    }
    let threshold = args.pick_threshold(requested, base.config.threshold());
    println!(
        "comparing against {path} ({} group(s), threshold +{:.0}%)",
        base.groups.len(),
        threshold * 100.0
    );
    let (base, fresh) = measure(base);
    let rows = compare_series(&base.groups, &fresh.groups, threshold);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.clone(),
                r.metric.clone(),
                format!("{:.3}", r.cmp.base_median / 1e6),
                format!("{:.3}", r.cmp.cand_median / 1e6),
                format!("{:+.0}%", r.cmp.rel_change * 100.0),
                format!("[{:+.0}%, {:+.0}%]", r.cmp.ci.0 * 100.0, r.cmp.ci.1 * 100.0),
                r.cmp.verdict.label().to_string(),
            ]
        })
        .collect();
    crate::print_table(
        &format!("{} verdicts", C::EXPERIMENT),
        &[
            "Group", "Metric", "Base ms", "Now ms", "Change", "95% CI", "Verdict",
        ],
        &table,
    );
    let regressions: Vec<&Row> = rows.iter().filter(|r| r.is_regression()).collect();
    if regressions.is_empty() {
        println!(
            "\ngate passed: nothing slower than baseline beyond +{:.0}%",
            threshold * 100.0
        );
        return Some(fresh);
    }
    for r in &regressions {
        eprintln!(
            "REGRESSION: {} / {}: median {:.3} ms -> {:.3} ms ({:+.0}%, 95% CI \
             [{:+.0}%, {:+.0}%] beyond +{:.0}%)",
            r.group,
            r.metric,
            r.cmp.base_median / 1e6,
            r.cmp.cand_median / 1e6,
            r.cmp.rel_change * 100.0,
            r.cmp.ci.0 * 100.0,
            r.cmp.ci.1 * 100.0,
            threshold * 100.0
        );
    }
    eprintln!(
        "\ngate FAILED: {} regression(s) across {} row(s)",
        regressions.len(),
        rows.len()
    );
    std::process::exit(1);
}

/// A required non-negative integer member.
pub(crate) fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// A required numeric member.
pub(crate) fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// A required string member.
pub(crate) fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// A required boolean member.
pub(crate) fn field_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field {key:?}")),
    }
}

/// A required array member.
pub(crate) fn field_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))
}

/// An array of numbers (`None` if any element is not one).
fn numbers(v: &Json) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(Json::as_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor_scaling::ScalingConfig;
    use crate::harness::GateConfig;
    use crate::server_gate::{ServerGateConfig, REQUEST_LATENCY};

    /// 40 samples around `center` ns with ±1% deterministic jitter.
    fn samples(center: f64) -> Vec<f64> {
        (0..40)
            .map(|i| center * (1.0 + (i % 5) as f64 * 0.005))
            .collect()
    }

    fn group(name: &str, series: &[(&str, f64)]) -> Group {
        Group {
            name: name.to_string(),
            values: Vec::new(),
            series: series
                .iter()
                .map(|(k, c)| (k.to_string(), samples(*c)))
                .collect(),
        }
    }

    /// The verdict of one series doubled from `base` ns to `2 * base`.
    fn doubled(metric: &str, base: f64) -> Verdict {
        let rows = compare_series(
            &[group("g", &[(metric, base)])],
            &[group("g", &[(metric, 2.0 * base)])],
            0.35,
        );
        assert_eq!(rows.len(), 1);
        rows[0].cmp.verdict
    }

    #[test]
    fn floor_downgrades_small_phase_and_latency_slowdowns() {
        // +5 µs: doubled, but under the 10 µs floor.
        assert_eq!(doubled("Broadphase", 5_000.0), Verdict::Indistinguishable);
        assert_eq!(
            doubled(REQUEST_LATENCY, 5_000.0),
            Verdict::Indistinguishable
        );
        // +50 µs clears it.
        assert_eq!(doubled("Broadphase", 50_000.0), Verdict::Slower);
        assert_eq!(doubled(REQUEST_LATENCY, 50_000.0), Verdict::Slower);
    }

    #[test]
    fn floor_spares_whole_step_aggregates() {
        assert_eq!(doubled(STEP_TOTAL, 5_000.0), Verdict::Slower);
        assert_eq!(doubled(STEP_PERIOD, 5_000.0), Verdict::Slower);
    }

    #[test]
    fn one_sided_groups_and_series_are_skipped() {
        let base = [
            group("Mix", &[("Cloth", 1e6), (STEP_TOTAL, 2e6)]),
            group("Resting", &[(STEP_TOTAL, 1e6)]),
        ];
        let fresh = [
            group("Mix", &[(STEP_TOTAL, 2e6), ("Solver", 1e6)]),
            group("Ragdoll", &[(STEP_TOTAL, 1e6)]),
        ];
        let rows = compare_series(&base, &fresh, 0.35);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(
            (rows[0].group.as_str(), rows[0].metric.as_str()),
            ("Mix", STEP_TOTAL)
        );
    }

    #[test]
    fn threshold_is_the_baselines_unless_overridden() {
        let mut args = GateArgs {
            compare: true,
            path: String::new(),
            threshold: None,
            quick: false,
            allow_missing: false,
        };
        assert_eq!(args.pick_threshold(1.0, Some(0.35)), 0.35);
        assert_eq!(args.pick_threshold(1.0, None), 1.0);
        args.quick = true;
        assert_eq!(args.pick_threshold(1.0, Some(0.35)), 1.0);
        args.quick = false;
        args.threshold = Some(0.1);
        assert_eq!(args.pick_threshold(0.1, Some(0.35)), 0.1);
    }

    #[test]
    fn v1_documents_are_refused_with_the_record_command() {
        let v1 = |experiment: &str| {
            format!("{{\"schema_version\": 1, \"experiment\": \"{experiment}\"}}")
        };
        let errs = [
            Envelope::<GateConfig>::from_json(&v1("scene_gate")).unwrap_err(),
            Envelope::<ServerGateConfig>::from_json(&v1("server_gate")).unwrap_err(),
            Envelope::<ScalingConfig>::from_json(&v1("executor_scaling")).unwrap_err(),
        ];
        for (err, cmd) in errs.iter().zip([
            GateConfig::RECORD,
            ServerGateConfig::RECORD,
            ScalingConfig::RECORD,
        ]) {
            assert!(err.contains("v1") && err.contains(cmd), "{err}");
        }
    }

    #[test]
    fn documents_are_refused_across_experiments() {
        let server = Envelope::new(
            ServerGateConfig::default(),
            vec![group("10x20", &[(STEP_PERIOD, 1e6)])],
        )
        .to_json();
        let err = Envelope::<GateConfig>::from_json(&server).unwrap_err();
        assert!(err.contains("server_gate"), "{err}");
        assert!(Envelope::<ServerGateConfig>::from_json(&server).is_ok());
    }
}
