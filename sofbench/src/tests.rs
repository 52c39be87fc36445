//! Miniature self-test: every workload at a tiny size, twice. Run with
//! `cargo test --release --manifest-path sofbench/Cargo.toml`.

use crate::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use crate::{run_workload, Run, Size, WORKLOADS};
use sof_spec::value::{parse_json, Value};
use std::time::Duration;

/// Per-layer counters that must repeat exactly across runs of one seed
/// (timings and loop-length-dependent counts excluded).
const COUNTERS: &[&str] = &[
    "kstroll.work",
    "graph.engine.hits",
    "graph.engine.misses",
    "graph.engine.stale",
    "graph.engine.partial_repairs",
    "exact.nodes_explored",
    "exact.optimal_share",
    "core.solve_count.sofda",
    "core.solve_count.enemp",
    "core.solve_count.est",
    "core.solve_count.st",
    "core.solve_count.exact",
    "core.candidate_chains",
    "core.conflicts",
    "core.online.rebuild_share",
    "core.online.joins",
    "core.online.leaves",
    "survive.surcharged_events",
    "survive.reactive.fail_events",
    "survive.reactive.disruptions",
    "survive.reactive.recoveries",
    "survive.reactive.events_to_restore",
    "survive.backup-paths.fail_events",
    "survive.backup-paths.disruptions",
    "survive.backup-paths.recoveries",
    "survive.backup-paths.events_to_restore",
    "survive.standby-forest.fail_events",
    "survive.standby-forest.disruptions",
    "survive.standby-forest.recoveries",
    "survive.standby-forest.events_to_restore",
];

/// End-to-end metrics that are deterministic for a seed.
const DETERMINISTIC: &[&str] = &["cost", "opt_ratio", "availability"];

fn tiny(trace: bool) -> Run {
    Run {
        seed: 7,
        budget: Duration::from_secs(1),
        trace,
        size: Size::Tiny,
        threads: 2,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("'{key}' is not a string: {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("'{key}' is not an array: {other:?}"),
    }
}

/// `BENCHMARK.json` lists exactly the metric tables the program prints,
/// with the same units and directions, and exactly its workloads.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let json = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str, &str)> = array(&json, key)
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let table: Vec<(&str, &str, &str)> = defs
            .iter()
            .map(|d: &MetricDef| (d.name, d.unit, d.better))
            .collect();
        assert_eq!(listed, table, "{key} differs from the program's table");
    }
    let workloads: Vec<&str> = array(&json, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

fn check_emitted(name: &str, out: &Outcome, trace: bool) {
    assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
    assert_eq!(out.failed, 0, "{name}: failed ops");
    let line = out.result_json(trace);
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name}: {} missing from {line}", d.name));
        let rest = &line[at + entry.len()..];
        assert!(!rest.starts_with("null"), "{name}: {} has no value", d.name);
        let unit = format!("\"unit\": \"{}\"", d.unit);
        assert!(
            rest[..rest.find('}').expect("closing brace")].contains(&unit),
            "{name}: {} lacks its unit",
            d.name
        );
    }
    if !trace {
        for d in END_TO_END {
            let v = out.e2e[d.name];
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", d.name);
        }
    }
    for m in out.metric_lines(trace) {
        assert!(m.contains("is better)"), "{name}: no direction in '{m}'");
    }
}

/// Runs every workload twice per mode and collects every metric that
/// should repeat exactly but did not, so one failure hides no other.
#[test]
fn every_metric_is_emitted_and_deterministic_ones_repeat() {
    let mut differ = Vec::new();
    for &name in WORKLOADS {
        for trace in [false, true] {
            let a = run_workload(name, &tiny(trace));
            let b = run_workload(name, &tiny(trace));
            check_emitted(name, &a, trace);
            check_emitted(name, &b, trace);
            let (keys, ma, mb) = if trace {
                (COUNTERS, &a.layer, &b.layer)
            } else {
                (DETERMINISTIC, &a.e2e, &b.e2e)
            };
            for &k in keys {
                let (x, y) = (ma.get(k).copied(), mb.get(k).copied());
                if x.map(f64::to_bits) != y.map(f64::to_bits) {
                    differ.push(format!("{name}: {k} {x:?} vs {y:?}"));
                }
            }
        }
    }
    assert!(
        differ.is_empty(),
        "differ between two runs of one seed: {differ:#?}"
    );
}

#[test]
fn arguments_are_strict() {
    let parse = |args: &[&str]| crate::parse_args(args.iter().map(|s| s.to_string()));
    assert!(parse(&[
        "--workload",
        "paper-solve",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_ok());
    assert!(parse(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "paper-solve",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "paper-solve",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&["--workload", "paper-solve", "--seed", "1", "--trace", "0"]).is_err());
    assert!(parse(&[
        "--workload",
        "paper-solve",
        "--seed",
        "x",
        "--seconds",
        "2",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&["--bogus", "1"]).is_err());
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let d = crate::report::Dist::new((1..=100).map(f64::from).collect());
    assert_eq!(d.pct(50.0), Some(50.0));
    assert_eq!(d.pct(90.0), Some(90.0));
    assert_eq!(d.pct(95.0), None);
    assert_eq!(d.tail(), Some((90.0, 90.0)));
    let small = crate::report::Dist::new(vec![1.0; 15]);
    assert_eq!(small.pct(50.0), None);
    assert_eq!(small.tail(), None);
}
