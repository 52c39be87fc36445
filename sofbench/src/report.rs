//! Metric tables, percentiles, the host stamp and the result line.

use crate::trace::Tracer;
use crate::Run;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's name, unit and direction (`BENCHMARK.json` mirrors these).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off; every workload reports
/// every one of them (see the README for each workload's definition).
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "op/s", "higher"),
    m("op_p50_ms", "ms", "lower"),
    m("op_tail_ms", "ms", "lower"),
    m("cost", "cost", "lower"),
    m("opt_ratio", "ratio", "lower"),
    m("availability", "share", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run. A workload that never calls a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("topo.build_ms", "ms", "lower"),
    m("kstroll.chains_ms", "ms", "lower"),
    m("kstroll.share", "share", "lower"),
    m("kstroll.share_fig12", "share", "lower"),
    m("kstroll.work", "count", "lower"),
    m("graph.closure_ms", "ms", "lower"),
    m("graph.engine.hits", "count", "higher"),
    m("graph.engine.misses", "count", "lower"),
    m("graph.engine.stale", "count", "lower"),
    m("graph.engine.partial_repairs", "count", "higher"),
    m("graph.engine.hit_ratio", "share", "higher"),
    m("graph.engine.repair_rescue_ratio", "share", "higher"),
    m("steiner.tree_ms", "ms", "lower"),
    m("exact.solve_ms", "ms", "lower"),
    m("exact.nodes_explored", "count", "lower"),
    m("exact.optimal_share", "share", "higher"),
    m("core.solve_ms.sofda", "ms", "lower"),
    m("core.solve_ms.enemp", "ms", "lower"),
    m("core.solve_ms.est", "ms", "lower"),
    m("core.solve_ms.st", "ms", "lower"),
    m("core.solve_ms.exact", "ms", "lower"),
    m("core.solve_count.sofda", "count", "higher"),
    m("core.solve_count.enemp", "count", "higher"),
    m("core.solve_count.est", "count", "higher"),
    m("core.solve_count.st", "count", "higher"),
    m("core.solve_count.exact", "count", "higher"),
    m("core.candidate_chains", "count", "lower"),
    m("core.conflicts", "count", "lower"),
    m("core.online.event_p50_ms", "ms", "lower"),
    m("core.online.event_p99_ms", "ms", "lower"),
    m("core.online.rebuild_ms", "ms", "lower"),
    m("core.online.incremental_ms", "ms", "lower"),
    m("core.online.rebuild_share", "share", "lower"),
    m("core.online.joins", "count", "higher"),
    m("core.online.leaves", "count", "higher"),
    m("runner.overhead_ms", "ms", "lower"),
    m("survive.surcharged_events", "count", "lower"),
    m("survive.reactive.fail_events", "count", "higher"),
    m("survive.reactive.disruptions", "count", "lower"),
    m("survive.reactive.recoveries", "count", "higher"),
    m("survive.reactive.events_to_restore", "count", "lower"),
    m("survive.backup-paths.fail_events", "count", "higher"),
    m("survive.backup-paths.disruptions", "count", "lower"),
    m("survive.backup-paths.recoveries", "count", "higher"),
    m("survive.backup-paths.events_to_restore", "count", "lower"),
    m("survive.standby-forest.fail_events", "count", "higher"),
    m("survive.standby-forest.disruptions", "count", "lower"),
    m("survive.standby-forest.recoveries", "count", "higher"),
    m("survive.standby-forest.events_to_restore", "count", "lower"),
    m("daemon.route_ms.create", "ms", "lower"),
    m("daemon.route_ms.join", "ms", "lower"),
    m("daemon.route_ms.leave", "ms", "lower"),
    m("daemon.route_ms.get", "ms", "lower"),
    m("daemon.route_ms.fail", "ms", "lower"),
    m("daemon.route_ms.repair", "ms", "lower"),
    m("daemon.route_ms.stats", "ms", "lower"),
    m("daemon.route_ms.delete", "ms", "lower"),
    m("daemon.dispatch_ms.create", "ms", "lower"),
    m("daemon.dispatch_ms.join", "ms", "lower"),
    m("daemon.dispatch_ms.leave", "ms", "lower"),
    m("daemon.dispatch_ms.get", "ms", "lower"),
    m("daemon.dispatch_ms.fail", "ms", "lower"),
    m("daemon.dispatch_ms.repair", "ms", "lower"),
    m("daemon.dispatch_ms.stats", "ms", "lower"),
    m("daemon.dispatch_ms.delete", "ms", "lower"),
    m("daemon.body_parse_ms", "ms", "lower"),
    m("daemon.transport_ms", "ms", "lower"),
    m("daemon.server_requests", "count", "higher"),
    m("daemon.server_errors", "count", "lower"),
    m("self_ms.topo", "ms", "lower"),
    m("self_ms.core", "ms", "lower"),
    m("self_ms.kstroll", "ms", "lower"),
    m("self_ms.graph", "ms", "lower"),
    m("self_ms.steiner", "ms", "lower"),
    m("self_ms.exact", "ms", "lower"),
    m("self_ms.runner", "ms", "lower"),
    m("self_ms.daemon", "ms", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.overhead_share", "share", "lower"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Compares a deterministic metric between two runs of one seed.
    pub fn same(&mut self, what: &str, first: f64, again: f64, context: &str) {
        if first.to_bits() != again.to_bits() {
            self.problem(format!(
                "{what} differs between runs of one seed ({context}): {first} vs {again}"
            ));
        }
    }

    /// Folds the traced run's layer self times into the per-layer metrics
    /// and the human report.
    pub fn add_layer_table(&mut self, tracer: &Tracer, extra: &[(&'static str, f64, u64)]) {
        let mut table = tracer.layer_self_times();
        for &(layer, ms, count) in extra {
            let e = table.entry(layer).or_insert((0.0, 0));
            e.0 += ms;
            e.1 += count;
        }
        self.lines
            .push("layer self time (span minus child spans) and span count:".into());
        for (layer, (ms, count)) in &table {
            self.lines
                .push(format!("  {layer:<8} {ms:>12.3} ms  {count:>8} spans"));
            if let Some(def) = PER_LAYER
                .iter()
                .find(|d| d.name.strip_prefix("self_ms.") == Some(layer))
            {
                self.layer.insert(def.name, *ms);
            }
        }
        self.layer.insert("trace.spans", tracer.len() as f64);
    }

    /// The result object: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`), in table order.
    pub fn result_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        let defs = if trace { PER_LAYER } else { END_TO_END };
        for (i, d) in defs.iter().enumerate() {
            let value = if trace {
                self.layer.get(d.name).copied().unwrap_or(0.0)
            } else {
                self.e2e.get(d.name).copied().unwrap_or(f64::NAN)
            };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                json_num(value),
                d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human lines listing every metric with unit and direction.
    pub fn metric_lines(&self, trace: bool) -> Vec<String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|d| {
                let v = if trace {
                    self.layer.get(d.name).copied().unwrap_or(0.0)
                } else {
                    self.e2e.get(d.name).copied().unwrap_or(f64::NAN)
                };
                format!(
                    "  {:<42} {:>16} {:<6} ({} is better)",
                    d.name,
                    fmt_num(v),
                    d.unit,
                    d.better
                )
            })
            .collect()
    }
}

/// A number as JSON with all its digits (`null` when not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 1e5 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// A sorted sample of latencies (ms) with nearest-rank percentiles.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, p: f64) -> usize {
        ((p / 100.0 * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// The `p`th percentile, only when at least ten samples lie beyond it.
    pub fn pct(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let r = self.rank(p);
        (self.sorted.len() - r >= 10).then(|| self.sorted[r - 1])
    }

    /// The highest of p99, p95 and p90 that has ten samples beyond it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [99.0, 95.0, 90.0]
            .into_iter()
            .find_map(|p| self.pct(p).map(|v| (p, v)))
    }

    /// `label p50 = … ms, pNN = … ms (n = …)`, naming the tail percentile.
    pub fn describe(&self, label: &str) -> String {
        let p50 = self
            .pct(50.0)
            .map_or("n/a".into(), |v| format!("{v:.4} ms"));
        let tail = self.tail().map_or(
            "no tail percentile has 10 samples beyond it".into(),
            |(p, v)| format!("p{p:.0} = {v:.4} ms"),
        );
        format!("{label}: p50 = {p50}, {tail} (n = {})", self.len())
    }
}

/// Sets `op_p50_ms` and `op_tail_ms` from op latencies, or records why not.
pub fn latency_metrics(out: &mut Outcome, ops: &Dist, label: &str) {
    out.lines.push(ops.describe(label));
    match (ops.pct(50.0), ops.tail()) {
        (Some(p50), Some((_, tail))) => {
            out.e2e.insert("op_p50_ms", p50);
            out.e2e.insert("op_tail_ms", tail);
        }
        _ => out.problem(format!(
            "only {} ops: too few for a tail percentile with 10 samples beyond it",
            ops.len()
        )),
    }
}

/// Per-op medians of `samples`, which holds repeated passes over one op
/// sequence back to back (`per_pass` ops each): an op's latency is its
/// median over the passes, so a pass slowed by the host moves no
/// percentile, and the percentiles are over one pass's ops whatever the
/// number of passes.
pub fn per_op_medians(samples: &[f64], per_pass: usize) -> Vec<f64> {
    (0..per_pass)
        .map(|i| median(samples.iter().skip(i).step_by(per_pass).copied().collect()))
        .collect()
}

/// The median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The host fingerprint and run settings, as one JSON line.
pub fn stamp(workload: &str, run: &Run) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "none (not a git checkout)".into()
    };
    format!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"commit\": \"{commit}\", \"source_hash\": \"{:016x}\", \
         \"available_parallelism\": {}, \"sof_threads\": {}, \"rustc\": \"{}\"}}}}",
        run.seed,
        run.budget.as_secs(),
        u8::from(run.trace),
        source_hash(root),
        run.threads,
        sof_par::current_threads(),
        command_line("rustc", &["-V"]),
    )
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over every source file the benchmark builds against, so a result
/// names the code it measured even outside a git checkout.
fn source_hash(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "sofbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
