//! `churn-failures`: the streaming runner under viewer churn and element
//! failures; one op is one viewer event.
//!
//! The `churn-at-scale` region topology with about 200 groups replays one
//! seeded link/VM failure trace under each protection policy (reactive,
//! backup-paths, standby-forest), as the `churn-failures-protected` preset
//! does. Each policy is one `Runner::run` leg; a round is the three legs.

use crate::report::{latency_metrics, median, per_op_medians, Dist, Outcome};
use crate::solve::{layer_metrics, pass, ratio, timed, Acc, Item, Pass};
use crate::trace::Tracer;
use crate::{mix, Run, Size};
use sof_runner::{EngineTotals, GroupProcess, Record, Runner, RunnerConfig, Sink, Summary};
use sof_spec::{RunOptions, ScenarioSpec, Workload};
use sof_survive::ProtectionPolicy;
use sof_topo::{build_region_instance, build_regions, RegionScenario};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Metric-name keys of the protection policies, in leg order.
const POLICIES: [&str; 3] = ["reactive", "backup-paths", "standby-forest"];

struct Shape {
    groups: usize,
    /// Viewer events per leg.
    events: u64,
    window: u64,
    /// Groups whose initial instance SOFDA and the exact solver also solve.
    reference_groups: usize,
}

const FULL: Shape = Shape {
    groups: 200,
    events: 20_000,
    window: 2000,
    reference_groups: 16,
};

const TINY: Shape = Shape {
    groups: 12,
    events: 120,
    window: 40,
    reference_groups: 3,
};

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 21;

fn preset(name: &str) -> ScenarioSpec {
    sof_spec::presets::preset(name)
        .expect("bundled preset")
        .expect("bundled presets are valid")
}

/// One runner configuration per protection policy, all replaying the same
/// seeded churn and failure trace.
fn legs(seed: u64, shape: &Shape) -> Vec<RunnerConfig> {
    let protected = preset("churn-failures-protected");
    let Workload::ChurnAtScale(p) = &protected.workload else {
        unreachable!("churn-failures-protected is a churn-at-scale preset")
    };
    let mut failures = p.failures.clone().expect("the preset has a failure axis");
    assert_eq!(failures.policies, POLICIES, "the preset's policies changed");
    failures.seed = mix(seed, 0xFA11);
    let mut spec = preset("churn-at-scale");
    let Workload::ChurnAtScale(s) = &mut spec.workload else {
        unreachable!("churn-at-scale is a churn-at-scale preset")
    };
    s.groups = shape.groups;
    s.events = shape.events;
    s.window = shape.window;
    s.seed = mix(seed, 0xC4E2);
    s.emit_events = true;
    s.failures = Some(failures);
    let opts = RunOptions {
        threads: 0,
        timings: true,
        legacy_notes: false,
    };
    let cfg = sof_spec::runner_config(&spec, &opts).expect("a valid runner configuration");
    POLICIES
        .iter()
        .map(|policy| {
            let mut leg = cfg.clone();
            leg.failures.as_mut().expect("a failure plan").policy =
                ProtectionPolicy::from_name(policy).expect("a known policy");
            leg
        })
        .collect()
}

/// The initial instances of the first `k` groups, rebuilt the way the
/// runner builds them, for SOFDA and the exact solver to solve offline.
fn reference_items(cfg: &RunnerConfig, k: usize) -> Vec<Item> {
    let rt = build_regions(&cfg.regions, cfg.seed).expect("valid regions");
    (0..k as u64)
        .map(|id| {
            let proc = GroupProcess::new(id, &rt, &cfg.churn, cfg.seed);
            let req = proc.current();
            let scenario = RegionScenario {
                vms_per_dc: cfg.vms_per_dc,
                setup_scale: cfg.setup_scale,
                seed: proc.instance_seed(),
            };
            let inst = build_region_instance(
                &rt,
                &scenario,
                req.sources.clone(),
                req.destinations.clone(),
                cfg.churn.chain_len,
            );
            let mut sofda = cfg.sofda;
            sofda.seed ^= proc.instance_seed();
            Item {
                inst,
                cfg: sofda,
                solvers: &[0],
                exact: true,
                fig12: false,
            }
        })
        .collect()
}

/// `OnlineSession` prices a failed link or VM at this cost instead of
/// deleting it, so a forest with no way around a failure pays it on every
/// event until the element is repaired.
const FAILED_ELEMENT_COST: f64 = 1e9;

/// What the benchmark's sink reads off one leg's record stream.
#[derive(Default)]
struct Log {
    event_ms: Vec<f64>,
    /// Forest cost summed over events whose forest avoids failed elements.
    clean_cost: f64,
    /// Events whose forest pays the failed-element price.
    surcharged: u64,
    rebuilt: u64,
    rebuilt_ms: f64,
    incremental_ms: f64,
    joins: u64,
    leaves: u64,
    /// Cumulative path-cache counters of the last window.
    engine: EngineTotals,
}

struct LogSink(Arc<Mutex<Log>>);

impl Sink for LogSink {
    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        let mut log = self.0.lock().expect("sink log poisoned");
        match record {
            Record::Event(e) => {
                if e.cost < FAILED_ELEMENT_COST {
                    log.clean_cost += e.cost;
                } else {
                    log.surcharged += 1;
                }
                let ms = e.millis.unwrap_or(f64::NAN);
                log.event_ms.push(ms);
                if e.rebuilt {
                    log.rebuilt += 1;
                    log.rebuilt_ms += ms;
                } else {
                    log.incremental_ms += ms;
                }
            }
            Record::Window(w) => {
                log.joins += w.joins;
                log.leaves += w.leaves;
                log.engine = w.engine;
            }
            _ => {}
        }
        Ok(())
    }
}

struct Leg {
    summary: Summary,
    run_ms: f64,
    log: Log,
}

/// One round: every policy leg, set up and run once.
struct Round {
    legs: Vec<Leg>,
}

impl Round {
    fn events(&self) -> u64 {
        self.legs.iter().map(|l| l.summary.events).sum()
    }

    /// Every event's embed time, legs in order.
    fn event_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.legs
            .iter()
            .flat_map(|l| l.log.event_ms.iter().copied())
    }

    fn errors(&self) -> u64 {
        self.legs.iter().map(|l| l.summary.errors).sum()
    }

    fn run_ms(&self) -> f64 {
        self.legs.iter().map(|l| l.run_ms).sum()
    }

    /// Forest cost over every leg's events, leaving out the events that
    /// pay the failed-element price: those are counted, not summed, or a
    /// handful of them would outweigh every real forest.
    fn cost(&self) -> f64 {
        self.legs.iter().map(|l| l.log.clean_cost).sum()
    }

    fn surcharged(&self) -> u64 {
        self.legs.iter().map(|l| l.log.surcharged).sum()
    }

    /// `RecoveryMetrics` availability, averaged over the policy legs.
    fn availability(&self) -> f64 {
        let sum: f64 = self
            .legs
            .iter()
            .map(|l| l.summary.recovery.unwrap_or_default().availability)
            .sum();
        sum / self.legs.len() as f64
    }

    fn compare(&self, first: &Round, out: &mut Outcome, context: &str) {
        out.same("cost", first.cost(), self.cost(), context);
        out.same(
            "availability",
            first.availability(),
            self.availability(),
            context,
        );
        out.same(
            "events",
            first.events() as f64,
            self.events() as f64,
            context,
        );
        out.same(
            "errors",
            first.errors() as f64,
            self.errors() as f64,
            context,
        );
        out.same(
            "surcharged events",
            first.surcharged() as f64,
            self.surcharged() as f64,
            context,
        );
    }
}

fn round(legs: &[RunnerConfig], mut tracer: Option<&mut Tracer>, out: &mut Outcome) -> Round {
    let mut done = Vec::with_capacity(legs.len());
    for (i, cfg) in legs.iter().enumerate() {
        let (runner, _) = timed(
            tracer.as_deref_mut(),
            "runner",
            "Runner::new",
            i as u64,
            || Runner::new(cfg.clone()),
        );
        let mut runner = match runner {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("Runner::new failed: {e}"));
                continue;
            }
        };
        let log = Arc::new(Mutex::new(Log::default()));
        runner.add_sink(Box::new(LogSink(Arc::clone(&log))));
        let (summary, run_ms) = timed(
            tracer.as_deref_mut(),
            "runner",
            "Runner::run",
            i as u64,
            || runner.run(),
        );
        let log = std::mem::take(&mut *log.lock().expect("sink log poisoned"));
        match summary {
            Ok(summary) => done.push(Leg {
                summary,
                run_ms,
                log,
            }),
            Err(e) => out.problem(format!("Runner::run failed: {e}")),
        }
    }
    Round { legs: done }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let shape = match run.size {
        Size::Full => &FULL,
        Size::Tiny => &TINY,
    };
    let legs = legs(run.seed, shape);
    let reference = reference_items(&legs[0], shape.reference_groups);

    // Set-up: `Runner::new` for every leg (regions plus the initial session
    // pool), repeated; the median counts. The region build alone is timed
    // by calling it directly.
    let mut setup_ms = Vec::with_capacity(SETUP_REPS);
    let mut regions_ms = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for cfg in &legs {
            drop(Runner::new(cfg.clone()));
        }
        setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        drop(build_regions(&legs[0].regions, legs[0].seed));
        regions_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let setup = median(setup_ms);
    out.e2e.insert("setup_s", setup / 1e3);
    out.layer.insert("topo.build_ms", median(regions_ms));
    out.lines.push(format!(
        "churn-failures: {} groups, {} events per leg, {} policy legs, set-up {setup:.1} ms",
        shape.groups,
        shape.events,
        legs.len()
    ));

    // An untimed round at one thread warms the allocator and caches and is
    // the reference every timed round must match: results are bit-identical
    // at any thread count.
    sof_par::set_threads(1);
    let first = round(&legs, None, &mut out);
    sof_par::set_threads(run.threads);

    // Measured rounds with tracing off; the traced run spends half its
    // budget here.
    let budget_ms = run.budget.as_secs_f64() * 1e3 / if run.trace { 2.0 } else { 1.0 };
    let mut eps = Vec::new();
    let mut run_ms = 0.0;
    let mut lat: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while run_ms < budget_ms || eps.len() < 2 {
        let again = round(&legs, None, &mut out);
        let context = format!("round {} vs the SOF_THREADS=1 round", eps.len() + 1);
        again.compare(&first, &mut out, &context);
        eps.push(again.events() as f64 / (again.run_ms() / 1e3));
        run_ms += again.run_ms();
        lat.extend(again.event_ms());
        attempted += again.events();
        failed += again.errors();
    }
    // Rounds replay the same trace, so the median round discounts one
    // slowed by the host.
    let ops_per_s = median(eps.clone());
    out.attempted = attempted;
    out.failed = failed;
    out.lines.push(format!(
        "{} rounds, {attempted} events, {failed} errors, {run_ms:.1} ms in Runner::run; \
         median round {ops_per_s:.1} events/s",
        eps.len()
    ));
    // Rounds replay the same events in the same order.
    let event_lat = per_op_medians(&lat, first.events() as usize);
    latency_metrics(
        &mut out,
        &Dist::new(event_lat),
        "event embed latency (per-event median over rounds)",
    );
    let mut racc = Acc::default();
    let reference_pass = pass(&reference, None, &mut racc, &mut out);
    out.e2e.insert("ops_per_s", ops_per_s);
    out.e2e.insert("cost", first.cost());
    out.e2e.insert("availability", first.availability());
    out.e2e.insert("opt_ratio", reference_pass.opt_ratio());
    for (policy, leg) in POLICIES.iter().zip(&first.legs) {
        let r = leg.summary.recovery.unwrap_or_default();
        out.lines.push(format!(
            "  {policy:<15} events {} errors {} accumulated cost {:.4} availability {:.6} \
             ({} failures, {} disruptions, {} recoveries)",
            leg.summary.events,
            leg.summary.errors,
            leg.summary.accumulated_cost,
            r.availability,
            r.fail_events,
            r.disruptions,
            r.recoveries
        ));
    }
    out.lines.push(format!(
        "cost {:.4} over events clear of failed elements; {} events ({:.2}%) paid the \
         failed-element price",
        first.cost(),
        first.surcharged(),
        100.0 * first.surcharged() as f64 / first.events() as f64
    ));
    out.lines.push(format!(
        "opt_ratio {:.6} over the initial forests of {} groups",
        reference_pass.opt_ratio(),
        reference.len()
    ));
    if !reference_pass.opt_ratio().is_finite() {
        out.problem("the exact solver proved no group optimal; opt_ratio is undefined");
    }

    if run.trace {
        traced(
            &mut out,
            &legs,
            &reference,
            &first,
            &reference_pass,
            ops_per_s,
        );
    } else {
        // Bit-identical at any thread count: the reference pass once more
        // at one thread (the rounds were checked against the first).
        sof_par::set_threads(1);
        pass(&reference, None, &mut Acc::default(), &mut out).compare(
            &reference_pass,
            &mut out,
            "SOF_THREADS=1 vs pinned",
        );
        sof_par::set_threads(run.threads);
    }
    out
}

fn traced(
    out: &mut Outcome,
    legs: &[RunnerConfig],
    reference: &[Item],
    first: &Round,
    reference_pass: &Pass,
    untraced: f64,
) {
    let mut tracer = Tracer::new();
    let r = round(legs, Some(&mut tracer), out);
    r.compare(first, out, "traced round");
    let mut racc = Acc::default();
    pass(reference, Some(&mut tracer), &mut racc, out).compare(reference_pass, out, "traced pass");
    layer_metrics(out, &racc);

    let traced = r.events() as f64 / (r.run_ms() / 1e3);
    let events: Vec<f64> = r.event_ms().collect();
    let embed_ms: f64 = events.iter().sum();
    let dist = Dist::new(events);
    let sum = |f: fn(&Leg) -> f64| r.legs.iter().map(f).sum::<f64>();
    let mut engine = EngineTotals::default();
    for leg in &r.legs {
        engine.hits += leg.log.engine.hits;
        engine.misses += leg.log.engine.misses;
        engine.stale += leg.log.engine.stale;
    }
    let mut set = |k: &'static str, v: f64| {
        out.layer.insert(k, v);
    };
    set("core.online.event_p50_ms", dist.pct(50.0).unwrap_or(0.0));
    set("core.online.event_p99_ms", dist.pct(99.0).unwrap_or(0.0));
    set("core.online.rebuild_ms", sum(|l| l.log.rebuilt_ms));
    set("core.online.incremental_ms", sum(|l| l.log.incremental_ms));
    set(
        "core.online.rebuild_share",
        ratio(sum(|l| l.log.rebuilt as f64), r.events() as f64),
    );
    set("core.online.joins", sum(|l| l.log.joins as f64));
    set("core.online.leaves", sum(|l| l.log.leaves as f64));
    set("runner.overhead_ms", r.run_ms() - embed_ms);
    set("survive.surcharged_events", r.surcharged() as f64);
    // The runner's engine counters replace the offline solves' ones: they
    // are the streaming sessions' caches. The runner's records carry no
    // partial-repair count, so that counter and its ratio stay 0 here.
    set("graph.engine.hits", engine.hits as f64);
    set("graph.engine.misses", engine.misses as f64);
    set("graph.engine.stale", engine.stale as f64);
    set("graph.engine.partial_repairs", 0.0);
    set(
        "graph.engine.hit_ratio",
        ratio(engine.hits as f64, (engine.hits + engine.misses) as f64),
    );
    set("graph.engine.repair_rescue_ratio", 0.0);
    const SURVIVE: [[&str; 4]; 3] = [
        [
            "survive.reactive.fail_events",
            "survive.reactive.disruptions",
            "survive.reactive.recoveries",
            "survive.reactive.events_to_restore",
        ],
        [
            "survive.backup-paths.fail_events",
            "survive.backup-paths.disruptions",
            "survive.backup-paths.recoveries",
            "survive.backup-paths.events_to_restore",
        ],
        [
            "survive.standby-forest.fail_events",
            "survive.standby-forest.disruptions",
            "survive.standby-forest.recoveries",
            "survive.standby-forest.events_to_restore",
        ],
    ];
    for (keys, leg) in SURVIVE.iter().zip(&r.legs) {
        let rec = leg.summary.recovery.unwrap_or_default();
        set(keys[0], rec.fail_events as f64);
        set(keys[1], rec.disruptions as f64);
        set(keys[2], rec.recoveries as f64);
        set(keys[3], rec.mean_events_to_restore);
    }
    set("trace.overhead_share", 1.0 - traced / untraced);
    out.lines.push(dist.describe("traced event embed latency"));
    out.lines.push(format!(
        "traced round {traced:.1} events/s vs {untraced:.1} untraced; {:.1} ms of {:.1} ms in \
         Runner::run outside event embeds",
        r.run_ms() - embed_ms,
        r.run_ms()
    ));
    // Event embed time is measured by the runner itself (EventRecord), so
    // it moves from the runner's span to the core layer. Embeds on parallel
    // pool workers can sum to more than the span, leaving the runner's
    // self time negative.
    out.add_layer_table(
        &tracer,
        &[("core", embed_ms, r.events()), ("runner", -embed_ms, 0)],
    );
    out.tracer = Some(tracer);
}
