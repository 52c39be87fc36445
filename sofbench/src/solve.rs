//! Cold solves of built instances, shared by every workload: the timed
//! `Solver::solve` and `solve_exact` calls, output checks, and the traced
//! replays of the layers under a SOFDA solve.

use crate::report::{median, Outcome};
use crate::trace::Tracer;
use sof_core::{ChainMetric, Network, SofInstance, SofdaConfig};
use sof_exact::{solve_exact, ExactBudget};
use sof_graph::{NodeId, PathEngineStats, Rng64};
use sof_kstroll::estimated_work;
use sof_steiner::mehlhorn_with_engine;
use std::hint::black_box;
use std::time::Instant;

/// Metric-name keys of the comparison set (`sof_solvers::comparison_set`
/// order) and of the exact solver, which is slot 4.
pub const SOLVER_KEYS: [&str; 5] = ["sofda", "enemp", "est", "st", "exact"];
const EXACT: usize = 4;

/// One instance to solve and how.
pub struct Item {
    pub inst: SofInstance,
    pub cfg: SofdaConfig,
    /// Indices into the comparison set that solve this instance.
    pub solvers: &'static [usize],
    /// The exact solver also solves it.
    pub exact: bool,
    /// A Cogent point at Fig. 12 density (reported separately).
    pub fig12: bool,
}

/// A copy of `inst` rebuilt through `Network::new`, so it shares no
/// `PathEngine` with the original and starts cold.
fn cold_copy(inst: &SofInstance) -> SofInstance {
    let net = &inst.network;
    let n = net.node_count();
    let kinds = (0..n).map(|i| net.kind(NodeId::new(i))).collect();
    let costs = (0..n).map(|i| net.node_cost(NodeId::new(i))).collect();
    let net = Network::new(net.graph().clone(), kinds, costs).expect("copy of a valid network");
    SofInstance::new(net, inst.request.clone()).expect("copy of a valid instance")
}

/// Timings and counters accumulated over passes.
#[derive(Default)]
pub struct Acc {
    pub ops: u64,
    pub failed: u64,
    pub op_ms: f64,
    pub lat: Vec<f64>,
    pub per_solver: [Vec<f64>; 5],
    /// Throughput of each complete pass.
    pub pass_ops_per_s: Vec<f64>,
    // Counters of traced passes.
    pub candidate_chains: u64,
    pub conflicts: u64,
    pub chains_ms: f64,
    pub closure_ms: f64,
    pub tree_ms: f64,
    pub work: f64,
    pub sofda_ms: f64,
    pub fig12_chains_ms: f64,
    pub fig12_sofda_ms: f64,
    pub exact_ms: f64,
    pub exact_nodes: u64,
    pub exact_runs: u64,
    pub exact_optimal: u64,
    pub engine: PathEngineStats,
}

impl Acc {
    fn op(&mut self, solver: usize, ms: f64) {
        self.ops += 1;
        self.op_ms += ms;
        self.lat.push(ms);
        self.per_solver[solver].push(ms);
    }
}

/// One pass's deterministic results.
#[derive(Default)]
pub struct Pass {
    /// Every op's forest cost in op order (`-1` for a failed solve).
    pub costs: Vec<f64>,
    /// SOFDA and exact cost sums over the instances the exact solver
    /// proved optimal.
    sofda_on_optimal: f64,
    exact_optimal: f64,
    failed: u64,
}

impl Pass {
    pub fn cost(&self) -> f64 {
        self.costs.iter().filter(|c| **c >= 0.0).sum()
    }

    /// SOFDA cost over exact cost, summed over proven-optimal instances
    /// (NaN when the exact solver proved none optimal).
    pub fn opt_ratio(&self) -> f64 {
        self.sofda_on_optimal / self.exact_optimal
    }

    /// Share of solves that returned a forest.
    pub fn availability(&self) -> f64 {
        1.0 - self.failed as f64 / self.costs.len().max(1) as f64
    }

    /// Fails the run when a deterministic result differs from `first`.
    pub fn compare(&self, first: &Pass, out: &mut Outcome, context: &str) {
        out.same("cost", first.cost(), self.cost(), context);
        out.same("opt_ratio", first.opt_ratio(), self.opt_ratio(), context);
        out.same(
            "availability",
            first.availability(),
            self.availability(),
            context,
        );
        if let Some(i) = (0..first.costs.len().min(self.costs.len()))
            .find(|&i| first.costs[i].to_bits() != self.costs[i].to_bits())
        {
            out.problem(format!("op {i} cost differs ({context})"));
        }
    }
}

pub fn timed<R>(
    tracer: Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => t.span(layer, name, op, |_| f()),
        None => {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Solves every item once on a cold copy, validating every forest. With a
/// tracer, each call is a span and every SOFDA solve is followed by a
/// replay of the layers under it.
pub fn pass(
    items: &[Item],
    mut tracer: Option<&mut Tracer>,
    acc: &mut Acc,
    out: &mut Outcome,
) -> Pass {
    let solvers = sof_solvers::comparison_set(false);
    let mut res = Pass::default();
    let (ops0, ms0) = (acc.ops, acc.op_ms);
    for item in items {
        let cold = cold_copy(&item.inst);
        let mut sofda_cost = f64::NAN;
        for &si in item.solvers {
            let solver = &solvers[si];
            let op = acc.ops;
            let (r, ms) = timed(tracer.as_deref_mut(), "core", "Solver::solve", op, || {
                solver.solve(&cold, &item.cfg)
            });
            acc.op(si, ms);
            match r {
                Ok(o) => {
                    if let Err(e) = o.forest.validate(&cold) {
                        out.problem(format!("{} forest fails validation: {e}", solver.name()));
                    }
                    let c = o.cost.total().value();
                    res.costs.push(c);
                    if si == 0 {
                        sofda_cost = c;
                        acc.candidate_chains += o.stats.candidate_chains as u64;
                        acc.conflicts += o.stats.conflicts.total() as u64;
                    }
                }
                Err(_) => {
                    res.costs.push(-1.0);
                    res.failed += 1;
                    acc.failed += 1;
                }
            }
            if si == 0 {
                if let Some(t) = tracer.as_deref_mut() {
                    let chains = replay(&item.inst, &item.cfg, t, op, acc, out);
                    acc.sofda_ms += ms;
                    if item.fig12 {
                        acc.fig12_sofda_ms += ms;
                        acc.fig12_chains_ms += chains;
                    }
                }
            }
        }
        if item.exact {
            let op = acc.ops;
            let d = cold.request.destinations.len();
            let budget = ExactBudget::auto(d)
                .expect("exact items stay within the exact solver's envelope")
                .node_budget;
            let (r, ms) = timed(tracer.as_deref_mut(), "exact", "solve_exact", op, || {
                solve_exact(&cold, budget)
            });
            acc.op(EXACT, ms);
            match r {
                Ok(x) => {
                    if let Err(e) = x.forest.validate(&cold) {
                        out.problem(format!("CPLEX* forest fails validation: {e}"));
                    }
                    let c = x.forest.cost(&cold.network).total().value();
                    res.costs.push(c);
                    // The search starts from SOFDA's forest, so it can
                    // never return a costlier one.
                    if c > sofda_cost * (1.0 + 1e-9) {
                        out.problem(format!("CPLEX* cost {c} exceeds SOFDA's {sofda_cost}"));
                    }
                    if x.optimal {
                        res.sofda_on_optimal += sofda_cost;
                        res.exact_optimal += c;
                        acc.exact_optimal += 1;
                    }
                    acc.exact_ms += ms;
                    acc.exact_nodes += x.nodes_explored as u64;
                    acc.exact_runs += 1;
                }
                Err(_) => {
                    res.costs.push(-1.0);
                    res.failed += 1;
                    acc.failed += 1;
                }
            }
        }
        if tracer.is_some() {
            let s = cold.network.paths().stats();
            acc.engine.hits += s.hits;
            acc.engine.misses += s.misses;
            acc.engine.stale += s.stale;
            acc.engine.partial_repairs += s.partial_repairs;
        }
    }
    let (ops, ms) = (acc.ops - ops0, acc.op_ms - ms0);
    acc.pass_ops_per_s.push(ops as f64 / (ms / 1e3));
    res
}

/// Replays the layers under one SOFDA solve on a fresh cold copy, after
/// the solve, so the op's own timing and cache state are untouched: the
/// chain-metric closures (`sof_graph`), the k-stroll for every candidate
/// last VM (`sof_kstroll`), and a Steiner tree over the destinations plus
/// each source (`sof_steiner`). Returns the k-stroll time in ms.
fn replay(
    inst: &SofInstance,
    cfg: &SofdaConfig,
    t: &mut Tracer,
    op: u64,
    acc: &mut Acc,
    out: &mut Outcome,
) -> f64 {
    let copy = cold_copy(inst);
    let net = &copy.network;
    let vms = net.vms();
    let chain_len = copy.chain_len();
    let mut rng = Rng64::seed_from(cfg.seed);
    let mut chains_ms = 0.0;
    for &s in &copy.request.sources {
        let (cm, ms) = t.span("graph", "ChainMetric::build", op, |_| {
            ChainMetric::build(net, s, &vms, cfg.source_cost())
        });
        acc.closure_ms += ms;
        let Some(cm) = cm else { continue };
        let (chains, ms) = t.span("kstroll", "ChainMetric::chains_to_all_vms", op, |_| {
            cm.chains_to_all_vms(chain_len, cfg.stroll, &mut rng)
        });
        black_box(chains);
        chains_ms += ms;
        acc.work += estimated_work(cm.len(), chain_len + 1);
    }
    for &s in &copy.request.sources {
        let mut terminals = copy.request.destinations.clone();
        terminals.push(s);
        let (tree, ms) = t.span("steiner", "mehlhorn_with_engine", op, |_| {
            mehlhorn_with_engine(net.graph(), &terminals, net.paths())
        });
        if let Err(e) = tree {
            out.problem(format!("Steiner replay failed: {e}"));
        }
        acc.tree_ms += ms;
    }
    acc.chains_ms += chains_ms;
    chains_ms
}

/// `x / y`, or 0 when `y` is 0.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced pass: k-stroll, graph, Steiner, exact and
/// core solve counters.
pub fn layer_metrics(out: &mut Outcome, a: &Acc) {
    let e = a.engine;
    let mut set = |k: &'static str, v: f64| {
        out.layer.insert(k, v);
    };
    set("kstroll.chains_ms", a.chains_ms);
    set("kstroll.share", ratio(a.chains_ms, a.sofda_ms));
    set(
        "kstroll.share_fig12",
        ratio(a.fig12_chains_ms, a.fig12_sofda_ms),
    );
    set("kstroll.work", a.work);
    set("graph.closure_ms", a.closure_ms);
    set("graph.engine.hits", e.hits as f64);
    set("graph.engine.misses", e.misses as f64);
    set("graph.engine.stale", e.stale as f64);
    set("graph.engine.partial_repairs", e.partial_repairs as f64);
    set(
        "graph.engine.hit_ratio",
        ratio(e.hits as f64, (e.hits + e.misses) as f64),
    );
    set(
        "graph.engine.repair_rescue_ratio",
        ratio(e.partial_repairs as f64, e.stale as f64),
    );
    set("steiner.tree_ms", a.tree_ms);
    set("exact.solve_ms", a.exact_ms);
    set("exact.nodes_explored", a.exact_nodes as f64);
    set(
        "exact.optimal_share",
        ratio(a.exact_optimal as f64, a.exact_runs as f64),
    );
    const KEYS: [(&str, &str); 5] = [
        ("core.solve_ms.sofda", "core.solve_count.sofda"),
        ("core.solve_ms.enemp", "core.solve_count.enemp"),
        ("core.solve_ms.est", "core.solve_count.est"),
        ("core.solve_ms.st", "core.solve_count.st"),
        ("core.solve_ms.exact", "core.solve_count.exact"),
    ];
    for ((ms_key, n_key), lat) in KEYS.iter().zip(&a.per_solver) {
        set(
            ms_key,
            if lat.is_empty() {
                0.0
            } else {
                median(lat.clone())
            },
        );
        set(n_key, lat.len() as f64);
    }
    set("core.candidate_chains", a.candidate_chains as f64);
    set("core.conflicts", a.conflicts as f64);
    out.lines.push(format!(
        "k-stroll is {:.1}% of SOFDA solve time ({:.1}% on the Fig. 12-density Cogent points)",
        100.0 * ratio(a.chains_ms, a.sofda_ms),
        100.0 * ratio(a.fig12_chains_ms, a.fig12_sofda_ms)
    ));
}
