//! `paper-solve`: a closed batch of cold solves; one op is one solve.
//!
//! The instance set is the paper's Fig. 8–10 axes on SoftLayer, Cogent and
//! a 1000-node Inet network, plus Cogent points at Fig. 12 density. The
//! axis points are fixed; the workload seed draws every instance (link and
//! VM costs, VM placement, endpoints), so two seeds measure the same mix of
//! sizes on different draws. Each instance is rebuilt through
//! `Network::new` before it is solved, so its `PathEngine` starts cold.

use crate::report::{latency_metrics, median, per_op_medians, Dist, Outcome};
use crate::solve::{layer_metrics, pass, Acc, Item, SOLVER_KEYS};
use crate::trace::Tracer;
use crate::{mix, Run, Size};
use sof_core::SofdaConfig;
use sof_graph::Rng64;
use sof_topo::{build_instance, ScenarioParams, Topology};
use std::time::Instant;

/// Fig. 8–10 axes; the other three parameters stay at the paper defaults.
const AXES: [(&str, &[usize]); 4] = [
    ("sources", &[2, 8, 14, 20, 26]),
    ("destinations", &[2, 4, 6, 8, 10]),
    ("vm_count", &[5, 15, 25, 35, 45]),
    ("chain_len", &[3, 4, 5, 6, 7]),
];

/// (axis, values) pairs swept on one topology.
type Axes = &'static [(&'static str, &'static [usize])];

/// The axis points solved per topology (SoftLayer, Cogent, Inet-1000).
/// Long chains and the 1000-node network are the costly points, so only
/// SoftLayer sweeps |C| up to 6 and Inet-1000 sweeps |S| and three |D|.
const GRID: [Axes; 3] = [
    &[AXES[0], AXES[1], AXES[2], ("chain_len", &[3, 4, 5, 6])],
    &[AXES[0], AXES[1], AXES[2], ("chain_len", &[3, 4, 5])],
    &[AXES[0], ("destinations", &[2, 6, 10])],
];

/// Independent draws of every axis point. The three Fig. 12-density SOFDA
/// solves are the heaviest ops and the ones the host's slow spells stretch
/// most (1.4 times the change of a whole pass); with one draw per axis
/// point they were 38% of a pass and set most of the run-to-run spread of
/// `ops_per_s`. A second draw halves their weight and averages the seed
/// over more draws.
const AXIS_DRAWS: usize = 2;

/// SOFDA, eNEMP, eST and ST solve every axis point.
const ALL: &[usize] = &[0, 1, 2, 3];

/// At Fig. 12 density only SOFDA and ST solve: one eNEMP or eST solve
/// there took 0.35–1.7 s depending on the draw, which made a run's
/// throughput depend on the seed by about ±25%.
const FIG12_SOLVERS: &[usize] = &[0, 3];

/// (|S|, |D|) of the Fig. 12-density Cogent points (5 VMs per DC, |C| = 3).
const FIG12: &[(usize, usize)] = &[(10, 20), (12, 24), (15, 30)];

/// Extra SoftLayer points the exact solver also solves, drawn with 5 VMs
/// and 2–4 destinations: with 15 or more VMs one branch-and-bound run
/// spans 2–400 ms between draws.
const EXACT_POINTS: usize = 10;

/// Generator seed of the Inet-1000 network (the Fig. 10 preset's seed).
const INET_SEED: u64 = 3000;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 21;

fn topologies(size: Size) -> Vec<Topology> {
    let mut t = vec![sof_topo::softlayer(), sof_topo::cogent()];
    if size == Size::Full {
        // One fixed Inet network, like the named topologies; the workload
        // seed draws the instances on it.
        t.push(sof_topo::inet_sized(1000, 2000, 400, INET_SEED));
    }
    t
}

fn items(seed: u64, size: Size, topos: &[Topology]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut push = |topo: usize, p: ScenarioParams, solvers, exact, fig12| {
        let p = p.with_seed(mix(seed, items.len() as u64));
        items.push(Item {
            inst: build_instance(&topos[topo], &p),
            cfg: SofdaConfig::default().with_seed(p.seed),
            solvers,
            exact,
            fig12,
        });
    };
    let mut rng = Rng64::seed_from(mix(seed, 0x5EED));
    let (grid, draws, exact_points, fig12, vms_per_dc): (&[Axes], _, _, &[_], _) = match size {
        Size::Full => (&GRID, AXIS_DRAWS, EXACT_POINTS, FIG12, 5),
        // 15 axis points and 8 exact points: 102 ops, enough for a p90.
        Size::Tiny => (&[&[AXES[0], AXES[1], AXES[2]]], 1, 8, &[(4, 8)], 1),
    };
    for (topo, axes) in grid.iter().enumerate() {
        for &(axis, values) in *axes {
            for &v in values {
                for _ in 0..draws {
                    let mut p = ScenarioParams::paper_defaults();
                    match axis {
                        "sources" => p.sources = v,
                        "destinations" => p.destinations = v,
                        "vm_count" => p.vm_count = v,
                        _ => p.chain_len = v,
                    }
                    push(topo, p, ALL, false, false);
                }
            }
        }
    }
    for _ in 0..exact_points {
        let mut p = ScenarioParams::paper_defaults();
        p.sources = *rng.pick(AXES[0].1);
        p.destinations = rng.range(2, 5);
        p.vm_count = 5;
        push(0, p, ALL, true, false);
    }
    for &(sources, destinations) in fig12 {
        let mut p = ScenarioParams::paper_defaults();
        p.vm_count = topos[1].dc_nodes.len() * vms_per_dc;
        p.sources = sources;
        p.destinations = destinations;
        push(1, p, FIG12_SOLVERS, false, true);
    }
    items
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: topology and instance builds, repeated; the median counts.
    let mut setup_ms = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let topos = topologies(run.size);
        built = items(run.seed, run.size, &topos);
        setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let items = built;
    let setup = median(setup_ms);
    out.e2e.insert("setup_s", setup / 1e3);
    out.layer.insert("topo.build_ms", setup);
    out.lines.push(format!(
        "paper-solve: {} instances ({} with the exact solver, {} at Fig. 12 density), \
         set-up {setup:.1} ms",
        items.len(),
        items.iter().filter(|i| i.exact).count(),
        items.iter().filter(|i| i.fig12).count()
    ));

    // An untimed pass at one thread warms the allocator and caches and is
    // the reference every timed pass must match: results are bit-identical
    // at any thread count.
    sof_par::set_threads(1);
    let first = pass(&items, None, &mut Acc::default(), &mut out);
    sof_par::set_threads(run.threads);

    // Measured passes with tracing off. The traced run spends half its
    // budget here, to compare against its traced pass.
    let budget_ms = run.budget.as_secs_f64() * 1e3 / if run.trace { 2.0 } else { 1.0 };
    let mut acc = Acc::default();
    let mut passes = 0;
    while acc.op_ms < budget_ms || passes < 2 {
        passes += 1;
        let context = format!("pass {passes} vs the SOF_THREADS=1 pass");
        pass(&items, None, &mut acc, &mut out).compare(&first, &mut out, &context);
    }
    // Every pass solves the same instances, so the median pass throughput
    // discounts a pass slowed by the host.
    let ops_per_s = median(acc.pass_ops_per_s.clone());
    out.attempted = acc.ops;
    out.failed = acc.failed;
    out.lines.push(format!(
        "{passes} passes, {} ops, {} failed, {:.1} ms in ops; median pass {ops_per_s:.3} op/s",
        acc.ops, acc.failed, acc.op_ms
    ));
    for (name, lat) in SOLVER_KEYS.iter().zip(&acc.per_solver) {
        out.lines
            .push(Dist::new(lat.clone()).describe(&format!("  {name}")));
    }
    let op_lat = per_op_medians(&acc.lat, acc.lat.len() / passes);
    latency_metrics(
        &mut out,
        &Dist::new(op_lat),
        "op latency (per-op median over passes)",
    );
    out.e2e.insert("ops_per_s", ops_per_s);
    out.e2e.insert("cost", first.cost());
    out.e2e.insert("opt_ratio", first.opt_ratio());
    out.e2e.insert("availability", first.availability());
    out.lines.push(format!(
        "cost {:.4}; opt_ratio {:.6} (opt_gap {:.6}) over the exact-solved points; availability {}",
        first.cost(),
        first.opt_ratio(),
        first.opt_ratio() - 1.0,
        first.availability()
    ));
    if !first.opt_ratio().is_finite() {
        out.problem("the exact solver proved no instance optimal; opt_ratio is undefined");
    }

    if run.trace {
        let mut tracer = Tracer::new();
        let mut tacc = Acc::default();
        pass(&items, Some(&mut tracer), &mut tacc, &mut out).compare(
            &first,
            &mut out,
            "traced pass",
        );
        let traced = tacc.pass_ops_per_s[0];
        layer_metrics(&mut out, &tacc);
        out.layer
            .insert("trace.overhead_share", 1.0 - traced / ops_per_s);
        out.lines.push(format!(
            "traced pass {traced:.3} op/s vs {ops_per_s:.3} op/s untraced"
        ));
        out.add_layer_table(&tracer, &[]);
        out.tracer = Some(tracer);
    }
    out
}
