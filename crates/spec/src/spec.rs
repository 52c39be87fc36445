//! The declarative [`ScenarioSpec`] model: what an experiment *is*, as
//! data — topology, scenario parameters, cost/solver configuration and a
//! workload — plus strict parsing (unknown keys are errors), semantic
//! validation with actionable messages, and lossless serialization back to
//! TOML or JSON.

use crate::sweep::{standard_axes, ParamField, SweepAxis};
use crate::value::{parse_json, parse_toml, write_json, write_toml, ParseError, Value};
use sof_core::{DriftPolicy, JoinStrategy, OnlineConfig, SofdaConfig};
use sof_graph::Cost;
use sof_kstroll::StrollSolver;
use sof_runner::GroupChurnConfig;
use sof_sim::{ChurnParams, WorkloadParams};
use sof_steiner::SteinerSolver;
use sof_topo::{RegionDef, ScenarioParams, TopologySpec};
use std::fmt;

/// A spec-layer error (parse, unknown key, or semantic validation).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> SpecError {
        SpecError(e.to_string())
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

// ---------------------------------------------------------------------------
// Strict table reader: every key must be consumed, leftovers are errors.
// ---------------------------------------------------------------------------

struct Reader<'v> {
    ctx: String,
    entries: Vec<(&'v String, &'v Value)>,
    taken: Vec<bool>,
}

impl<'v> Reader<'v> {
    fn new(ctx: &str, v: &'v Value) -> Result<Reader<'v>, SpecError> {
        match v {
            Value::Table(entries) => Ok(Reader {
                ctx: ctx.to_string(),
                entries: entries.iter().map(|(k, v)| (k, v)).collect(),
                taken: vec![false; entries.len()],
            }),
            other => fail(format!(
                "{ctx}: expected a table, found {}",
                other.type_name()
            )),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'v Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if *k == key {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn path(&self, key: &str) -> String {
        if self.ctx.is_empty() {
            format!("'{key}'")
        } else {
            format!("'{}.{key}'", self.ctx)
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(other) => fail(format!(
                "{} must be a string, found {}",
                self.path(key),
                other.type_name()
            )),
        }
    }

    fn str_or(&mut self, key: &str, default: &str) -> Result<String, SpecError> {
        Ok(self.opt_str(key)?.unwrap_or_else(|| default.to_string()))
    }

    fn opt_bool(&mut self, key: &str) -> Result<Option<bool>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Bool(b)) => Ok(Some(*b)),
            Some(other) => fail(format!(
                "{} must be a boolean, found {}",
                self.path(key),
                other.type_name()
            )),
        }
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            Some(Value::Int(i)) => fail(format!(
                "{} must be a non-negative integer, found {i}",
                self.path(key)
            )),
            Some(other) => fail(format!(
                "{} must be an integer, found {}",
                self.path(key),
                other.type_name()
            )),
        }
    }

    fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, SpecError> {
        Ok(self.opt_u64(key)?.map(|v| v as usize))
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or_else(|| {
                SpecError(format!(
                    "{} must be a number, found {}",
                    self.path(key),
                    v.type_name()
                ))
            }),
        }
    }

    fn opt_usize_list(&mut self, key: &str) -> Result<Option<Vec<usize>>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Int(i) if *i >= 0 => out.push(*i as usize),
                        other => {
                            return fail(format!(
                                "{} must contain non-negative integers, found {}",
                                self.path(key),
                                other.type_name()
                            ))
                        }
                    }
                }
                Ok(Some(out))
            }
            Some(other) => fail(format!(
                "{} must be an array, found {}",
                self.path(key),
                other.type_name()
            )),
        }
    }

    fn opt_str_list(&mut self, key: &str) -> Result<Option<Vec<String>>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Str(s) => out.push(s.clone()),
                        other => {
                            return fail(format!(
                                "{} must contain strings, found {}",
                                self.path(key),
                                other.type_name()
                            ))
                        }
                    }
                }
                Ok(Some(out))
            }
            Some(other) => fail(format!(
                "{} must be an array, found {}",
                self.path(key),
                other.type_name()
            )),
        }
    }

    /// A `[lo, hi]` inclusive range.
    fn opt_range(&mut self, key: &str) -> Result<Option<(usize, usize)>, SpecError> {
        let Some(list) = self.opt_usize_list(key)? else {
            return Ok(None);
        };
        match list.as_slice() {
            [lo, hi] if lo <= hi => Ok(Some((*lo, *hi))),
            [lo, hi] => fail(format!(
                "{} range is inverted ([{lo}, {hi}])",
                self.path(key)
            )),
            other => fail(format!(
                "{} must be a two-element [lo, hi] range, found {} element(s)",
                self.path(key),
                other.len()
            )),
        }
    }

    /// Sub-tables/arrays handed to nested readers.
    fn take_raw(&mut self, key: &str) -> Option<&'v Value> {
        self.take(key)
    }

    /// Errors on any unconsumed key, naming it and the valid keys.
    fn finish(self, valid: &[&str]) -> Result<(), SpecError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.taken[i] {
                return fail(format!(
                    "unknown key {} (valid keys here: {})",
                    self.path(k),
                    valid.join(", ")
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// Which measurement a grid workload reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridMetric {
    /// Mean forest cost.
    Cost,
    /// Mean enabled-VM count.
    UsedVms,
}

impl GridMetric {
    /// The spec-file name.
    pub fn as_str(&self) -> &'static str {
        match self {
            GridMetric::Cost => "cost",
            GridMetric::UsedVms => "used_vms",
        }
    }

    /// The display name the figures use.
    pub fn display(&self) -> &'static str {
        match self {
            GridMetric::Cost => "cost",
            GridMetric::UsedVms => "used VMs",
        }
    }

    fn from_name(name: &str) -> Result<GridMetric, SpecError> {
        match name {
            "cost" => Ok(GridMetric::Cost),
            "used_vms" => Ok(GridMetric::UsedVms),
            other => fail(format!(
                "unknown metric '{other}' (expected 'cost' or 'used_vms')"
            )),
        }
    }
}

/// Viewer-churn parameters for one online group (compiles to
/// [`sof_sim::ChurnParams`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Inclusive range of candidate-source counts for the initial draw.
    pub sources: (usize, usize),
    /// Inclusive range of destination counts for the initial draw.
    pub destinations: (usize, usize),
    /// Demanded chain length.
    pub chain_len: usize,
    /// Per-request demand (Mbps).
    pub demand_mbps: f64,
    /// Inclusive range of viewers leaving per arrival.
    pub leaves: (usize, usize),
    /// Inclusive range of viewers joining per arrival.
    pub joins: (usize, usize),
}

impl ChurnSpec {
    /// The paper's SoftLayer online setup with 1–3 viewers of churn.
    pub fn softlayer() -> ChurnSpec {
        ChurnSpec::from_params(&ChurnParams::softlayer())
    }

    /// The paper's Cogent online setup with 2–5 viewers of churn.
    pub fn cogent() -> ChurnSpec {
        ChurnSpec::from_params(&ChurnParams::cogent())
    }

    /// Converts from the simulator's parameter struct.
    pub fn from_params(p: &ChurnParams) -> ChurnSpec {
        ChurnSpec {
            sources: p.base.sources,
            destinations: p.base.destinations,
            chain_len: p.base.chain_len,
            demand_mbps: p.base.demand_mbps,
            leaves: p.leaves,
            joins: p.joins,
        }
    }

    /// Compiles to the simulator's parameter struct.
    pub fn to_params(&self) -> ChurnParams {
        ChurnParams {
            base: WorkloadParams {
                sources: self.sources,
                destinations: self.destinations,
                chain_len: self.chain_len,
                demand_mbps: self.demand_mbps,
            },
            leaves: self.leaves,
            joins: self.joins,
        }
    }
}

/// One churning multicast group in an online workload.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineGroup {
    /// Topology override (default: the spec's top-level topology).
    pub topology: Option<TopologySpec>,
    /// Arrivals to process (0 = the group is skipped).
    pub requests: usize,
    /// Run a from-scratch SOFDA baseline next to the incremental sessions.
    pub scratch: bool,
    /// VMs attached per data center when building the instance.
    pub vms_per_dc: usize,
    /// The churn process.
    pub churn: ChurnSpec,
}

/// Deterministic failure injection: the spec-level `failures` axis shared
/// by online and churn-at-scale workloads.
///
/// Online workloads keep the legacy semantics (every `every` arrivals,
/// `count` VMs carrying VNFs are marked failed in every session).
/// Churn-at-scale workloads compile the axis into a
/// [`sof_survive::FailurePlan`]: a seeded failure process over the scoped
/// element universe, a repair-time range, and one or more protection
/// policies to run (one streamed leg per policy, identical trace).
#[derive(Clone, Debug, PartialEq)]
pub struct FailureSpec {
    /// Periodic fire interval in arrivals/rounds (≥ 1).
    pub every: usize,
    /// Legacy element kind (online only accepts `"vm"`).
    pub kind: String,
    /// Elements failed per periodic firing.
    pub count: usize,
    /// Failure process: `"periodic"`, `"poisson"`, or `"scripted"`.
    pub process: String,
    /// Per-element per-round failure probability (poisson process).
    pub rate: f64,
    /// Element kinds the universe draws from (subset of `"vm"`, `"link"`,
    /// `"node"`, `"domain"`); defaults to `[kind]`.
    pub scope: Vec<String>,
    /// Inclusive rounds-until-repair range; `[0, 0]` = permanent.
    pub repair: (usize, usize),
    /// Protection policies to run (`"reactive"`, `"backup-paths"`,
    /// `"standby-forest"`); churn-at-scale streams one leg per entry.
    pub policies: Vec<String>,
    /// Seed of the failure RNG stream (independent of churn streams).
    pub seed: u64,
    /// Explicit event list for the scripted process.
    pub events: Vec<FailureEventSpec>,
}

/// One entry of a scripted failure trace in a spec file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureEventSpec {
    /// Round at which the element fails.
    pub at: usize,
    /// What fails, as an element reference (`"vm:12"`, `"link:3-7"`,
    /// `"node:5"`, `"domain:us-east"`).
    pub element: String,
    /// Rounds until repair (`0` = never).
    pub repair: usize,
}

impl FailureSpec {
    /// The axis with every field at its reader default, for the given
    /// legacy kind.
    pub fn defaults(kind: &str) -> FailureSpec {
        FailureSpec {
            every: 10,
            kind: kind.to_string(),
            count: 1,
            process: "periodic".into(),
            rate: 0.0,
            scope: vec![kind.to_string()],
            repair: (0, 0),
            policies: vec!["reactive".into()],
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Compiles the axis into a validated [`sof_survive::FailurePlan`]
    /// running under `policy` (one of [`FailureSpec::policies`]).
    ///
    /// # Errors
    ///
    /// An actionable message naming the offending field.
    pub fn to_plan(&self, policy: &str) -> Result<sof_survive::FailurePlan, String> {
        let process = match self.process.as_str() {
            "periodic" => sof_survive::ProcessKind::Periodic {
                every: self.every,
                count: self.count,
            },
            "poisson" => sof_survive::ProcessKind::Poisson { rate: self.rate },
            "scripted" => {
                let mut events = Vec::with_capacity(self.events.len());
                for (i, ev) in self.events.iter().enumerate() {
                    let element: sof_survive::ElementRef = ev
                        .element
                        .parse()
                        .map_err(|e| format!("events[{i}].element: {e}"))?;
                    events.push(sof_survive::ScriptedEvent {
                        at: ev.at,
                        element,
                        repair: ev.repair,
                    });
                }
                sof_survive::ProcessKind::Scripted(events)
            }
            other => {
                return Err(format!(
                    "unknown failures process '{other}' (expected 'periodic', 'poisson', \
                     or 'scripted')"
                ))
            }
        };
        let plan = sof_survive::FailurePlan {
            process,
            scope: self.scope.clone(),
            repair: self.repair,
            policy: sof_survive::ProtectionPolicy::from_name(policy)?,
            seed: self.seed,
        };
        plan.validate()?;
        Ok(plan)
    }
}

/// Convergence stop condition for churn-at-scale workloads (compiles to
/// [`sof_runner::Ward::ConvergedCost`]): stop early once the windowed
/// mean forest cost settles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergeSpec {
    /// Maximum relative change between consecutive windows still counted
    /// as "settled".
    pub epsilon: f64,
    /// Consecutive settled windows required before stopping.
    pub patience: usize,
}

/// Configuration of a churn-at-scale workload (compiles to
/// [`sof_runner::RunnerConfig`]): a [`sof_runner::Runner`] streams a
/// `SessionPool` of `groups` concurrent multicast groups over lazily
/// generated viewer-churn timelines until the event budget (or an
/// optional convergence / wall-clock ward) trips.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleSpec {
    /// Run seed: topology, group timelines and instances all derive from
    /// it.
    pub seed: u64,
    /// Solver registry name driving every group's session.
    pub solver: String,
    /// Concurrent groups (pool slots; retired groups are replaced in
    /// place).
    pub groups: usize,
    /// Event budget (the `MaxEvents` ward).
    pub events: u64,
    /// Events per window record.
    pub window: u64,
    /// Also emit one record per event (`emit = "events"`); off by
    /// default (`emit = "windows"`) — at full scale the per-event stream
    /// is millions of lines.
    pub emit_events: bool,
    /// VMs attached per region data-center node.
    pub vms_per_dc: usize,
    /// The named regions of the multi-region network.
    pub regions: Vec<RegionDef>,
    /// Gateway links joining every region pair.
    pub gateway_links: usize,
    /// Explicit symmetric region-pair cost factors (`pair_cost[i][j]`,
    /// one row per region); `None` uses the line-distance default
    /// `1 + |i − j|`. Compiles to [`sof_topo::RegionsParams::pair_cost`].
    pub pair_cost: Option<Vec<Vec<f64>>>,
    /// Per-group churn-process shape.
    pub churn: GroupChurnConfig,
    /// Optional failure axis: deterministic element failures interleaved
    /// between rounds, one streamed leg per listed protection policy.
    /// Boxed: the full plan vocabulary is large and usually absent.
    pub failures: Option<Box<FailureSpec>>,
    /// Optional converged-cost early stop.
    pub converge: Option<ConvergeSpec>,
    /// Optional wall-clock safety net in seconds (host-dependent — keep
    /// it out of golden runs).
    pub max_seconds: Option<f64>,
}

impl ScaleSpec {
    fn default_regions() -> Vec<RegionDef> {
        vec![
            RegionDef::new("us-east", 8, 2),
            RegionDef::new("eu-west", 8, 2),
            RegionDef::new("ap-south", 8, 2),
        ]
    }
}

/// The workload half of a spec: what actually runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Fig. 7: tabulate the convex Fortz–Thorup cost function.
    CostCurve {
        /// Points beyond load 0 (the curve is sampled at `0..=points`).
        points: usize,
        /// Load step between points.
        step: f64,
        /// Link capacity handed to the cost function.
        capacity: f64,
    },
    /// Figs. 8–10: per-axis solver-comparison sweeps (mean cost).
    Sweep {
        /// Solver display names (registry lookup).
        solvers: Vec<String>,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
        /// The swept axes, each its own table.
        axes: Vec<SweepAxis>,
    },
    /// Fig. 11: a row × column parameter grid for one solver.
    Grid {
        /// Solver display name.
        solver: String,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
        /// Row axis (one table row per value).
        rows: SweepAxis,
        /// Column axis (one table column per value).
        cols: SweepAxis,
        /// One output table per metric.
        metrics: Vec<GridMetric>,
    },
    /// Table I: solver running time vs `inet` network size × source count.
    Runtime {
        /// Solver display name.
        solver: String,
        /// Base RNG seed.
        seed: u64,
        /// Network sizes (nodes; links = 2×, DCs = 2/5×).
        sizes: Vec<usize>,
        /// Source counts (columns).
        sources: Vec<usize>,
    },
    /// Table II: testbed QoE (startup latency / rebuffering) per solver.
    Qoe {
        /// Solver display names.
        solvers: Vec<String>,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
    },
    /// Fig. 12: online deployment under viewer churn (optionally many
    /// concurrent sessions, optionally with failure injection).
    Online {
        /// Base RNG seed.
        seed: u64,
        /// Solver display names served incrementally (the session-pool
        /// mode uses only the first).
        solvers: Vec<String>,
        /// Independent concurrent sessions per group (1 = the classic
        /// solver comparison; > 1 switches to the `SessionPool` mode).
        sessions: usize,
        /// The churning groups, run in order.
        groups: Vec<OnlineGroup>,
        /// Optional failure injection (boxed: large and usually absent).
        failures: Option<Box<FailureSpec>>,
    },
    /// Streaming churn at scale: a `sof_runner` run over lazily generated
    /// group timelines (10k+ groups, 1M+ events, bounded memory).
    ChurnAtScale(ScaleSpec),
}

impl Workload {
    /// The spec-file name of this workload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::CostCurve { .. } => "cost-curve",
            Workload::Sweep { .. } => "sweep",
            Workload::Grid { .. } => "grid",
            Workload::Runtime { .. } => "runtime",
            Workload::Qoe { .. } => "qoe",
            Workload::Online { .. } => "online",
            Workload::ChurnAtScale(_) => "churn-at-scale",
        }
    }

    /// The base RNG seed driving this workload.
    pub fn seed(&self) -> u64 {
        match self {
            Workload::CostCurve { .. } => 0,
            Workload::Sweep { seed, .. }
            | Workload::Grid { seed, .. }
            | Workload::Runtime { seed, .. }
            | Workload::Qoe { seed, .. }
            | Workload::Online { seed, .. } => *seed,
            Workload::ChurnAtScale(s) => s.seed,
        }
    }

    /// The averaging width, where the kind has one.
    pub fn seeds(&self) -> u64 {
        match self {
            Workload::Sweep { seeds, .. }
            | Workload::Grid { seeds, .. }
            | Workload::Qoe { seeds, .. } => *seeds,
            _ => 1,
        }
    }
}

/// Per-session tuning for online workloads (compiles to
/// [`sof_core::OnlineConfig`]; `demand_mbps` comes from the group's churn
/// spec, `mode` from the engine).
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineSpec {
    /// Rebuild threshold (see [`DriftPolicy`]).
    pub drift: f64,
    /// What drift means: `"churn"` (count) or `"cost"` (divergence).
    pub drift_policy: DriftPolicy,
    /// Reroute pass cadence (arrivals; 0 = never).
    pub reroute_every: usize,
    /// Incremental-join attach search.
    pub join: JoinStrategy,
    /// Uniform link capacity (Mbps).
    pub link_capacity: f64,
    /// Uniform VM capacity (concurrent VNFs).
    pub vm_capacity: f64,
}

impl Default for OnlineSpec {
    fn default() -> OnlineSpec {
        let d = OnlineConfig::default();
        OnlineSpec {
            drift: d.rebuild_drift,
            drift_policy: d.drift_policy,
            reroute_every: d.reroute_every,
            join: d.join,
            link_capacity: d.link_capacity,
            vm_capacity: d.vm_capacity,
        }
    }
}

impl OnlineSpec {
    /// Compiles to an [`OnlineConfig`] (demand filled per group).
    pub fn to_config(&self, demand_mbps: f64) -> OnlineConfig {
        OnlineConfig {
            rebuild_drift: self.drift,
            drift_policy: self.drift_policy,
            reroute_every: self.reroute_every,
            join: self.join,
            link_capacity: self.link_capacity,
            vm_capacity: self.vm_capacity,
            demand_mbps,
            ..OnlineConfig::default()
        }
    }
}

/// A complete declarative scenario: metadata + topology + parameters +
/// solver configuration + workload. See `SPEC_FORMAT.md` at the repo root
/// for the file-format reference.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Identifier (preset name / output file stem).
    pub name: String,
    /// Display label used in headings (e.g. `"Fig. 8"`).
    pub label: String,
    /// Heading text (e.g. `"SoftLayer one-time deployment"`).
    pub title: String,
    /// Free-form description (shown by `sof list`).
    pub description: String,
    /// The network (online groups may override per group).
    pub topology: TopologySpec,
    /// Scenario parameters around which sweeps vary (the seed field is
    /// ignored — the workload seed governs).
    pub params: ScenarioParams,
    /// Solver configuration (the seed field is ignored — the workload
    /// seed governs).
    pub sofda: SofdaConfig,
    /// Online-session tuning (used by `online` workloads).
    pub online: OnlineSpec,
    /// What runs.
    pub workload: Workload,
}

impl ScenarioSpec {
    /// Parses a TOML spec (strict: unknown keys are errors) and validates
    /// it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first syntactic, structural, or
    /// semantic problem.
    pub fn from_toml(src: &str) -> Result<ScenarioSpec, SpecError> {
        let v = parse_toml(src)?;
        ScenarioSpec::from_value(&v)
    }

    /// Parses a JSON spec (same schema as the TOML form).
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first syntactic, structural, or
    /// semantic problem.
    pub fn from_json(src: &str) -> Result<ScenarioSpec, SpecError> {
        let v = parse_json(src)?;
        ScenarioSpec::from_value(&v)
    }

    /// Parses a spec from a file path, dispatching on the `.json`
    /// extension (anything else parses as TOML).
    ///
    /// # Errors
    ///
    /// [`SpecError`] for unreadable files and everything
    /// [`ScenarioSpec::from_toml`] rejects.
    pub fn from_path(path: &std::path::Path) -> Result<ScenarioSpec, SpecError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
        let parsed = if path.extension().is_some_and(|e| e == "json") {
            ScenarioSpec::from_json(&src)
        } else {
            ScenarioSpec::from_toml(&src)
        };
        parsed.map_err(|e| SpecError(format!("{}: {e}", path.display())))
    }

    /// Builds the spec from a parsed [`Value`] tree and validates it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending key for structural problems
    /// (wrong types, unknown keys) or the violated constraint.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let mut r = Reader::new("", v)?;
        let name = r
            .opt_str("name")?
            .ok_or_else(|| SpecError("spec is missing the required 'name' key".into()))?;
        let label = r.str_or("label", &name)?;
        let title = r.str_or("title", "")?;
        let description = r.str_or("description", "")?;

        let topology = match r.take_raw("topology") {
            None => TopologySpec::named("softlayer"),
            Some(t) => read_topology("topology", t)?,
        };
        let params = match r.take_raw("params") {
            None => ScenarioParams::paper_defaults(),
            Some(t) => read_params(t)?,
        };
        let sofda = match r.take_raw("sofda") {
            None => SofdaConfig::default(),
            Some(t) => read_sofda(t)?,
        };
        let online = match r.take_raw("online") {
            None => OnlineSpec::default(),
            Some(t) => read_online(t)?,
        };
        let workload_value = r
            .take_raw("workload")
            .ok_or_else(|| SpecError("spec is missing the required [workload] table".into()))?;
        let workload = read_workload(workload_value)?;
        r.finish(&[
            "name",
            "label",
            "title",
            "description",
            "topology",
            "params",
            "sofda",
            "online",
            "workload",
        ])?;

        let spec = ScenarioSpec {
            name,
            label,
            title,
            description,
            topology,
            params,
            sofda,
            online,
            workload,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation: registry lookups and range checks beyond what
    /// the structural reader enforces.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return fail("'name' must not be empty");
        }
        sof_topo::validate_named(&self.topology).map_err(SpecError)?;
        let p = &self.params;
        if p.chain_len == 0 {
            return fail("'params.chain_len' must be at least 1");
        }
        if p.sources == 0 || p.destinations == 0 {
            return fail("'params.sources' and 'params.destinations' must be at least 1");
        }
        // `positive`/`non_negative` are NaN-rejecting (NaN fails both).
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        if !positive(p.setup_scale) {
            return fail("'params.setup_scale' must be positive");
        }
        if !non_negative(self.online.drift) {
            return fail("'online.drift' must be non-negative");
        }
        if !positive(self.online.link_capacity) || !positive(self.online.vm_capacity) {
            return fail("'online.link_capacity' and 'online.vm_capacity' must be positive");
        }
        let check_solver = |ctx: &str, name: &str| -> Result<(), SpecError> {
            if sof_solvers::by_name(name).is_none() {
                let known: Vec<&str> = sof_solvers::all().iter().map(|s| s.name()).collect();
                return fail(format!(
                    "{ctx}: unknown solver '{name}' (registered: {})",
                    known.join(", ")
                ));
            }
            Ok(())
        };
        let check_axis = |ctx: &str, axis: &SweepAxis| -> Result<(), SpecError> {
            if axis.values.is_empty() {
                return fail(format!("{ctx}: 'values' must not be empty"));
            }
            if matches!(axis.field, ParamField::ChainLen | ParamField::SetupScale)
                && axis.values.contains(&0)
            {
                return fail(format!(
                    "{ctx}: '{}' values must be at least 1",
                    axis.field.as_str()
                ));
            }
            Ok(())
        };
        match &self.workload {
            Workload::CostCurve {
                points,
                step,
                capacity,
            } => {
                if *points == 0 {
                    return fail("'workload.points' must be at least 1");
                }
                if !positive(*step) || !positive(*capacity) {
                    return fail("'workload.step' and 'workload.capacity' must be positive");
                }
            }
            Workload::Sweep {
                solvers,
                seeds,
                axes,
                ..
            } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
                if axes.is_empty() {
                    return fail("'workload.axes' must define at least one axis");
                }
                for (i, axis) in axes.iter().enumerate() {
                    check_axis(&format!("'workload.axes[{i}]'"), axis)?;
                }
            }
            Workload::Grid {
                solver,
                seeds,
                rows,
                cols,
                metrics,
                ..
            } => {
                check_solver("'workload.solver'", solver)?;
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
                check_axis("'workload.rows'", rows)?;
                check_axis("'workload.cols'", cols)?;
                if metrics.is_empty() {
                    return fail("'workload.metrics' must name at least one metric");
                }
            }
            Workload::Runtime {
                solver,
                sizes,
                sources,
                ..
            } => {
                check_solver("'workload.solver'", solver)?;
                if sizes.is_empty() || sources.is_empty() {
                    return fail("'workload.sizes' and 'workload.sources' must not be empty");
                }
                if let Some(bad) = sizes.iter().find(|&&n| n < 10) {
                    return fail(format!(
                        "'workload.sizes' entries must be at least 10 nodes, got {bad}"
                    ));
                }
                if sources.contains(&0) {
                    return fail("'workload.sources' entries must be at least 1");
                }
            }
            Workload::Qoe { solvers, seeds, .. } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
            }
            Workload::Online {
                solvers,
                sessions,
                groups,
                failures,
                ..
            } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if *sessions == 0 {
                    return fail("'workload.sessions' must be at least 1");
                }
                if groups.is_empty() {
                    return fail("'workload.groups' must define at least one group");
                }
                for (i, g) in groups.iter().enumerate() {
                    let ctx = format!("'workload.groups[{i}]'");
                    if let Some(t) = &g.topology {
                        sof_topo::validate_named(t)
                            .map_err(|e| SpecError(format!("{ctx}: {e}")))?;
                    }
                    if g.vms_per_dc == 0 {
                        return fail(format!("{ctx}: 'vms_per_dc' must be at least 1"));
                    }
                    let c = &g.churn;
                    if c.chain_len == 0 {
                        return fail(format!("{ctx}: 'churn.chain_len' must be at least 1"));
                    }
                    if !positive(c.demand_mbps) {
                        return fail(format!("{ctx}: 'churn.demand_mbps' must be positive"));
                    }
                    if c.sources.0 == 0 {
                        return fail(format!("{ctx}: 'churn.sources' must start at 1 or more"));
                    }
                    if c.destinations.0 == 0 {
                        return fail(format!(
                            "{ctx}: 'churn.destinations' must start at 1 or more"
                        ));
                    }
                }
                if let Some(f) = failures {
                    if f.every == 0 {
                        return fail("'workload.failures.every' must be at least 1");
                    }
                    if f.kind != "vm" {
                        return fail(format!(
                            "'workload.failures.kind' must be \"vm\", got \"{}\"",
                            f.kind
                        ));
                    }
                    if f.count == 0 {
                        return fail("'workload.failures.count' must be at least 1");
                    }
                    if f.process != "periodic" {
                        return fail(format!(
                            "'workload.failures.process' must be \"periodic\" for online \
                             workloads, got \"{}\"",
                            f.process
                        ));
                    }
                    if f.scope != ["vm"] {
                        return fail(
                            "'workload.failures.scope' must be [\"vm\"] for online workloads",
                        );
                    }
                    for p in &f.policies {
                        sof_survive::ProtectionPolicy::from_name(p)
                            .map_err(|e| SpecError(format!("'workload.failures.policies': {e}")))?;
                    }
                }
            }
            Workload::ChurnAtScale(s) => {
                check_solver("'workload.solver'", &s.solver)?;
                if s.groups == 0 {
                    return fail("'workload.groups' must be at least 1");
                }
                if s.events == 0 {
                    return fail("'workload.events' must be at least 1");
                }
                if s.window == 0 {
                    return fail("'workload.window' must be at least 1");
                }
                if s.vms_per_dc == 0 {
                    return fail("'workload.vms_per_dc' must be at least 1");
                }
                if s.gateway_links == 0 {
                    return fail("'workload.gateway_links' must be at least 1");
                }
                // Region shape, pair-cost matrix and churn ranges share
                // the runner's own validators, so the spec layer and
                // `RunnerConfig` can never disagree on what is legal.
                sof_topo::RegionsParams {
                    regions: s.regions.clone(),
                    gateway_links: s.gateway_links,
                    pair_cost: s.pair_cost.clone(),
                }
                .validate()
                .map_err(|e| SpecError(format!("'workload.regions': {e}")))?;
                s.churn
                    .validate()
                    .map_err(|e| SpecError(format!("'workload.{e}'")))?;
                if let Some(f) = &s.failures {
                    if f.policies.is_empty() {
                        return fail("'workload.failures.policies' must name at least one policy");
                    }
                    for p in &f.policies {
                        // Compiling per policy also runs FailurePlan::validate,
                        // so the spec layer and the runner can never disagree
                        // on what a legal failure axis is.
                        f.to_plan(p)
                            .map_err(|e| SpecError(format!("'workload.failures': {e}")))?;
                    }
                }
                if let Some(c) = &s.converge {
                    if !positive(c.epsilon) {
                        return fail("'workload.converge.epsilon' must be positive");
                    }
                    if c.patience == 0 {
                        return fail("'workload.converge.patience' must be at least 1");
                    }
                }
                if let Some(secs) = s.max_seconds {
                    if !positive(secs) {
                        return fail("'workload.max_seconds' must be positive");
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the spec as a fully explicit [`Value`] tree: every field
    /// appears, defaults included, so a round trip through
    /// [`ScenarioSpec::from_value`] is the identity.
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();
        root.set("name", Value::Str(self.name.clone()));
        root.set("label", Value::Str(self.label.clone()));
        root.set("title", Value::Str(self.title.clone()));
        root.set("description", Value::Str(self.description.clone()));
        root.set("topology", topology_value(&self.topology));
        root.set("params", params_value(&self.params));
        root.set("sofda", sofda_value(&self.sofda));
        root.set("online", online_value(&self.online));
        root.set("workload", workload_value(&self.workload));
        root
    }

    /// Serializes the spec as TOML (see [`ScenarioSpec::to_value`]).
    pub fn to_toml(&self) -> String {
        write_toml(&self.to_value())
    }

    /// Serializes the spec as compact JSON (see [`ScenarioSpec::to_value`]).
    pub fn to_json(&self) -> String {
        write_json(&self.to_value())
    }
}

// ---------------------------------------------------------------------------
// Readers for the sub-tables
// ---------------------------------------------------------------------------

fn read_topology(ctx: &str, v: &Value) -> Result<TopologySpec, SpecError> {
    // A bare string is shorthand for { name = "..." }.
    if let Value::Str(name) = v {
        return Ok(TopologySpec::named(name.clone()));
    }
    let mut r = Reader::new(ctx, v)?;
    let name = r
        .opt_str("name")?
        .ok_or_else(|| SpecError(format!("'{ctx}.name' is required")))?;
    let spec = TopologySpec {
        name,
        nodes: r.opt_usize("nodes")?,
        links: r.opt_usize("links")?,
        dcs: r.opt_usize("dcs")?,
        seed: r.opt_u64("seed")?,
    };
    r.finish(&["name", "nodes", "links", "dcs", "seed"])?;
    Ok(spec)
}

fn read_params(v: &Value) -> Result<ScenarioParams, SpecError> {
    let mut r = Reader::new("params", v)?;
    let d = ScenarioParams::paper_defaults();
    let p = ScenarioParams {
        vm_count: r.opt_usize("vm_count")?.unwrap_or(d.vm_count),
        sources: r.opt_usize("sources")?.unwrap_or(d.sources),
        destinations: r.opt_usize("destinations")?.unwrap_or(d.destinations),
        chain_len: r.opt_usize("chain_len")?.unwrap_or(d.chain_len),
        setup_scale: r.opt_f64("setup_scale")?.unwrap_or(d.setup_scale),
        seed: d.seed,
    };
    r.finish(&[
        "vm_count",
        "sources",
        "destinations",
        "chain_len",
        "setup_scale",
    ])?;
    Ok(p)
}

fn steiner_name(s: SteinerSolver) -> &'static str {
    match s {
        SteinerSolver::Mehlhorn => "mehlhorn",
        SteinerSolver::Kmb => "kmb",
        SteinerSolver::TakahashiMatsuyama => "takahashi",
        SteinerSolver::DreyfusWagner => "dreyfus-wagner",
        SteinerSolver::Auto => "auto",
    }
}

fn parse_steiner(name: &str) -> Result<SteinerSolver, SpecError> {
    match name.to_ascii_lowercase().as_str() {
        "mehlhorn" => Ok(SteinerSolver::Mehlhorn),
        "kmb" => Ok(SteinerSolver::Kmb),
        "takahashi" | "takahashi-matsuyama" => Ok(SteinerSolver::TakahashiMatsuyama),
        "dreyfus-wagner" | "exact" => Ok(SteinerSolver::DreyfusWagner),
        "auto" => Ok(SteinerSolver::Auto),
        other => fail(format!(
            "unknown steiner solver '{other}' (expected mehlhorn, kmb, takahashi, \
             dreyfus-wagner, or auto)"
        )),
    }
}

fn stroll_name(s: StrollSolver) -> String {
    match s {
        StrollSolver::Exact => "exact".into(),
        StrollSolver::Greedy => "greedy".into(),
        StrollSolver::Auto => "auto".into(),
        StrollSolver::ColorCoding { trials } => format!("color-coding:{trials}"),
    }
}

fn parse_stroll(name: &str) -> Result<StrollSolver, SpecError> {
    let lower = name.to_ascii_lowercase();
    if let Some(trials) = lower.strip_prefix("color-coding:") {
        let trials: usize = trials.parse().map_err(|_| {
            SpecError(format!(
                "invalid color-coding trial count in '{name}' (expected color-coding:N)"
            ))
        })?;
        if trials == 0 {
            return fail("color-coding needs at least one trial");
        }
        return Ok(StrollSolver::ColorCoding { trials });
    }
    match lower.as_str() {
        "exact" => Ok(StrollSolver::Exact),
        "greedy" => Ok(StrollSolver::Greedy),
        "auto" => Ok(StrollSolver::Auto),
        other => fail(format!(
            "unknown stroll solver '{other}' (expected exact, greedy, color-coding:N, or auto)"
        )),
    }
}

fn read_sofda(v: &Value) -> Result<SofdaConfig, SpecError> {
    let mut r = Reader::new("sofda", v)?;
    let d = SofdaConfig::default();
    let steiner = match r.opt_str("steiner")? {
        None => d.steiner,
        Some(s) => parse_steiner(&s)?,
    };
    let stroll = match r.opt_str("stroll")? {
        None => d.stroll,
        Some(s) => parse_stroll(&s)?,
    };
    let shorten = r.opt_bool("shorten")?.unwrap_or(d.shorten);
    let source_setup_cost = match r.opt_f64("source_setup_cost")? {
        None => None,
        Some(c) if c >= 0.0 => Some(Cost::new(c)),
        Some(c) => return fail(format!("'sofda.source_setup_cost' must be ≥ 0, got {c}")),
    };
    r.finish(&["steiner", "stroll", "shorten", "source_setup_cost"])?;
    Ok(SofdaConfig {
        steiner,
        stroll,
        shorten,
        source_setup_cost,
        seed: d.seed,
    })
}

fn read_online(v: &Value) -> Result<OnlineSpec, SpecError> {
    let mut r = Reader::new("online", v)?;
    let d = OnlineSpec::default();
    let drift_policy = match r.opt_str("drift_policy")? {
        None => d.drift_policy,
        Some(s) => DriftPolicy::from_name(&s).map_err(SpecError)?,
    };
    let join = match r.opt_str("join")? {
        None => d.join,
        Some(s) => JoinStrategy::from_name(&s).map_err(SpecError)?,
    };
    let spec = OnlineSpec {
        drift: r.opt_f64("drift")?.unwrap_or(d.drift),
        drift_policy,
        reroute_every: r.opt_usize("reroute_every")?.unwrap_or(d.reroute_every),
        join,
        link_capacity: r.opt_f64("link_capacity")?.unwrap_or(d.link_capacity),
        vm_capacity: r.opt_f64("vm_capacity")?.unwrap_or(d.vm_capacity),
    };
    r.finish(&[
        "drift",
        "drift_policy",
        "reroute_every",
        "join",
        "link_capacity",
        "vm_capacity",
    ])?;
    Ok(spec)
}

fn read_axis(ctx: &str, v: &Value) -> Result<SweepAxis, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let field_name = r
        .opt_str("field")?
        .ok_or_else(|| SpecError(format!("'{ctx}.field' is required")))?;
    let field = ParamField::from_name(&field_name).map_err(SpecError)?;
    let values = r
        .opt_usize_list("values")?
        .ok_or_else(|| SpecError(format!("'{ctx}.values' is required")))?;
    let label = r
        .opt_str("label")?
        .unwrap_or_else(|| field.default_label().to_string());
    r.finish(&["field", "values", "label"])?;
    Ok(SweepAxis {
        label,
        field,
        values,
    })
}

fn read_churn(ctx: &str, v: &Value) -> Result<ChurnSpec, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let need_range = |r: &mut Reader<'_>, key: &str| -> Result<(usize, usize), SpecError> {
        r.opt_range(key)?
            .ok_or_else(|| SpecError(format!("'{ctx}.{key}' is required (a [lo, hi] range)")))
    };
    let sources = need_range(&mut r, "sources")?;
    let destinations = need_range(&mut r, "destinations")?;
    let leaves = need_range(&mut r, "leaves")?;
    let joins = need_range(&mut r, "joins")?;
    let spec = ChurnSpec {
        sources,
        destinations,
        chain_len: r.opt_usize("chain_len")?.unwrap_or(3),
        demand_mbps: r.opt_f64("demand_mbps")?.unwrap_or(5.0),
        leaves,
        joins,
    };
    r.finish(&[
        "sources",
        "destinations",
        "chain_len",
        "demand_mbps",
        "leaves",
        "joins",
    ])?;
    Ok(spec)
}

fn read_group(ctx: &str, v: &Value) -> Result<OnlineGroup, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let topology = match r.take_raw("topology") {
        None => None,
        Some(t) => Some(read_topology(&format!("{ctx}.topology"), t)?),
    };
    let requests = r
        .opt_usize("requests")?
        .ok_or_else(|| SpecError(format!("'{ctx}.requests' is required")))?;
    let scratch = r.opt_bool("scratch")?.unwrap_or(false);
    let vms_per_dc = r.opt_usize("vms_per_dc")?.unwrap_or(5);
    let churn_value = r
        .take_raw("churn")
        .ok_or_else(|| SpecError(format!("'{ctx}.churn' is required")))?;
    let churn = read_churn(&format!("{ctx}.churn"), churn_value)?;
    r.finish(&["topology", "requests", "scratch", "vms_per_dc", "churn"])?;
    Ok(OnlineGroup {
        topology,
        requests,
        scratch,
        vms_per_dc,
        churn,
    })
}

fn read_workload(v: &Value) -> Result<Workload, SpecError> {
    let mut r = Reader::new("workload", v)?;
    let kind = r
        .opt_str("kind")?
        .ok_or_else(|| SpecError("'workload.kind' is required".into()))?;
    let workload = match kind.as_str() {
        "cost-curve" => {
            let w = Workload::CostCurve {
                points: r.opt_usize("points")?.unwrap_or(24),
                step: r.opt_f64("step")?.unwrap_or(0.05),
                capacity: r.opt_f64("capacity")?.unwrap_or(1.0),
            };
            r.finish(&["kind", "points", "step", "capacity"])?;
            w
        }
        "sweep" => {
            let solvers = r.opt_str_list("solvers")?.unwrap_or_default();
            let seeds = r.opt_u64("seeds")?.unwrap_or(1);
            let seed = r.opt_u64("seed")?.unwrap_or(1000);
            let axes = match r.take_raw("axes") {
                None => standard_axes(0),
                Some(Value::Array(items)) => {
                    let mut axes = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        axes.push(read_axis(&format!("workload.axes[{i}]"), item)?);
                    }
                    axes
                }
                Some(other) => {
                    return fail(format!(
                        "'workload.axes' must be an array of tables, found {}",
                        other.type_name()
                    ))
                }
            };
            let w = Workload::Sweep {
                solvers,
                seeds,
                seed,
                axes,
            };
            r.finish(&["kind", "solvers", "seeds", "seed", "axes"])?;
            w
        }
        "grid" => {
            let solver = r.str_or("solver", "SOFDA")?;
            let seeds = r.opt_u64("seeds")?.unwrap_or(1);
            let seed = r.opt_u64("seed")?.unwrap_or(1000);
            let rows_value = r
                .take_raw("rows")
                .ok_or_else(|| SpecError("'workload.rows' is required for grid".into()))?;
            let rows = read_axis("workload.rows", rows_value)?;
            let cols_value = r
                .take_raw("cols")
                .ok_or_else(|| SpecError("'workload.cols' is required for grid".into()))?;
            let cols = read_axis("workload.cols", cols_value)?;
            let metric_names = r
                .opt_str_list("metrics")?
                .unwrap_or_else(|| vec!["cost".into()]);
            let mut metrics = Vec::with_capacity(metric_names.len());
            for m in &metric_names {
                metrics.push(GridMetric::from_name(m)?);
            }
            let w = Workload::Grid {
                solver,
                seeds,
                seed,
                rows,
                cols,
                metrics,
            };
            r.finish(&["kind", "solver", "seeds", "seed", "rows", "cols", "metrics"])?;
            w
        }
        "runtime" => {
            let w = Workload::Runtime {
                solver: r.str_or("solver", "SOFDA")?,
                seed: r.opt_u64("seed")?.unwrap_or(1000),
                sizes: r
                    .opt_usize_list("sizes")?
                    .unwrap_or_else(|| vec![1000, 2000, 3000, 4000, 5000]),
                sources: r
                    .opt_usize_list("sources")?
                    .unwrap_or_else(|| vec![2, 8, 14, 20, 26]),
            };
            r.finish(&["kind", "solver", "seed", "sizes", "sources"])?;
            w
        }
        "qoe" => {
            let w = Workload::Qoe {
                solvers: r
                    .opt_str_list("solvers")?
                    .unwrap_or_else(|| vec!["SOFDA".into(), "eNEMP".into(), "eST".into()]),
                seeds: r.opt_u64("seeds")?.unwrap_or(1),
                seed: r.opt_u64("seed")?.unwrap_or(1000),
            };
            r.finish(&["kind", "solvers", "seeds", "seed"])?;
            w
        }
        "online" => {
            let seed = r.opt_u64("seed")?.unwrap_or(1000);
            let solvers = r
                .opt_str_list("solvers")?
                .unwrap_or_else(|| vec!["SOFDA".into(), "eNEMP".into(), "eST".into(), "ST".into()]);
            let sessions = r.opt_usize("sessions")?.unwrap_or(1);
            let groups = match r.take_raw("groups") {
                None => return fail("'workload.groups' is required for online"),
                Some(Value::Array(items)) => {
                    let mut groups = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        groups.push(read_group(&format!("workload.groups[{i}]"), item)?);
                    }
                    groups
                }
                Some(other) => {
                    return fail(format!(
                        "'workload.groups' must be an array of tables, found {}",
                        other.type_name()
                    ))
                }
            };
            let failures = match r.take_raw("failures") {
                None => None,
                Some(t) => Some(Box::new(read_failures("workload.failures", t)?)),
            };
            let w = Workload::Online {
                seed,
                solvers,
                sessions,
                groups,
                failures,
            };
            r.finish(&["kind", "seed", "solvers", "sessions", "groups", "failures"])?;
            w
        }
        "churn-at-scale" => {
            let seed = r.opt_u64("seed")?.unwrap_or(1000);
            let solver = r.str_or("solver", "SOFDA")?;
            let groups = r.opt_usize("groups")?.unwrap_or(100);
            let events = r.opt_u64("events")?.unwrap_or(100_000);
            let window = r.opt_u64("window")?.unwrap_or(1000);
            let emit = r.str_or("emit", "windows")?;
            let emit_events = match emit.as_str() {
                "windows" => false,
                "events" => true,
                other => {
                    return fail(format!(
                        "'workload.emit' must be \"windows\" or \"events\", got \"{other}\""
                    ))
                }
            };
            let vms_per_dc = r.opt_usize("vms_per_dc")?.unwrap_or(1);
            let gateway_links = r.opt_usize("gateway_links")?.unwrap_or(2);
            let regions = match r.take_raw("regions") {
                None => ScaleSpec::default_regions(),
                Some(Value::Array(items)) => {
                    let mut regions = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        regions.push(read_region(&format!("workload.regions[{i}]"), item)?);
                    }
                    regions
                }
                Some(other) => {
                    return fail(format!(
                        "'workload.regions' must be an array of tables, found {}",
                        other.type_name()
                    ))
                }
            };
            let pair_cost = match r.take_raw("pair_cost") {
                None => None,
                Some(Value::Array(rows)) => {
                    let mut matrix = Vec::with_capacity(rows.len());
                    for (i, row) in rows.iter().enumerate() {
                        let Value::Array(cells) = row else {
                            return fail(format!(
                                "'workload.pair_cost[{i}]' must be an array of numbers, found {}",
                                row.type_name()
                            ));
                        };
                        let mut out = Vec::with_capacity(cells.len());
                        for (j, cell) in cells.iter().enumerate() {
                            match cell.as_f64() {
                                Some(f) => out.push(f),
                                None => {
                                    return fail(format!(
                                        "'workload.pair_cost[{i}][{j}]' must be a number, \
                                         found {}",
                                        cell.type_name()
                                    ))
                                }
                            }
                        }
                        matrix.push(out);
                    }
                    Some(matrix)
                }
                Some(other) => {
                    return fail(format!(
                        "'workload.pair_cost' must be an array of number rows \
                         (one per region), found {}",
                        other.type_name()
                    ))
                }
            };
            let churn = match r.take_raw("churn") {
                None => GroupChurnConfig::default(),
                Some(t) => read_scale_churn("workload.churn", t)?,
            };
            let failures = match r.take_raw("failures") {
                None => None,
                Some(t) => Some(Box::new(read_failures("workload.failures", t)?)),
            };
            let converge = match r.take_raw("converge") {
                None => None,
                Some(t) => {
                    let mut cr = Reader::new("workload.converge", t)?;
                    let c = ConvergeSpec {
                        epsilon: cr.opt_f64("epsilon")?.unwrap_or(1e-3),
                        patience: cr.opt_usize("patience")?.unwrap_or(3),
                    };
                    cr.finish(&["epsilon", "patience"])?;
                    Some(c)
                }
            };
            let max_seconds = r.opt_f64("max_seconds")?;
            let w = Workload::ChurnAtScale(ScaleSpec {
                seed,
                solver,
                groups,
                events,
                window,
                emit_events,
                vms_per_dc,
                regions,
                gateway_links,
                pair_cost,
                churn,
                failures,
                converge,
                max_seconds,
            });
            r.finish(&[
                "kind",
                "seed",
                "solver",
                "groups",
                "events",
                "window",
                "emit",
                "vms_per_dc",
                "gateway_links",
                "regions",
                "pair_cost",
                "churn",
                "failures",
                "converge",
                "max_seconds",
            ])?;
            w
        }
        other => {
            return fail(format!(
                "unknown workload kind '{other}' (expected cost-curve, sweep, grid, runtime, \
                 qoe, online, or churn-at-scale)"
            ))
        }
    };
    Ok(workload)
}

fn read_region(ctx: &str, v: &Value) -> Result<RegionDef, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let name = r
        .opt_str("name")?
        .ok_or_else(|| SpecError(format!("'{ctx}.name' is required")))?;
    let nodes = r
        .opt_usize("nodes")?
        .ok_or_else(|| SpecError(format!("'{ctx}.nodes' is required")))?;
    let dcs = r.opt_usize("dcs")?.unwrap_or(1);
    r.finish(&["name", "nodes", "dcs"])?;
    Ok(RegionDef { name, nodes, dcs })
}

fn read_scale_churn(ctx: &str, v: &Value) -> Result<GroupChurnConfig, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let d = GroupChurnConfig::default();
    let lifetime = match r.opt_range("lifetime")? {
        Some((lo, hi)) => (lo as u64, hi as u64),
        None => d.lifetime,
    };
    let cfg = GroupChurnConfig {
        viewers: r.opt_range("viewers")?.unwrap_or(d.viewers),
        sources: r.opt_range("sources")?.unwrap_or(d.sources),
        chain_len: r.opt_usize("chain_len")?.unwrap_or(d.chain_len),
        demand_mbps: r.opt_f64("demand_mbps")?.unwrap_or(d.demand_mbps),
        leaves: r.opt_range("leaves")?.unwrap_or(d.leaves),
        joins: r.opt_range("joins")?.unwrap_or(d.joins),
        lifetime,
        roam: r.opt_f64("roam")?.unwrap_or(d.roam),
    };
    r.finish(&[
        "viewers",
        "sources",
        "chain_len",
        "demand_mbps",
        "leaves",
        "joins",
        "lifetime",
        "roam",
    ])?;
    Ok(cfg)
}

fn read_failures(ctx: &str, v: &Value) -> Result<FailureSpec, SpecError> {
    let mut r = Reader::new(ctx, v)?;
    let kind = r.str_or("kind", "vm")?;
    let d = FailureSpec::defaults(&kind);
    let events = match r.take_raw("events") {
        None => Vec::new(),
        Some(Value::Array(items)) => {
            let mut events = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let ectx = format!("{ctx}.events[{i}]");
                let mut er = Reader::new(&ectx, item)?;
                let ev = FailureEventSpec {
                    at: er
                        .opt_usize("at")?
                        .ok_or_else(|| SpecError(format!("'{ectx}.at' is required")))?,
                    element: er
                        .opt_str("element")?
                        .ok_or_else(|| SpecError(format!("'{ectx}.element' is required")))?,
                    repair: er.opt_usize("repair")?.unwrap_or(0),
                };
                er.finish(&["at", "element", "repair"])?;
                events.push(ev);
            }
            events
        }
        Some(other) => {
            return fail(format!(
                "'{ctx}.events' must be an array of tables, found {}",
                other.type_name()
            ))
        }
    };
    let f = FailureSpec {
        every: r.opt_usize("every")?.unwrap_or(d.every),
        count: r.opt_usize("count")?.unwrap_or(d.count),
        process: r.str_or("process", &d.process)?,
        rate: r.opt_f64("rate")?.unwrap_or(d.rate),
        scope: r.opt_str_list("scope")?.unwrap_or(d.scope),
        repair: r.opt_range("repair")?.unwrap_or(d.repair),
        policies: r.opt_str_list("policies")?.unwrap_or(d.policies),
        seed: r.opt_u64("seed")?.unwrap_or(d.seed),
        kind,
        events,
    };
    r.finish(&[
        "every", "kind", "count", "process", "rate", "scope", "repair", "policies", "seed",
        "events",
    ])?;
    Ok(f)
}

// ---------------------------------------------------------------------------
// Writers (Value builders)
// ---------------------------------------------------------------------------

fn usize_array(values: &[usize]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Int(v as i64)).collect())
}

fn str_array(values: &[String]) -> Value {
    Value::Array(values.iter().map(|v| Value::Str(v.clone())).collect())
}

fn range_value(r: (usize, usize)) -> Value {
    Value::Array(vec![Value::Int(r.0 as i64), Value::Int(r.1 as i64)])
}

fn failures_value(f: &FailureSpec) -> Value {
    let mut fv = Value::table();
    fv.set("every", Value::Int(f.every as i64));
    fv.set("kind", Value::Str(f.kind.clone()));
    fv.set("count", Value::Int(f.count as i64));
    fv.set("process", Value::Str(f.process.clone()));
    fv.set("rate", Value::Float(f.rate));
    fv.set("scope", str_array(&f.scope));
    fv.set("repair", range_value(f.repair));
    fv.set("policies", str_array(&f.policies));
    fv.set("seed", Value::Int(f.seed as i64));
    if !f.events.is_empty() {
        fv.set(
            "events",
            Value::Array(
                f.events
                    .iter()
                    .map(|ev| {
                        let mut evv = Value::table();
                        evv.set("at", Value::Int(ev.at as i64));
                        evv.set("element", Value::Str(ev.element.clone()));
                        evv.set("repair", Value::Int(ev.repair as i64));
                        evv
                    })
                    .collect(),
            ),
        );
    }
    fv
}

fn topology_value(t: &TopologySpec) -> Value {
    let mut v = Value::table();
    v.set("name", Value::Str(t.name.clone()));
    if let Some(n) = t.nodes {
        v.set("nodes", Value::Int(n as i64));
    }
    if let Some(n) = t.links {
        v.set("links", Value::Int(n as i64));
    }
    if let Some(n) = t.dcs {
        v.set("dcs", Value::Int(n as i64));
    }
    if let Some(s) = t.seed {
        v.set("seed", Value::Int(s as i64));
    }
    v
}

fn params_value(p: &ScenarioParams) -> Value {
    let mut v = Value::table();
    v.set("vm_count", Value::Int(p.vm_count as i64));
    v.set("sources", Value::Int(p.sources as i64));
    v.set("destinations", Value::Int(p.destinations as i64));
    v.set("chain_len", Value::Int(p.chain_len as i64));
    v.set("setup_scale", Value::Float(p.setup_scale));
    v
}

fn sofda_value(c: &SofdaConfig) -> Value {
    let mut v = Value::table();
    v.set("steiner", Value::Str(steiner_name(c.steiner).into()));
    v.set("stroll", Value::Str(stroll_name(c.stroll)));
    v.set("shorten", Value::Bool(c.shorten));
    if let Some(cost) = c.source_setup_cost {
        v.set("source_setup_cost", Value::Float(cost.value()));
    }
    v
}

fn online_value(o: &OnlineSpec) -> Value {
    let mut v = Value::table();
    v.set("drift", Value::Float(o.drift));
    v.set("drift_policy", Value::Str(o.drift_policy.as_str().into()));
    v.set("reroute_every", Value::Int(o.reroute_every as i64));
    v.set("join", Value::Str(o.join.as_str().into()));
    v.set("link_capacity", Value::Float(o.link_capacity));
    v.set("vm_capacity", Value::Float(o.vm_capacity));
    v
}

fn axis_value(a: &SweepAxis) -> Value {
    let mut v = Value::table();
    v.set("field", Value::Str(a.field.as_str().into()));
    v.set("values", usize_array(&a.values));
    v.set("label", Value::Str(a.label.clone()));
    v
}

fn churn_value(c: &ChurnSpec) -> Value {
    let mut v = Value::table();
    v.set("sources", range_value(c.sources));
    v.set("destinations", range_value(c.destinations));
    v.set("chain_len", Value::Int(c.chain_len as i64));
    v.set("demand_mbps", Value::Float(c.demand_mbps));
    v.set("leaves", range_value(c.leaves));
    v.set("joins", range_value(c.joins));
    v
}

fn workload_value(w: &Workload) -> Value {
    let mut v = Value::table();
    v.set("kind", Value::Str(w.kind().into()));
    match w {
        Workload::CostCurve {
            points,
            step,
            capacity,
        } => {
            v.set("points", Value::Int(*points as i64));
            v.set("step", Value::Float(*step));
            v.set("capacity", Value::Float(*capacity));
        }
        Workload::Sweep {
            solvers,
            seeds,
            seed,
            axes,
        } => {
            v.set("solvers", str_array(solvers));
            v.set("seeds", Value::Int(*seeds as i64));
            v.set("seed", Value::Int(*seed as i64));
            v.set("axes", Value::Array(axes.iter().map(axis_value).collect()));
        }
        Workload::Grid {
            solver,
            seeds,
            seed,
            rows,
            cols,
            metrics,
        } => {
            v.set("solver", Value::Str(solver.clone()));
            v.set("seeds", Value::Int(*seeds as i64));
            v.set("seed", Value::Int(*seed as i64));
            v.set("rows", axis_value(rows));
            v.set("cols", axis_value(cols));
            v.set(
                "metrics",
                Value::Array(
                    metrics
                        .iter()
                        .map(|m| Value::Str(m.as_str().into()))
                        .collect(),
                ),
            );
        }
        Workload::Runtime {
            solver,
            seed,
            sizes,
            sources,
        } => {
            v.set("solver", Value::Str(solver.clone()));
            v.set("seed", Value::Int(*seed as i64));
            v.set("sizes", usize_array(sizes));
            v.set("sources", usize_array(sources));
        }
        Workload::Qoe {
            solvers,
            seeds,
            seed,
        } => {
            v.set("solvers", str_array(solvers));
            v.set("seeds", Value::Int(*seeds as i64));
            v.set("seed", Value::Int(*seed as i64));
        }
        Workload::Online {
            seed,
            solvers,
            sessions,
            groups,
            failures,
        } => {
            v.set("seed", Value::Int(*seed as i64));
            v.set("solvers", str_array(solvers));
            v.set("sessions", Value::Int(*sessions as i64));
            v.set(
                "groups",
                Value::Array(
                    groups
                        .iter()
                        .map(|g| {
                            let mut gv = Value::table();
                            if let Some(t) = &g.topology {
                                gv.set("topology", topology_value(t));
                            }
                            gv.set("requests", Value::Int(g.requests as i64));
                            gv.set("scratch", Value::Bool(g.scratch));
                            gv.set("vms_per_dc", Value::Int(g.vms_per_dc as i64));
                            gv.set("churn", churn_value(&g.churn));
                            gv
                        })
                        .collect(),
                ),
            );
            if let Some(f) = failures {
                v.set("failures", failures_value(f));
            }
        }
        Workload::ChurnAtScale(s) => {
            v.set("seed", Value::Int(s.seed as i64));
            v.set("solver", Value::Str(s.solver.clone()));
            v.set("groups", Value::Int(s.groups as i64));
            v.set("events", Value::Int(s.events as i64));
            v.set("window", Value::Int(s.window as i64));
            v.set(
                "emit",
                Value::Str(if s.emit_events { "events" } else { "windows" }.into()),
            );
            v.set("vms_per_dc", Value::Int(s.vms_per_dc as i64));
            v.set("gateway_links", Value::Int(s.gateway_links as i64));
            v.set(
                "regions",
                Value::Array(
                    s.regions
                        .iter()
                        .map(|r| {
                            let mut rv = Value::table();
                            rv.set("name", Value::Str(r.name.clone()));
                            rv.set("nodes", Value::Int(r.nodes as i64));
                            rv.set("dcs", Value::Int(r.dcs as i64));
                            rv
                        })
                        .collect(),
                ),
            );
            if let Some(m) = &s.pair_cost {
                v.set(
                    "pair_cost",
                    Value::Array(
                        m.iter()
                            .map(|row| Value::Array(row.iter().map(|&f| Value::Float(f)).collect()))
                            .collect(),
                    ),
                );
            }
            let c = &s.churn;
            let mut cv = Value::table();
            cv.set("viewers", range_value(c.viewers));
            cv.set("sources", range_value(c.sources));
            cv.set("chain_len", Value::Int(c.chain_len as i64));
            cv.set("demand_mbps", Value::Float(c.demand_mbps));
            cv.set("leaves", range_value(c.leaves));
            cv.set("joins", range_value(c.joins));
            cv.set(
                "lifetime",
                Value::Array(vec![
                    Value::Int(c.lifetime.0 as i64),
                    Value::Int(c.lifetime.1 as i64),
                ]),
            );
            cv.set("roam", Value::Float(c.roam));
            v.set("churn", cv);
            if let Some(f) = &s.failures {
                v.set("failures", failures_value(f));
            }
            if let Some(conv) = &s.converge {
                let mut cov = Value::table();
                cov.set("epsilon", Value::Float(conv.epsilon));
                cov.set("patience", Value::Int(conv.patience as i64));
                v.set("converge", cov);
            }
            if let Some(secs) = s.max_seconds {
                v.set("max_seconds", Value::Float(secs));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
name = "mini"
label = "Fig. X"
title = "a miniature sweep"

[topology]
name = "softlayer"

[workload]
kind = "sweep"
solvers = ["SOFDA", "eST"]
seeds = 2
seed = 42

[[workload.axes]]
field = "destinations"
values = [2, 4]
"#;

    #[test]
    fn parses_and_round_trips() {
        let spec = ScenarioSpec::from_toml(MINI).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.label, "Fig. X");
        assert_eq!(spec.topology.name, "softlayer");
        let Workload::Sweep {
            ref solvers,
            seeds,
            seed,
            ref axes,
        } = spec.workload
        else {
            panic!("expected a sweep");
        };
        assert_eq!(solvers, &["SOFDA", "eST"]);
        assert_eq!((seeds, seed), (2, 42));
        assert_eq!(axes.len(), 1);
        assert_eq!(axes[0].label, "#destinations");

        // TOML round trip is the identity.
        let rewritten = spec.to_toml();
        let again = ScenarioSpec::from_toml(&rewritten).unwrap();
        assert_eq!(spec, again, "\n{rewritten}");
        // And so is the JSON round trip.
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_context() {
        let src = MINI.replace("seeds = 2", "seeds = 2\nsede = 3");
        let err = ScenarioSpec::from_toml(&src).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'workload.sede'"),
            "{err}"
        );
        assert!(err.to_string().contains("valid keys here"), "{err}");

        let src = MINI.replace("[topology]", "[topology]\ncolour = \"blue\"");
        let err = ScenarioSpec::from_toml(&src).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'topology.colour'"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_values_are_rejected_actionably() {
        let err = ScenarioSpec::from_toml(&MINI.replace("seeds = 2", "seeds = 0")).unwrap_err();
        assert!(err.to_string().contains("'workload.seeds'"), "{err}");
        let err = ScenarioSpec::from_toml(&MINI.replace("seeds = 2", "seeds = -3")).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
        let err =
            ScenarioSpec::from_toml(&MINI.replace("values = [2, 4]", "values = []")).unwrap_err();
        assert!(
            err.to_string().contains("'values' must not be empty"),
            "{err}"
        );
        let err =
            ScenarioSpec::from_toml(&MINI.replace("\"SOFDA\", ", "\"SOFDDA\", ")).unwrap_err();
        assert!(
            err.to_string().contains("unknown solver 'SOFDDA'")
                && err.to_string().contains("SOFDA"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&MINI.replace("name = \"softlayer\"", "name = \"sl\""))
            .unwrap_err();
        assert!(err.to_string().contains("unknown topology 'sl'"), "{err}");
        let err = ScenarioSpec::from_toml(
            &MINI.replace("field = \"destinations\"", "field = \"colour\""),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown sweep field"), "{err}");
    }

    #[test]
    fn online_spec_parses_groups_and_failures() {
        let src = r#"
name = "online-mini"

[online]
drift = 1.5
drift_policy = "cost"

[workload]
kind = "online"
seed = 7
sessions = 1

[[workload.groups]]
topology = "testbed"
requests = 4
scratch = true
churn = { sources = [1, 2], destinations = [2, 3], leaves = [0, 1], joins = [0, 1] }

[workload.failures]
every = 2
"#;
        let spec = ScenarioSpec::from_toml(src).unwrap();
        assert_eq!(spec.online.drift_policy, DriftPolicy::CostDrift);
        let Workload::Online {
            ref groups,
            ref failures,
            ..
        } = spec.workload
        else {
            panic!("expected online");
        };
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].topology.as_ref().unwrap().name, "testbed");
        assert_eq!(groups[0].churn.chain_len, 3, "default chain length");
        let f = failures.as_ref().unwrap();
        assert_eq!((f.every, f.kind.as_str(), f.count), (2, "vm", 1));
        let again = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn defaults_match_engine_defaults() {
        let spec = ScenarioSpec::from_toml(
            "name = \"d\"\n[workload]\nkind = \"sweep\"\nsolvers = [\"SOFDA\"]\n",
        )
        .unwrap();
        assert_eq!(spec.params, {
            let mut p = ScenarioParams::paper_defaults();
            p.seed = spec.params.seed;
            p
        });
        assert_eq!(spec.sofda, SofdaConfig::default());
        assert_eq!(spec.online, OnlineSpec::default());
        // Default axes are the standard figure grid.
        let Workload::Sweep { ref axes, .. } = spec.workload else {
            panic!()
        };
        assert_eq!(axes.len(), 4);
        assert_eq!(axes[2].label, "#VMs");
    }

    #[test]
    fn churn_spec_compiles_to_simulator_params() {
        let c = ChurnSpec::softlayer();
        assert_eq!(c.to_params(), ChurnParams::softlayer());
        let c = ChurnSpec::cogent();
        assert_eq!(c.to_params(), ChurnParams::cogent());
    }

    const SCALE: &str = r#"
name = "scale-mini"
label = "Scale"
title = "churn at scale"

[workload]
kind = "churn-at-scale"
seed = 7
solver = "SOFDA"
groups = 12
events = 120
window = 24
emit = "events"
vms_per_dc = 2
gateway_links = 3

[[workload.regions]]
name = "us-east"
nodes = 6
dcs = 2

[[workload.regions]]
name = "eu-west"
nodes = 5
dcs = 1

[workload.churn]
viewers = [2, 4]
sources = [1, 1]
chain_len = 2
demand_mbps = 5.0
leaves = [0, 1]
joins = [0, 2]
lifetime = [5, 9]
roam = 0.5

[workload.converge]
epsilon = 0.001
patience = 4
"#;

    #[test]
    fn churn_at_scale_parses_and_round_trips() {
        let spec = ScenarioSpec::from_toml(SCALE).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!("expected churn-at-scale");
        };
        assert_eq!((s.seed, s.groups, s.events, s.window), (7, 12, 120, 24));
        assert!(s.emit_events);
        assert_eq!((s.vms_per_dc, s.gateway_links), (2, 3));
        assert_eq!(s.regions.len(), 2);
        assert_eq!(s.regions[1], RegionDef::new("eu-west", 5, 1));
        assert_eq!(s.churn.viewers, (2, 4));
        assert_eq!(s.churn.lifetime, (5, 9));
        assert_eq!(
            s.converge,
            Some(ConvergeSpec {
                epsilon: 0.001,
                patience: 4
            })
        );
        assert_eq!(s.max_seconds, None);
        assert_eq!(spec.workload.kind(), "churn-at-scale");
        assert_eq!(spec.workload.seed(), 7);

        let rewritten = spec.to_toml();
        let again = ScenarioSpec::from_toml(&rewritten).unwrap();
        assert_eq!(spec, again, "\n{rewritten}");
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");
    }

    #[test]
    fn churn_at_scale_defaults_and_validation() {
        // A bare table gets the library defaults.
        let spec = ScenarioSpec::from_toml("name = \"d\"\n[workload]\nkind = \"churn-at-scale\"\n")
            .unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!((s.groups, s.events, s.window), (100, 100_000, 1000));
        assert!(!s.emit_events);
        assert_eq!(s.regions, ScaleSpec::default_regions());
        assert_eq!(s.churn, GroupChurnConfig::default());

        let err =
            ScenarioSpec::from_toml(&SCALE.replace("events = 120", "events = 0")).unwrap_err();
        assert!(err.to_string().contains("'workload.events'"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("emit = \"events\"", "emit = \"all\""))
            .unwrap_err();
        assert!(err.to_string().contains("'workload.emit'"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("nodes = 5", "nodes = 2")).unwrap_err();
        assert!(err.to_string().contains("at least 3 nodes"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("lifetime = [5, 9]", "lifetime = [9, 5]"))
            .unwrap_err();
        assert!(err.to_string().contains("lifetime"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("epsilon = 0.001", "epsilon = -1.0"))
            .unwrap_err();
        assert!(err.to_string().contains("converge.epsilon"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("roam = 0.5", "roam = 1.5")).unwrap_err();
        assert!(err.to_string().contains("roam"), "{err}");
    }

    /// `pair_cost` was a dead config path: implemented and validated in
    /// `sof_topo::RegionsParams` but unreachable from any spec. It now
    /// parses strictly, surfaces the library validators verbatim, and
    /// round-trips losslessly.
    #[test]
    fn churn_at_scale_pair_cost_parses_validates_and_round_trips() {
        let with = |matrix: &str| {
            SCALE.replace(
                "gateway_links = 3",
                &format!("gateway_links = 3\npair_cost = {matrix}"),
            )
        };

        // Default: absent means the line-distance fallback.
        let spec = ScenarioSpec::from_toml(SCALE).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!(s.pair_cost, None);

        // An explicit symmetric matrix (ints coerce to floats) parses and
        // survives both wire formats byte-for-value.
        let spec = ScenarioSpec::from_toml(&with("[[1, 2.5], [2.5, 1]]")).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!(s.pair_cost, Some(vec![vec![1.0, 2.5], vec![2.5, 1.0]]));
        let rewritten = spec.to_toml();
        assert_eq!(
            ScenarioSpec::from_toml(&rewritten).unwrap(),
            spec,
            "\n{rewritten}"
        );
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");

        // Malformed values are rejected with the exact offending path.
        let err = ScenarioSpec::from_toml(&with("3")).unwrap_err();
        assert!(err.to_string().contains("'workload.pair_cost'"), "{err}");
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0], 7]")).unwrap_err();
        assert!(err.to_string().contains("'workload.pair_cost[1]'"), "{err}");
        let err = ScenarioSpec::from_toml(&with("[[1.0, \"x\"], [2.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("'workload.pair_cost[0][1]'"),
            "{err}"
        );

        // Shape and symmetry violations surface the `RegionsParams`
        // validator messages verbatim under the workload.regions prefix.
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost must be a 2×2 matrix"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0], [3.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost must be symmetric"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&with("[[1.0, -2.0], [-2.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost[0][1] must be positive"),
            "{err}"
        );
    }
}
