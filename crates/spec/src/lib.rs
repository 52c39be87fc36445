//! # sof-spec — declarative scenarios for the SOF evaluation
//!
//! Experiments are **data** here, not binaries: a [`ScenarioSpec`]
//! (TOML or JSON) names a topology, scenario parameters, a cost/solver
//! configuration and a workload; [`run_spec`] compiles it onto the
//! existing `Solver` / `OnlineSession` / `SessionPool` machinery and the
//! [`sweep`] engine, and returns a structured [`RunReport`], which
//! serializes as deterministic JSON lines ([`write_jsonl`]) or as markdown
//! tables ([`render_markdown`]).
//!
//! The paper's eight figures/tables ship as bundled presets
//! ([`presets::PRESETS`], checked in under `crates/spec/specs/`), and the
//! `sof` CLI (`sof run fig8`, `sof list`, `sof validate`) drives
//! everything. New scenarios — e.g. an Inet topology under viewer churn
//! with VM failure injection — are a spec file, not code (see the
//! `inet-churn-failures` preset).
//!
//! # Examples
//!
//! ```
//! use sof_spec::{run_spec, RunOptions, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! name = "tiny"
//! label = "Demo"
//! title = "one tiny sweep"
//!
//! [workload]
//! kind = "sweep"
//! solvers = ["SOFDA"]
//! seeds = 1
//! seed = 7
//!
//! [[workload.axes]]
//! field = "destinations"
//! values = [2]
//! "#)?;
//! let report = run_spec(&spec, &RunOptions::default())?;
//! let jsonl = sof_spec::write_jsonl(&report, false);
//! assert!(jsonl.lines().count() >= 2); // meta line + one row per point
//! let markdown = sof_spec::render_markdown(&report);
//! assert!(markdown.starts_with("# Demo — one tiny sweep (seeds = 1)"));
//! # Ok::<(), sof_spec::SpecError>(())
//! ```
//!
//! The unknown-key and range validation is strict and actionable:
//!
//! ```
//! use sof_spec::ScenarioSpec;
//!
//! let err = ScenarioSpec::from_toml(
//!     "name = \"x\"\n[workload]\nkind = \"sweep\"\nsolvers = [\"SOFDA\"]\nseedz = 1\n",
//! )
//! .unwrap_err();
//! assert!(err.to_string().contains("unknown key 'workload.seedz'"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod overrides;
pub mod presets;
pub mod report;
mod spec;
pub mod sweep;
pub mod value;

pub use engine::{run_churn_stream, run_spec, runner_config, RunOptions};
pub use report::{render_markdown, write_jsonl, Detail, ReportMeta, RunReport, Section};
pub use spec::{
    ChurnSpec, ConvergeSpec, FailureSpec, GridMetric, OnlineGroup, OnlineSpec, ScaleSpec,
    ScenarioSpec, SpecError, Workload,
};
