//! An extended-SQL front end for textual joins.
//!
//! Section 2 of the paper motivates the whole study with queries like
//!
//! ```sql
//! SELECT P.P#, P.Title, A.SSN, A.Name
//! FROM Positions P, Applicants A
//! WHERE P.Title LIKE '%Engineer%'
//!   AND A.Resume SIMILAR_TO(20) P.Job_descr
//! ```
//!
//! — a join between textual attributes, optionally narrowed by ordinary
//! selections. This crate provides the pieces a multidatabase front end
//! needs to run such queries against the simulated storage stack:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — the extended-SQL dialect
//!   (`SELECT … FROM … WHERE … AND a.X SIMILAR_TO(λ) b.Y`),
//! * [`catalog`] — relations with ordinary typed columns plus text columns
//!   backed by document collections and inverted files,
//! * [`planner`] — resolves names, classifies predicates, pushes selections
//!   below the join (an outer-side selection turns the outer collection
//!   into a randomly-read subset — the paper's group-3 scenario), and asks
//!   the integrated algorithm to pick an execution strategy,
//! * [`executor`] — evaluates the plan and produces result tuples,
//! * [`mod@explain`] — renders the plan, and with ANALYZE the measured runs
//!   next to every cost formula.
//!
//! # Three verbs, two option values
//!
//! The front door is [`plan_query`] → [`execute`], with [`explain()`] /
//! [`explain_analyze`] alongside (batches of queries over one column pair:
//! [`plan_batch`] → [`execute_batch`], [`explain_analyze_batch`]). Each
//! verb has one body over `N ≥ 1` plans, a query being the batch of one:
//!
//! * [`PlanOptions`] says what to plan for — `sys`, `query`, `scenario`,
//!   `shards` (+ `comm`, `partitioning`) and an optional calibration
//!   `profile`. [`PlanOptions::new`] is single-node and uncalibrated;
//!   every field composes with every other. Without a profile the
//!   algorithms are ranked by predicted wall time on the catalog's device
//!   ([`textjoin_costmodel::rank`]: `page_ns · pages + cpu_ns`); a profile
//!   ranks by its corrected pages.
//!   The resulting [`Plan`] records its inputs, so executing it takes no
//!   second copy of `sys`/`query` that could disagree.
//! * [`ExecOptions`] says how to run a plan — `trace` (executor spans),
//!   `drift_factor` (the watchdog: abort and re-plan when the choice
//!   overruns its prediction) and `introspect` (a live, cancellable
//!   ticket). The default is all three off.
//!
//! ```
//! # use textjoin_query::*;
//! # use textjoin_common::{QueryParams, SystemParams};
//! # use textjoin_costmodel::IoScenario;
//! # fn demo(catalog: &Catalog, sql: &str) -> textjoin_common::Result<()> {
//! let sys = SystemParams::paper_base();
//! let o = PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated);
//! let o = PlanOptions { shards: 2, ..o };
//! let plan = plan_query(catalog, &parse(sql)?, &o)?;
//! let watched = ExecOptions { drift_factor: Some(1.5), ..Default::default() };
//! let out = execute(catalog, &plan, &watched)?;
//! println!("{} rows via {}", out.rows.len(), out.algorithm);
//! println!("{}", explain_analyze(catalog, sql, &o)?.text);
//! # Ok(()) }
//! ```
//!
//! [`run_query`], [`plan`], [`planner::plan_with_workers`],
//! [`executor::run_query_with_workers`], [`executor::execute_plan`],
//! [`execute_plan_introspected`] and [`explain_query`] are the pre-options
//! signatures `benchmark/` compiles against, kept as one-line forwards.
//!
//! The asymmetry of `SIMILAR_TO` is preserved: `A.Resume SIMILAR_TO(λ)
//! P.Job_descr` finds λ resumes for *each* job description, so the
//! right-hand relation drives the outer loop (section 2).

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod executor;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::{ColumnRef, Literal, Predicate, Query};
pub use catalog::{Catalog, ColumnType, Relation, RelationBuilder, Value};
pub use executor::{
    execute, execute_batch, execute_plan_introspected, run_query, BatchQueryOutput, ExecOptions,
    Introspect, QueryOutput, ShardExecution,
};
pub use explain::{
    explain, explain_analyze, explain_analyze_batch, explain_query, AnalyzeOutput, CalibratedDrift,
    DriftRow, ShardDrift,
};
pub use parser::parse;
pub use planner::{plan, plan_batch, plan_query, BatchPlan, Plan, PlanOptions};
pub use textjoin_costmodel::Prediction;
