//! Query planning: name resolution, selection pushdown and algorithm
//! choice.
//!
//! The planner realises the evaluation strategy of the paper's section 2:
//! selections on non-textual attributes are evaluated *first*, so only the
//! surviving documents participate in the textual join. The semantics of
//! `left SIMILAR_TO(λ) right` makes the right-hand relation the outer
//! collection (one set of λ matches per right-hand document), and the
//! left-hand relation the inner collection.

use crate::ast::{ColumnRef, CompareOp, Literal, Predicate, Query};
use crate::catalog::{like_match, Catalog, ColumnType, Relation, Value};
use textjoin_common::{DocId, Error, FragStats, QueryParams, Result, SystemParams};
use textjoin_core::integrated::device_prices;
use textjoin_core::ShardPartitioning;
use textjoin_costmodel::{
    measured_overlap, rank, shard, Algorithm, CalibrationProfile, CommParams, CostEstimates,
    IoScenario, JoinInputs, Prediction, Prices, ShardPlan,
};

/// Everything planning decides on besides the query itself — the one
/// options value [`plan_query`], [`plan_batch`] and the `explain` verbs
/// take. The fields compose freely: shards × profile is one plan.
#[derive(Clone, Copy)]
pub struct PlanOptions<'a> {
    /// System parameters `B`, `P`, `α`.
    pub sys: SystemParams,
    /// Query parameters; `λ` is overridden by the query's `SIMILAR_TO(λ)`.
    pub query: QueryParams,
    /// The I/O pricing the algorithms are ranked under.
    pub scenario: IoScenario,
    /// Sites the join is split across (1 = single-node). With `shards > 1`
    /// the chosen algorithm's per-site §5 costs are recorded in
    /// [`Plan::shard_plan`].
    pub shards: usize,
    /// Network pricing of the shard plan and of shipped structures.
    pub comm: CommParams,
    /// Boundary strategy the sharded executor runs with.
    pub partitioning: ShardPartitioning,
    /// `None` ranks by predicted wall time: the built-in CPU prices beside
    /// what the catalog's device says a page costs. A profile ranks in its
    /// own currency, pages: each raw estimate is multiplied by the fitted
    /// correction factor for this collection pair, CPU is not priced, and
    /// [`CalibrationProfile::seed`] is the paper's ranking.
    pub profile: Option<&'a CalibrationProfile>,
}

impl PlanOptions<'_> {
    /// What [`rank`] prices pages and work at under these options, on the
    /// device `catalog` is stored on.
    fn prices(&self, catalog: &Catalog) -> Prices {
        match self.profile {
            Some(_) => Prices::pages_only(self.sys.alpha),
            None => device_prices(catalog.disk()),
        }
    }

    /// The profile's correction of `pair`'s raw estimates (the identity
    /// without one).
    fn correct<'p>(&'p self, pair: &'p str) -> impl Fn(Algorithm, f64) -> f64 + 'p {
        move |a, raw| (self.profile).map_or(raw, |p| p.calibrated_cost(pair, a, raw))
    }

    /// Single-node planning on the raw estimates: one site, default network
    /// pricing and boundaries, no profile.
    pub fn new(sys: SystemParams, query: QueryParams, scenario: IoScenario) -> Self {
        Self {
            sys,
            query,
            scenario,
            shards: 1,
            comm: CommParams::default_network(),
            partitioning: ShardPartitioning::default(),
            profile: None,
        }
    }
}

/// One projected output column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutputCol {
    /// Column `index` of the inner relation.
    Inner(usize),
    /// Column `index` of the outer relation.
    Outer(usize),
}

/// A planned textual join query.
pub struct Plan {
    /// Inner relation name (`C1` — the side matches come from).
    pub inner_rel: String,
    /// Inner textual column.
    pub inner_column: String,
    /// Outer relation name (`C2` — each of its rows gets λ matches).
    pub outer_rel: String,
    /// Outer textual column.
    pub outer_column: String,
    /// λ.
    pub lambda: usize,
    /// Rows of the inner relation surviving its selections (`None` = all).
    pub inner_rows: Option<Vec<DocId>>,
    /// Rows of the outer relation surviving its selections (`None` = all).
    pub outer_rows: Option<Vec<DocId>>,
    /// The projection, with display headers.
    pub output: Vec<(String, OutputCol)>,
    /// The algorithm the integrated optimizer picked.
    pub chosen: Algorithm,
    /// The cost estimates behind the choice.
    pub estimates: CostEstimates,
    /// The inputs the estimates were computed from.
    pub inputs: JoinInputs,
    /// How many sites the join is sharded across (1 = single-node).
    pub shards: usize,
    /// The per-shard cost breakdown when `shards > 1` — what EXPLAIN's
    /// shard table and the per-shard drift comparison are built from.
    pub shard_plan: Option<ShardPlan>,
    /// The network pricing the shard plan (and the sharded executor's
    /// shipping estimates) use.
    pub comm: CommParams,
    /// Which boundary strategy the sharded executor runs with. The plan
    /// itself always prices uniform fractions; skew-aware partitioning is
    /// the run-time mechanism for achieving them on skewed data.
    pub shard_partitioning: ShardPartitioning,
    /// Collection-pair label (`"inner_rel/outer_rel"`) keying the query's
    /// reports and calibration corrections.
    pub pair: String,
    /// What the ranking priced a page and a unit of work at.
    pub prices: Prices,
    /// The plan's recorded predictions, one per algorithm, cheapest
    /// predicted time first (ties in `Algorithm::ALL` order) — the
    /// ranking the choice was made on, the order fallbacks are tried in,
    /// and the feedback the observability loop compares measured costs
    /// against.
    pub predictions: Vec<Prediction>,
}

/// What the executor and ANALYZE run: `N ≥ 1` member plans over one
/// column pair and the one ranking they share — a [`BatchPlan`]'s, or a
/// [`Plan`]'s as the batch of one.
#[derive(Clone, Copy)]
pub(crate) struct Members<'p> {
    pub(crate) plans: &'p [Plan],
    pub(crate) chosen: Algorithm,
    pub(crate) estimates: &'p CostEstimates,
    pub(crate) predictions: &'p [Prediction],
}

impl<'p> Members<'p> {
    /// The ranking's row for one algorithm.
    pub(crate) fn prediction(&self, algorithm: Algorithm) -> &'p Prediction {
        self.predictions
            .iter()
            .find(|p| p.algorithm == algorithm)
            .expect("every registered algorithm is recorded")
    }

    /// The one member, when it runs across `shards > 1` sites.
    pub(crate) fn sharded(&self) -> Option<&'p Plan> {
        match self.plans {
            [p] if p.shards > 1 => Some(p),
            _ => None,
        }
    }
}

impl Plan {
    /// The recorded prediction for one algorithm.
    pub fn prediction(&self, algorithm: Algorithm) -> &Prediction {
        self.members().prediction(algorithm)
    }

    /// This plan as the batch of one.
    pub(crate) fn members(&self) -> Members<'_> {
        Members {
            plans: std::slice::from_ref(self),
            chosen: self.chosen,
            estimates: &self.estimates,
            predictions: &self.predictions,
        }
    }

    /// `inner.column SIMILAR_TO outer.column`: the column pair the plan
    /// joins, under the names the catalog declares.
    pub(crate) fn column_pair(&self) -> String {
        format!(
            "{}.{} SIMILAR_TO {}.{}",
            self.inner_rel, self.inner_column, self.outer_rel, self.outer_column
        )
    }

    /// `InvalidArgument` unless `sys`/`query` are what this plan was made
    /// for — the guard of the pinned `execute_plan*` forwards, whose
    /// signatures pass both a second time.
    pub(crate) fn check_planned_for(&self, sys: SystemParams, query: QueryParams) -> Result<()> {
        if self.inputs.sys == sys && self.inputs.query == query.with_lambda(self.lambda) {
            return Ok(());
        }
        Err(Error::InvalidArgument(format!(
            "plan was made for {:?} / {:?}, asked to execute under {sys:?} / {query:?}",
            self.inputs.sys, self.inputs.query
        )))
    }
}

/// A planned batch of textual-join queries over one shared collection
/// pair, to be executed with shared I/O by `textjoin_core::batch`.
pub struct BatchPlan {
    /// One plan per query, in input order.
    pub plans: Vec<Plan>,
    /// The algorithm the *whole batch* runs on — chosen from the batch
    /// cost formulas, not per query.
    pub chosen: Algorithm,
    /// The batch cost estimates behind the choice.
    pub estimates: CostEstimates,
    /// The batch ranking, as [`Plan::predictions`] is a query's: the batch
    /// formulas' pages and the queries' summed work terms, cheapest
    /// predicted time first.
    pub predictions: Vec<Prediction>,
    /// What running the queries one at a time would cost under the same
    /// scenario, each on its own cheapest algorithm (Σ of per-query bests).
    pub sequential_cost: f64,
    /// The I/O scenario the choice was made under.
    pub scenario: IoScenario,
}

impl BatchPlan {
    /// The batch ranking's row for one algorithm.
    pub fn prediction(&self, algorithm: Algorithm) -> &Prediction {
        self.members().prediction(algorithm)
    }

    pub(crate) fn members(&self) -> Members<'_> {
        Members {
            plans: &self.plans,
            chosen: self.chosen,
            estimates: &self.estimates,
            predictions: &self.predictions,
        }
    }
}

/// Plans a batch of parsed queries that all join the same textual column
/// pair, picking one algorithm for the whole batch by [`rank`] over the
/// cost formulas of the whole batch (`CostEstimates::compute_batch`) — so
/// a batch of one chooses what [`plan_query`] chooses.
///
/// Every query is first planned individually (selection pushdown and
/// projection are per query); the batch then re-chooses the algorithm on
/// the shared-scan estimates. Queries joining different relations or
/// different textual columns are rejected — they cannot share scans.
pub fn plan_batch(catalog: &Catalog, queries: &[Query], o: &PlanOptions<'_>) -> Result<BatchPlan> {
    if queries.is_empty() {
        return Err(Error::Plan("batch needs at least one query".into()));
    }
    if o.shards > 1 {
        return Err(Error::Plan(format!(
            "a batch shares one single-node scan: shards={} must be 1",
            o.shards
        )));
    }
    let plans: Vec<Plan> = queries
        .iter()
        .map(|q| plan_query(catalog, q, o))
        .collect::<Result<_>>()?;
    let (first, pair) = (&plans[0], plans[0].column_pair());
    if let Some(other) = plans.iter().map(Plan::column_pair).find(|o| *o != pair) {
        return Err(Error::Plan(format!(
            "batch queries must join the same textual column pair: {pair} vs {other}"
        )));
    }

    let inputs: Vec<JoinInputs> = plans.iter().map(|p| p.inputs).collect();
    let prices = o.prices(catalog);
    let (estimates, ranked) = rank(&inputs, o.scenario, &prices, o.correct(&first.pair));
    let sequential_cost = plans.iter().map(|p| p.estimates.best(o.scenario).1).sum();

    Ok(BatchPlan {
        chosen: ranked[0].algorithm,
        predictions: ranked.to_vec(),
        plans,
        estimates,
        sequential_cost,
        scenario: o.scenario,
    })
}

/// [`plan_query`] at [`PlanOptions::new`]. Pinned by `benchmark/`; delete
/// once it may change.
pub fn plan(
    catalog: &Catalog,
    query: &Query,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<Plan> {
    plan_query(
        catalog,
        query,
        &PlanOptions::new(sys, base_query_params, scenario),
    )
}

/// [`plan`]; `_workers` is ignored (every algorithm runs on the calling
/// thread). Pinned by `benchmark/`; delete once it may change.
pub fn plan_with_workers(
    catalog: &Catalog,
    query: &Query,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    _workers: usize,
) -> Result<Plan> {
    plan(catalog, query, sys, base_query_params, scenario)
}

/// Plans a parsed query against a catalog: resolves names, pushes the
/// selections below the join, and ranks the algorithms by
/// [`textjoin_costmodel::rank`] under `o` — by predicted wall time on the
/// catalog's device, or by `o.profile`'s corrected pages when one is
/// given. The plan records pages, corrected pages and both time terms per
/// algorithm, so EXPLAIN can show what decided and the watchdog can budget
/// against the calibrated page prediction.
pub fn plan_query(catalog: &Catalog, query: &Query, o: &PlanOptions<'_>) -> Result<Plan> {
    if query.from.len() != 2 {
        return Err(Error::Plan(format!(
            "textual join queries need exactly two relations, got {}",
            query.from.len()
        )));
    }
    let (left_col, right_col, lambda) = query
        .similar_to()
        .ok_or_else(|| Error::Plan("query needs exactly one SIMILAR_TO predicate".into()))?;

    let resolver = Resolver::new(catalog, &query.from)?;
    let (inner_alias, inner_column) = resolver.resolve(left_col)?;
    let (outer_alias, outer_column) = resolver.resolve(right_col)?;
    if inner_alias == outer_alias {
        return Err(Error::Plan(
            "SIMILAR_TO must join two different relations".into(),
        ));
    }
    let inner_rel = resolver.relation(&inner_alias);
    let outer_rel = resolver.relation(&outer_alias);
    check_text_column(inner_rel, &inner_column)?;
    check_text_column(outer_rel, &outer_column)?;

    // Evaluate the selections per relation (pushdown).
    let mut inner_keep: Option<Vec<bool>> = None;
    let mut outer_keep: Option<Vec<bool>> = None;
    for pred in query.selections() {
        let column = match pred {
            Predicate::Compare { column, .. } | Predicate::Like { column, .. } => column,
            Predicate::SimilarTo { .. } => unreachable!("filtered by selections()"),
        };
        let (alias, col_name) = resolver.resolve(column)?;
        let rel = resolver.relation(&alias);
        let keep = if alias == inner_alias {
            &mut inner_keep
        } else {
            &mut outer_keep
        };
        let mask = keep.get_or_insert_with(|| vec![true; rel.num_rows()]);
        apply_selection(rel, &col_name, pred, mask)?;
    }
    let inner_rows = inner_keep.map(mask_to_ids);
    let outer_rows = outer_keep.map(mask_to_ids);

    // Resolve the projection (empty SELECT list = `*`: outer columns then
    // inner columns).
    let mut output = Vec::new();
    if query.select.is_empty() {
        for (i, (name, _)) in outer_rel.columns().iter().enumerate() {
            output.push((
                format!("{}.{}", outer_rel.name(), name),
                OutputCol::Outer(i),
            ));
        }
        for (i, (name, _)) in inner_rel.columns().iter().enumerate() {
            output.push((
                format!("{}.{}", inner_rel.name(), name),
                OutputCol::Inner(i),
            ));
        }
    } else {
        for col in &query.select {
            let (alias, name) = resolver.resolve(col)?;
            let rel = resolver.relation(&alias);
            let idx = rel
                .column_index(&name)
                .ok_or_else(|| Error::Plan(format!("unknown column {col}")))?;
            let out = if alias == inner_alias {
                OutputCol::Inner(idx)
            } else {
                OutputCol::Outer(idx)
            };
            output.push((format!("{}.{}", rel.name(), name), out));
        }
    }

    // Cost-based algorithm choice from measured statistics.
    let inner_tc = inner_rel.text_column(&inner_column).expect("checked above");
    let outer_tc = outer_rel.text_column(&outer_column).expect("checked above");
    let inner_stats = inner_tc.collection.profile().stats();
    let outer_full = outer_tc.collection.profile().stats();
    let (outer_stats, outer_original) = match &outer_rows {
        None => (outer_full, None),
        Some(ids) => (outer_full.select_docs(ids.len() as u64), Some(outer_full)),
    };
    let overlap = (outer_tc.collection.profile()).overlap(inner_tc.collection.profile());
    let (q, matches) = measured_overlap(overlap, &outer_full, outer_stats.num_docs);
    let inputs = JoinInputs {
        inner: inner_stats,
        outer: outer_stats,
        sys: o.sys,
        query: o.query.with_lambda(lambda),
        q,
        outer_original,
        inner_frag: FragStats::default(),
        // FNL scans the *inner* side's signature index, so its stats come
        // from the inner text column; without them the FNL estimate is
        // infinite and the ranking degrades to the classic three.
        fnl: Some(inner_tc.fnl.stats()),
        matches: Some(matches),
    };
    let pair = format!("{}/{}", inner_rel.name(), outer_rel.name());
    let prices = o.prices(catalog);
    let batch_of_one = std::slice::from_ref(&inputs);
    let (estimates, ranked) = rank(batch_of_one, o.scenario, &prices, o.correct(&pair));
    let chosen = ranked[0].algorithm;
    let predictions = ranked.to_vec();

    // The per-shard §5 breakdown the sharded executor is being priced
    // against. Uniform fractions are the planning-time assumption; the
    // skew-aware partitioner's job at run time is to realise them.
    let shards = o.shards.max(1);
    let shard_plan = if shards > 1 {
        shard::plan(&inputs, chosen, &o.comm, &shard::uniform_fractions(shards)).ok()
    } else {
        None
    };

    Ok(Plan {
        inner_rel: inner_rel.name().to_string(),
        inner_column,
        outer_rel: outer_rel.name().to_string(),
        outer_column,
        lambda,
        inner_rows,
        outer_rows,
        output,
        chosen,
        estimates,
        inputs,
        shards,
        shard_plan,
        comm: o.comm,
        shard_partitioning: o.partitioning,
        pair,
        prices,
        predictions,
    })
}

fn check_text_column(rel: &Relation, column: &str) -> Result<()> {
    let idx = rel
        .column_index(column)
        .ok_or_else(|| Error::Plan(format!("unknown column {}.{column}", rel.name())))?;
    if rel.columns()[idx].1 != ColumnType::Text {
        return Err(Error::Plan(format!(
            "{}.{column} is not a textual attribute",
            rel.name()
        )));
    }
    Ok(())
}

fn mask_to_ids(mask: Vec<bool>) -> Vec<DocId> {
    mask.iter()
        .enumerate()
        .filter(|(_, keep)| **keep)
        .map(|(i, _)| DocId::new(i as u32))
        .collect()
}

fn apply_selection(
    rel: &Relation,
    col_name: &str,
    pred: &Predicate,
    mask: &mut [bool],
) -> Result<()> {
    let idx = rel
        .column_index(col_name)
        .ok_or_else(|| Error::Plan(format!("unknown column {}.{col_name}", rel.name())))?;
    for (row, keep) in mask.iter_mut().enumerate() {
        if !*keep {
            continue;
        }
        let value = rel.value(row, idx);
        let pass = match pred {
            Predicate::Like { pattern, .. } => match value {
                Value::Str(s) => like_match(s, pattern),
                Value::Text(t) => like_match(t, pattern),
                other => {
                    return Err(Error::Plan(format!(
                        "LIKE on non-string column {}.{col_name} ({other:?})",
                        rel.name()
                    )))
                }
            },
            Predicate::Compare { op, value: lit, .. } => compare(value, *op, lit)?,
            Predicate::SimilarTo { .. } => unreachable!(),
        };
        *keep = pass;
    }
    Ok(())
}

fn compare(value: &Value, op: CompareOp, lit: &Literal) -> Result<bool> {
    use std::cmp::Ordering;
    let ord: Ordering = match (value, lit) {
        (Value::Int(a), Literal::Int(b)) => a.cmp(b),
        (Value::Int(a), Literal::Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
        (Value::Float(a), Literal::Int(b)) => {
            a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal)
        }
        (Value::Float(a), Literal::Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
        (Value::Str(a), Literal::Str(b)) => a.as_str().cmp(b.as_str()),
        (v, l) => {
            return Err(Error::Plan(format!(
                "type mismatch comparing {v:?} with {l:?}"
            )))
        }
    };
    Ok(match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    })
}

/// Alias → relation resolution for a two-relation FROM clause.
struct Resolver<'c> {
    entries: Vec<(String, &'c Relation)>, // (alias, relation)
}

impl<'c> Resolver<'c> {
    fn new(catalog: &'c Catalog, from: &[(String, String)]) -> Result<Self> {
        let mut entries = Vec::new();
        for (name, alias) in from {
            let rel = catalog
                .relation(name)
                .ok_or_else(|| Error::NotFound(format!("relation {name}")))?;
            entries.push((alias.clone(), rel));
        }
        Ok(Self { entries })
    }

    fn relation(&self, alias: &str) -> &'c Relation {
        self.entries
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(alias))
            .map(|(_, r)| *r)
            .expect("alias resolved earlier")
    }

    /// Resolves a column reference to `(alias, column name)`. Names match
    /// ignoring ASCII case; the name returned is the one the relation
    /// declares, so two spellings of one column plan alike.
    fn resolve(&self, col: &ColumnRef) -> Result<(String, String)> {
        let declared = |rel: &Relation| {
            let i = rel.column_index(&col.column)?;
            Some(rel.columns()[i].0.clone())
        };
        let unknown = || Error::Plan(format!("unknown column {col}"));
        match &col.table {
            Some(alias) => {
                let (a, rel) = self
                    .entries
                    .iter()
                    .find(|(a, _)| a.eq_ignore_ascii_case(alias))
                    .ok_or_else(|| Error::Plan(format!("unknown table alias {alias}")))?;
                Ok((a.clone(), declared(rel).ok_or_else(unknown)?))
            }
            None => {
                let mut hits =
                    (self.entries.iter()).filter_map(|(a, r)| Some((a.clone(), declared(r)?)));
                match (hits.next(), hits.next()) {
                    (Some(hit), None) => Ok(hit),
                    (None, _) => Err(unknown()),
                    _ => Err(Error::Plan(format!("ambiguous column {col}"))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelationBuilder;
    use crate::parser::parse;
    use std::sync::Arc;
    use textjoin_storage::DiskSim;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut c = Catalog::new(disk);
        c.add(
            RelationBuilder::new("Positions")
                .column("P#", ColumnType::Int)
                .column("Title", ColumnType::Str)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Int(1),
                    Value::Str("Database Engineer".into()),
                    Value::Text("design query engines and storage systems".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Int(2),
                    Value::Str("Chef".into()),
                    Value::Text("cook pasta daily".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c.add(
            RelationBuilder::new("Applicants")
                .column("SSN", ColumnType::Str)
                .column("Name", ColumnType::Str)
                .column("Years", ColumnType::Int)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("111".into()),
                    Value::Str("Ada".into()),
                    Value::Int(10),
                    Value::Text("storage systems and query engines expert".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("222".into()),
                    Value::Str("Bob".into()),
                    Value::Int(2),
                    Value::Text("pasta cooking and recipes".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn paper_base() -> PlanOptions<'static> {
        PlanOptions::new(
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
    }

    fn plan_sql(c: &Catalog, sql: &str) -> Result<Plan> {
        plan_query(c, &parse(sql).unwrap(), &paper_base())
    }

    #[test]
    fn resolves_the_papers_query_shape() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select P.P#, P.Title, A.SSN, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        )
        .unwrap();
        // λ applicants per position: Applicants is inner, Positions outer.
        assert_eq!(p.inner_rel, "Applicants");
        assert_eq!(p.outer_rel, "Positions");
        assert_eq!(p.lambda, 2);
        assert_eq!(p.output.len(), 4);
        assert!(p.inner_rows.is_none() && p.outer_rows.is_none());
    }

    #[test]
    fn like_selection_reduces_the_outer_relation() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Engineer%' and A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        assert_eq!(p.outer_rows, Some(vec![DocId::new(0)]));
    }

    #[test]
    fn comparison_selection_reduces_the_inner_relation() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select A.Name From Positions P, Applicants A \
             Where A.Years >= 5 and A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        assert_eq!(p.inner_rows, Some(vec![DocId::new(0)]));
        assert!(p.outer_rows.is_none());
    }

    #[test]
    fn unqualified_unique_columns_resolve() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select Name From Positions, Applicants \
             Where Resume SIMILAR_TO(1) Job_descr",
        )
        .unwrap();
        assert_eq!(p.inner_rel, "Applicants");
    }

    #[test]
    fn planning_errors() {
        let c = catalog();
        // Not a text column.
        assert!(plan_sql(
            &c,
            "Select Name From Positions P, Applicants A Where A.Name SIMILAR_TO(1) P.Job_descr"
        )
        .is_err());
        // Unknown relation.
        assert!(plan_sql(
            &c,
            "Select a From Nope N, Applicants A Where A.Resume SIMILAR_TO(1) N.x"
        )
        .is_err());
        // Missing SIMILAR_TO.
        assert!(plan_sql(
            &c,
            "Select Name From Positions P, Applicants A Where A.Years > 1"
        )
        .is_err());
        // Self-join of one alias.
        assert!(plan_sql(
            &c,
            "Select Name From Positions P, Applicants A Where P.Job_descr SIMILAR_TO(1) P.Job_descr"
        )
        .is_err());
        // One relation only.
        assert!(plan_sql(
            &c,
            "Select Name From Applicants A Where A.Resume SIMILAR_TO(1) A.Resume"
        )
        .is_err());
    }

    #[test]
    fn batch_plans_share_one_algorithm() {
        let c = catalog();
        let queries: Vec<Query> = [1, 2]
            .iter()
            .map(|l| {
                parse(&format!(
                    "Select P.Title, A.Name From Positions P, Applicants A \
                     Where A.Resume SIMILAR_TO({l}) P.Job_descr"
                ))
                .unwrap()
            })
            .collect();
        let bp = plan_batch(&c, &queries, &paper_base()).unwrap();
        assert_eq!(bp.plans.len(), 2);
        assert_eq!(bp.plans[0].lambda, 1);
        assert_eq!(bp.plans[1].lambda, 2);
        let batch_cost = bp.estimates.cost(bp.chosen, bp.scenario);
        assert!(batch_cost.is_finite());
        // Shared scans never cost more than running the queries back to
        // back on their individually cheapest algorithms... unless the
        // individual bests differ from the batch algorithm; the batch cost
        // must still beat the sum of the *same* algorithm run N times.
        let same_alg_sum: f64 = bp
            .plans
            .iter()
            .map(|p| p.estimates.cost(bp.chosen, bp.scenario))
            .sum();
        assert!(batch_cost <= same_alg_sum + 1e-9);
    }

    #[test]
    fn batch_rejects_mismatched_pairs_and_empty_batches() {
        let c = catalog();
        let o = paper_base();
        assert!(plan_batch(&c, &[], &o).is_err());
        let forward = parse(
            "Select P.Title From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        // Swapped direction — a different (inner, outer) pair.
        let backward = parse(
            "Select P.Title From Positions P, Applicants A \
             Where P.Job_descr SIMILAR_TO(1) A.Resume",
        )
        .unwrap();
        let message = |r: Result<BatchPlan>| r.err().expect("must not plan").to_string();
        let err = message(plan_batch(&c, &[forward.clone(), backward], &o));
        assert!(err.contains("same textual column pair"), "{err}");
        // A batch is one shared single-node scan: the knob it cannot
        // honour is refused, not ignored.
        let sharded = PlanOptions { shards: 2, ..o };
        let err = message(plan_batch(&c, std::slice::from_ref(&forward), &sharded));
        assert!(err.contains("shards=2 must be 1"), "{err}");
    }

    /// Column names match ignoring ASCII case, so two spellings of one
    /// column pair are one pair: the plan keeps the declared names.
    #[test]
    fn a_batch_joins_one_column_pair_however_it_is_spelled() {
        let c = catalog();
        let queries: Vec<Query> = [
            "A.Resume SIMILAR_TO(1) P.Job_descr",
            "A.resume SIMILAR_TO(2) P.job_descr",
        ]
        .iter()
        .map(|j| {
            parse(&format!(
                "Select P.title From Positions P, Applicants A Where {j}"
            ))
            .unwrap()
        })
        .collect();
        let bp = plan_batch(&c, &queries, &paper_base()).unwrap();
        for p in &bp.plans {
            assert_eq!(p.inner_column, "Resume");
            assert_eq!(p.outer_column, "Job_descr");
            assert_eq!(p.output[0].0, "Positions.Title");
        }
    }

    #[test]
    fn plan_records_raw_predictions_and_pair_label() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select P.Title From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        assert_eq!(p.pair, "Applicants/Positions");
        assert_eq!(p.predictions.len(), 4);
        for pred in &p.predictions {
            assert_eq!(
                pred.raw,
                p.estimates.cost(pred.algorithm, IoScenario::Dedicated)
            );
            assert_eq!(pred.raw, pred.calibrated, "no profile: raw == calibrated");
        }
        assert_eq!(p.prediction(p.chosen).algorithm, p.chosen);
    }

    #[test]
    fn calibration_profile_can_rerank_the_choice() {
        use textjoin_costmodel::ReportObs;
        let c = catalog();
        let query = parse(
            "Select P.Title From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        let base = plan_query(&c, &query, &paper_base()).unwrap();
        // Feedback says the raw model under-predicts the chosen algorithm
        // on this pair by 1000×; the calibrated ranking must move off it.
        let obs = vec![ReportObs {
            pair: base.pair.clone(),
            algorithm: base.chosen.to_string(),
            seq_reads: 1000,
            rand_reads: 0,
            cells: 0,
            wall_ns: 0,
            predicted_cost: Some(1.0),
            measured_cost: 1000.0,
        }];
        let profile = CalibrationProfile::fit(&obs);
        let o = PlanOptions {
            profile: Some(&profile),
            ..paper_base()
        };
        let p = plan_query(&c, &query, &o).unwrap();
        assert_ne!(p.chosen, base.chosen, "the 1000× correction must rerank");
        let corrected = p.prediction(base.chosen);
        assert!((corrected.calibrated - corrected.raw * 1000.0).abs() < 1e-6);
        // The new choice is the cheapest by *calibrated* cost, and the
        // recorded predictions are that ranking.
        assert_eq!(p.predictions[0].algorithm, p.chosen);
        assert!(p
            .predictions
            .windows(2)
            .all(|w| w[0].calibrated <= w[1].calibrated));
    }

    /// `plan_batch` goes through the one ranking: a batch of one chooses
    /// what `plan_query` chooses and records the same rows — by predicted
    /// time without a profile, by corrected pages with one that reranks.
    #[test]
    fn a_batch_of_one_chooses_what_plan_query_chooses() {
        use textjoin_costmodel::ReportObs;
        let c = catalog();
        let query = parse(
            "Select P.Title From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        let base = plan_query(&c, &query, &paper_base()).unwrap();
        let profile = CalibrationProfile::fit(&[ReportObs {
            pair: base.pair.clone(),
            algorithm: base.chosen.to_string(),
            seq_reads: 1000,
            rand_reads: 0,
            cells: 0,
            wall_ns: 0,
            predicted_cost: Some(1.0),
            measured_cost: 1000.0,
        }]);
        let reranked = PlanOptions {
            profile: Some(&profile),
            ..paper_base()
        };
        for o in [paper_base(), reranked] {
            let solo = plan_query(&c, &query, &o).unwrap();
            let batch = plan_batch(&c, std::slice::from_ref(&query), &o).unwrap();
            assert_eq!(batch.chosen, solo.chosen);
            assert_eq!(batch.predictions, solo.predictions);
            assert_eq!(batch.estimates, solo.estimates);
        }
        let moved = plan_batch(&c, std::slice::from_ref(&query), &reranked).unwrap();
        assert_ne!(
            moved.chosen, base.chosen,
            "the profile reranks the batch too"
        );
    }

    #[test]
    fn select_star_projects_both_relations() {
        let c = catalog();
        let p = plan_sql(
            &c,
            "Select * From Positions P, Applicants A Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        assert_eq!(p.output.len(), 3 + 4);
        assert!(p.output[0].0.starts_with("Positions."));
    }
}
