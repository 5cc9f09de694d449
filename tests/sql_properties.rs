//! Property tests over the extended-SQL layer: random catalogs and
//! queries, checked against semantics computed directly from the rows.

use proptest::prelude::*;
use std::sync::Arc;
use textjoin::prelude::*;
use textjoin::query::{parse, run_query};
use textjoin::storage::DiskSim;
use textjoin::Error;

/// A tiny vocabulary so documents overlap often.
const WORDS: [&str; 12] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima",
];

fn text_from(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| WORDS[i % WORDS.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn arb_texts(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 1..10), n)
}

fn build_catalog(left: &[Vec<usize>], right: &[Vec<usize>]) -> Catalog {
    let disk = Arc::new(DiskSim::new(4096));
    let mut catalog = Catalog::new(disk);
    let mut l = RelationBuilder::new("L")
        .column("id", ColumnType::Int)
        .column("score", ColumnType::Int)
        .column("body", ColumnType::Text);
    for (i, t) in left.iter().enumerate() {
        l = l
            .row(vec![
                Value::Int(i as i64),
                Value::Int((i % 7) as i64),
                Value::Text(text_from(t)),
            ])
            .unwrap();
    }
    catalog.add(l).unwrap();
    let mut r = RelationBuilder::new("R")
        .column("id", ColumnType::Int)
        .column("body", ColumnType::Text);
    for (i, t) in right.iter().enumerate() {
        r = r
            .row(vec![Value::Int(i as i64), Value::Text(text_from(t))])
            .unwrap();
    }
    catalog.add(r).unwrap();
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// λ bounds the number of result rows per outer row, similarities are
    /// positive and non-increasing per outer row, and every id is in range.
    #[test]
    fn query_results_are_well_formed(
        left in arb_texts(1..12),
        right in arb_texts(1..8),
        lambda in 1usize..5,
    ) {
        let catalog = build_catalog(&left, &right);
        let sql = format!(
            "SELECT R.id, L.id FROM L, R WHERE L.body SIMILAR_TO({lambda}) R.body"
        );
        let out = run_query(
            &catalog,
            &sql,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();

        let mut per_outer: std::collections::HashMap<i64, Vec<f64>> =
            std::collections::HashMap::new();
        for row in &out.rows {
            let (Value::Int(rid), Value::Int(lid)) = (&row[0], &row[1]) else {
                panic!("ids must be ints: {row:?}");
            };
            prop_assert!((*rid as usize) < right.len());
            prop_assert!((*lid as usize) < left.len());
            let sim = match row.last().unwrap() {
                Value::Int(s) => *s as f64,
                Value::Float(s) => *s,
                other => panic!("similarity must be numeric: {other:?}"),
            };
            prop_assert!(sim > 0.0, "zero-similarity pairs must not be reported");
            per_outer.entry(*rid).or_default().push(sim);
        }
        for (rid, sims) in &per_outer {
            prop_assert!(sims.len() <= lambda, "outer row {rid} got {} rows", sims.len());
            prop_assert!(
                sims.windows(2).all(|w| w[0] >= w[1]),
                "matches for {rid} not best-first: {sims:?}"
            );
        }
    }

    /// A selection on the outer relation is equivalent to deleting the
    /// filtered rows before the join.
    #[test]
    fn outer_selection_equals_prefiltering(
        left in arb_texts(1..10),
        right in arb_texts(2..8),
        cutoff in 0i64..8,
    ) {
        let catalog = build_catalog(&left, &right);
        let selected = format!(
            "SELECT R.id, L.id FROM L, R WHERE R.id < {cutoff} \
             AND L.body SIMILAR_TO(2) R.body"
        );
        let out_selected = run_query(
            &catalog,
            &selected,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();

        // Build a second catalog containing only the surviving outer rows,
        // but renumber-safe: compare (outer text, inner id) multisets.
        let kept: Vec<Vec<usize>> =
            right.iter().take(cutoff.max(0) as usize).cloned().collect();
        if kept.is_empty() {
            prop_assert!(out_selected.rows.is_empty());
            return Ok(());
        }
        let catalog2 = build_catalog(&left, &kept);
        let out_pref = run_query(
            &catalog2,
            "SELECT R.id, L.id FROM L, R WHERE L.body SIMILAR_TO(2) R.body",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        let norm = |rows: &[Vec<Value>]| {
            let mut v: Vec<(String, String, String)> = rows
                .iter()
                .map(|r| (r[0].to_string(), r[1].to_string(), r.last().unwrap().to_string()))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(norm(&out_selected.rows), norm(&out_pref.rows));
    }

    /// Parsing is insensitive to extra whitespace and keyword case.
    #[test]
    fn parser_is_whitespace_and_case_insensitive(
        spaces in proptest::collection::vec(1usize..4, 8),
        lambda in 1usize..100,
    ) {
        let pad = |i: usize| " ".repeat(spaces[i % spaces.len()]);
        let sql = format!(
            "select{}a.x,{}b.y{}FROM{}t1 a,{}t2 b{}WhErE{}a.x SIMILAR_TO({lambda}){}b.y",
            pad(0), pad(1), pad(2), pad(3), pad(4), pad(5), pad(6), pad(7)
        );
        let q = parse(&sql).unwrap();
        prop_assert_eq!(q.select.len(), 2);
        let (_, _, l) = q.similar_to().unwrap();
        prop_assert_eq!(l, lambda);
    }
}

/// A λ too large for any budget is refused — `InsufficientMemory` or
/// `InvalidArgument` — whatever algorithm the planner picks: the byte
/// arithmetic of its λ-heaps saturates instead of wrapping (2^61 · 8 wraps
/// to 0), no heap reserves room for λ before the budget admits it, and a
/// charge whose sum would pass `u64::MAX` is refused, not wrapped.
#[test]
fn a_huge_lambda_is_refused_not_wrapped() {
    let catalog = build_catalog(&[vec![0, 1, 2], vec![1, 3]], &[vec![0, 1], vec![2, 4]]);
    for lambda in [1u64 << 61, 1 << 62, u64::MAX] {
        let sql = format!("SELECT R.id, L.id FROM L, R WHERE L.body SIMILAR_TO({lambda}) R.body");
        let out = run_query(
            &catalog,
            &sql,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        );
        match out {
            Err(Error::InsufficientMemory { .. } | Error::InvalidArgument(_)) => {}
            Err(e) => panic!("λ = {lambda}: {e}"),
            Ok(out) => panic!("λ = {lambda}: Ok with {} rows", out.rows.len()),
        }
    }
}
