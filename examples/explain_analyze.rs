//! `EXPLAIN ANALYZE`: run a SIMILAR_TO query's plan for real and compare
//! the section-5 cost predictions with measured page traffic, phase by
//! phase — for one query, then for a batch of two over the same columns.
//!
//! ```text
//! cargo run --release --example explain_analyze
//! ```

use std::sync::Arc;
use textjoin::common::{QueryParams, SystemParams};
use textjoin::core::IoScenario;
use textjoin::query::catalog::{Catalog, ColumnType, RelationBuilder, Value};
use textjoin::query::{explain_analyze, explain_analyze_batch, PlanOptions};
use textjoin::storage::DiskSim;

fn main() -> textjoin::Result<()> {
    // Small pages so the toy catalog still spans enough of the disk for
    // the drift numbers to mean something.
    let disk = Arc::new(DiskSim::new(512));
    let mut catalog = Catalog::new(disk);

    // Synthetic text: every row gets 40 distinct words from a rotating
    // 200-word vocabulary, so the two relations overlap heavily.
    let word = |i: usize| format!("w{:03}", i % 200);
    let mut docs = RelationBuilder::new("Docs")
        .column("Id", ColumnType::Int)
        .column("Body", ColumnType::Text);
    for r in 0..120 {
        let text: Vec<String> = (0..40).map(|j| word(r * 7 + j)).collect();
        docs = docs.row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])?;
    }
    catalog.add(docs)?;
    let mut queries = RelationBuilder::new("Queries")
        .column("Id", ColumnType::Int)
        .column("Body", ColumnType::Text);
    for r in 0..60 {
        let text: Vec<String> = (0..40).map(|j| word(r * 11 + 3 + j)).collect();
        queries = queries.row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])?;
    }
    catalog.add(queries)?;

    let sys = SystemParams {
        buffer_pages: 1200,
        page_size: 512,
        alpha: 5.0,
    };
    let o = PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated);
    let sql = |lambda: usize| {
        format!("Select D.Id, Q.Id From Docs D, Queries Q Where D.Body SIMILAR_TO({lambda}) Q.Body")
    };
    print!("{}", explain_analyze(&catalog, &sql(3), &o)?.text);

    // The same report for two λs over the one column pair: one shared-scan
    // run per algorithm, with the pages each query amortizes.
    let (one, two) = (sql(3), sql(10));
    println!();
    print!(
        "{}",
        explain_analyze_batch(&catalog, &[&one, &two], &o)?.text
    );
    Ok(())
}
