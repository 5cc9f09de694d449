//! Measured page series (`textjoin-sim measured`).
//!
//! Four regimes the paper argues from its formulas, run here through the
//! executors on the simulated disk and tabulated in measured
//! `seq + α·rand` pages: group 3's HVNL→HHNL crossover as a selected outer
//! subset grows, group 5's VVM takeover along the size-constant
//! derivation, HVNL's cache and ordering policies, and HHNL's two scan
//! orders. Rows of one table that must describe the same join are checked
//! to return the same result; a difference is an `Err`, not a row. What
//! these runs cost in *time* is `benchmark/`'s `core.<algorithm>.*`.

use crate::fixture::Pair;
use crate::table::Table;
use std::sync::Arc;
use textjoin_collection::synth::{select_random_docs, Locality};
use textjoin_collection::SynthSpec;
use textjoin_common::{CollectionStats, Error, QueryParams, Result, SystemParams};
use textjoin_core::hvnl::{self, EvictionPolicy, HvnlOptions, OuterOrder};
use textjoin_core::{hhnl, Algorithm, JoinOutcome, JoinSpec, OuterDocs};
use textjoin_storage::DiskSim;

/// All four series, in the order the module lists them.
pub fn all() -> Result<Vec<Table>> {
    Ok(vec![
        selection_crossover()?,
        vvm_takeover()?,
        hvnl_policies()?,
        hhnl_orders()?,
    ])
}

/// Every series runs on 4 KiB pages.
const PAGE: usize = 4096;

fn spec(pair: &Pair, buffer_pages: u64, lambda: usize) -> JoinSpec<'_> {
    let sys = SystemParams {
        buffer_pages,
        page_size: PAGE,
        alpha: 5.0,
    };
    pair.spec(sys, QueryParams::paper_base().with_lambda(lambda))
}

fn same_join(a: &JoinOutcome, b: &JoinOutcome, what: &str) -> Result<()> {
    if a.result == b.result {
        return Ok(());
    }
    Err(Error::Corrupt(format!("{what} changed the join result")))
}

fn cheaper<'n>(a: (&'n str, &JoinOutcome), b: (&'n str, &JoinOutcome)) -> &'n str {
    if b.1.stats.cost < a.1.stats.cost {
        b.0
    } else {
        a.0
    }
}

/// Group 3, executed: `M` documents selected out of a 1 000-document outer
/// collection join a 20 000-document inner one. The inner side must be
/// large enough that scanning it (≈ 1 465 pages) dwarfs a handful of
/// random entry fetches (≈ ⌈J⌉·α = 5 pages each) — the regime of the
/// paper's finding 2: HVNL while the subset is small, HHNL as it grows.
pub fn selection_crossover() -> Result<Table> {
    let p = Pair::generate(
        Arc::new(DiskSim::new(PAGE)),
        &SynthSpec::from_stats(CollectionStats::new(20_000, 60.0, 20_000), 17),
        &SynthSpec::from_stats(CollectionStats::new(1000, 60.0, 20_000), 18),
    )?;
    let mut t = Table::new(
        "Measured group 3: M selected outer documents, N1 = 20000 (costs in page units)",
        &["M", "HHNL", "HVNL", "cheapest"],
    );
    for m in [1, 5, 25, 50] {
        let ids = select_random_docs(1000, m, 99);
        let spec = spec(&p, 200, 5).with_outer_docs(OuterDocs::Selected(&ids));
        let hh = p.run(Algorithm::Hhnl, &spec)?;
        let hv = p.run(Algorithm::Hvnl, &spec)?;
        same_join(&hh, &hv, "HVNL")?;
        t.push_row(vec![
            m.to_string(),
            format!("{:.0}", hh.stats.cost),
            format!("{:.0}", hv.stats.cost),
            cheaper(("HHNL", &hh), ("HVNL", &hv)).into(),
        ]);
    }
    Ok(t)
}

/// Group 5, executed: the factor `F` divides the document count and
/// multiplies the terms per document, so the stored size stays constant
/// while `N1·N2` — and with it VVM's intermediate state — shrinks
/// quadratically: VVM's passes collapse to one and it overtakes HHNL (the
/// paper's finding 3).
pub fn vvm_takeover() -> Result<Table> {
    let base = SynthSpec::from_stats(CollectionStats::new(1024, 25.0, 4000), 23);
    let mut t = Table::new(
        "Measured group 5: size-constant derivation by F (costs in page units)",
        &["F", "N", "HHNL", "VVM", "VVM passes", "cheapest"],
    );
    for factor in [1, 4, 16] {
        let inner = base.derive_scaled(factor);
        let outer = SynthSpec {
            seed: base.seed + 1,
            ..inner.clone()
        };
        let p = Pair::generate(Arc::new(DiskSim::new(PAGE)), &inner, &outer)?;
        let spec = spec(&p, 24, 5);
        let hh = p.run(Algorithm::Hhnl, &spec)?;
        let vv = p.run(Algorithm::Vvm, &spec)?;
        same_join(&hh, &vv, "VVM")?;
        t.push_row(vec![
            factor.to_string(),
            p.c1.store().num_docs().to_string(),
            format!("{:.0}", hh.stats.cost),
            format!("{:.0}", vv.stats.cost),
            vv.stats.passes.to_string(),
            cheaper(("HHNL", &hh), ("VVM", &vv)).into(),
        ]);
    }
    Ok(t)
}

/// HVNL's two design choices against their alternatives: lowest-df-in-C2
/// eviction against plain LRU, storage order against the greedy
/// max-intersection order (the optimal order is NP-hard). Clustered
/// collections and a cache small enough that replacement matters — the
/// regime where entries are reused at all (section 5.4).
pub fn hvnl_policies() -> Result<Table> {
    let clustered = |stats, seed| SynthSpec {
        locality: Locality::Clustered(12),
        ..SynthSpec::from_stats(stats, seed)
    };
    let p = Pair::generate(
        Arc::new(DiskSim::new(PAGE)),
        &clustered(CollectionStats::new(600, 50.0, 5000), 31),
        &clustered(CollectionStats::new(300, 50.0, 5000), 32),
    )?;
    let spec = spec(&p, 40, 5);
    let mut t = Table::new(
        "Measured HVNL policies: clustered collections, B = 40 (costs in page units)",
        &["policy", "cost", "entry fetches", "cache hits"],
    );
    let variants = [
        ("paper (lowest-df, storage order)", HvnlOptions::default()),
        (
            "lru eviction",
            HvnlOptions {
                eviction: EvictionPolicy::Lru,
                order: OuterOrder::Storage,
            },
        ),
        (
            "greedy order",
            HvnlOptions {
                eviction: EvictionPolicy::LowestOuterDf,
                order: OuterOrder::GreedyIntersection,
            },
        ),
    ];
    let mut paper = None;
    for (name, options) in variants {
        let got = p.fresh(|| hvnl::execute_with(&spec, &p.inv1, options))?;
        t.push_row(vec![
            name.into(),
            format!("{:.0}", got.stats.cost),
            got.stats.entry_fetches.to_string(),
            got.stats.cache_hits.to_string(),
        ]);
        match &paper {
            Some(paper) => same_join(paper, &got, name)?,
            None => paper = Some(got),
        }
    }
    Ok(t)
}

/// HHNL forward against backward: a small inner collection against a
/// larger outer one under a budget tight enough to force several forward
/// passes — where the backward order pays off (fewer scans of the big
/// side) at the price of keeping all `N2·λ` heaps resident.
pub fn hhnl_orders() -> Result<Table> {
    let p = Pair::generate(
        Arc::new(DiskSim::new(PAGE)),
        &SynthSpec::from_stats(CollectionStats::new(200, 40.0, 3000), 41),
        &SynthSpec::from_stats(CollectionStats::new(1000, 40.0, 3000), 42),
    )?;
    let spec = spec(&p, 20, 4);
    let forward = p.run(Algorithm::Hhnl, &spec)?;
    let backward = p.fresh(|| hhnl::execute_backward(&spec))?;
    same_join(&forward, &backward, "the backward order")?;
    let mut t = Table::new(
        "Measured HHNL orders: N1 = 200, N2 = 1000, B = 20 (costs in page units)",
        &["order", "cost", "passes"],
    );
    for (name, got) in [("forward", &forward), ("backward", &backward)] {
        t.push_row(vec![
            name.into(),
            format!("{:.0}", got.stats.cost),
            got.stats.passes.to_string(),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(t: &Table, name: &str) -> Vec<String> {
        let i = t.headers.iter().position(|h| h == name).unwrap();
        t.rows.iter().map(|r| r[i].clone()).collect()
    }

    fn costs(t: &Table, name: &str) -> Vec<f64> {
        column(t, name).iter().map(|c| c.parse().unwrap()).collect()
    }

    #[test]
    fn hvnl_is_cheapest_for_one_selected_document_and_hhnl_from_five() {
        let t = selection_crossover().unwrap();
        assert_eq!(column(&t, "M"), ["1", "5", "25", "50"]);
        assert_eq!(column(&t, "cheapest"), ["HVNL", "HHNL", "HHNL", "HHNL"]);
        // HVNL pays per selected document; HHNL's one inner scan does not.
        let (hh, hv) = (costs(&t, "HHNL"), costs(&t, "HVNL"));
        assert!(hv.windows(2).all(|w| w[0] < w[1]), "{hv:?}");
        assert!(hh[3] < 1.2 * hh[0], "{hh:?}");
    }

    #[test]
    fn vvm_overtakes_hhnl_along_the_size_constant_derivation() {
        let t = vvm_takeover().unwrap();
        assert_eq!(column(&t, "N"), ["1024", "256", "64"]);
        let cheapest = column(&t, "cheapest");
        assert_eq!(cheapest[0], "HHNL", "{t}");
        assert_eq!(cheapest[2], "VVM", "{t}");
        let passes = costs(&t, "VVM passes");
        assert!(passes[0] > 1.0 && passes[2] == 1.0, "{passes:?}");
        assert!(passes.windows(2).all(|w| w[0] >= w[1]), "{passes:?}");
    }

    #[test]
    fn hvnl_policies_and_hhnl_orders_return_the_paper_s_join() {
        // `same_join` turned a differing result into an `Err`, so `Ok`
        // already says LRU and greedy returned the paper policy's result
        // and the backward scan the forward one's.
        let t = hvnl_policies().unwrap();
        assert_eq!(t.rows.len(), 3);
        assert!(costs(&t, "cost").iter().all(|&c| c > 0.0), "{t}");
        // The join needs the same entry lookups under every policy; a
        // policy only decides how many of them the cache answers.
        let (fetches, hits) = (costs(&t, "entry fetches"), costs(&t, "cache hits"));
        for i in 1..3 {
            assert_eq!(fetches[0] + hits[0], fetches[i] + hits[i], "{t}");
        }

        let t = hhnl_orders().unwrap();
        assert_eq!(column(&t, "order"), ["forward", "backward"]);
        let passes = costs(&t, "passes");
        assert!(passes[0] > 1.0, "the budget must force several passes: {t}");
    }

    #[test]
    fn a_differing_result_is_an_error_not_a_row() {
        let p = Pair::generate(
            Arc::new(DiskSim::new(PAGE)),
            &SynthSpec::from_stats(CollectionStats::new(30, 8.0, 100), 1),
            &SynthSpec::from_stats(CollectionStats::new(20, 8.0, 100), 2),
        )
        .unwrap();
        let one = p.run(Algorithm::Hhnl, &spec(&p, 50, 1)).unwrap();
        let three = p.run(Algorithm::Hhnl, &spec(&p, 50, 3)).unwrap();
        assert!(same_join(&one, &one, "x").is_ok());
        let err = same_join(&one, &three, "λ = 3").unwrap_err();
        assert!(err.to_string().contains("λ = 3 changed the join result"));
    }
}
