//! Communication costs in the multidatabase setting.
//!
//! The paper's future work item (2) asks for "cost formulas that include
//! CPU cost and communication cost". In its multidatabase architecture the
//! two collections live in *different local systems*; to join them, data
//! must be shipped to one site. This module extends the section 5 models
//! with a transfer term:
//!
//! ```text
//! total = local I/O cost  +  β · pages shipped
//! ```
//!
//! where `β` prices one shipped page relative to one sequential page read.
//! What must be shipped depends on the algorithm:
//!
//! * HHNL at the outer site: the inner collection, `D1` pages (once — the
//!   receiving site can spool it and rescan locally);
//! * HVNL at the outer site: the needed inverted entries plus the B+tree,
//!   `q·f(N2)·⌈J1⌉ + Bt1` pages;
//! * VVM at either site: the other side's inverted file, `I` pages;
//! * executing at the inner site instead ships the outer documents,
//!   `D2` pages (or `N2·⌈S2⌉` for a selected subset).
//!
//! Section 3's *standard term-number mapping* argument is quantified by
//! [`TermEncoding`]: without a shared mapping, documents must be shipped
//! with their actual terms, and "the size of the document collection will
//! become much larger (5 or more times larger)".

use crate::hvnl;
use crate::inputs::JoinInputs;
use crate::integrated::{estimate, Algorithm, IoScenario};
use textjoin_common::Result;

/// How term identity crosses the site boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TermEncoding {
    /// All sites share the standard term-number mapping (section 3's
    /// recommendation): cells ship as-is.
    #[default]
    StandardNumbers,
    /// No shared mapping: actual term strings must be shipped. The paper
    /// estimates the data becomes "5 or more times larger".
    ActualTerms,
}

impl TermEncoding {
    /// Multiplier on shipped text-structure volume.
    pub fn blowup(&self) -> f64 {
        match self {
            TermEncoding::StandardNumbers => 1.0,
            TermEncoding::ActualTerms => 5.0,
        }
    }
}

/// Network parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommParams {
    /// Cost of shipping one page, relative to one sequential page read.
    pub beta: f64,
    /// Term-identity encoding across sites.
    pub encoding: TermEncoding,
}

impl CommParams {
    /// A middle-of-the-road default: shipping a page costs as much as two
    /// sequential reads, with the standard mapping in place.
    pub fn default_network() -> Self {
        Self {
            beta: 2.0,
            encoding: TermEncoding::StandardNumbers,
        }
    }
}

/// Which site executes the join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Execute where `C2` lives; ship `C1`'s structures over.
    OuterSite,
    /// Execute where `C1` lives; ship the participating `C2` documents.
    InnerSite,
}

/// Pages shipped for running `algorithm` at `site`.
pub fn pages_shipped(
    inputs: &JoinInputs,
    algorithm: Algorithm,
    site: Site,
    enc: TermEncoding,
) -> f64 {
    let blowup = enc.blowup();
    match site {
        Site::OuterSite => match algorithm {
            // The whole inner collection crosses the wire once.
            Algorithm::Hhnl => inputs.inner.collection_pages(inputs.sys.page_size) * blowup,
            // Only the needed entries plus the dictionary.
            Algorithm::Hvnl => {
                (hvnl::entries_needed(inputs)
                    * inputs.inner.avg_entry_pages(inputs.sys.page_size).ceil()
                    + inputs.inner.btree_pages(inputs.sys.page_size))
                    * blowup
            }
            // The inner inverted file.
            Algorithm::Vvm => inputs.inner.inverted_file_pages(inputs.sys.page_size) * blowup,
            // The compact signature index plus its term-ordering sidecar;
            // with no index built, the whole inner collection must cross
            // the wire (the receiving site would have to build one).
            Algorithm::Fnl => inputs.fnl.map_or_else(
                || inputs.inner.collection_pages(inputs.sys.page_size) * blowup,
                |f| (f.index_pages + f.meta_pages) as f64 * blowup,
            ),
        },
        // The participating outer documents cross the wire once, whatever
        // the algorithm (they are what drives the join).
        Site::InnerSite => {
            let pages = if inputs.outer_original.is_some() {
                inputs.outer.num_docs as f64
                    * inputs.outer.avg_doc_pages(inputs.sys.page_size).ceil()
            } else {
                inputs.outer.collection_pages(inputs.sys.page_size)
            };
            pages * blowup
        }
    }
}

/// Total distributed cost: local execution plus `β`-priced shipping.
pub fn total_cost(
    inputs: &JoinInputs,
    comm: &CommParams,
    algorithm: Algorithm,
    site: Site,
) -> Result<f64> {
    let local = estimate(algorithm, IoScenario::Dedicated, &[*inputs])?;
    Ok(local + comm.beta * pages_shipped(inputs, algorithm, site, comm.encoding))
}

/// The distributed integrated algorithm: the cheapest
/// `(algorithm, site)` combination.
pub fn choose_distributed(
    inputs: &JoinInputs,
    comm: &CommParams,
) -> Option<(Algorithm, Site, f64)> {
    let mut best: Option<(Algorithm, Site, f64)> = None;
    for algorithm in Algorithm::ALL {
        for site in [Site::OuterSite, Site::InnerSite] {
            let Ok(cost) = total_cost(inputs, comm, algorithm, site) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, _, b)| cost < *b) {
                best = Some((algorithm, site, cost));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};

    fn inputs(inner: CollectionStats, outer: CollectionStats) -> JoinInputs {
        JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        )
    }

    #[test]
    fn standard_numbers_save_five_fold_on_shipping() {
        // The section 3 argument, quantified.
        let i = inputs(CollectionStats::wsj(), CollectionStats::doe());
        let std_pages = pages_shipped(
            &i,
            Algorithm::Hhnl,
            Site::OuterSite,
            TermEncoding::StandardNumbers,
        );
        let str_pages = pages_shipped(
            &i,
            Algorithm::Hhnl,
            Site::OuterSite,
            TermEncoding::ActualTerms,
        );
        assert!((str_pages / std_pages - 5.0).abs() < 1e-9);
    }

    #[test]
    fn hvnl_ships_less_than_vvm_for_small_outer_sides() {
        // A 20-document outer side needs a sliver of the inverted file.
        let base = CollectionStats::wsj();
        let i = inputs(base, base.select_docs(20)).with_selected_outer(base);
        let enc = TermEncoding::StandardNumbers;
        let hv = pages_shipped(&i, Algorithm::Hvnl, Site::OuterSite, enc);
        let vv = pages_shipped(&i, Algorithm::Vvm, Site::OuterSite, enc);
        let hh = pages_shipped(&i, Algorithm::Hhnl, Site::OuterSite, enc);
        assert!(hv < vv / 4.0, "hv = {hv}, vv = {vv}");
        assert!(hv < hh / 4.0, "hv = {hv}, hh = {hh}");
    }

    #[test]
    fn small_outer_side_ships_to_the_inner_site() {
        // 20 selected documents are far cheaper to ship than anything the
        // inner site could send back.
        let base = CollectionStats::wsj();
        let i = inputs(base, base.select_docs(20)).with_selected_outer(base);
        let comm = CommParams::default_network();
        let (_, site, _) = choose_distributed(&i, &comm).expect("feasible");
        assert_eq!(site, Site::InnerSite);
    }

    #[test]
    fn zero_beta_reduces_to_the_local_choice() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj());
        let comm = CommParams {
            beta: 0.0,
            encoding: TermEncoding::StandardNumbers,
        };
        let (alg, _, cost) = choose_distributed(&i, &comm).expect("feasible");
        let local = crate::CostEstimates::compute(&i);
        assert_eq!(alg, local.best(crate::IoScenario::Dedicated).0);
        assert!((cost - local.best(crate::IoScenario::Dedicated).1).abs() < 1e-6);
    }

    #[test]
    fn expensive_network_flips_the_site_choice() {
        // Symmetric self-join: with a cheap network the faster algorithm
        // wins; with an extremely expensive network, whichever side ships
        // less gets the join. DOE documents (D) and inverted file (I) are
        // about the same size, so compare strategies directly.
        let base = CollectionStats::fr();
        let small_outer = base.select_docs(5000);
        let i = inputs(base, small_outer).with_selected_outer(base);
        let cheap = CommParams {
            beta: 0.5,
            encoding: TermEncoding::StandardNumbers,
        };
        let pricey = CommParams {
            beta: 500.0,
            encoding: TermEncoding::StandardNumbers,
        };
        let (_, _, c1) = choose_distributed(&i, &cheap).unwrap();
        let (_, site2, c2) = choose_distributed(&i, &pricey).unwrap();
        assert!(c2 > c1);
        // 5000 selected FR docs (≈2 pages each randomly fetched, 6350
        // pages sequential-equivalent shipped) still beat shipping FR's
        // 32.5k-page collection or inverted file.
        assert_eq!(site2, Site::InnerSite);
    }

    #[test]
    fn total_cost_adds_shipping_linearly_in_beta() {
        let i = inputs(CollectionStats::doe(), CollectionStats::wsj());
        let enc = TermEncoding::StandardNumbers;
        let comm1 = CommParams {
            beta: 1.0,
            encoding: enc,
        };
        let comm3 = CommParams {
            beta: 3.0,
            encoding: enc,
        };
        let shipped = pages_shipped(&i, Algorithm::Hhnl, Site::OuterSite, enc);
        let t1 = total_cost(&i, &comm1, Algorithm::Hhnl, Site::OuterSite).unwrap();
        let t3 = total_cost(&i, &comm3, Algorithm::Hhnl, Site::OuterSite).unwrap();
        assert!((t3 - t1 - 2.0 * shipped).abs() < 1e-6);
    }
}
