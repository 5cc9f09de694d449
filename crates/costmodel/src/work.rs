//! What a join costs in wall time besides its pages: a structural work
//! term per loop, priced in nanoseconds.
//!
//! The paper prices I/O only and lists CPU cost as future work (section 7,
//! item 2). Every loop multiplies the same cell pairs — `Σ_t df1(t)·df2(t)`,
//! [`JoinInputs::match_count`] — and differs in what it must scan to find
//! them:
//!
//! | loop | per match | scanned per pass |
//! |------|-----------|------------------|
//! | HHNL | [`MATCH_NS`] | inner d-cells, each decoded and addressed in the round index — one load, one mask, one popcount ([`PROBE_CELL_NS`]) |
//! | FNL  | [`MATCH_NS`] | inner signature cells, gap-decoded, addressed the same way ([`SIGNATURE_CELL_NS`]) |
//! | VVM  | [`ROW_MATCH_NS`] | i-cells of both inverted files at stored size ([`ICELL_NS`]) |
//! | HVNL | [`ROW_MATCH_NS`] | one dictionary-and-cache lookup per outer cell ([`LOOKUP_NS`]), i-cells of the entries read from disk ([`ICELL_NS`]); one pass |
//!
//! The prices are constants of this build. The document-at-a-time three
//! were refitted on `BENCH_24.json` / `BENCH_24.trace.json` (seed 1) when
//! the round index stopped searching for a key and started addressing it
//! (they had been 11.6 / 30 / 36); the term-at-a-time three stand as
//! fitted on `BENCH_21*.json`. Both fits were checked on seed 2; DESIGN.md
//! §3 lists each price with the numbers it came from. [`Prices`] joins
//! them to the device's two page prices, and [`crate::rank`] orders the
//! algorithms by `page_ns · pages + cpu_ns`.

use crate::inputs::JoinInputs;
use crate::integrated::Algorithm;
use crate::{fnl, hhnl, hvnl, vvm};

/// One cell pair multiplied and added by a document-at-a-time loop (HHNL,
/// FNL): a posting of the round index met by a streamed inner cell.
pub const MATCH_NS: f64 = 10.5;

/// One cell pair in a term-at-a-time loop (VVM, HVNL): `Rows::apply` walks
/// an entry twice — count the new pairs, charge them, then add — into a
/// row `N1` wide.
pub const ROW_MATCH_NS: f64 = 15.6;

/// One streamed inner d-cell decoded and addressed in the round index.
pub const PROBE_CELL_NS: f64 = 10.0;

/// One streamed signature cell: gap-decoded, then addressed by rank.
pub const SIGNATURE_CELL_NS: f64 = 16.0;

/// One inverted-file cell decoded, in a merge scan or a fetched entry.
pub const ICELL_NS: f64 = 5.0;

/// One outer cell's term resolved by HVNL: dictionary search plus entry
/// cache probe. 400 is the fit from when the cache was a hash map keyed by
/// term, probed five times per cell; keyed by dictionary ordinal, a cell
/// costs one search and a few array indexings (EXPERIMENTS.md measures
/// it). The price is kept on purpose: refitting one price alone reorders
/// the ranking, so it is refitted together with the storage crate's
/// `READ_NS_PER_BYTE`.
pub const LOOKUP_NS: f64 = 400.0;

/// What a page and a unit of each loop's work cost, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prices {
    /// One sequentially read page (`page_ns`).
    pub seq_page_ns: f64,
    /// One randomly read page; `rand/seq` is the `α̂` the §5 formulas are
    /// evaluated at.
    pub rand_page_ns: f64,
    /// See [`MATCH_NS`].
    pub match_ns: f64,
    /// See [`ROW_MATCH_NS`].
    pub row_match_ns: f64,
    /// See [`PROBE_CELL_NS`].
    pub probe_cell_ns: f64,
    /// See [`SIGNATURE_CELL_NS`].
    pub signature_cell_ns: f64,
    /// See [`ICELL_NS`].
    pub icell_ns: f64,
    /// See [`LOOKUP_NS`].
    pub lookup_ns: f64,
}

impl Prices {
    /// The built-in CPU prices on a device that serves a sequential page in
    /// `seq_page_ns` and a random one in `rand_page_ns`.
    pub fn on_device(seq_page_ns: f64, rand_page_ns: f64) -> Self {
        Self {
            seq_page_ns,
            rand_page_ns,
            match_ns: MATCH_NS,
            row_match_ns: ROW_MATCH_NS,
            probe_cell_ns: PROBE_CELL_NS,
            signature_cell_ns: SIGNATURE_CELL_NS,
            icell_ns: ICELL_NS,
            lookup_ns: LOOKUP_NS,
        }
    }

    /// The paper's currency: a sequential page costs 1, a random one `α`,
    /// CPU nothing — predicted "time" is then the §5 page estimate itself
    /// and the ranking is the pages ranking.
    pub fn pages_only(alpha: f64) -> Self {
        Self {
            seq_page_ns: 1.0,
            rand_page_ns: alpha,
            match_ns: 0.0,
            row_match_ns: 0.0,
            probe_cell_ns: 0.0,
            signature_cell_ns: 0.0,
            icell_ns: 0.0,
            lookup_ns: 0.0,
        }
    }

    /// `α̂` — the device's own random/sequential ratio.
    pub fn alpha(&self) -> f64 {
        self.rand_page_ns / self.seq_page_ns
    }

    /// Predicted CPU nanoseconds of `algorithm` on one query. An algorithm
    /// that cannot run is priced at a single pass; its page estimate is
    /// infinite, which is what keeps it out of the ranking.
    pub fn cpu_ns(&self, algorithm: Algorithm, i: &JoinInputs) -> f64 {
        let matches = i.match_count();
        let inner_cells = i.n1() * i.inner.avg_terms_per_doc;
        // What a scan really reads next to the base structure: the flushed
        // delta side file, in the proportion of its pages.
        let with_delta = |cells: f64, base: f64, total: f64| {
            if base > 0.0 {
                cells * total / base
            } else {
                cells
            }
        };
        match algorithm {
            // One forward loop over two inner sources.
            Algorithm::Hhnl | Algorithm::Fnl => {
                let (passes, cell_ns) = match algorithm {
                    Algorithm::Hhnl => (hhnl::num_passes(i), self.probe_cell_ns),
                    _ => (fnl::num_passes(i), self.signature_cell_ns),
                };
                let scanned = with_delta(inner_cells, i.d1(), i.d1_frag());
                self.match_ns * matches + cell_ns * passes.unwrap_or(1.0) * scanned
            }
            Algorithm::Vvm => {
                let passes = vvm::num_passes(i).unwrap_or(1.0);
                let stored = i.outer_original.as_ref().unwrap_or(&i.outer);
                let outer_cells = stored.num_docs as f64 * stored.avg_terms_per_doc;
                let scanned = with_delta(inner_cells, i.i1(), i.i1_frag()) + outer_cells;
                self.row_match_ns * matches + self.icell_ns * passes * scanned
            }
            Algorithm::Hvnl => {
                let lookups = i.n2() * i.outer.avg_terms_per_doc;
                let read = match hvnl::entry_fetches(i) {
                    None => with_delta(inner_cells, i.i1(), i.i1_frag()),
                    // A fetched entry is as long as the average entry a
                    // lookup finds (`matches / (q · lookups)`).
                    Some(fetches) if lookups * i.q > 0.0 => {
                        (fetches / (lookups * i.q)).min(1.0) * matches
                    }
                    Some(_) => 0.0,
                };
                self.row_match_ns * matches + self.lookup_ns * lookups + self.icell_ns * read
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::{CollectionStats, FnlStats, QueryParams, SystemParams};

    /// A `selective`-shaped pair: a big inner side, 50 selected outer rows.
    fn selective() -> JoinInputs {
        let outer = CollectionStats::new(1_100, 60.0, 20_000);
        JoinInputs::with_paper_q(
            CollectionStats::new(10_000, 60.0, 20_000),
            outer.select_docs(50),
            SystemParams::paper_base().with_buffer_pages(512),
            QueryParams::paper_base(),
        )
        .with_selected_outer(outer)
        .with_fnl(FnlStats {
            index_pages: 400,
            meta_pages: 20,
            meta_bytes: 80_000,
        })
        .with_matches(440_000.0)
    }

    #[test]
    fn zero_prices_cost_nothing_and_built_in_prices_follow_the_table() {
        let i = selective();
        let free = Prices::pages_only(5.0);
        let built_in = Prices::on_device(1843.0, 1843.0);
        assert_eq!(built_in.alpha(), 1.0);
        assert_eq!(free.alpha(), 5.0);
        for a in Algorithm::ALL {
            assert_eq!(free.cpu_ns(a, &i), 0.0);
        }
        // One pass over 600 000 inner cells, 440 000 matches.
        let hhnl = built_in.cpu_ns(Algorithm::Hhnl, &i);
        assert!((hhnl - (MATCH_NS * 440e3 + PROBE_CELL_NS * 600e3)).abs() < 1.0);
        let fnl = built_in.cpu_ns(Algorithm::Fnl, &i);
        assert!((fnl - (MATCH_NS * 440e3 + SIGNATURE_CELL_NS * 600e3)).abs() < 1.0);
        // Both inverted files at stored size: 600 000 + 66 000 cells.
        let vvm = built_in.cpu_ns(Algorithm::Vvm, &i);
        assert!((vvm - (ROW_MATCH_NS * 440e3 + ICELL_NS * 666e3)).abs() < 1.0);
        // 3 000 lookups; the fetched cells never exceed the matches.
        let hvnl = built_in.cpu_ns(Algorithm::Hvnl, &i);
        let floor = ROW_MATCH_NS * 440e3 + LOOKUP_NS * 3e3;
        assert!(hvnl > floor && hvnl <= floor + ICELL_NS * 440e3, "{hvnl}");
        // The shape the benchmark measures: the vertical pair is cheaper.
        assert!(vvm < hhnl && hvnl < hhnl && hhnl < fnl);
    }

    #[test]
    fn passes_multiply_what_is_scanned_not_the_matches() {
        let i = selective();
        let p = Prices::on_device(1843.0, 1843.0);
        let tight = JoinInputs {
            sys: i.sys.with_buffer_pages(3),
            ..i
        };
        let passes = hhnl::num_passes(&tight).unwrap();
        assert!(passes > 1.0);
        let extra = p.cpu_ns(Algorithm::Hhnl, &tight) - p.cpu_ns(Algorithm::Hhnl, &i);
        assert!((extra - PROBE_CELL_NS * (passes - 1.0) * 600e3).abs() < 1.0);
    }

    #[test]
    fn an_unmeasured_match_count_is_estimated_from_the_statistics() {
        let i = JoinInputs {
            matches: None,
            ..selective()
        };
        let expect = i.q * 50.0 * 60.0 * (10_000.0 * 60.0 / 20_000.0);
        assert!((i.match_count() - expect).abs() < 1e-6);
        assert_eq!(i.delta(), i.query.delta);
        let measured = selective();
        assert_eq!(measured.match_count(), 440_000.0);
        assert!((measured.delta() - 0.88).abs() < 1e-12);
        assert_eq!(measured.with_matches(1e9).delta(), 1.0);
    }
}
