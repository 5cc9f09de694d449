//! The four workloads: what each is for, how its inputs are made from the
//! seed, and how the program turns those inputs into something a join can
//! be asked of (the set-up that `setup_s` times).
//!
//! The program only ever sees generated inputs — documents, rendered
//! texts, a mutation script. The seed never reaches it.

use crate::span::SpanLog;
use std::sync::Arc;
use textjoin_collection::{Collection, Document, SynthSpec};
use textjoin_common::{CollectionStats, DocId, QueryParams, Result, SystemParams};
use textjoin_core::{JoinSpec, OuterDocs};
use textjoin_costmodel::IoScenario;
use textjoin_invfile::{DeltaOverlay, FnlIndex, InvertedFile};
use textjoin_live::LiveCollection;
use textjoin_query::{Catalog, ColumnType, RelationBuilder, Value};
use textjoin_storage::DiskSim;

/// 4 KiB pages, α = 5, K = 60 terms per document, Zipf exponent 1.0 (the
/// `SynthSpec` default) on every workload.
pub const PAGE_SIZE: usize = 4096;
pub const ALPHA: f64 = 5.0;
pub const TERMS_PER_DOC: f64 = 60.0;
/// Distinct `Kind` values on `selective`; the query keeps one of them.
const KINDS: u64 = 22;
/// Outer documents the naive oracle re-scores.
pub const ORACLE_SAMPLE: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fits,
    Spills,
    Selective,
    Churn,
}

/// A workload's stated sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Inner documents (`N1`); on `churn`, every document that ever arrives.
    pub inner_docs: u64,
    /// Outer documents (`N2`); on `selective`, rows of `Queries` before the
    /// selection.
    pub outer_docs: u64,
    /// Vocabulary `T` both sides draw from.
    pub vocab: u64,
    /// Buffer `B`, in pages.
    pub buffer_pages: u64,
    pub lambda: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fits,
        Workload::Spills,
        Workload::Selective,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fits => "fits",
            Workload::Spills => "spills",
            Workload::Selective => "selective",
            Workload::Churn => "churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence: why the workload exists. Also the `why` of
    /// `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fits => {
                "Everything resident in B=4096 pages, every algorithm single-pass: \
                 CPU only (scoring, decode, top-k, merge), storage almost idle."
            }
            Workload::Spills => {
                "The same collections as fits with B=64 pages: working set far above \
                 the cache, so entry fetches, merge passes and rescans price memory pressure."
            }
            Workload::Selective => {
                "SQL front door with a LIKE selection keeping few outer rows of a big \
                 catalog: parse, plan, pushdown, B+tree load and random document reads carry weight."
            }
            Workload::Churn => {
                "Inner side arrives through LiveCollection (insert, delete, flush, merge; last \
                 round unmerged): the write path is the set-up, every read goes through base+delta."
            }
        }
    }

    /// Full sizes, or every `N` and `T` divided by ten for `--quick`.
    pub fn sizes(self, quick: bool) -> Sizes {
        let full = match self {
            Workload::Fits => Sizes {
                inner_docs: 2_000,
                outer_docs: 400,
                vocab: 12_000,
                buffer_pages: 4_096,
                lambda: 10,
            },
            Workload::Spills => Sizes {
                buffer_pages: 64,
                ..Workload::Fits.sizes(false)
            },
            Workload::Selective => Sizes {
                inner_docs: 10_000,
                outer_docs: 1_100,
                vocab: 20_000,
                buffer_pages: 512,
                lambda: 20,
            },
            Workload::Churn => Sizes {
                inner_docs: 10_000,
                outer_docs: 60,
                vocab: 20_000,
                buffer_pages: 512,
                lambda: 10,
            },
        };
        if !quick {
            return full;
        }
        Sizes {
            inner_docs: full.inner_docs / 10,
            outer_docs: full.outer_docs / 10,
            vocab: full.vocab / 10,
            // `spills` must still spill at a tenth of the data.
            buffer_pages: if self == Workload::Spills {
                8
            } else {
                full.buffer_pages
            },
            lambda: full.lambda,
        }
    }
}

/// SplitMix64 — the harness's only randomness, so inputs depend on the
/// seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a page count could show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent sub-seed per purpose.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// One step of the `churn` ingest script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveOp {
    /// Insert `inner[range]` in order; ids continue from the last insert.
    Insert(std::ops::Range<usize>),
    Delete(Vec<DocId>),
    Flush,
    Merge,
}

/// How the program is fed.
pub enum Feed {
    /// Bulk-built collections (`fits`, `spills`).
    Bulk,
    /// A catalog of two relations filled from rendered text, and the query.
    Sql {
        inner_texts: Vec<String>,
        outer_texts: Vec<String>,
        kinds: Vec<String>,
        sql: String,
        /// Distinct pseudo-words rendered; the catalog's registry must end
        /// up with exactly this many terms.
        vocabulary: usize,
    },
    /// `create` with the first `initial` documents, then the script.
    Live { initial: usize, script: Vec<LiveOp> },
}

/// Everything made from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    /// Inner documents, index = document number.
    pub inner: Vec<Document>,
    pub outer: Vec<Document>,
    pub feed: Feed,
    /// Inner documents as the oracle sees them: `inner`, with documents the
    /// script deleted emptied (an empty document matches nothing).
    pub oracle_inner: Vec<Document>,
}

fn synth(docs: u64, vocab: u64, seed: u64) -> Vec<Document> {
    SynthSpec::from_stats(CollectionStats::new(docs, TERMS_PER_DOC, vocab), seed).generate_docs()
}

/// Pseudo-text whose tokens survive `tokenize`/`stem` one-to-one: a letter
/// and the term number, repeated once per occurrence.
fn render(doc: &Document) -> String {
    let mut text = String::new();
    for cell in doc.cells() {
        for _ in 0..cell.weight {
            if !text.is_empty() {
                text.push(' ');
            }
            text.push('t');
            text.push_str(&cell.term.raw().to_string());
        }
    }
    text
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
        let sizes = workload.sizes(quick);
        // `spills` must see the very collections `fits` sees.
        let data_seed = match workload {
            Workload::Spills => derive(seed, Workload::Fits as u64 + 1),
            w => derive(seed, w as u64 + 1),
        };
        let inner = synth(sizes.inner_docs, sizes.vocab, derive(data_seed, 1));
        let outer = synth(sizes.outer_docs, sizes.vocab, derive(data_seed, 2));
        let mut rng = Rng::new(derive(data_seed, 3));
        let mut oracle_inner = inner.clone();
        let feed = match workload {
            Workload::Fits | Workload::Spills => Feed::Bulk,
            Workload::Selective => {
                // Kinds rotate through the rows from a seeded offset, so
                // the selection keeps exactly 1/22 of them on every seed.
                let offset = rng.below(KINDS);
                let kinds: Vec<String> = (0..outer.len() as u64)
                    .map(|i| format!("k{:02}-{}", (i + offset) % KINDS, rng.below(5)))
                    .collect();
                let mut terms: Vec<u32> = inner
                    .iter()
                    .chain(&outer)
                    .flat_map(|d| d.cells().iter().map(|c| c.term.raw()))
                    .collect();
                terms.sort_unstable();
                terms.dedup();
                Feed::Sql {
                    inner_texts: inner.iter().map(render).collect(),
                    outer_texts: outer.iter().map(render).collect(),
                    kinds,
                    sql: format!(
                        "SELECT D.Id, Q.Id FROM Docs D, Queries Q \
                         WHERE Q.Kind LIKE 'k07%' AND D.Body SIMILAR_TO({}) Q.Body",
                        sizes.lambda
                    ),
                    vocabulary: terms.len(),
                }
            }
            Workload::Churn => {
                // 40 % at create, then three rounds of +20 % / −5 %; merge
                // after rounds 1 and 2, round 3 stays in the delta.
                let n = inner.len();
                let initial = n * 2 / 5;
                let mut live: Vec<u32> = (0..initial as u32).collect();
                let mut next = initial;
                let mut script = Vec::new();
                for round in 0..3 {
                    let end = (next + n / 5).min(n);
                    script.push(LiveOp::Insert(next..end));
                    live.extend(next as u32..end as u32);
                    next = end;
                    let mut gone = Vec::new();
                    for _ in 0..n / 20 {
                        let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                        oracle_inner[id as usize] = Document::from_sorted_cells(Vec::new());
                        gone.push(DocId::new(id));
                    }
                    script.push(LiveOp::Delete(gone));
                    script.push(LiveOp::Flush);
                    if round < 2 {
                        script.push(LiveOp::Merge);
                    }
                }
                oracle_inner.truncate(next);
                Feed::Live { initial, script }
            }
        };
        Inputs {
            workload,
            sizes,
            seed,
            inner,
            outer,
            feed,
            oracle_inner,
        }
    }

    pub fn sys(&self) -> SystemParams {
        SystemParams {
            buffer_pages: self.sizes.buffer_pages,
            page_size: PAGE_SIZE,
            alpha: ALPHA,
        }
    }

    pub fn query(&self) -> QueryParams {
        QueryParams::paper_base().with_lambda(self.sizes.lambda)
    }
}

// One value per process: boxing the large variants would only add a hop.
#[allow(clippy::large_enum_variant)]
enum Built {
    Bulk {
        inner: Collection,
        outer: Collection,
        inner_inv: InvertedFile,
        outer_inv: InvertedFile,
        fnl: FnlIndex,
    },
    Sql {
        catalog: Catalog,
        sql: String,
        outer_rows: Vec<DocId>,
    },
    Live {
        lc: LiveCollection,
        fnl: FnlIndex,
        outer: Collection,
        outer_inv: InvertedFile,
    },
}

/// The program's structures for one workload, ready to answer joins.
pub struct Fixture {
    pub disk: Arc<DiskSim>,
    pub sys: SystemParams,
    pub query: QueryParams,
    built: Built,
}

/// Borrowed handles to whatever backs the two sides, so forced runs and
/// probes are written once for all workloads.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pub inner: &'a Collection,
    pub outer: &'a Collection,
    pub inner_inv: &'a InvertedFile,
    pub outer_inv: &'a InvertedFile,
    pub fnl: &'a FnlIndex,
    /// Outer documents a selection kept (`selective`).
    pub outer_sel: Option<&'a [DocId]>,
    /// Base+delta overlay of the inner side (`churn`).
    pub inner_delta: Option<&'a DeltaOverlay>,
    pub sys: SystemParams,
    pub query: QueryParams,
}

impl<'a> View<'a> {
    pub fn spec(&self) -> JoinSpec<'a> {
        let mut spec = JoinSpec::new(self.inner, self.outer)
            .with_sys(self.sys)
            .with_query(self.query);
        if let Some(ids) = self.outer_sel {
            spec = spec.with_outer_docs(OuterDocs::Selected(ids));
        }
        if let Some(delta) = self.inner_delta {
            spec = spec.with_inner_delta(delta);
        }
        spec
    }

    /// The participating outer documents, ascending.
    pub fn outer_ids(&self) -> Vec<DocId> {
        match self.outer_sel {
            Some(ids) => ids.to_vec(),
            None => self.outer.store().doc_ids(),
        }
    }
}

impl Fixture {
    /// Everything the program does before the first join can be answered,
    /// on a fresh `DiskSim`. `setup_s` times exactly this call; with an
    /// enabled `log` each call into a layer becomes a span.
    pub fn build(inputs: &Inputs, log: &SpanLog) -> Result<Fixture> {
        let disk = Arc::new(DiskSim::new(PAGE_SIZE));
        let (sys, query) = (inputs.sys(), inputs.query());
        let built = match &inputs.feed {
            Feed::Bulk => {
                let side = |name: &str, docs: &[Document]| -> Result<_> {
                    let c = {
                        let _s = log.enter("collection.build");
                        Collection::build(Arc::clone(&disk), name, docs.iter().cloned())?
                    };
                    let inv = {
                        let _s = log.enter("invfile.build");
                        InvertedFile::build(Arc::clone(&disk), name, &c)?
                    };
                    let fnl = {
                        let _s = log.enter("invfile.fnl.build");
                        FnlIndex::build(Arc::clone(&disk), name, &c)?
                    };
                    Ok((c, inv, fnl))
                };
                let (inner, inner_inv, fnl) = side("inner", &inputs.inner)?;
                // The outer signature index is built because a catalog
                // builds one per text column; no join reads it.
                let (outer, outer_inv, _) = side("outer", &inputs.outer)?;
                Built::Bulk {
                    inner,
                    outer,
                    inner_inv,
                    outer_inv,
                    fnl,
                }
            }
            Feed::Sql {
                inner_texts,
                outer_texts,
                kinds,
                sql,
                vocabulary,
            } => {
                let mut catalog = Catalog::new(Arc::clone(&disk));
                let mut docs = RelationBuilder::new("Docs")
                    .column("Id", ColumnType::Int)
                    .column("Body", ColumnType::Text);
                for (i, text) in inner_texts.iter().enumerate() {
                    docs = docs.row(vec![Value::Int(i as i64), Value::Text(text.clone())])?;
                }
                let mut queries = RelationBuilder::new("Queries")
                    .column("Id", ColumnType::Int)
                    .column("Kind", ColumnType::Str)
                    .column("Body", ColumnType::Text);
                for (i, (text, kind)) in outer_texts.iter().zip(kinds).enumerate() {
                    queries = queries.row(vec![
                        Value::Int(i as i64),
                        Value::Str(kind.clone()),
                        Value::Text(text.clone()),
                    ])?;
                }
                {
                    let _s = log.enter("query.catalog.add");
                    catalog.add(docs)?;
                }
                {
                    let _s = log.enter("query.catalog.add");
                    catalog.add(queries)?;
                }
                assert_eq!(
                    catalog.registry().len(),
                    *vocabulary,
                    "pseudo-words must survive tokenize/stem one-to-one"
                );
                Built::Sql {
                    catalog,
                    sql: sql.clone(),
                    outer_rows: Vec::new(),
                }
            }
            Feed::Live { initial, script } => {
                let mut lc = {
                    let _s = log.enter("live.create");
                    LiveCollection::create(
                        Arc::clone(&disk),
                        "live",
                        inputs.inner[..*initial].iter().cloned(),
                    )?
                };
                for op in script {
                    match op {
                        LiveOp::Insert(range) => {
                            let _s = log.enter("live.insert");
                            for doc in &inputs.inner[range.clone()] {
                                lc.insert(doc.clone())?;
                            }
                        }
                        LiveOp::Delete(ids) => {
                            let _s = log.enter("live.delete");
                            for id in ids {
                                assert!(lc.delete(*id)?, "the script deletes live documents only");
                            }
                        }
                        LiveOp::Flush => {
                            let _s = log.enter("live.flush");
                            lc.flush()?;
                        }
                        LiveOp::Merge => {
                            let _s = log.enter("live.merge");
                            lc.merge()?;
                        }
                    }
                }
                let fnl = {
                    let _s = log.enter("invfile.fnl.build");
                    FnlIndex::build(Arc::clone(&disk), "live.fnl", lc.base())?
                };
                let outer = {
                    let _s = log.enter("collection.build");
                    Collection::build(Arc::clone(&disk), "outer", inputs.outer.iter().cloned())?
                };
                let outer_inv = {
                    let _s = log.enter("invfile.build");
                    InvertedFile::build(Arc::clone(&disk), "outer", &outer)?
                };
                Built::Live {
                    lc,
                    fnl,
                    outer,
                    outer_inv,
                }
            }
        };
        Ok(Fixture {
            disk,
            sys,
            query,
            built,
        })
    }

    /// Work that belongs to the first query, not to set-up: on
    /// `selective`, planning once to learn which outer rows the selection
    /// keeps, so forced runs join exactly what the front door joins.
    pub fn resolve(&mut self) -> Result<()> {
        let (sys, query) = (self.sys, self.query);
        if let Built::Sql {
            catalog,
            sql,
            outer_rows,
        } = &mut self.built
        {
            let parsed = textjoin_query::parse(sql)?;
            let plan = textjoin_query::plan(catalog, &parsed, sys, query, IoScenario::Dedicated)?;
            *outer_rows = plan.outer_rows.unwrap_or_default();
            assert!(!outer_rows.is_empty(), "the selection must keep some rows");
        }
        Ok(())
    }

    pub fn view(&self) -> View<'_> {
        let (sys, query) = (self.sys, self.query);
        match &self.built {
            Built::Bulk {
                inner,
                outer,
                inner_inv,
                outer_inv,
                fnl,
            } => View {
                inner,
                outer,
                inner_inv,
                outer_inv,
                fnl,
                outer_sel: None,
                inner_delta: None,
                sys,
                query,
            },
            Built::Sql {
                catalog,
                outer_rows,
                ..
            } => {
                let column = |rel: &str| {
                    catalog
                        .relation(rel)
                        .and_then(|r| r.text_column("Body"))
                        .expect("set-up registered both relations")
                };
                let (inner, outer) = (column("Docs"), column("Queries"));
                View {
                    inner: &inner.collection,
                    outer: &outer.collection,
                    inner_inv: &inner.inverted,
                    outer_inv: &outer.inverted,
                    fnl: &inner.fnl,
                    outer_sel: Some(outer_rows),
                    inner_delta: None,
                    sys,
                    query,
                }
            }
            Built::Live {
                lc,
                fnl,
                outer,
                outer_inv,
            } => View {
                inner: lc.base(),
                outer,
                inner_inv: lc.base_inv(),
                outer_inv,
                fnl,
                outer_sel: None,
                inner_delta: Some(lc.overlay()),
                sys,
                query,
            },
        }
    }

    /// The SQL front door, where the workload has one.
    pub fn sql(&self) -> Option<(&Catalog, &str)> {
        match &self.built {
            Built::Sql { catalog, sql, .. } => Some((catalog, sql)),
            _ => None,
        }
    }

    /// The live collection, where the workload has one.
    pub fn live(&self) -> Option<&LiveCollection> {
        match &self.built {
            Built::Live { lc, .. } => Some(lc),
            _ => None,
        }
    }
}

/// FNV-1a over every page of every file on the disk, names included, in
/// name order: two set-ups wrote the same bytes iff the hashes agree.
pub fn disk_hash(disk: &DiskSim) -> Result<u64> {
    let mut names = disk.file_names();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in names {
        let file = disk.file_by_name(&name).expect("listed file exists");
        eat(name.as_bytes());
        for page in 0..disk.num_pages(file) {
            eat(&disk.read_page(file, page)?);
        }
    }
    disk.reset_stats();
    disk.reset_head();
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 1, true);
            let b = Inputs::generate(w, 1, true);
            let c = Inputs::generate(w, 2, true);
            assert_eq!(a.inner, b.inner, "{}", w.name());
            assert_eq!(a.outer, b.outer);
            assert_ne!(a.inner, c.inner);
        }
    }

    #[test]
    fn spills_joins_the_collections_of_fits() {
        let f = Inputs::generate(Workload::Fits, 5, true);
        let s = Inputs::generate(Workload::Spills, 5, true);
        assert_eq!(f.inner, s.inner);
        assert_eq!(f.outer, s.outer);
        assert!(s.sizes.buffer_pages < f.sizes.buffer_pages);
    }

    #[test]
    fn churn_script_leaves_the_last_round_unmerged() {
        let inputs = Inputs::generate(Workload::Churn, 1, true);
        let Feed::Live { initial, script } = &inputs.feed else {
            panic!("churn is fed live");
        };
        assert_eq!(*initial, inputs.inner.len() * 2 / 5);
        assert_eq!(script.iter().filter(|op| **op == LiveOp::Merge).count(), 2);
        assert_eq!(script.last(), Some(&LiveOp::Flush));
        let deleted = inputs.oracle_inner.iter().filter(|d| d.is_empty()).count();
        assert_eq!(deleted, 3 * (inputs.inner.len() / 20));
    }

    #[test]
    fn rendered_text_ingests_back_to_the_same_document_shape() {
        let doc = &Inputs::generate(Workload::Selective, 1, true).inner[0];
        let mut registry = textjoin_collection::TermRegistry::new();
        let back = registry.ingest(&render(doc));
        assert_eq!(back.num_terms(), doc.num_terms());
        let mut a: Vec<u16> = back.cells().iter().map(|c| c.weight).collect();
        let mut b: Vec<u16> = doc.cells().iter().map(|c| c.weight).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
