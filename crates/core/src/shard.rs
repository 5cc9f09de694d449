//! Sharded multi-site execution — the paper's §3 multidatabase setting,
//! executed instead of only priced.
//!
//! The two collections of a textual join live in *different local systems*;
//! `costmodel::comm` prices the page-shipping term (`β · pages`, with the
//! §3 term-encoding penalty), and this module actually runs the join across
//! `S` simulated sites, each with its own [`DiskSim`] drive:
//!
//! * **HHNL / HVNL / FNL — outer document partitioning.** The
//!   participating outer documents are split across sites (hash-by-document,
//!   or size-weighted skew-aware ranges). A site owns only its slice; it
//!   runs [`crate::execute`] over it against the one inner side every site
//!   reads — the caller's collection and overlay, and one index — and is
//!   charged shipping in what it reads of it, priced through the comm
//!   model. A document's λ best matches depend only on that document and
//!   the full inner side, so the per-site rows concatenate into the exact
//!   global result.
//! * **VVM — term ranges of the one pair of inverted files.** A site is
//!   one part of the one merge of [`crate::vvm`]: its term ranges of both
//!   files, the inner one read through its overlay, as single-node VVM
//!   reads the whole range. It ships in the inner pages its ranges span, and ships its
//!   partial similarity table to the coordinator after every pass.
//!
//! **Skew-aware partitioning.** Under Zipfian term frequencies the uniform
//! VVM span holding the heavy head terms does nearly all the I/O.
//! `weighted_boundaries` sizes ranges by *cumulative document frequency*
//! instead (NOCAP-style), and `skew_aware_assignment` re-partitions any
//! range whose load exceeds `bound × total/S` (the Robust Dynamic Hybrid
//! Hash Join fallback), bin-packing the pieces back onto the S sites.
//!
//! Exactness: a document site reads the inner side a single-node run
//! reads, and an outer document scores with its own norm wherever it
//! lives, so document sites are byte-identical to single-node under every
//! weighting, the inner delta overlay and degraded mode included. Every VVM term
//! lives in exactly one site's ranges, so raw-count VVM is byte-identical
//! too; with several sites, fractional weights reassociate the sums, and
//! one site is the single-node merge bit for bit.
//!
//! The call times itself on `spec.trace` in four spans, `shard.index_build`,
//! `shard.site_build`, `shard.sites` and `shard.merge`; sites run untraced.

use crate::driver::{feed_ticket, merge_outcomes, run_parts, sole, validate, Indexes};
use crate::result::{JoinOutcome, ResultQuality};
use crate::spec::{JoinSpec, OuterDocs};
use crate::vvm::Part;
use crate::{vvm, Algorithm};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use textjoin_collection::{Collection, CollectionProfile, Document, DocumentStoreBuilder};
use textjoin_common::{DocId, Result, TermId};
use textjoin_costmodel::comm::CommParams;
use textjoin_invfile::{postings_of, DeltaOverlay, FnlIndex, InvertedFile, PostingCodec};
use textjoin_obs::{LiveRegistry, QueryTicket, TicketGuard, Tracer};
use textjoin_storage::{DiskSim, FaultPlan, IoStats};

/// Bytes shipped per accumulator cell of a partial VVM similarity table:
/// two 4-byte document numbers plus the paper's 4-byte similarity value.
const SHIP_CELL_BYTES: u64 = 12;

/// How partition boundaries are chosen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPartitioning {
    /// Cumulative-weight boundaries (document frequency for term ranges,
    /// document pages for outer slices) with recursive re-partitioning of
    /// overloaded ranges.
    #[default]
    SkewAware,
    /// The naive baseline: hash-by-document-id for outer slices, uniform
    /// term-ordinal spans for term ranges.
    Naive,
}

impl std::fmt::Display for ShardPartitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPartitioning::SkewAware => write!(f, "skew-aware"),
            ShardPartitioning::Naive => write!(f, "naive"),
        }
    }
}

/// Configuration of a sharded execution.
#[derive(Clone, Copy)]
pub struct ShardOptions<'a> {
    /// Number of sites `S` (clamped to the partitionable unit count).
    pub shards: usize,
    /// Boundary strategy.
    pub partitioning: ShardPartitioning,
    /// Network pricing: `β` per shipped page plus the §3 term-encoding
    /// blowup on shipped text structures.
    pub comm: CommParams,
    /// When set, every site registers its own in-flight ticket here, so
    /// `/queries` shows per-shard progress.
    pub live: Option<&'a LiveRegistry>,
    /// Chaos hook: inject a fault on a page one site alone reads after the
    /// site structures are built, so the fault strikes mid-run.
    pub fault: Option<ShardFault>,
}

/// A mid-run fault aimed at one site: after site `shard` is built (and
/// before the join runs), `kind` is planted on a page only that site reads:
/// `page`, modulo the file's size, of a document site's outer slice; the
/// `page`-th (modulo their count) of the pages only a VVM site's ranges
/// read, in each of the call's two inverted files.
#[derive(Clone, Copy, Debug)]
pub struct ShardFault {
    /// Which site misbehaves.
    pub shard: usize,
    /// Target page, reduced modulo each faulted file's page count.
    pub page: u64,
    /// What goes wrong on first access.
    pub kind: textjoin_storage::FaultKind,
}

impl<'a> ShardOptions<'a> {
    /// `shards` sites, skew-aware boundaries, default network.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            partitioning: ShardPartitioning::SkewAware,
            comm: CommParams::default_network(),
            live: None,
            fault: None,
        }
    }

    /// Replaces the boundary strategy.
    pub fn with_partitioning(self, partitioning: ShardPartitioning) -> Self {
        Self {
            partitioning,
            ..self
        }
    }

    /// Replaces the network pricing.
    pub fn with_comm(self, comm: CommParams) -> Self {
        Self { comm, ..self }
    }

    /// Registers per-site tickets on this live registry.
    pub fn with_live(self, live: &'a LiveRegistry) -> Self {
        Self {
            live: Some(live),
            ..self
        }
    }

    /// Plants `fault` on a page only its site reads once the site
    /// structures are built, so it strikes during execution.
    pub fn with_shard_fault(self, fault: ShardFault) -> Self {
        Self {
            fault: Some(fault),
            ..self
        }
    }
}

/// What one site did.
#[derive(Clone, Copy, Debug)]
pub struct ShardReport {
    /// Site index.
    pub shard: usize,
    /// Page reads this site made during execution (builds excluded): a
    /// document site's of its own drive and the shared inner side, a VVM
    /// site's of its ranges of the call's inverted files and overlays.
    pub io: IoStats,
    /// This site's page cost (`seq + α·rand`) — the bench grid's
    /// `max-shard` metric maximises this across sites.
    pub pages_io: f64,
    /// Pages shipped to or from this site, term-encoding blowup included.
    /// A document site ships in what it reads of the inner side: the
    /// collection (HHNL), the inverted file (HVNL) or the signature index
    /// and sidecar (FNL), plus the overlay's flushed side file it reads. A
    /// VVM site ships in the pages its ranges span in the inner inverted and
    /// flushed side files, and ships out a partial table after every pass.
    pub shipped_pages: u64,
    /// Documents or inverted-file entries this site skipped in degraded
    /// mode.
    pub skipped: u64,
    /// Whether this site had to skip unreadable data.
    pub quality: ResultQuality,
}

/// A merged sharded execution.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The global result, merged statistics and overall quality.
    pub outcome: JoinOutcome,
    /// Per-site breakdown.
    pub shards: Vec<ShardReport>,
    /// Total pages shipped between sites.
    pub shipped_pages: u64,
    /// `β × shipped_pages` — the comm term of the total cost.
    pub comm_cost: f64,
    /// Largest per-site page cost — the balance metric skew-aware
    /// partitioning minimises.
    pub max_shard_pages: f64,
    /// The strategy that produced the boundaries.
    pub partitioning: ShardPartitioning,
}

/// Splits `weights.len()` ordinals into at most `parts` contiguous
/// non-empty ranges of approximately equal cumulative weight (zero weights
/// count as 1 so every ordinal has mass). Returns exactly
/// `min(parts, len)` ranges tiling `[0, len)`; uniform weights reduce to
/// uniform spans. This is the NOCAP-style boundary primitive of the
/// sharded executors.
pub(crate) fn weighted_boundaries(weights: &[u64], parts: usize) -> Vec<(u32, u32)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let mut prefix: Vec<u128> = Vec::with_capacity(n + 1);
    let mut acc = 0u128;
    prefix.push(0);
    for &w in weights {
        acc += u128::from(w.max(1));
        prefix.push(acc);
    }
    let total = acc;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for part in 1..=parts {
        let end = if part == parts {
            n
        } else {
            // First ordinal whose prefix reaches this part's share of the
            // total, constrained so every remaining part stays non-empty.
            let target = total * part as u128 / parts as u128;
            prefix
                .partition_point(|&p| p < target)
                .clamp(start + 1, n - (parts - part))
        };
        ranges.push((start as u32, end as u32));
        start = end;
    }
    ranges
}

/// How far above the even share `total/S` a skew-aware range's estimated
/// load may sit before it is re-partitioned.
const SKEW_BOUND: f64 = 1.25;

/// Cuts cumulative-weight boundaries, recursively re-partitions any range
/// whose load exceeds [`SKEW_BOUND`]` × total/parts` (a single heavy
/// ordinal stops the recursion), and greedily bin-packs the pieces onto
/// `parts` shards, heaviest first. Returns one sorted range list per
/// shard; together the ranges tile `[0, len)` exactly once.
pub(crate) fn skew_aware_assignment(weights: &[u64], parts: usize) -> Vec<Vec<(u32, u32)>> {
    let n = weights.len();
    let mut shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
    if n == 0 || parts == 0 {
        return shards;
    }
    let load_of = |lo: u32, hi: u32| -> u128 {
        weights[lo as usize..hi as usize]
            .iter()
            .map(|&w| u128::from(w.max(1)))
            .sum()
    };
    let total = load_of(0, n as u32);
    let limit = SKEW_BOUND * total as f64 / parts as f64;
    let mut queue = weighted_boundaries(weights, parts);
    let mut leaves: Vec<(u32, u32, u128)> = Vec::new();
    while let Some((lo, hi)) = queue.pop() {
        let load = load_of(lo, hi);
        if load as f64 > limit && hi - lo > 1 {
            let pieces = ((load as f64 / limit).ceil() as usize).max(2);
            for (a, b) in weighted_boundaries(&weights[lo as usize..hi as usize], pieces) {
                queue.push((lo + a, lo + b));
            }
        } else {
            leaves.push((lo, hi, load));
        }
    }
    // Longest-processing-time packing: heaviest piece onto the least
    // loaded shard; ties break deterministically by range start and shard
    // index.
    leaves.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    let mut loads = vec![0u128; parts];
    for (lo, hi, load) in leaves {
        let k = (0..parts)
            .min_by_key(|&i| (loads[i], i))
            .expect("at least one shard");
        loads[k] += load;
        shards[k].push((lo, hi));
    }
    for ranges in &mut shards {
        ranges.sort_unstable();
    }
    shards
}

/// Executes `C1 SIMILAR_TO(λ) C2` with `algorithm` across
/// `opts.shards` simulated sites and merges the per-site results into the
/// exact global top-λ.
pub fn execute_sharded(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
) -> Result<ShardedOutcome> {
    // Before anything is read from the selections.
    validate(std::slice::from_ref(spec))?;
    let started = Instant::now();
    // Pages shipped between sites.
    let wire = Cell::new(0u64);
    let span = Tracer::maybe(spec.trace, "shard.index_build");
    let (inner_inv, outer_inv, fnl) = build_indexes(spec, algorithm)?;
    drop(span);
    let indexes = Indexes {
        inner_inv: inner_inv.as_ref(),
        outer_inv: outer_inv.as_ref(),
        fnl: fnl.as_ref(),
    };
    let (mut outcome, shards) = match algorithm {
        Algorithm::Vvm => vvm_sites(spec, opts, &indexes, &wire)?,
        _ => doc_sites(spec, algorithm, opts, &indexes, &wire)?,
    };
    outcome.stats.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(ShardedOutcome {
        max_shard_pages: shards.iter().map(|r| r.pages_io).fold(0.0, f64::max),
        outcome,
        shards,
        shipped_pages: wire.get(),
        comm_cost: opts.comm.beta * wire.get() as f64,
        partitioning: opts.partitioning,
    })
}

/// Registers one ticket per site when a live registry is attached.
fn register_tickets(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
    sites: usize,
) -> (Vec<TicketGuard>, Vec<Option<QueryTicket>>) {
    let Some(live) = opts.live else {
        return (Vec::new(), vec![None; sites]);
    };
    let pair = format!("{} ⋈ {}", spec.inner.name(), spec.outer.name());
    let mut guards = Vec::with_capacity(sites);
    let mut tickets = Vec::with_capacity(sites);
    for k in 0..sites {
        let guard = live.register(
            format!("shard {k}/{sites}"),
            pair.clone(),
            algorithm.to_string(),
            None,
            None,
            1,
        );
        tickets.push(Some(guard.ticket().clone()));
        guards.push(guard);
    }
    (guards, tickets)
}

/// The inner and the outer inverted file and the signature index.
type Built = (Option<InvertedFile>, Option<InvertedFile>, Option<FnlIndex>);

/// Builds the indexes `algorithm` reads — HVNL's inner inverted file, VVM's
/// inverted file of each side, FNL's signature index, none for HHNL — on a
/// drive the call owns and drops, never on the caller's. VVM's outer file
/// inverts only the base documents the spec selects.
fn build_indexes(spec: &JoinSpec<'_>, algorithm: Algorithm) -> Result<Built> {
    let disk = Arc::new(DiskSim::new(spec.sys.page_size));
    let inv = |side, name| InvertedFile::build(Arc::clone(&disk), name, side).map(Some);
    let selected = |doc: &Result<(DocId, Document)>| match (spec.outer_docs, doc) {
        (OuterDocs::Selected(ids), Ok((id, _))) => ids.binary_search(id).is_ok(),
        _ => true,
    };
    let outer = || {
        let postings = postings_of(spec.outer.store().scan().filter(selected))?;
        let codec = PostingCodec::Fixed5;
        InvertedFile::from_postings_with(Arc::clone(&disk), "outer", postings, codec).map(Some)
    };
    Ok(match algorithm {
        Algorithm::Hhnl => (None, None, None),
        Algorithm::Hvnl => (inv(spec.inner, "inner")?, None, None),
        Algorithm::Vvm => (inv(spec.inner, "inner")?, outer()?, None),
        Algorithm::Fnl => (
            None,
            None,
            Some(FnlIndex::build(disk, "inner", spec.inner)?),
        ),
    })
}

/// HHNL, HVNL and FNL: a site owns its slice of the outer documents on a
/// drive of its own and joins it against the caller's inner side, overlay
/// and all, as a single-node run reads it, through the call's `indexes`.
fn doc_sites(
    spec: &JoinSpec<'_>,
    algorithm: Algorithm,
    opts: &ShardOptions<'_>,
    indexes: &Indexes<'_>,
    wire: &Cell<u64>,
) -> Result<(JoinOutcome, Vec<ShardReport>)> {
    let span = Tracer::maybe(spec.trace, "shard.site_build");
    // In degraded mode the coordinator drops the outer documents it cannot
    // read, and counts them.
    let mut unreadable = 0;
    let outer_docs: Vec<(DocId, Document)> = (spec.outer_iter())
        .filter(|item| {
            let skip = matches!(item, Err(e) if spec.skippable(e));
            unreadable += u64::from(skip);
            !skip
        })
        .collect::<Result<_>>()?;
    // What each site ships in: see `ShardReport::shipped_pages`.
    let overlay = spec.inner_delta;
    let docs = overlay.map_or(0, DeltaOverlay::doc_pages);
    let pages = match (indexes.inner_inv, indexes.fnl) {
        (Some(index), _) => index.num_pages() + overlay.map_or(0, DeltaOverlay::inv_pages),
        (_, Some(fnl)) => fnl.num_pages() + fnl.meta_pages() + docs,
        _ => spec.inner.store().num_pages() + docs,
    };
    let shipped = (pages as f64 * opts.comm.encoding.blowup()).ceil() as u64;

    let s = opts.shards.max(1).min(outer_docs.len());
    let page = spec.sys.page_size as u64;
    let assignment = assign_outer_docs(&outer_docs, s, page, opts);
    let mut sites: Vec<(usize, Collection)> = Vec::with_capacity(s);
    for (k, idxs) in assignment.iter().enumerate() {
        if idxs.is_empty() {
            continue;
        }
        // Global ids are kept (sparse stores handle the gaps), so self-join
        // masking, inner selections and the λ tie-break see the same ids.
        let disk = Arc::new(DiskSim::new(spec.sys.page_size));
        let mut store = DocumentStoreBuilder::new(Arc::clone(&disk), "outer")?;
        let mut profile = CollectionProfile::builder();
        for (id, doc) in idxs.iter().map(|&i| &outer_docs[i]) {
            store.add_with_id(*id, doc)?;
            profile.observe_at(*id, doc);
        }
        let outer = Collection::from_store("outer", store.finish()?, profile.finish());
        // Armed after the build, so that it strikes the join.
        if let Some(fault) = opts.fault.filter(|f| f.shard == k) {
            let file = outer.store().file();
            let page = fault.page % disk.num_pages(file).max(1);
            disk.set_fault_plan(FaultPlan::new().with_fault(file, page, 0, fault.kind));
        }
        wire.set(wire.get() + shipped);
        sites.push((k, outer));
    }
    drop(span);

    let span = Tracer::maybe(spec.trace, "shard.sites");
    let (_guards, tickets) = register_tickets(spec, algorithm, opts, s);
    let outcomes = run_parts(&sites, |_, (k, outer)| {
        // Sites run untraced and unwatched, and scan their slice end to end.
        let spec_k = JoinSpec {
            outer,
            outer_docs: OuterDocs::Full,
            trace: None,
            cost_budget: None,
            ticket: tickets[*k].as_ref(),
            ..*spec
        };
        crate::execute(algorithm, &spec_k, indexes)
    });
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>>>()?;
    drop(span);

    let _span = Tracer::maybe(spec.trace, "shard.merge");
    let reports = sites
        .iter()
        .zip(&outcomes)
        .map(|((k, _), outcome)| ShardReport {
            shard: *k,
            io: outcome.stats.io,
            pages_io: outcome.stats.io.cost(spec.sys.alpha),
            shipped_pages: shipped,
            skipped: outcome.stats.skipped_docs + outcome.stats.skipped_entries,
            quality: outcome.quality,
        })
        .collect();
    let mut outcome = merge_outcomes(algorithm, outcomes);
    outcome.stats.skipped_docs += unreadable;
    if unreadable > 0 {
        outcome.quality = ResultQuality::Partial;
    }
    // Result rows flow back to the coordinator once: λ matches of 8 bytes
    // per outer document.
    let rows = outcome.result.num_outer_docs();
    let result_pages = ((rows * spec.query.lambda * 8) as u64).div_ceil(page.max(1));
    wire.set(wire.get() + result_pages);
    Ok((outcome, reports))
}

/// Outer-document assignment: hash-by-id (naive) or page-weighted
/// skew-aware ranges with recursive re-partitioning.
fn assign_outer_docs(
    docs: &[(DocId, Document)],
    s: usize,
    page: u64,
    opts: &ShardOptions<'_>,
) -> Vec<Vec<usize>> {
    match opts.partitioning {
        ShardPartitioning::Naive => {
            let mut shards = vec![Vec::new(); s];
            for (i, (id, _)) in docs.iter().enumerate() {
                shards[id.raw() as usize % s].push(i);
            }
            shards
        }
        ShardPartitioning::SkewAware => {
            let weights: Vec<u64> = docs
                .iter()
                .map(|(_, d)| d.size_bytes().div_ceil(page.max(1)).max(1))
                .collect();
            skew_aware_assignment(&weights, s)
                .into_iter()
                .map(|ranges| {
                    ranges
                        .into_iter()
                        .flat_map(|(a, b)| a as usize..b as usize)
                        .collect()
                })
                .collect()
        }
    }
}

/// Each site's term ranges `[lo, hi)` (`hi = None` = unbounded), cut on the
/// union of both files' terms: skew-aware by the directories' document
/// frequencies, or of equal term count (naive). A site's adjacent ranges
/// are joined; together they tile every term, and there is one site or more.
fn site_terms(
    inner: &InvertedFile,
    outer: &InvertedFile,
    opts: &ShardOptions<'_>,
) -> Vec<Vec<(u32, Option<u32>)>> {
    let mut df: BTreeMap<u32, u64> = BTreeMap::new();
    for m in inner.directory().iter().chain(outer.directory()) {
        *df.entry(m.term.raw()).or_default() += u64::from(m.doc_freq);
    }
    if df.is_empty() {
        return vec![vec![(0, None)]];
    }
    let (terms, weights): (Vec<u32>, Vec<u64>) = df.into_iter().unzip();
    let s = opts.shards.clamp(1, terms.len());
    let sites = match opts.partitioning {
        ShardPartitioning::SkewAware => skew_aware_assignment(&weights, s),
        ShardPartitioning::Naive => (weighted_boundaries(&vec![1; terms.len()], s).into_iter())
            .map(|range| vec![range])
            .collect(),
    };
    (sites.into_iter())
        .map(|ranges| {
            let mut site: Vec<(u32, Option<u32>)> = Vec::with_capacity(ranges.len());
            for (a, b) in ranges {
                let lo = if a == 0 { 0 } else { terms[a as usize] };
                let hi = terms.get(b as usize).copied();
                match site.last_mut() {
                    Some(last) if last.1 == Some(lo) => last.1 = hi,
                    _ => site.push((lo, hi)),
                }
            }
            site
        })
        .collect()
}

/// The pages of `inv` that its entries in the term range `[lo, hi)` lie
/// on, from the directory: what a partial scan of the range reads.
fn page_run(inv: &InvertedFile, (lo, hi): (u32, Option<u32>)) -> Range<u64> {
    let at = |term| inv.ordinal_at_or_after(TermId::new(term));
    let (start, end) = (at(lo), hi.map_or(inv.num_entries() as u32, at));
    let page = inv.disk().page_size();
    match start < end {
        true => inv.meta(start).span.first_page(page)..inv.meta(end - 1).span.end_page(page),
        false => 0..0,
    }
}

/// Sharded VVM: each site is one part of the merge, over its term ranges
/// of the call's pair of inverted files; the sites' partial tables ship to
/// the coordinator and fold into one after every pass.
fn vvm_sites(
    spec: &JoinSpec<'_>,
    opts: &ShardOptions<'_>,
    indexes: &Indexes<'_>,
    wire: &Cell<u64>,
) -> Result<(JoinOutcome, Vec<ShardReport>)> {
    let span = Tracer::maybe(spec.trace, "shard.site_build");
    let (inner, outer) = (indexes.inner_inv()?, indexes.outer_inv()?);
    let sites = site_terms(inner, outer, opts);
    // The inner ranges ship from the inner site to the merge site, with the
    // inner overlay's flushed side file within them; outer ranges are local.
    let flushed = spec.inner_delta.and_then(DeltaOverlay::flushed);
    let files = [Some(inner), flushed.map(|f| &f.inv)];
    let shipped: Vec<u64> = (sites.iter())
        .map(|terms| {
            let runs = terms
                .iter()
                .flat_map(|&r| files.iter().flatten().map(move |f| page_run(f, r)));
            (runs.flatten().count() as f64 * opts.comm.encoding.blowup()).ceil() as u64
        })
        .collect();
    wire.set(wire.get() + shipped.iter().sum::<u64>());
    // Armed after the build, on a page of each file that only the faulted
    // site's ranges read, so that it strikes that site's merge alone.
    if let Some(fault) = opts.fault.filter(|f| f.shard < sites.len()) {
        let mut plan = FaultPlan::new();
        for inv in [inner, outer] {
            let runs = |k: usize| sites[k].iter().map(move |&r| page_run(inv, r));
            let others = (0..sites.len()).filter(|&k| k != fault.shard);
            let theirs: Vec<Range<u64>> = others.flat_map(runs).collect();
            let own: Vec<u64> = (runs(fault.shard).flatten())
                .filter(|p| theirs.iter().all(|run| !run.contains(p)))
                .collect();
            if let Some(&page) = own.get((fault.page % own.len().max(1) as u64) as usize) {
                plan = plan.with_fault(inv.file(), page, 0, fault.kind);
            }
        }
        inner.disk().set_fault_plan(plan);
    }
    let parts: Vec<Part<'_>> = (sites.iter())
        .map(|terms| Part {
            inner_inv: inner,
            outer_inv: outer,
            terms,
        })
        .collect();
    drop(span);

    let span = Tracer::maybe(spec.trace, "shard.sites");
    let s = parts.len();
    let (_guards, tickets) = register_tickets(spec, Algorithm::Vvm, opts, s);
    // Per site: the I/O, the shipped accumulator pages and the skipped
    // entries of the merge.
    let tally = RefCell::new(vec![(IoStats::default(), 0u64, 0u64); s]);
    let page = spec.sys.page_size as u64;
    let ship_table = |k: usize, pass: u64, cells: u64, skipped: u64, io: &IoStats| {
        let pages = (cells * SHIP_CELL_BYTES).div_ceil(page.max(1));
        wire.set(wire.get() + pages);
        let site = &mut tally.borrow_mut()[k];
        site.0.merge(io);
        site.1 += pages;
        site.2 += skipped;
        if let Some(ticket) = &tickets[k] {
            let phase = format!("vvm.shard pass {pass}");
            feed_ticket(ticket, io.cost(spec.sys.alpha), phase);
        }
    };
    // The sites run untraced and unwatched, each feeding its own ticket.
    let site_spec = JoinSpec {
        trace: None,
        cost_budget: None,
        ticket: None,
        ..*spec
    };
    let outcome = vvm::execute_parts(std::slice::from_ref(&site_spec), &parts, Some(&ship_table))
        .map(sole)?;
    drop(span);

    let _span = Tracer::maybe(spec.trace, "shard.merge");
    let sites = shipped.into_iter().zip(tally.into_inner()).enumerate();
    let reports = sites
        .map(|(shard, (ships, (io, tables, skipped)))| ShardReport {
            shard,
            io,
            pages_io: io.cost(spec.sys.alpha),
            shipped_pages: ships + tables,
            skipped,
            // Degraded skips happened on whichever site's cursor hit them.
            quality: if skipped > 0 {
                ResultQuality::Partial
            } else {
                ResultQuality::Full
            },
        })
        .collect();
    Ok((outcome, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hhnl, hvnl, Weighting};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeSet;
    use textjoin_collection::SynthSpec;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_costmodel::comm::TermEncoding;
    use textjoin_invfile::FlushedDelta;

    fn fixture(seed: u64) -> (Arc<DiskSim>, Collection, Collection) {
        let disk = Arc::new(DiskSim::new(512));
        let c1 = SynthSpec::from_stats(CollectionStats::new(50, 10.0, 150), seed)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(30, 10.0, 150), seed + 1)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        (disk, c1, c2)
    }

    fn spec<'a>(c1: &'a Collection, c2: &'a Collection, lambda: usize) -> JoinSpec<'a> {
        JoinSpec::new(c1, c2)
            .with_sys(SystemParams {
                buffer_pages: 256,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(lambda))
    }

    #[test]
    fn weighted_boundaries_reduce_to_uniform_on_equal_weights() {
        let b = weighted_boundaries(&[1; 12], 4);
        assert_eq!(b, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
    }

    #[test]
    fn weighted_boundaries_isolate_a_heavy_head() {
        // Zipf-like: one head term with 100× the tail mass. Uniform spans
        // would give the first range half the ordinals; df-weighted cuts
        // right after the head.
        let mut w = vec![1u64; 10];
        w[0] = 100;
        let b = weighted_boundaries(&w, 2);
        assert_eq!(b[0], (0, 1), "the heavy head is isolated");
        assert_eq!(b[1], (1, 10));
    }

    #[test]
    fn weighted_boundaries_clamp_degenerate_part_counts() {
        let b = weighted_boundaries(&[5, 5, 5], 10);
        assert_eq!(b, vec![(0, 1), (1, 2), (2, 3)], "parts clamp to len");
        assert!(weighted_boundaries(&[], 4).is_empty());
        assert_eq!(weighted_boundaries(&[7], 1), vec![(0, 1)]);
    }

    #[test]
    fn skew_aware_assignment_tiles_and_balances() {
        let mut w = vec![2u64; 40];
        w[0] = 200; // one hot range seed
        let shards = skew_aware_assignment(&w, 4);
        // Every ordinal covered exactly once.
        let mut covered = vec![0u32; 40];
        for ranges in &shards {
            for &(a, b) in ranges {
                for i in a..b {
                    covered[i as usize] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
        // The heavy ordinal's shard does not also hoard the tail: its
        // total load stays within the bound of a perfect split plus the
        // indivisible head itself.
        let loads: Vec<u64> = shards
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|&(a, b)| w[a as usize..b as usize].iter().sum::<u64>())
                    .sum()
            })
            .collect();
        let max = *loads.iter().max().unwrap();
        assert!(max <= 200 + 20, "heavy shard load {max} ({loads:?})");
    }

    #[test]
    fn sharded_hhnl_matches_single_node() {
        let (_, c1, c2) = fixture(71);
        let spec = spec(&c1, &c2, 4);
        let want = hhnl::execute(&spec).unwrap();
        for s in [1usize, 2, 3, 4] {
            for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                let opts = ShardOptions::new(s).with_partitioning(strategy);
                let got = execute_sharded(&spec, Algorithm::Hhnl, &opts).unwrap();
                assert_eq!(got.outcome.result, want.result, "S={s} {strategy}");
                assert!((1..=s).contains(&got.shards.len()), "S={s} {strategy}");
                let sites: BTreeSet<usize> = got.shards.iter().map(|r| r.shard).collect();
                assert_eq!(sites.len(), got.shards.len(), "S={s} {strategy}");
                assert!(sites.iter().all(|&k| k < s), "S={s} {strategy}");
                let heaviest = got.shards.iter().map(|r| r.pages_io).fold(0.0, f64::max);
                assert_eq!(got.max_shard_pages, heaviest, "S={s} {strategy}");
                if s > 1 {
                    assert!(got.shipped_pages > 0, "the inner side must cross the wire");
                }
            }
        }
    }

    #[test]
    fn sharded_hvnl_and_fnl_match_single_node() {
        let (disk, c1, c2) = fixture(72);
        let spec = spec(&c1, &c2, 5);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let want = hvnl::execute(&spec, &inv1).unwrap();
        for s in [2usize, 4] {
            let hv = execute_sharded(&spec, Algorithm::Hvnl, &ShardOptions::new(s)).unwrap();
            assert_eq!(hv.outcome.result, want.result, "HVNL S={s}");
            let fnl = execute_sharded(&spec, Algorithm::Fnl, &ShardOptions::new(s)).unwrap();
            assert_eq!(fnl.outcome.result, want.result, "FNL S={s}");
        }
    }

    #[test]
    fn sharded_vvm_matches_single_node_both_strategies() {
        let (disk, c1, c2) = fixture(73);
        let spec = spec(&c1, &c2, 5);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        for s in [1usize, 2, 4] {
            for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                let opts = ShardOptions::new(s).with_partitioning(strategy);
                let got = execute_sharded(&spec, Algorithm::Vvm, &opts).unwrap();
                assert_eq!(got.outcome.result, want.result, "S={s} {strategy}");
                // The sites' parts are the crate's one concurrent fan-out:
                // their bracketed I/O deltas sum exactly to the run's.
                let mut summed = IoStats::default();
                for site in &got.shards {
                    summed.merge(&site.io);
                }
                assert_eq!(summed, got.outcome.stats.io, "S={s} {strategy}");
                assert!(summed.total_reads() > 0, "S={s} {strategy}");
            }
        }
    }

    #[test]
    fn sharded_vvm_cosine_matches_within_tolerance() {
        let (disk, c1, c2) = fixture(74);
        let spec = spec(&c1, &c2, 4).with_weighting(Weighting::Cosine);
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        let got = execute_sharded(&spec, Algorithm::Vvm, &ShardOptions::new(3)).unwrap();
        assert!(got.outcome.result.approx_eq(&want.result, 1e-9));
    }

    #[test]
    fn actual_terms_ship_five_times_standard_numbers() {
        // Satellite: the §3 term-encoding penalty, exercised by the
        // sharded HHNL ship-inner path.
        let (_, c1, c2) = fixture(75);
        let spec = spec(&c1, &c2, 3);
        let std_enc = ShardOptions::new(2).with_comm(CommParams {
            beta: 2.0,
            encoding: TermEncoding::StandardNumbers,
        });
        let act_enc = ShardOptions::new(2).with_comm(CommParams {
            beta: 2.0,
            encoding: TermEncoding::ActualTerms,
        });
        let std_run = execute_sharded(&spec, Algorithm::Hhnl, &std_enc).unwrap();
        let act_run = execute_sharded(&spec, Algorithm::Hhnl, &act_enc).unwrap();
        // What the sites read of the inner side (the text being shipped)
        // pays the full §3 blowup; result rows flow back as standard
        // numbers either way.
        let inner =
            |run: &ShardedOutcome| -> u64 { run.shards.iter().map(|r| r.shipped_pages).sum() };
        assert!(inner(&std_run) > 0);
        assert!(
            inner(&act_run) as f64 >= 5.0 * inner(&std_run) as f64,
            "ActualTerms {} vs StandardNumbers {}",
            inner(&act_run),
            inner(&std_run)
        );
        assert!(act_run.shipped_pages > std_run.shipped_pages);
        assert!(act_run.comm_cost > std_run.comm_cost);
        assert_eq!(std_run.outcome.result, act_run.outcome.result);
    }

    #[test]
    fn selections_and_exclude_self_survive_sharding() {
        let (disk, c1, _) = fixture(76);
        let chosen: Vec<DocId> = (0..50).step_by(3).map(DocId::new).collect();
        let inner_sel: Vec<DocId> = (0..50).step_by(2).map(DocId::new).collect();
        let spec = JoinSpec::new(&c1, &c1)
            .with_sys(SystemParams {
                buffer_pages: 256,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3))
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_sel)
            .with_exclude_self();
        let want = hhnl::execute(&spec).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "c1.self", &c1).unwrap();
        let want_hv = hvnl::execute(&spec, &inv).unwrap();
        assert_eq!(want.result, want_hv.result, "oracle sanity");
        for alg in [
            Algorithm::Hhnl,
            Algorithm::Hvnl,
            Algorithm::Vvm,
            Algorithm::Fnl,
        ] {
            let got = execute_sharded(&spec, alg, &ShardOptions::new(3)).unwrap();
            assert_eq!(got.outcome.result, want.result, "{alg}");
        }
    }

    #[test]
    fn live_registry_sees_per_shard_tickets_and_drains() {
        let (_, c1, c2) = fixture(78);
        let spec = spec(&c1, &c2, 3);
        let live = LiveRegistry::new();
        let opts = ShardOptions::new(3).with_live(&live);
        let got = execute_sharded(&spec, Algorithm::Vvm, &opts).unwrap();
        assert!(got.outcome.stats.io.total_reads() > 0);
        assert!(live.is_empty(), "ticket guards must deregister on drop");
    }

    #[test]
    fn shard_fault_degrades_to_partial_subset() {
        let (_, c1, c2) = fixture(79);
        let base = spec(&c1, &c2, 4);
        let want = hhnl::execute(&base).unwrap();
        // Corrupt an early page of site 1's outer slice only; degraded
        // mode skips the unreadable documents there instead of failing the
        // whole join, and the merge reports Partial.
        let degraded = base.with_degraded();
        let opts = ShardOptions::new(3).with_shard_fault(ShardFault {
            shard: 1,
            page: 0,
            kind: textjoin_storage::FaultKind::BitFlip { bit_offset: 77 },
        });
        let got = execute_sharded(&degraded, Algorithm::Hhnl, &opts).unwrap();
        assert_eq!(got.outcome.quality, ResultQuality::Partial);
        assert!(got.outcome.stats.skipped_docs > 0);
        assert!(
            got.shards
                .iter()
                .any(|r| r.quality == ResultQuality::Partial),
            "the faulted site reports the degradation"
        );
        // The healthy sites' rows are untouched: no more rows than the
        // clean run, and every emitted row belongs to a real outer doc.
        assert!(got.outcome.result.iter().count() <= want.result.iter().count());
        for (id, _) in got.outcome.result.iter() {
            assert!(want.result.matches(id).is_some());
        }
    }

    #[test]
    fn sharded_vvm_marks_only_the_site_that_skipped_partial() {
        let (_, c1, c2) = fixture(79);
        let degraded = spec(&c1, &c2, 4).with_degraded();
        for page in 0..3 {
            let opts = ShardOptions::new(3).with_shard_fault(ShardFault {
                shard: 1,
                page,
                kind: textjoin_storage::FaultKind::BitFlip { bit_offset: 77 },
            });
            let got = execute_sharded(&degraded, Algorithm::Vvm, &opts).unwrap();
            let skipped = got.outcome.stats.skipped_entries;
            assert!(skipped > 0, "page {page}: the fault was never read");
            assert_eq!(got.outcome.quality, ResultQuality::Partial, "page {page}");
            for site in &got.shards {
                let want = if site.shard == 1 {
                    ResultQuality::Partial
                } else {
                    ResultQuality::Full
                };
                assert_eq!(site.quality, want, "page {page} site {}", site.shard);
            }
            let per_site: u64 = got.shards.iter().map(|r| r.skipped).sum();
            assert_eq!(per_site, skipped, "page {page}");
        }
    }

    #[test]
    fn sharded_fnl_ships_what_the_comm_model_prices() {
        use textjoin_costmodel::comm::{pages_shipped, Site};
        let (disk, c1, c2) = fixture(77);
        let spec = spec(&c1, &c2, 5);
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inputs = spec.cost_inputs().with_fnl(fnl1.stats());
        let outer_docs: Vec<_> = spec.outer_iter().collect::<Result<_>>().unwrap();
        for s in [2usize, 4] {
            for encoding in [TermEncoding::StandardNumbers, TermEncoding::ActualTerms] {
                let priced = pages_shipped(&inputs, Algorithm::Fnl, Site::OuterSite, encoding);
                let comm = CommParams {
                    beta: 1.0,
                    encoding,
                };
                let got =
                    execute_sharded(&spec, Algorithm::Fnl, &ShardOptions::new(s).with_comm(comm))
                        .unwrap();
                assert_eq!(got.shards.len(), s, "S={s} {encoding:?}");
                for site in &got.shards {
                    assert_eq!(
                        site.shipped_pages,
                        priced.ceil() as u64,
                        "S={s} {encoding:?}"
                    );
                }
            }
            // The outer slices hold every participating outer document
            // exactly once, under either boundary strategy.
            for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                let opts = ShardOptions::new(s).with_partitioning(strategy);
                let mut held: Vec<usize> = assign_outer_docs(&outer_docs, s, 512, &opts)
                    .into_iter()
                    .flatten()
                    .collect();
                held.sort_unstable();
                assert_eq!(
                    held,
                    (0..outer_docs.len()).collect::<Vec<_>>(),
                    "S={s} {strategy}"
                );
            }
        }
    }

    #[test]
    fn empty_sides_merge_to_the_single_node_answer() {
        let (disk, c1, c2) = fixture(85);
        let empty = Collection::build(Arc::clone(&disk), "empty", Vec::<Document>::new()).unwrap();
        let none: Vec<DocId> = Vec::new();
        let inv = |c: &Collection, name| InvertedFile::build(Arc::clone(&disk), name, c).unwrap();
        let (inv1, inv2, inv_empty) = (inv(&c1, "c1"), inv(&c2, "c2"), inv(&empty, "empty"));
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let fnl_empty = FnlIndex::build(Arc::clone(&disk), "empty", &empty).unwrap();
        // Documents without a term: no side holds one, so no term splits
        // the sites, and VVM still runs as one site over every term.
        let blank_docs = vec![Document::from_term_counts([]); 3];
        let blank = Collection::build(Arc::clone(&disk), "blank", blank_docs).unwrap();
        let inv_blank = inv(&blank, "blank");
        let cases = [
            (
                "empty outer selection",
                spec(&c1, &c2, 3).with_outer_docs(OuterDocs::Selected(&none)),
                crate::Indexes::all(&inv1, &inv2, &fnl1),
            ),
            (
                "empty inner collection",
                spec(&empty, &c2, 3),
                crate::Indexes::all(&inv_empty, &inv2, &fnl_empty),
            ),
            (
                "empty outer collection",
                spec(&c1, &empty, 3),
                crate::Indexes::all(&inv1, &inv_empty, &fnl1),
            ),
            (
                "both collections empty",
                spec(&empty, &empty, 3),
                crate::Indexes::all(&inv_empty, &inv_empty, &fnl_empty),
            ),
            (
                "empty inner, termless outer documents",
                spec(&empty, &blank, 3),
                crate::Indexes::all(&inv_empty, &inv_blank, &fnl_empty),
            ),
        ];
        for (case, spec, indexes) in &cases {
            for alg in [
                Algorithm::Hhnl,
                Algorithm::Hvnl,
                Algorithm::Vvm,
                Algorithm::Fnl,
            ] {
                let want = crate::execute(alg, spec, indexes).unwrap();
                let got = execute_sharded(spec, alg, &ShardOptions::new(3)).unwrap();
                let rows = want.result.num_outer_docs();
                assert_eq!(got.outcome.result.num_outer_docs(), rows, "{case}: {alg}");
                assert_eq!(got.outcome.result, want.result, "{case}: {alg}");
                assert_eq!(got.outcome.stats.algorithm, alg, "{case}: {alg}");
                assert_eq!(got.outcome.quality, ResultQuality::Full, "{case}: {alg}");
            }
        }
    }

    #[test]
    fn a_sharded_run_leaves_the_callers_drive_as_it_was() {
        let (disk, c1, c2) = fixture(86);
        let inner_ov = overlay_from(&c1, 2, true);
        let spec = spec(&c1, &c2, 4).with_inner_delta(&inner_ov);
        let files = disk.file_names();
        for alg in [
            Algorithm::Hhnl,
            Algorithm::Hvnl,
            Algorithm::Vvm,
            Algorithm::Fnl,
        ] {
            execute_sharded(&spec, alg, &ShardOptions::new(2)).unwrap();
            assert_eq!(disk.file_names(), files, "{alg}");
        }
    }

    /// VVM's outer file inverts the base documents the spec selects: the
    /// whole store gives the file `InvertedFile::build` writes, byte for
    /// byte, and a selection the postings of its base documents alone.
    #[test]
    fn the_outer_file_inverts_the_selected_base_documents() {
        let (_, c1, c2) = fixture(89);
        let pages = |inv: &InvertedFile| inv.disk().read_run(inv.file(), 0, inv.num_pages());
        let built = |spec| build_indexes(&spec, Algorithm::Vvm).unwrap().1.unwrap();
        let whole = built(spec(&c1, &c2, 4));
        let want = InvertedFile::build(Arc::new(DiskSim::new(512)), "outer", &c2).unwrap();
        assert_eq!(pages(&whole).unwrap(), pages(&want).unwrap());

        let chosen = [3, 17, 29].map(DocId::new);
        let spec = spec(&c1, &c2, 4).with_outer_docs(OuterDocs::Selected(&chosen));
        let base = (chosen.iter()).map(|&id| Ok((id, c2.store().read_doc_direct(id)?)));
        let mut want: Vec<_> = postings_of(base).unwrap().into_iter().collect();
        want.sort_unstable_by_key(|(term, _)| *term);
        let got: Vec<_> = built(spec).scan().collect::<Result<_>>().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn one_vvm_site_is_the_single_node_merge() {
        let (disk, c1, c2) = fixture(88);
        let mut inner_ov = overlay_from(&c1, 6, true);
        flush(&disk, &mut inner_ov);
        inner_ov.insert_tail(
            DocId::new(60),
            c1.store().read_doc_direct(DocId::new(3)).unwrap(),
        );
        let own = Arc::new(DiskSim::new(512));
        let inv1 = InvertedFile::build(Arc::clone(&own), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&own), "c2", &c2).unwrap();
        for weighting in [Weighting::RawCount, Weighting::Cosine, Weighting::TfIdf] {
            for delta in [false, true] {
                let mut spec = spec(&c1, &c2, 5).with_weighting(weighting);
                if delta {
                    spec = spec.with_inner_delta(&inner_ov);
                }
                disk.reset_head();
                let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
                disk.reset_head();
                let got = execute_sharded(&spec, Algorithm::Vvm, &ShardOptions::new(1)).unwrap();
                let case = format!("{weighting:?} delta={delta}");
                assert_eq!(got.outcome.result, want.result, "{case}");
                assert_eq!(got.outcome.stats.io, want.stats.io, "{case}");
                assert_eq!(got.shards.len(), 1, "{case}");
                assert_eq!(got.shards[0].io, want.stats.io, "{case}");
            }
        }
    }

    #[test]
    fn sharded_vvm_ships_the_pages_its_ranges_span() {
        let (disk, c1, c2) = fixture(87);
        let mut inner_ov = overlay_from(&c1, 20, false);
        flush(&disk, &mut inner_ov);
        let side = &inner_ov.flushed().unwrap().inv;
        assert!(side.num_pages() > 1, "the side file must span pages");
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let terms: BTreeSet<u32> = [&inv1, &inv2, side]
            .iter()
            .flat_map(|inv| inv.directory().iter().map(|m| m.term.raw()))
            .collect();
        let inside = |t: u32, &(lo, hi): &(u32, Option<u32>)| lo <= t && hi.is_none_or(|h| t < h);
        // The pages the entries of each range lie on, range by range.
        let spanned = |inv: &InvertedFile, ranges: &[(u32, Option<u32>)]| -> u64 {
            let pages = |range| -> BTreeSet<u64> {
                (inv.directory().iter())
                    .filter(|m| inside(m.term.raw(), range))
                    .flat_map(|m| {
                        let (first, n) = m.span.page_range(512);
                        first..first + n
                    })
                    .collect()
            };
            ranges.iter().map(|range| pages(range).len() as u64).sum()
        };
        for overlay in [None, Some(&inner_ov)] {
            let spec = match overlay {
                Some(ov) => spec(&c1, &c2, 5).with_inner_delta(ov),
                None => spec(&c1, &c2, 5),
            };
            for s in [2usize, 4] {
                for strategy in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
                    let case = format!("S={s} {strategy} overlay={}", overlay.is_some());
                    let opts = ShardOptions::new(s).with_partitioning(strategy);
                    let sites = site_terms(&inv1, &inv2, &opts);
                    assert_eq!(sites.len(), s, "{case}");
                    for &t in &terms {
                        let owners = sites.iter().flatten().filter(|r| inside(t, r)).count();
                        assert_eq!(owners, 1, "{case}: term {t}");
                    }
                    let run = |encoding| {
                        let comm = CommParams {
                            beta: 1.0,
                            encoding,
                        };
                        execute_sharded(&spec, Algorithm::Vvm, &opts.with_comm(comm)).unwrap()
                    };
                    let std_run = run(TermEncoding::StandardNumbers);
                    let act_run = run(TermEncoding::ActualTerms);
                    let passes = std_run.outcome.stats.passes;
                    let mut inner_total = 0;
                    let reports = std_run.shards.iter().zip(&act_run.shards);
                    for ((site, act), ranges) in reports.zip(&sites) {
                        let inner_pages = spanned(&inv1, ranges);
                        let pages = inner_pages + overlay.map_or(0, |_| spanned(side, ranges));
                        // What ships in pays the blowup; the partial tables
                        // ship out as standard numbers either way.
                        let blown = act.shipped_pages - site.shipped_pages;
                        assert_eq!(blown, 4 * pages, "{case} site {}", site.shard);
                        assert!(site.shipped_pages >= pages, "{case} site {}", site.shard);
                        // Every pass reads exactly what the ranges span.
                        let read = pages + spanned(&inv2, ranges);
                        assert_eq!(site.io.total_reads(), passes * read, "{case}");
                        inner_total += inner_pages;
                    }
                    // Neighbours share at most one boundary page.
                    let bound = inv1.num_pages()..=inv1.num_pages() + s as u64 - 1;
                    assert!(bound.contains(&inner_total), "{case}: {inner_total}");
                }
            }
        }
    }

    #[test]
    fn a_traced_sharded_call_splits_its_time_by_phase() {
        let (_, c1, c2) = fixture(89);
        let phases = [
            "shard.index_build",
            "shard.site_build",
            "shard.sites",
            "shard.merge",
        ];
        for alg in [
            Algorithm::Hhnl,
            Algorithm::Hvnl,
            Algorithm::Vvm,
            Algorithm::Fnl,
        ] {
            let tracer = Tracer::enabled(64);
            let spec = spec(&c1, &c2, 4).with_trace(&tracer);
            let got = execute_sharded(&spec, alg, &ShardOptions::new(2)).unwrap();
            // The four phases, in order, and nothing from the sites.
            let spans = tracer.finished();
            let names: Vec<&str> = spans.iter().map(|span| span.name).collect();
            assert_eq!(names, phases, "{alg}");
            let traced: u64 = spans.iter().map(|span| span.dur_us * 1000).sum();
            assert!(
                traced <= got.outcome.stats.wall_ns,
                "{alg}: {traced} ns traced"
            );
        }
    }

    /// Moves `ov`'s live inserts into side files on `disk`, as a flush does.
    fn flush(disk: &Arc<DiskSim>, ov: &mut DeltaOverlay) {
        let docs = ov.live_docs().unwrap();
        let mut store = DocumentStoreBuilder::new(Arc::clone(disk), "delta.docs").unwrap();
        for (id, doc) in &docs {
            store.add_with_id(*id, doc).unwrap();
        }
        let postings = postings_of(docs.iter().map(|(id, doc)| Ok((*id, doc)))).unwrap();
        let codec = PostingCodec::Fixed5;
        let inv = InvertedFile::from_postings_with(Arc::clone(disk), "delta", postings, codec);
        let inv = inv.unwrap();
        ov.set_flushed(FlushedDelta {
            store: store.finish().unwrap(),
            inv,
        });
    }

    /// An overlay over `c`: `insert` tail documents (copies of existing
    /// ones under fresh ids past the base range) and optionally one
    /// tombstone on the first base document.
    fn overlay_from(c: &Collection, insert: u32, delete: bool) -> textjoin_invfile::DeltaOverlay {
        let store = c.store();
        let mut ov = textjoin_invfile::DeltaOverlay::new();
        let n = store.num_docs();
        for k in 0..insert {
            let src = store.doc_at((k as u64 % n) as usize);
            let doc = store.read_doc_direct(src).unwrap();
            ov.insert_tail(DocId::new(n as u32 + k), doc);
        }
        if delete {
            ov.delete(store.doc_at(0));
        }
        ov
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The acceptance sweep: every algorithm × λ∈{1,5,20} × S∈{1,2,4},
        /// both boundary strategies, with and without an inner delta overlay and
        /// degraded mode, and the three weightings for the document sites
        /// and for one VVM site (several VVM sites add fractional weights
        /// part by part, a reassociation of the single-node sums, so VVM at
        /// S > 1 stays on raw counts) — sharded results byte-identical to a
        /// single-node run of the same algorithm over the same spec.
        #[test]
        fn sharded_equals_single_node_over_the_grid(
            alg in prop_oneof![
                Just(Algorithm::Hhnl),
                Just(Algorithm::Hvnl),
                Just(Algorithm::Vvm),
                Just(Algorithm::Fnl),
            ],
            weighting in prop_oneof![
                Just(Weighting::RawCount),
                Just(Weighting::Cosine),
                Just(Weighting::TfIdf),
            ],
            lambda in prop_oneof![Just(1usize), Just(5), Just(20)],
            s in prop_oneof![Just(1usize), Just(2), Just(4)],
            naive in proptest::bool::ANY,
            with_delta in proptest::bool::ANY,
            degraded in proptest::bool::ANY,
            seed in 80u64..84,
        ) {
            let (disk, c1, c2) = fixture(seed);
            let inner_ov = overlay_from(&c1, 2, true);
            let weighting = if alg == Algorithm::Vvm && s > 1 {
                Weighting::RawCount
            } else {
                weighting
            };
            let mut base = spec(&c1, &c2, lambda).with_weighting(weighting);
            if with_delta {
                base = base.with_inner_delta(&inner_ov);
            }
            if degraded {
                base = base.with_degraded();
            }
            let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
            let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
            let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
            let want = crate::execute(alg, &base, &crate::Indexes::all(&inv1, &inv2, &fnl1))
                .map_err(|err| TestCaseError::fail(err.to_string()))?;
            let strategy = if naive {
                ShardPartitioning::Naive
            } else {
                ShardPartitioning::SkewAware
            };
            let opts = ShardOptions::new(s).with_partitioning(strategy);
            let got = execute_sharded(&base, alg, &opts)
                .map_err(|err| TestCaseError::fail(err.to_string()))?;
            prop_assert_eq!(
                &got.outcome.result, &want.result,
                "{} {:?} λ={} S={} {} delta={} degraded={}",
                alg, weighting, lambda, s, strategy, with_delta, degraded
            );
            // Clean runs stay clean: no skips means Full on every site.
            prop_assert_eq!(got.outcome.quality, ResultQuality::Full);
        }
    }
}
