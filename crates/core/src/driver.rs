//! The pass driver: one loop of passes for every algorithm and every batch
//! size.
//!
//! The paper defines each algorithm as passes over shared structures —
//! HHNL's `⌈N2/X⌉` inner scans (section 4.1), HVNL's one outer pass against
//! an entry cache (4.2), VVM's `⌈SM/M⌉` merge passes (4.3). An algorithm
//! here is exactly that and nothing else: a [`Passes`] implementation with
//! `prepare → next_pass → finish`, written once over `&[JoinSpec]`.
//! [`drive`] owns everything around the passes: batch validation, the I/O
//! baseline, the shared [`MemTracker`], the root and phase spans, the one
//! cooperative [`Checkpoint`] (ticket pages, per-query cancel latch,
//! cost-budget watchdog), degraded-skip accounting and the assembly of
//! [`ExecStats`] / [`BatchOutcome`].
//!
//! A partitioned run is the same run handed *parts* — the sites of the
//! sharded executors, and nothing else. [`run_parts`] is the one place
//! they fan out: one part runs on the calling thread, several run on one
//! scoped thread each. Inside a driven run [`Run::parts`] brackets each
//! part with the exact I/O it caused; [`merge_outcomes`] is the one place
//! whole-join outcomes of sites fan back in.
//!
//! A single query is a batch of one: with `N = 1` the concatenated outer
//! stream is the query's own stream, the aggregated eviction demand is its
//! own outer document frequency, the pooled partition estimate is its own
//! `⌈SM/M⌉`, and the batch statistics are the query's statistics. The
//! sequential entry points call [`drive_one`]; `batch::execute_*` call
//! [`drive`], and [`execute`] is `batch::execute` of one through [`sole`].

use crate::batch::BatchOutcome;
use crate::report::observe_phase_sim_io;
use crate::result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
use crate::spec::{JoinSpec, OuterDocs};
use crate::topk::TopK;
use std::time::Instant;
use textjoin_collection::Document;
use textjoin_common::{DocId, Error, Result};
use textjoin_costmodel::Algorithm;
use textjoin_invfile::{DeltaOverlay, FnlIndex, InvertedFile};
use textjoin_obs::{QueryTicket, Span, Tracer};
use textjoin_storage::{DiskSim, IoStats, MemTracker};

/// One result row: an outer document and its λ best inner matches.
pub(crate) type Row = (DocId, Vec<Match>);

/// An algorithm as the driver sees it. `prepare` reserves the fixed memory
/// and loads whatever stays resident for the whole run; `next_pass` runs
/// one pass over the shared structures and reports whether there was one
/// to run; `finish` flushes anything held across passes.
pub(crate) trait Passes<'r>: Sized {
    /// The index files and tuning options the algorithm runs against.
    type Input;
    /// The tag on the statistics and the name of the root span; pass
    /// labels on live tickets derive from the name.
    fn tags(input: &Self::Input) -> (Algorithm, &'static str);

    fn prepare(input: Self::Input, run: &mut Run<'r>) -> Result<Self>;
    fn next_pass(&mut self, run: &mut Run<'r>) -> Result<bool>;
    fn finish(self, _run: &mut Run<'r>) -> Result<()> {
        Ok(())
    }
}

/// Runs `P` over a batch of `N ≥ 1` queries sharing one collection pair.
pub(crate) fn drive<'r, P: Passes<'r>>(
    specs: &'r [JoinSpec<'r>],
    input: P::Input,
) -> Result<BatchOutcome> {
    validate(specs)?;
    let started = Instant::now();
    let spec0 = &specs[0];
    let disk = spec0.inner.store().disk();
    let (algorithm, root) = P::tags(&input);
    let mut run = Run {
        specs,
        tracker: MemTracker::new(&spec0.sys),
        queries: specs.iter().map(|_| QueryRun::default()).collect(),
        shared_skipped_docs: 0,
        shared_skipped_entries: 0,
        root: Tracer::maybe(spec0.trace, root),
        disk,
        start_io: disk.stats(),
        thread_base: DiskSim::thread_io_stats(),
        parts_io: IoStats::default(),
        parts_high_water: 0,
        checkpoint: Checkpoint::new(specs),
    };
    let mut passes = 0u64;
    let mut alg = P::prepare(input, &mut run)?;
    // A pass boundary is the natural checkpoint grain: each pass costs
    // about one scan of the shared structure, so drift shows early. A
    // cancel winds the run down here with the rows scored so far; budget
    // overruns propagate as errors.
    while alg.next_pass(&mut run)? {
        passes += 1;
        if run.checkpoint(|| format!("{root}.pass {passes}"))? {
            break;
        }
    }
    alg.finish(&mut run)?;
    Ok(run.into_outcome(algorithm, root, passes, started))
}

/// [`drive`] for a single query: the batch of one, with the batch's
/// statistics (the real I/O) as the query's own.
pub(crate) fn drive_one<'r, P: Passes<'r>>(
    spec: &'r JoinSpec<'r>,
    input: P::Input,
) -> Result<JoinOutcome> {
    drive::<P>(std::slice::from_ref(spec), input).map(sole)
}

/// The outcome of a batch of one as a single-query outcome.
pub(crate) fn sole(mut batch: BatchOutcome) -> JoinOutcome {
    let query = batch.queries.pop().expect("one outcome per spec");
    JoinOutcome {
        result: query.result,
        quality: query.quality,
        stats: batch.stats,
    }
}

/// Checks the batch invariants: non-empty, one collection pair, one set of
/// system parameters, one degraded flag, one delta overlay per side. The
/// shared scans serve every query from the same base+delta view, so a
/// query with a different overlay would see phantom or missing documents.
/// And every selection, on either side, is strictly ascending: the
/// executors look ids up by binary search and size their tables by the
/// last one.
pub(crate) fn validate(specs: &[JoinSpec<'_>]) -> Result<()> {
    for (i, s) in specs.iter().enumerate() {
        let outer = match s.outer_docs {
            OuterDocs::Full => None,
            OuterDocs::Selected(ids) => Some(("outer", ids)),
        };
        for (side, ids) in outer
            .into_iter()
            .chain(s.inner_docs.map(|ids| ("inner", ids)))
        {
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::InvalidArgument(format!(
                    "query {i}: the {side} document ids are not strictly ascending"
                )));
            }
        }
    }
    fn same_delta(a: Option<&DeltaOverlay>, b: Option<&DeltaOverlay>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => std::ptr::eq(x, y),
            _ => false,
        }
    }
    let first = specs
        .first()
        .ok_or_else(|| Error::InvalidArgument("batch is empty".into()))?;
    for (i, s) in specs.iter().enumerate().skip(1) {
        if !std::ptr::eq(s.inner, first.inner) || !std::ptr::eq(s.outer, first.outer) {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} targets a different collection pair"
            )));
        }
        if s.sys != first.sys {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has different system parameters"
            )));
        }
        if s.degraded != first.degraded {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has a different degraded flag"
            )));
        }
        if !same_delta(s.inner_delta, first.inner_delta) {
            return Err(Error::InvalidArgument(format!(
                "batch query {i} has a different delta overlay"
            )));
        }
    }
    Ok(())
}

/// CPU work, lookup accounting and degraded-mode skips attributable to one
/// query of a run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) entry_fetches: u64,
    pub(crate) cache_hits: u64,
    pub(crate) sim_ops: u64,
    pub(crate) cells_touched: u64,
    pub(crate) skipped_docs: u64,
    pub(crate) skipped_entries: u64,
}

impl Counters {
    fn add_to(&self, stats: &mut ExecStats) {
        stats.entry_fetches += self.entry_fetches;
        stats.cache_hits += self.cache_hits;
        stats.sim_ops += self.sim_ops;
        stats.cells_touched += self.cells_touched;
        stats.skipped_docs += self.skipped_docs;
        stats.skipped_entries += self.skipped_entries;
    }
}

/// What one query accumulates while the run's passes go by.
#[derive(Default)]
pub(crate) struct QueryRun {
    pub(crate) rows: Vec<Row>,
    /// Passes this query had documents in.
    pub(crate) passes: u64,
    pub(crate) counters: Counters,
}

/// The one cooperative checkpoint. Each observation feeds the live
/// tickets, latches freshly-set cancel tokens and runs the cost-budget
/// watchdog.
///
/// A cancel is per query: the latched query stops consuming shared passes
/// while its siblings keep running, results untouched (each sibling's
/// scores depend only on its own (query, document) pairs). Shared-scan I/O
/// cannot be attributed to one query honestly, so the page delta is split
/// equally across the queries still live — the tickets' sum tracks the
/// real cost. The watchdog compares the run's cost with the *sum* of the
/// queries' budgets and is disarmed as soon as one query carries none.
pub(crate) struct Checkpoint {
    reported: f64,
    cancelled: Vec<bool>,
    budget: Option<f64>,
    /// Whether any spec carries a token, ticket or budget; when not,
    /// callers skip the observation entirely.
    armed: bool,
}

impl Checkpoint {
    pub(crate) fn new(specs: &[JoinSpec<'_>]) -> Self {
        let budget = specs.iter().map(|s| s.cost_budget).sum::<Option<f64>>();
        Self {
            reported: 0.0,
            cancelled: vec![false; specs.len()],
            budget,
            armed: budget.is_some()
                || specs
                    .iter()
                    .any(|s| s.cancel.is_some() || s.ticket.is_some()),
        }
    }

    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// `own` is the page cost (`seq + α·rand`) this run has caused so far,
    /// from thread-local tallies so concurrent runs on one disk never
    /// double-count; `cost` is what the run sees on the shared disk and is
    /// what the watchdog judges. Returns `true` once every query is
    /// cancelled — the caller stops the shared scan — and
    /// [`Error::CostOverrun`] when the budget is exceeded.
    pub(crate) fn observe(
        &mut self,
        specs: &[JoinSpec<'_>],
        own: f64,
        cost: f64,
        phase: impl Fn() -> String,
    ) -> Result<bool> {
        let live = self.cancelled.iter().filter(|c| !**c).count().max(1) as f64;
        let share = (own - self.reported).max(0.0) / live;
        self.reported = self.reported.max(own);
        for (spec, cancelled) in specs.iter().zip(&mut self.cancelled) {
            if *cancelled {
                continue;
            }
            if let Some(ticket) = spec.ticket {
                feed_ticket(ticket, share, phase());
            }
            *cancelled = spec.cancel.is_some_and(|c| c.is_cancelled());
        }
        if self.cancelled.iter().all(|&c| c) {
            return Ok(true);
        }
        match self.budget {
            Some(budget) if cost > budget => Err(Error::CostOverrun {
                observed_pages: cost.ceil() as u64,
                budget_pages: budget.ceil() as u64,
            }),
            _ => Ok(false),
        }
    }
}

/// Reports `pages` more page cost and the current phase to a live ticket.
pub(crate) fn feed_ticket(ticket: &QueryTicket, pages: f64, phase: String) {
    ticket.add_pages(pages);
    ticket.set_phase(phase);
}

/// The state of one driven run, handed to every [`Passes`] method.
pub(crate) struct Run<'r> {
    pub(crate) specs: &'r [JoinSpec<'r>],
    pub(crate) tracker: MemTracker,
    /// Per-query accumulation, parallel to `specs`.
    pub(crate) queries: Vec<QueryRun>,
    /// Skips on a structure every query reads through (the inner scan, an
    /// inverted entry): they degrade all queries of the run.
    pub(crate) shared_skipped_docs: u64,
    pub(crate) shared_skipped_entries: u64,
    pub(crate) root: Span<'r>,
    /// Peak bytes held against per-part budgets. A merge gives each part
    /// a budget of its own (a site's `B`) instead of charging `tracker`;
    /// concurrent parts peak together, so their high-waters add.
    pub(crate) parts_high_water: u64,
    /// The shared drive, as the watchdog and the phase spans see it.
    disk: &'r DiskSim,
    start_io: IoStats,
    /// The calling thread's own tally when the run started; with
    /// `parts_io` it makes the run's I/O exact whoever else reads the
    /// drive and whichever drive a part reads (a site's).
    thread_base: IoStats,
    /// I/O of the parts that ran on other threads.
    parts_io: IoStats,
    checkpoint: Checkpoint,
}

impl<'r> Run<'r> {
    /// Whether query `si`'s cancel token has been latched.
    pub(crate) fn cancelled(&self, si: usize) -> bool {
        self.checkpoint.cancelled[si]
    }

    /// Bytes of the one λ-heap alive at a time when rows are emitted one
    /// outer document after another: the largest λ of the run.
    pub(crate) fn result_heap_bytes(&self) -> u64 {
        self.specs
            .iter()
            .map(|s| TopK::budget_bytes(s.query.lambda))
            .max()
            .unwrap_or(0)
    }

    fn sim_ops(&self) -> u64 {
        self.queries.iter().map(|q| q.counters.sim_ops).sum()
    }

    /// The I/O this run has caused: the driving thread's plus its parts'.
    fn io(&self) -> IoStats {
        let mut io = DiskSim::thread_io_stats().since(&self.thread_base);
        io.merge(&self.parts_io);
        io
    }

    /// [`run_parts`] inside a driven run: each part comes back with the
    /// I/O it caused, which also counts into the run's statistics and
    /// checkpoint, however the part's work ended. The thread-local tally is
    /// bumped under the same lock as a drive's global counters, so a
    /// bracketed delta is exactly that part's traffic and the deltas of
    /// parts sharing a drive sum to the drive's delta.
    pub(crate) fn parts<P: Sync, T: Send>(
        &mut self,
        parts: &[P],
        work: impl Fn(usize, &P) -> T + Sync,
    ) -> Vec<(T, IoStats)> {
        let done = run_parts(parts, |k, part| {
            let before = DiskSim::thread_io_stats();
            let out = work(k, part);
            (out, DiskSim::thread_io_stats().since(&before))
        });
        // A lone part ran on this thread, whose tally already has its I/O.
        if done.len() > 1 {
            for (_, io) in &done {
                self.parts_io.merge(io);
            }
        }
        done
    }

    /// Runs `body` as one named phase: a child span of the root carrying
    /// the phase's page reads and similarity operations (plus whatever
    /// `body` records on it), observed into the `phase.sim_io_ns` metric.
    pub(crate) fn phase<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self, &mut Span<'r>) -> Result<T>,
    ) -> Result<T> {
        let mut span = self.root.child(name);
        let before = span
            .is_enabled()
            .then(|| (self.disk.stats(), self.sim_ops()));
        let out = body(self, &mut span)?;
        if let Some((io_before, ops_before)) = before {
            let spec0 = &self.specs[0];
            let d = self.disk.stats().since(&io_before);
            span.record("seq_reads", d.seq_reads);
            span.record("rand_reads", d.rand_reads);
            span.record("sim_ops", self.sim_ops() - ops_before);
            observe_phase_sim_io(spec0.trace, name, &d, spec0.sys.alpha);
        }
        Ok(out)
    }

    /// The run's cooperative checkpoint; see [`Checkpoint::observe`].
    pub(crate) fn checkpoint(&mut self, phase: impl Fn() -> String) -> Result<bool> {
        if !self.checkpoint.armed() {
            return Ok(false);
        }
        let alpha = self.specs[0].sys.alpha;
        let own = self.io().cost(alpha);
        let cost = self.disk.stats().since(&self.start_io).cost(alpha);
        self.checkpoint.observe(self.specs, own, cost, phase)
    }

    /// Batch stats carry the real I/O and the summed counters; per-query
    /// stats carry each query's own counters with zero I/O (shared scans
    /// cannot be split honestly). A skip on a shared structure degrades
    /// every query; a cancelled query's rows are the prefix it accumulated
    /// before its token was latched.
    fn into_outcome(
        mut self,
        algorithm: Algorithm,
        root: &'static str,
        passes: u64,
        started: Instant,
    ) -> BatchOutcome {
        let spec0 = &self.specs[0];
        let io = self.io();
        let mut stats = ExecStats {
            io,
            cost: io.cost(spec0.sys.alpha),
            mem_high_water_bytes: self.tracker.high_water() + self.parts_high_water,
            passes,
            skipped_docs: self.shared_skipped_docs,
            skipped_entries: self.shared_skipped_entries,
            ..ExecStats::zero(algorithm)
        };
        for q in &self.queries {
            q.counters.add_to(&mut stats);
        }
        if self.root.is_enabled() {
            self.root.record("passes", passes);
            self.root.record("seq_reads", io.seq_reads);
            self.root.record("rand_reads", io.rand_reads);
            self.root.record("sim_ops", stats.sim_ops);
            observe_phase_sim_io(spec0.trace, root, &io, spec0.sys.alpha);
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        stats.wall_ns = wall_ns;
        let shared_partial = self.shared_skipped_docs + self.shared_skipped_entries > 0;
        let queries = std::mem::take(&mut self.queries)
            .into_iter()
            .enumerate()
            .map(|(si, q)| {
                let mut own = ExecStats {
                    passes: q.passes,
                    wall_ns,
                    ..ExecStats::zero(algorithm)
                };
                q.counters.add_to(&mut own);
                let quality = if self.cancelled(si) || shared_partial {
                    ResultQuality::Partial
                } else {
                    own.quality()
                };
                JoinOutcome {
                    result: JoinResult::from_rows(q.rows),
                    stats: own,
                    quality,
                }
            })
            .collect();
        BatchOutcome { queries, stats }
    }
}

/// Runs `work` on every part of a partitioned run and returns the outputs
/// in part order. One part runs on the calling thread; several run
/// concurrently on one scoped thread each.
pub(crate) fn run_parts<P: Sync, T: Send>(
    parts: &[P],
    work: impl Fn(usize, &P) -> T + Sync,
) -> Vec<T> {
    if let [part] = parts {
        return vec![work(0, part)];
    }
    let work = &work;
    std::thread::scope(|s| {
        let spawn = |(k, part)| s.spawn(move || work(k, part));
        let handles: Vec<_> = parts.iter().enumerate().map(spawn).collect();
        let join = |h: std::thread::ScopedJoinHandle<T>| h.join().expect("part panicked");
        handles.into_iter().map(join).collect()
    })
}

/// Merges the outcomes of parts that each ran a whole join over a disjoint
/// slice of the outer documents: the rows concatenate, counters add —
/// memory high-waters included, the parts ran concurrently — and one
/// `Partial` part makes the whole `Partial` (a cancelled part bumps no
/// skip counter, so the tags are OR-ed, not re-derived). The caller stamps
/// the wall time.
pub(crate) fn merge_outcomes(
    algorithm: Algorithm,
    outcomes: impl IntoIterator<Item = JoinOutcome>,
) -> JoinOutcome {
    let mut rows: Vec<Row> = Vec::new();
    let mut stats = ExecStats::zero(algorithm);
    let mut any_partial = false;
    for outcome in outcomes {
        any_partial |= outcome.quality == ResultQuality::Partial;
        stats += &outcome.stats;
        rows.extend(outcome.result.iter().map(|(id, m)| (id, m.to_vec())));
    }
    JoinOutcome {
        result: JoinResult::from_rows(rows),
        quality: if any_partial {
            ResultQuality::Partial
        } else {
            stats.quality()
        },
        stats,
    }
}

type DocIter<'r> = Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'r>;

/// One document resident in a memory round, tagged with its query.
pub(crate) struct Resident<X> {
    pub(crate) query: usize,
    pub(crate) id: DocId,
    pub(crate) doc: Document,
    /// What the algorithm keeps next to the document (its λ-heap, its
    /// rank-cell encoding).
    pub(crate) extra: X,
}

/// The concatenated document stream that feeds the nested loops' memory
/// rounds: query 0's documents, then query 1's, and so on. A round that
/// has room left after one query's stream ends keeps filling from the
/// next — that is where the pooled `⌈Σ N2ᵢ/Xᵢ⌉` saving over
/// `Σ ⌈N2ᵢ/Xᵢ⌉` comes from.
pub(crate) struct DocStream<'r> {
    iters: Vec<DocIter<'r>>,
    next: usize,
    /// A document pulled from the stream that did not fit the previous
    /// round; it leads the next one.
    pending: Option<(usize, DocId, Document)>,
}

impl<'r> DocStream<'r> {
    /// A stream over one document iterator per query of the run.
    pub(crate) fn new(iters: Vec<DocIter<'r>>) -> Self {
        Self {
            iters,
            next: 0,
            pending: None,
        }
    }

    /// Every query's participating outer documents.
    pub(crate) fn outer(specs: &[JoinSpec<'r>]) -> Self {
        Self::new(specs.iter().map(|s| s.outer_iter()).collect())
    }

    /// The next readable document of a query that is still live. A
    /// freshly-cancelled query's stream stops feeding rounds here (its held
    /// pending document included), while siblings fill the freed space.
    fn pull(&mut self, run: &mut Run<'r>) -> Result<Option<(usize, DocId, Document)>> {
        if let Some(held) = self.pending.take() {
            if !run.cancelled(held.0) {
                return Ok(Some(held));
            }
        }
        while self.next < self.iters.len() {
            let si = self.next;
            if run.cancelled(si) {
                self.next += 1;
                continue;
            }
            match self.iters[si].next() {
                None => self.next += 1,
                Some(Ok((id, doc))) => return Ok(Some((si, id, doc))),
                Some(Err(e)) if run.specs[si].skippable(&e) => {
                    run.queries[si].counters.skipped_docs += 1;
                }
                Some(Err(e)) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Fills one memory round: pulls documents until the tracker refuses
    /// the next one. `admit` prices a document (its own bytes plus whatever
    /// rides along) and builds the companion value. Returns the residents
    /// and the bytes charged for them (the caller releases those after the
    /// pass); an empty round means the stream is exhausted.
    pub(crate) fn fill_round<X>(
        &mut self,
        run: &mut Run<'r>,
        what: &str,
        mut admit: impl FnMut(usize, &Document) -> (u64, X),
    ) -> Result<(Vec<Resident<X>>, u64)> {
        let mut round: Vec<Resident<X>> = Vec::new();
        let mut round_bytes = 0u64;
        while let Some((query, id, doc)) = self.pull(run)? {
            let (need, extra) = admit(query, &doc);
            if run.tracker.allocate(need, what).is_err() {
                if round.is_empty() {
                    let sys = &run.specs[0].sys;
                    return Err(Error::InsufficientMemory {
                        context: format!("{what} cannot hold even one document"),
                        required_pages: (run.tracker.used().saturating_add(need))
                            .div_ceil(sys.page_size as u64),
                        available_pages: sys.buffer_pages,
                    });
                }
                self.pending = Some((query, id, doc));
                break;
            }
            round_bytes += need;
            round.push(Resident {
                query,
                id,
                doc,
                extra,
            });
        }
        // The stream is concatenated, so a query's residents are adjacent.
        let mut last = usize::MAX;
        for r in &round {
            if r.query != last {
                run.queries[r.query].passes += 1;
                last = r.query;
            }
        }
        Ok((round, round_bytes))
    }
}

/// The index files the algorithms run against. An entry point that needs
/// one that is absent reports [`Error::InvalidArgument`].
#[derive(Clone, Copy, Default)]
pub struct Indexes<'a> {
    /// Inverted file of the inner collection (HVNL, VVM).
    pub inner_inv: Option<&'a InvertedFile>,
    /// Inverted file of the outer collection (VVM).
    pub outer_inv: Option<&'a InvertedFile>,
    /// Signature index of the inner collection (FNL).
    pub fnl: Option<&'a FnlIndex>,
}

impl<'a> Indexes<'a> {
    /// All three index files.
    pub fn all(
        inner_inv: &'a InvertedFile,
        outer_inv: &'a InvertedFile,
        fnl: &'a FnlIndex,
    ) -> Self {
        Self {
            inner_inv: Some(inner_inv),
            outer_inv: Some(outer_inv),
            fnl: Some(fnl),
        }
    }

    pub(crate) fn inner_inv(&self) -> Result<&'a InvertedFile> {
        required(self.inner_inv, "inner inverted file")
    }

    pub(crate) fn outer_inv(&self) -> Result<&'a InvertedFile> {
        required(self.outer_inv, "outer inverted file")
    }

    pub(crate) fn fnl(&self) -> Result<&'a FnlIndex> {
        required(self.fnl, "signature index")
    }
}

fn required<T>(index: Option<T>, what: &str) -> Result<T> {
    index.ok_or_else(|| Error::InvalidArgument(format!("no {what} supplied")))
}

/// Executes one query with `algorithm`, on the calling thread: the batch
/// of one, [`batch::execute`](crate::batch::execute) over `spec` alone.
pub fn execute(
    algorithm: Algorithm,
    spec: &JoinSpec<'_>,
    indexes: &Indexes<'_>,
) -> Result<JoinOutcome> {
    crate::batch::execute(algorithm, std::slice::from_ref(spec), indexes).map(sole)
}
