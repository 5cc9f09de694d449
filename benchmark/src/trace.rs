//! The traced pass: one span per call into a layer, and from those calls
//! the per-layer metrics.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions on the workload's own files. The only spans that come from
//! inside the program are the phase spans its executors already emit on a
//! `Tracer`, adopted as children of `run.<algorithm>`.

use crate::alloc::counted;
use crate::catalogue::{per_layer, On};
use crate::ops::{forced, front_door, Checker, Observed, ALGORITHMS};
use crate::run::{Metric, Report};
use crate::sample::{summarize, Summary};
use crate::span::{check_forest, SpanLog, SpanRec};
use crate::workload::{derive, Feed, Fixture, Inputs, Rng, View, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use textjoin_collection::{Collection, Document, TermRegistry};
use textjoin_common::{DocId, Result, Score};
use textjoin_core::{
    batch, execute_sharded, topk::merge_lists, Algorithm, BatchOptions, ExecStats, IoScenario,
    ShardOptions, TopK, Weighting,
};
use textjoin_costmodel::CostEstimates;
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_live::LiveCollection;
use textjoin_obs::{LiveRegistry, MetricValue, Registry, Tracer};
use textjoin_storage::{disk::crc32, BufferPool, DiskMetrics, DiskSim, Prefetcher};

/// The traced pass's result: the per-layer report and the spans behind it.
pub struct Traced {
    pub report: Report,
    pub spans: Vec<SpanRec>,
}

#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

/// Runs `f` inside a `probe.<name>` span; returns its result and seconds.
fn probe<T>(log: &SpanLog, name: &str, f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let span_name = format!("probe.{name}");
    let _span = log.enter(&span_name);
    let started = Instant::now();
    let out = f()?;
    Ok((out, started.elapsed().as_secs_f64()))
}

fn fresh(disk: &DiskSim) {
    disk.reset_stats();
    disk.reset_head();
}

/// What the forced runs leave for the metrics derived from them.
struct Forced {
    /// Seconds of the plain (nothing attached) run, per algorithm.
    plain_s: [f64; 4],
    stats: [ExecStats; 4],
}

/// Each algorithm plain — the clock `ns_per_cell`, `regret` and the
/// tracing overhead are taken against — and then with the program's
/// `Tracer`, `DiskMetrics` and allocation counting attached, inside
/// `run.<alg>`.
fn forced_runs(
    fx: &Fixture,
    view: &View<'_>,
    log: &SpanLog,
    checker: &mut Checker,
    v: &mut Values,
) -> Result<Forced> {
    let mut plain_s = [0.0; 4];
    let mut traced_s = [0.0; 4];
    let mut stats = [ExecStats::zero(Algorithm::Hhnl); 4];
    let (mut issued, mut wasted) = (0u64, 0u64);
    for (i, (alg, name)) in ALGORITHMS.into_iter().enumerate() {
        // As in `run`, the first call of an algorithm is a discarded
        // warm-up — it runs measurably slower than every later one — and
        // the better of two samples is kept.
        plain_s[i] = f64::INFINITY;
        for warm_up in [true, false, false] {
            fresh(&fx.disk);
            let started = Instant::now();
            let outcome = forced(view, alg, 1, None);
            if !warm_up {
                plain_s[i] = plain_s[i].min(started.elapsed().as_secs_f64());
            }
            checker.join(&outcome);
        }

        let registry = Arc::new(Registry::new());
        let disk_metrics = DiskMetrics::register(&registry, name);
        fx.disk.set_metrics(Some(disk_metrics.clone()));
        fresh(&fx.disk);
        let span_name = format!("run.{name}");
        let span = log.enter(&span_name);
        let tracer_epoch_ns = log.now_ns();
        let tracer = Tracer::with_registry(1 << 16, Arc::clone(&registry));
        let started = Instant::now();
        let (outcome, allocs, alloc_bytes) = counted(|| forced(view, alg, 1, Some(&tracer)));
        traced_s[i] = started.elapsed().as_secs_f64();
        let foreign: Vec<SpanRec> = tracer
            .finished()
            .into_iter()
            .map(|s| {
                let start_ns = tracer_epoch_ns + s.start_us * 1_000;
                SpanRec {
                    id: s.id,
                    parent: s.parent,
                    name: s.name.to_string(),
                    start_ns,
                    end_ns: start_ns + s.dur_us * 1_000,
                }
            })
            .collect();
        log.adopt(&span, &foreign);
        drop(span);
        fx.disk.set_metrics(None);
        checker.join(&outcome);
        let st = outcome?.stats;
        stats[i] = st;

        for m in registry.snapshot() {
            if let MetricValue::Counter(n) = m.value {
                match m.name {
                    "prefetch.issued" => issued += n,
                    "prefetch.wasted" => wasted += n,
                    _ => {}
                }
            }
        }
        let busy_ns = disk_metrics.read_wall_ns().sum() as f64;
        v.put(
            format!("storage.disk.busy_pct.{name}"),
            100.0 * busy_ns / (traced_s[i] * 1e9),
        );
        let cells = st.cells_touched.max(1) as f64;
        v.put(format!("core.{name}.passes"), st.passes as f64);
        v.put(
            format!("core.{name}.cells_touched"),
            st.cells_touched as f64,
        );
        v.put(format!("core.{name}.sim_ops"), st.sim_ops as f64);
        v.put(
            format!("core.{name}.useful_pct"),
            100.0 * st.sim_ops as f64 / cells,
        );
        v.put(format!("core.{name}.ns_per_cell"), plain_s[i] * 1e9 / cells);
        v.put(format!("core.{name}.pages_seq"), st.io.seq_reads as f64);
        v.put(format!("core.{name}.pages_rand"), st.io.rand_reads as f64);
        v.put(
            format!("core.{name}.mem_high_water_kb"),
            st.mem_high_water_bytes as f64 / 1024.0,
        );
        v.put(format!("core.{name}.allocs"), allocs as f64);
        v.put(
            format!("core.{name}.alloc_mb"),
            alloc_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    let hvnl = &stats[1];
    v.put("core.hvnl.entry_fetches", hvnl.entry_fetches as f64);
    v.put(
        "core.hvnl.cache_hit_pct",
        100.0 * hvnl.cache_hits as f64 / (hvnl.cache_hits + hvnl.entry_fetches).max(1) as f64,
    );
    v.put(
        "storage.prefetch.wasted_pct",
        100.0 * wasted as f64 / issued.max(1) as f64,
    );
    let (plain, traced): (f64, f64) = (plain_s.iter().sum(), traced_s.iter().sum());
    v.put("trace.overhead_pct", 100.0 * (traced - plain) / plain);
    Ok(Forced { plain_s, stats })
}

/// The other execution modes: two workers, a batch of four, two sites.
fn modes(
    fx: &Fixture,
    view: &View<'_>,
    log: &SpanLog,
    checker: &mut Checker,
    v: &mut Values,
) -> Result<()> {
    for (alg, name) in ALGORITHMS {
        fresh(&fx.disk);
        let span_name = format!("run.{name}.w2");
        let (outcome, secs) = {
            let _s = log.enter(&span_name);
            let started = Instant::now();
            let outcome = forced(view, alg, 2, None);
            (outcome, started.elapsed().as_secs_f64())
        };
        checker.join(&outcome);
        let st = outcome?.stats;
        v.put(format!("core.parallel.{name}_w2_s"), secs);
        v.put(format!("core.parallel.{name}_w2_pages"), st.cost);
    }

    // Four queries differing in k on one shared outer pass; the one with
    // the workload's own k must be the reference.
    let lambdas = [5, 10, 20, 40];
    let specs: Vec<_> = lambdas
        .iter()
        .map(|&l| view.spec().with_query(view.query.with_lambda(l)))
        .collect();
    fresh(&fx.disk);
    let (out, secs) = {
        let _s = log.enter("run.batch.n4");
        let started = Instant::now();
        let out = batch::execute_hvnl(&specs, view.inner_inv, BatchOptions::default());
        (out, started.elapsed().as_secs_f64())
    };
    let own = lambdas.iter().position(|&l| l == view.query.lambda);
    checker.result(
        out.as_ref()
            .ok()
            .zip(own)
            .map(|(o, i)| &o.queries[i].result),
    );
    let out = out?;
    v.put("core.batch.n4_s", secs);
    v.put("core.batch.n4_pages", out.stats.cost);

    fresh(&fx.disk);
    let (out, secs) = {
        let _s = log.enter("run.shard.s2");
        let started = Instant::now();
        let out = execute_sharded(&view.spec(), Algorithm::Hvnl, &ShardOptions::new(2));
        (out, started.elapsed().as_secs_f64())
    };
    checker.result(out.as_ref().ok().map(|o| &o.outcome.result));
    let out = out?;
    v.put("core.shard.s2_s", secs);
    v.put("core.shard.s2_max_pages", out.max_shard_pages);
    Ok(())
}

/// The front door once, plain: what the planner chose, what that cost
/// against the best it could have chosen, and how far each §5 estimate
/// was from the measured pages.
fn planner(
    fx: &Fixture,
    view: &View<'_>,
    log: &SpanLog,
    checker: &mut Checker,
    forced: &Forced,
    v: &mut Values,
) -> Result<()> {
    // The better of two, like the plain forced runs it is set against.
    let mut auto_s = f64::INFINITY;
    let mut last = None;
    for _ in 0..2 {
        fresh(&fx.disk);
        let _s = log.enter("run.auto");
        let started = Instant::now();
        let out = front_door(fx, 1, None);
        auto_s = auto_s.min(started.elapsed().as_secs_f64());
        checker.front(&out);
        last = Some(out);
    }
    let out = last.expect("two front-door runs")?;
    let chosen = ALGORITHMS
        .iter()
        .position(|(a, _)| *a == out.chosen)
        .expect("the planner picks a registered algorithm");
    let fastest = forced.plain_s.iter().copied().fold(f64::INFINITY, f64::min);
    v.put("core.integrated.regret", auto_s / fastest);
    v.put(
        "core.integrated.overhead_ms",
        (auto_s - forced.plain_s[chosen]) * 1e3,
    );
    let rank = 1 + forced
        .plain_s
        .iter()
        .filter(|&&s| s < forced.plain_s[chosen])
        .count();
    v.put("core.integrated.chosen_rank", rank as f64);
    v.put("costmodel.auto_pages", out.stats.cost);

    for warm_up in [true, false] {
        fresh(&fx.disk);
        let _s = log.enter("run.auto.w2");
        let started = Instant::now();
        let out = front_door(fx, 2, None);
        if !warm_up {
            v.put("auto_w2_s", started.elapsed().as_secs_f64());
        }
        checker.front(&out);
    }

    let reps = 200;
    let (estimates, secs) = probe(log, "costmodel.estimate", || {
        let mut last = None;
        for _ in 0..reps {
            let inputs = black_box(view.spec())
                .cost_inputs()
                .with_fnl(view.fnl.stats());
            last = Some(black_box(CostEstimates::compute(&inputs)));
        }
        Ok(last.expect("at least one repetition"))
    })?;
    v.put("costmodel.estimate_us", secs * 1e6 / reps as f64);
    for (i, (alg, name)) in ALGORITHMS.into_iter().enumerate() {
        let predicted = estimates.cost(alg, IoScenario::Dedicated);
        v.put(
            format!("costmodel.drift_pct.{name}"),
            100.0 * (forced.stats[i].cost - predicted) / predicted,
        );
    }
    Ok(())
}

/// The program's observability switched on against off, on the front
/// door: tracer + ticket + `DiskMetrics`. Three samples a side,
/// alternating.
fn observability(fx: &Fixture, log: &SpanLog, checker: &mut Checker, v: &mut Values) -> Result<()> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        fresh(&fx.disk);
        let (out, secs) = probe(log, "obs.front_door_off", || Ok(front_door(fx, 1, None)))?;
        checker.front(&out);
        off.push(secs);

        let tracer = Tracer::enabled(1 << 16);
        let live = LiveRegistry::new();
        let registry = tracer.registry().expect("an enabled tracer has a registry");
        fx.disk
            .set_metrics(Some(DiskMetrics::register(registry, "bench")));
        fresh(&fx.disk);
        let observed = Observed {
            tracer: &tracer,
            live: &live,
        };
        let (out, secs) = probe(log, "obs.front_door_on", || {
            Ok(front_door(fx, 1, Some(&observed)))
        })?;
        fx.disk.set_metrics(None);
        checker.front(&out);
        on.push(secs);
    }
    let (off, on) = (summarize(&off).median, summarize(&on).median);
    v.put("obs.overhead_pct", 100.0 * (on - off) / off);

    let tracer = Tracer::enabled(1024);
    let n = 100_000;
    let ((), secs) = probe(log, "obs.span", || {
        for _ in 0..n {
            drop(black_box(tracer.span("probe")));
        }
        Ok(())
    })?;
    v.put("obs.span_ns", secs * 1e9 / n as f64);
    let counter = Registry::new().counter("probe", "bench");
    let n = 1_000_000;
    let ((), secs) = probe(log, "obs.counter_inc", || {
        for _ in 0..n {
            black_box(&counter).inc();
        }
        Ok(())
    })?;
    v.put("obs.counter_inc_ns", secs * 1e9 / n as f64);
    Ok(())
}

/// `storage`: the disk simulator, the pool and the prefetcher, driven
/// directly on the inner collection's file.
fn storage(view: &View<'_>, log: &SpanLog, rng: &mut Rng, v: &mut Values) -> Result<()> {
    let disk: &DiskSim = view.inner.store().disk();
    let file = view.inner.store().file();
    let pages = disk.num_pages(file);
    let page_size = disk.page_size();
    // Enough repetitions that every probe moves about 20 000 pages.
    let reps = (20_000 / pages).max(1);

    let scan_once = |disk: &DiskSim| -> Result<()> {
        for start in (0..pages).step_by(8) {
            black_box(disk.read_scan(file, start, 8.min(pages - start))?);
        }
        Ok(())
    };
    fresh(disk);
    let ((), secs) = probe(log, "storage.disk.seq_read", || {
        (0..reps).try_for_each(|_| scan_once(disk))
    })?;
    v.put(
        "storage.disk.seq_read_ns_per_page",
        secs * 1e9 / (reps * pages) as f64,
    );

    let targets: Vec<u64> = (0..reps * pages).map(|_| rng.below(pages)).collect();
    fresh(disk);
    let ((), secs) = probe(log, "storage.disk.rand_read", || {
        for &p in &targets {
            black_box(disk.read_page(file, p)?);
        }
        Ok(())
    })?;
    v.put(
        "storage.disk.rand_read_ns_per_page",
        secs * 1e9 / targets.len() as f64,
    );

    fresh(disk);
    let ((), secs) = probe(log, "storage.disk.seq_read_2t", || {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..reps).try_for_each(|_| scan_once(disk))))
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("scan thread panicked"))
        })
    })?;
    v.put(
        "storage.disk.seq_read_2t_ns_per_page",
        secs * 1e9 / (2 * reps * pages) as f64,
    );

    let sample = disk.read_scan(file, 0, pages.min(256))?;
    let scratch = disk.create_file("probe.append")?;
    let appends = 4_096usize;
    let appended = probe(log, "storage.disk.append", || {
        for i in 0..appends {
            disk.append_page(scratch, &sample[i % sample.len()])?;
        }
        Ok(())
    });
    disk.remove_file("probe.append")?;
    let ((), secs) = appended?;
    v.put(
        "storage.disk.append_ns_per_page",
        secs * 1e9 / appends as f64,
    );

    let crc_reps = 64;
    let (sum, secs) = probe(log, "storage.disk.crc32", || {
        let mut sum = 0u32;
        for _ in 0..crc_reps {
            for page in &sample {
                sum ^= crc32(black_box(page));
            }
        }
        Ok(sum)
    })?;
    black_box(sum);
    v.put(
        "storage.disk.crc32_mb_per_s",
        (crc_reps * sample.len() * page_size) as f64 / 1e6 / secs,
    );

    let resident = pages.min(1_024);
    let pool = BufferPool::new(disk, resident as usize);
    fresh(disk);
    let ((), secs) = probe(log, "storage.pool.miss", || {
        for p in 0..resident {
            black_box(pool.get(file, p)?);
        }
        Ok(())
    })?;
    v.put("storage.pool.miss_ns", secs * 1e9 / resident as f64);
    let hit_reps = (100_000 / resident).max(1);
    let ((), secs) = probe(log, "storage.pool.hit", || {
        for _ in 0..hit_reps {
            for p in 0..resident {
                black_box(pool.get(file, p)?);
            }
        }
        Ok(())
    })?;
    v.put(
        "storage.pool.hit_ns",
        secs * 1e9 / (hit_reps * resident) as f64,
    );

    fresh(disk);
    let ((), secs) = probe(log, "storage.prefetch.scan", || {
        for _ in 0..reps {
            let mut prefetcher = Prefetcher::new(disk, file, pages);
            for p in 0..pages {
                black_box(prefetcher.get(p)?);
            }
        }
        Ok(())
    })?;
    v.put(
        "storage.prefetch.scan_ns_per_page",
        secs * 1e9 / (reps * pages) as f64,
    );
    fresh(disk);
    Ok(())
}

/// `collection`: scan, decode, score and random reads on the inner
/// collection, and a rebuild of it on a scratch disk. Returns the scanned
/// documents and the scratch collection for the `invfile` probes.
fn collection(
    view: &View<'_>,
    inputs: &Inputs,
    log: &SpanLog,
    rng: &mut Rng,
    v: &mut Values,
) -> Result<(Vec<Document>, Arc<DiskSim>, Collection)> {
    let store = view.inner.store();
    let disk = store.disk();
    v.put("collection.pages", store.num_pages() as f64);

    fresh(disk);
    let (docs, secs) = probe(log, "collection.scan", || {
        store
            .scan()
            .map(|item| item.map(|(_, doc)| doc))
            .collect::<Result<Vec<Document>>>()
    })?;
    let cells: usize = docs.iter().map(Document::num_terms).sum();
    v.put("collection.scan_ns_per_cell", secs * 1e9 / cells as f64);

    let encoded: Vec<Vec<u8>> = docs.iter().map(Document::encode).collect();
    let ((), secs) = probe(log, "collection.decode", || {
        for bytes in &encoded {
            black_box(Document::decode(black_box(bytes))?);
        }
        Ok(())
    })?;
    v.put("collection.decode_ns_per_cell", secs * 1e9 / cells as f64);

    // HHNL's inner loop, as the executor calls it: a handful of outer
    // documents against every inner document.
    let outer_ids: Vec<DocId> = view.outer_ids().into_iter().take(8).collect();
    let outers: Vec<Document> = outer_ids
        .iter()
        .map(|&id| view.outer.store().read_doc_direct(id))
        .collect::<Result<_>>()?;
    let (visited, secs) = probe(log, "collection.dot", || {
        let mut visited = 0u64;
        for (outer_id, outer) in outer_ids.iter().zip(&outers) {
            for (i, inner) in docs.iter().enumerate() {
                let (score, _, seen) = Weighting::RawCount.score_pair_counted(
                    store.doc_at(i),
                    inner,
                    *outer_id,
                    outer,
                    view.inner.profile(),
                    view.outer.profile(),
                );
                black_box(score);
                visited += seen;
            }
        }
        Ok(visited)
    })?;
    v.put(
        "collection.dot_ns_per_cell",
        secs * 1e9 / visited.max(1) as f64,
    );

    let ids = store.doc_ids();
    let reads: Vec<DocId> = (0..5_000)
        .map(|_| ids[rng.below(ids.len() as u64) as usize])
        .collect();
    let pool = BufferPool::new(disk, view.sys.buffer_pages as usize);
    fresh(disk);
    let ((), secs) = probe(log, "collection.read_doc", || {
        for &id in &reads {
            black_box(store.read_doc(&pool, id)?);
        }
        Ok(())
    })?;
    v.put("collection.read_doc_us", secs * 1e6 / reads.len() as f64);
    fresh(disk);

    if let Feed::Sql { inner_texts, .. } = &inputs.feed {
        let texts = &inner_texts[..inner_texts.len().min(2_000)];
        let ((), secs) = probe(log, "collection.text.ingest", || {
            let mut registry = TermRegistry::new();
            for text in texts {
                black_box(registry.ingest(text));
            }
            Ok(())
        })?;
        v.put(
            "collection.text.ingest_us_per_doc",
            secs * 1e6 / texts.len() as f64,
        );
    }

    let scratch = Arc::new(DiskSim::new(disk.page_size()));
    let (rebuilt, secs) = probe(log, "collection.build", || {
        Collection::build(Arc::clone(&scratch), "probe", docs.iter().cloned())
    })?;
    v.put("collection.build_s", secs);
    Ok((docs, scratch, rebuilt))
}

/// `invfile`: the inverted file, its B+tree, the signature index and the
/// delta overlay.
fn invfile(
    view: &View<'_>,
    docs: &[Document],
    scratch: (Arc<DiskSim>, Collection),
    log: &SpanLog,
    rng: &mut Rng,
    v: &mut Values,
) -> Result<()> {
    let inv = view.inner_inv;
    let disk = inv.disk();
    v.put("invfile.pages", inv.num_pages() as f64);

    let (scratch_disk, rebuilt) = scratch;
    let (_, secs) = probe(log, "invfile.build", || {
        InvertedFile::build(Arc::clone(&scratch_disk), "probe", &rebuilt)
    })?;
    v.put("invfile.build_s", secs);
    let (_, secs) = probe(log, "invfile.fnl.build", || {
        FnlIndex::build(Arc::clone(&scratch_disk), "probe", &rebuilt)
    })?;
    v.put("invfile.fnl.build_s", secs);
    drop((scratch_disk, rebuilt));

    fresh(disk);
    let (cells, secs) = probe(log, "invfile.scan", || {
        let mut cells = 0usize;
        for item in inv.scan() {
            cells += black_box(item?).1.len();
        }
        Ok(cells)
    })?;
    v.put("invfile.scan_ns_per_cell", secs * 1e9 / cells.max(1) as f64);

    // A random posting names its term, so terms are drawn in proportion
    // to their document frequency — the distribution HVNL fetches with.
    let terms: Vec<_> = (0..3_000)
        .map(|_| {
            let doc = &docs[rng.below(docs.len() as u64) as usize];
            let cells = doc.cells();
            cells[rng.below(cells.len() as u64) as usize].term
        })
        .collect();
    let ordinals: Vec<u32> = terms.iter().filter_map(|&t| inv.find_term(t)).collect();
    fresh(disk);
    let ((), secs) = probe(log, "invfile.read_entry", || {
        for &o in &ordinals {
            black_box(inv.read_entry(o)?);
        }
        Ok(())
    })?;
    v.put(
        "invfile.read_entry_us",
        secs * 1e6 / ordinals.len().max(1) as f64,
    );

    let loads = 5;
    fresh(disk);
    let ((), secs) = probe(log, "invfile.btree.load_leaves", || {
        for _ in 0..loads {
            black_box(inv.btree().load_leaves()?);
        }
        Ok(())
    })?;
    v.put("invfile.btree.load_leaves_ms", secs * 1e3 / loads as f64);
    fresh(disk);
    let ((), secs) = probe(log, "invfile.btree.search", || {
        for &t in &terms {
            black_box(inv.btree().search(t)?);
        }
        Ok(())
    })?;
    v.put("invfile.btree.search_us", secs * 1e6 / terms.len() as f64);

    fresh(disk);
    let (cells, secs) = probe(log, "invfile.fnl.scan", || {
        let mut cells = 0usize;
        for item in view.fnl.scan() {
            cells += black_box(item?).1.len();
        }
        Ok(cells)
    })?;
    v.put(
        "invfile.fnl.scan_ns_per_cell",
        secs * 1e9 / cells.max(1) as f64,
    );
    fresh(disk);
    let ((), secs) = probe(log, "invfile.fnl.term_order", || {
        for _ in 0..loads {
            black_box(view.fnl.read_term_order()?);
        }
        Ok(())
    })?;
    v.put("invfile.fnl.term_order_ms", secs * 1e3 / loads as f64);

    if let Some(delta) = view.inner_delta {
        // Thirty-two term ranges tiling the vocabulary: the calls a
        // partitioned VVM makes.
        let top = docs
            .iter()
            .filter_map(|d| d.cells().last())
            .map(|c| c.term.raw())
            .max()
            .unwrap_or(0)
            + 1;
        let step = top.div_ceil(32).max(1);
        let ranges: Vec<(u32, u32)> = (0..32).map(|i| (i * step, (i + 1) * step)).collect();
        fresh(disk);
        let ((), secs) = probe(log, "invfile.delta.entries_between", || {
            for &(lo, hi) in &ranges {
                black_box(delta.entries_between(lo, Some(hi))?);
            }
            Ok(())
        })?;
        v.put(
            "invfile.delta.entries_between_us",
            secs * 1e6 / ranges.len() as f64,
        );
    }
    fresh(disk);
    Ok(())
}

/// `core::topk`: the heap every scored pair is offered to, and the merge
/// of per-site lists.
fn topk(
    view: &View<'_>,
    checker: &Checker,
    log: &SpanLog,
    rng: &mut Rng,
    v: &mut Values,
) -> Result<()> {
    let k = view.query.lambda;
    let offers: Vec<(DocId, Score)> = (0..1_000_000)
        .map(|_| {
            (
                DocId::new(rng.below(1 << 20) as u32),
                Score::new(rng.below(1_000) as f64),
            )
        })
        .collect();
    let (kept, secs) = probe(log, "core.topk.offer", || {
        let mut heap = TopK::new(k);
        let mut kept = 0u32;
        for &(doc, score) in &offers {
            kept += heap.offer(doc, score) as u32;
        }
        Ok(kept)
    })?;
    black_box(kept);
    v.put("core.topk.offer_ns", secs * 1e9 / offers.len() as f64);

    // Each reference row cut in two, as two sites would return it.
    let halves: Vec<_> = checker
        .reference()
        .iter()
        .map(|(_, matches)| matches.split_at(matches.len() / 2))
        .collect();
    let reps = (20_000 / halves.len().max(1)).max(1);
    let ((), secs) = probe(log, "core.topk.merge_lists", || {
        for _ in 0..reps {
            for &(a, b) in &halves {
                black_box(merge_lists([a, b], k));
            }
        }
        Ok(())
    })?;
    v.put(
        "core.topk.merge_lists_us",
        secs * 1e6 / (reps * halves.len().max(1)) as f64,
    );
    Ok(())
}

/// `query`: the SQL front door taken apart (`selective`).
fn query(fx: &Fixture, log: &SpanLog, v: &mut Values) -> Result<()> {
    let Some((catalog, sql)) = fx.sql() else {
        return Ok(());
    };
    let reps = 200;
    let (parsed, secs) = probe(log, "query.parse", || {
        let mut last = None;
        for _ in 0..reps {
            last = Some(textjoin_query::parse(black_box(sql))?);
        }
        Ok(last.expect("at least one repetition"))
    })?;
    v.put("query.parse_us", secs * 1e6 / reps as f64);
    let (plan, secs) = probe(log, "query.plan", || {
        let mut last = None;
        for _ in 0..reps {
            last = Some(textjoin_query::plan(
                catalog,
                &parsed,
                fx.sys,
                fx.query,
                IoScenario::Dedicated,
            )?);
        }
        Ok(last.expect("at least one repetition"))
    })?;
    v.put("query.plan_us", secs * 1e6 / reps as f64);
    let ((), secs) = probe(log, "query.explain", || {
        for _ in 0..reps {
            black_box(textjoin_query::explain_query(
                catalog,
                sql,
                fx.sys,
                fx.query,
                IoScenario::Dedicated,
            )?);
        }
        Ok(())
    })?;
    v.put("query.explain_us", secs * 1e6 / reps as f64);
    fresh(&fx.disk);
    let (out, secs) = probe(log, "query.execute", || {
        textjoin_query::executor::execute_plan(catalog, &plan, fx.sys, fx.query)
    })?;
    v.put("query.execute_s", secs);
    v.put("query.rows_out", out.rows.len() as f64);
    Ok(())
}

/// `live`: the ingest script's spans, the overlay it left, and a
/// recovery. Runs last — recovery sweeps the flushed side files the
/// fixture's overlay reads.
fn live(
    lc: &LiveCollection,
    inputs: &Inputs,
    setup_writes: u64,
    log: &SpanLog,
    v: &mut Values,
) -> Result<()> {
    let Feed::Live { script, .. } = &inputs.feed else {
        return Ok(());
    };
    let spans = log.finished();
    let total_ms = |name: &str| -> (f64, usize) {
        let of: Vec<&SpanRec> = spans.iter().filter(|s| s.name == name).collect();
        (
            of.iter().map(|s| s.dur_ns() as f64 / 1e6).sum(),
            of.len().max(1),
        )
    };
    let (inserted, deleted) = script.iter().fold((0usize, 0usize), |(i, d), op| match op {
        crate::workload::LiveOp::Insert(r) => (i + r.len(), d),
        crate::workload::LiveOp::Delete(ids) => (i, d + ids.len()),
        _ => (i, d),
    });
    v.put("live.create_ms", total_ms("live.create").0);
    v.put(
        "live.insert_us_per_doc",
        total_ms("live.insert").0 * 1e3 / inserted.max(1) as f64,
    );
    v.put(
        "live.delete_us_per_doc",
        total_ms("live.delete").0 * 1e3 / deleted.max(1) as f64,
    );
    let (flush, flushes) = total_ms("live.flush");
    v.put("live.flush_ms", flush / flushes as f64);
    let (merge, merges) = total_ms("live.merge");
    v.put("live.merge_ms", merge / merges as f64);
    v.put(
        "live.pages_written_per_doc",
        setup_writes as f64 / inputs.oracle_inner.len().max(1) as f64,
    );
    let frag = lc.frag_stats();
    v.put(
        "live.delta_pages",
        (frag.doc_delta_pages + frag.inv_delta_pages) as f64,
    );
    v.put("live.tombstone_pct", 100.0 * frag.tombstone_ratio);

    let (recovered, secs) = probe(log, "live.recover", || {
        LiveCollection::recover(Arc::clone(lc.disk()), lc.name())
    })?;
    assert_eq!(
        recovered.num_live_docs(),
        lc.num_live_docs(),
        "recovery must reopen every live document"
    );
    v.put("live.recover_ms", secs * 1e3);
    Ok(())
}

/// Everything under the `workload` root span.
fn measure(inputs: &Inputs, seed: u64, log: &SpanLog, v: &mut Values) -> Result<Checker> {
    let mut rng = Rng::new(derive(seed, 0x9e0b));
    let _root = log.enter("workload");
    let mut fx = {
        let _s = log.enter("setup");
        Fixture::build(inputs, log)?
    };
    let setup_writes = fx.disk.stats().writes;
    fx.resolve()?;
    let mut checker = {
        let _s = log.enter("reference");
        Checker::establish(&fx, inputs)
    };
    let view = fx.view();

    let forced = forced_runs(&fx, &view, log, &mut checker, v)?;
    modes(&fx, &view, log, &mut checker, v)?;
    planner(&fx, &view, log, &mut checker, &forced, v)?;
    observability(&fx, log, &mut checker, v)?;
    storage(&view, log, &mut rng, v)?;
    let (docs, scratch_disk, rebuilt) = collection(&view, inputs, log, &mut rng, v)?;
    invfile(&view, &docs, (scratch_disk, rebuilt), log, &mut rng, v)?;
    topk(&view, &checker, log, &mut rng, v)?;
    query(&fx, log, v)?;
    if let Some(lc) = fx.live() {
        live(lc, inputs, setup_writes, log, v)?;
    }
    Ok(checker)
}

/// Runs the traced pass of one workload.
pub fn trace(workload: Workload, seed: u64, quick: bool) -> std::result::Result<Traced, String> {
    let inputs = Inputs::generate(workload, seed, quick);
    let log = SpanLog::enabled();
    let mut v = Values::default();
    let checker = measure(&inputs, seed, &log, &mut v)
        .map_err(|e| format!("the traced pass of {} failed: {e}", workload.name()))?;
    let spans = log.finished();
    check_forest(&spans)?;
    v.put("trace.spans", spans.len() as f64);

    // Report in catalogue order: every name, on every workload. A layer
    // the workload does not exercise reads 0; a value missing where it
    // should exist is a bug in this file.
    let defs = per_layer();
    if let Some((stray, _)) = v.0.iter().find(|(n, _)| !defs.iter().any(|d| d.name == *n)) {
        return Err(format!("{stray} is measured but not in the catalogue"));
    }
    let mut metrics = Vec::new();
    for def in defs {
        let value = v.0.iter().find(|(n, _)| *n == def.name).map(|(_, x)| *x);
        let applies = def.on == On::All || def.on == On::Only(workload);
        let value = match (value, applies) {
            (Some(x), true) => x,
            (None, false) => 0.0,
            (Some(_), false) => {
                return Err(format!("{} measured where it does not apply", def.name))
            }
            (None, true) => return Err(format!("{} was not measured", def.name)),
        };
        metrics.push(Metric::new(def.name, def.unit, Summary::single(value)));
    }
    Ok(Traced {
        report: Report {
            workload,
            seed,
            attempted: checker.attempted,
            failed: checker.failed,
            metrics,
        },
        spans,
    })
}
