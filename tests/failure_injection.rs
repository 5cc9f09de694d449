//! Failure injection: corrupted on-disk structures and injected disk
//! faults must surface as `Error::Corrupt` / `Error::Io` (or another typed
//! error), never as panics or silently wrong results. Degraded mode turns
//! unreadable pages into counted skips with a `Partial` quality tag, and
//! the integrated algorithm re-plans around storage that dies mid-run.

use proptest::prelude::*;
use std::sync::Arc;
use textjoin::common::Error;
use textjoin::core::{hhnl, hvnl, vvm, ResultQuality};
use textjoin::invfile::BTreeFile;
use textjoin::prelude::*;
use textjoin::storage::{DiskSim, FaultKind, FaultPlan, READ_ATTEMPTS};

fn collection_on(disk: &Arc<DiskSim>) -> Collection {
    SynthSpec::from_stats(CollectionStats::new(40, 12.0, 200), 5)
        .generate(Arc::clone(disk), "c")
        .unwrap()
}

/// A full 256-byte page of one repeated byte — `write_page` insists on
/// exact page-size payloads.
fn page_of(byte: u8) -> Vec<u8> {
    vec![byte; 256]
}

#[test]
fn corrupt_document_page_fails_scan_without_panicking() {
    let disk = Arc::new(DiskSim::new(256));
    let c = collection_on(&disk);
    // Overwrite the first data page with bytes that decode into
    // out-of-order cells.
    let file = c.store().file();
    disk.write_page(file, 0, &page_of(0xFF)).unwrap();

    let outcome: Vec<_> = c.store().scan().collect();
    assert!(
        outcome.iter().any(|r| matches!(r, Err(Error::Corrupt(_)))),
        "scan over a corrupted page must report corruption"
    );
}

#[test]
fn corrupt_document_read_direct_reports_corruption() {
    let disk = Arc::new(DiskSim::new(256));
    let c = collection_on(&disk);
    disk.write_page(c.store().file(), 0, &page_of(0xAB))
        .unwrap();
    let err = c.store().read_doc_direct(DocId::new(0)).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
}

#[test]
fn corrupt_btree_node_kind_is_reported() {
    let disk = Arc::new(DiskSim::new(256));
    let entries: Vec<_> = (0..200u32)
        .map(|i| {
            (
                TermId::new(i),
                textjoin::invfile::TermEntry {
                    ordinal: i,
                    doc_freq: 1,
                },
            )
        })
        .collect();
    let tree = BTreeFile::bulk_load(Arc::clone(&disk), "bt", &entries).unwrap();
    // Stamp an invalid node kind over page 0 (a leaf).
    let mut page = vec![0u8; 256];
    page[0] = 9; // neither leaf (0) nor internal (1)
    disk.write_page(tree.file(), 0, &page).unwrap();

    // Either the search path or the full load must hit the bad node.
    let search_err = (0..200u32)
        .map(|i| tree.search(TermId::new(i)))
        .find_map(|r| r.err());
    let load_err = tree.load_leaves().err();
    let err = search_err
        .or(load_err)
        .expect("corruption must be detected");
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
}

#[test]
fn executor_surfaces_storage_errors_as_results() {
    // A join over a corrupted inner collection returns Err, not panic.
    let disk = Arc::new(DiskSim::new(256));
    let c1 = collection_on(&disk);
    let c2 = SynthSpec::from_stats(CollectionStats::new(10, 12.0, 200), 6)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    disk.write_page(c1.store().file(), 1, &page_of(0xEE))
        .unwrap();
    let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
        buffer_pages: 64,
        page_size: 256,
        alpha: 5.0,
    });
    let err = textjoin::core::hhnl::execute(&spec).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
}

#[test]
fn out_of_bounds_reads_are_typed_errors() {
    let disk = Arc::new(DiskSim::new(256));
    let f = disk.create_file("tiny").unwrap();
    disk.append_page(f, &page_of(1)).unwrap();
    assert!(matches!(
        disk.read_page(f, 5).unwrap_err(),
        Error::PageOutOfBounds { .. }
    ));
    assert!(matches!(
        disk.read_run(f, 0, 9).unwrap_err(),
        Error::PageOutOfBounds { .. }
    ));
    assert!(matches!(
        disk.write_page(f, 7, &page_of(0)).unwrap_err(),
        Error::PageOutOfBounds { .. }
    ));
}

#[test]
fn short_or_oversized_payloads_are_invalid_arguments() {
    let disk = Arc::new(DiskSim::new(256));
    let f = disk.create_file("strict").unwrap();
    disk.append_page(f, &page_of(7)).unwrap();

    // Both entry points, both directions; the message names both sizes so
    // the offending writer is identifiable from the error alone.
    for payload in [vec![1u8, 2, 3], vec![0u8; 255], vec![0u8; 257]] {
        let append_err = disk.append_page(f, &payload).unwrap_err();
        let write_err = disk.write_page(f, 0, &payload).unwrap_err();
        for err in [append_err, write_err] {
            let Error::InvalidArgument(msg) = &err else {
                panic!("expected InvalidArgument, got {err:?}");
            };
            assert!(
                msg.contains(&payload.len().to_string()) && msg.contains("256"),
                "message must name the offending and expected sizes: {msg}"
            );
        }
    }
}

#[test]
fn transient_faults_are_absorbed_by_retries() {
    let disk = Arc::new(DiskSim::new(256));
    let c = collection_on(&disk);
    let file = c.store().file();
    let clean = c.store().read_doc_direct(DocId::new(0)).unwrap();

    // Two failures fit inside the default three-attempt policy.
    disk.set_fault_plan(FaultPlan::new().with_fault(
        file,
        0,
        0,
        FaultKind::TransientRead { failures: 2 },
    ));
    disk.reset_fault_stats();
    let read = c.store().read_doc_direct(DocId::new(0)).unwrap();
    assert_eq!(read, clean, "an absorbed fault must not change the data");

    let stats = disk.fault_stats();
    assert!(stats.retries >= 2, "retries must be counted: {stats:?}");
    assert_eq!(stats.gave_up, 0, "no read should give up: {stats:?}");
    assert_eq!(disk.pending_faults(), 0, "the fault must have fired");
}

#[test]
fn exhausted_retries_surface_as_typed_io_error() {
    let disk = Arc::new(DiskSim::new(256));
    let c = collection_on(&disk);
    let file = c.store().file();

    // Nine failures outlive the three attempts a read makes.
    disk.set_fault_plan(FaultPlan::new().with_fault(
        file,
        0,
        0,
        FaultKind::TransientRead { failures: 9 },
    ));
    disk.reset_fault_stats();
    let err = c.store().read_doc_direct(DocId::new(0)).unwrap_err();
    match err {
        Error::Io {
            ref file, attempts, ..
        } => {
            assert!(file.contains('c'), "error names the file: {err}");
            assert_eq!(attempts, READ_ATTEMPTS);
        }
        other => panic!("expected Error::Io, got {other:?}"),
    }
    assert!(disk.fault_stats().gave_up >= 1);
}

#[test]
fn degraded_join_skips_unreadable_docs_and_reports_partial() {
    let disk = Arc::new(DiskSim::new(256));
    let c1 = collection_on(&disk);
    let c2 = SynthSpec::from_stats(CollectionStats::new(10, 12.0, 200), 6)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
        buffer_pages: 64,
        page_size: 256,
        alpha: 5.0,
    });
    let plan = FaultPlan::new().with_fault(
        c2.store().file(),
        0,
        0,
        FaultKind::TransientRead { failures: 9 },
    );

    // Strict mode: the unrecoverable page is a hard error.
    disk.set_fault_plan(plan.clone());
    assert!(matches!(hhnl::execute(&spec), Err(Error::Io { .. })));

    // Degraded mode: the same page becomes a counted skip. The strict run
    // spent the fault, so re-arm the plan.
    disk.set_fault_plan(plan);
    let got = hhnl::execute(&spec.with_degraded()).unwrap();
    assert_eq!(got.quality, ResultQuality::Partial);
    assert!(got.stats.skipped_docs >= 1, "{:?}", got.stats);
    assert_eq!(got.quality, got.stats.quality());
    disk.clear_fault_plan();
}

#[test]
fn degraded_hvnl_skips_unreadable_inverted_entries() {
    let disk = Arc::new(DiskSim::new(256));
    let c1 = collection_on(&disk);
    let c2 = SynthSpec::from_stats(CollectionStats::new(10, 12.0, 200), 6)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
        buffer_pages: 64,
        page_size: 256,
        alpha: 5.0,
    });

    // Corrupt every postings page (the dictionary stays intact), so every
    // entry fetch fails its checksum.
    for page in 0..disk.num_pages(inv1.file()) {
        disk.flip_bit(inv1.file(), page, 8 * page + 3).unwrap();
    }

    let err = hvnl::execute(&spec, &inv1).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");

    let got = hvnl::execute(&spec.with_degraded(), &inv1).unwrap();
    assert_eq!(got.quality, ResultQuality::Partial);
    assert!(got.stats.skipped_entries >= 1, "{:?}", got.stats);
    // With no readable postings at all, no outer document finds a match.
    assert_eq!(got.result.num_pairs(), 0);
}

#[test]
fn integrated_replans_from_hvnl_to_hhnl_on_corrupt_inverted_file() {
    // Large inner, small outer, one selected outer document: the planner
    // picks HVNL (mirrors the chaos `replan-to-hhnl` scenario).
    let disk = Arc::new(DiskSim::new(256));
    let c1 = SynthSpec::from_stats(CollectionStats::new(400, 12.0, 150), 71)
        .generate(Arc::clone(&disk), "c1")
        .unwrap();
    let c2 = SynthSpec::from_stats(CollectionStats::new(40, 12.0, 150), 72)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
    let selected = [DocId::new(3)];
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 200,
            page_size: 256,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 5,
            delta: 1.0,
        })
        .with_outer_docs(OuterDocs::Selected(&selected));
    let baseline = hhnl::execute(&spec).unwrap().result;

    // Kill both vertical structures: the dictionary breaks HVNL's setup,
    // the postings break VVM's merge scan. Only HHNL can finish.
    disk.flip_bit(inv1.btree().file(), 0, 11).unwrap();
    disk.flip_bit(inv1.file(), 0, 23).unwrap();

    let got = integrated::execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap();
    assert_eq!(
        got.ranking[0].algorithm,
        Algorithm::Hvnl,
        "the scenario must actually exercise a fallback"
    );
    assert_eq!(got.chosen, Algorithm::Hhnl);
    assert_eq!(got.outcome.result, baseline);
    assert_eq!(got.outcome.quality, ResultQuality::Full);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite of the chaos tentpole: flipping any single byte of any
    /// page of any file never panics any executor. Every run ends in
    /// `Ok` with quality/skip accounting that agrees, or in a typed error.
    #[test]
    fn prop_single_byte_flip_never_panics_any_executor(
        file_choice in 0u64..5,
        page_pick in 0u64..10_000,
        byte_pick in 0u64..10_000,
        bit in 0u64..8,
        degraded in proptest::bool::ANY,
    ) {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = SynthSpec::from_stats(CollectionStats::new(24, 10.0, 120), 9)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(12, 10.0, 120), 10)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();

        let files = [
            c1.store().file(),
            c2.store().file(),
            inv1.file(),
            inv1.btree().file(),
            inv2.file(),
        ];
        let file = files[(file_choice % files.len() as u64) as usize];
        let page = page_pick % disk.num_pages(file);
        // Target byte within header ‖ payload; flip one of its bits.
        let byte = byte_pick % (textjoin::storage::PAGE_HEADER_BYTES as u64 + 256);
        disk.flip_bit(file, page, 8 * byte + bit).unwrap();

        let mut spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams { buffer_pages: 64, page_size: 256, alpha: 5.0 })
            .with_query(QueryParams { lambda: 3, delta: 1.0 });
        if degraded {
            spec = spec.with_degraded();
        }

        let runs = [
            hhnl::execute(&spec),
            hvnl::execute(&spec, &inv1),
            vvm::execute(&spec, &inv1, &inv2),
        ];
        for run in runs {
            match run {
                Ok(outcome) => {
                    prop_assert_eq!(outcome.quality, outcome.stats.quality());
                    let skipped = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
                    prop_assert_eq!(
                        outcome.quality == ResultQuality::Partial,
                        skipped > 0,
                        "quality tag must agree with skip counters: {:?}",
                        outcome.stats
                    );
                    if skipped > 0 {
                        prop_assert!(degraded, "strict mode must never skip");
                    }
                }
                Err(Error::Corrupt(_) | Error::Io { .. } | Error::InsufficientMemory { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            }
        }
    }
}
