//! `ci/bench-baseline.json` is a checked-in artifact that CI gates on by
//! equality and that a page-claiming PR regenerates; this checks, without
//! running the grid, the mistakes a hand edit of it could make.

use std::collections::HashSet;
use textjoin_bench::BenchReport;

#[test]
fn checked_in_baseline_is_a_well_formed_page_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/bench-baseline.json");
    let text = std::fs::read_to_string(path).unwrap();
    let report = BenchReport::from_json(&text).unwrap();
    assert_eq!(report.suite, "paper-grid-small");
    assert_eq!(report.cases.len(), 248);

    let keys: HashSet<_> = report
        .cases
        .iter()
        .map(|c| (c.case.as_str(), c.algorithm.as_str()))
        .collect();
    assert_eq!(
        keys.len(),
        report.cases.len(),
        "a (case, algorithm) repeats"
    );
    for c in &report.cases {
        assert!(c.pages_io > 0.0, "{} / {}", c.case, c.algorithm);
    }

    // Seconds are `benchmark/`'s: a wall-clock field would make the file
    // differ from run to run.
    assert!(!text.contains("wall_"));
    // One case per line, in the form `textjoin-sim bench --out` writes —
    // so regenerating an unchanged grid leaves `git diff` empty.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), report.cases.len() + 2);
    for line in &lines[1..=report.cases.len()] {
        assert_eq!(line.matches("\"case\":").count(), 1, "{line}");
    }
    assert_eq!(report.to_json(), text);
}
