//! The `textjoin-sim` binary as a user runs it.

use std::process::Command;

fn sim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_textjoin-sim"))
        .args(args)
        .output()
        .expect("textjoin-sim runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn findings_csv_prints_csv_not_the_grid() {
    let csv = sim(&["findings", "--csv"]);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "#,claim,holds,evidence", "{csv}");
    assert_eq!(lines.len(), 6, "a header and the five findings:\n{csv}");
    for (i, line) in lines[1..].iter().enumerate() {
        assert!(line.starts_with(&format!("{},", i + 1)), "{line}");
    }
    assert!(!csv.contains("+---"), "{csv}");

    let grid = sim(&["findings"]);
    assert!(grid.starts_with("Findings of section 6.1"), "{grid}");
    assert!(grid.contains("+---"), "{grid}");
}
