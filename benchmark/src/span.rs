//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced pass keeps them in memory and writes them out as JSON lines
//! when it ends. A span's *self time* is its duration minus the part of
//! its interval that its children cover, so the self times of a tree add
//! up to the root's duration exactly — time is attributed once, to the
//! innermost span that was open.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// 1-based; unique within a log.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    pub name: String,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    epoch: Instant,
    next_id: u64,
    /// Ids of the open spans, outermost first.
    open: Vec<u64>,
    done: Vec<SpanRec>,
}

/// The span recorder. Disabled (as in `run`) it reads no clock and keeps
/// nothing; enabled it is single-threaded by construction — the harness
/// is one client, and the joins' worker threads live inside a span.
pub struct SpanLog {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'l> {
    log: &'l SpanLog,
    id: u64,
    name: &'l str,
    start_ns: u64,
}

impl SpanLog {
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn enabled() -> Self {
        Self {
            inner: Some(RefCell::new(Inner {
                epoch: Instant::now(),
                next_id: 1,
                open: Vec::new(),
                done: Vec::new(),
            })),
        }
    }

    /// Nanoseconds since the log was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().epoch.elapsed().as_nanos() as u64)
    }

    /// Opens a span under the innermost open one.
    pub fn enter<'l>(&'l self, name: &'l str) -> SpanGuard<'l> {
        let (id, start_ns) = match &self.inner {
            None => (0, 0),
            Some(cell) => {
                let mut inner = cell.borrow_mut();
                let id = inner.next_id;
                inner.next_id += 1;
                inner.open.push(id);
                (id, inner.epoch.elapsed().as_nanos() as u64)
            }
        };
        SpanGuard {
            log: self,
            id,
            name,
            start_ns,
        }
    }

    /// Adopts spans another recorder finished while `parent` was open —
    /// the program's own phase spans, read back from its `Tracer`. The
    /// `foreign` records carry the other recorder's ids (parent 0 = its
    /// root), in completion order, on this log's clock. Intervals are
    /// clipped to the enclosing span: the program's tracer rounds to
    /// whole microseconds, which can push an end past its parent's.
    pub fn adopt(&self, parent: &SpanGuard<'_>, foreign: &[SpanRec]) {
        let Some(cell) = &self.inner else { return };
        let mut inner = cell.borrow_mut();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let base = inner.next_id;
        inner.next_id += foreign.len() as u64;
        // Parents finish after their children, so walking backwards sees
        // every parent's clipped interval before its children need it.
        let mut clipped: Vec<(u64, u64)> = vec![(0, 0); foreign.len()];
        for (i, f) in foreign.iter().enumerate().rev() {
            let foreign_parent = foreign
                .iter()
                .position(|p| f.parent != 0 && p.id == f.parent)
                .filter(|&pi| pi > i);
            let (lo, hi) = foreign_parent.map_or((parent.start_ns, now), |pi| clipped[pi]);
            let start_ns = f.start_ns.clamp(lo, hi);
            let end_ns = f.end_ns.clamp(start_ns, hi);
            clipped[i] = (start_ns, end_ns);
            inner.done.push(SpanRec {
                id: base + i as u64,
                parent: foreign_parent.map_or(parent.id, |pi| base + pi as u64),
                name: f.name.clone(),
                start_ns,
                end_ns,
            });
        }
    }

    /// The finished spans, in completion order.
    pub fn finished(&self) -> Vec<SpanRec> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().done.clone())
    }
}

impl SpanGuard<'_> {
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(cell) = &self.log.inner else { return };
        let mut inner = cell.borrow_mut();
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(self.id), "spans must close innermost first");
        let parent = inner.open.last().copied().unwrap_or(0);
        inner.done.push(SpanRec {
            id: self.id,
            parent,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span). Returned in the order of `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| {
                    (
                        c.start_ns.clamp(s.start_ns, s.end_ns),
                        c.end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Checks that the spans form trees: unique ids, every parent present,
/// every child inside its parent, siblings not overlapping — and
/// therefore that every tree's self times add up to its root's duration.
pub fn check_forest(spans: &[SpanRec]) -> Result<(), String> {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) || ids.first() == Some(&0) {
        return Err("span ids are not unique and positive".into());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} '{}' ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let Some(p) = spans.iter().find(|p| p.id == s.parent) else {
            return Err(format!(
                "span {} '{}' has no parent {}",
                s.id, s.name, s.parent
            ));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} '{}' leaves its parent '{}'",
                s.id, s.name, p.name
            ));
        }
    }
    for p in spans {
        let mut kids: Vec<&SpanRec> = spans.iter().filter(|c| c.parent == p.id).collect();
        kids.sort_by_key(|c| (c.start_ns, c.end_ns));
        if let Some(w) = kids.windows(2).find(|w| w[1].start_ns < w[0].end_ns) {
            return Err(format!(
                "siblings '{}' and '{}' under '{}' overlap",
                w[0].name, w[1].name, p.name
            ));
        }
    }
    let selfs = self_times(spans);
    for root in spans.iter().filter(|s| s.parent == 0) {
        let mut total = 0u64;
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for (s, own) in spans.iter().zip(&selfs) {
                if s.id == id {
                    total += own;
                }
                if s.parent == id {
                    stack.push(s.id);
                }
            }
        }
        if total != root.dur_ns() {
            return Err(format!(
                "self times under '{}' add up to {total} ns, its duration is {} ns",
                root.name,
                root.dur_ns()
            ));
        }
    }
    Ok(())
}

/// One JSON line per span, `{id, parent, workload, name, start_ns, end_ns}`.
pub fn to_json_lines(spans: &[SpanRec], workload: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let line = obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("workload", Json::Str(workload.to_string())),
            ("name", Json::Str(s.name.clone())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    /// root [0,100] → a [10,40] → a1 [15,25]; root → b [50,90].
    fn fixture() -> Vec<SpanRec> {
        vec![
            rec(3, 2, "a1", 15, 25),
            rec(2, 1, "a", 10, 40),
            rec(4, 1, "b", 50, 90),
            rec(1, 0, "root", 0, 100),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = fixture();
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 20, 40, 30]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        check_forest(&spans).unwrap();
    }

    #[test]
    fn malformed_forests_are_rejected() {
        let mut orphan = fixture();
        orphan[0].parent = 9;
        assert!(check_forest(&orphan).unwrap_err().contains("no parent"));

        let mut escapes = fixture();
        escapes[0].end_ns = 45;
        assert!(check_forest(&escapes)
            .unwrap_err()
            .contains("leaves its parent"));

        let mut overlap = fixture();
        overlap[2].start_ns = 35;
        assert!(check_forest(&overlap).unwrap_err().contains("overlap"));

        let mut dup = fixture();
        dup[0].id = 2;
        assert!(check_forest(&dup).is_err());
    }

    #[test]
    fn recorder_nests_by_scope_and_its_trees_are_well_formed() {
        let log = SpanLog::enabled();
        {
            let _root = log.enter("workload");
            {
                let _setup = log.enter("setup");
                let _build = log.enter("collection.build");
            }
            let _run = log.enter("run.hhnl");
        }
        let spans = log.finished();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["collection.build", "setup", "run.hhnl", "workload"]);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("workload").parent, 0);
        assert_eq!(by_name("setup").parent, by_name("workload").id);
        assert_eq!(by_name("collection.build").parent, by_name("setup").id);
        assert_eq!(by_name("run.hhnl").parent, by_name("workload").id);
        check_forest(&spans).unwrap();
    }

    #[test]
    fn adopted_spans_are_reparented_and_clipped() {
        let log = SpanLog::enabled();
        {
            let run = log.enter("run.hhnl");
            let t0 = run.start_ns();
            // The foreign root overshoots into the future; its child
            // overshoots it. Both must end up inside `run`.
            log.adopt(
                &run,
                &[
                    rec(7, 5, "hhnl.inner_scan", t0, u64::MAX),
                    rec(5, 0, "hhnl", t0, u64::MAX - 1),
                ],
            );
        }
        let spans = log.finished();
        check_forest(&spans).unwrap();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("hhnl").parent, by_name("run.hhnl").id);
        assert_eq!(by_name("hhnl.inner_scan").parent, by_name("hhnl").id);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let log = SpanLog::disabled();
        drop(log.enter("x"));
        assert!(log.finished().is_empty());
        assert_eq!(log.now_ns(), 0);
    }

    #[test]
    fn json_lines_carry_the_six_fields() {
        let text = to_json_lines(&fixture()[..1], "fits");
        assert_eq!(
            text,
            "{\"id\":3,\"parent\":2,\"workload\":\"fits\",\"name\":\"a1\",\"start_ns\":15,\"end_ns\":25}\n"
        );
    }
}
