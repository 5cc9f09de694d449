//! Device misbehaviour on demand: a seeded [`FaultPlan`] injects transient
//! read errors, torn writes, single-bit flips and latency spikes on chosen
//! `(file, page, nth-access)` triples, a transient read failure is
//! re-attempted up to [`READ_ATTEMPTS`] times in all before the read gives
//! up, and every injected fault, retry and give-up is counted in
//! [`FaultStats`]. The simulator never waits between attempts.
//!
//! All of it sits behind one mutex, beside one flag that says whether a
//! read or write has anything to ask it — an idle disk reads only the flag.

use crate::disk::FileId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use textjoin_common::{Error, Result};

/// The kind of misbehaviour a [`Fault`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails `failures` consecutive times, then succeeds — the
    /// classic recoverable device hiccup. It is absorbed when `failures`
    /// is below [`READ_ATTEMPTS`].
    TransientRead {
        /// Consecutive failures before the page reads cleanly.
        failures: u32,
    },
    /// The *write* persists only the first half of the payload (the tail
    /// is zeroed) while the header keeps the checksum of the intended
    /// bytes — detected as [`Error::Corrupt`] on the next read.
    TornWrite,
    /// Permanently flips one stored bit of the page (header or payload;
    /// the offset is taken modulo the page's total bit width). Detected
    /// by header verification on every subsequent read.
    BitFlip {
        /// Bit position in `header ‖ payload` space (modulo-reduced).
        bit_offset: u64,
    },
    /// The device serves the whole run at the random rate — a seek-storm
    /// latency spike. The read succeeds; only its price changes.
    LatencySpike,
}

/// One planned fault: `kind` strikes the `nth_access` (0-based) of
/// `(file, page)` on its path — reads for everything except
/// [`FaultKind::TornWrite`], which counts writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Target file.
    pub file: FileId,
    /// Target page within the file.
    pub page: u64,
    /// Which access to that page triggers the fault (0 = first).
    pub nth_access: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults to inject. Each fault fires at most
/// once; install with [`DiskSim::set_fault_plan`](crate::DiskSim::set_fault_plan).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one explicit fault.
    pub fn with_fault(mut self, file: FileId, page: u64, nth_access: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            file,
            page,
            nth_access,
            kind,
        });
        self
    }

    /// Builds a deterministic plan from a seed: one fault per target
    /// `(file, page)`, with the kind and trigger access drawn from a
    /// SplitMix64 stream (≈½ transient, ¼ bit flip, ¼ latency spike —
    /// torn writes are write-path faults and are only planned explicitly).
    /// The same seed and targets always produce the same plan.
    pub fn seeded(seed: u64, targets: &[(FileId, u64)]) -> Self {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut plan = FaultPlan::new();
        for &(file, page) in targets {
            let r = splitmix64(&mut state);
            let nth_access = (r >> 32) & 1;
            let kind = match r % 4 {
                0 | 1 => FaultKind::TransientRead {
                    failures: 1 + ((r >> 8) & 1) as u32,
                },
                2 => FaultKind::BitFlip {
                    bit_offset: splitmix64(&mut state),
                },
                _ => FaultKind::LatencySpike,
            };
            plan = plan.with_fault(file, page, nth_access, kind);
        }
        plan
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// Attempts a read makes of a page before it gives up with
/// [`Error::Io`]: the first read and two retries.
pub const READ_ATTEMPTS: u32 = 3;

/// Cumulative fault-injection and recovery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read faults injected.
    pub injected_transient: u64,
    /// Torn writes injected.
    pub injected_torn: u64,
    /// Bit flips injected.
    pub injected_bit_flips: u64,
    /// Latency spikes injected.
    pub injected_latency: u64,
    /// Read attempts beyond the first (whether or not the page was
    /// eventually read).
    pub retries: u64,
    /// Pages abandoned after [`READ_ATTEMPTS`] failures.
    pub gave_up: u64,
}

impl FaultStats {
    fn accumulate(&mut self, d: &FaultStats) {
        self.injected_transient += d.injected_transient;
        self.injected_torn += d.injected_torn;
        self.injected_bit_flips += d.injected_bit_flips;
        self.injected_latency += d.injected_latency;
        self.retries += d.retries;
        self.gave_up += d.gave_up;
    }
}

/// What the faults that fired during one read did to it.
#[derive(Default)]
pub(crate) struct ReadFaults {
    /// This read's share of [`FaultStats`].
    pub(crate) delta: FaultStats,
    /// `(page, bit_offset)` flips to apply before the bytes are read.
    pub(crate) bit_flips: Vec<(u64, u64)>,
    /// The first page abandoned, and after how many attempts.
    pub(crate) gave_up: Option<(u64, u32)>,
}

#[derive(Default)]
pub(crate) struct FaultState {
    /// The planned faults that have not fired yet.
    plan: Vec<Fault>,
    /// Accesses of each page on the read (`false`) and write (`true`) path.
    /// Only an unfired fault's `nth_access` reads them, so they are kept
    /// only while `plan` is non-empty — an idle plan costs no map insert
    /// per page and the map cannot grow over a long run.
    access_counts: HashMap<(FileId, u64, bool), u64>,
    pub(crate) stats: FaultStats,
    /// Simulated power-cut: `Some(n)` lets `n` more page writes succeed,
    /// then every write fails until cleared (a "restart").
    pub(crate) write_crash: Option<u64>,
}

impl FaultState {
    /// Replaces the plan and resets the access counters it is keyed on.
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.plan = plan.faults;
        self.access_counts.clear();
    }

    /// Number of planned faults that have not fired yet.
    pub(crate) fn pending(&self) -> usize {
        self.plan.len()
    }

    /// Counts one access and fires the fault planned for exactly it, if any.
    fn take_fault(&mut self, file: FileId, page: u64, write: bool) -> Option<FaultKind> {
        let count = self.access_counts.entry((file, page, write)).or_insert(0);
        let nth = *count;
        *count += 1;
        let due = self.plan.iter().position(|fault| {
            fault.file == file
                && fault.page == page
                && fault.nth_access == nth
                && matches!(fault.kind, FaultKind::TornWrite) == write
        })?;
        Some(self.plan.remove(due).kind)
    }

    fn read(&mut self, file: FileId, pages: Range<u64>) -> Option<ReadFaults> {
        if self.plan.is_empty() {
            return None;
        }
        let mut hit = ReadFaults::default();
        for p in pages {
            match self.take_fault(file, p, false) {
                Some(FaultKind::TransientRead { failures }) => {
                    hit.delta.injected_transient += 1;
                    let attempts = failures.saturating_add(1).min(READ_ATTEMPTS);
                    hit.delta.retries += u64::from(attempts - 1);
                    if failures >= READ_ATTEMPTS {
                        hit.delta.gave_up += 1;
                        hit.gave_up.get_or_insert((p, READ_ATTEMPTS));
                    }
                }
                Some(FaultKind::BitFlip { bit_offset }) => {
                    hit.delta.injected_bit_flips += 1;
                    hit.bit_flips.push((p, bit_offset));
                }
                Some(FaultKind::LatencySpike) => hit.delta.injected_latency += 1,
                // `take_fault` keeps the write-path kind out of reads.
                Some(FaultKind::TornWrite) | None => {}
            }
        }
        self.stats.accumulate(&hit.delta);
        Some(hit)
    }

    fn write(&mut self, file: FileId, page: u64, file_name: &str) -> Result<bool> {
        if let Some(remaining) = &mut self.write_crash {
            if *remaining == 0 {
                return Err(Error::Io {
                    file: file_name.to_string(),
                    page,
                    attempts: 0,
                });
            }
            *remaining -= 1;
        }
        let torn = !self.plan.is_empty() && self.take_fault(file, page, true).is_some();
        self.stats.injected_torn += u64::from(torn);
        Ok(torn)
    }
}

/// The fault state of one [`DiskSim`](crate::DiskSim) and its
/// synchronisation.
#[derive(Default)]
pub(crate) struct FaultMachinery {
    /// Whether a planned fault has yet to fire or a write-crash is set —
    /// the only times a read or write needs `state`. [`with`](Self::with)
    /// stores it (`Release`) under the lock after every change; the I/O
    /// paths load it (`Acquire`) without, so an operation sees whatever
    /// armed the machinery before it began.
    live: AtomicBool,
    state: Mutex<FaultState>,
}

impl FaultMachinery {
    /// Runs `f` on the state under its lock, then republishes `live`.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut FaultState) -> R) -> R {
        let mut st = self.state.lock();
        let r = f(&mut st);
        let live = !st.plan.is_empty() || st.write_crash.is_some();
        self.live.store(live, Ordering::Release);
        r
    }

    /// Counts a read of `pages` and fires what the plan holds for it;
    /// `None` — without taking the lock — while nothing is armed.
    #[inline]
    pub(crate) fn on_read(&self, file: FileId, pages: Range<u64>) -> Option<ReadFaults> {
        if !self.live.load(Ordering::Acquire) {
            return None;
        }
        self.with(|st| st.read(file, pages))
    }

    /// Spends one write of an armed write-crash budget (failing the write
    /// that finds it empty), then fires any torn write planned for this
    /// access: `Ok(true)` says persist only the first half of the payload.
    #[inline]
    pub(crate) fn on_write(&self, file: FileId, page: u64, file_name: &str) -> Result<bool> {
        if !self.live.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.with(|st| st.write(file, page, file_name))
    }
}

#[cfg(test)]
impl FaultState {
    pub(crate) fn counted_pages(&self) -> usize {
        self.access_counts.len()
    }
}
