//! The forward loop's formula, written once (sections 4.1 and 5.1).
//!
//! HHNL and FNL hold `X` outer documents and stream the inner side once
//! per round. A blocked nested loop costs the blocks its scans transfer,
//! so what is streamed — the [`Source`] — enters as five sizes, not as a
//! second formula:
//!
//! ```text
//! X       = (B − pinned − ⌈S1⌉) / per_outer_doc
//! passes  = ⌈Σᵢ N2ᵢ / Xᵢ⌉                      (live outer documents)
//! forward = open + Σᵢ outer_readᵢ + passes · pass_pages + seeks
//! worst   = forward + Σᵢ seek_penaltyᵢ
//! ```
//!
//! A single query is the batch of one: the named functions of `hhnl` and
//! `fnl` choose the source and the inputs, nothing else.

use crate::fnl::{RANK_CELL_BYTES, TOPK_SLOT_BYTES};
use crate::inputs::JoinInputs;
use textjoin_common::{Error, Result, SIM_VALUE_BYTES};

/// What the inner side of the forward loop streams, as the formula sees
/// it: five sizes in pages, at one query's inputs.
pub(crate) struct Source {
    name: &'static str,
    /// Read once when the run opens.
    open_pages: f64,
    /// Pinned for the whole run beside the `⌈S1⌉` stream slot.
    pinned_pages: f64,
    /// One resident outer document with its keys and λ result slots.
    per_outer_doc: f64,
    /// One pass over the inner side. The delta side file `ΔD1` is in no
    /// index, so every source re-reads it raw.
    pass_pages: f64,
    /// Seeks priced per rewind (one to open, one per pass) even on a
    /// dedicated device: 1, or 0 where the paper's `hhs` leaves them out.
    seeks: f64,
}

/// A source at one query's inputs, or why it cannot run.
pub(crate) type SourceAt = fn(&JoinInputs) -> Result<Source>;

/// HHNL streams the inner documents themselves — section 5.1 as printed,
/// `X = (B − ⌈S1⌉)/(S2 + 4λ/P)`.
pub(crate) fn documents(i: &JoinInputs) -> Result<Source> {
    let p = i.sys.page_size as f64;
    Ok(Source {
        name: "HHNL",
        open_pages: 0.0,
        pinned_pages: 0.0,
        per_outer_doc: i.s2() + SIM_VALUE_BYTES as f64 * i.query.lambda as f64 / p,
        pass_pages: i.d1_frag(),
        seeks: 0.0,
    })
}

/// FNL streams the inner side's signature index. Not a paper formula, so
/// it prices the executor as measured: the sidecar `M` read once and kept
/// resident, 8 bytes per rank cell of a resident document, and 8 bytes per
/// λ slot (value *and* document number) — the paper's 4 underpredict
/// passes at high λ.
pub(crate) fn signatures(i: &JoinInputs) -> Result<Source> {
    let Some(fnl) = i.fnl else {
        let why = "FNL requires a signature index on the inner side";
        return Err(Error::InvalidArgument(why.into()));
    };
    let p = i.sys.page_size as f64;
    Ok(Source {
        name: "FNL",
        open_pages: fnl.meta_pages as f64,
        pinned_pages: fnl.meta_bytes as f64 / p,
        per_outer_doc: i.s2()
            + (RANK_CELL_BYTES as f64 * i.outer.avg_terms_per_doc) / p
            + TOPK_SLOT_BYTES as f64 * i.query.lambda as f64 / p,
        pass_pages: fnl.index_pages as f64 + i.inner_frag.doc_delta_pages as f64,
        seeks: 1.0,
    })
}

/// `X` — the outer documents one query holds in memory per pass. Fails
/// when the buffer cannot hold what the source pins, one streamed inner
/// document and one resident outer document.
pub(crate) fn batch_size(source: SourceAt, i: &JoinInputs) -> Result<f64> {
    let size = source(i)?;
    let fixed = size.pinned_pages + i.s1().ceil();
    let x = (i.b() - fixed) / size.per_outer_doc;
    if x < 1.0 {
        return Err(Error::InsufficientMemory {
            context: format!("{} outer batch (X < 1)", size.name),
            required_pages: (fixed + size.per_outer_doc).ceil() as u64,
            available_pages: i.sys.buffer_pages,
        });
    }
    Ok(x)
}

/// `⌈Σᵢ N2ᵢ/Xᵢ⌉` — passes over the inner side. Rounds fill across query
/// boundaries, so the fractional passes are summed before the one ceiling;
/// tombstoned outer documents are skipped before batching, so only live
/// ones count.
pub(crate) fn passes(source: SourceAt, inputs: &[JoinInputs]) -> Result<f64> {
    let mut fractional = 0.0;
    for i in inputs {
        fractional += i.n2() / batch_size(source, i)?;
    }
    Ok(fractional.ceil().max(1.0))
}

/// The dedicated-device cost of a non-empty batch: the source opened once,
/// every query's outer side read once and the inner side streamed once per
/// pooled pass. The shared sizes are the first query's.
pub(crate) fn sequential(source: SourceAt, inputs: &[JoinInputs]) -> Result<f64> {
    let first = &inputs[0];
    let outer: f64 = inputs.iter().map(JoinInputs::outer_read_cost).sum();
    let size = source(first)?;
    let passes = passes(source, inputs)?;
    let seeks = size.seeks * (1.0 + passes) * (first.alpha() - 1.0);
    Ok(size.open_pages + outer + passes * size.pass_pages + seeks)
}

/// The shared-device worst case: the pooled sequential cost plus every
/// query's own seek penalty — section 5.1's `hhr − hhs`, kept per query so
/// the sum stays a safe upper bound. For `N2 ≥ X` every read of a streamed
/// item and every round becomes a seek; for `N2 < X` the whole outer side
/// stays resident and the leftover memory reads the inner side in blocks.
pub(crate) fn worst_case_random(source: SourceAt, inputs: &[JoinInputs]) -> Result<f64> {
    let mut penalty = 0.0;
    for i in inputs {
        let size = source(i)?;
        let x = batch_size(source, i)?;
        let seeks = if i.n2() >= x {
            let passes = passes(source, std::slice::from_ref(i))?;
            passes * (1.0 + size.pass_pages.min(i.n1()))
        } else {
            let leftover_pages = ((x - i.n2()) * i.s2()).max(1.0);
            (size.pass_pages / leftover_pages).ceil()
        };
        penalty += seeks * (i.alpha() - 1.0);
    }
    Ok(sequential(source, inputs)? + penalty)
}
