//! The generated join pair every executed driver runs against.
//!
//! `validate`, `measured`, `chaos`, `slowlog` and `serve-metrics` each join
//! a synthetic (inner, outer) pair on a simulated drive. [`Pair`] builds it
//! once — both collections, both inverted files and the inner signature
//! index — and [`Pair::fresh`] rewinds the drive before a run, so a run's
//! pages do not depend on where the run before it left the head.

use std::sync::Arc;
use textjoin_collection::{Collection, SynthSpec};
use textjoin_common::{QueryParams, Result, SystemParams};
use textjoin_core::{Indexes, JoinOutcome, JoinSpec};
use textjoin_costmodel::{Algorithm, CostEstimates, IoScenario};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_storage::DiskSim;

/// A generated (inner, outer) pair and every index file of it, on one drive.
pub struct Pair {
    /// The drive every file lives on.
    pub disk: Arc<DiskSim>,
    /// The inner collection, `c1`.
    pub c1: Collection,
    /// The outer collection, `c2`.
    pub c2: Collection,
    /// Inverted file of `c1`.
    pub inv1: InvertedFile,
    /// Inverted file of `c2`.
    pub inv2: InvertedFile,
    /// Signature index of `c1`.
    pub fnl1: FnlIndex,
}

impl Pair {
    /// Generates `inner` as `c1` and `outer` as `c2` on `disk`, then builds
    /// `inv1`, `inv2` and `fnl1`, in that order: the order fixes every
    /// file's `FileId`, and the chaos scenarios aim their faults by it.
    pub fn generate(disk: Arc<DiskSim>, inner: &SynthSpec, outer: &SynthSpec) -> Result<Pair> {
        let c1 = inner.generate(Arc::clone(&disk), "c1")?;
        let c2 = outer.generate(Arc::clone(&disk), "c2")?;
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1)?;
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2)?;
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1)?;
        Ok(Pair {
            disk,
            c1,
            c2,
            inv1,
            inv2,
            fnl1,
        })
    }

    /// The join of `c1` with `c2` under `sys` and `query`.
    pub fn spec(&self, sys: SystemParams, query: QueryParams) -> JoinSpec<'_> {
        JoinSpec::new(&self.c1, &self.c2)
            .with_sys(sys)
            .with_query(query)
    }

    /// All three index files.
    pub fn indexes(&self) -> Indexes<'_> {
        Indexes::all(&self.inv1, &self.inv2, &self.fnl1)
    }

    /// Resets the drive's counters and head, then runs `run`.
    pub fn fresh<T>(&self, run: impl FnOnce() -> Result<T>) -> Result<T> {
        self.disk.reset_stats();
        self.disk.reset_head();
        run()
    }

    /// Runs `algorithm` over `spec` on a rewound drive.
    pub fn run(&self, algorithm: Algorithm, spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
        self.fresh(|| textjoin_core::execute(algorithm, spec, &self.indexes()))
    }

    /// The §5 estimate of `algorithm` on `spec` under `scenario`, the
    /// signature index's measured statistics included; infinite when the
    /// algorithm cannot run.
    pub fn estimate(&self, algorithm: Algorithm, scenario: IoScenario, spec: &JoinSpec<'_>) -> f64 {
        let inputs = spec.cost_inputs().with_fnl(self.fnl1.stats());
        CostEstimates::compute(&inputs).cost(algorithm, scenario)
    }

    /// The dedicated-drive prediction of `algorithm` on `spec`, or `None`
    /// when there is no positive finite one.
    pub fn predict(&self, algorithm: Algorithm, spec: &JoinSpec<'_>) -> Option<f64> {
        Some(self.estimate(algorithm, IoScenario::Dedicated, spec))
            .filter(|p| p.is_finite() && *p > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::quick_configs;

    /// Every file on `disk`: name, id and page count.
    fn files(disk: &DiskSim) -> Vec<(String, u32, u64)> {
        (disk.file_names().into_iter())
            .map(|name| {
                let id = disk.file_by_name(&name).unwrap();
                (name, id.raw(), disk.num_pages(id))
            })
            .collect()
    }

    #[test]
    fn the_pair_lays_out_the_files_the_hand_built_sequence_did() {
        let cfg = &quick_configs()[0];
        let pair = Pair::generate(
            Arc::new(DiskSim::new(cfg.sys.page_size)),
            &cfg.spec1,
            &cfg.spec2,
        )
        .unwrap();

        // The sequence every driver used to write out by hand.
        let disk = Arc::new(DiskSim::new(cfg.sys.page_size));
        let c1 = cfg.spec1.generate(Arc::clone(&disk), "c1").unwrap();
        let c2 = cfg.spec2.generate(Arc::clone(&disk), "c2").unwrap();
        InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();

        let laid_out = files(&pair.disk);
        assert_eq!(laid_out, files(&disk));
        assert!(laid_out.len() >= 5, "{laid_out:?}");
        assert!(
            laid_out.iter().all(|&(_, _, pages)| pages > 0),
            "{laid_out:?}"
        );
        // Ids follow the build order: the inner collection's store first.
        assert_eq!(pair.c1.store().file().raw(), 0);
        assert!(pair.c2.store().file().raw() < pair.inv1.file().raw());
        assert!(pair.inv2.file().raw() < pair.fnl1.sig_file().raw());
    }

    #[test]
    fn a_run_starts_from_a_rewound_drive() {
        let cfg = &quick_configs()[0];
        let pair = Pair::generate(
            Arc::new(DiskSim::new(cfg.sys.page_size)),
            &cfg.spec1,
            &cfg.spec2,
        )
        .unwrap();
        let spec = pair.spec(cfg.sys, cfg.query);
        for algorithm in Algorithm::ALL {
            let first = pair.run(algorithm, &spec).unwrap();
            let again = pair.run(algorithm, &spec).unwrap();
            assert_eq!(first.result, again.result, "{algorithm}");
            assert_eq!(first.stats.cost, again.stats.cost, "{algorithm}");
            assert_eq!(pair.disk.stats().cost(cfg.sys.alpha), again.stats.cost);
            assert!(pair.predict(algorithm, &spec).is_some(), "{algorithm}");
        }
    }
}
