//! Cross-query calibration persistence.
//!
//! PR 2's `CostCalibrator` learns measured compile costs and observed
//! speedups *within* one query and throws them away at query end. The
//! [`CalibrationStore`] is the engine-lifetime accumulator above it:
//! after every execution the query's final [`CalibrationReport`] is
//! absorbed, keyed by a coarse [`WorkloadShape`], and later queries seed
//! their calibrators from the store — so a whole workload warms the cost
//! model instead of every query rediscovering the same constants
//! (ROADMAP: "Cross-query calibration persistence").
//!
//! Shapes are deliberately coarse (pipeline count × log₂ instruction
//! bucket): the constants being calibrated — per-instruction compile cost,
//! level speedups — are properties of the *hardware and backends*, only
//! mildly modulated by query size. A query with no exact shape match
//! seeds from the global blend; [`clear`](CalibrationStore::clear) is the
//! eviction hook for when data or hardware change underneath the engine.
//!
//! **Concurrency.** Every execution seeds from the store on its hot
//! path, so reads follow the engine's epoch discipline: the whole store
//! is an immutable snapshot behind an `Arc` — [`seed`] clones the `Arc`
//! and looks up lock-free, while [`absorb`]/[`clear`] rebuild the store
//! copy-on-write (serialized by a writer mutex that readers never touch)
//! and publish the successor in one swap. Absorbs are rare (one per
//! execution) and the map is small, so the clone is cheap; seeds are hot
//! and now never serialize.
//!
//! [`seed`]: CalibrationStore::seed
//! [`absorb`]: CalibrationStore::absorb

use super::epoch::EpochCell;
use crate::sched::{CalibrationReport, CostModel};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Coarse workload-shape key for calibration persistence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WorkloadShape {
    /// Number of pipelines in the plan.
    pub pipelines: usize,
    /// `log₂` of the module's IR instruction count.
    pub instr_bucket: u32,
}

impl WorkloadShape {
    pub fn new(pipelines: usize, instrs: usize) -> WorkloadShape {
        WorkloadShape { pipelines, instr_bucket: (instrs.max(1) as u64).ilog2() }
    }
}

#[derive(Clone, Default)]
struct Store {
    by_shape: HashMap<WorkloadShape, CostModel>,
    /// Blend over every absorbed report, the fallback seed for shapes the
    /// engine has not run yet.
    global: Option<CostModel>,
    absorbed: u64,
}

/// Engine-lifetime store of calibrated cost models, keyed by workload
/// shape. Reads are snapshot-`Arc` clones (never serialized behind a
/// map lock); writes rebuild copy-on-write.
pub struct CalibrationStore {
    snap: EpochCell<Arc<Store>>,
    /// Serializes writers only, so concurrent absorbs cannot lose each
    /// other's blend; readers never touch it.
    write: Mutex<()>,
}

/// Blend weight when absorbing a new report into an existing entry;
/// mirrors the in-query calibrator's damping.
const BLEND: f64 = 0.5;

fn blend(old: &CostModel, new: &CostModel) -> CostModel {
    let mix = |a: f64, b: f64| a * (1.0 - BLEND) + b * BLEND;
    CostModel {
        unopt_base_s: mix(old.unopt_base_s, new.unopt_base_s),
        unopt_per_instr_s: mix(old.unopt_per_instr_s, new.unopt_per_instr_s),
        native_base_s: mix(old.native_base_s, new.native_base_s),
        native_per_instr_s: mix(old.native_per_instr_s, new.native_per_instr_s),
        simd_base_s: mix(old.simd_base_s, new.simd_base_s),
        simd_per_instr_s: mix(old.simd_per_instr_s, new.simd_per_instr_s),
        speedup_unopt: mix(old.speedup_unopt, new.speedup_unopt),
        speedup_native: mix(old.speedup_native, new.speedup_native),
        speedup_simd: mix(old.speedup_simd, new.speedup_simd),
    }
}

impl CalibrationStore {
    pub(crate) fn new() -> CalibrationStore {
        CalibrationStore { snap: EpochCell::new(Arc::new(Store::default())), write: Mutex::new(()) }
    }

    /// The model a query of this shape should start from: the shape's own
    /// entry, else the global blend, else `None` (cold store). Lock-free
    /// lookup over the current snapshot — the hot-path read of every
    /// execution never serializes behind writers.
    pub fn seed(&self, shape: WorkloadShape) -> Option<CostModel> {
        let s = self.snap.get();
        s.by_shape.get(&shape).copied().or(s.global)
    }

    /// Absorb what one execution learned. Reports without a single
    /// observation are ignored — they would only echo the seed back.
    /// Copy-on-write: builds the successor store off to the side and
    /// publishes it in one swap; in-flight seeds keep their snapshot.
    pub fn absorb(&self, shape: WorkloadShape, rep: &CalibrationReport) {
        if rep.compile_observations + rep.speedup_observations == 0 {
            return;
        }
        let _writers = self.write.lock();
        let mut next = (*self.snap.get()).clone();
        next.absorbed += 1;
        let entry = match next.by_shape.get(&shape) {
            Some(old) => blend(old, &rep.model),
            None => rep.model,
        };
        next.by_shape.insert(shape, entry);
        next.global = Some(match &next.global {
            Some(old) => blend(old, &rep.model),
            None => rep.model,
        });
        self.snap.set(Arc::new(next));
    }

    /// Forget everything — the eviction hook for when the data or the
    /// hardware underneath the engine changed.
    pub fn clear(&self) {
        let _writers = self.write.lock();
        self.snap.set(Arc::new(Store::default()));
    }

    /// Number of distinct workload shapes with a calibrated entry.
    pub fn len(&self) -> usize {
        self.snap.get().by_shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total reports absorbed since construction (or the last `clear`).
    pub fn absorbed(&self) -> u64 {
        self.snap.get().absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(native_per_instr_s: f64) -> CalibrationReport {
        CalibrationReport {
            compile_observations: 1,
            speedup_observations: 0,
            model: CostModel { native_per_instr_s, ..CostModel::default() },
        }
    }

    #[test]
    fn cold_store_has_no_seed() {
        let s = CalibrationStore::new();
        assert!(s.seed(WorkloadShape::new(2, 1000)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn absorb_then_seed_same_shape() {
        let s = CalibrationStore::new();
        let shape = WorkloadShape::new(2, 1000);
        s.absorb(shape, &report_with(9.0e-6));
        let m = s.seed(shape).expect("seed after absorb");
        assert!((m.native_per_instr_s - 9.0e-6).abs() < 1e-12);
        assert_eq!(s.len(), 1);
        assert_eq!(s.absorbed(), 1);
    }

    #[test]
    fn unseen_shape_falls_back_to_global_blend() {
        let s = CalibrationStore::new();
        s.absorb(WorkloadShape::new(2, 1000), &report_with(9.0e-6));
        let other = WorkloadShape::new(5, 64);
        let m = s.seed(other).expect("global fallback");
        assert!((m.native_per_instr_s - 9.0e-6).abs() < 1e-12);
    }

    #[test]
    fn observation_free_reports_are_ignored_and_clear_evicts() {
        let s = CalibrationStore::new();
        let shape = WorkloadShape::new(1, 100);
        s.absorb(
            shape,
            &CalibrationReport {
                compile_observations: 0,
                speedup_observations: 0,
                model: CostModel::default(),
            },
        );
        assert!(s.seed(shape).is_none(), "no-observation report must not seed");
        s.absorb(shape, &report_with(9.0e-6));
        assert!(s.seed(shape).is_some());
        s.clear();
        assert!(s.seed(shape).is_none());
        assert_eq!(s.absorbed(), 0);
    }

    #[test]
    fn repeated_absorbs_blend_toward_new_measurements() {
        let s = CalibrationStore::new();
        let shape = WorkloadShape::new(2, 1000);
        s.absorb(shape, &report_with(8.0e-6));
        s.absorb(shape, &report_with(16.0e-6));
        let m = s.seed(shape).unwrap();
        assert!((m.native_per_instr_s - 12.0e-6).abs() < 1e-12, "50/50 blend");
    }
}
