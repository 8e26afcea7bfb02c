//! Model snapshots: one immutable published epoch of the item catalog.
//!
//! A [`ModelSnapshot`] is encoded once per epoch — FP32 master, optional
//! FP16 and int8 copies, priors — and then only read. The sharded store
//! ([`crate::shard::ShardedFactorStore`]) swaps snapshots atomically
//! behind an `Arc` and scores them through contiguous range views, so
//! each encoding is resident exactly once however many shards read it.

use crate::ann::{AnnParams, CentroidIndex, QuantizedFactors};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::f16::{narrow_slice, F16};
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use std::sync::Arc;

/// One immutable published model epoch: item factors (optionally also in
/// FP16), per-item popularity priors, and the epoch number.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::store::ModelSnapshot;
///
/// let theta = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
/// let snap = ModelSnapshot::new(7, theta, vec![0.1, 0.2]).with_fp16();
/// assert_eq!(snap.epoch, 7);
/// assert_eq!(snap.n_items(), 2);
/// assert!(snap.has_fp16());
/// ```
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    /// Monotonic epoch number; cache keys embed it so entries from an old
    /// model can never answer for a new one.
    pub epoch: u64,
    /// Item factors `Θ`, one `f`-long row per item. Shared, so a snapshot
    /// can be a view over a matrix the caller already holds (the
    /// similar-users path scores `X` this way without copying it).
    item_factors: Arc<DenseMatrix>,
    /// The same factors narrowed to binary16 (row-major, same layout),
    /// populated by [`ModelSnapshot::with_fp16`]. Reading these halves
    /// scoring bandwidth exactly as the paper's FP16 Gram storage halves
    /// solver bandwidth.
    item_factors_f16: Option<Vec<F16>>,
    /// Per-item additive prior (e.g. log-popularity), added to every score;
    /// empty means no prior.
    popularity: Vec<f32>,
    /// K-means centroid index over the item factors, populated by
    /// [`ModelSnapshot::with_ann`]. Enables the two-stage approximate
    /// retrieval path ([`crate::scorer::Retrieval::Approx`]); sharding
    /// moves it into the shards.
    ann: Option<CentroidIndex>,
    /// Int8 per-block-scale copy of the factors, populated by
    /// [`ModelSnapshot::with_int8`] — the shortlist-scan format of the
    /// approximate path (a quarter of the FP32 scan bytes).
    int8: Option<QuantizedFactors>,
}

impl ModelSnapshot {
    /// A snapshot of `item_factors` with additive `popularity` priors
    /// (pass an empty vector for none; otherwise one entry per item).
    pub fn new(epoch: u64, item_factors: DenseMatrix, popularity: Vec<f32>) -> ModelSnapshot {
        ModelSnapshot::shared(epoch, Arc::new(item_factors), popularity)
    }

    /// [`ModelSnapshot::new`] over an already shared factor matrix: no
    /// rows are copied.
    pub(crate) fn shared(
        epoch: u64,
        item_factors: Arc<DenseMatrix>,
        popularity: Vec<f32>,
    ) -> ModelSnapshot {
        assert!(
            popularity.is_empty() || popularity.len() == item_factors.rows(),
            "popularity prior length {} != item count {}",
            popularity.len(),
            item_factors.rows()
        );
        ModelSnapshot {
            epoch,
            item_factors,
            item_factors_f16: None,
            popularity,
            ann: None,
            int8: None,
        }
    }

    /// Attach an FP16 copy of the factors, enabling the quantized scoring
    /// path (builder-style). Costs one narrowing pass now; the FP32 master
    /// stays available (fold-in always solves against it).
    pub fn with_fp16(mut self) -> ModelSnapshot {
        let src = self.item_factors.as_slice();
        let mut q = vec![F16::ZERO; src.len()];
        narrow_slice(src, &mut q);
        self.item_factors_f16 = Some(q);
        self
    }

    /// Build and attach a [`CentroidIndex`] over the item factors
    /// (builder-style) — the publish-time half of two-stage approximate
    /// retrieval. Costs one seeded k-means pass now; requests probe the
    /// index instead of scanning the full catalog when the scorer runs in
    /// [`crate::scorer::Retrieval::Approx`] mode.
    pub fn with_ann(mut self, params: AnnParams) -> ModelSnapshot {
        self.ann = Some(CentroidIndex::build(&self.item_factors, params));
        self
    }

    /// Build and attach an int8 per-block-scale copy of the factors
    /// (builder-style), the shortlist-scan format of the approximate
    /// path. The FP32 master stays available — final shortlists are
    /// always rescored against it.
    pub fn with_int8(mut self) -> ModelSnapshot {
        self.int8 = Some(QuantizedFactors::build(&self.item_factors));
        self
    }

    /// Number of items (rows of `Θ`).
    pub fn n_items(&self) -> usize {
        self.item_factors.rows()
    }

    /// Feature dimension `f`.
    pub fn f(&self) -> usize {
        self.item_factors.cols()
    }

    /// Whether the FP16 factor copy is present.
    pub fn has_fp16(&self) -> bool {
        self.item_factors_f16.is_some()
    }

    /// Whether a centroid index is present.
    pub fn has_ann(&self) -> bool {
        self.ann.is_some()
    }

    /// Whether the int8 factor copy is present.
    pub fn has_int8(&self) -> bool {
        self.int8.is_some()
    }

    /// The centroid index, when [`ModelSnapshot::with_ann`] built one.
    pub fn ann(&self) -> Option<&CentroidIndex> {
        self.ann.as_ref()
    }

    /// Move the centroid index out (sharding hands it to a range view or
    /// replaces it with per-shard indices).
    pub(crate) fn take_ann(&mut self) -> Option<CentroidIndex> {
        self.ann.take()
    }

    /// The int8 factor copy, when [`ModelSnapshot::with_int8`] built one.
    pub fn int8(&self) -> Option<&QuantizedFactors> {
        self.int8.as_ref()
    }

    /// The FP32 item-factor matrix.
    pub fn item_factors(&self) -> &DenseMatrix {
        &self.item_factors
    }

    /// The per-item popularity priors (empty when none were attached).
    pub fn popularity(&self) -> &[f32] {
        &self.popularity
    }

    /// Borrow item `v`'s FP32 factor row directly — no scratch argument,
    /// no block arithmetic. The single-row accessor the approximate
    /// member scan and exact rescore use per candidate.
    #[inline]
    pub fn item_row(&self, v: usize) -> &[f32] {
        let f = self.f();
        &self.item_factors.as_slice()[v * f..(v + 1) * f]
    }

    /// The FP16 factor copy as one flat row-major slice, when
    /// [`ModelSnapshot::with_fp16`] attached one. The fused-decode scorer
    /// slices Θ-blocks straight out of this — the widen happens inside
    /// the kernel loop, never into a scratch buffer.
    #[inline]
    pub fn f16_factors(&self) -> Option<&[F16]> {
        self.item_factors_f16.as_deref()
    }

    /// Additive prior for `item` (0 when no priors were attached).
    #[inline]
    pub fn prior(&self, item: usize) -> f32 {
        if self.popularity.is_empty() {
            0.0
        } else {
            self.popularity[item]
        }
    }
}

impl MemoryFootprint for ModelSnapshot {
    /// Children: `fp32` (the master `Θ` matrix), `fp16` (the narrowed
    /// copy, present only after [`ModelSnapshot::with_fp16`]),
    /// `centroids` (after [`ModelSnapshot::with_ann`]), `int8` (after
    /// [`ModelSnapshot::with_int8`]), and `priors`. Exact payload bytes —
    /// container headers are not counted.
    fn footprint(&self) -> FootprintReport {
        let mut children = vec![FootprintReport::leaf(
            "fp32",
            std::mem::size_of_val(self.item_factors.as_slice()) as u64,
        )];
        if let Some(q) = &self.item_factors_f16 {
            children.push(FootprintReport::leaf(
                "fp16",
                (q.len() * std::mem::size_of::<F16>()) as u64,
            ));
        }
        if let Some(idx) = &self.ann {
            children.push(FootprintReport::leaf("centroids", idx.bytes()));
        }
        if let Some(q) = &self.int8 {
            children.push(FootprintReport::leaf("int8", q.bytes()));
        }
        children.push(FootprintReport::leaf(
            "priors",
            (self.popularity.len() * std::mem::size_of::<f32>()) as u64,
        ));
        FootprintReport::branch("snapshot", children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, n: usize, f: usize) -> ModelSnapshot {
        let mut m = DenseMatrix::zeros(n, f);
        for i in 0..n {
            for j in 0..f {
                m.set(i, j, (i * f + j) as f32 * 0.1);
            }
        }
        ModelSnapshot::new(epoch, m, vec![])
    }

    #[test]
    fn fp16_block_read_is_close_to_fp32() {
        let s = snap(0, 8, 4).with_fp16();
        let q = s.f16_factors().expect("FP16 copy attached");
        assert_eq!(q.len(), s.item_factors().as_slice().len());
        for v in 2..5 {
            for (h, &e) in q[v * 4..(v + 1) * 4].iter().zip(s.item_row(v)) {
                // binary16 unit roundoff is 2⁻¹¹; values here are ≤ 3.1.
                let q = h.to_f32();
                assert!((q - e).abs() <= e.abs() * 1e-3 + 1e-6, "{q} vs {e}");
            }
        }
    }

    #[test]
    fn fp16_flag_without_copy_falls_back_to_fp32() {
        let s = snap(0, 4, 2);
        assert!(s.f16_factors().is_none());
        let user = [0.7f32, -0.3];
        let fp16 = crate::scorer::score_one(&s, &user, true);
        assert_eq!(fp16, crate::scorer::score_one(&s, &user, false));
    }

    #[test]
    fn priors_default_to_zero() {
        let s = snap(0, 3, 2);
        assert_eq!(s.prior(2), 0.0);
        let with = ModelSnapshot::new(0, DenseMatrix::identity(2), vec![0.5, -0.5]);
        assert_eq!(with.prior(0), 0.5);
        assert_eq!(with.prior(1), -0.5);
    }

    #[test]
    #[should_panic(expected = "popularity prior length")]
    fn wrong_prior_length_rejected() {
        let _ = ModelSnapshot::new(0, DenseMatrix::identity(3), vec![1.0]);
    }

    #[test]
    fn fp16_footprint_is_half_the_fp32_copy() {
        let plain = snap(0, 64, 16);
        let r = plain.footprint();
        assert!(r.verify());
        let find = |r: &cumf_telemetry::FootprintReport, name: &str| {
            r.children()
                .iter()
                .find(|c| c.name() == name)
                .map(|c| c.total_bytes())
        };
        assert_eq!(find(&r, "fp32"), Some(64 * 16 * 4));
        assert_eq!(find(&r, "fp16"), None, "no FP16 copy, no FP16 component");

        let quant = snap(0, 64, 16).with_fp16();
        let r = quant.footprint();
        assert!(r.verify());
        let fp32 = find(&r, "fp32").unwrap();
        let fp16 = find(&r, "fp16").unwrap();
        assert_eq!(fp16 * 2, fp32, "binary16 copy is exactly half the master");
        assert_eq!(r.total_bytes(), fp32 + fp16);
    }

    #[test]
    fn ann_and_int8_footprints_appear_when_attached() {
        let s = snap(0, 64, 8)
            .with_ann(crate::ann::AnnParams {
                k_clusters: 4,
                ..crate::ann::AnnParams::default()
            })
            .with_int8();
        assert!(s.has_ann() && s.has_int8());
        let r = s.footprint();
        assert!(r.verify());
        let find = |name: &str| {
            r.children()
                .iter()
                .find(|c| c.name() == name)
                .map(|c| c.total_bytes())
        };
        assert_eq!(find("centroids"), Some(s.ann().unwrap().bytes()));
        assert_eq!(find("int8"), Some(s.int8().unwrap().bytes()));
        // int8 weights are a quarter of the fp32 payload (plus scales).
        assert_eq!(find("int8").unwrap(), 64 * 8 + 2 * 4);
        assert_eq!(find("fp32").unwrap(), 64 * 8 * 4);
        // A plain snapshot carries neither component.
        let plain = snap(0, 64, 8).footprint();
        assert!(plain.children().iter().all(|c| c.name() != "centroids"));
        assert!(plain.children().iter().all(|c| c.name() != "int8"));
    }
}
