//! Speculative KV-prefetch policy seam (InfiniGen-style).
//!
//! When a session's resident KV has been spilled to a lower memory tier
//! (host DRAM or SSD), the next inference step must stream the spilled
//! part of its working set back across PCIe. *When* that stream starts
//! is a retrieval-policy decision:
//!
//! * **demand** fetching ([`NoPrefetch`]) waits until the step executes
//!   and pays the full migration latency on the critical path — the
//!   FlexGen regime;
//! * **speculative** prefetching ([`SpeculativePrefetch`]) predicts the
//!   working set ahead of the step (InfiniGen predicts next-layer
//!   attention inputs from the current layer's partial computation) and
//!   issues the migration early, so the transfer overlaps the wait
//!   window and the step's own layer-by-layer compute. Mispredicted
//!   tokens still demand-fetch;
//! * **cluster** prefetching ([`ClusterPrefetch`]) speculates at hash-
//!   cluster granularity: the predicted set is the WiCSum-mass rank
//!   prefix from the previous step ([`ClusterPlan`]), so a
//!   cluster-aware tier manager only restores the *accessed* spilled
//!   clusters instead of a flat share of every spilled byte.
//!
//! The seam is deliberately tiny: the serving scheduler in
//! `vrex-system` describes the step ([`PrefetchRequest`]) and the
//! policy answers with how many bytes it will have in flight before the
//! step starts and how accurate the speculation is ([`PrefetchPlan`]).
//! The scheduler turns the plan into overlapped-vs-exposed migration
//! time; the policy never sees scheduler state, so new policies (e.g.
//! cluster-aware prefetch over the ReSV hash table) drop in without
//! touching the scheduler.

/// One upcoming inference step, as the prefetcher sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchRequest {
    /// Bytes of this session's resident KV currently below the device
    /// tier (spilled to host DRAM / SSD).
    pub cold_bytes: u64,
    /// Fraction of the cache the step's retrieval method will actually
    /// attend to (the method's calibrated selection ratio).
    pub selection_ratio: f64,
    /// `true` for a text-generation (decode) step.
    pub generation: bool,
}

impl PrefetchRequest {
    /// Bytes the step needs from below the device tier: the selected
    /// share of the spilled residency.
    pub fn needed_bytes(&self) -> u64 {
        (self.cold_bytes as f64 * self.selection_ratio.clamp(0.0, 1.0)).ceil() as u64
    }
}

/// What a prefetch policy promises to have in flight before the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchPlan {
    /// Bytes speculatively issued ahead of the step (0 = pure demand).
    pub bytes: u64,
    /// Fraction of the issued bytes that turn out to be the right ones;
    /// the rest are re-fetched on demand.
    pub accuracy: f64,
}

impl PrefetchPlan {
    /// A plan that prefetches nothing.
    pub fn demand() -> Self {
        Self {
            bytes: 0,
            accuracy: 0.0,
        }
    }

    /// Fraction of `needed` bytes this plan hides ahead of the step.
    pub fn coverage(&self, needed: u64) -> f64 {
        if needed == 0 {
            return 0.0;
        }
        (self.bytes.min(needed) as f64 / needed as f64) * self.accuracy.clamp(0.0, 1.0)
    }
}

/// One upcoming inference step, described at hash-cluster granularity.
///
/// Clusters are identified by **rank**: rank 0 carried the most WiCSum
/// mass in the previous step, rank `clusters - 1` the least. The tier
/// manager owns the rank → residency map; the policy only decides how
/// deep into the ranking speculation reaches and how many predictions
/// miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPrefetchRequest {
    /// Hash clusters in the session's resident window.
    pub clusters: u64,
    /// Fraction of the cache the step's retrieval method will actually
    /// attend to (the method's calibrated selection ratio).
    pub selection_ratio: f64,
    /// `true` for a text-generation (decode) step.
    pub generation: bool,
    /// Deterministic per-session step counter — policies may use it to
    /// rotate *which* predictions miss, so mispredictions are not
    /// pinned to fixed ranks.
    pub step_seq: u64,
}

/// A ranked cluster set a policy promises to speculate on.
///
/// The predicted set is the rank prefix `[0, predicted)`; the actual
/// access swaps the `mispredicted` weakest predictions for tail
/// clusters the ranking missed, which must be demand-fetched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Clusters speculatively issued ahead of the step: the WiCSum rank
    /// prefix `[0, predicted)`.
    pub predicted: u64,
    /// Predictions that turn out wrong; the step instead touches that
    /// many clusters from the tail `[predicted, clusters)`, fetched on
    /// demand at batch formation.
    pub mispredicted: u64,
}

/// Decides how much spilled KV to stream up *before* a step executes.
pub trait PrefetchPolicy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Plans the speculative transfer for one step.
    fn plan(&self, req: &PrefetchRequest) -> PrefetchPlan;

    /// Plans the speculation as a ranked cluster set instead of a flat
    /// byte fraction. `None` (the default) means the policy is
    /// cluster-blind and the tier manager must fall back to [`plan`]
    /// (keeping the flat policies bit-identical).
    ///
    /// [`plan`]: PrefetchPolicy::plan
    fn cluster_plan(&self, req: &ClusterPrefetchRequest) -> Option<ClusterPlan> {
        let _ = req;
        None
    }
}

/// Pure demand fetching: nothing moves until the step needs it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPrefetch;

impl PrefetchPolicy for NoPrefetch {
    fn name(&self) -> &'static str {
        "demand"
    }

    fn plan(&self, _req: &PrefetchRequest) -> PrefetchPlan {
        PrefetchPlan::demand()
    }
}

/// InfiniGen-style speculation: issue the predicted working set (the
/// selected share of the spilled bytes) ahead of the step, with a
/// calibrated prediction accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculativePrefetch {
    /// Fraction of speculated bytes that are the right ones (InfiniGen
    /// reports ~90% attention recall from partial-computation
    /// speculation).
    pub accuracy: f64,
}

impl PrefetchPolicy for SpeculativePrefetch {
    fn name(&self) -> &'static str {
        "speculative"
    }

    fn plan(&self, req: &PrefetchRequest) -> PrefetchPlan {
        PrefetchPlan {
            bytes: req.needed_bytes(),
            accuracy: self.accuracy,
        }
    }
}

/// WiCSum-scored cluster speculation: predict the rank prefix that the
/// previous step's cluster mass ordering says the next step will touch.
///
/// ReSV's WiCSum selection is a mass-threshold over *cluster* scores —
/// for the calibrated selection ratio `r` over `n` clusters the
/// selected set is the top `⌈r·n⌉` ranks (score-descending prefix; see
/// `vrex_core::wicsum`). This policy speculates exactly that prefix and
/// charges itself `⌈(1 − accuracy)·k⌉` misses: that many weak
/// predictions are swapped for tail clusters the ranking did not
/// foresee, which the scheduler demand-fetches at batch formation.
/// Which tail clusters miss rotates deterministically with the step
/// counter, so the miss set is not pinned to fixed ranks.
///
/// The flat [`plan`](PrefetchPolicy::plan) fallback is byte-identical
/// to [`SpeculativePrefetch`], so a tier manager without cluster state
/// degrades gracefully to the InfiniGen-style behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPrefetch {
    /// Fraction of predicted clusters that are the right ones.
    pub accuracy: f64,
}

impl ClusterPrefetch {
    /// Default calibration: the same 90% speculation accuracy the
    /// InfiniGen-style flat policy uses, now counted in clusters.
    pub fn wicsum_default() -> Self {
        Self { accuracy: 0.9 }
    }
}

impl PrefetchPolicy for ClusterPrefetch {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn plan(&self, req: &PrefetchRequest) -> PrefetchPlan {
        PrefetchPlan {
            bytes: req.needed_bytes(),
            accuracy: self.accuracy,
        }
    }

    fn cluster_plan(&self, req: &ClusterPrefetchRequest) -> Option<ClusterPlan> {
        if req.clusters == 0 {
            return Some(ClusterPlan::default());
        }
        let ratio = req.selection_ratio.clamp(0.0, 1.0);
        let predicted = ((req.clusters as f64 * ratio).ceil() as u64).min(req.clusters);
        let tail = req.clusters - predicted;
        let miss_rate = (1.0 - self.accuracy.clamp(0.0, 1.0)).clamp(0.0, 1.0);
        let mispredicted = ((predicted as f64 * miss_rate).ceil() as u64).min(tail);
        Some(ClusterPlan {
            predicted,
            mispredicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cold: u64, ratio: f64) -> PrefetchRequest {
        PrefetchRequest {
            cold_bytes: cold,
            selection_ratio: ratio,
            generation: false,
        }
    }

    #[test]
    fn needed_bytes_is_the_selected_share_of_the_spill() {
        assert_eq!(req(1000, 0.25).needed_bytes(), 250);
        assert_eq!(req(1000, 1.0).needed_bytes(), 1000);
        assert_eq!(req(0, 0.5).needed_bytes(), 0);
        // Ratios are clamped into [0, 1].
        assert_eq!(req(1000, 7.0).needed_bytes(), 1000);
    }

    #[test]
    fn demand_policy_covers_nothing() {
        let plan = NoPrefetch.plan(&req(4096, 0.5));
        assert_eq!(plan.bytes, 0);
        assert_eq!(plan.coverage(2048), 0.0);
        assert_eq!(NoPrefetch.name(), "demand");
    }

    #[test]
    fn speculative_policy_covers_needed_bytes_at_its_accuracy() {
        let policy = SpeculativePrefetch { accuracy: 0.9 };
        let r = req(10_000, 0.3);
        let plan = policy.plan(&r);
        assert_eq!(plan.bytes, r.needed_bytes());
        assert!((plan.coverage(r.needed_bytes()) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn coverage_saturates_at_the_needed_bytes() {
        let plan = PrefetchPlan {
            bytes: 1_000_000,
            accuracy: 1.0,
        };
        assert!((plan.coverage(10) - 1.0).abs() < 1e-12);
        assert_eq!(plan.coverage(0), 0.0);
    }

    fn creq(clusters: u64, ratio: f64, seq: u64) -> ClusterPrefetchRequest {
        ClusterPrefetchRequest {
            clusters,
            selection_ratio: ratio,
            generation: false,
            step_seq: seq,
        }
    }

    #[test]
    fn flat_policies_are_cluster_blind() {
        assert_eq!(NoPrefetch.cluster_plan(&creq(100, 0.3, 0)), None);
        let spec = SpeculativePrefetch { accuracy: 0.9 };
        assert_eq!(spec.cluster_plan(&creq(100, 0.3, 0)), None);
    }

    #[test]
    fn cluster_plan_predicts_the_wicsum_prefix() {
        let p = ClusterPrefetch::wicsum_default();
        let plan = p.cluster_plan(&creq(100, 0.327, 3)).unwrap();
        // ⌈0.327·100⌉ = 33 predicted, ⌈0.1·33⌉ = 4 mispredicted.
        assert_eq!(plan.predicted, 33);
        assert_eq!(plan.mispredicted, 4);
        // The miss count never exceeds the tail that could replace it.
        let full = p.cluster_plan(&creq(10, 1.0, 0)).unwrap();
        assert_eq!(full.predicted, 10);
        assert_eq!(full.mispredicted, 0, "no tail to mispredict into");
    }

    #[test]
    fn cluster_plan_handles_empty_windows_and_clamps_ratio() {
        let p = ClusterPrefetch { accuracy: 0.5 };
        assert_eq!(
            p.cluster_plan(&creq(0, 0.3, 0)).unwrap(),
            ClusterPlan::default()
        );
        let plan = p.cluster_plan(&creq(8, 9.0, 0)).unwrap();
        assert_eq!(plan.predicted, 8);
        assert_eq!(plan.mispredicted, 0);
    }

    #[test]
    fn cluster_policy_flat_fallback_matches_speculative() {
        let flat = SpeculativePrefetch { accuracy: 0.9 };
        let clustered = ClusterPrefetch { accuracy: 0.9 };
        let r = req(10_000, 0.3);
        assert_eq!(clustered.plan(&r), flat.plan(&r));
        assert_eq!(clustered.name(), "cluster");
    }
}
