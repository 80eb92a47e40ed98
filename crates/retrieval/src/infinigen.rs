//! InfiniGen-style baselines: fixed top-k retrieval.
//!
//! * [`InfiniGenPolicy`] retrieves only during the **generation** stage
//!   (the original system's design point); during iterative prefill it
//!   fetches the full cache — which is why the paper finds it
//!   "impractical for real-time inference" on streaming video
//!   (Table II row 1: frame-stage ratio 100%).
//! * [`InfiniGenPPolicy`] ("InfiniGenP") is the paper's prefill-extended
//!   variant: fixed top-k in both stages (default 50%, the calibration
//!   the paper uses).

use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest, Stage};
use vrex_tensor::{top_k_indices, Matrix};

use crate::scoring::block_importance;

fn top_k_selection(req: &SelectionRequest<'_>, ratio: f64) -> Selection {
    let history = req.history_len();
    if history == 0 {
        return Selection::All;
    }
    let k = ((history as f64 * ratio).ceil() as usize).min(history);
    if k == history {
        return Selection::All;
    }
    let importance = block_importance(req.queries, req.keys, history);
    let mut idx = top_k_indices(&importance, k);
    idx.sort_unstable();
    Selection::Indices(idx)
}

/// Generation-only top-k retrieval (InfiniGen).
#[derive(Debug, Clone, Copy)]
pub struct InfiniGenPolicy {
    generation_ratio: f64,
}

impl InfiniGenPolicy {
    /// Creates the policy with the given generation-stage top-k ratio.
    ///
    /// # Panics
    ///
    /// Panics if `generation_ratio` is outside `(0, 1]`.
    pub fn new(generation_ratio: f64) -> Self {
        assert!(
            generation_ratio > 0.0 && generation_ratio <= 1.0,
            "ratio must be in (0,1]"
        );
        Self { generation_ratio }
    }

    /// The paper's calibration: ~6.8% of tokens during generation.
    pub fn paper_defaults() -> Self {
        Self::new(0.068)
    }
}

impl RetrievalPolicy for InfiniGenPolicy {
    fn name(&self) -> &str {
        "InfiniGen"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, req: &SelectionRequest<'_>) -> Selection {
        match req.stage {
            Stage::Prefill => Selection::All,
            Stage::Generation => top_k_selection(req, self.generation_ratio),
        }
    }
}

/// Fixed top-k retrieval in both stages (InfiniGenP).
#[derive(Debug, Clone, Copy)]
pub struct InfiniGenPPolicy {
    prefill_ratio: f64,
    generation_ratio: f64,
}

impl InfiniGenPPolicy {
    /// Creates the policy with per-stage top-k ratios.
    ///
    /// # Panics
    ///
    /// Panics if either ratio is outside `(0, 1]`.
    pub fn new(prefill_ratio: f64, generation_ratio: f64) -> Self {
        for r in [prefill_ratio, generation_ratio] {
            assert!(r > 0.0 && r <= 1.0, "ratio must be in (0,1]");
        }
        Self {
            prefill_ratio,
            generation_ratio,
        }
    }

    /// The paper's calibration: ~50.8% during frame processing, ~6.8%
    /// during generation (Table II row 2).
    pub fn paper_defaults() -> Self {
        Self::new(0.508, 0.068)
    }
}

impl RetrievalPolicy for InfiniGenPPolicy {
    fn name(&self) -> &str {
        "InfiniGenP"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, req: &SelectionRequest<'_>) -> Selection {
        let ratio = match req.stage {
            Stage::Prefill => self.prefill_ratio,
            Stage::Generation => self.generation_ratio,
        };
        top_k_selection(req, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    fn request<'a>(q: &'a Matrix, k: &'a Matrix, stage: Stage) -> SelectionRequest<'a> {
        SelectionRequest {
            layer: 0,
            query_head: 0,
            kv_head: 0,
            queries: q,
            keys: k,
            stage,
        }
    }

    #[test]
    fn infinigen_full_fetch_in_prefill() {
        let mut rng = seeded_rng(2);
        let q = gaussian_matrix(&mut rng, 3, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 23, 8, 1.0);
        let mut p = InfiniGenPolicy::paper_defaults();
        assert_eq!(p.select(&request(&q, &k, Stage::Prefill)), Selection::All);
        let history = 20;
        let idx = p
            .select(&request(&q, &k, Stage::Generation))
            .resolve(history)
            .indices()
            .to_vec();
        assert_eq!(idx.len(), (20.0f64 * 0.068).ceil() as usize);
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "must be ascending");
    }

    #[test]
    fn infinigenp_fixed_k_in_both_stages() {
        let mut rng = seeded_rng(3);
        let q = gaussian_matrix(&mut rng, 2, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 42, 8, 1.0);
        let mut p = InfiniGenPPolicy::new(0.5, 0.1);
        let history = 40;
        let prefill = p.select(&request(&q, &k, Stage::Prefill)).resolve(history);
        assert!(!prefill.is_total(), "prefill must filter at ratio 0.5");
        assert_eq!(prefill.len(), history / 2);
        let generation = p
            .select(&request(&q, &k, Stage::Generation))
            .resolve(history);
        assert!(
            !generation.is_total(),
            "generation must filter at ratio 0.1"
        );
        assert_eq!(generation.len(), 4);
    }

    #[test]
    fn top_k_picks_highest_scoring_tokens() {
        // One history key aligned with the query must always be kept.
        let q = Matrix::from_rows(&[&[10.0, 0.0]]);
        let mut k = Matrix::zeros(11, 2);
        k.row_mut(4)[0] = 10.0; // history token 4 aligned with q
        let mut p = InfiniGenPPolicy::new(0.1, 0.1);
        let history = 10;
        let idx = p
            .select(&request(&q, &k, Stage::Prefill))
            .resolve(history)
            .indices()
            .to_vec();
        assert_eq!(idx, vec![4]);
    }

    #[test]
    fn ratio_one_selects_all() {
        let mut rng = seeded_rng(4);
        let q = gaussian_matrix(&mut rng, 1, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 9, 8, 1.0);
        let mut p = InfiniGenPPolicy::new(1.0, 1.0);
        assert_eq!(p.select(&request(&q, &k, Stage::Prefill)), Selection::All);
    }

    #[test]
    fn empty_history_selects_all() {
        let mut rng = seeded_rng(5);
        let q = gaussian_matrix(&mut rng, 4, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 4, 8, 1.0);
        let mut p = InfiniGenPPolicy::paper_defaults();
        assert_eq!(p.select(&request(&q, &k, Stage::Prefill)), Selection::All);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0,1]")]
    fn zero_ratio_rejected() {
        let _ = InfiniGenPolicy::new(0.0);
    }
}
