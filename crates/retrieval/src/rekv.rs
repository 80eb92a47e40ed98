//! ReKV-style baseline: frame-granular KV retrieval.
//!
//! ReKV selects *whole frames* of cached tokens: each frame's keys are
//! summarised by their centroid, frames are ranked by query-centroid
//! score, and top frames are fetched until a token budget is met. The
//! coarse granularity keeps selection cheap but forces a high retrieval
//! ratio to maintain accuracy (paper Table II row 3: ~58% at frame
//! stage, ~31% at generation).

use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest, Stage};
use vrex_tensor::Matrix;

/// Frame-level top-k retrieval.
#[derive(Debug, Clone, Copy)]
pub struct RekvPolicy {
    tokens_per_frame: usize,
    prefill_ratio: f64,
    generation_ratio: f64,
}

impl RekvPolicy {
    /// Creates the policy. `tokens_per_frame` is the chunking
    /// granularity (the model's visual tokens per frame).
    ///
    /// # Panics
    ///
    /// Panics if `tokens_per_frame == 0` or a ratio is outside `(0, 1]`.
    pub fn new(tokens_per_frame: usize, prefill_ratio: f64, generation_ratio: f64) -> Self {
        assert!(tokens_per_frame > 0, "tokens_per_frame must be positive");
        for r in [prefill_ratio, generation_ratio] {
            assert!(r > 0.0 && r <= 1.0, "ratio must be in (0,1]");
        }
        Self {
            tokens_per_frame,
            prefill_ratio,
            generation_ratio,
        }
    }

    /// The paper's calibration (Table II row 3): ~58.4% frame stage,
    /// ~31.2% generation stage.
    pub fn paper_defaults(tokens_per_frame: usize) -> Self {
        Self::new(tokens_per_frame, 0.584, 0.312)
    }

    fn frame_scores(&self, queries: &Matrix, keys: &Matrix, history: usize) -> Vec<f32> {
        let n_frames = history.div_ceil(self.tokens_per_frame);
        let d = queries.cols();
        let scale = 1.0 / (d as f32).sqrt();
        let mut scores = vec![f32::NEG_INFINITY; n_frames];
        for (f, score) in scores.iter_mut().enumerate() {
            let start = f * self.tokens_per_frame;
            let end = ((f + 1) * self.tokens_per_frame).min(history);
            // Frame centroid key.
            let mut centroid = vec![0.0f32; d];
            for t in start..end {
                for (c, &k) in centroid.iter_mut().zip(keys.row(t)) {
                    *c += k;
                }
            }
            let n = (end - start) as f32;
            for c in &mut centroid {
                *c /= n;
            }
            // Max over query rows.
            for r in 0..queries.rows() {
                let dot: f32 = queries
                    .row(r)
                    .iter()
                    .zip(&centroid)
                    .map(|(a, b)| a * b)
                    .sum();
                let s = dot * scale;
                if s > *score {
                    *score = s;
                }
            }
        }
        scores
    }
}

impl RetrievalPolicy for RekvPolicy {
    fn name(&self) -> &str {
        "ReKV"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, req: &SelectionRequest<'_>) -> Selection {
        let history = req.history_len();
        if history == 0 {
            return Selection::All;
        }
        let ratio = match req.stage {
            Stage::Prefill => self.prefill_ratio,
            Stage::Generation => self.generation_ratio,
        };
        let budget = ((history as f64 * ratio).ceil() as usize).min(history);
        if budget == history {
            return Selection::All;
        }
        let scores = self.frame_scores(req.queries, req.keys, history);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut selected = Vec::new();
        for f in order {
            if selected.len() >= budget {
                break;
            }
            let start = f * self.tokens_per_frame;
            let end = ((f + 1) * self.tokens_per_frame).min(history);
            selected.extend(start..end);
        }
        selected.sort_unstable();
        Selection::Indices(selected)
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
    fn selects_whole_frames() {
        let mut rng = seeded_rng(6);
        let q = gaussian_matrix(&mut rng, 1, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 41, 8, 1.0); // 40 history + 1 new
        let mut p = RekvPolicy::new(4, 0.5, 0.5);
        let history = 40;
        let sel = p.select(&request(&q, &k, Stage::Prefill)).resolve(history);
        assert!(!sel.is_total(), "ratio 0.5 must filter");
        // Every selected frame contributes its full 4 tokens.
        let idx = sel.indices();
        assert_eq!(idx.len() % 4, 0);
        for chunk in idx.chunks(4) {
            assert_eq!(chunk[0] % 4, 0, "frame must start on a boundary");
            assert!(chunk.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn budget_respects_ratio() {
        let mut rng = seeded_rng(7);
        let q = gaussian_matrix(&mut rng, 2, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 82, 8, 1.0);
        let mut p = RekvPolicy::new(4, 0.25, 0.25);
        let history = 80;
        let sel = p.select(&request(&q, &k, Stage::Prefill)).resolve(history);
        assert!(sel.len() >= history / 4);
        assert!(sel.len() <= history / 4 + 4, "at most one extra frame");
    }

    #[test]
    fn best_matching_frame_is_selected() {
        let q = Matrix::from_rows(&[&[5.0, 0.0]]);
        let mut k = Matrix::zeros(13, 2); // 12 history (3 frames of 4) + 1 new
        for t in 4..8 {
            k.row_mut(t)[0] = 5.0; // frame 1 matches the query
        }
        // budget = ceil(12 * 0.33) = 4 tokens = exactly one frame
        let mut p = RekvPolicy::new(4, 0.33, 0.33);
        let history = 12;
        let idx = p
            .select(&request(&q, &k, Stage::Prefill))
            .resolve(history)
            .indices()
            .to_vec();
        assert_eq!(idx, vec![4, 5, 6, 7]);
    }

    #[test]
    fn generation_uses_generation_ratio() {
        let mut rng = seeded_rng(8);
        let q = gaussian_matrix(&mut rng, 1, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 41, 8, 1.0);
        let mut p = RekvPolicy::new(4, 0.9, 0.1);
        let pre = p
            .select(&request(&q, &k, Stage::Prefill))
            .selected_count(40);
        let gen = p
            .select(&request(&q, &k, Stage::Generation))
            .selected_count(40);
        assert!(gen < pre);
    }

    #[test]
    fn partial_last_frame_is_handled() {
        let mut rng = seeded_rng(9);
        let q = gaussian_matrix(&mut rng, 1, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 11, 8, 1.0); // 10 history = 2.5 frames
        let mut p = RekvPolicy::new(4, 0.5, 0.5);
        let sel = p.select(&request(&q, &k, Stage::Prefill)).resolve(10);
        assert!(sel.indices().iter().all(|&i| i < 10));
    }
}
