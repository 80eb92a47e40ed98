//! Property tests for the streaming model: cache coherence under
//! arbitrary block schedules and attention-selection identities.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use vrex_model::attention::{attention_with_selection, selection_recall};
use vrex_model::policy::{Selection, SelectionRequest, Stage};
use vrex_model::{ModelConfig, RetrievalPolicy, RunStats, SelectAll, StreamingVideoLlm};
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};
use vrex_tensor::Matrix;

/// Random selections that overlap within a GQA group: each query head
/// takes the group's shared subset of the history plus extras of its
/// own, and one selection in `all_one_in` is `Selection::All`. Keeps
/// the distinct tokens each KV head fetches per layer and block as a
/// `BTreeSet` union (`None` once a head took everything).
struct Scripted {
    rng: StdRng,
    group: usize,
    all_one_in: u32,
    shared: Vec<bool>,
    unions: BTreeMap<(usize, usize, usize), Option<BTreeSet<usize>>>,
}

impl Scripted {
    /// The fetch bytes the unions add up to.
    fn fetch_bytes(&self, cfg: &ModelConfig) -> u64 {
        let per_token = (2 * cfg.head_dim * cfg.bytes_per_element) as u64;
        self.unions
            .iter()
            .map(|(&(history, _, _), union)| {
                per_token * union.as_ref().map_or(history, BTreeSet::len) as u64
            })
            .sum()
    }
}

impl RetrievalPolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, req: &SelectionRequest<'_>) -> Selection {
        let history = req.keys.rows() - req.queries.rows();
        if req.query_head % self.group == 0 {
            self.shared = (0..history).map(|_| self.rng.gen_bool(0.4)).collect();
        }
        let selection = if self.rng.gen_range(0..self.all_one_in) == 0 {
            Selection::All
        } else {
            Selection::Indices(
                (0..history)
                    .filter(|&t| self.shared[t] | self.rng.gen_bool(0.15))
                    .collect(),
            )
        };
        let union = self
            .unions
            .entry((history, req.layer, req.kv_head))
            .or_insert_with(|| Some(BTreeSet::new()));
        match (&selection, union.as_mut()) {
            (Selection::All, _) => *union = None,
            (Selection::Indices(idx), Some(set)) => set.extend(idx.iter().copied()),
            (Selection::Indices(_), None) => {}
        }
        selection
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cache stays coherent (all layers/heads in lockstep) for any
    /// sequence of prefill block sizes, and the position counter tracks
    /// the total exactly.
    #[test]
    fn cache_coherent_under_arbitrary_block_schedule(
        blocks in proptest::collection::vec(1usize..6, 1..6),
        seed in 0u64..100,
    ) {
        let cfg = ModelConfig::tiny();
        let mut llm = StreamingVideoLlm::new(cfg.clone(), seed);
        let mut policy = SelectAll::new();
        let mut stats = RunStats::new(&cfg, false);
        let mut rng = seeded_rng(seed + 1);
        let mut total = 0;
        for &b in &blocks {
            let emb = gaussian_matrix(&mut rng, b, cfg.hidden_dim, 0.5);
            let out = llm.forward_block(&emb, &mut policy, Stage::Prefill, &mut stats);
            prop_assert_eq!(out.rows(), b);
            total += b;
            llm.cache().assert_coherent();
            prop_assert_eq!(llm.position(), total);
        }
    }

    /// Attending to an explicitly listed full history equals
    /// `Selection::All` for any shapes.
    #[test]
    fn explicit_full_selection_equals_all(
        old in 0usize..24, new in 1usize..6, d in 1usize..5, seed in 0u64..200
    ) {
        let d = d * 2;
        let mut rng = seeded_rng(seed);
        let q = gaussian_matrix(&mut rng, new, d, 1.0);
        let k = gaussian_matrix(&mut rng, old + new, d, 1.0);
        let v = gaussian_matrix(&mut rng, old + new, d, 1.0);
        let a = attention_with_selection(&q, &k, &v, old, &Selection::All);
        let b = attention_with_selection(&q, &k, &v, old, &Selection::Indices((0..old).collect()));
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }

    /// Attention output is a convex combination of value rows: every
    /// output coordinate lies within the min/max of the visible values.
    #[test]
    fn attention_output_is_convex_combination(
        old in 1usize..16, d in 1usize..4, seed in 0u64..200
    ) {
        let d = d * 2;
        let mut rng = seeded_rng(seed);
        let q = gaussian_matrix(&mut rng, 1, d, 1.0);
        let k = gaussian_matrix(&mut rng, old + 1, d, 1.0);
        let v = gaussian_matrix(&mut rng, old + 1, d, 1.0);
        let out = attention_with_selection(&q, &k, &v, old, &Selection::All);
        for c in 0..d {
            let col: Vec<f32> = (0..old + 1).map(|r| v[(r, c)]).collect();
            let lo = col.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[(0, c)] >= lo - 1e-4 && out[(0, c)] <= hi + 1e-4);
        }
    }

    /// Recall is within [0,1], equals 1 for full selection, and is
    /// weakly monotone under adding indices.
    #[test]
    fn recall_bounds_and_monotonicity(
        old in 2usize..20, d in 1usize..4, take in 1usize..10, seed in 0u64..200
    ) {
        let d = d * 2;
        let mut rng = seeded_rng(seed);
        let q = gaussian_matrix(&mut rng, 2, d, 1.0);
        let k = gaussian_matrix(&mut rng, old + 2, d, 1.0);
        let take = take.min(old);
        let small: Vec<usize> = (0..take).collect();
        let big: Vec<usize> = (0..old).collect();
        let r_small = selection_recall(&q, &k, old, &Selection::Indices(small));
        let r_big = selection_recall(&q, &k, old, &Selection::Indices(big));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r_small));
        prop_assert!((r_big - 1.0).abs() < 1e-6);
        prop_assert!(r_small <= r_big + 1e-9);
    }

    /// The decoder's per-KV-head fetch union counts exactly the distinct
    /// tokens a `BTreeSet` union of its query heads' selections holds,
    /// under selections that repeat tokens across a GQA group and mix
    /// in `Selection::All`.
    #[test]
    fn fetch_bytes_equal_a_set_union_of_the_group_selections(
        blocks in proptest::collection::vec(1usize..5, 2..5),
        all_one_in in 1u32..6,
        seed in 0u64..1000,
    ) {
        let cfg = ModelConfig::tiny();
        let mut llm = StreamingVideoLlm::new(cfg.clone(), seed);
        let mut policy = Scripted {
            rng: seeded_rng(seed + 1),
            group: cfg.gqa_group(),
            all_one_in,
            shared: Vec::new(),
            unions: BTreeMap::new(),
        };
        let mut stats = RunStats::new(&cfg, false);
        let mut rng = seeded_rng(seed + 2);
        for &b in &blocks {
            let emb = gaussian_matrix(&mut rng, b, cfg.hidden_dim, 0.5);
            llm.forward_block(&emb, &mut policy, Stage::Prefill, &mut stats);
        }
        prop_assert_eq!(stats.summary().fetch_bytes, policy.fetch_bytes(&cfg));
    }

    /// Selection ratios reported by RunStats stay in [0,1] and a
    /// SelectAll run reports exactly 1.
    #[test]
    fn stats_ratios_bounded(blocks in 1usize..4, seed in 0u64..50) {
        let cfg = ModelConfig::tiny();
        let mut llm = StreamingVideoLlm::new(cfg.clone(), seed);
        let mut policy = SelectAll::new();
        let mut stats = RunStats::new(&cfg, false);
        let mut rng = seeded_rng(seed);
        for _ in 0..blocks {
            let emb = gaussian_matrix(&mut rng, 3, cfg.hidden_dim, 0.5);
            llm.forward_block(&emb, &mut policy, Stage::Prefill, &mut stats);
        }
        prop_assert_eq!(stats.overall_ratio(), 1.0);
        for l in 0..cfg.n_layers {
            prop_assert!((0.0..=1.0).contains(&stats.layer_ratio(l)));
        }
    }
}
