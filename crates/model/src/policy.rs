//! The KV-cache retrieval policy interface.
//!
//! A retrieval policy decides, per layer and attention head, which
//! cached tokens participate in attention. The streaming LLM calls the
//! policy at every prefill/generation step; ReSV (`vrex-core`) and the
//! baselines (`vrex-retrieval`) implement it.

use vrex_tensor::Matrix;

/// Which inference stage a selection is being made for. The paper's
/// central observation is that streaming video LLMs are dominated by
/// the *iterative prefill* stage, while prior retrieval work only
/// optimised generation — so policies get to behave differently per
/// stage (e.g. InfiniGen retrieves only during [`Stage::Generation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Frame-processing (iterative prefill over video/question tokens).
    Prefill,
    /// Autoregressive text generation.
    Generation,
}

/// The outcome of a selection: either attend to everything (no
/// retrieval filtering) or to an explicit ascending list of cached
/// token indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Attend to the whole cache.
    All,
    /// Attend only to these cached token indices (ascending, unique).
    Indices(Vec<usize>),
}

impl Selection {
    /// Number of tokens selected out of a cache of `cache_len`.
    pub fn selected_count(&self, cache_len: usize) -> usize {
        match self {
            Selection::All => cache_len,
            Selection::Indices(v) => v.len(),
        }
    }

    /// Selected fraction of the cache in `[0, 1]`; `1.0` for an empty
    /// cache (nothing needed fetching).
    pub fn ratio(&self, cache_len: usize) -> f64 {
        if cache_len == 0 {
            return 1.0;
        }
        self.selected_count(cache_len) as f64 / cache_len as f64
    }

    /// The explicit index list, if the selection already carries one.
    ///
    /// `Selection::All` has no materialized list (its extent depends on
    /// the cache length); use [`Selection::resolve`] to obtain concrete
    /// indices for a known cache length. This accessor exists so
    /// consumers that want to *stay lazy* for the full-cache case (e.g.
    /// attention, which can skip a gather) can branch without matching
    /// on the enum.
    pub fn materialized(&self) -> Option<&[usize]> {
        match self {
            Selection::All => None,
            Selection::Indices(v) => Some(v),
        }
    }

    /// Resolves the selection against a cache of `total_tokens`,
    /// yielding explicit ascending indices for **every** variant.
    ///
    /// This is the total, non-panicking counterpart of matching on the
    /// enum: `Selection::All` resolves to `0..total_tokens` instead of
    /// requiring callers to keep an unreachable (or panicking) arm.
    pub fn resolve(&self, total_tokens: usize) -> SelectedIndices {
        let indices: Vec<usize> = match self {
            Selection::All => (0..total_tokens).collect(),
            Selection::Indices(v) => v.clone(),
        };
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "selection indices must be strictly ascending (unique)"
        );
        debug_assert!(
            indices.last().is_none_or(|&i| i < total_tokens),
            "selection index out of range for cache of {total_tokens}"
        );
        SelectedIndices {
            indices,
            total: total_tokens,
        }
    }
}

/// A [`Selection`] resolved against a concrete cache length: always an
/// explicit, ascending, unique list of token indices.
///
/// Produced by [`Selection::resolve`]; consumers never need to
/// distinguish the lazy `All` case again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedIndices {
    indices: Vec<usize>,
    total: usize,
}

impl SelectedIndices {
    /// The selected token indices (ascending, unique).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of selected tokens.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The cache length this selection was resolved against.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether every cached token was selected.
    // vrex-lint: allow(unreached-pub) — oracle of crates/retrieval/tests/props.rs
    pub fn is_total(&self) -> bool {
        self.indices.len() == self.total
    }

    /// Selected fraction of the cache in `[0, 1]`; `1.0` for an empty
    /// cache (nothing needed fetching).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.indices.len() as f64 / self.total as f64
    }
}

impl<'a> IntoIterator for &'a SelectedIndices {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.indices.iter()
    }
}

/// Context handed to a policy when selecting tokens for one attention
/// head of one layer.
#[derive(Debug)]
pub struct SelectionRequest<'a> {
    /// Decoder layer index.
    pub layer: usize,
    /// Query head index (KV head = `query_head / gqa_group`).
    pub query_head: usize,
    /// KV head index that owns the cache being selected from.
    pub kv_head: usize,
    /// Query block `(new_tokens × head_dim)` after RoPE.
    pub queries: &'a Matrix,
    /// All cached keys of the KV head `(cached_tokens × head_dim)`,
    /// after RoPE. Policies that predict importance may read this; the
    /// hardware-cost model separately charges them for doing so.
    pub keys: &'a Matrix,
    /// Stage the selection is for.
    pub stage: Stage,
}

impl SelectionRequest<'_> {
    /// Number of *history* tokens the selection ranges over: the cached
    /// tokens that precede the query block (`keys` also contains the
    /// block's own tokens, which are always attended).
    pub fn history_len(&self) -> usize {
        self.keys.rows() - self.queries.rows()
    }
}

/// A KV-cache retrieval policy.
///
/// Implementations must be deterministic for reproducibility. Methods
/// receive `&mut self` because realistic policies keep state (hash
/// cluster tables, running statistics).
pub trait RetrievalPolicy {
    /// Human-readable policy name used in reports (e.g. `"ReSV"`).
    fn name(&self) -> &str;

    /// Notifies the policy that `new_keys` (post-RoPE) were appended to
    /// the cache of (`layer`, `kv_head`) starting at token index
    /// `start_token`. ReSV updates its hash-cluster table here.
    fn on_keys_appended(
        &mut self,
        layer: usize,
        kv_head: usize,
        new_keys: &Matrix,
        start_token: usize,
    );

    /// Selects the cached tokens that the query block should attend to.
    fn select(&mut self, request: &SelectionRequest<'_>) -> Selection;

    /// Like [`RetrievalPolicy::select`], but resolved against the
    /// request's history length: always an explicit index list, with no
    /// `Selection::All` case left for the caller to handle.
    fn select_resolved(&mut self, request: &SelectionRequest<'_>) -> SelectedIndices {
        let history = request.history_len();
        self.select(request).resolve(history)
    }
}

/// The trivial policy: attend to the entire cache (the vanilla
/// VideoLLM-Online configuration and the FlexGen compute behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectAll;

impl SelectAll {
    /// Creates a new pass-through policy.
    pub fn new() -> Self {
        SelectAll
    }
}

impl RetrievalPolicy for SelectAll {
    fn name(&self) -> &str {
        "SelectAll"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, _: &SelectionRequest<'_>) -> Selection {
        Selection::All
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_ratio_all_is_one() {
        assert_eq!(Selection::All.ratio(100), 1.0);
        assert_eq!(Selection::All.selected_count(42), 42);
    }

    #[test]
    fn selection_ratio_of_indices() {
        let s = Selection::Indices(vec![0, 5, 9]);
        assert_eq!(s.selected_count(10), 3);
        assert!((s.ratio(10) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_ratio_is_one() {
        assert_eq!(Selection::Indices(vec![]).ratio(0), 1.0);
    }

    #[test]
    fn select_all_policy_selects_all() {
        let mut p = SelectAll::new();
        let q = Matrix::zeros(1, 4);
        let k = Matrix::zeros(8, 4);
        let req = SelectionRequest {
            layer: 0,
            query_head: 0,
            kv_head: 0,
            queries: &q,
            keys: &k,
            stage: Stage::Prefill,
        };
        assert_eq!(p.select(&req), Selection::All);
        assert_eq!(p.name(), "SelectAll");
    }

    /// The refactor's contract: `Selection::All` *resolves* to the full
    /// index list rather than forcing callers into a panicking match
    /// arm (the seed had eight such panicking arms across the policy
    /// crates).
    #[test]
    fn selection_all_resolves_instead_of_panicking() {
        let resolved = Selection::All.resolve(5);
        assert_eq!(resolved.indices(), &[0, 1, 2, 3, 4]);
        assert!(resolved.is_total());
        assert_eq!(resolved.total(), 5);
        assert_eq!(resolved.ratio(), 1.0);
        assert_eq!(Selection::All.resolve(0).len(), 0);
        assert_eq!(Selection::All.resolve(0).ratio(), 1.0);
    }

    #[test]
    fn selection_indices_resolve_to_themselves() {
        let sel = Selection::Indices(vec![1, 4, 6]);
        let resolved = sel.resolve(10);
        assert_eq!(resolved.indices(), &[1, 4, 6]);
        assert!(!resolved.is_total());
        assert!((resolved.ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn materialized_distinguishes_lazy_all() {
        assert_eq!(Selection::All.materialized(), None);
        let sel = Selection::Indices(vec![0, 2]);
        assert_eq!(sel.materialized(), Some(&[0usize, 2][..]));
    }

    #[test]
    fn select_resolved_uses_request_history() {
        let mut p = SelectAll::new();
        let q = Matrix::zeros(2, 4);
        let k = Matrix::zeros(8, 4);
        let req = SelectionRequest {
            layer: 0,
            query_head: 0,
            kv_head: 0,
            queries: &q,
            keys: &k,
            stage: Stage::Generation,
        };
        assert_eq!(req.history_len(), 6);
        let resolved = p.select_resolved(&req);
        assert_eq!(resolved.indices(), &[0, 1, 2, 3, 4, 5]);
        assert!(resolved.is_total());
    }

    #[test]
    fn selected_indices_iterates_in_order() {
        let resolved = Selection::Indices(vec![2, 3, 9]).resolve(12);
        let collected: Vec<usize> = resolved.into_iter().copied().collect();
        assert_eq!(collected, vec![2, 3, 9]);
    }
}
