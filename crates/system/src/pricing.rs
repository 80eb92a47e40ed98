//! Memoized step pricing for the serving scheduler.
//!
//! The analytic step model ([`SystemModel::frame_step`] /
//! [`SystemModel::question_step`] / [`SystemModel::decode_step`]) is a
//! pure function of `(method, model dims, cache_tokens, batch,
//! new_tokens)` — the platform and method are fixed per cache, the rest
//! is the key. A capacity sweep re-prices the same batch shapes
//! millions of times (every policy and fleet size replays the same
//! per-session cache trajectories), so [`StepPriceCache`] memoizes the
//! full [`StepResult`] per shape: the first occurrence pays the
//! closed-form pricing, every repeat is one hash lookup.
//!
//! The cache owns clones of its [`SystemModel`] and [`ModelConfig`] —
//! one cache is valid for exactly one platform+method+model triple, so
//! a stale-key bug cannot exist by construction. The
//! `cached_pricing_is_bit_identical_to_uncached` oracle test (and the
//! property test in `tests/props.rs`) pin that a cached result is
//! bit-identical to uncached pricing.
//!
//! The key says nothing about how a step will execute: the serialized
//! and the overlapped driver consult the same closed forms, so a cache
//! shared across both (as `tier_capacity --overlap` shares one) serves
//! each shape from one entry.
//!
//! ## Parallel sharded serving: fork, serve, absorb
//!
//! Parallel sharded serving runs N per-device serve loops on scoped
//! worker threads, and a `&mut StepPriceCache` cannot be shared across
//! them. So each device serves through its own [`StepPriceCache::fork`]
//! — a copy of the parent's entries with zeroed counters — and after
//! the join the parent takes each fork back with
//! [`StepPriceCache::absorb`], in device order. Pricing is a pure
//! function of the key, so the merge is a set union that can never
//! change a stored value, only add entries, and serve outcomes are
//! independent of cache contents entirely (the oracle tests pin a fork
//! bit-identical to its parent and to uncached pricing).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use vrex_model::ModelConfig;

use crate::e2e::{StepResult, SystemModel};

/// Step kind discriminant inside a price key.
const KIND_FRAME: u64 = 0;
const KIND_QUESTION: u64 = 1;
const KIND_DECODE: u64 = 2;

/// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecContext {
    /// Serialized serving.
    #[default]
    Serialized,
    /// Overlapped serving.
    Overlapped,
}

/// A minimal multiplicative hasher (FxHash-style) for the fixed-width
/// price keys. The default SipHash is DoS-resistant but ~5× slower;
/// price keys are simulation-internal, so the cheap mix is safe.
#[derive(Debug, Default, Clone, Copy)]
pub struct PriceKeyHasher(u64);

impl Hasher for PriceKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Packed price key: kind (2 bits) | batch (14 bits) | new_tokens
/// (16 bits) | cache_tokens (32 bits). The serving sweeps stay far
/// inside each field; [`StepPriceCache`] falls back to unmemoized
/// pricing when a dimension overflows its field instead of aliasing.
fn pack_key(kind: u64, cache_tokens: usize, batch: usize, new_tokens: usize) -> Option<u64> {
    if batch >= (1 << 14) || new_tokens >= (1 << 16) || cache_tokens >= (1 << 32) {
        return None;
    }
    Some(kind << 62 | (batch as u64) << 48 | (new_tokens as u64) << 32 | cache_tokens as u64)
}

/// Memoized [`StepResult`] pricing for one platform+method+model.
#[derive(Debug, Clone)]
pub struct StepPriceCache {
    sys: SystemModel,
    model: ModelConfig,
    map: HashMap<u64, StepResult, BuildHasherDefault<PriceKeyHasher>>,
    hits: u64,
    misses: u64,
}

impl StepPriceCache {
    /// Creates an empty cache bound to this platform+method+model.
    pub fn new(sys: &SystemModel, model: &ModelConfig) -> Self {
        Self {
            sys: sys.clone(),
            model: model.clone(),
            map: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The system model the cache prices for.
    pub fn system(&self) -> &SystemModel {
        &self.sys
    }

    /// The model configuration the cache prices for.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Lookups served from the map so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the analytic pricing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct step shapes priced so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn priced(
        &mut self,
        key: Option<u64>,
        price: impl Fn(&SystemModel, &ModelConfig) -> StepResult,
    ) -> StepResult {
        let Some(key) = key else {
            // Out-of-range dimension: price unmemoized rather than
            // alias another shape's result.
            self.misses += 1;
            return price(&self.sys, &self.model);
        };
        if let Some(r) = self.map.get(&key) {
            self.hits += 1;
            return *r;
        }
        self.misses += 1;
        let r = price(&self.sys, &self.model);
        self.map.insert(key, r);
        r
    }

    /// Memoized [`SystemModel::frame_step`].
    pub fn frame_step(&mut self, cache_tokens: usize, batch: usize) -> StepResult {
        let key = pack_key(KIND_FRAME, cache_tokens, batch, self.model.tokens_per_frame);
        self.priced(key, |sys, model| sys.frame_step(model, cache_tokens, batch))
    }

    /// Memoized [`SystemModel::question_step`].
    pub fn question_step(
        &mut self,
        cache_tokens: usize,
        batch: usize,
        tokens: usize,
    ) -> StepResult {
        let key = pack_key(KIND_QUESTION, cache_tokens, batch, tokens);
        self.priced(key, |sys, model| {
            sys.question_step(model, cache_tokens, batch, tokens)
        })
    }

    /// Memoized [`SystemModel::decode_step`].
    pub fn decode_step(&mut self, cache_tokens: usize, batch: usize) -> StepResult {
        let key = pack_key(KIND_DECODE, cache_tokens, batch, 1);
        self.priced(key, |sys, model| {
            sys.decode_step(model, cache_tokens, batch)
        })
    }

    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    pub fn frame_step_in(
        &mut self,
        _: ExecContext,
        cache_tokens: usize,
        batch: usize,
    ) -> StepResult {
        self.frame_step(cache_tokens, batch)
    }

    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    pub fn question_step_in(
        &mut self,
        _: ExecContext,
        cache_tokens: usize,
        batch: usize,
        tokens: usize,
    ) -> StepResult {
        self.question_step(cache_tokens, batch, tokens)
    }

    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    pub fn decode_step_in(
        &mut self,
        _: ExecContext,
        cache_tokens: usize,
        batch: usize,
    ) -> StepResult {
        self.decode_step(cache_tokens, batch)
    }

    /// A private copy for one worker: the same platform, model and
    /// priced entries, with zeroed lookup counters. The worker serves
    /// through it without synchronization and hands it back to
    /// [`Self::absorb`] after the join.
    pub fn fork(&self) -> Self {
        Self {
            hits: 0,
            misses: 0,
            ..self.clone()
        }
    }

    /// Takes a [`Self::fork`] back: the entries merge as a set union
    /// and the fork's lookup counters add onto this cache's
    /// (observability only, never part of any report). Pricing is a
    /// pure function of the key, so a shape priced on both sides holds
    /// bit-identical values and the union is the same whichever order
    /// forks are absorbed in.
    pub fn absorb(&mut self, fork: StepPriceCache) {
        self.map.extend(fork.map);
        self.hits += fork.hits;
        self.misses += fork.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::platform::PlatformSpec;

    #[test]
    fn cached_pricing_is_bit_identical_to_uncached() {
        // Oracle over a methods × platforms × cache × batch grid: the
        // first call (miss) and the second call (hit) must both equal
        // the direct SystemModel pricing exactly.
        let model = ModelConfig::llama3_8b();
        let methods = [
            Method::FlexGen,
            Method::InfiniGen,
            Method::ReKV,
            Method::ReSV,
            Method::Oaken,
            Method::VanillaInMemory,
        ];
        let platforms = [
            PlatformSpec::agx_orin(),
            PlatformSpec::a100(),
            PlatformSpec::vrex8(),
            PlatformSpec::vrex48(),
        ];
        for method in methods {
            for platform in &platforms {
                let sys = SystemModel::new(platform.clone(), method);
                let mut cache = StepPriceCache::new(&sys, &model);
                for cache_tokens in [1usize, 1_000, 16_000, 40_000] {
                    for batch in [1usize, 4, 24] {
                        for _ in 0..2 {
                            assert_eq!(
                                cache.frame_step(cache_tokens, batch),
                                sys.frame_step(&model, cache_tokens, batch),
                                "{} frame {cache_tokens}x{batch}",
                                sys.label()
                            );
                            assert_eq!(
                                cache.decode_step(cache_tokens, batch),
                                sys.decode_step(&model, cache_tokens, batch),
                                "{} decode {cache_tokens}x{batch}",
                                sys.label()
                            );
                            assert_eq!(
                                cache.question_step(cache_tokens, batch, 25),
                                sys.question_step(&model, cache_tokens, batch, 25),
                                "{} question {cache_tokens}x{batch}",
                                sys.label()
                            );
                        }
                    }
                }
                assert_eq!(cache.hits(), cache.misses(), "every shape hit once");
            }
        }
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let model = ModelConfig::llama3_8b();
        let mut cache = StepPriceCache::new(&sys, &model);
        for _ in 0..100 {
            cache.frame_step(8_000, 4);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 99);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn distinct_kinds_never_alias() {
        // A frame step and a decode step at the same (cache, batch)
        // must key separately — and a question step keyed by its token
        // count must not collide with either.
        let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let model = ModelConfig::llama3_8b();
        let mut cache = StepPriceCache::new(&sys, &model);
        let f = cache.frame_step(10_000, 2);
        let d = cache.decode_step(10_000, 2);
        let q = cache.question_step(10_000, 2, 25);
        assert_ne!(f, d);
        assert_ne!(f, q);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.frame_step(10_000, 2), f);
    }

    #[test]
    fn out_of_range_dimensions_fall_back_to_direct_pricing() {
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let model = ModelConfig::llama3_8b();
        let mut cache = StepPriceCache::new(&sys, &model);
        let huge = 1usize << 33; // overflows the 32-bit cache field
        assert_eq!(cache.frame_step(huge, 1), sys.frame_step(&model, huge, 1));
        assert_eq!(cache.len(), 0, "unpackable keys are not stored");
        assert_eq!(cache.misses(), 1);
        // The batch field is 14 bits: a 16384-stream batch falls back
        // rather than aliasing.
        assert_eq!(
            cache.frame_step(1_000, 1 << 14),
            sys.frame_step(&model, 1_000, 1 << 14)
        );
        assert_eq!(cache.len(), 0);
    }

    /// A fork prices bit-identically to its parent (and so to uncached
    /// pricing) on repeated batch shapes — inherited hits, fresh misses
    /// then hits, out-of-range fallbacks — with the same hit/miss
    /// trajectory, and absorbing it lands every fresh shape.
    #[test]
    fn fork_is_bit_identical_to_its_parent_and_to_uncached_pricing() {
        let model = ModelConfig::llama3_8b();
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        // Warm the parent with a partial shape set, then fork it.
        let mut parent = StepPriceCache::new(&sys, &model);
        for batch in [1usize, 4] {
            parent.frame_step(16_000, batch);
            parent.decode_step(16_000, batch);
        }
        let warmed = parent.len();
        let mut mutable = parent.clone();
        let mut fork = parent.fork();
        assert_eq!((fork.len(), fork.hits(), fork.misses()), (warmed, 0, 0));
        // Repeated shapes spanning inherited hits (16K), fresh misses
        // then hits (40K), and the unpackable fallback.
        let huge = 1usize << 33;
        for _ in 0..2 {
            for cache_tokens in [16_000usize, 40_000, huge] {
                for batch in [1usize, 4, 24] {
                    let frame = fork.frame_step(cache_tokens, batch);
                    assert_eq!(frame, mutable.frame_step(cache_tokens, batch));
                    assert_eq!(frame, sys.frame_step(&model, cache_tokens, batch));
                    let decode = fork.decode_step(cache_tokens, batch);
                    assert_eq!(decode, mutable.decode_step(cache_tokens, batch));
                    assert_eq!(decode, sys.decode_step(&model, cache_tokens, batch));
                    let question = fork.question_step(cache_tokens, batch, 25);
                    assert_eq!(question, mutable.question_step(cache_tokens, batch, 25));
                    assert_eq!(question, sys.question_step(&model, cache_tokens, batch, 25));
                }
            }
        }
        // Same hit/miss trajectory as serving through the parent itself.
        assert_eq!(fork.hits(), mutable.hits() - parent.hits());
        assert_eq!(fork.misses(), mutable.misses() - parent.misses());
        assert!(fork.len() > warmed, "the fork priced fresh shapes");
        // The merge lands every fresh shape and adds the counters up.
        parent.absorb(fork);
        assert_eq!(parent.len(), mutable.len());
        assert_eq!(parent.hits(), mutable.hits());
        assert_eq!(parent.misses(), mutable.misses());
        // Every shape now hits the absorbed parent without pricing.
        for cache_tokens in [16_000usize, 40_000] {
            for batch in [1usize, 4, 24] {
                assert_eq!(
                    parent.frame_step(cache_tokens, batch),
                    mutable.frame_step(cache_tokens, batch),
                );
            }
        }
        assert_eq!(parent.misses(), mutable.misses(), "absorbed shapes all hit");
    }

    /// Two workers pricing overlapping shape sets merge to the same
    /// cache whichever fork is absorbed first — pricing is a pure
    /// function, so the duplicate shape holds one value either way.
    #[test]
    fn absorbing_forks_is_order_independent_and_counters_add_up() {
        let model = ModelConfig::llama3_8b();
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let parent = StepPriceCache::new(&sys, &model);
        let (mut a, mut b) = (parent.fork(), parent.fork());
        // Overlapping shapes: both workers price (8000, 4).
        let shapes = [(&mut a, [4usize, 8, 4]), (&mut b, [4, 16, 16])];
        for (fork, batches) in shapes {
            for batch in batches {
                fork.frame_step(8_000, batch);
            }
        }
        let mut ab = parent.clone();
        ab.absorb(a.clone());
        ab.absorb(b.clone());
        let mut ba = parent.clone();
        ba.absorb(b);
        ba.absorb(a);
        for cache in [&mut ab, &mut ba] {
            assert_eq!(cache.len(), 3, "duplicate shape stored once");
            assert_eq!((cache.hits(), cache.misses()), (2, 4), "counters add up");
            for batch in [4usize, 8, 16] {
                assert_eq!(
                    cache.frame_step(8_000, batch),
                    sys.frame_step(&model, 8_000, batch)
                );
            }
            assert_eq!(cache.misses(), 4, "every absorbed shape hits");
        }
    }
}
