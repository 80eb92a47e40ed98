//! Hash-bit generation: random-hyperplane LSH signatures for keys.
//!
//! A key vector `k ∈ R^d` is reduced to `N_hp` bits by multiplying with
//! `N_hp` random hyperplanes and keeping only the signs (paper Fig. 8,
//! "hash-bit generation"). The Hamming distance between two signatures
//! is a cheap, bit-parallel proxy for angular (cosine) distance — the
//! property the paper validates in Fig. 7b (|correlation| ≈ 0.8).

use rand::rngs::StdRng;
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};
use vrex_tensor::Matrix;

/// A packed bit signature of `n_bits` bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HashBitVector {
    words: Vec<u64>,
    n_bits: usize,
}

impl HashBitVector {
    /// Builds a signature from individual bits.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Self {
            words,
            n_bits: bits.len(),
        }
    }

    /// Number of bits in the signature.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_bits`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.n_bits, "bit index out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Hamming distance (XOR + popcount) to another signature.
    ///
    /// This is the operation the HCU hardware unit executes with its
    /// XOR-accumulator array.
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different lengths.
    pub fn hamming_distance(&self, other: &HashBitVector) -> u32 {
        assert_eq!(self.n_bits, other.n_bits, "signature length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }
}

/// A fixed set of `n_hyperplanes` random hyperplanes in `R^dim`,
/// generated deterministically from a seed.
#[derive(Debug, Clone)]
pub struct HyperplaneSet {
    planes: Matrix, // dim × n_hyperplanes
}

impl HyperplaneSet {
    /// Draws `n_hyperplanes` Gaussian hyperplanes for `dim`-dimensional
    /// keys.
    pub fn new(dim: usize, n_hyperplanes: usize, seed: u64) -> Self {
        let mut rng: StdRng = seeded_rng(seed);
        Self {
            planes: gaussian_matrix(&mut rng, dim, n_hyperplanes, 1.0),
        }
    }

    /// Key dimension.
    pub fn dim(&self) -> usize {
        self.planes.rows()
    }

    /// Signature width in bits.
    pub fn n_hyperplanes(&self) -> usize {
        self.planes.cols()
    }

    /// Hashes a single key vector into its bit signature
    /// (`Key_hp = k · H`, then sign-binarise).
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != self.dim()`.
    pub fn hash(&self, key: &[f32]) -> HashBitVector {
        assert_eq!(key.len(), self.dim(), "key dimension mismatch");
        let n = self.n_hyperplanes();
        let mut bits = vec![false; n];
        for (j, bit) in bits.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (i, &k) in key.iter().enumerate() {
                acc += k * self.planes[(i, j)];
            }
            *bit = acc > 0.0;
        }
        HashBitVector::from_bits(&bits)
    }

    /// Hashes every row of a key matrix.
    pub fn hash_rows(&self, keys: &Matrix) -> Vec<HashBitVector> {
        keys.iter_rows().map(|row| self.hash(row)).collect()
    }
}

/// Expected relationship between cosine similarity and normalised
/// Hamming distance under random-hyperplane hashing:
/// `E[hamming / n_bits] = angle / π = acos(cos_sim) / π`.
///
/// The relation Fig. 7b plots; no figure computes it yet.
// vrex-lint: allow(unreached-pub) — paper claim (Fig. 7b), becomes an F1 row
pub fn expected_normalized_hamming(cosine_similarity: f32) -> f32 {
    cosine_similarity.clamp(-1.0, 1.0).acos() / std::f32::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::ops::{cosine_similarity, pearson_correlation};
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn from_bits_round_trips() {
        let bits = [true, false, true, true, false];
        let v = HashBitVector::from_bits(&bits);
        assert_eq!(v.n_bits(), 5);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(v.bit(i), b);
        }
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = HashBitVector::from_bits(&[true, false, true, false]);
        let b = HashBitVector::from_bits(&[true, true, false, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn hamming_works_across_word_boundaries() {
        let mut bits_a = vec![false; 130];
        let mut bits_b = vec![false; 130];
        bits_a[0] = true;
        bits_a[64] = true;
        bits_a[129] = true;
        bits_b[129] = true;
        let a = HashBitVector::from_bits(&bits_a);
        let b = HashBitVector::from_bits(&bits_b);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn identical_keys_hash_identically() {
        let hp = HyperplaneSet::new(16, 32, 9);
        let key: Vec<f32> = (0..16).map(|i| i as f32 * 0.3 - 2.0).collect();
        assert_eq!(hp.hash(&key), hp.hash(&key));
    }

    #[test]
    fn opposite_keys_hash_to_complements() {
        let hp = HyperplaneSet::new(16, 32, 10);
        let key: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let neg: Vec<f32> = key.iter().map(|v| -v).collect();
        let d = hp.hash(&key).hamming_distance(&hp.hash(&neg));
        // Sign projections flip for every hyperplane not exactly at 0.
        assert_eq!(d, 32);
    }

    #[test]
    fn similar_keys_have_small_hamming_distance() {
        let hp = HyperplaneSet::new(64, 32, 11);
        let mut rng = seeded_rng(12);
        let base = gaussian_matrix(&mut rng, 1, 64, 1.0);
        let noise = gaussian_matrix(&mut rng, 1, 64, 0.05);
        let similar = &base + &noise;
        let far = gaussian_matrix(&mut rng, 1, 64, 1.0);
        let d_sim = hp
            .hash(base.row(0))
            .hamming_distance(&hp.hash(similar.row(0)));
        let d_far = hp.hash(base.row(0)).hamming_distance(&hp.hash(far.row(0)));
        assert!(
            d_sim < d_far,
            "similar pair distance {d_sim} should beat random pair {d_far}"
        );
        assert!(
            d_sim <= 7,
            "paper threshold Th_hd=7 should capture near-duplicates"
        );
    }

    #[test]
    fn hamming_tracks_cosine_similarity_fig7b() {
        // Reproduces the Fig. 7b claim: strong (anti-)correlation
        // between cosine similarity and hash-bit Hamming distance.
        let dim = 64;
        let hp = HyperplaneSet::new(dim, 32, 13);
        let mut rng = seeded_rng(14);
        let base = gaussian_matrix(&mut rng, 1, dim, 1.0);
        let mut cos = Vec::new();
        let mut ham = Vec::new();
        for i in 0..200 {
            let noise_scale = 0.02 * i as f32;
            let noise = gaussian_matrix(&mut rng, 1, dim, noise_scale);
            let other = &base + &noise;
            cos.push(cosine_similarity(base.row(0), other.row(0)));
            ham.push(
                hp.hash(base.row(0))
                    .hamming_distance(&hp.hash(other.row(0))) as f32,
            );
        }
        let r = pearson_correlation(&cos, &ham);
        assert!(r < -0.75, "correlation {r} weaker than the paper's 0.8");
    }

    #[test]
    fn expected_hamming_endpoints() {
        assert!(expected_normalized_hamming(1.0) < 1e-6);
        assert!((expected_normalized_hamming(-1.0) - 1.0).abs() < 1e-6);
        assert!((expected_normalized_hamming(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn hash_rows_matches_per_row_hash() {
        let hp = HyperplaneSet::new(8, 16, 21);
        let mut rng = seeded_rng(22);
        let keys = gaussian_matrix(&mut rng, 5, 8, 1.0);
        let all = hp.hash_rows(&keys);
        for (i, sig) in all.iter().enumerate() {
            assert_eq!(*sig, hp.hash(keys.row(i)));
        }
    }
}
