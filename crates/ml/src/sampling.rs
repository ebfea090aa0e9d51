//! Sampling utilities: bootstrap and class-balanced negative sampling.

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `n` indices uniformly with replacement from `0..n` (a bootstrap
/// sample for bagging).
pub fn bootstrap_indices(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    bootstrap_indices_into(n, rng, &mut out);
    out
}

/// Appends `n` bootstrap draws (uniform with replacement from `0..n`)
/// to `out` — the buffer-reusing twin of [`bootstrap_indices`],
/// consuming the identical RNG stream.
pub fn bootstrap_indices_into(n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
    out.extend((0..n).map(|_| rng.gen_range(0..n)));
}

/// Selects the training indices for a one-vs-rest classifier with the
/// paper's class-imbalance mitigation: all `positives` plus
/// `ratio × positives.len()` randomly chosen `negatives` (Sect. IV-B.1,
/// evaluated with ratio 10 in Sect. VI-B).
///
/// The negatives are drawn without replacement (all of them, shuffled,
/// when fewer than the ratio asks for). Returns `(indices, labels)`
/// aligned pairwise: label 1 for positives, 0 for the sampled
/// negatives.
pub fn balanced_one_vs_rest(
    positives: &[usize],
    negatives: &[usize],
    ratio: usize,
    rng: &mut impl Rng,
) -> (Vec<usize>, Vec<usize>) {
    let mut sampled = negatives.to_vec();
    sampled.shuffle(rng);
    sampled.truncate(positives.len() * ratio);
    let mut indices = Vec::with_capacity(positives.len() + sampled.len());
    let mut labels = Vec::with_capacity(indices.capacity());
    indices.extend_from_slice(positives);
    labels.extend(std::iter::repeat_n(1, positives.len()));
    indices.extend_from_slice(&sampled);
    labels.extend(std::iter::repeat_n(0, sampled.len()));
    (indices, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn bootstrap_has_right_length_and_range() {
        let sample = bootstrap_indices(50, &mut rng());
        assert_eq!(sample.len(), 50);
        assert!(sample.iter().all(|&i| i < 50));
        // A bootstrap sample of 50 almost surely repeats at least once.
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert!(distinct.len() < 50);
    }

    #[test]
    fn bootstrap_into_matches_allocating_twin() {
        let mut reused = Vec::new();
        bootstrap_indices_into(50, &mut rng(), &mut reused);
        assert_eq!(reused, bootstrap_indices(50, &mut rng()));
        // Appends rather than overwrites, so one flat buffer can hold
        // every tree's sample back to back.
        bootstrap_indices_into(50, &mut rng(), &mut reused);
        assert_eq!(reused.len(), 100);
    }

    #[test]
    fn one_vs_rest_ratio() {
        let positives: Vec<usize> = (0..20).collect();
        let negatives: Vec<usize> = (20..540).collect();
        let (indices, labels) = balanced_one_vs_rest(&positives, &negatives, 10, &mut rng());
        assert_eq!(indices.len(), 20 + 200);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 20);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 200);
        // Negatives must come from the negative pool.
        for (&i, &l) in indices.iter().zip(&labels) {
            if l == 0 {
                assert!(i >= 20);
            } else {
                assert!(i < 20);
            }
        }
    }

    #[test]
    fn one_vs_rest_small_negative_pool() {
        let positives = [0, 1];
        let negatives = [2, 3, 4];
        let (indices, labels) = balanced_one_vs_rest(&positives, &negatives, 10, &mut rng());
        assert_eq!(indices.len(), 5, "uses the whole pool when short");
        assert_eq!(labels, vec![1, 1, 0, 0, 0]);
    }
}
