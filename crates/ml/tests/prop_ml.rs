//! Property tests for the ML substrate: cross-validation partitions,
//! sampling invariants, metric laws, and forest sanity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sentinel_ml::crossval::stratified_k_fold;
use sentinel_ml::metrics::{accuracy, ConfusionMatrix};
use sentinel_ml::sampling::{balanced_one_vs_rest, bootstrap_indices};
use sentinel_ml::{Dataset, ForestConfig, RandomForest};

fn labels_strategy() -> impl Strategy<Value = Vec<usize>> {
    // 2-5 classes, enough rows per class for 2-5 folds.
    (2usize..5, 2usize..6).prop_flat_map(|(classes, per_class)| {
        Just(
            (0..classes)
                .flat_map(|c| std::iter::repeat_n(c, per_class * 5))
                .collect::<Vec<usize>>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn folds_partition_every_row_exactly_once(labels in labels_strategy(), k in 2usize..6, seed in any::<u64>()) {
        let folds = stratified_k_fold(&labels, k, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(folds.len(), k);
        let mut tested = vec![0usize; labels.len()];
        for fold in &folds {
            for &i in &fold.test {
                tested[i] += 1;
            }
            let test: std::collections::HashSet<_> = fold.test.iter().collect();
            prop_assert!(fold.train.iter().all(|i| !test.contains(i)), "train/test overlap");
            prop_assert_eq!(fold.train.len() + fold.test.len(), labels.len());
        }
        prop_assert!(tested.iter().all(|&c| c == 1), "row tested more or less than once");
    }

    #[test]
    fn folds_preserve_class_balance(labels in labels_strategy(), seed in any::<u64>()) {
        let k = 5;
        let folds = stratified_k_fold(&labels, k, &mut StdRng::seed_from_u64(seed));
        let n_classes = labels.iter().max().unwrap() + 1;
        for fold in &folds {
            for class in 0..n_classes {
                let total = labels.iter().filter(|&&l| l == class).count();
                let in_test = fold.test.iter().filter(|&&i| labels[i] == class).count();
                // Stratified: each fold holds total/k of the class ± 1.
                let expected = total / k;
                prop_assert!(
                    in_test == expected || in_test == expected + 1,
                    "class {class}: {in_test} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    fn bootstrap_covers_range(n in 1usize..200, seed in any::<u64>()) {
        let sample = bootstrap_indices(n, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(sample.len(), n);
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    #[test]
    fn one_vs_rest_labels_align(pos in 1usize..20, neg in 1usize..200, ratio in 1usize..12, seed in any::<u64>()) {
        let positives: Vec<usize> = (0..pos).collect();
        let negatives: Vec<usize> = (pos..pos + neg).collect();
        let (indices, labels) =
            balanced_one_vs_rest(&positives, &negatives, ratio, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(indices.len(), labels.len());
        prop_assert_eq!(labels.iter().filter(|&&l| l == 1).count(), pos);
        prop_assert_eq!(
            labels.iter().filter(|&&l| l == 0).count(),
            (pos * ratio).min(neg)
        );
        for (&i, &l) in indices.iter().zip(&labels) {
            prop_assert_eq!(l == 1, i < pos);
        }
        let distinct: std::collections::HashSet<_> = indices.iter().collect();
        prop_assert_eq!(distinct.len(), indices.len(), "negatives drawn without replacement");
    }

    #[test]
    fn accuracy_bounds_and_extremes(truth in proptest::collection::vec(0usize..4, 1..50)) {
        prop_assert_eq!(accuracy(&truth, &truth), 1.0);
        let wrong: Vec<usize> = truth.iter().map(|&t| t + 1).collect();
        prop_assert_eq!(accuracy(&truth, &wrong), 0.0);
    }

    #[test]
    fn confusion_matrix_consistency(pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..80)) {
        let mut matrix = ConfusionMatrix::new(["a", "b", "c", "d"]);
        for &(actual, predicted) in &pairs {
            matrix.record(actual, predicted);
        }
        // Accuracy equals the direct computation.
        let truth: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
        let predicted: Vec<usize> = pairs.iter().map(|&(_, p)| p).collect();
        prop_assert!((matrix.accuracy() - accuracy(&truth, &predicted)).abs() < 1e-12);
        // Recall and precision stay in [0, 1].
        for class in 0..4 {
            if let Some(r) = matrix.recall(class) {
                prop_assert!((0.0..=1.0).contains(&r));
            }
            if let Some(p) = matrix.precision(class) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn forest_predictions_are_valid_labels(seed in any::<u64>(), n in 10usize..40) {
        let mut data = Dataset::new(3);
        for i in 0..n {
            let x = i as f64;
            data.push(&[x, x * 0.5, 2.0], usize::from(i % 3 == 0));
        }
        let forest = RandomForest::fit(
            &data,
            &ForestConfig::default().with_trees(15).with_seed(seed),
        );
        for i in 0..n {
            let predicted = forest.predict(data.row(i));
            prop_assert!(predicted < forest.n_classes());
            let proba = forest.predict_proba(data.row(i));
            prop_assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forest_memorizes_separable_data(seed in any::<u64>()) {
        // Well-separated clusters must be perfectly learned.
        let mut data = Dataset::new(2);
        for i in 0..30 {
            let j = (i % 5) as f64 * 0.1;
            data.push(&[j, j], 0);
            data.push(&[10.0 + j, 10.0 + j], 1);
        }
        let forest = RandomForest::fit(
            &data,
            &ForestConfig::default().with_trees(20).with_seed(seed),
        );
        for i in 0..data.len() {
            prop_assert_eq!(forest.predict(data.row(i)), data.label(i));
        }
    }
}
