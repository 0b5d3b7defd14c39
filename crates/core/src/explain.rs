//! Local explanation (salience) workloads (§2.1 of the paper).
//!
//! "Bolt uses associative arrays to track salient features. Bolt can do such
//! tracking with one memory access per tree inference, meaning that Bolt can
//! produce a list of salient features as inference is produced." Each
//! matched table cell already knows which features its contributing paths
//! tested, so accumulating salience costs no extra tree traversal.

use crate::engine::{argmax, BoltForest, MatchBuffers};
use crate::filter::table_key;
use std::collections::HashMap;

/// A classification together with its salient-feature attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    /// The predicted class.
    pub class: u32,
    /// Per raw-feature salience weight: how much vote weight flowed through
    /// paths testing that feature, sorted descending.
    pub salience: Vec<(u32, f64)>,
}

impl Explanation {
    /// The `k` most salient raw feature indices.
    #[must_use]
    pub fn top_features(&self, k: usize) -> Vec<u32> {
        self.salience.iter().take(k).map(|&(f, _)| f).collect()
    }
}

impl BoltForest {
    /// Classifies a sample and attributes the decision to input features.
    ///
    /// Requires compilation with
    /// [`BoltConfig::with_explanations`](crate::BoltConfig::with_explanations);
    /// otherwise the salience list is empty (the classification is still
    /// valid).
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn classify_explained(&self, sample: &[f32]) -> Explanation {
        // Matched and addressed like `classify_with` — run starts of the
        // constraining groups, direct compares for the address bits — so
        // the entries come in the scan's ascending order and the `f64` vote
        // and salience sums are the scan's.
        let mut votes = vec![0.0f64; self.n_classes()];
        for &(class, weight) in self.constant_votes() {
            votes[class as usize] += weight;
        }
        let mut salience: HashMap<u32, f64> = HashMap::new();
        let universe = self.universe();
        let mut matching = MatchBuffers::default();
        self.view()
            .for_each_sample_match(universe, sample, &mut matching, |entry, address| {
                if let Some(bloom) = self.bloom() {
                    if !bloom.contains(table_key(entry, address)) {
                        return;
                    }
                }
                if let Some(cell) = self.table().lookup(entry, address) {
                    for (i, &(class, weight)) in cell.votes.iter().enumerate() {
                        votes[class as usize] += weight;
                        if let Some(features) = cell.path_features.get(i) {
                            for &pred in features {
                                let feature = universe.predicate(pred).feature;
                                *salience.entry(feature).or_insert(0.0) += weight;
                            }
                        }
                    }
                }
            });
        // Ties go to the lower class index, like the plain inference path.
        let class = argmax(&votes);
        let mut salience: Vec<(u32, f64)> = salience.into_iter().collect();
        salience.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        Explanation { class, salience }
    }
}

impl BoltForest {
    /// Global feature importance: per-feature salience aggregated over a
    /// dataset ("from local explanations to global understanding", the
    /// Lundberg et al. line of work the paper cites), normalized to sum
    /// to 1. Requires compilation with explanations; otherwise empty.
    #[must_use]
    pub fn feature_importance(&self, data: &bolt_forest::Dataset) -> Vec<(u32, f64)> {
        let mut totals: HashMap<u32, f64> = HashMap::new();
        for (sample, _) in data.iter() {
            for (feature, weight) in self.classify_explained(sample).salience {
                *totals.entry(feature).or_insert(0.0) += weight;
            }
        }
        let sum: f64 = totals.values().sum();
        let mut ranked: Vec<(u32, f64)> = totals
            .into_iter()
            .map(|(f, w)| (f, if sum > 0.0 { w / sum } else { 0.0 }))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoltConfig;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn fixture() -> (Dataset, RandomForest, BoltForest) {
        // Only feature 0 carries signal; features 1-2 are noise the trainer
        // mostly ignores.
        let rows: Vec<Vec<f32>> = (0..150)
            .map(|i| vec![(i % 10) as f32, ((i * 13) % 7) as f32, ((i * 5) % 4) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 4.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(8).with_max_height(3).with_seed(12),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default().with_explanations(true))
            .expect("compiles");
        (data, forest, bolt)
    }

    #[test]
    fn explained_class_matches_plain_classification() {
        let (data, forest, bolt) = fixture();
        for (sample, _) in data.iter().take(60) {
            let explanation = bolt.classify_explained(sample);
            assert_eq!(explanation.class, forest.predict(sample));
            assert_eq!(explanation.class, bolt.classify(sample));
        }
    }

    #[test]
    fn signal_feature_dominates_salience() {
        let (data, _, bolt) = fixture();
        let mut wins = 0usize;
        for (sample, _) in data.iter().take(50) {
            let explanation = bolt.classify_explained(sample);
            if explanation.top_features(1) == vec![0] {
                wins += 1;
            }
        }
        assert!(wins >= 40, "feature 0 was top in only {wins}/50 samples");
    }

    #[test]
    fn salience_weight_bounded_by_votes() {
        let (data, _, bolt) = fixture();
        let explanation = bolt.classify_explained(data.sample(0));
        let max_possible = bolt.n_trees() as f64 * 3.0; // height <= 3 tests per path
        for &(_, w) in &explanation.salience {
            assert!(w > 0.0 && w <= max_possible);
        }
    }

    #[test]
    fn global_importance_ranks_signal_feature_first() {
        let (data, _, bolt) = fixture();
        let importance = bolt.feature_importance(&data);
        assert_eq!(importance[0].0, 0, "feature 0 carries the signal");
        let total: f64 = importance.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "normalized to 1, got {total}");
        assert!(
            importance.windows(2).all(|w| w[0].1 >= w[1].1),
            "descending"
        );
    }

    #[test]
    fn without_explanations_salience_is_empty() {
        let (data, forest, _) = fixture();
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let explanation = bolt.classify_explained(data.sample(0));
        assert!(explanation.salience.is_empty());
        assert_eq!(explanation.class, forest.predict(data.sample(0)));
    }
}
