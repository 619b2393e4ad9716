//! CART regression trees.
//!
//! Two split strategies are provided, matching scikit-learn's
//! `DecisionTreeRegressor(splitter="best")` and the per-tree behaviour of
//! `ExtraTreesRegressor` (`splitter="random"`): *best* sorts each candidate
//! feature and scans every cut point; *random* draws one uniform threshold
//! per candidate feature and keeps the best of those. The split criterion is
//! variance reduction (sum-of-squared-deviations improvement).

mod node;
mod splitter;

pub use node::{Node, NodeId};
pub use splitter::{MaxFeatures, SplitCandidate, Splitter};

use crate::model::{validate_training_data, FitError, Regressor};
use crate::rng::Xoshiro256;
use lam_data::Dataset;
use serde::{Deserialize, Serialize};

/// Hyperparameters shared by single trees and forests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth; `None` grows until pure/exhausted.
    pub max_depth: Option<usize>,
    /// Minimum number of samples required to split an internal node.
    pub min_samples_split: usize,
    /// Minimum number of samples required in each leaf.
    pub min_samples_leaf: usize,
    /// How many features to consider per split.
    pub max_features: MaxFeatures,
    /// Split strategy.
    pub splitter: Splitter,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            splitter: Splitter::Best,
        }
    }
}

impl TreeParams {
    /// Validate parameter sanity before fitting.
    pub fn validate(&self) -> Result<(), FitError> {
        if self.min_samples_split < 2 {
            return Err(FitError::Invalid(
                "min_samples_split must be >= 2".to_string(),
            ));
        }
        if self.min_samples_leaf == 0 {
            return Err(FitError::Invalid(
                "min_samples_leaf must be >= 1".to_string(),
            ));
        }
        if let MaxFeatures::Fraction(f) = self.max_features {
            if !(f > 0.0 && f <= 1.0) {
                return Err(FitError::Invalid(format!(
                    "max_features fraction {f} outside (0, 1]"
                )));
            }
        }
        if let MaxFeatures::Count(0) = self.max_features {
            return Err(FitError::Invalid(
                "max_features count must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// A fitted (or not yet fitted) CART regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    params: TreeParams,
    seed: u64,
    nodes: Vec<Node>,
    n_features: usize,
}

impl Default for DecisionTreeRegressor {
    fn default() -> Self {
        Self::new(TreeParams::default(), 0)
    }
}

impl DecisionTreeRegressor {
    /// Create an unfitted tree with the given parameters and RNG seed (the
    /// seed matters for `Splitter::Random` and feature subsampling).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        Self {
            params,
            seed,
            nodes: Vec::new(),
            n_features: 0,
        }
    }

    /// The tree's hyperparameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// `true` once `fit` has succeeded.
    pub fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of feature columns seen at fit time (0 before fitting).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// A tree with a raw node layout, as a deserialized artifact may carry
    /// one: the compiler's structure checks are tested on these.
    #[cfg(test)]
    pub(crate) fn from_raw_parts(nodes: Vec<Node>, n_features: usize) -> Self {
        Self {
            nodes,
            n_features,
            ..Self::default()
        }
    }

    /// The flat node storage (empty before fitting). Crate-internal: the
    /// arena compiler lowers these into its SoA layout.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves in the fitted tree.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the fitted tree (a lone root leaf has depth 0).
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.depth_of(0)
    }

    fn depth_of(&self, id: usize) -> usize {
        match self.nodes[id] {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => 1 + self.depth_of(left).max(self.depth_of(right)),
        }
    }

    /// Impurity-decrease feature importances, normalized to sum to 1
    /// (all-zero when the tree is a single leaf).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for n in &self.nodes {
            if let Node::Internal {
                feature,
                improvement,
                ..
            } = *n
            {
                imp[feature as usize] += improvement;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    fn build(
        &mut self,
        data: &Dataset,
        indices: &mut [usize],
        depth: usize,
        rng: &mut Xoshiro256,
    ) -> NodeId {
        let ys: Vec<f64> = indices.iter().map(|&i| data.response()[i]).collect();
        let n = ys.len();
        let mean = ys.iter().sum::<f64>() / n as f64;

        let stop = n < self.params.min_samples_split
            || self.params.max_depth.is_some_and(|d| depth >= d)
            || ys.iter().all(|&y| (y - ys[0]).abs() < 1e-30);

        if !stop {
            if let Some(split) = splitter::find_split(data, indices, &self.params, rng) {
                // Partition indices in place around the chosen threshold.
                let mid = partition_in_place(data, indices, split.feature, split.threshold);
                // A degenerate partition can only happen with pathological
                // float behaviour; fall through to a leaf in that case.
                if mid > 0 && mid < n {
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                    let (left_idx, right_idx) = indices.split_at_mut(mid);
                    let left = self.build(data, left_idx, depth + 1, rng);
                    let right = self.build(data, right_idx, depth + 1, rng);
                    self.nodes[id] = Node::Internal {
                        feature: split.feature as u32,
                        threshold: split.threshold,
                        left,
                        right,
                        improvement: split.improvement,
                    };
                    return id as NodeId;
                }
            }
        }

        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        id as NodeId
    }
}

/// Partition `indices` so rows with `feature <= threshold` come first;
/// returns the boundary position.
fn partition_in_place(
    data: &Dataset,
    indices: &mut [usize],
    feature: usize,
    threshold: f64,
) -> usize {
    let mut lo = 0usize;
    let mut hi = indices.len();
    while lo < hi {
        if data.row(indices[lo])[feature] <= threshold {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    lo
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), FitError> {
        validate_training_data(data)?;
        self.params.validate()?;
        self.nodes.clear();
        self.n_features = data.n_features();
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = Xoshiro256::seeded(self.seed);
        let root = self.build(data, &mut indices, 0, &mut rng);
        debug_assert_eq!(root, 0);
        Ok(())
    }

    /// Walk the tree to a leaf. Fitted-ness is *not* re-checked per call
    /// (hoisted to fit/compile time — see [`crate::compile`]); calling an
    /// unfitted tree panics on the root index instead of an assert, and
    /// compiled use surfaces a typed
    /// [`crate::compile::CompileError::NotFitted`] up front.
    fn predict_row(&self, x: &[f64]) -> f64 {
        let mut id = 0usize;
        loop {
            match self.nodes[id] {
                Node::Leaf { value } => return value,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    id = if x[feature as usize] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.params.splitter {
            Splitter::Best => "decision_tree",
            Splitter::Random => "extra_tree",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like() -> Dataset {
        // Response depends on both features: y = x0 + 10*x1.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                rows.push(vec![a as f64, b as f64]);
                ys.push(a as f64 + 10.0 * b as f64);
            }
        }
        Dataset::from_rows(vec!["a".into(), "b".into()], &rows, ys).unwrap()
    }

    #[test]
    fn fits_training_data_exactly_when_unbounded() {
        let d = xor_like();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        for (x, y) in d.iter() {
            assert!((t.predict_row(x) - y).abs() < 1e-12);
        }
        assert!(t.is_fitted());
        assert!(t.n_leaves() >= 64);
    }

    #[test]
    fn max_depth_limits_depth() {
        let d = xor_like();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                max_depth: Some(3),
                ..TreeParams::default()
            },
            0,
        );
        t.fit(&d).unwrap();
        assert!(t.depth() <= 3, "depth {}", t.depth());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = xor_like();
        let leaf = 5;
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                min_samples_leaf: leaf,
                ..TreeParams::default()
            },
            0,
        );
        t.fit(&d).unwrap();
        // With 64 samples and min leaf 5, there can be at most 12 leaves.
        assert!(t.n_leaves() <= 64 / leaf);
    }

    #[test]
    fn constant_target_single_leaf() {
        let d = Dataset::new(
            vec!["x".into()],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![7.0, 7.0, 7.0, 7.0],
        )
        .unwrap();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_row(&[2.5]), 7.0);
    }

    #[test]
    fn random_splitter_still_learns() {
        let d = xor_like();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                splitter: Splitter::Random,
                ..TreeParams::default()
            },
            42,
        );
        t.fit(&d).unwrap();
        // Fully grown random tree also interpolates training data.
        for (x, y) in d.iter() {
            assert!((t.predict_row(x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn refit_replaces_model() {
        let d1 = Dataset::new(vec!["x".into()], vec![0.0, 1.0], vec![0.0, 0.0]).unwrap();
        let d2 = Dataset::new(vec!["x".into()], vec![0.0, 1.0], vec![5.0, 5.0]).unwrap();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d1).unwrap();
        assert_eq!(t.predict_row(&[0.5]), 0.0);
        t.fit(&d2).unwrap();
        assert_eq!(t.predict_row(&[0.5]), 5.0);
    }

    #[test]
    fn invalid_params_rejected() {
        let d = xor_like();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                min_samples_split: 1,
                ..TreeParams::default()
            },
            0,
        );
        assert!(matches!(t.fit(&d), Err(FitError::Invalid(_))));
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                min_samples_leaf: 0,
                ..TreeParams::default()
            },
            0,
        );
        assert!(matches!(t.fit(&d), Err(FitError::Invalid(_))));
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                max_features: MaxFeatures::Fraction(1.5),
                ..TreeParams::default()
            },
            0,
        );
        assert!(matches!(t.fit(&d), Err(FitError::Invalid(_))));
    }

    #[test]
    fn feature_importances_identify_dominant_feature() {
        let d = xor_like(); // y = a + 10*b, so b dominates variance
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let imp = t.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > imp[0], "importances {imp:?}");
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let d = xor_like();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTreeRegressor = serde_json::from_str(&json).unwrap();
        for (x, _) in d.iter() {
            assert_eq!(t.predict_row(x), back.predict_row(x));
        }
    }

    #[test]
    fn partition_in_place_splits_correctly() {
        let d = Dataset::new(
            vec!["x".into()],
            vec![5.0, 1.0, 3.0, 2.0, 4.0],
            vec![0.0; 5],
        )
        .unwrap();
        let mut idx = vec![0, 1, 2, 3, 4];
        let mid = partition_in_place(&d, &mut idx, 0, 2.5);
        assert_eq!(mid, 2);
        for &i in &idx[..mid] {
            assert!(d.row(i)[0] <= 2.5);
        }
        for &i in &idx[mid..] {
            assert!(d.row(i)[0] > 2.5);
        }
    }
}
