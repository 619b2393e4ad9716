//! Arena-compiled tree inference: lower any fitted tree model into a
//! contiguous structure-of-arrays arena and evaluate it branchlessly,
//! block-wise.
//!
//! The interpreted walk ([`crate::tree::DecisionTreeRegressor::predict_row`])
//! matches on a 40-byte enum node per step, dragging the fit-time
//! `improvement` payload through the cache and paying a branch per level.
//! Compilation splits the hot split data into parallel arrays:
//!
//! * `feature: Vec<u32>` — split column, one entry per internal node;
//! * `threshold: Vec<f64>` — split threshold, same indexing;
//! * `children: Vec<u32>` — two encoded child slots per internal node
//!   (`2*id` left, `2*id + 1` right), each either another internal node
//!   index or a leaf reference with the [`LEAF_TAG`] bit set;
//! * `leaf_values: Vec<f64>` — leaf payloads, separate so the walk only
//!   touches them once per tree.
//!
//! Descending one level is branchless index arithmetic — the comparison
//! result selects the child slot directly
//! (`children[2 * id + (!(x[f] <= t)) as usize]`), so the only branch per
//! level is the loop's leaf-exit test. `!(x <= t)` (rather than `x > t`)
//! reproduces the interpreted walk's NaN routing exactly: NaN fails
//! `<=` and goes right in both.
//!
//! Ensembles of trees — forests, extra trees, boosting stages — share one
//! arena with per-tree root slots; [`CompiledTrees::predict_rows`]
//! evaluates rows in blocks of [`BLOCK`] with a tree-outer/row-inner loop
//! so a tree's upper-level split data is loaded once per block instead of
//! once per row, accumulating into a stack block accumulator instead of a
//! per-row `Vec` collect. Within a block, [`LANES`] rows descend each
//! tree *in lockstep* — a single descent is a serial dependent-load
//! chain, so interleaving eight of them overlaps their memory latency —
//! with finished lanes parked branchlessly on their leaf slot.
//! Aggregation follows the source model exactly (tree order,
//! `fold(0.0, +)` summation), so compiled predictions are
//! **bit-identical** to the interpreted model's.
//!
//! Fitted-ness and tree structure are validated once, here, at compile
//! time — the per-row hot path carries no assert. A tree must be fitted
//! ([`CompileError::NotFitted`]), split only on columns below its feature
//! arity ([`CompileError::FeatureOutOfRange`]), lay its nodes out in the
//! preorder that fitting emits ([`CompileError::NotPreorder`]), and stay
//! within [`MAX_DEPTH`] levels ([`CompileError::TooDeep`]). A deserialized
//! artifact that breaks any of these is refused instead of compiled into
//! an arena whose unchecked walk would read out of bounds.

use crate::ensemble::GradientBoostingRegressor;
use crate::forest::{ExtraTreesRegressor, RandomForestRegressor};
use crate::tree::{DecisionTreeRegressor, Node};
use std::fmt;

/// High bit of an encoded child slot: set when the slot references a leaf
/// (payload = index into `leaf_values`), clear when it references an
/// internal node (payload = index into `feature`/`threshold`/`children`).
pub const LEAF_TAG: u32 = 1 << 31;

/// Rows per evaluation block of [`CompiledTrees::predict_rows`]: small
/// enough for the accumulator to live on the stack, large enough that a
/// tree's upper levels stay cached across the whole block.
pub const BLOCK: usize = 64;

/// Rows walked through a tree in lockstep by the batch path. A single
/// descent is a serial dependent-load chain (each level's node index
/// comes from the previous level's load), so one row leaves the core's
/// load ports mostly idle; eight interleaved descents give the
/// out-of-order window eight independent chains to overlap.
pub const LANES: usize = 8;

/// Deepest tree the compiler lowers. Fitted trees on every catalog
/// workload stay under 25 levels; the bound keeps a hostile artifact from
/// overflowing the stack of the recursive lowering.
pub const MAX_DEPTH: usize = 1024;

/// Errors raised when lowering a model into an arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The model has not been fitted; there is nothing to compile. This is
    /// where unfit use surfaces as a typed error — the compiled walk
    /// itself never re-checks per row.
    NotFitted,
    /// The ensemble exceeds the arena's 2³¹-node index capacity.
    TooLarge,
    /// A split reads a column at or past the model's feature arity.
    FeatureOutOfRange {
        /// The split's column.
        feature: u32,
        /// Columns the model was fitted on.
        n_features: usize,
    },
    /// A tree's nodes are not the preorder fitting emits (each split's
    /// left subtree right after it, then its right subtree): a child
    /// index is out of range, points backwards, or is shared.
    NotPreorder {
        /// Node index at which the layout breaks.
        node: usize,
    },
    /// A tree is deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotFitted => write!(f, "cannot compile an unfitted model"),
            CompileError::TooLarge => write!(f, "ensemble exceeds arena index capacity"),
            CompileError::FeatureOutOfRange {
                feature,
                n_features,
            } => write!(
                f,
                "split on feature {feature} of a {n_features}-feature model"
            ),
            CompileError::NotPreorder { node } => {
                write!(f, "tree node {node} breaks the fitted preorder layout")
            }
            CompileError::TooDeep => write!(f, "tree deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for CompileError {}

/// How per-tree values combine into the ensemble prediction. Each variant
/// reproduces its source model's arithmetic exactly (same order, same
/// operations) so compiled output is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Aggregation {
    /// A single tree: the leaf value verbatim.
    Single,
    /// Forest mean: `fold(0.0, +)` over trees in order, divided by the
    /// tree count.
    Mean,
    /// Boosting: `base + learning_rate * fold(0.0, +)` over stages.
    Boosted {
        /// The ensemble's base (mean-response) prediction.
        base: f64,
        /// Stage shrinkage.
        learning_rate: f64,
    },
}

/// A fitted tree ensemble lowered into one contiguous SoA arena.
///
/// Built via [`DecisionTreeRegressor::compile`],
/// [`RandomForestRegressor::compile`], [`ExtraTreesRegressor::compile`],
/// or [`GradientBoostingRegressor::compile`]; immutable and `Send + Sync`,
/// so serving layers share it freely across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrees {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    children: Vec<u32>,
    leaf_values: Vec<f64>,
    /// One encoded slot per tree, same encoding as `children` entries.
    roots: Vec<u32>,
    agg: Aggregation,
    n_features: usize,
    /// Split-node count *before* padding (see [`CompiledTrees::finalize`]);
    /// `feature`/`threshold`/`children` may carry inert entries beyond it.
    n_internal: usize,
}

impl CompiledTrees {
    fn builder(n_features: usize, agg: Aggregation) -> Self {
        Self {
            feature: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            leaf_values: Vec::new(),
            roots: Vec::new(),
            agg,
            n_features,
            n_internal: 0,
        }
    }

    /// Seal the arena after the last tree: record the true split count,
    /// then pad the node arrays so every *leaf* payload is also a valid
    /// index into them. The lockstep walk ([`CompiledTrees::eval_lanes`])
    /// advances all lanes unconditionally and discards the result for
    /// lanes already parked on a leaf — branchless parking is only sound
    /// if those dead loads stay in bounds. Padded `feature` entries are 0
    /// (always a legal column), the rest is inert.
    fn finalize(&mut self) {
        self.n_internal = self.feature.len();
        let padded = self.feature.len().max(self.leaf_values.len());
        self.feature.resize(padded, 0);
        self.threshold.resize(padded, 0.0);
        self.children.resize(2 * padded, LEAF_TAG);
    }

    /// Lower the subtree at `nodes[id]`, `depth` levels below its root,
    /// into the arena, returning its encoded slot. Internal nodes are
    /// emitted in DFS preorder so a walk's next node is usually adjacent
    /// in memory. The source nodes must be in that same preorder: `next`
    /// is the index the walk expects to visit next, so every node is
    /// visited exactly once, children lie after their parent, and the
    /// recursion ends.
    fn lower(
        &mut self,
        nodes: &[Node],
        id: usize,
        depth: usize,
        next: &mut usize,
    ) -> Result<u32, CompileError> {
        if depth > MAX_DEPTH {
            return Err(CompileError::TooDeep);
        }
        if id != *next || id >= nodes.len() {
            return Err(CompileError::NotPreorder { node: id });
        }
        *next += 1;
        match nodes[id] {
            Node::Leaf { value } => {
                let slot = self.leaf_values.len();
                if slot >= LEAF_TAG as usize {
                    return Err(CompileError::TooLarge);
                }
                self.leaf_values.push(value);
                Ok(LEAF_TAG | slot as u32)
            }
            Node::Internal {
                feature,
                threshold,
                left,
                right,
                // Fit-time payload: stays behind on the interpreted
                // representation (feature importances read it there).
                improvement: _,
            } => {
                if feature as usize >= self.n_features {
                    return Err(CompileError::FeatureOutOfRange {
                        feature,
                        n_features: self.n_features,
                    });
                }
                let slot = self.feature.len();
                if slot >= LEAF_TAG as usize {
                    return Err(CompileError::TooLarge);
                }
                self.feature.push(feature);
                self.threshold.push(threshold);
                self.children.push(0);
                self.children.push(0);
                let l = self.lower(nodes, left, depth + 1, next)?;
                let r = self.lower(nodes, right, depth + 1, next)?;
                self.children[2 * slot] = l;
                self.children[2 * slot + 1] = r;
                Ok(slot as u32)
            }
        }
    }

    fn push_tree(&mut self, tree: &DecisionTreeRegressor) -> Result<(), CompileError> {
        let nodes = tree.nodes();
        if nodes.is_empty() {
            return Err(CompileError::NotFitted);
        }
        let mut next = 0;
        let root = self.lower(nodes, 0, 0, &mut next)?;
        if next != nodes.len() {
            return Err(CompileError::NotPreorder { node: next });
        }
        self.roots.push(root);
        Ok(())
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of internal (split) nodes across all trees.
    pub fn n_internal(&self) -> usize {
        self.n_internal
    }

    /// Number of leaves across all trees.
    pub fn n_leaves(&self) -> usize {
        self.leaf_values.len()
    }

    /// Feature arity the ensemble was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total bytes of the arena's arrays (the compiled model's working
    /// set, excluding the struct header).
    pub fn arena_bytes(&self) -> usize {
        self.feature.len() * 4
            + self.threshold.len() * 8
            + self.children.len() * 4
            + self.leaf_values.len() * 8
            + self.roots.len() * 4
    }

    /// Walk one tree from an encoded root slot. The descent direction is
    /// branchless (`!(x <= t)` indexes the child pair directly); the only
    /// branch is the leaf exit.
    #[inline]
    // `!(x <= t)` is deliberately NOT `x > t`: NaN must fail the
    // comparison and route right, matching the interpreted walk.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn eval(&self, mut slot: u32, x: &[f64]) -> f64 {
        while slot & LEAF_TAG == 0 {
            let id = slot as usize;
            let right = !(x[self.feature[id] as usize] <= self.threshold[id]) as usize;
            slot = self.children[2 * id + right];
        }
        self.leaf_values[(slot & !LEAF_TAG) as usize]
    }

    /// Unchecked scalar twin of [`CompiledTrees::eval`], used once the
    /// caller has verified `x.len() == n_features` (and `n_features > 0`).
    ///
    /// # Safety-by-construction
    ///
    /// Same arena invariants as [`CompiledTrees::eval_lanes`]: every
    /// untagged slot indexes a real internal node, every `feature` entry
    /// is `< n_features == x.len()`, and the scalar walk exits *before*
    /// dereferencing a tagged slot, so it never touches the padded region.
    #[inline]
    // `!(x <= t)` is deliberately NOT `x > t`: NaN must fail the
    // comparison and route right, matching the interpreted walk.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn eval_checked_row(&self, mut slot: u32, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_features);
        while slot & LEAF_TAG == 0 {
            let id = slot as usize;
            // SAFETY: see the method docs.
            unsafe {
                let f = *self.feature.get_unchecked(id) as usize;
                let t = *self.threshold.get_unchecked(id);
                let right = !(*x.get_unchecked(f) <= t) as usize;
                slot = *self.children.get_unchecked(2 * id + right);
            }
        }
        self.leaf_values[(slot & !LEAF_TAG) as usize]
    }

    /// Scalar walk with a per-call (not per-level) validity dispatch:
    /// rows matching the trained arity take the unchecked walk, anything
    /// else the fully bounds-checked one (which panics exactly where the
    /// interpreted walk would).
    #[inline]
    fn eval_row(&self, root: u32, x: &[f64]) -> f64 {
        if self.n_features > 0 && x.len() == self.n_features {
            self.eval_checked_row(root, x)
        } else {
            self.eval(root, x)
        }
    }

    /// Walk one tree for [`LANES`] rows in lockstep: every level advances
    /// all lanes with branchless selects (a lane already parked on a leaf
    /// keeps its slot; the dead load lands in the padded region — see
    /// [`CompiledTrees::finalize`]), and the loop exits when every lane is
    /// parked. One branch per *level per group* instead of per level per
    /// row, and eight independent load chains in flight.
    /// # Safety-by-construction
    ///
    /// The walk indexes without bounds checks. Every index is in range by
    /// arena invariants, all established before this method can run:
    ///
    /// * every untagged slot (roots and `children` entries) is `<
    ///   n_internal ≤ feature.len()`, every tagged slot's payload is `<
    ///   leaf_values.len() ≤ feature.len()` ([`CompiledTrees::finalize`]
    ///   pads to the max, so a parked lane's dead load stays in bounds);
    /// * `children.len() == 2 * feature.len()`, so `2 * id + right` is in
    ///   bounds whenever `id` is;
    /// * every `feature` entry is `< n_features` (lowering refuses any
    ///   other split with [`CompileError::FeatureOutOfRange`]; padding
    ///   entries are 0 and `n_features > 0` — the caller routes through
    ///   the safe scalar walk otherwise);
    /// * `x` is the caller's flat row-major scratch: lane `k` is the
    ///   `n_features` values at `base + k * n_features`, and the caller
    ///   guarantees `x.len() >= base + LANES * n_features` (rows were
    ///   length-checked as they were packed).
    #[inline]
    // `!(x <= t)` is deliberately NOT `x > t`: NaN must fail the
    // comparison and route right, matching the interpreted walk.
    // `k` indexes both `slot` and the lane's scratch offset, so the
    // range loop is clearer than an enumerate over one of the two.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
    fn eval_lanes(&self, root: u32, x: &[f64], base: usize) -> [f64; LANES] {
        let feature = self.feature.as_slice();
        let threshold = self.threshold.as_slice();
        let children = self.children.as_slice();
        let nf = self.n_features;
        let mut slot = [root; LANES];
        loop {
            let mut all_parked = true;
            for k in 0..LANES {
                let s = slot[k];
                let id = (s & !LEAF_TAG) as usize;
                // SAFETY: see the method docs; `id`, `2 * id + right`, and
                // `base + k * nf + f` are all in range by arena
                // construction plus the caller's scratch-length guarantee.
                let next = unsafe {
                    let f = *feature.get_unchecked(id) as usize;
                    let t = *threshold.get_unchecked(id);
                    let xv = *x.get_unchecked(base + k * nf + f);
                    let right = !(xv <= t) as usize;
                    *children.get_unchecked(2 * id + right)
                };
                slot[k] = if s & LEAF_TAG != 0 { s } else { next };
                all_parked &= slot[k] & LEAF_TAG != 0;
            }
            if all_parked {
                break;
            }
        }
        std::array::from_fn(|k| self.leaf_values[(slot[k] & !LEAF_TAG) as usize])
    }

    /// Evaluate one tree over a block of rows, adding each leaf value into
    /// the matching accumulator slot: full [`LANES`]-wide groups go
    /// through the lockstep walk over the packed `scratch` copy of the
    /// block (when `lockstep` certifies its preconditions), the remainder
    /// through the scalar walk on the original rows.
    #[inline]
    fn accumulate_tree(
        &self,
        root: u32,
        rows: &[&[f64]],
        scratch: &[f64],
        acc: &mut [f64],
        lockstep: bool,
    ) {
        let mut i = 0;
        if lockstep {
            while i + LANES <= rows.len() {
                let leaves = self.eval_lanes(root, scratch, i * self.n_features);
                for (a, leaf) in acc[i..i + LANES].iter_mut().zip(leaves) {
                    *a += leaf;
                }
                i += LANES;
            }
        }
        for (row, a) in rows[i..].iter().zip(&mut acc[i..]) {
            *a += self.eval_row(root, row);
        }
    }

    /// Predict a single row: every tree in order, aggregated exactly as
    /// the interpreted ensemble aggregates.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        match self.agg {
            Aggregation::Single => self.eval_row(self.roots[0], x),
            Aggregation::Mean => {
                let sum = self
                    .roots
                    .iter()
                    .fold(0.0, |acc, &root| acc + self.eval_row(root, x));
                sum / self.roots.len() as f64
            }
            Aggregation::Boosted {
                base,
                learning_rate,
            } => {
                let sum = self
                    .roots
                    .iter()
                    .fold(0.0, |acc, &root| acc + self.eval_row(root, x));
                base + learning_rate * sum
            }
        }
    }

    /// Block-wise batch prediction: rows are processed in blocks of
    /// [`BLOCK`] with a tree-outer/row-inner loop and a per-block stack
    /// accumulator, so each tree's upper split nodes load once per block
    /// and aggregation never allocates per row. Output order matches input
    /// order; values are bit-identical to [`CompiledTrees::predict_row`].
    pub fn predict_rows_by_ref(&self, rows: &[&[f64]]) -> Vec<f64> {
        // Sub-lane batches skip the block machinery entirely — a single
        // /predict request shouldn't pay for a scratch buffer.
        if rows.len() < LANES {
            return rows.iter().map(|row| self.predict_row(row)).collect();
        }
        // The lockstep walk reads feature columns unchecked, so it
        // requires every row to span the trained feature arity (checked
        // once here, not per level). Short rows — or a zero-feature
        // single-leaf model — take the scalar walk instead, preserving
        // the interpreted path's panic behavior on malformed input.
        let lockstep = rows.len() >= LANES
            && self.n_features > 0
            && rows.iter().all(|r| r.len() == self.n_features);
        // Flat row-major copy of the current block: one contiguous,
        // L1-resident buffer that every tree re-reads, instead of a
        // per-lane pointer chase through scattered row slices. The copy
        // is paid once per block and amortised over all trees.
        let mut scratch = vec![0.0f64; if lockstep { BLOCK * self.n_features } else { 0 }];
        let mut out = Vec::with_capacity(rows.len());
        for block in rows.chunks(BLOCK) {
            if lockstep {
                let nf = self.n_features;
                for (k, row) in block.iter().enumerate() {
                    scratch[k * nf..(k + 1) * nf].copy_from_slice(row);
                }
            }
            match self.agg {
                Aggregation::Single => {
                    // Leaves are emitted verbatim (no accumulator): the
                    // interpreted single tree returns the leaf value
                    // itself, and `0.0 + leaf` would flip `-0.0`'s sign.
                    let root = self.roots[0];
                    let mut i = 0;
                    if lockstep {
                        while i + LANES <= block.len() {
                            out.extend_from_slice(&self.eval_lanes(
                                root,
                                &scratch,
                                i * self.n_features,
                            ));
                            i += LANES;
                        }
                    }
                    out.extend(block[i..].iter().map(|row| self.eval_row(root, row)));
                }
                Aggregation::Mean => {
                    let mut acc = [0.0f64; BLOCK];
                    for &root in &self.roots {
                        self.accumulate_tree(root, block, &scratch, &mut acc, lockstep);
                    }
                    let n = self.roots.len() as f64;
                    out.extend(acc[..block.len()].iter().map(|&s| s / n));
                }
                Aggregation::Boosted {
                    base,
                    learning_rate,
                } => {
                    let mut acc = [0.0f64; BLOCK];
                    for &root in &self.roots {
                        self.accumulate_tree(root, block, &scratch, &mut acc, lockstep);
                    }
                    out.extend(acc[..block.len()].iter().map(|&s| base + learning_rate * s));
                }
            }
        }
        out
    }

    /// Owned-row convenience over [`CompiledTrees::predict_rows_by_ref`].
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        if rows.len() < LANES {
            return rows.iter().map(|row| self.predict_row(row)).collect();
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        self.predict_rows_by_ref(&refs)
    }
}

impl DecisionTreeRegressor {
    /// Lower the fitted tree into a [`CompiledTrees`] arena whose
    /// predictions are bit-identical to [`Self::predict_row`]
    /// (`predict_row` via [`crate::model::Regressor`]).
    pub fn compile(&self) -> Result<CompiledTrees, CompileError> {
        let mut arena = CompiledTrees::builder(self.n_features(), Aggregation::Single);
        arena.push_tree(self)?;
        arena.finalize();
        Ok(arena)
    }
}

/// Lower a slice of fitted trees into one shared arena with the given
/// aggregation; the feature arity comes from the first tree.
fn compile_trees(
    trees: &[DecisionTreeRegressor],
    agg: Aggregation,
) -> Result<CompiledTrees, CompileError> {
    let Some(first) = trees.first() else {
        return Err(CompileError::NotFitted);
    };
    let mut arena = CompiledTrees::builder(first.n_features(), agg);
    for tree in trees {
        arena.push_tree(tree)?;
    }
    arena.finalize();
    Ok(arena)
}

impl RandomForestRegressor {
    /// Lower the fitted forest into a [`CompiledTrees`] arena whose
    /// predictions are bit-identical to the interpreted forest mean.
    pub fn compile(&self) -> Result<CompiledTrees, CompileError> {
        compile_trees(self.trees(), Aggregation::Mean)
    }
}

impl ExtraTreesRegressor {
    /// Lower the fitted forest into a [`CompiledTrees`] arena whose
    /// predictions are bit-identical to the interpreted forest mean.
    pub fn compile(&self) -> Result<CompiledTrees, CompileError> {
        compile_trees(self.trees(), Aggregation::Mean)
    }
}

impl GradientBoostingRegressor {
    /// Lower the fitted stage trees into a [`CompiledTrees`] arena whose
    /// predictions are bit-identical to the interpreted
    /// `base + learning_rate * Σ stage` evaluation.
    pub fn compile(&self) -> Result<CompiledTrees, CompileError> {
        compile_trees(
            self.stages(),
            Aggregation::Boosted {
                base: self.base_prediction(),
                learning_rate: self.learning_rate,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Regressor;
    use crate::tree::TreeParams;
    use lam_data::Dataset;

    fn grid() -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for a in 0..12 {
            for b in 0..12 {
                let x0 = a as f64 / 3.0;
                let x1 = b as f64 / 5.0;
                rows.push(vec![x0, x1]);
                ys.push(x0 * x0 + 7.0 * x1 + 0.5);
            }
        }
        Dataset::from_rows(vec!["a".into(), "b".into()], &rows, ys).unwrap()
    }

    fn probes() -> Vec<Vec<f64>> {
        (0..200)
            .map(|i| vec![(i % 17) as f64 / 4.3 - 0.5, (i % 23) as f64 / 6.1 - 0.5])
            .collect()
    }

    #[test]
    fn unfitted_models_refuse_to_compile() {
        assert_eq!(
            DecisionTreeRegressor::default().compile(),
            Err(CompileError::NotFitted)
        );
        assert_eq!(
            RandomForestRegressor::new(0).compile(),
            Err(CompileError::NotFitted)
        );
        assert_eq!(
            ExtraTreesRegressor::new(0).compile(),
            Err(CompileError::NotFitted)
        );
        assert_eq!(
            GradientBoostingRegressor::new(10, 0.1, 0).compile(),
            Err(CompileError::NotFitted)
        );
    }

    fn raw_tree(nodes: Vec<Node>, n_features: usize) -> DecisionTreeRegressor {
        DecisionTreeRegressor::from_raw_parts(nodes, n_features)
    }

    fn split(feature: u32, left: usize, right: usize) -> Node {
        Node::Internal {
            feature,
            threshold: 0.5,
            left,
            right,
            improvement: 0.0,
        }
    }

    const LEAF: Node = Node::Leaf { value: 1.0 };

    #[test]
    fn splits_past_the_feature_arity_are_refused() {
        let t = raw_tree(vec![split(1_000_000, 1, 2), LEAF, LEAF], 4);
        assert_eq!(
            t.compile(),
            Err(CompileError::FeatureOutOfRange {
                feature: 1_000_000,
                n_features: 4
            })
        );
        // The arity is the model's, not a guess from the splits.
        assert!(raw_tree(vec![split(3, 1, 2), LEAF, LEAF], 4)
            .compile()
            .is_ok());
        assert!(raw_tree(vec![split(4, 1, 2), LEAF, LEAF], 4)
            .compile()
            .is_err());
    }

    #[test]
    fn children_outside_the_fitted_preorder_are_refused() {
        for (nodes, node) in [
            // A child past the end.
            (vec![split(0, 1, 7), LEAF], 7),
            // A cycle back to the root.
            (vec![split(0, 0, 1), LEAF], 0),
            // A subtree shared by two parents.
            (vec![split(0, 1, 2), split(0, 2, 3), LEAF, LEAF], 2),
            // Children swapped.
            (vec![split(0, 2, 1), LEAF, LEAF], 2),
            // A node no split reaches.
            (vec![LEAF, LEAF], 1),
        ] {
            assert_eq!(
                raw_tree(nodes.clone(), 1).compile(),
                Err(CompileError::NotPreorder { node }),
                "{nodes:?}"
            );
        }
    }

    #[test]
    fn trees_deeper_than_the_bound_are_refused() {
        // Preorder right spine: split 2k has its leaf at 2k+1 and the
        // next split at 2k+2; the last leaf sits `depth` levels down.
        let spine = |depth: usize| {
            let mut nodes: Vec<Node> = (0..depth)
                .flat_map(|k| [split(0, 2 * k + 1, 2 * k + 2), LEAF])
                .collect();
            nodes.push(LEAF);
            raw_tree(nodes, 1)
        };
        assert_eq!(
            spine(MAX_DEPTH).compile().map(|c| c.n_leaves()),
            Ok(MAX_DEPTH + 1)
        );
        assert_eq!(spine(MAX_DEPTH + 1).compile(), Err(CompileError::TooDeep));
        // Deep enough to overflow the stack if the lowering recursed all
        // the way down.
        assert_eq!(spine(200_000).compile(), Err(CompileError::TooDeep));
    }

    #[test]
    fn single_tree_bit_identical() {
        let d = grid();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let c = t.compile().unwrap();
        assert_eq!(c.n_trees(), 1);
        assert_eq!(c.n_leaves(), t.n_leaves());
        assert_eq!(c.n_internal(), t.n_nodes() - t.n_leaves());
        for row in d
            .iter()
            .map(|(x, _)| x)
            .chain(probes().iter().map(|r| &r[..]))
        {
            assert_eq!(t.predict_row(row).to_bits(), c.predict_row(row).to_bits());
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let d = Dataset::new(vec!["x".into()], vec![1.0, 2.0], vec![3.0, 3.0]).unwrap();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let c = t.compile().unwrap();
        assert_eq!(c.n_internal(), 0);
        assert_eq!(c.predict_row(&[9.0]), 3.0);
        assert_eq!(c.predict_rows(&[vec![0.0], vec![5.0]]), vec![3.0, 3.0]);
    }

    #[test]
    fn forest_bit_identical() {
        let d = grid();
        let mut rf = RandomForestRegressor::with_params(17, TreeParams::default(), 3);
        rf.fit(&d).unwrap();
        let c = rf.compile().unwrap();
        assert_eq!(c.n_trees(), 17);
        for row in probes() {
            assert_eq!(
                rf.predict_row(&row).to_bits(),
                c.predict_row(&row).to_bits()
            );
        }
    }

    #[test]
    fn extra_trees_bit_identical() {
        let d = grid();
        let mut et = ExtraTreesRegressor::with_params(9, TreeParams::default(), 5);
        et.fit(&d).unwrap();
        let c = et.compile().unwrap();
        for row in probes() {
            assert_eq!(
                et.predict_row(&row).to_bits(),
                c.predict_row(&row).to_bits()
            );
        }
    }

    #[test]
    fn boosting_bit_identical() {
        let d = grid();
        let mut g = GradientBoostingRegressor::new(40, 0.2, 7);
        g.fit(&d).unwrap();
        let c = g.compile().unwrap();
        assert_eq!(c.n_trees(), 40);
        for row in probes() {
            assert_eq!(g.predict_row(&row).to_bits(), c.predict_row(&row).to_bits());
        }
    }

    #[test]
    fn blocked_batch_matches_per_row_across_block_boundaries() {
        let d = grid();
        let mut et = ExtraTreesRegressor::with_params(8, TreeParams::default(), 2);
        et.fit(&d).unwrap();
        let c = et.compile().unwrap();
        // 1, BLOCK-1, BLOCK, BLOCK+1, and a few blocks worth of rows.
        for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i % 13) as f64 / 3.7, (i % 7) as f64 / 2.9])
                .collect();
            let batched = c.predict_rows(&rows);
            assert_eq!(batched.len(), n);
            for (row, y) in rows.iter().zip(&batched) {
                assert_eq!(c.predict_row(row).to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn nan_rows_route_like_the_interpreted_walk() {
        let d = grid();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let c = t.compile().unwrap();
        let weird = [
            vec![f64::NAN, 1.0],
            vec![1.0, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![-0.0, 0.0],
        ];
        for row in &weird {
            assert_eq!(t.predict_row(row).to_bits(), c.predict_row(row).to_bits());
        }
    }

    #[test]
    fn arena_is_compact() {
        let d = grid();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&d).unwrap();
        let c = t.compile().unwrap();
        // 4 (feature) + 8 (threshold) + 8 (children pair) bytes per
        // internal node, 8 per leaf, 4 per root, plus the inert padding
        // out to the leaf count (finalize): far below the 40-byte enum
        // node of the interpreted representation.
        let padded = c.n_internal().max(c.n_leaves());
        assert_eq!(
            c.arena_bytes(),
            padded * 20 + c.n_leaves() * 8 + c.n_trees() * 4
        );
        let interpreted_bytes = t.n_nodes() * std::mem::size_of::<Node>();
        assert!(
            c.arena_bytes() < interpreted_bytes,
            "arena {} vs interpreted {}",
            c.arena_bytes(),
            interpreted_bytes
        );
    }
}
