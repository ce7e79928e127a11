//! Tree construction: growth, node-model fitting, and pruning in one
//! bottom-up recursion.

use mtperf_linalg::stats;

use crate::node::{LeafId, Node};
use crate::split::SortedLists;
use crate::{Dataset, LinearModel, M5Params, MtreeError};

/// Result of building one subtree.
pub(crate) struct Built {
    pub node: Node,
    /// Inflated error estimate of the subtree (weighted over leaves).
    pub error: f64,
    /// Attributes referenced by splits in the subtree.
    pub attrs: Vec<usize>,
}

/// Grows, fits and (optionally) prunes the tree over every row of `data`,
/// sorting each attribute's rows once for the whole build.
pub(crate) fn build_tree(
    data: &Dataset,
    params: &M5Params,
    root_sd: f64,
) -> Result<Built, MtreeError> {
    let idx: Vec<usize> = (0..data.n_rows()).collect();
    let mut sorted = SortedLists::new(data, &idx);
    build(data, idx, &mut sorted, 0, params, root_sd, 0)
}

/// Recursively grows, fits, and (optionally) prunes the subtree over `idx`.
///
/// `sorted` holds each attribute's order of the rows in `idx` at
/// `at..at + idx.len()`; the build partitions that range for the children
/// and leaves it in an unspecified order.
///
/// Follows M5' (Wang & Witten):
///
/// * stop splitting when the subset is small (`< 2·min_instances`), nearly
///   homogeneous (`sd < sd_fraction · root_sd`), at the depth limit, or no
///   admissible split reduces variance — such leaves predict the subset
///   mean (the paper's constant LM18 is one of these);
/// * otherwise split on the best SDR pair, partition the rows and the
///   sorted lists by it, and recurse;
/// * fit this node's linear model over the attributes referenced in its
///   subtree, with greedy term elimination;
/// * prune: if the node model's inflated error is no worse than the
///   weighted subtree error, collapse to a leaf carrying the node model
///   (this is how multi-term leaf models like the paper's LM8 arise).
fn build(
    data: &Dataset,
    idx: Vec<usize>,
    sorted: &mut SortedLists,
    at: usize,
    params: &M5Params,
    root_sd: f64,
    depth: usize,
) -> Result<Built, MtreeError> {
    if idx.is_empty() {
        return Err(MtreeError::DegenerateData(format!(
            "empty partition reached the tree builder at depth {depth}"
        )));
    }
    mtperf_obs::add("mtree.nodes_built", 1);
    let ys: Vec<f64> = idx.iter().map(|&i| data.target(i)).collect();
    let mean = stats::mean(&ys);
    let sd = stats::std_dev(&ys);
    let n = idx.len();

    let depth_ok = params.max_depth().is_none_or(|d| depth < d);
    let homogeneous = sd < params.sd_fraction() * root_sd;
    let split = if depth_ok && !homogeneous && n >= 2 * params.min_instances() {
        sorted.best_split(data, &idx, at, params.min_instances(), params.parallelism())
    } else {
        None
    };
    if split.is_some() {
        mtperf_obs::add("mtree.splits_accepted", 1);
        if mtperf_obs::is_enabled() {
            // Per-depth winner counts need a formatted name; skip the
            // allocation entirely when tracing is off.
            mtperf_obs::add(&format!("mtree.splits_at_depth.{depth}"), 1);
        }
    }

    let Some(split) = split else {
        let model = LinearModel::constant(mean);
        let error = model.inflated_error(data, &idx);
        return Ok(Built {
            node: Node::Leaf {
                id: LeafId(0), // renumbered by the caller
                model,
                n,
                mean,
            },
            error,
            attrs: Vec::new(),
        });
    };

    let col = data.column(split.attr);
    let goes_left = |i: usize| col[i] <= split.threshold;
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| goes_left(i));
    sorted.partition(at, n, goes_left);
    let right_at = at + left_idx.len();
    let left = build(data, left_idx, sorted, at, params, root_sd, depth + 1)?;
    let right = build(
        data,
        right_idx,
        sorted,
        right_at,
        params,
        root_sd,
        depth + 1,
    )?;

    let mut attrs = left.attrs;
    attrs.extend(right.attrs);
    attrs.push(split.attr);
    attrs.sort_unstable();
    attrs.dedup();

    let model = LinearModel::fit_with_elimination(data, &idx, &attrs)?;
    let node_error = model.inflated_error(data, &idx);
    let nl = left.node.n() as f64;
    let nr = right.node.n() as f64;
    let subtree_error = (nl * left.error + nr * right.error) / (nl + nr);

    // The tolerance breaks exact-fit ties in favor of the simpler model.
    if params.prune() && node_error <= subtree_error * (1.0 + 1e-9) + 1e-12 {
        mtperf_obs::add("mtree.pruned_subtrees", 1);
        return Ok(Built {
            node: Node::Leaf {
                id: LeafId(0),
                model,
                n,
                mean,
            },
            error: node_error,
            attrs,
        });
    }

    Ok(Built {
        node: Node::Split {
            attr: split.attr,
            threshold: split.threshold,
            model,
            n,
            mean,
            left: Box::new(left.node),
            right: Box::new(right.node),
        },
        error: subtree_error,
        attrs,
    })
}

/// Renumbers leaves `LM1, LM2, …` left to right.
pub(crate) fn assign_leaf_ids(node: &mut Node, next: &mut usize) {
    match node {
        Node::Leaf { id, .. } => {
            *next += 1;
            *id = LeafId(*next);
        }
        Node::Split { left, right, .. } => {
            assign_leaf_ids(left, next);
            assign_leaf_ids(right, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Piecewise-linear data: y = 2x for x <= 0, y = 10 − 3x for x > 0.
    fn piecewise() -> Dataset {
        let rows: Vec<[f64; 1]> = (-60..60).map(|i| [i as f64 / 10.0]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] <= 0.0 {
                    2.0 * r[0]
                } else {
                    10.0 - 3.0 * r[0]
                }
            })
            .collect();
        Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap()
    }

    fn params() -> M5Params {
        M5Params::default()
            .with_min_instances(10)
            .with_smoothing(false)
    }

    /// Builds the tree over every row of `d`.
    fn build_all(d: &Dataset, params: &M5Params) -> Built {
        build_tree(d, params, stats::std_dev(d.targets())).unwrap()
    }

    #[test]
    fn builds_and_prunes_piecewise_data() {
        let d = piecewise();
        let built = build_all(&d, &params());
        // Two linear regimes: the pruned tree should be small but not a
        // single leaf (a global linear model cannot fit the elbow).
        assert!(!built.node.is_leaf());
        assert!(built.node.n_leaves() <= 6);
        // Attributes used include x.
        assert!(built.attrs.contains(&0));
    }

    #[test]
    fn single_linear_regime_collapses_to_one_leaf() {
        // y = 3x + 1 globally: the root model is exact, so pruning collapses
        // everything.
        let rows: Vec<[f64; 1]> = (0..100).map(|i| [i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap();
        let built = build_all(&d, &params());
        assert!(built.node.is_leaf(), "{:?}", built.node.n_leaves());
        assert!(built.error < 1e-6);
    }

    #[test]
    fn unpruned_tree_is_at_least_as_large() {
        let d = piecewise();
        let pruned = build_all(&d, &params());
        let unpruned = build_all(&d, &params().with_prune(false));
        assert!(unpruned.node.n_leaves() >= pruned.node.n_leaves());
    }

    #[test]
    fn max_depth_limits_tree() {
        let d = piecewise();
        let built = build_all(&d, &params().with_prune(false).with_max_depth(Some(2)));
        assert!(built.node.depth() <= 3); // depth limit counts splits
    }

    #[test]
    fn leaf_ids_are_sequential_left_to_right() {
        let d = piecewise();
        let mut built = build_all(&d, &params().with_prune(false));
        let mut next = 0;
        assign_leaf_ids(&mut built.node, &mut next);
        assert_eq!(next, built.node.n_leaves());
        let mut seen = Vec::new();
        built.node.for_each_leaf(&mut |n| {
            if let Node::Leaf { id, .. } = n {
                seen.push(id.0);
            }
        });
        let expect: Vec<usize> = (1..=seen.len()).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn node_counts_partition_instances() {
        let d = piecewise();
        let built = build_all(&d, &params());
        fn check(n: &Node) {
            if let Node::Split {
                left,
                right,
                n: total,
                ..
            } = n
            {
                assert_eq!(left.n() + right.n(), *total);
                check(left);
                check(right);
            }
        }
        check(&built.node);
        assert_eq!(built.node.n(), d.n_rows());
    }
}
