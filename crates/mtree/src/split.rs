//! Split search: the standard-deviation-reduction (SDR) criterion.
//!
//! Each attribute's scan walks the node's rows in `(value, row index)`
//! order, a total order, so the split found depends only on the node's
//! rows. A tree fit sorts every attribute once, at the root
//! ([`SortedLists::new`]), and never sorts again: a node owns the same
//! range of every attribute's list, and a split stable-partitions that
//! range of each list by the split test, left rows first
//! ([`SortedLists::partition`]).
//!
//! The invariant: each child's range of each list holds exactly the
//! order a fresh `(value, row index)` sort of the child's rows would give.
//! A stable partition keeps the relative order of the rows on each side,
//! and a sorted list restricted to any subset of its rows is that subset
//! sorted. So every node scans the order the per-node sort used to build,
//! and the splits are bit-identical to it. [`best_split_with`] sorts its
//! rows once and runs the same scan.
//!
//! The lists hold `u32` row indices: one list per attribute over the root's
//! rows, plus one spill buffer used while a list is partitioned.

use mtperf_linalg::parallel::{try_par_map, Parallelism};

use crate::Dataset;

/// A candidate binary split: instances with `attr <= threshold` go left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Attribute (column) index tested.
    pub attr: usize,
    /// Split threshold (midpoint between adjacent attribute values, clamped
    /// into `[v, v_next)` so it always separates them).
    pub threshold: f64,
    /// Standard-deviation reduction achieved.
    pub sdr: f64,
}

/// Population standard deviation from sums: `sqrt(E[y²] − E[y]²)`.
///
/// Callers pass sums of **mean-shifted** targets (see [`scan`]),
/// which keeps `E[y²]` and `E[y]²` the same magnitude and avoids the
/// catastrophic cancellation raw sums suffer when targets sit far from zero
/// (e.g. `y ≈ 1e9` with spread `1e-3`).
fn sd_from_sums(sum: f64, sum_sq: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let mean = sum / n;
    (sum_sq / n - mean * mean).max(0.0).sqrt()
}

/// Midpoint of two adjacent attribute values, clamped into `[v, v_next)`.
///
/// `(v + v_next) / 2` can round **up to exactly `v_next`** when the two
/// values are adjacent floats (ties-to-even), which would send both
/// instances to the same side and desynchronize the split counts from the
/// SDR bookkeeping. Halving before adding also avoids overflow near
/// `f64::MAX`.
fn split_threshold(v: f64, v_next: f64) -> f64 {
    debug_assert!(v < v_next);
    let mid = v / 2.0 + v_next / 2.0;
    if mid >= v_next {
        v
    } else if mid < v {
        // Subnormal halving can round below `v`; clamp back.
        v
    } else {
        mid
    }
}

/// Every attribute's row indices, each list sorted by `(value, row index)`.
///
/// A tree node owns the range `at..at + n` of every list, where `n` is its
/// row count: the root owns all of each list, a left child the front of its
/// parent's range and a right child the back. See the module docs for why
/// the lists stay sorted.
pub(crate) struct SortedLists {
    lists: Vec<Vec<u32>>,
    /// Holds one list's right-hand rows while that list is partitioned.
    spill: Vec<u32>,
}

impl SortedLists {
    /// Sorts the rows in `idx` once per attribute.
    ///
    /// # Panics
    ///
    /// Panics if a row index does not fit in `u32`.
    pub(crate) fn new(data: &Dataset, idx: &[usize]) -> Self {
        let rows: Vec<u32> = idx
            .iter()
            .map(|&i| u32::try_from(i).expect("row index fits in u32"))
            .collect();
        let lists = (0..data.n_attrs())
            .map(|attr| {
                let col = data.column(attr);
                let mut list = rows.clone();
                list.sort_unstable_by(|&a, &b| {
                    col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
                });
                list
            })
            .collect();
        SortedLists {
            lists,
            spill: Vec::with_capacity(rows.len()),
        }
    }

    /// Finds the best split of the node whose rows are `idx`, stored at
    /// `at..at + idx.len()` of every list. See [`best_split_with`].
    pub(crate) fn best_split(
        &self,
        data: &Dataset,
        idx: &[usize],
        at: usize,
        min_instances: usize,
        par: Parallelism,
    ) -> Option<Split> {
        let orders: Vec<&[u32]> = self
            .lists
            .iter()
            .map(|list| &list[at..at + idx.len()])
            .collect();
        scan(data, idx, &orders, min_instances, par)
    }

    /// Stable-partitions the range `at..at + n` of every list: the rows for
    /// which `goes_left` holds first, then the rest, each side in list order.
    pub(crate) fn partition(&mut self, at: usize, n: usize, goes_left: impl Fn(usize) -> bool) {
        for list in &mut self.lists {
            let node = &mut list[at..at + n];
            self.spill.clear();
            let mut left = 0;
            for k in 0..n {
                let i = node[k];
                if goes_left(i as usize) {
                    node[left] = i;
                    left += 1;
                } else {
                    self.spill.push(i);
                }
            }
            node[left..].copy_from_slice(&self.spill);
        }
    }
}

/// Per-attribute boundary scan state, shared by every attribute's search.
struct ScanContext<'a> {
    data: &'a Dataset,
    min_instances: usize,
    /// Mean of the subset's targets; targets are shifted by this before
    /// any sum is formed.
    target_mean: f64,
    /// Σ(y − ȳ) over the subset (≈ 0 up to rounding).
    sum: f64,
    /// Σ(y − ȳ)² over the subset.
    sum_sq: f64,
    sd_total: f64,
}

/// Scans one attribute's boundaries and returns its best split (if any has
/// positive SDR) plus the number of admissible boundaries it evaluated.
///
/// `order` holds the subset's rows sorted by `(value, row index)` — a
/// canonical total order — so the result depends only on the subset's
/// contents, never on the caller's index order or on which thread runs the
/// scan.
fn best_split_for_attr(ctx: &ScanContext<'_>, attr: usize, order: &[u32]) -> (Option<Split>, u64) {
    let n = order.len();
    let col = ctx.data.column(attr);
    let nf = n as f64;
    let mut best: Option<Split> = None;
    let mut evaluated = 0u64;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    for (k, &i) in order.iter().enumerate().take(n - 1) {
        let i = i as usize;
        let y = ctx.data.target(i) - ctx.target_mean;
        left_sum += y;
        left_sq += y * y;
        let n_left = k + 1;
        let n_right = n - n_left;
        if n_left < ctx.min_instances || n_right < ctx.min_instances {
            continue;
        }
        let v = col[i];
        let v_next = col[order[k + 1] as usize];
        if v == v_next {
            continue; // not a boundary between distinct values
        }
        evaluated += 1;
        let sd_left = sd_from_sums(left_sum, left_sq, n_left as f64);
        let sd_right = sd_from_sums(ctx.sum - left_sum, ctx.sum_sq - left_sq, n_right as f64);
        let sdr = ctx.sd_total - (n_left as f64 / nf) * sd_left - (n_right as f64 / nf) * sd_right;
        // Strict `>`: the earliest admissible boundary wins ties.
        if sdr > best.map_or(0.0, |b| b.sdr) {
            best = Some(Split {
                attr,
                threshold: split_threshold(v, v_next),
                sdr,
            });
        }
    }
    (best, evaluated)
}

/// Finds the best split of the instances in `idx` over all attributes,
/// scanning serially.
///
/// Implements M5's criterion: maximize
/// `SDR = sd(S) − Σᵢ |Sᵢ|/|S| · sd(Sᵢ)` over all `(attribute, threshold)`
/// pairs, where thresholds are midpoints between consecutive distinct
/// attribute values. Splits leaving either side with fewer than
/// `min_instances` are not considered.
///
/// Returns `None` when no admissible split has positive SDR (constant
/// attributes, too few instances, or a constant target).
///
/// # Example
///
/// ```
/// use mtperf_mtree::{best_split, Dataset};
///
/// let d = Dataset::from_rows(
///     vec!["x".into()],
///     &[[0.0], [1.0], [2.0], [3.0]],
///     &[0.0, 0.0, 10.0, 10.0],
/// ).unwrap();
/// let s = best_split(&d, &[0, 1, 2, 3], 1).unwrap();
/// assert_eq!(s.attr, 0);
/// assert!((s.threshold - 1.5).abs() < 1e-12);
/// ```
pub fn best_split(data: &Dataset, idx: &[usize], min_instances: usize) -> Option<Split> {
    best_split_with(data, idx, min_instances, Parallelism::Off)
}

/// Finds the best split, scanning attributes with up to `par` threads.
///
/// Bit-identical to [`best_split`] at every thread count: each attribute's
/// scan is an independent computation over a canonically ordered copy of the
/// subset, and the per-attribute winners are reduced in ascending attribute
/// order with a strict comparison (ties go to the lowest attribute index),
/// exactly as a serial left-to-right sweep would.
///
/// # Panics
///
/// Panics if an index in `idx` does not fit in `u32`.
pub fn best_split_with(
    data: &Dataset,
    idx: &[usize],
    min_instances: usize,
    par: Parallelism,
) -> Option<Split> {
    SortedLists::new(data, idx).best_split(data, idx, 0, min_instances, par)
}

/// The split search over the rows in `idx`, given each attribute's order of
/// them in `orders`. Target sums run in `idx` order.
fn scan(
    data: &Dataset,
    idx: &[usize],
    orders: &[&[u32]],
    min_instances: usize,
    par: Parallelism,
) -> Option<Split> {
    let n = idx.len();
    if n < 2 * min_instances.max(1) {
        return None;
    }
    // Center targets on the subset mean so the sum-based standard deviations
    // stay accurate for targets far from zero.
    let target_mean = idx.iter().map(|&i| data.target(i)).sum::<f64>() / n as f64;
    let (sum, sum_sq) = idx.iter().fold((0.0, 0.0), |(s, q), &i| {
        let y = data.target(i) - target_mean;
        (s + y, q + y * y)
    });
    let sd_total = sd_from_sums(sum, sum_sq, n as f64);
    if sd_total <= 0.0 {
        return None;
    }

    let ctx = ScanContext {
        data,
        min_instances,
        target_mean,
        sum,
        sum_sq,
        sd_total,
    };
    let attrs: Vec<usize> = (0..data.n_attrs()).collect();
    // A scan cannot fail, so a worker panic is a defect: re-raise it with
    // the error's text (a CV fold around this search reports it as its
    // own `WorkerPanic`).
    let per_attr = try_par_map(par, &attrs, |&attr| {
        best_split_for_attr(&ctx, attr, orders[attr])
    })
    .unwrap_or_else(|e| panic!("{e}"));

    mtperf_obs::add("mtree.split_searches", 1);
    mtperf_obs::add(
        "mtree.split_candidates",
        per_attr.iter().map(|(_, e)| e).sum(),
    );

    // Ascending-attribute reduce with strict `>`: lowest attr index wins ties.
    let mut best: Option<Split> = None;
    for (candidate, _) in per_attr {
        let Some(candidate) = candidate else { continue };
        if candidate.sdr > best.map_or(0.0, |b| b.sdr) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // Perfect step on x at 2.5; y independent of z.
        let rows: Vec<[f64; 2]> = (0..6).map(|i| [i as f64, (i % 2) as f64]).collect();
        let ys = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0];
        Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn finds_the_step() {
        let d = step_data();
        let idx: Vec<usize> = (0..6).collect();
        let s = best_split(&d, &idx, 1).unwrap();
        assert_eq!(s.attr, 0);
        assert!((s.threshold - 2.5).abs() < 1e-12);
        // SDR of a perfect split equals sd(total): both sides become
        // zero-variance.
        let sd_total = mtperf_linalg::stats::std_dev(&ys());
        assert!((s.sdr - sd_total).abs() < 1e-9);

        fn ys() -> Vec<f64> {
            vec![1.0, 1.0, 1.0, 9.0, 9.0, 9.0]
        }
    }

    #[test]
    fn respects_min_instances() {
        let d = step_data();
        let idx: Vec<usize> = (0..6).collect();
        // min 3 allows only the 3|3 boundary.
        let s = best_split(&d, &idx, 3).unwrap();
        assert!((s.threshold - 2.5).abs() < 1e-12);
        // min 4 admits nothing.
        assert!(best_split(&d, &idx, 4).is_none());
    }

    #[test]
    fn constant_target_has_no_split() {
        let rows: Vec<[f64; 1]> = (0..4).map(|i| [i as f64]).collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[5.0; 4]).unwrap();
        assert!(best_split(&d, &(0..4).collect::<Vec<_>>(), 1).is_none());
    }

    #[test]
    fn constant_attribute_has_no_split() {
        let rows = [[1.0], [1.0], [1.0], [1.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(best_split(&d, &(0..4).collect::<Vec<_>>(), 1).is_none());
    }

    #[test]
    fn threshold_is_midpoint_of_distinct_values() {
        let rows = [[0.0], [0.0], [4.0], [4.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 8.0, 8.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!((s.threshold - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_values_never_split_apart() {
        // All x equal except one; boundary must fall between distinct values.
        let rows = [[1.0], [1.0], [1.0], [2.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 0.0, 10.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!((s.threshold - 1.5).abs() < 1e-12);
    }

    #[test]
    fn picks_most_discriminative_attribute() {
        // x separates targets perfectly; z only partially.
        let rows = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]];
        let d = Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &[0.0, 0.0, 10.0, 10.0])
            .unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert_eq!(s.attr, 0);
    }

    #[test]
    fn works_on_subsets() {
        let d = step_data();
        // Subset covering only the low half: constant target, no split.
        assert!(best_split(&d, &[0, 1, 2], 1).is_none());
    }

    #[test]
    fn too_few_instances() {
        let d = step_data();
        assert!(best_split(&d, &[0], 1).is_none());
        assert!(best_split(&d, &[0, 5], 2).is_none());
    }

    /// Regression: with adjacent floats, `(v + v_next) / 2` rounds up to
    /// exactly `v_next`, so a threshold of `v_next` with the `<=` partition
    /// rule would put BOTH values on the left — the split would not separate
    /// the pair the SDR bookkeeping assumed it did.
    #[test]
    fn threshold_between_adjacent_floats_separates_them() {
        let v = f64::from_bits(1.0f64.to_bits() + 1);
        let v_next = f64::from_bits(1.0f64.to_bits() + 2);
        // Midpoint of this pair rounds to v_next under ties-to-even.
        assert_eq!((v + v_next) / 2.0, v_next);

        let rows = [[v], [v], [v_next], [v_next]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 8.0, 8.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!(
            s.threshold >= v && s.threshold < v_next,
            "threshold {} outside [v, v_next)",
            s.threshold
        );
        let col = d.column(0);
        let left = (0..4).filter(|&i| col[i] <= s.threshold).count();
        assert_eq!(left, 2, "split must separate the adjacent pair");
    }

    /// Regression: raw-sum variance suffers catastrophic cancellation when
    /// targets sit far from zero. Shifting targets by a huge constant leaves
    /// every SDR comparison intact, so the chosen split must not move.
    #[test]
    fn split_is_invariant_under_large_target_offsets() {
        let rows: Vec<[f64; 2]> = (0..12).map(|i| [i as f64, ((i * 7) % 5) as f64]).collect();
        let ys: Vec<f64> = (0..12)
            .map(|i| {
                if i < 5 {
                    1.0 + 0.001 * i as f64
                } else {
                    2.0 - 0.001 * i as f64
                }
            })
            .collect();
        let base = Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &ys).unwrap();
        let s0 = best_split(&base, &(0..12).collect::<Vec<_>>(), 2).unwrap();

        for offset in [1e9, -1e9, 1e12] {
            let shifted_ys: Vec<f64> = ys.iter().map(|y| y + offset).collect();
            let shifted =
                Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &shifted_ys).unwrap();
            let s = best_split(&shifted, &(0..12).collect::<Vec<_>>(), 2)
                .unwrap_or_else(|| panic!("offset {offset}: no split found"));
            assert_eq!(s.attr, s0.attr, "offset {offset}");
            assert_eq!(s.threshold, s0.threshold, "offset {offset}");
        }
    }

    /// The parallel attribute scan is bit-identical to the serial one at any
    /// thread count, including the tie-break toward the lowest attribute
    /// index (both attributes below carry an identical copy of x).
    #[test]
    fn parallel_scan_matches_serial_bit_for_bit() {
        let rows: Vec<[f64; 3]> = (0..40)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 10.0;
                // b is near-constant jitter: never the best split.
                [x, x, (i as f64 * 0.11).cos() * 1e-3]
            })
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] <= 0.0 {
                    1.0 + 0.05 * r[0]
                } else {
                    5.0 - 0.03 * r[0]
                }
            })
            .collect();
        let d = Dataset::from_rows(vec!["a".into(), "a2".into(), "b".into()], &rows, &ys).unwrap();
        let idx: Vec<usize> = (0..40).collect();
        let serial = best_split(&d, &idx, 2);
        for threads in [1, 2, 3, 8] {
            let parallel = best_split_with(&d, &idx, 2, Parallelism::Fixed(threads));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        // The duplicated column forces an exact SDR tie; attr 0 must win.
        assert_eq!(serial.unwrap().attr, 0);
    }

    /// The result must not depend on the caller's index order (the scan
    /// sorts canonically by value, then instance index).
    #[test]
    fn index_order_does_not_change_the_split() {
        let d = step_data();
        let forward: Vec<usize> = (0..6).collect();
        let backward: Vec<usize> = (0..6).rev().collect();
        let shuffled = vec![3, 0, 5, 2, 4, 1];
        let a = best_split(&d, &forward, 1);
        assert_eq!(best_split(&d, &backward, 1), a);
        assert_eq!(best_split(&d, &shuffled, 1), a);
    }

    mod presorted {
        use super::*;
        use proptest::prelude::*;

        /// Cell values: few distinct ones, so ties are heavy, with `-0.0`
        /// beside `0.0` (equal under `<=`, ordered by `total_cmp`).
        const CELLS: [f64; 6] = [-0.0, 0.0, 1.0, -1.5, 2.0, 1e-300];
        const TARGETS: [f64; 5] = [0.0, 1.0, 1.0, 2.5, -3.0];

        /// A dataset whose column `a` is drawn from [`CELLS`] (`kinds[a] == 0`),
        /// repeats column 0's draw (`1`: duplicate columns) or is constant
        /// (`2`).
        fn dataset(n: usize, kinds: &[usize], cells: &[usize], targets: &[usize]) -> Dataset {
            let columns: Vec<Vec<f64>> = (0..kinds.len())
                .map(|a| {
                    (0..n)
                        .map(|i| match kinds[a] {
                            1 => CELLS[cells[i] % CELLS.len()],
                            2 => 1.0,
                            _ => CELLS[cells[a * n + i] % CELLS.len()],
                        })
                        .collect()
                })
                .collect();
            let targets = (0..n)
                .map(|i| TARGETS[targets[i] % TARGETS.len()])
                .collect();
            let names = (0..kinds.len()).map(|a| format!("x{a}")).collect();
            Dataset::from_columns(names, columns, targets).unwrap()
        }

        fn bits(s: Option<Split>) -> Option<(usize, u64, u64)> {
            s.map(|s| (s.attr, s.threshold.to_bits(), s.sdr.to_bits()))
        }

        /// The node at `at` with rows `rows`: every list holds a fresh sort
        /// of the rows, and scanning them finds `best_split_with`'s split.
        fn check_node(
            sorted: &SortedLists,
            d: &Dataset,
            at: usize,
            rows: &[usize],
            min_instances: usize,
            par: Parallelism,
        ) {
            for (attr, list) in sorted.lists.iter().enumerate() {
                let col = d.column(attr);
                let mut fresh: Vec<u32> = rows.iter().map(|&i| i as u32).collect();
                fresh.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b)));
                assert_eq!(&list[at..at + rows.len()], &fresh[..], "attr {attr}");
            }
            assert_eq!(
                bits(sorted.best_split(d, rows, at, min_instances, par)),
                bits(best_split_with(d, rows, min_instances, Parallelism::Off)),
                "rows {rows:?}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// After any sequence of splits, each child's partitioned lists
            /// are a fresh sort of its rows and scan to the same split.
            #[test]
            fn partitioned_lists_match_a_fresh_sort(
                n in 1usize..48,
                kinds in prop::collection::vec(0usize..3, 1..6),
                cells in prop::collection::vec(0usize..64, 288..289),
                targets in prop::collection::vec(0usize..64, 48..49),
                splits in prop::collection::vec((0usize..64, 0usize..64, 0usize..64), 0..10),
                min_instances in 1usize..4,
                threads in 1usize..4,
            ) {
                let d = dataset(n, &kinds, &cells, &targets);
                let par = Parallelism::Fixed(threads);
                let rows: Vec<usize> = (0..n).collect();
                let mut sorted = SortedLists::new(&d, &rows);
                check_node(&sorted, &d, 0, &rows, min_instances, par);
                let mut nodes = vec![(0, rows)];
                for (pick, attr, cut) in splits {
                    let (at, rows) = nodes.swap_remove(pick % nodes.len());
                    if rows.is_empty() {
                        continue;
                    }
                    // A threshold at a value the node holds, so ties sit on
                    // both sides of the cut's neighbourhood.
                    let col = d.column(attr % d.n_attrs());
                    let threshold = col[rows[cut % rows.len()]];
                    let goes_left = |i: usize| col[i] <= threshold;
                    let (left, right): (Vec<usize>, Vec<usize>) =
                        rows.iter().partition(|&&i| goes_left(i));
                    sorted.partition(at, rows.len(), goes_left);
                    let right_at = at + left.len();
                    check_node(&sorted, &d, at, &left, min_instances, par);
                    check_node(&sorted, &d, right_at, &right, min_instances, par);
                    nodes.push((at, left));
                    nodes.push((right_at, right));
                }
            }
        }
    }
}
