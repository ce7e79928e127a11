//! Compiled batch inference: a fitted tree flattened into
//! structure-of-arrays form for high-throughput scoring.
//!
//! [`ModelTree::predict`] walks boxed nodes pointer by pointer and, under
//! smoothing, allocates a fresh path vector for every row — fine for a
//! single section, wasteful for scoring thousands. [`CompiledTree`] flattens
//! the fitted tree once into flat arrays:
//!
//! * **routing** — split attribute indices, thresholds, and interleaved
//!   child offsets, one entry per interior node in preorder; children that
//!   are leaves are encoded as negative offsets (`!leaf_index`), and the
//!   split direction selects a child by index (branchless), so routing is a
//!   tight loop over flat arrays with no pointer chasing and no
//!   data-dependent branches;
//! * **models** — every node's linear model packed into a shared
//!   [`ModelTable`]: one intercept per model plus `(attribute, coefficient)`
//!   term arrays addressed by a start-offset array;
//! * **smoothing paths** — for each leaf, the precomputed bottom-up sequence
//!   of `(ancestor model, instance count below)` pairs the M5 smoothing
//!   recurrence needs, so smoothed prediction needs no path collection at
//!   all.
//!
//! # Determinism contract
//!
//! Compiled prediction replays the *exact* floating-point operation sequence
//! of the interpreted walk — same comparison direction, same term order,
//! same blend expression `(n·p + k·q) / (n + k)` — so results are
//! **bit-identical** to [`ModelTree::predict`] for every row, with smoothing
//! on or off. [`CompiledTree::predict_batch`] fans row blocks out across the
//! deterministic [`parallel`](mtperf_linalg::parallel) engine (input-order
//! results, panic-isolated workers), so batch output is bit-identical at any
//! [`Parallelism`] setting. The differential test suite
//! (`tests/compiled_diff.rs`) pins this with `to_bits()` comparisons.
//!
//! # Example
//!
//! ```
//! use mtperf_linalg::Matrix;
//! use mtperf_mtree::{Dataset, M5Params, ModelTree};
//!
//! let rows: Vec<[f64; 1]> = (0..100).map(|i| [i as f64]).collect();
//! let ys: Vec<f64> = rows
//!     .iter()
//!     .map(|r| if r[0] <= 50.0 { r[0] } else { 100.0 - r[0] })
//!     .collect();
//! let d = Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap();
//! let tree = ModelTree::fit(&d, &M5Params::default().with_min_instances(8)).unwrap();
//! let compiled = tree.compile();
//! let batch = compiled.predict_batch(&d.to_matrix());
//! for (i, p) in batch.iter().enumerate() {
//!     assert_eq!(p.to_bits(), tree.predict(&d.row(i)).to_bits());
//! }
//! ```

use mtperf_detsim::clock;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use mtperf_linalg::parallel::{self, try_par_fill, CancelToken, Parallelism};
use mtperf_linalg::{LinalgError, Matrix};

use crate::node::Node;
use crate::{LinearModel, ModelTree, MtreeError};

/// Rows per cache block and per parallel work item: a block's working set
/// (row data + prediction/scratch lanes) stays L1/L2-resident while the
/// leaf-bucketed model-major loops stream over it, and blocks are small
/// enough to load-balance a 10 k-row batch across pool workers.
const ROW_BLOCK: usize = 512;

/// Reused per-thread scratch for [`CompiledTree::predict_block_into`]: the
/// leaf-routing/bucketing index arrays and the smoothing accumulator lane.
/// Kept in a thread-local so steady-state batch prediction performs zero
/// heap allocation per block — the buffers grow to the high-water mark of
/// `(n_rows_per_block, n_leaves)` once and are reused by every later block
/// (and every later batch) on that thread, pool workers included.
#[derive(Default)]
struct Scratch {
    /// `2 * n` lanes: rows' leaf ids, then row indices grouped by leaf.
    index: Vec<u32>,
    /// Rows per leaf (counting-sort histogram), `n_leaves` wide.
    counts: Vec<u32>,
    /// Bucket offsets (exclusive prefix sum), `n_leaves + 1` wide.
    starts: Vec<u32>,
    /// Scatter cursors, initialized from `starts`.
    next: Vec<u32>,
    /// Smoothing accumulator lane (`q` in the recurrence), `n` wide.
    q: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Renders a caught panic payload the way the parallel engine does, so the
/// single-row fast path reports the same [`LinalgError::WorkerPanic`]
/// message a pooled worker would have.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// All linear models of a compiled artifact, packed into shared
/// structure-of-arrays storage.
///
/// Model `m` is `intercept[m] + Σ term_coef[t] · row[term_attr[t]]` for
/// `t` in `term_start[m] .. term_start[m + 1]`, accumulated in term order —
/// the same left-to-right sum [`LinearModel::predict`] computes.
#[derive(Debug, Clone, PartialEq)]
struct ModelTable {
    intercept: Vec<f64>,
    /// `len() == n_models + 1`; model `m` owns terms
    /// `term_start[m]..term_start[m + 1]`.
    term_start: Vec<u32>,
    term_attr: Vec<u32>,
    term_coef: Vec<f64>,
}

impl ModelTable {
    fn new() -> Self {
        ModelTable {
            intercept: Vec::new(),
            term_start: vec![0],
            term_attr: Vec::new(),
            term_coef: Vec::new(),
        }
    }

    /// Packs `model`, returning its index.
    fn push(&mut self, model: &LinearModel) -> u32 {
        let idx = self.intercept.len() as u32;
        self.intercept.push(model.intercept());
        for &(attr, coef) in model.terms() {
            self.term_attr.push(attr as u32);
            self.term_coef.push(coef);
        }
        self.term_start.push(self.term_attr.len() as u32);
        idx
    }

    /// Evaluates model `m` on `row`, replaying [`LinearModel::predict`]'s
    /// operation order exactly (accumulate terms from 0.0, then add the
    /// intercept). Slice-based iteration keeps the term loop free of
    /// per-element bounds checks.
    #[inline]
    fn eval(&self, m: usize, row: &[f64]) -> f64 {
        let start = self.term_start[m] as usize;
        let end = self.term_start[m + 1] as usize;
        let attrs = &self.term_attr[start..end];
        let coefs = &self.term_coef[start..end];
        let mut acc = 0.0;
        for (&a, &c) in attrs.iter().zip(coefs) {
            acc += c * row[a as usize];
        }
        self.intercept[m] + acc
    }

    /// Row-quad-major accumulation: adds model `m`'s terms, in term order,
    /// to `acc[r]` for every row index in `idx` (`acc` starts at 0.0, the
    /// intercept is applied by the caller — the per-row operation sequence
    /// is exactly [`ModelTable::eval`]'s).
    ///
    /// The quad iteration is hoisted to the outer loop (the previous
    /// term-major form re-walked the whole index slice once per term via a
    /// cloned chunk iterator, touching every `acc[r]` cache line `n_terms`
    /// times). Each quad loads its four accumulators into locals once, runs
    /// all terms with the attribute/coefficient pair hoisted per iteration,
    /// and stores the four sums back once. The four chains are independent,
    /// so the pipeliner can overlap their gathers without vectorizing —
    /// this shape no longer depends on the autovectorizer firing at all.
    ///
    /// Bit-identity: every row is owned by exactly one model, and its local
    /// accumulator receives exactly the same `+= c * data[...]` sequence in
    /// the same term order as the scalar walk — only the interleaving
    /// *across* rows changes, which cannot affect any row's bit pattern.
    fn accumulate(&self, m: usize, data: &[f64], cols: usize, idx: &[u32], acc: &mut [f64]) {
        let start = self.term_start[m] as usize;
        let end = self.term_start[m + 1] as usize;
        let attrs = &self.term_attr[start..end];
        let coefs = &self.term_coef[start..end];
        let quads = idx.chunks_exact(4);
        let tail = quads.remainder();
        for quad in quads {
            let [r0, r1, r2, r3] = [
                quad[0] as usize,
                quad[1] as usize,
                quad[2] as usize,
                quad[3] as usize,
            ];
            let (b0, b1, b2, b3) = (r0 * cols, r1 * cols, r2 * cols, r3 * cols);
            let mut a0 = acc[r0];
            let mut a1 = acc[r1];
            let mut a2 = acc[r2];
            let mut a3 = acc[r3];
            for (&a, &c) in attrs.iter().zip(coefs) {
                let a = a as usize;
                a0 += c * data[b0 + a];
                a1 += c * data[b1 + a];
                a2 += c * data[b2 + a];
                a3 += c * data[b3 + a];
            }
            acc[r0] = a0;
            acc[r1] = a1;
            acc[r2] = a2;
            acc[r3] = a3;
        }
        for &r in tail {
            let r = r as usize;
            let base = r * cols;
            let mut sum = acc[r];
            for (&a, &c) in attrs.iter().zip(coefs) {
                sum += c * data[base + a as usize];
            }
            acc[r] = sum;
        }
    }

    /// Fused single-pass form of [`ModelTable::accumulate`] + intercept for
    /// models with at most two terms (the common case after M5' attribute
    /// elimination): writes the finished prediction straight into `out[r]`
    /// and returns `true`, or returns `false` for the caller to take the
    /// general multi-pass path. The explicit `0.0 +` seeds reproduce the
    /// scalar accumulator exactly (they differ from a bare term only on a
    /// `-0.0` product, which must round to `+0.0` here too).
    fn eval_small(
        &self,
        m: usize,
        data: &[f64],
        cols: usize,
        idx: &[u32],
        out: &mut [f64],
    ) -> bool {
        let start = self.term_start[m] as usize;
        let end = self.term_start[m + 1] as usize;
        let i = self.intercept[m];
        // Same 4-wide row chunking as `accumulate`: chunks write disjoint
        // rows with the identical per-row expression, so the unrolling is
        // invisible to the bit pattern.
        let quads = idx.chunks_exact(4);
        let tail = quads.remainder();
        match end - start {
            0 => {
                for quad in quads {
                    out[quad[0] as usize] = i + 0.0;
                    out[quad[1] as usize] = i + 0.0;
                    out[quad[2] as usize] = i + 0.0;
                    out[quad[3] as usize] = i + 0.0;
                }
                for &r in tail {
                    out[r as usize] = i + 0.0;
                }
                true
            }
            1 => {
                let a = self.term_attr[start] as usize;
                let c = self.term_coef[start];
                let one = |r: usize| i + (0.0 + c * data[r * cols + a]);
                for quad in quads {
                    out[quad[0] as usize] = one(quad[0] as usize);
                    out[quad[1] as usize] = one(quad[1] as usize);
                    out[quad[2] as usize] = one(quad[2] as usize);
                    out[quad[3] as usize] = one(quad[3] as usize);
                }
                for &r in tail {
                    out[r as usize] = one(r as usize);
                }
                true
            }
            2 => {
                let a0 = self.term_attr[start] as usize;
                let c0 = self.term_coef[start];
                let a1 = self.term_attr[start + 1] as usize;
                let c1 = self.term_coef[start + 1];
                let two = |r: usize| {
                    let base = r * cols;
                    i + ((0.0 + c0 * data[base + a0]) + c1 * data[base + a1])
                };
                for quad in quads {
                    out[quad[0] as usize] = two(quad[0] as usize);
                    out[quad[1] as usize] = two(quad[1] as usize);
                    out[quad[2] as usize] = two(quad[2] as usize);
                    out[quad[3] as usize] = two(quad[3] as usize);
                }
                for &r in tail {
                    out[r as usize] = two(r as usize);
                }
                true
            }
            _ => false,
        }
    }

    fn n_models(&self) -> usize {
        self.intercept.len()
    }
}

/// Encodes a leaf index as a negative child offset.
#[inline]
fn encode_leaf(leaf: usize) -> i32 {
    !(leaf as i32)
}

/// Lazily measured per-row cost of the blocked serial path, in nanoseconds —
/// the "measured, not guessed" half of the serial/parallel cutover (the
/// other half is [`parallel::dispatch_overhead`]). One cell per compiled
/// artifact, filled by timing the first real block the artifact predicts
/// under [`Parallelism::Auto`].
///
/// Calibration state is deliberately excluded from identity: cloning caries
/// the measurement along (same tree ⇒ same cost), and two otherwise-equal
/// artifacts compare equal whether or not either has calibrated.
#[derive(Debug, Default)]
struct CutoverCell(OnceLock<f64>);

impl Clone for CutoverCell {
    fn clone(&self) -> Self {
        let cell = CutoverCell(OnceLock::new());
        if let Some(&v) = self.0.get() {
            let _ = cell.0.set(v);
        }
        cell
    }
}

impl PartialEq for CutoverCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A [`ModelTree`] flattened for batch inference. Built by
/// [`ModelTree::compile`]; see the [module docs](self) for the layout and
/// the bit-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    n_attrs: usize,
    n_leaves: usize,
    smoothing: bool,
    smoothing_k: f64,
    /// Root reference: interior node index, or `!leaf` for a lone-leaf tree.
    root: i32,
    /// Interior nodes, preorder. Children are stored interleaved —
    /// `children[2 * i]` is node `i`'s left child, `children[2 * i + 1]`
    /// its right — so routing selects by index instead of by branch (the
    /// 50/50 data-dependent split direction is unpredictable; a mispredict
    /// per level would dominate the per-row cost). Negative children are
    /// `!leaf_index`.
    split_attr: Vec<u32>,
    threshold: Vec<f64>,
    children: Vec<i32>,
    models: ModelTable,
    /// Model index of each leaf (leaves numbered left to right from 0).
    leaf_model: Vec<u32>,
    /// `len() == n_leaves + 1`; leaf `l` owns smoothing-path entries
    /// `path_start[l]..path_start[l + 1]` of the two arrays below.
    path_start: Vec<u32>,
    /// Ancestor model index, bottom-up (parent of the leaf first).
    path_model: Vec<u32>,
    /// Instance count `n` of the node *below* each ancestor, as f64.
    path_n: Vec<f64>,
    /// Measured per-row cost for the adaptive serial/parallel cutover.
    per_row_ns: CutoverCell,
}

impl CompiledTree {
    fn from_tree(tree: &ModelTree) -> CompiledTree {
        let mut c = CompiledTree {
            n_attrs: tree.attr_names().len(),
            n_leaves: 0,
            smoothing: tree.params().smoothing(),
            smoothing_k: tree.params().smoothing_k(),
            root: 0,
            split_attr: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            models: ModelTable::new(),
            leaf_model: Vec::new(),
            path_start: vec![0],
            path_model: Vec::new(),
            path_n: Vec::new(),
            per_row_ns: CutoverCell::default(),
        };
        let mut ancestors: Vec<(u32, f64)> = Vec::new();
        c.root = c.flatten(tree.root(), &mut ancestors);
        c.n_leaves = c.leaf_model.len();
        c
    }

    /// Flattens `node`, returning its routing reference (interior index or
    /// encoded leaf). `ancestors` carries the `(model, n)` of every node on
    /// the path above, root first.
    fn flatten(&mut self, node: &Node, ancestors: &mut Vec<(u32, f64)>) -> i32 {
        match node {
            Node::Leaf { model, n, .. } => {
                let model_idx = self.models.push(model);
                let leaf = self.leaf_model.len();
                self.leaf_model.push(model_idx);
                // The smoothing recurrence walks bottom-up; `n` is the count
                // of the node *below* each ancestor (the leaf itself first).
                for i in (0..ancestors.len()).rev() {
                    self.path_model.push(ancestors[i].0);
                    self.path_n.push(if i + 1 == ancestors.len() {
                        *n as f64
                    } else {
                        ancestors[i + 1].1
                    });
                }
                self.path_start.push(self.path_model.len() as u32);
                encode_leaf(leaf)
            }
            Node::Split {
                attr,
                threshold,
                model,
                n,
                left,
                right,
                ..
            } => {
                let model_idx = self.models.push(model);
                let idx = self.split_attr.len();
                self.split_attr.push(*attr as u32);
                self.threshold.push(*threshold);
                self.children.push(0);
                self.children.push(0);
                ancestors.push((model_idx, *n as f64));
                let l = self.flatten(left, ancestors);
                let r = self.flatten(right, ancestors);
                ancestors.pop();
                self.children[2 * idx] = l;
                self.children[2 * idx + 1] = r;
                idx as i32
            }
        }
    }

    /// Attribute count the tree was trained with (rows must be at least
    /// this long).
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Number of leaves (performance classes).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Number of interior routing nodes.
    pub fn n_splits(&self) -> usize {
        self.split_attr.len()
    }

    /// Total packed models (one per node of the source tree).
    pub fn n_models(&self) -> usize {
        self.models.n_models()
    }

    /// Whether predictions are smoothed along the root path.
    pub fn smoothing(&self) -> bool {
        self.smoothing
    }

    /// Routes `row` to its leaf index (left-to-right, 0-based).
    #[inline]
    fn route(&self, row: &[f64]) -> usize {
        let mut node = self.root;
        while node >= 0 {
            let i = node as usize;
            // Branchless child select: `<=` goes left, everything else —
            // including NaN — goes right, exactly like the interpreted walk.
            let goes_left = (row[self.split_attr[i] as usize] <= self.threshold[i]) as usize;
            node = self.children[2 * i + 1 - goes_left];
        }
        !node as usize
    }

    #[inline]
    fn predict_leaf(&self, leaf: usize, row: &[f64]) -> f64 {
        let mut p = self.models.eval(self.leaf_model[leaf] as usize, row);
        if self.smoothing {
            let k = self.smoothing_k;
            let start = self.path_start[leaf] as usize;
            let end = self.path_start[leaf + 1] as usize;
            let models = &self.path_model[start..end];
            let below = &self.path_n[start..end];
            for (&m, &n) in models.iter().zip(below) {
                let q = self.models.eval(m as usize, row);
                p = (n * p + k * q) / (n + k);
            }
        }
        p
    }

    /// Predicts one row — bit-identical to [`ModelTree::predict`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the attribute count, like the
    /// interpreted walk.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert!(
            row.len() >= self.n_attrs,
            "row has {} values, tree expects {}",
            row.len(),
            self.n_attrs
        );
        self.predict_leaf(self.route(row), row)
    }

    /// Predicts every row of `rows` with the process-wide default thread
    /// budget ([`parallel::global`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows` has fewer columns than the attribute count, or if a
    /// worker panics (see [`CompiledTree::try_predict_batch_with`] for the
    /// error-returning form).
    pub fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        self.predict_batch_with(rows, parallel::global())
    }

    /// [`CompiledTree::predict_batch`] with an explicit thread budget.
    /// Output is bit-identical at any setting.
    ///
    /// # Panics
    ///
    /// Same as [`CompiledTree::predict_batch`].
    pub fn predict_batch_with(&self, rows: &Matrix, par: Parallelism) -> Vec<f64> {
        self.try_predict_batch_with(rows, par)
            .unwrap_or_else(|e| panic!("batch prediction failed: {e}"))
    }

    /// Panic-isolated batch prediction: row blocks fan out through
    /// [`try_par_map`], results return in input order, and a panicking
    /// worker surfaces as [`MtreeError::Linalg`] (worker panic) instead of
    /// unwinding.
    ///
    /// # Errors
    ///
    /// Returns [`MtreeError::RowLengthMismatch`] when `rows` is narrower
    /// than the attribute count, and the structured worker-panic error on
    /// internal failure.
    pub fn try_predict_batch_with(
        &self,
        rows: &Matrix,
        par: Parallelism,
    ) -> Result<Vec<f64>, MtreeError> {
        self.batch_core(rows, par, None)
    }

    /// [`CompiledTree::try_predict_batch_with`] under a cooperative
    /// [`CancelToken`]: the token (an explicit cancel or an expired
    /// deadline) is consulted before every row block on every worker, so a
    /// fired token stops the batch within one block's worth of work per
    /// thread. This is how a serving deadline bounds a single request's
    /// compute.
    ///
    /// # Errors
    ///
    /// Returns [`MtreeError::Cancelled`] when the token fires mid-batch (all
    /// partial results discarded), plus every error of
    /// [`CompiledTree::try_predict_batch_with`].
    pub fn try_predict_batch_cancel(
        &self,
        rows: &Matrix,
        par: Parallelism,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, MtreeError> {
        self.batch_core(rows, par, Some(cancel))
    }

    fn batch_core(
        &self,
        rows: &Matrix,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<f64>, MtreeError> {
        if rows.cols() < self.n_attrs {
            return Err(MtreeError::RowLengthMismatch {
                expected: self.n_attrs,
                found: rows.cols(),
            });
        }
        let n = rows.rows();
        let cols = rows.cols();
        let data = rows.as_slice();
        // Zero- and single-row batches return without touching the pool,
        // the batch span, or the leaf-bucket counters — a "bucketing" of
        // one row is pure noise in the occupancy ratio. The error ladder
        // is unchanged: an empty batch succeeds even under a fired token,
        // a fired token beats a single row's work, and a panic in that
        // row's models surfaces as the same `WorkerPanic { index: 0 }` a
        // pooled worker would report.
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(MtreeError::Cancelled);
            }
            let row = &data[..cols];
            return catch_unwind(AssertUnwindSafe(|| self.predict_leaf(self.route(row), row)))
                .map(|p| vec![p])
                .map_err(|payload| {
                    MtreeError::from(LinalgError::WorkerPanic {
                        index: 0,
                        message: panic_message(payload.as_ref()),
                    })
                });
        }
        let par = self.effective_parallelism(par, n, data, cols);
        let mut batch_span = mtperf_obs::span("predict_batch");
        batch_span.annotate_num("rows", n as f64);
        batch_span.annotate_num("blocks", n.div_ceil(ROW_BLOCK) as f64);
        let t0 = batch_span.is_recording().then(clock::now);
        // Blocks are written in place: each worker fills its slice of the
        // output directly, so there is no per-block `Vec` and no final
        // flatten copy over the whole batch.
        let mut out = vec![0.0f64; n];
        try_par_fill(par, &mut out, ROW_BLOCK, cancel, |start, block_out| {
            let rows_here = block_out.len();
            let mut block_span = mtperf_obs::span_idx("predict_block", start / ROW_BLOCK);
            block_span.add("rows", rows_here as u64);
            SCRATCH.with(|s| {
                self.predict_block_into(
                    &data[start * cols..(start + rows_here) * cols],
                    cols,
                    block_out,
                    &mut s.borrow_mut(),
                );
            });
        })
        .map_err(MtreeError::from)?;
        if let Some(t0) = t0 {
            let secs = clock::now().saturating_sub(t0).as_secs_f64();
            if secs > 0.0 {
                mtperf_obs::gauge("predict.rows_per_sec", n as f64 / secs);
            }
        }
        Ok(out)
    }

    /// Resolves the caller's thread request for one batch. Only
    /// [`Parallelism::Auto`] is adaptive: explicit `Off` / `Fixed` are
    /// honored verbatim (the differential suite relies on `Fixed(n)`
    /// actually exercising the pool, and benchmarks need raw per-thread
    /// numbers). Under `Auto` with more than one thread available, batches
    /// below the measured cutover run serially — dispatch overhead would
    /// outweigh the parallel win. Output is bit-identical either way.
    fn effective_parallelism(
        &self,
        par: Parallelism,
        n: usize,
        data: &[f64],
        cols: usize,
    ) -> Parallelism {
        if !matches!(par, Parallelism::Auto) {
            return par;
        }
        let threads = par.threads();
        if threads <= 1 {
            return par; // resolves to serial anyway
        }
        if n < self.cutover_rows(threads, self.calibrate(data, cols)) {
            Parallelism::Off
        } else {
            par
        }
    }

    /// Measured per-row nanoseconds of the serial blocked path: times the
    /// first `min(n, ROW_BLOCK)` rows of the actual batch into a throwaway
    /// buffer, once per artifact. The duplicated work is one block
    /// (microseconds); it also contributes one block's worth of
    /// `predict.leaf_buckets_*` counts, which is honest — those rows were
    /// bucketed.
    fn calibrate(&self, data: &[f64], cols: usize) -> f64 {
        *self.per_row_ns.0.get_or_init(|| {
            let rows = (data.len() / cols).clamp(1, ROW_BLOCK);
            let mut out = vec![0.0f64; rows];
            let t = clock::now();
            SCRATCH.with(|s| {
                self.predict_block_into(&data[..rows * cols], cols, &mut out, &mut s.borrow_mut());
            });
            // Floor at 0.1 ns/row: below that the measurement is timer
            // noise and the cutover division would explode. (Under a
            // virtual clock the elapsed time is zero, so the floor is also
            // what makes simulated calibration deterministic.)
            (clock::now().saturating_sub(t).as_nanos() as f64 / rows as f64).max(0.1)
        })
    }

    /// Batch size above which parallel dispatch wins for `threads` workers.
    /// Parallel saves `n · per_row · (1 − 1/t)` of wall time but pays the
    /// pool's dispatch latency; the break-even with a 2× safety margin is
    /// `n* = 2 · overhead · t / (per_row · (t − 1))`, clamped to at least
    /// two blocks (below that there is nothing to share) and a sane upper
    /// bound so a mis-measured overhead can never pin huge batches serial.
    fn cutover_rows(&self, threads: usize, per_row_ns: f64) -> usize {
        let overhead_ns = parallel::dispatch_overhead().as_nanos() as f64;
        let t = threads as f64;
        let n = 2.0 * overhead_ns * t / (per_row_ns * (t - 1.0));
        (n as usize).clamp(2 * ROW_BLOCK, 4 << 20)
    }

    /// The measured serial/parallel cutover in rows for the process-wide
    /// thread budget: batches at least this large go parallel under
    /// [`Parallelism::Auto`]. `None` until some batch has calibrated the
    /// per-row cost, or when only one thread is available (everything runs
    /// serially; there is no cutover to report).
    pub fn parallel_cutover(&self) -> Option<usize> {
        let threads = parallel::global().threads();
        if threads <= 1 {
            return None;
        }
        let per_row = *self.per_row_ns.0.get()?;
        Some(self.cutover_rows(threads, per_row))
    }

    /// Leaf-grouped evaluation of one row block, written into `out`.
    ///
    /// Routes every row, buckets the row indices by leaf (counting sort),
    /// then evaluates model-major: each leaf's model — and, when smoothing,
    /// each ancestor model on its path — runs over all of that leaf's rows
    /// at once via [`ModelTable::accumulate`]. Every row still sees the
    /// exact operation sequence of the scalar walk (terms in order, then
    /// `intercept + acc`, then the bottom-up smoothing blend), so results
    /// are bit-identical; only the schedule changes, turning data-dependent
    /// chained loads and an unpredictable per-row branch pattern into
    /// independent streaming multiply-adds.
    ///
    /// `out` doubles as the `p` accumulator lane and must arrive zeroed
    /// (every caller hands a slice of a fresh `vec![0.0; _]`); all index
    /// and smoothing buffers come from `s` and allocate nothing once warm.
    fn predict_block_into(&self, data: &[f64], cols: usize, out: &mut [f64], s: &mut Scratch) {
        let n = data.len() / cols;
        debug_assert_eq!(out.len(), n);
        s.index.clear();
        s.index.resize(2 * n, 0);
        let (leaf_of, grouped) = s.index.split_at_mut(n);
        s.counts.clear();
        s.counts.resize(self.n_leaves, 0);
        for (r, leaf) in leaf_of.iter_mut().enumerate() {
            let l = self.route(&data[r * cols..(r + 1) * cols]);
            *leaf = l as u32;
            s.counts[l] += 1;
        }
        if mtperf_obs::is_enabled() {
            // Leaf-bucket occupancy: how many of the tree's leaves this block
            // actually touched. High counts mean scattered routing (poor
            // model-major locality); the ratio to `n_leaves` is the fill rate.
            let hit = s.counts.iter().filter(|&&c| c > 0).count() as u64;
            mtperf_obs::add("predict.leaf_buckets_hit", hit);
            mtperf_obs::add("predict.leaf_buckets_total", self.n_leaves as u64);
        }
        // Prefix-sum the counts into bucket offsets, then scatter the row
        // indices grouped by leaf (stable: ascending row order per leaf).
        s.starts.clear();
        s.starts.resize(self.n_leaves + 1, 0);
        for l in 0..self.n_leaves {
            s.starts[l + 1] = s.starts[l] + s.counts[l];
        }
        s.next.clear();
        s.next.extend_from_slice(&s.starts);
        for (r, &l) in leaf_of.iter().enumerate() {
            let slot = &mut s.next[l as usize];
            grouped[*slot as usize] = r as u32;
            *slot += 1;
        }

        // Smoothing walks each leaf's path bottom-up, so the *root* blend is
        // the final operation for every row and uses the same model for
        // every leaf. That last step is hoisted out of the per-bucket loop
        // below into one sequential pass over the whole block (`q` streams
        // through the rows in storage order with no index indirection).
        let blend_root = self.smoothing && !self.split_attr.is_empty();
        let p: &mut [f64] = out;
        if self.smoothing {
            s.q.clear();
            s.q.resize(n, 0.0);
        }
        let q = &mut s.q;
        let k = self.smoothing_k;
        for leaf in 0..self.n_leaves {
            let idx = &grouped[s.starts[leaf] as usize..s.starts[leaf + 1] as usize];
            if idx.is_empty() {
                continue;
            }
            let m = self.leaf_model[leaf] as usize;
            if !self.models.eval_small(m, data, cols, idx, p) {
                self.models.accumulate(m, data, cols, idx, p);
                let intercept = self.models.intercept[m];
                for &r in idx {
                    let finished = intercept + p[r as usize];
                    p[r as usize] = finished;
                }
            }
            if self.smoothing {
                let mut path = self.path_start[leaf] as usize..self.path_start[leaf + 1] as usize;
                if blend_root {
                    path.end -= 1; // the shared root entry runs in the global pass
                }
                for t in path {
                    let am = self.path_model[t] as usize;
                    let an = self.path_n[t];
                    self.models.accumulate(am, data, cols, idx, q);
                    let a_intercept = self.models.intercept[am];
                    for &r in idx {
                        let r = r as usize;
                        let qv = a_intercept + q[r];
                        p[r] = (an * p[r] + k * qv) / (an + k);
                        q[r] = 0.0;
                    }
                }
            }
        }
        if blend_root {
            // Global root blend: accumulate the root model's terms for every
            // row in storage order (sequential streaming loads the optimizer
            // can pipeline), then apply the final recurrence step. The root
            // entry is the last of every leaf's path; its per-row `n` is the
            // instance count of the root child on that row's side.
            let root_m = self.path_model[self.path_start[1] as usize - 1] as usize;
            let t0 = self.models.term_start[root_m] as usize;
            let t1 = self.models.term_start[root_m + 1] as usize;
            // All terms but the last stream into `q`; the last term (when
            // there is one) fuses into the blend pass below, finishing the
            // accumulator in the scalar walk's exact order.
            for t in t0..t1.max(t0 + 1) - 1 {
                let a = self.models.term_attr[t] as usize;
                let c = self.models.term_coef[t];
                for (qr, row) in q.iter_mut().zip(data.chunks_exact(cols)) {
                    *qr += c * row[a];
                }
            }
            let root_intercept = self.models.intercept[root_m];
            let last = (t1 > t0).then(|| {
                (
                    self.models.term_attr[t1 - 1] as usize,
                    self.models.term_coef[t1 - 1],
                )
            });
            for r in 0..n {
                let l = leaf_of[r] as usize;
                let an = self.path_n[self.path_start[l + 1] as usize - 1];
                let acc = match last {
                    Some((a, c)) => q[r] + c * data[r * cols + a],
                    None => q[r],
                };
                let qv = root_intercept + acc;
                p[r] = (an * p[r] + k * qv) / (an + k);
            }
        }
    }
}

impl ModelTree {
    /// Flattens the fitted tree into the compiled batch-inference form.
    /// Predictions are bit-identical to [`ModelTree::predict`]; see the
    /// [`compiled`](self) module docs.
    pub fn compile(&self) -> CompiledTree {
        CompiledTree::from_tree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, M5Params};

    fn piecewise(n: i64) -> Dataset {
        let rows: Vec<[f64; 3]> = (0..n)
            .map(|i| [(i % 37) as f64, (i % 11) as f64, (i % 5) as f64])
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] <= 18.0 {
                    1.0 + 0.4 * r[1] - 0.1 * r[2]
                } else {
                    9.0 - 0.2 * r[0] + 0.3 * r[2]
                }
            })
            .collect();
        Dataset::from_rows(vec!["a".into(), "b".into(), "c".into()], &rows, &ys).unwrap()
    }

    fn fit(data: &Dataset, smoothing: bool) -> ModelTree {
        ModelTree::fit(
            data,
            &M5Params::default()
                .with_min_instances(12)
                .with_smoothing(smoothing),
        )
        .unwrap()
    }

    #[test]
    fn layout_counts_match_tree() {
        let d = piecewise(300);
        let tree = fit(&d, true);
        let c = tree.compile();
        assert_eq!(c.n_leaves(), tree.n_leaves());
        assert_eq!(c.n_splits(), tree.n_leaves() - 1);
        assert_eq!(c.n_models(), 2 * tree.n_leaves() - 1);
        assert_eq!(c.n_attrs(), 3);
        assert!(c.smoothing());
    }

    #[test]
    fn single_row_predictions_are_bit_identical() {
        let d = piecewise(300);
        for smoothing in [false, true] {
            let tree = fit(&d, smoothing);
            let c = tree.compile();
            for i in 0..d.n_rows() {
                let row = d.row(i);
                assert_eq!(
                    c.predict(&row).to_bits(),
                    tree.predict(&row).to_bits(),
                    "row {i}, smoothing {smoothing}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_serial_at_any_parallelism() {
        let d = piecewise(400);
        let tree = fit(&d, true);
        let c = tree.compile();
        let m = d.to_matrix();
        let serial = c.predict_batch_with(&m, Parallelism::Off);
        for par in [
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(8),
        ] {
            let batch = c.predict_batch_with(&m, par);
            assert_eq!(batch.len(), serial.len());
            for (a, b) in batch.iter().zip(&serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "par {par:?}");
            }
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let d = Dataset::from_rows(vec!["x".into()], &[[1.0], [2.0]], &[3.0, 3.0]).unwrap();
        let tree = ModelTree::fit(&d, &M5Params::default()).unwrap();
        let c = tree.compile();
        assert_eq!(c.n_leaves(), 1);
        assert_eq!(c.n_splits(), 0);
        assert_eq!(
            c.predict(&[99.0]).to_bits(),
            tree.predict(&[99.0]).to_bits()
        );
        let m = d.to_matrix();
        assert_eq!(c.predict_batch(&m), vec![3.0, 3.0]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let d = piecewise(60);
        let c = fit(&d, false).compile();
        let empty = Matrix::zeros(0, 3);
        assert!(c.predict_batch(&empty).is_empty());
    }

    #[test]
    fn narrow_matrix_is_a_structured_error() {
        let d = piecewise(60);
        let c = fit(&d, false).compile();
        let narrow = Matrix::zeros(4, 2);
        match c.try_predict_batch_with(&narrow, Parallelism::Off) {
            Err(MtreeError::RowLengthMismatch { expected, found }) => {
                assert_eq!((expected, found), (3, 2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn short_row_panics_like_interpreted() {
        let d = piecewise(60);
        let c = fit(&d, false).compile();
        c.predict(&[1.0]);
    }

    #[test]
    fn cutover_shrinks_with_threads_and_stays_clamped() {
        let d = piecewise(300);
        let c = fit(&d, false).compile();
        // More threads amortize dispatch better, so the break-even batch
        // shrinks (or stays pinned at a clamp edge); both edges hold for
        // degenerate measurements.
        let two = c.cutover_rows(2, 10.0);
        let many = c.cutover_rows(16, 10.0);
        assert!(many <= two, "cutover grew with threads: {two} -> {many}");
        assert!(many >= 2 * ROW_BLOCK);
        assert_eq!(
            c.cutover_rows(2, 1e9),
            2 * ROW_BLOCK,
            "costly rows: lower clamp"
        );
        assert_eq!(c.cutover_rows(2, 1e-9), 4 << 20, "free rows: upper clamp");
        // Reporting is consistent with calibration state: `None` before
        // any Auto batch ran (or on a single-thread budget); when `Some`,
        // the value respects the clamps.
        if let Some(n) = c.parallel_cutover() {
            assert!((2 * ROW_BLOCK..=4 << 20).contains(&n));
        }
        // Cloning carries calibration without tying identity to it.
        let clone = c.clone();
        assert_eq!(clone, c);
    }
}
