//! Differential tests for the node-model fit: the one-Gram-matrix term
//! elimination and the column-reading error estimate against reference
//! versions that rebuild everything per candidate.
//!
//! The references are the straightforward forms: a fit builds its own
//! design matrix and calls `lstsq`, elimination refits every candidate that
//! way, and an error reads each instance through `predict(&data.row(i))`.
//! Every comparison is bit for bit.

use mtperf_linalg::{cholesky, lstsq, Matrix};
use mtperf_mtree::{Dataset, LinearModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A model as plain data: intercept and `(attribute, coefficient)` terms.
struct Reference {
    intercept: f64,
    terms: Vec<(usize, f64)>,
}

impl Reference {
    fn predict(&self, row: &[f64]) -> f64 {
        self.intercept + self.terms.iter().map(|&(j, c)| c * row[j]).sum::<f64>()
    }

    fn inflated_error(&self, data: &Dataset, idx: &[usize]) -> f64 {
        let n = idx.len() as f64;
        let v = (self.terms.len() + 1) as f64;
        if n <= v {
            return f64::MAX / 4.0;
        }
        mean_abs_error(data, idx, |row| self.predict(row)) * (n + v) / (n - v)
    }
}

/// The mean absolute error of `predict` over `idx`, reading each instance
/// as a materialised row.
fn mean_abs_error(data: &Dataset, idx: &[usize], predict: impl Fn(&[f64]) -> f64) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let sum: f64 = idx
        .iter()
        .map(|&i| (predict(&data.row(i)) - data.target(i)).abs())
        .sum();
    sum / idx.len() as f64
}

/// Coverage of one run of the reference fit.
#[derive(Default)]
struct Coverage {
    /// Fits whose plain Cholesky failed, so the ridge ladder ran.
    ridge: usize,
    /// Fits that dropped an attribute constant on the subset.
    constant_dropped: usize,
    /// Eliminations that removed at least one term.
    eliminated: usize,
}

/// A fresh least-squares fit: drop the attributes constant on `idx`, build
/// `[1 | live]`, and solve with `lstsq`.
fn reference_fit(data: &Dataset, idx: &[usize], attrs: &[usize], cov: &mut Coverage) -> Reference {
    let mut live: Vec<usize> = attrs
        .iter()
        .copied()
        .filter(|&j| {
            let col = data.column(j);
            idx.iter().any(|&i| col[i] != col[idx[0]])
        })
        .collect();
    live.sort_unstable();
    live.dedup();
    let mut requested = attrs.to_vec();
    requested.sort_unstable();
    requested.dedup();
    if live.len() < requested.len() {
        cov.constant_dropped += 1;
    }
    let y: Vec<f64> = idx.iter().map(|&i| data.target(i)).collect();
    if live.is_empty() {
        return Reference {
            intercept: y.iter().sum::<f64>() / y.len() as f64,
            terms: Vec::new(),
        };
    }
    let mut x = Matrix::zeros(idx.len(), live.len() + 1);
    for (r, &i) in idx.iter().enumerate() {
        x[(r, 0)] = 1.0;
        for (c, &j) in live.iter().enumerate() {
            x[(r, c + 1)] = data.value(i, j);
        }
    }
    if cholesky(&x.gram()).is_err() {
        cov.ridge += 1;
    }
    let beta = lstsq(&x, &y).expect("reference solve");
    Reference {
        intercept: beta[0],
        terms: live.into_iter().zip(beta[1..].iter().copied()).collect(),
    }
}

/// M5' term elimination with a fresh fit per candidate: drop the first
/// current term whose removal lowers the inflated error, refit, repeat.
fn reference_elimination(
    data: &Dataset,
    idx: &[usize],
    attrs: &[usize],
    cov: &mut Coverage,
) -> Reference {
    let mut best = reference_fit(data, idx, attrs, cov);
    let mut best_err = best.inflated_error(data, idx);
    let start = best.terms.len();
    loop {
        let current: Vec<usize> = best.terms.iter().map(|&(j, _)| j).collect();
        let mut improved = false;
        for drop in &current {
            let reduced: Vec<usize> = current.iter().copied().filter(|j| j != drop).collect();
            let candidate = reference_fit(data, idx, &reduced, cov);
            let err = candidate.inflated_error(data, idx);
            if err < best_err {
                best = candidate;
                best_err = err;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    if best.terms.len() < start {
        cov.eliminated += 1;
    }
    best
}

fn model_bits(m: &LinearModel) -> (u64, Vec<(usize, u64)>) {
    (
        m.intercept().to_bits(),
        m.terms().iter().map(|&(j, c)| (j, c.to_bits())).collect(),
    )
}

fn reference_bits(r: &Reference) -> (u64, Vec<(usize, u64)>) {
    (
        r.intercept.to_bits(),
        r.terms.iter().map(|&(j, c)| (j, c.to_bits())).collect(),
    )
}

/// A random dataset mixing the columns node models meet: tied and zero
/// values, exact multiples of earlier columns (singular Gram matrices),
/// sums of earlier columns, sparse events that are often constant on a
/// subset, and constant columns.
fn random_dataset(rng: &mut SmallRng) -> Dataset {
    let n = rng.gen_range(4..40);
    let n_attrs = rng.gen_range(2..7);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(n_attrs);
    for a in 0..n_attrs {
        let kind = if a == 0 { 0 } else { rng.gen_range(0..5) };
        let col: Vec<f64> = match kind {
            // Quarter steps in [-3, 3]: ties and exact zeros.
            0 => (0..n)
                .map(|_| f64::from(rng.gen_range(-12i32..=12)) * 0.25)
                .collect(),
            // An exact multiple of an earlier column.
            1 => {
                let k = rng.gen_range(0..a);
                columns[k].iter().map(|v| v * 2.0).collect()
            }
            // The sum of two earlier columns.
            2 => {
                let (k, l) = (rng.gen_range(0..a), rng.gen_range(0..a));
                columns[k]
                    .iter()
                    .zip(&columns[l])
                    .map(|(u, v)| u + v)
                    .collect()
            }
            // A sparse event: zero on most instances.
            3 => (0..n)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        rng.gen_range(0.01..1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            _ => vec![0.5; n],
        };
        columns.push(col);
    }
    let weights: Vec<f64> = (0..n_attrs)
        .map(|_| f64::from(rng.gen_range(-4i32..=4)) * 0.5)
        .collect();
    let noise = [0.0, 1e-3, 0.5][rng.gen_range(0..3)];
    let targets: Vec<f64> = (0..n)
        .map(|i| {
            let signal: f64 = (0..n_attrs).map(|a| weights[a] * columns[a][i]).sum();
            1.0 + signal + noise * rng.gen_range(-1.0..1.0)
        })
        .collect();
    let names = (0..n_attrs).map(|a| format!("x{a}")).collect();
    Dataset::from_columns(names, columns, targets).expect("finite dataset")
}

/// A random non-empty subset of the rows, ascending as a tree node's rows
/// are, or shuffled.
fn random_subset(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..4) != 0).collect();
    if idx.is_empty() {
        idx.push(rng.gen_range(0..n));
    }
    if rng.gen_range(0..4) == 0 {
        for k in (1..idx.len()).rev() {
            idx.swap(k, rng.gen_range(0..=k));
        }
    }
    idx
}

/// A random attribute list, possibly unsorted and with repeats.
fn random_attrs(rng: &mut SmallRng, n_attrs: usize) -> Vec<usize> {
    let len = rng.gen_range(0..=n_attrs + 1);
    (0..len).map(|_| rng.gen_range(0..n_attrs)).collect()
}

#[test]
fn fit_matches_a_fresh_least_squares_fit() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut cov = Coverage::default();
    for case in 0..2_000 {
        let d = random_dataset(&mut rng);
        let idx = random_subset(&mut rng, d.n_rows());
        let attrs = random_attrs(&mut rng, d.n_attrs());
        let got = LinearModel::fit(&d, &idx, &attrs).expect("fit");
        let want = reference_fit(&d, &idx, &attrs, &mut cov);
        assert_eq!(
            model_bits(&got),
            reference_bits(&want),
            "case {case}: attrs {attrs:?}, idx {idx:?}"
        );
    }
    assert!(cov.ridge >= 50, "ridge ladder ran {} times", cov.ridge);
    assert!(
        cov.constant_dropped >= 50,
        "constant columns dropped {} times",
        cov.constant_dropped
    );
}

#[test]
fn elimination_matches_refitting_every_candidate() {
    let mut rng = SmallRng::seed_from_u64(12);
    let mut cov = Coverage::default();
    for case in 0..2_000 {
        let d = random_dataset(&mut rng);
        let idx = random_subset(&mut rng, d.n_rows());
        let attrs = random_attrs(&mut rng, d.n_attrs());
        let got = LinearModel::fit_with_elimination(&d, &idx, &attrs).expect("fit");
        let want = reference_elimination(&d, &idx, &attrs, &mut cov);
        assert_eq!(
            model_bits(&got),
            reference_bits(&want),
            "case {case}: attrs {attrs:?}, idx {idx:?}"
        );
    }
    assert!(cov.ridge >= 50, "ridge ladder ran {} times", cov.ridge);
    assert!(
        cov.constant_dropped >= 50,
        "constant columns dropped {} times",
        cov.constant_dropped
    );
    assert!(
        cov.eliminated >= 50,
        "elimination removed terms {} times",
        cov.eliminated
    );
}

#[test]
fn errors_match_the_row_predict_formula() {
    let mut rng = SmallRng::seed_from_u64(13);
    for case in 0..2_000 {
        let d = random_dataset(&mut rng);
        let idx = random_subset(&mut rng, d.n_rows());
        let attrs = random_attrs(&mut rng, d.n_attrs());
        let model = LinearModel::fit_with_elimination(&d, &idx, &attrs).expect("fit");
        // Score on the fitted rows and on every row.
        let all: Vec<usize> = (0..d.n_rows()).collect();
        for rows in [&idx, &all] {
            let want = mean_abs_error(&d, rows, |row| model.predict(row));
            assert_eq!(
                model.mean_abs_error(&d, rows).to_bits(),
                want.to_bits(),
                "case {case}"
            );
            let reference = Reference {
                intercept: model.intercept(),
                terms: model.terms().to_vec(),
            };
            assert_eq!(
                model.inflated_error(&d, rows).to_bits(),
                reference.inflated_error(&d, rows).to_bits(),
                "case {case}"
            );
        }
    }
}
