//! Differential tests for `mtperf sweep`: `sweep::run`, which prices each
//! distinct transplanted row once, against an oracle that transplants and
//! predicts every (section, configuration) row and aggregates each
//! configuration on its own.
//!
//! The generated sample sets carry zero, negative and `-0.0` rates (the
//! repair policies can leave all three), sections whose swept counters are
//! all zero, and branch rates that make the tree read `BrPred` with and
//! without mispredicts. Specs repeat axis values, `top_blame` runs from 0
//! to past any leaf's term count, and the swept models are plain,
//! unsmoothed, analytic-feature and residual. Every report must equal the
//! oracle's, and every one of those cases must occur.

use std::cell::RefCell;

use mtperf::analytic::{
    ancpi_index, dataset_with_analytic, scale_factors, transplant_rates, AnalyticModel, N_ANALYTIC,
};
use mtperf::counters::N_EVENTS;
use mtperf::linalg::{Matrix, Parallelism};
use mtperf::mtree::{residual_dataset, MtreeError, Node};
use mtperf::prelude::*;
use mtperf::sweep::{self, Blame, ConfigResult, SweepAxes, SweepReport, SweepSpec};
use proptest::prelude::*;

/// Columns whose rates the sweep's power laws scale.
const SWEPT: [Event; 9] = [
    Event::L1dm,
    Event::L1im,
    Event::L2m,
    Event::DtlbL0LdM,
    Event::DtlbLdM,
    Event::DtlbLdReM,
    Event::Dtlb,
    Event::ItlbM,
    Event::BrMisPr,
];

/// The report of a sweep that transplants, predicts and blames every
/// (section, configuration) row, one configuration at a time.
fn oracle(spec: &SweepSpec, tree: &ModelTree, samples: &SampleSet, residual: bool) -> SweepReport {
    let base = spec.base().expect("base machine");
    let points = spec.enumerate().expect("spec");
    let compiled = tree.compile();
    let analytic = compiled.n_attrs() == N_EVENTS + N_ANALYTIC;
    let ancpi = N_EVENTS + N_ANALYTIC - 1;
    let n = samples.len();
    let mut configs = Vec::new();
    for point in &points {
        let factors = scale_factors(&base, &point.machine);
        let model = analytic.then(|| AnalyticModel::new(point.machine.clone()));
        let mut block = Matrix::zeros(n, compiled.n_attrs());
        for (r, sample) in samples.iter().enumerate() {
            let moved = transplant_rates(sample.as_row(), &factors);
            let out = block.row_mut(r);
            out[..N_EVENTS].copy_from_slice(&moved);
            if let Some(model) = &model {
                out[N_EVENTS..].copy_from_slice(&model.features(&moved));
            }
        }
        let mut preds = compiled.predict_batch_with(&block, Parallelism::Off);
        if residual {
            for (r, p) in preds.iter_mut().enumerate() {
                *p += block.row(r)[ancpi];
            }
        }
        let mut sum = 0.0;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &p in &preds {
            sum += p;
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| preds[a].partial_cmp(&preds[b]).unwrap().then(a.cmp(&b)));
        let row = block.row(order[(n - 1) / 2]);
        let mut contribs = analysis::contributions(tree, row).expect("contributions");
        contribs.sort_by(|a, b| {
            (b.amount.abs().partial_cmp(&a.amount.abs()).unwrap()).then(a.attr.cmp(&b.attr))
        });
        let blame = contribs
            .iter()
            .take(spec.top_blame)
            .map(|c| Blame {
                feature: tree.attr_names()[c.attr].clone(),
                amount: c.amount,
            })
            .collect();
        let zero_top_blame_cpi = contribs.first().map(|top| {
            let p = analysis::what_if(tree, row, top.attr, 0.0).expect("what-if");
            if residual {
                p + row[ancpi]
            } else {
                p
            }
        });
        configs.push(ConfigResult {
            id: point.id,
            settings: point.settings.clone(),
            mean_cpi: sum / n as f64,
            min_cpi: lo,
            max_cpi: hi,
            blame,
            zero_top_blame_cpi,
        });
    }
    let mut ranking: Vec<usize> = (0..configs.len()).collect();
    ranking.sort_by(|&a, &b| {
        (configs[a]
            .mean_cpi
            .partial_cmp(&configs[b].mean_cpi)
            .unwrap())
        .then(a.cmp(&b))
    });
    SweepReport {
        schema: sweep::SCHEMA.to_string(),
        base_machine: spec.base_machine.clone(),
        residual,
        n_configs: configs.len(),
        n_sections: n,
        configs,
        ranking,
    }
}

/// How often each case the suite must cover occurred.
#[derive(Debug, Default)]
struct Coverage {
    zero_rate: usize,
    negative_zero_rate: usize,
    negative_rate: usize,
    brpred_without_mispredicts: usize,
    brpred_with_mispredicts: usize,
    brpred_without_brmispr_column: usize,
    all_swept_zero: usize,
    single_section: usize,
    duplicate_axis: usize,
    top_blame_zero: usize,
    top_blame_past_terms: usize,
    plain: usize,
    unsmoothed: usize,
    analytic: usize,
    residual: usize,
}

thread_local! {
    static SEEN: RefCell<Coverage> = RefCell::new(Coverage::default());
}

fn seen(f: impl FnOnce(&mut Coverage)) {
    SEEN.with(|c| f(&mut c.borrow_mut()));
}

/// Whether any node of `tree` splits on or models column `attr`.
fn reads(tree: &ModelTree, attr: usize) -> bool {
    fn walk(node: &Node, attr: usize) -> bool {
        node.model().terms().iter().any(|&(a, _)| a == attr)
            || matches!(node, Node::Split { attr: a, left, right, .. }
                if *a == attr || walk(left, attr) || walk(right, attr))
    }
    walk(tree.root(), attr)
}

/// One measured rate: zero, `-0.0`, a repaired negative, or a positive
/// miss rate.
fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        -0.01..0.0f64,
        0.0..0.04f64,
        0.0..0.04f64,
        0.0..0.04f64,
    ]
}

/// A section's rates; a `quiet` section has every swept counter at zero.
fn section() -> impl Strategy<Value = ([f64; N_EVENTS], bool, f64)> {
    (
        prop::collection::vec(rate(), N_EVENTS),
        0u32..6,
        0.0..0.05f64,
    )
        .prop_map(|(rates, quiet, noise)| {
            let mut out = [0.0; N_EVENTS];
            out.copy_from_slice(&rates);
            let quiet = quiet == 0;
            if quiet {
                for e in SWEPT {
                    out[e.index()] = 0.0;
                }
            }
            // Branches mostly predict: BrPred dwarfs BrMisPr.
            out[Event::BrPred.index()] = out[Event::BrPred.index()].abs() * 5.0;
            (out, quiet, noise)
        })
}

/// CPI with a class split on L2 misses and slopes on the other swept
/// counters, so trees split and read several factor columns. Without
/// `mispredicts` the tree tends to read `BrPred` alone, which moves with
/// the history length only through the `BrMisPr` factor.
fn cpi(rates: &[f64; N_EVENTS], noise: f64, mispredicts: bool) -> f64 {
    let r = |e: Event| rates[e.index()].max(0.0);
    let memory = if r(Event::L2m) > 0.015 {
        1.2 + 40.0 * r(Event::L2m) + 6.0 * r(Event::Dtlb)
    } else {
        0.6 + 12.0 * r(Event::L1dm) + 9.0 * r(Event::L1im)
    };
    let branch = if mispredicts {
        25.0 * r(Event::BrMisPr)
    } else {
        0.0
    };
    memory + branch + 3.0 * r(Event::BrPred) + 8.0 * r(Event::ItlbM) + noise
}

/// Axis values with repeats allowed.
fn axis(choices: &'static [u64]) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..choices.len(), 0..3)
        .prop_map(move |picks| picks.iter().map(|&i| choices[i]).collect())
}

fn spec() -> impl Strategy<Value = SweepSpec> {
    (
        (axis(&[16, 32, 64]), axis(&[16, 32])),
        (axis(&[512, 1024, 4096]), axis(&[128, 512])),
        (axis(&[64, 128]), axis(&[8, 12, 16])),
        prop_oneof![Just(0usize), 1usize..4, Just(40usize)],
    )
        .prop_map(|((l1d, l1i), (l2, dtlb), (itlb, history), top_blame)| {
            let narrow = |v: Vec<u64>| v.into_iter().map(|x| x as u32).collect();
            SweepSpec {
                base_machine: "core2_duo".to_string(),
                axes: SweepAxes {
                    l1d_kb: l1d,
                    l1i_kb: l1i,
                    l2_kb: l2,
                    dtlb1_entries: narrow(dtlb),
                    itlb_entries: narrow(itlb),
                    history_bits: narrow(history),
                    ..SweepAxes::default()
                },
                top_blame,
            }
        })
}

/// Model kinds: plain, unsmoothed, analytic features, residual.
const KINDS: [&str; 4] = ["plain", "unsmoothed", "analytic", "residual"];

fn train(samples: &SampleSet, kind: &str) -> ModelTree {
    let params = M5Params::default().with_min_instances(6);
    let data = match kind {
        "plain" | "unsmoothed" => mtperf::dataset_from_samples(samples).unwrap(),
        _ => dataset_with_analytic(samples, &MachineConfig::core2_duo()).unwrap(),
    };
    let data = if kind == "residual" {
        residual_dataset(&data, ancpi_index(&data).unwrap()).unwrap()
    } else {
        data
    };
    let params = params.with_smoothing(kind != "unsmoothed");
    ModelTree::fit(&data, &params).unwrap()
}

/// Sweeps `samples` with both implementations and records what the case
/// covered.
fn check(spec: &SweepSpec, tree: &ModelTree, samples: &SampleSet, kind: &str, par: Parallelism) {
    let residual = kind == "residual";
    let got = sweep::run(spec, tree, samples, residual, par).expect("sweep");
    let want = oracle(spec, tree, samples, residual);
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&want).unwrap(),
        "{kind} model, {par:?}, spec {spec:?}"
    );

    let (pred, mispredicts) = (Event::BrPred.index(), Event::BrMisPr.index());
    seen(|c| {
        for s in samples.iter() {
            let rates = s.as_row();
            for &r in rates {
                if r.to_bits() == 0 {
                    c.zero_rate += 1;
                } else if r.to_bits() == (-0.0f64).to_bits() {
                    c.negative_zero_rate += 1;
                } else if r < 0.0 {
                    c.negative_rate += 1;
                }
            }
            if SWEPT.iter().all(|e| rates[e.index()].max(0.0) == 0.0) {
                c.all_swept_zero += 1;
            }
            if reads(tree, pred) {
                if rates[mispredicts].max(0.0) == 0.0 {
                    c.brpred_without_mispredicts += 1;
                } else {
                    c.brpred_with_mispredicts += 1;
                }
            }
        }
        let histories = &spec.axes.history_bits;
        if reads(tree, pred)
            && !reads(tree, mispredicts)
            && histories.iter().any(|&h| h != histories[0])
            && samples.iter().any(|s| s.as_row()[mispredicts] > 0.0)
        {
            c.brpred_without_brmispr_column += 1;
        }
        if samples.len() == 1 {
            c.single_section += 1;
        }
        let a = &spec.axes;
        let repeats = |v: &[u64]| (1..v.len()).any(|i| v[..i].contains(&v[i]));
        let repeats32 = |v: &[u32]| repeats(&v.iter().map(|&x| u64::from(x)).collect::<Vec<_>>());
        if repeats(&a.l1d_kb)
            || repeats(&a.l1i_kb)
            || repeats(&a.l2_kb)
            || repeats32(&a.dtlb1_entries)
            || repeats32(&a.itlb_entries)
            || repeats32(&a.history_bits)
        {
            c.duplicate_axis += 1;
        }
        if spec.top_blame == 0 {
            c.top_blame_zero += 1;
        }
        if got
            .configs
            .iter()
            .any(|r| r.blame.len() < spec.top_blame && r.zero_top_blame_cpi.is_some())
        {
            c.top_blame_past_terms += 1;
        }
        match kind {
            "plain" => c.plain += 1,
            "unsmoothed" => c.unsmoothed += 1,
            "analytic" => c.analytic += 1,
            _ => c.residual += 1,
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    fn generated_sweeps(
        sections in prop::collection::vec(section(), 24..72),
        spec in spec(),
        kind in 0usize..4,
        mispredicts in 0usize..2,
        subset in 0usize..3,
        threads in 0usize..2,
    ) {
        let mut samples = SampleSet::new();
        for (i, (rates, _, noise)) in sections.iter().enumerate() {
            let cpi = cpi(rates, *noise, mispredicts == 1);
            samples.push(SectionSample::new("w", i, cpi, *rates));
        }
        let kind = KINDS[kind];
        let tree = train(&samples, kind);
        // Sweep the training set, one section of it, or its quiet sections
        // plus one more.
        let swept = match subset {
            0 => samples.clone(),
            1 => {
                let mut one = SampleSet::new();
                one.push(samples.samples()[sections.len() / 2].clone());
                one
            }
            _ => {
                let mut quiet = SampleSet::new();
                for (s, (_, q, _)) in samples.iter().zip(&sections) {
                    if *q {
                        quiet.push(s.clone());
                    }
                }
                quiet.push(samples.samples()[0].clone());
                quiet
            }
        };
        let par = [Parallelism::Off, Parallelism::Fixed(3)][threads];
        check(&spec, &tree, &swept, kind, par);
    }
}

#[test]
fn sweep_matches_the_row_by_row_oracle() {
    generated_sweeps();
    SEEN.with(|c| {
        let c = c.borrow();
        let counts = [
            c.zero_rate,
            c.negative_zero_rate,
            c.negative_rate,
            c.brpred_without_mispredicts,
            c.brpred_with_mispredicts,
            c.brpred_without_brmispr_column,
            c.all_swept_zero,
            c.single_section,
            c.duplicate_axis,
            c.top_blame_zero,
            c.top_blame_past_terms,
            c.plain,
            c.unsmoothed,
            c.analytic,
            c.residual,
        ];
        assert!(
            counts.iter().all(|&n| n > 0),
            "a case never occurred: {c:?}"
        );
    });
}

/// The checked-in 1,152-configuration spec over enough sections that an
/// analytic sweep fills several row blocks and splits its classes into
/// more than one chunk of the prediction table.
#[test]
fn large_sweeps_match_the_oracle_across_blocks_and_chunks() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/sweep_spec.json"
    ))
    .unwrap();
    let spec: SweepSpec = serde_json::from_str(&text).unwrap();
    let mut rng = proptest::test_runner::TestRng::deterministic("large sweep");
    let mut samples = SampleSet::new();
    for i in 0..1000 {
        let (rates, _, noise) = section().generate(&mut rng);
        samples.push(SectionSample::new("w", i, cpi(&rates, noise, true), rates));
    }
    // 1,152 one-configuration classes × 1,000 sections exceed the 2^20-row
    // table, and the rows that zero rates leave distinct still fill
    // several 65,536-row blocks.
    assert!(spec.enumerate().unwrap().len() * samples.len() > 1 << 20);
    for kind in ["plain", "analytic"] {
        let tree = train(&samples, kind);
        check(&spec, &tree, &samples, kind, Parallelism::Fixed(2));
    }
}

/// A residual sweep adds `AnCpi`, which reads every counter's factor, to
/// each prediction. A residual tree that reads no analytic column, or no
/// column at all, must therefore still tell apart the configurations that
/// `AnCpi` prices differently.
#[test]
fn residual_sweeps_key_on_ancpi_when_the_tree_reads_no_analytic_column() {
    let mut rng = proptest::test_runner::TestRng::deterministic("residual, counters only");
    let mut samples = SampleSet::new();
    for i in 0..60 {
        let (rates, _, noise) = section().generate(&mut rng);
        samples.push(SectionSample::new("w", i, cpi(&rates, noise, true), rates));
    }
    let data = dataset_with_analytic(&samples, &MachineConfig::core2_duo()).unwrap();
    let data = residual_dataset(&data, ancpi_index(&data).unwrap()).unwrap();
    let spec: SweepSpec = serde_json::from_str(
        r#"{"axes": {"l1i_kb": [16, 32], "l2_kb": [512, 4096], "history_bits": [8, 12]}}"#,
    )
    .unwrap();
    // Constant analytic columns leave the tree nothing to split on there,
    // and a node model reads only its subtree's split columns.
    let counters_only: Vec<Vec<f64>> = (0..data.n_rows())
        .map(|i| {
            (0..data.n_attrs())
                .map(|j| if j < N_EVENTS { data.value(i, j) } else { 0.0 })
                .collect()
        })
        .collect();
    let flat =
        Dataset::from_rows(data.attr_names().to_vec(), &counters_only, data.targets()).unwrap();
    for min_instances in [6, 1000] {
        let params = M5Params::default().with_min_instances(min_instances);
        let tree = ModelTree::fit(&flat, &params).unwrap();
        assert!((N_EVENTS..N_EVENTS + N_ANALYTIC).all(|a| !reads(&tree, a)));
        check(&spec, &tree, &samples, "residual", Parallelism::Off);
    }
}

/// A value the tree reads that overflows when transplanted is a data error
/// naming the section and the column, not a panic or an infinite report.
#[test]
fn non_finite_values_are_data_errors() {
    let mut rng = proptest::test_runner::TestRng::deterministic("non-finite");
    let mut samples = SampleSet::new();
    for i in 0..60 {
        let (mut rates, _, noise) = section().generate(&mut rng);
        rates[Event::L2m.index()] = 0.001 + 0.0005 * (i % 50) as f64;
        samples.push(SectionSample::new("w", i, cpi(&rates, noise, true), rates));
    }
    let tree = train(&samples, "plain");
    let l2m = Event::L2m.index();
    assert!(reads(&tree, l2m));
    let mut spec = SweepSpec::default();
    spec.axes.l2_kb = vec![512, 4096];
    assert!(sweep::run(&spec, &tree, &samples, false, Parallelism::Off).is_ok());

    let mut bad = SampleSet::new();
    for (i, s) in samples.iter().enumerate() {
        let mut s = s.clone();
        if i == 17 {
            s.rates[l2m] = 1.7e308;
        }
        bad.push(s);
    }
    // A 512 KiB L2 doubles the L2 miss rate of the 2 MiB base machine.
    for par in [Parallelism::Off, Parallelism::Fixed(3)] {
        assert_eq!(
            sweep::run(&spec, &tree, &bad, false, par).unwrap_err(),
            MtreeError::NonFiniteValue {
                row: 17,
                attr: Some(l2m)
            }
        );
    }
    // On the base machine alone the huge rate stays finite: the model
    // prices it, and the report must still hold only finite numbers.
    let base_only = SweepSpec::default();
    match sweep::run(&base_only, &tree, &bad, false, Parallelism::Off) {
        Ok(report) => assert!(report
            .configs
            .iter()
            .all(|c| c.mean_cpi.is_finite() && c.min_cpi.is_finite() && c.max_cpi.is_finite())),
        Err(e) => assert!(matches!(e, MtreeError::NonFiniteValue { .. }), "{e}"),
    }
}
