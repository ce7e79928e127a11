//! Design-space sweeps: score thousands of hypothetical machine
//! configurations through a trained model without re-simulating.
//!
//! A [`SweepSpec`] names a base machine and per-axis value lists (cache
//! size/associativity, TLB reach, predictor budget). The sweep enumerates
//! the full cross product in a canonical odometer order, transplants every
//! measured counter row onto each configuration via the documented power
//! laws ([`crate::analytic::scale_factors`]), recomputes the analytical
//! feature columns for machines that were trained with them, and pushes one
//! large row-block per configuration chunk through the compiled tree's
//! parallel batch engine. Per configuration it reports the predicted CPI
//! distribution and the counters the tree blames on the median section
//! (reusing [`mtperf_mtree::analysis::contributions`] and
//! [`mtperf_mtree::analysis::what_if`]).
//!
//! Everything here is deterministic: enumeration order is fixed, chunking
//! never changes per-row arithmetic, and blame ties break by row index —
//! which is what lets `tests/golden/sweep.json` pin the whole report.

use std::collections::BTreeMap;

use serde::{de, Deserialize, Serialize, Value};

use mtperf_counters::{Event, SampleSet, N_EVENTS};
use mtperf_linalg::{Matrix, Parallelism};
use mtperf_mtree::{analysis, ModelTree, MtreeError};
use mtperf_sim::MachineConfig;

use crate::analytic::{scale_factors, transplant_rates, AnalyticModel, ANALYTIC_NAMES, N_ANALYTIC};

/// Schema tag stamped into every sweep report.
pub const SCHEMA: &str = "mtperf-sweep-v1";

/// Hard ceiling on the enumerated grid; a spec whose cross product exceeds
/// this is almost certainly a typo, and refusing it beats an OOM.
pub const MAX_CONFIGS: usize = 200_000;

/// Rows per batch pushed through the parallel engine: configurations are
/// chunked so each batch stays around this many rows — large enough to
/// clear the engine's parallel cutover, small enough to bound memory.
const TARGET_BATCH_ROWS: usize = 65_536;

/// The sweep axes, in canonical (odometer) order. Each axis is a list of
/// values to try; an empty list means "keep the base machine's value".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepAxes {
    /// L1 data cache capacities, KiB.
    pub l1d_kb: Vec<u64>,
    /// L1 data cache associativities.
    pub l1d_ways: Vec<u32>,
    /// L1 instruction cache capacities, KiB.
    pub l1i_kb: Vec<u64>,
    /// Unified L2 capacities, KiB.
    pub l2_kb: Vec<u64>,
    /// Unified L2 associativities.
    pub l2_ways: Vec<u32>,
    /// Last-level DTLB entry counts.
    pub dtlb1_entries: Vec<u32>,
    /// ITLB entry counts.
    pub itlb_entries: Vec<u32>,
    /// Branch-predictor global-history lengths, bits.
    pub history_bits: Vec<u32>,
}

/// The spellable axis names, for the unknown-field check and docs.
pub const AXIS_NAMES: [&str; 8] = [
    "l1d_kb",
    "l1d_ways",
    "l1i_kb",
    "l2_kb",
    "l2_ways",
    "dtlb1_entries",
    "itlb_entries",
    "history_bits",
];

impl Serialize for SweepAxes {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("l1d_kb".to_string(), self.l1d_kb.serialize()),
            ("l1d_ways".to_string(), self.l1d_ways.serialize()),
            ("l1i_kb".to_string(), self.l1i_kb.serialize()),
            ("l2_kb".to_string(), self.l2_kb.serialize()),
            ("l2_ways".to_string(), self.l2_ways.serialize()),
            ("dtlb1_entries".to_string(), self.dtlb1_entries.serialize()),
            ("itlb_entries".to_string(), self.itlb_entries.serialize()),
            ("history_bits".to_string(), self.history_bits.serialize()),
        ])
    }
}

impl Deserialize for SweepAxes {
    fn deserialize(value: &Value) -> Result<Self, de::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| de::Error::mismatch("object", value).context("SweepAxes"))?;
        // A misspelled axis silently sweeping nothing would be a nasty way
        // to lose an experiment; reject unknown names outright.
        for (key, _) in entries {
            if !AXIS_NAMES.contains(&key.as_str()) {
                return Err(de::Error::custom(format!(
                    "unknown sweep axis '{key}' (expected one of {})",
                    AXIS_NAMES.join(", ")
                ))
                .context("SweepAxes"));
            }
        }
        fn axis<T: Deserialize>(value: &Value, name: &str) -> Result<Vec<T>, de::Error> {
            match value.get_field(name) {
                None | Some(Value::Null) => Ok(Vec::new()),
                Some(v) => Vec::<T>::deserialize(v).map_err(|e| e.context(name)),
            }
        }
        Ok(SweepAxes {
            l1d_kb: axis(value, "l1d_kb")?,
            l1d_ways: axis(value, "l1d_ways")?,
            l1i_kb: axis(value, "l1i_kb")?,
            l2_kb: axis(value, "l2_kb")?,
            l2_ways: axis(value, "l2_ways")?,
            dtlb1_entries: axis(value, "dtlb1_entries")?,
            itlb_entries: axis(value, "itlb_entries")?,
            history_bits: axis(value, "history_bits")?,
        })
    }
}

/// A design-space sweep specification (the JSON file `mtperf sweep` reads).
/// Missing fields default: `base_machine` to `core2_duo`, `axes` to
/// all-empty (a one-config sweep of the base machine), `top_blame` to 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Base machine the counters were measured on: `core2_duo`,
    /// `netburst_like`, or `tiny`.
    pub base_machine: String,
    /// The axes to sweep.
    pub axes: SweepAxes,
    /// How many blamed counters to report per configuration.
    pub top_blame: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            base_machine: "core2_duo".to_string(),
            axes: SweepAxes::default(),
            top_blame: 3,
        }
    }
}

impl Serialize for SweepSpec {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("base_machine".to_string(), self.base_machine.serialize()),
            ("axes".to_string(), self.axes.serialize()),
            ("top_blame".to_string(), self.top_blame.serialize()),
        ])
    }
}

impl Deserialize for SweepSpec {
    fn deserialize(value: &Value) -> Result<Self, de::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| de::Error::mismatch("object", value).context("SweepSpec"))?;
        for (key, _) in entries {
            if !["base_machine", "axes", "top_blame"].contains(&key.as_str()) {
                return Err(
                    de::Error::custom(format!("unknown field '{key}'")).context("SweepSpec")
                );
            }
        }
        let defaults = SweepSpec::default();
        let base_machine = match value.get_field("base_machine") {
            None | Some(Value::Null) => defaults.base_machine,
            Some(v) => String::deserialize(v).map_err(|e| e.context("base_machine"))?,
        };
        let axes = match value.get_field("axes") {
            None | Some(Value::Null) => SweepAxes::default(),
            Some(v) => SweepAxes::deserialize(v).map_err(|e| e.context("axes"))?,
        };
        let top_blame = match value.get_field("top_blame") {
            None | Some(Value::Null) => defaults.top_blame,
            Some(v) => usize::deserialize(v).map_err(|e| e.context("top_blame"))?,
        };
        Ok(SweepSpec {
            base_machine,
            axes,
            top_blame,
        })
    }
}

impl SweepSpec {
    /// Resolves the named base machine.
    ///
    /// # Errors
    ///
    /// [`MtreeError::BadParams`] for an unknown machine name.
    pub fn base(&self) -> Result<MachineConfig, MtreeError> {
        machine_by_name(&self.base_machine)
    }

    /// The canonical axis list as `(name, values)` pairs, empty axes
    /// replaced by the base machine's own value so the odometer always has
    /// one setting per axis.
    fn resolved_axes(&self, base: &MachineConfig) -> Vec<(&'static str, Vec<u64>)> {
        let or_base = |vs: &[u64], b: u64| {
            if vs.is_empty() {
                vec![b]
            } else {
                vs.to_vec()
            }
        };
        let a = &self.axes;
        vec![
            ("l1d_kb", or_base(&a.l1d_kb, base.l1d.size_bytes / 1024)),
            (
                "l1d_ways",
                or_base(
                    &a.l1d_ways.iter().map(|&w| u64::from(w)).collect::<Vec<_>>(),
                    u64::from(base.l1d.ways),
                ),
            ),
            ("l1i_kb", or_base(&a.l1i_kb, base.l1i.size_bytes / 1024)),
            ("l2_kb", or_base(&a.l2_kb, base.l2.size_bytes / 1024)),
            (
                "l2_ways",
                or_base(
                    &a.l2_ways.iter().map(|&w| u64::from(w)).collect::<Vec<_>>(),
                    u64::from(base.l2.ways),
                ),
            ),
            (
                "dtlb1_entries",
                or_base(
                    &a.dtlb1_entries
                        .iter()
                        .map(|&e| u64::from(e))
                        .collect::<Vec<_>>(),
                    u64::from(base.dtlb1.entries),
                ),
            ),
            (
                "itlb_entries",
                or_base(
                    &a.itlb_entries
                        .iter()
                        .map(|&e| u64::from(e))
                        .collect::<Vec<_>>(),
                    u64::from(base.itlb.entries),
                ),
            ),
            (
                "history_bits",
                or_base(
                    &a.history_bits
                        .iter()
                        .map(|&b| u64::from(b))
                        .collect::<Vec<_>>(),
                    u64::from(base.predictor.history_bits),
                ),
            ),
        ]
    }

    /// Enumerates the full cross product as concrete machine
    /// configurations, odometer order (last axis fastest).
    ///
    /// # Errors
    ///
    /// [`MtreeError::BadParams`] for an unknown base machine, a zero axis
    /// value, a cache geometry that does not divide into 64-byte lines and
    /// its ways, a TLB whose entries do not divide into its ways, or a grid
    /// larger than [`MAX_CONFIGS`].
    pub fn enumerate(&self) -> Result<Vec<SweepPoint>, MtreeError> {
        let base = self.base()?;
        let axes = self.resolved_axes(&base);
        let mut total: usize = 1;
        for (name, values) in &axes {
            if values.contains(&0) {
                return Err(MtreeError::BadParams(format!(
                    "axis {name} contains a zero value"
                )));
            }
            total = total.saturating_mul(values.len());
        }
        if total > MAX_CONFIGS {
            return Err(MtreeError::BadParams(format!(
                "sweep grid has {total} configurations (limit {MAX_CONFIGS})"
            )));
        }

        let mut points = Vec::with_capacity(total);
        let mut idx = vec![0usize; axes.len()];
        for id in 0..total {
            let mut settings = BTreeMap::new();
            for (axis, &i) in axes.iter().zip(&idx) {
                settings.insert(axis.0.to_string(), axis.1[i]);
            }
            let machine = apply_settings(&base, &settings)?;
            points.push(SweepPoint {
                id,
                settings,
                machine,
            });
            // Odometer increment, last axis fastest.
            for pos in (0..axes.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < axes[pos].1.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
        Ok(points)
    }
}

/// Resolves a machine configuration by its spec name (`core2_duo`,
/// `netburst_like`, or `tiny`).
///
/// # Errors
///
/// [`MtreeError::BadParams`] for an unknown name.
pub fn machine_by_name(name: &str) -> Result<MachineConfig, MtreeError> {
    match name {
        "core2_duo" => Ok(MachineConfig::core2_duo()),
        "netburst_like" => Ok(MachineConfig::netburst_like()),
        "tiny" => Ok(MachineConfig::tiny()),
        other => Err(MtreeError::BadParams(format!(
            "unknown machine '{other}' (expected core2_duo, netburst_like, or tiny)"
        ))),
    }
}

/// One enumerated configuration: its odometer id, the axis settings that
/// produced it, and the concrete machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the canonical enumeration order.
    pub id: usize,
    /// Axis name → chosen value.
    pub settings: BTreeMap<String, u64>,
    /// The concrete machine configuration.
    pub machine: MachineConfig,
}

fn apply_settings(
    base: &MachineConfig,
    settings: &BTreeMap<String, u64>,
) -> Result<MachineConfig, MtreeError> {
    let mut m = base.clone();
    let get = |name: &str| settings[name];
    m.l1d.size_bytes = get("l1d_kb") * 1024;
    m.l1d.ways = narrow(get("l1d_ways"), "l1d_ways")?;
    m.l1i.size_bytes = get("l1i_kb") * 1024;
    m.l2.size_bytes = get("l2_kb") * 1024;
    m.l2.ways = narrow(get("l2_ways"), "l2_ways")?;
    m.dtlb1.entries = narrow(get("dtlb1_entries"), "dtlb1_entries")?;
    m.itlb.entries = narrow(get("itlb_entries"), "itlb_entries")?;
    m.predictor.history_bits = narrow(get("history_bits"), "history_bits")?;

    for (name, cache) in [("l1d", &m.l1d), ("l1i", &m.l1i), ("l2", &m.l2)] {
        let span = cache.line_bytes * u64::from(cache.ways);
        if span == 0 || !cache.size_bytes.is_multiple_of(span) {
            return Err(MtreeError::BadParams(format!(
                "{name} geometry {} B / {}-way does not divide into {}-byte lines",
                cache.size_bytes, cache.ways, cache.line_bytes
            )));
        }
    }
    for (name, tlb) in [("dtlb1", &m.dtlb1), ("itlb", &m.itlb)] {
        if tlb.ways == 0 || !tlb.entries.is_multiple_of(tlb.ways) {
            return Err(MtreeError::BadParams(format!(
                "{name} entries {} do not divide into {} ways",
                tlb.entries, tlb.ways
            )));
        }
    }
    if m.predictor.history_bits > 24 {
        return Err(MtreeError::BadParams(format!(
            "history_bits {} exceeds the 24-bit pattern-table limit",
            m.predictor.history_bits
        )));
    }
    Ok(m)
}

fn narrow(v: u64, axis: &str) -> Result<u32, MtreeError> {
    u32::try_from(v)
        .map_err(|_| MtreeError::BadParams(format!("axis {axis} value {v} out of range")))
}

/// One blamed counter on a configuration's median section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blame {
    /// Feature name (a Table-I metric, or a derived analytic column).
    pub feature: String,
    /// Absolute CPI contribution `coefficient · value` at the median row.
    pub amount: f64,
}

/// The sweep result for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Position in the canonical enumeration order.
    pub id: usize,
    /// Axis name → chosen value.
    pub settings: BTreeMap<String, u64>,
    /// Mean predicted CPI over every transplanted section.
    pub mean_cpi: f64,
    /// Lowest predicted section CPI.
    pub min_cpi: f64,
    /// Highest predicted section CPI.
    pub max_cpi: f64,
    /// Top counters the tree blames on the median section, best first.
    pub blame: Vec<Blame>,
    /// Predicted median-section CPI if the top blamed counter were driven
    /// to zero ([`mtperf_mtree::analysis::what_if`]); `null` when the leaf
    /// model is constant.
    pub zero_top_blame_cpi: Option<f64>,
}

impl Serialize for ConfigResult {
    fn serialize(&self) -> Value {
        let settings = self
            .settings
            .iter()
            .map(|(k, v)| (k.clone(), v.serialize()))
            .collect();
        Value::Object(vec![
            ("id".to_string(), self.id.serialize()),
            ("settings".to_string(), Value::Object(settings)),
            ("mean_cpi".to_string(), self.mean_cpi.serialize()),
            ("min_cpi".to_string(), self.min_cpi.serialize()),
            ("max_cpi".to_string(), self.max_cpi.serialize()),
            ("blame".to_string(), self.blame.serialize()),
            (
                "zero_top_blame_cpi".to_string(),
                self.zero_top_blame_cpi.serialize(),
            ),
        ])
    }
}

impl Deserialize for ConfigResult {
    fn deserialize(value: &Value) -> Result<Self, de::Error> {
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, de::Error> {
            T::deserialize(value.get_field(name).unwrap_or(&Value::Null))
                .map_err(|e| e.context(name).context("ConfigResult"))
        }
        let raw_settings = value
            .get_field("settings")
            .and_then(Value::as_object)
            .ok_or_else(|| de::Error::custom("missing settings object").context("ConfigResult"))?;
        let mut settings = BTreeMap::new();
        for (k, v) in raw_settings {
            settings.insert(
                k.clone(),
                u64::deserialize(v).map_err(|e| e.context(k).context("settings"))?,
            );
        }
        Ok(ConfigResult {
            id: field(value, "id")?,
            settings,
            mean_cpi: field(value, "mean_cpi")?,
            min_cpi: field(value, "min_cpi")?,
            max_cpi: field(value, "max_cpi")?,
            blame: field(value, "blame")?,
            zero_top_blame_cpi: field(value, "zero_top_blame_cpi")?,
        })
    }
}

/// A full sweep report (the JSON `mtperf sweep` emits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema tag, [`SCHEMA`].
    pub schema: String,
    /// Name of the base machine the counters were measured on.
    pub base_machine: String,
    /// Whether predictions were reconstructed residually (`tree + AnCpi`).
    pub residual: bool,
    /// Number of configurations explored.
    pub n_configs: usize,
    /// Number of measured sections transplanted onto each configuration.
    pub n_sections: usize,
    /// Per-configuration results, enumeration order.
    pub configs: Vec<ConfigResult>,
    /// Configuration ids sorted by ascending mean CPI (ties by id).
    pub ranking: Vec<usize>,
}

impl SweepReport {
    /// The best (lowest mean-CPI) configuration.
    pub fn best(&self) -> &ConfigResult {
        &self.configs[self.ranking[0]]
    }

    /// The worst (highest mean-CPI) configuration.
    pub fn worst(&self) -> &ConfigResult {
        &self.configs[*self.ranking.last().expect("non-empty sweep")]
    }
}

/// Feature name for attribute index `attr` of the (possibly analytic-
/// augmented) learning problem.
fn feature_name(attr: usize) -> String {
    if attr < N_EVENTS {
        Event::ALL[attr].metric_name().to_string()
    } else if attr < N_EVENTS + N_ANALYTIC {
        ANALYTIC_NAMES[attr - N_EVENTS].to_string()
    } else {
        format!("attr{attr}")
    }
}

/// Runs the sweep: enumerate `spec`, transplant every section in `samples`
/// onto each configuration, predict through the compiled parallel engine,
/// and blame the median section of every configuration.
///
/// `residual` selects residual reconstruction (`tree(row) + AnCpi`); it
/// requires an analytic-augmented model. A model trained on the plain 20
/// counters sweeps fine — it just cannot see latency-parameter effects,
/// only the miss-rate power laws.
///
/// # Errors
///
/// Spec validation errors ([`MtreeError::BadParams`]), an empty sample set
/// ([`MtreeError::EmptyDataset`]), a model whose attribute count is neither
/// the 20 counters nor counters+analytic, and engine failures from
/// [`mtperf_mtree::CompiledTree::try_predict_batch_with`].
pub fn run(
    spec: &SweepSpec,
    tree: &ModelTree,
    samples: &SampleSet,
    residual: bool,
    par: Parallelism,
) -> Result<SweepReport, MtreeError> {
    if samples.is_empty() {
        return Err(MtreeError::EmptyDataset);
    }
    let base = spec.base()?;
    let points = spec.enumerate()?;
    let compiled = tree.compile();
    let analytic = match compiled.n_attrs() {
        n if n == N_EVENTS => false,
        n if n == N_EVENTS + N_ANALYTIC => true,
        n => {
            return Err(MtreeError::BadParams(format!(
                "model expects {n} attributes; sweep supports {N_EVENTS} (counters) or {} (counters + analytic)",
                N_EVENTS + N_ANALYTIC
            )))
        }
    };
    if residual && !analytic {
        return Err(MtreeError::BadParams(
            "residual sweep needs a model trained with --features analytic".to_string(),
        ));
    }

    let rows: Vec<&[f64]> = samples.iter().map(|s| s.as_row()).collect();
    let n_sections = rows.len();
    let cols = compiled.n_attrs();
    let ancpi = N_EVENTS + N_ANALYTIC - 1;

    // Chunk configurations so each batch matrix stays near the target row
    // count; per-row arithmetic is independent of batch composition, so
    // chunking cannot change a single bit of the predictions.
    let configs_per_chunk = (TARGET_BATCH_ROWS / n_sections).max(1);
    let mut results = Vec::with_capacity(points.len());
    for chunk in points.chunks(configs_per_chunk) {
        // Build the chunk's row block: per config, every section
        // transplanted onto that machine (+ recomputed analytic columns).
        let mut block = Matrix::zeros(chunk.len() * n_sections, cols);
        for (c, point) in chunk.iter().enumerate() {
            let factors = scale_factors(&base, &point.machine);
            let model = analytic.then(|| AnalyticModel::new(point.machine.clone()));
            for (r, rates) in rows.iter().enumerate() {
                let moved = transplant_rates(rates, &factors);
                let out = block.row_mut(c * n_sections + r);
                out[..N_EVENTS].copy_from_slice(&moved);
                if let Some(model) = &model {
                    out[N_EVENTS..].copy_from_slice(&model.features(&moved));
                }
            }
        }
        let mut preds = compiled.try_predict_batch_with(&block, par)?;
        if residual {
            for (r, p) in preds.iter_mut().enumerate() {
                *p += block.row(r)[ancpi];
            }
        }

        for (c, point) in chunk.iter().enumerate() {
            let preds = &preds[c * n_sections..(c + 1) * n_sections];
            let mut sum = 0.0;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &p in preds {
                sum += p;
                lo = lo.min(p);
                hi = hi.max(p);
            }
            // Median by predicted CPI, ties broken by row index so the
            // report is deterministic. That order is strict and total, so
            // selecting the middle row picks the one a full sort would.
            let mut order: Vec<usize> = (0..n_sections).collect();
            let (_, &mut median_row, _) =
                order.select_nth_unstable_by((n_sections - 1) / 2, |&a, &b| {
                    preds[a]
                        .partial_cmp(&preds[b])
                        .expect("finite predictions")
                        .then(a.cmp(&b))
                });
            let row = block.row(c * n_sections + median_row);

            let mut contribs = analysis::contributions(tree, row)?;
            contribs.sort_by(|a, b| {
                b.amount
                    .abs()
                    .partial_cmp(&a.amount.abs())
                    .expect("finite contributions")
                    .then(a.attr.cmp(&b.attr))
            });
            let blame: Vec<Blame> = contribs
                .iter()
                .take(spec.top_blame)
                .map(|c| Blame {
                    feature: feature_name(c.attr),
                    amount: c.amount,
                })
                .collect();
            let zero_top_blame_cpi = match contribs.first() {
                Some(top) => {
                    let mut p = analysis::what_if(tree, row, top.attr, 0.0)?;
                    if residual {
                        p += row[ancpi];
                    }
                    Some(p)
                }
                None => None,
            };

            results.push(ConfigResult {
                id: point.id,
                settings: point.settings.clone(),
                mean_cpi: sum / n_sections as f64,
                min_cpi: lo,
                max_cpi: hi,
                blame,
                zero_top_blame_cpi,
            });
        }
    }

    let mut ranking: Vec<usize> = (0..results.len()).collect();
    ranking.sort_by(|&a, &b| {
        results[a]
            .mean_cpi
            .partial_cmp(&results[b].mean_cpi)
            .expect("finite mean CPI")
            .then(a.cmp(&b))
    });

    Ok(SweepReport {
        schema: SCHEMA.to_string(),
        base_machine: spec.base_machine.clone(),
        residual,
        n_configs: results.len(),
        n_sections,
        configs: results,
        ranking,
    })
}

/// Renders the top `limit` configurations (by mean CPI) as a fixed-width
/// table, best first.
pub fn format_table(report: &SweepReport, limit: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sweep over {} configs x {} sections (base {}{})\n",
        report.n_configs,
        report.n_sections,
        report.base_machine,
        if report.residual { ", residual" } else { "" }
    ));
    out.push_str(&format!(
        "{:>5}  {:>9}  {:>9}  {:>9}  {:<28}  settings\n",
        "rank", "mean CPI", "min", "max", "top blame"
    ));
    for (rank, &id) in report.ranking.iter().take(limit).enumerate() {
        let c = &report.configs[id];
        let blame = c
            .blame
            .first()
            .map(|b| format!("{} ({:+.4})", b.feature, b.amount))
            .unwrap_or_else(|| "-".to_string());
        let settings = c
            .settings
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:>5}  {:>9.4}  {:>9.4}  {:>9.4}  {:<28}  {}\n",
            rank + 1,
            c.mean_cpi,
            c.min_cpi,
            c.max_cpi,
            blame,
            settings
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf_counters::SectionSample;
    use mtperf_mtree::M5Params;

    fn spec_json(axes: &str) -> SweepSpec {
        serde_json::from_str(&format!(r#"{{"axes": {axes}}}"#)).unwrap()
    }

    fn tiny_samples(n: usize) -> SampleSet {
        let mut set = SampleSet::new();
        for i in 0..n {
            let mut rates = [0.0; N_EVENTS];
            rates[Event::InstLd.index()] = 0.3;
            rates[Event::L1dm.index()] = 0.01 + 0.001 * (i % 7) as f64;
            rates[Event::L2m.index()] = 0.002 + 0.0015 * (i % 5) as f64;
            rates[Event::BrMisPr.index()] = 0.004 + 0.0005 * (i % 3) as f64;
            let cpi = 0.5
                + 160.0 * rates[Event::L2m.index()] / 4.0
                + 15.0 * rates[Event::BrMisPr.index()];
            set.push(SectionSample::new("w", i, cpi, rates));
        }
        set
    }

    fn fitted_tree(samples: &SampleSet) -> ModelTree {
        let data = crate::dataset_from_samples(samples).unwrap();
        ModelTree::fit(&data, &M5Params::default().with_min_instances(10)).unwrap()
    }

    #[test]
    fn enumeration_is_odometer_ordered() {
        let spec = spec_json(r#"{"l2_kb": [1024, 4096], "history_bits": [8, 12]}"#);
        let points = spec.enumerate().unwrap();
        assert_eq!(points.len(), 4);
        // history_bits (later axis) spins fastest.
        assert_eq!(points[0].settings["l2_kb"], 1024);
        assert_eq!(points[0].settings["history_bits"], 8);
        assert_eq!(points[1].settings["l2_kb"], 1024);
        assert_eq!(points[1].settings["history_bits"], 12);
        assert_eq!(points[3].settings["l2_kb"], 4096);
        // Un-swept axes pin to the base machine.
        assert_eq!(points[0].settings["l1d_kb"], 32);
        assert_eq!(points[0].machine.l2.size_bytes, 1024 * 1024);
        assert_eq!(points[3].machine.predictor.history_bits, 12);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let zero = spec_json(r#"{"l2_kb": [0]}"#);
        assert!(matches!(
            zero.enumerate().unwrap_err(),
            MtreeError::BadParams(_)
        ));
        let indivisible = spec_json(r#"{"l1d_kb": [1], "l1d_ways": [64]}"#);
        assert!(matches!(
            indivisible.enumerate().unwrap_err(),
            MtreeError::BadParams(_)
        ));
        let bad_tlb = spec_json(r#"{"dtlb1_entries": [6]}"#);
        assert!(matches!(
            bad_tlb.enumerate().unwrap_err(),
            MtreeError::BadParams(_)
        ));
        let huge = spec_json(
            r#"{"l1d_kb": [1,2,4,8,16,32,64,128,256,512],
                "l2_kb": [1,2,4,8,16,32,64,128,256,512],
                "l2_ways": [1,2,4,8],
                "dtlb1_entries": [4,8,16,32,64,128,256,512],
                "itlb_entries": [4,8,16,32,64,128,256,512],
                "history_bits": [1,2,3,4,5,6,7,8]}"#,
        );
        assert!(matches!(
            huge.enumerate().unwrap_err(),
            MtreeError::BadParams(msg) if msg.contains("limit")
        ));
        let unknown: Result<SweepSpec, _> =
            serde_json::from_str(r#"{"base_machine": "core2_duo", "axes": {"l3_kb": [1]}}"#);
        assert!(unknown.is_err());
        let bad_machine = SweepSpec {
            base_machine: "z80".into(),
            axes: SweepAxes::default(),
            top_blame: 3,
        };
        assert!(bad_machine.base().is_err());
    }

    #[test]
    fn sweep_prefers_bigger_l2_and_ranks_deterministically() {
        let samples = tiny_samples(80);
        let tree = fitted_tree(&samples);
        let spec = spec_json(r#"{"l2_kb": [512, 4096], "history_bits": [8, 12]}"#);
        let report = run(&spec, &tree, &samples, false, Parallelism::Off).unwrap();
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.n_configs, 4);
        assert_eq!(report.n_sections, 80);
        // The learned tree maps L2 misses to CPI, and the power law says a
        // smaller L2 misses more: the 512 KiB configs must predict worse.
        let mean = |id: usize| report.configs[id].mean_cpi;
        assert!(mean(0) > mean(2), "{} vs {}", mean(0), mean(2));
        assert!(mean(1) > mean(3), "{} vs {}", mean(1), mean(3));
        assert_eq!(report.best().settings["l2_kb"], 4096);
        assert_eq!(report.worst().settings["l2_kb"], 512);
        // Deterministic re-run, bit for bit.
        let again = run(&spec, &tree, &samples, false, Parallelism::Fixed(3)).unwrap();
        assert_eq!(report, again);
        // Blame names a real feature with a finite amount.
        let b = &report.best().blame;
        assert!(!b.is_empty());
        assert!(b[0].amount.is_finite());
        let table = format_table(&report, 2);
        assert!(table.contains("l2_kb=4096"), "{table}");
    }

    #[test]
    fn residual_sweep_requires_analytic_model_and_reconstructs() {
        let samples = tiny_samples(80);
        let plain = fitted_tree(&samples);
        let spec = spec_json(r#"{"l2_kb": [2048, 4096]}"#);
        assert!(matches!(
            run(&spec, &plain, &samples, true, Parallelism::Off).unwrap_err(),
            MtreeError::BadParams(_)
        ));

        let machine = MachineConfig::core2_duo();
        let data = crate::analytic::dataset_with_analytic(&samples, &machine).unwrap();
        let aug = ModelTree::fit(&data, &M5Params::default().with_min_instances(10)).unwrap();
        let report = run(&spec, &aug, &samples, true, Parallelism::Off).unwrap();
        assert_eq!(report.n_configs, 2);
        assert!(report.residual);
        assert!(report.configs.iter().all(|c| c.mean_cpi.is_finite()));
    }

    #[test]
    fn serde_roundtrip_of_report() {
        let samples = tiny_samples(40);
        let tree = fitted_tree(&samples);
        let spec = spec_json(r#"{"history_bits": [8, 16]}"#);
        let report = run(&spec, &tree, &samples, false, Parallelism::Off).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
