//! Design-space sweeps: score thousands of hypothetical machine
//! configurations through a trained model without re-simulating.
//!
//! A [`SweepSpec`] names a base machine and per-axis value lists (cache
//! size/associativity, TLB reach, predictor budget). The sweep enumerates
//! the full cross product in a canonical odometer order and moves the
//! measured counter rows onto each configuration via the documented power
//! laws ([`crate::analytic::scale_factors`]), recomputing the analytical
//! feature columns for models trained with them. Per configuration it
//! reports the predicted CPI distribution and the counters the tree blames
//! on the median section (reusing [`mtperf_mtree::analysis::contributions`]
//! and [`mtperf_mtree::analysis::what_if`]).
//!
//! It prices each distinct transplanted row once. Configurations whose
//! scale factors agree bit for bit on every column the tree reads form one
//! class ([`crate::analytic::factor_columns`] says which factors a column
//! reads; an analytic column reads them all; a factor no configuration
//! moves is left out). Within a section, a factor whose rate is zero drops
//! out, because it moves nothing. Each section's
//! distinct rows go through the compiled tree's parallel batch engine, and
//! every class is summarised and blamed once; its configurations share the
//! result. One analytic model of the base machine prices the analytic
//! columns of every row: no sweep axis moves a parameter it reads.
//!
//! Everything here is deterministic: enumeration order is fixed, grouping
//! and chunking never change per-row arithmetic, every class aggregates its
//! sections in order, and blame ties break by row index — which is what
//! lets `tests/golden/sweep.json` pin the whole report.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use serde::{de, Deserialize, Serialize, Value};

use mtperf_counters::{Event, SampleSet, N_EVENTS};
use mtperf_linalg::{Matrix, Parallelism};
use mtperf_mtree::{analysis, CompiledTree, ModelTree, MtreeError, Node};
use mtperf_sim::MachineConfig;

use crate::analytic::{
    factor_columns, scale_factors, transplant_rates, AnalyticModel, ANALYTIC_NAMES, N_ANALYTIC,
};

/// Schema tag stamped into every sweep report.
pub const SCHEMA: &str = "mtperf-sweep-v1";

/// Hard ceiling on the enumerated grid; a spec whose cross product exceeds
/// this is almost certainly a typo, and refusing it beats an OOM.
pub const MAX_CONFIGS: usize = 200_000;

/// Most rows per batch pushed through the parallel engine: large enough to
/// clear the engine's parallel cutover, small enough to bound memory.
const TARGET_BATCH_ROWS: usize = 65_536;

/// Most predictions the sweep's table holds at once: classes are priced in
/// chunks of `TABLE_ROWS / sections`, so memory stays bounded on the
/// largest grids.
const TABLE_ROWS: usize = 1 << 20;

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

/// Columns that a prediction, blame or what-if of `tree` can read: every
/// split attribute and every term of every node model (smoothing blends the
/// ancestors' models into a prediction).
fn read_columns(tree: &ModelTree) -> Vec<bool> {
    fn walk(node: &Node, read: &mut [bool]) {
        for &(attr, _) in node.model().terms() {
            read[attr] = true;
        }
        if let Node::Split {
            attr, left, right, ..
        } = node
        {
            read[*attr] = true;
            walk(left, read);
            walk(right, read);
        }
    }
    let mut read = vec![false; tree.attr_names().len()];
    walk(tree.root(), &mut read);
    read
}

/// The configurations of a sweep, grouped into classes the model cannot
/// tell apart.
///
/// A price reads the columns `read` marks, and each of those reads the
/// scale factors of [`factor_columns`]: a counter column its own (and
/// `BrPred` also `BrMisPr`'s), an analytic column every counter's. Two
/// configurations whose factors agree bit for bit on those key columns
/// therefore price every section identically. A column whose factor is
/// the same on every configuration is left out of the key: it moves no
/// row apart, and fewer key columns give fewer live masks to collapse.
struct Classes {
    /// Class of every configuration; classes are numbered in order of
    /// first occurrence.
    of: Vec<u32>,
    /// Scale factors of every class's first configuration.
    factors: Vec<[f64; N_EVENTS]>,
    /// The factor columns whose bits tell the classes apart.
    key_cols: Vec<usize>,
}

impl Classes {
    fn new(base: &MachineConfig, points: &[SweepPoint], read: &[bool]) -> Self {
        let all: Vec<[f64; N_EVENTS]> = points
            .iter()
            .map(|point| scale_factors(base, &point.machine))
            .collect();
        let varies = |k: usize| all.iter().any(|f| f[k].to_bits() != all[0][k].to_bits());
        let key_cols = (0..N_EVENTS)
            .filter(|&k| (0..read.len()).any(|j| read[j] && factor_columns(j).any(|f| f == k)))
            .filter(|&k| varies(k))
            .collect();
        let mut classes = Classes {
            of: Vec::with_capacity(points.len()),
            factors: Vec::new(),
            key_cols,
        };
        let mut index: HashMap<Vec<u64>, u32> = HashMap::new();
        for factors in all {
            let next = classes.factors.len() as u32;
            let key = classes.key_cols.iter().map(|&k| factors[k].to_bits());
            let class = *index.entry(key.collect()).or_insert(next);
            if class == next {
                classes.factors.push(factors);
            }
            classes.of.push(class);
        }
        classes
    }

    fn len(&self) -> usize {
        self.factors.len()
    }

    /// The key columns a section can move: bit `i` is set when the rate in
    /// `key_cols[i]` is nonzero after the `max(0.0)` clamp. A zero rate
    /// transplants to the same zero on every machine.
    fn live(&self, rates: &[f64]) -> u32 {
        self.key_cols
            .iter()
            .enumerate()
            .filter(|&(_, &k)| rates[k].max(0.0) != 0.0)
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// How the classes of `chunk` collapse on a section whose live key
    /// columns are `live`: classes that agree on every live column give
    /// that section the same transplanted row.
    fn collapse(&self, chunk: Range<usize>, live: u32) -> Collapse {
        if live.count_ones() as usize == self.key_cols.len() {
            // Classes differ on some key column by construction.
            let identity: Vec<u32> = (0..chunk.len() as u32).collect();
            return Collapse {
                of: identity.clone(),
                reps: identity,
            };
        }
        let mut index: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut collapse = Collapse {
            of: Vec::with_capacity(chunk.len()),
            reps: Vec::new(),
        };
        for (local, class) in chunk.enumerate() {
            let key = (self.key_cols.iter().enumerate())
                .filter(|&(i, _)| live >> i & 1 == 1)
                .map(|(_, &k)| self.factors[class][k].to_bits());
            let next = collapse.reps.len() as u32;
            let row = *index.entry(key.collect()).or_insert(next);
            if row == next {
                collapse.reps.push(local as u32);
            }
            collapse.of.push(row);
        }
        collapse
    }
}

/// The distinct rows of one section over a chunk of classes.
struct Collapse {
    /// Distinct row of every class in the chunk.
    of: Vec<u32>,
    /// The first class (chunk-local) of every distinct row.
    reps: Vec<u32>,
}

/// Appends section `rates` moved by `factors` to `out`, followed by the
/// analytic columns `model` prices for them, if any.
fn push_row(
    out: &mut Vec<f64>,
    rates: &[f64],
    factors: &[f64; N_EVENTS],
    model: Option<&AnalyticModel>,
) {
    let moved = transplant_rates(rates, factors);
    out.extend_from_slice(&moved);
    if let Some(model) = model {
        out.extend_from_slice(&model.features(&moved));
    }
}

/// Prices one chunk of classes into the prediction table, one window of
/// consecutive sections at a time.
struct Table<'a> {
    compiled: &'a CompiledTree,
    par: Parallelism,
    /// Prices the analytic columns of a model trained with them.
    analytic: Option<&'a AnalyticModel>,
    /// The `AnCpi` column a residual sweep adds to every prediction.
    ancpi: Option<usize>,
    /// Every section's measured rates.
    rows: &'a [&'a [f64]],
    /// How the chunk's classes collapse, one entry per live mask seen.
    collapses: Vec<Collapse>,
    by_mask: HashMap<u32, usize>,
    /// The first section of the window and the collapse of each of its
    /// sections.
    window_start: usize,
    window: Vec<usize>,
    /// Distinct rows in the window.
    window_rows: usize,
    /// The window's distinct transplanted rows, row-major.
    block: Vec<f64>,
    /// `cpi[class * sections + section]`, classes chunk-local. Until its
    /// window is priced, an entry holds the block row that prices it.
    cpi: Vec<f64>,
    /// Rows predicted so far.
    rows_priced: usize,
}

impl Table<'_> {
    /// Adds the next section to the window, pricing the window first when
    /// the section's distinct rows would overflow the block.
    fn add(&mut self, classes: &Classes, chunk: &Range<usize>) -> Result<(), MtreeError> {
        let section = self.window_start + self.window.len();
        let live = classes.live(self.rows[section]);
        let collapse = match self.by_mask.get(&live) {
            Some(&c) => c,
            None => {
                self.collapses.push(classes.collapse(chunk.clone(), live));
                self.by_mask.insert(live, self.collapses.len() - 1);
                self.collapses.len() - 1
            }
        };
        let n_rows = self.collapses[collapse].reps.len();
        if self.window_rows + n_rows > TARGET_BATCH_ROWS {
            self.price_window(&classes.factors[chunk.clone()])?;
        }
        self.window.push(collapse);
        self.window_rows += n_rows;
        Ok(())
    }

    /// Transplants the window's distinct rows, predicts them, and gives
    /// every class the prediction of the row it shares. `factors` are the
    /// chunk's.
    fn price_window(&mut self, factors: &[[f64; N_EVENTS]]) -> Result<(), MtreeError> {
        let (cols, sections) = (self.compiled.n_attrs(), self.rows.len());
        let window = self.window_start..self.window_start + self.window.len();
        self.block.clear();
        let mut n_rows = 0;
        // Class-major, so one class's factors stay in cache over the
        // window. A class that is not the first on its row takes the block
        // row its first class was given.
        for (class, factors) in factors.iter().enumerate() {
            for (section, &collapse) in window.clone().zip(&self.window) {
                let collapse = &self.collapses[collapse];
                let first = collapse.reps[collapse.of[class] as usize] as usize;
                if first == class {
                    push_row(&mut self.block, self.rows[section], factors, self.analytic);
                    self.cpi[class * sections + section] = n_rows as f64;
                    n_rows += 1;
                } else {
                    self.cpi[class * sections + section] = self.cpi[first * sections + section];
                }
            }
        }
        let block = Matrix::from_vec(n_rows, cols, std::mem::take(&mut self.block))?;
        let mut preds = self.compiled.try_predict_batch_with(&block, self.par)?;
        self.block = block.into_vec();
        if let Some(ancpi) = self.ancpi {
            for (p, row) in preds.iter_mut().zip(self.block.chunks_exact(cols)) {
                *p += row[ancpi];
            }
        }
        for class in 0..factors.len() {
            for p in &mut self.cpi[class * sections..][window.clone()] {
                *p = preds[*p as usize];
            }
        }
        self.rows_priced += n_rows;
        self.window_start = window.end;
        self.window.clear();
        self.window_rows = 0;
        Ok(())
    }
}

/// One class's result, shared by every configuration in the class.
struct Priced {
    mean_cpi: f64,
    min_cpi: f64,
    max_cpi: f64,
    blame: Vec<Blame>,
    zero_top_blame_cpi: Option<f64>,
}

/// Blames the median section's transplanted `row`: the `top` largest
/// contributions of its leaf model and the prediction with the largest one
/// driven to zero (plus `AnCpi` for a residual sweep).
fn blame(
    tree: &ModelTree,
    row: &[f64],
    top: usize,
    ancpi: Option<usize>,
) -> Result<(Vec<Blame>, Option<f64>), MtreeError> {
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
        .take(top)
        .map(|c| Blame {
            feature: feature_name(c.attr),
            amount: c.amount,
        })
        .collect();
    let zero_top = match contribs.first() {
        Some(first) => {
            let mut p = analysis::what_if(tree, row, first.attr, 0.0)?;
            if let Some(ancpi) = ancpi {
                p += row[ancpi];
            }
            Some(p)
        }
        None => None,
    };
    Ok((blame, zero_top))
}

/// The error for `section`, whose transplanted `row` priced to a number
/// that is not finite: it names the first column the model reads whose
/// value is not finite, or none when the values were finite and the
/// model's own arithmetic overflowed.
fn non_finite(section: usize, row: &[f64], read: &[bool]) -> MtreeError {
    let attr = (0..row.len()).find(|&j| read[j] && !row[j].is_finite());
    MtreeError::NonFiniteValue { row: section, attr }
}

/// Runs the sweep: enumerate `spec`, transplant every section in `samples`
/// onto each configuration, predict through the compiled parallel engine,
/// and blame the median section of every configuration.
///
/// Configurations the model cannot tell apart are priced once: they are
/// grouped into classes by the bits of the scale factors the tree reads
/// (an analytic column, and the `AnCpi` a residual sweep adds, read every
/// factor), and within a section every factor whose rate is zero drops
/// out. Each section's distinct rows go through the batch engine, with
/// their analytic columns priced by one model of the base machine; the
/// mean, extremes, median and blame then run once per class, on the values
/// and in the order a row-by-row pricing would use, so the report is the
/// same bytes.
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
/// the 20 counters nor counters+analytic, [`MtreeError::NonFiniteValue`]
/// when a section prices to a prediction, mean or blame that is not finite
/// (`row` is the section, `attr` the first column the model reads whose
/// transplanted value is not finite, if any), and engine failures from
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
    let mut span = mtperf_obs::span("sweep");
    span.annotate_num("configs", points.len() as f64);
    span.annotate_num("sections", samples.len() as f64);

    let rows: Vec<&[f64]> = samples.iter().map(|s| s.as_row()).collect();
    let n_sections = rows.len();
    let read = read_columns(tree);
    let ancpi = residual.then_some(N_EVENTS + N_ANALYTIC - 1);
    // A residual price also adds `AnCpi`, whether or not the tree reads it.
    let mut price_read = read.clone();
    if let Some(ancpi) = ancpi {
        price_read[ancpi] = true;
    }
    let classes = Classes::new(&base, &points, &price_read);
    let model = analytic.then(|| AnalyticModel::new(base));

    // Classes are priced in chunks so the table holds at most TABLE_ROWS
    // predictions, and one section's distinct rows always fit one block.
    let chunk_len = (TABLE_ROWS / n_sections).clamp(1, TARGET_BATCH_ROWS);
    let mut table = Table {
        compiled: &compiled,
        par,
        analytic: model.as_ref(),
        ancpi,
        rows: &rows,
        collapses: Vec::new(),
        by_mask: HashMap::new(),
        window_start: 0,
        window: Vec::new(),
        window_rows: 0,
        block: Vec::new(),
        cpi: vec![0.0; chunk_len.min(classes.len()) * n_sections],
        rows_priced: 0,
    };
    let mut priced = Vec::with_capacity(classes.len());
    let (mut order, mut median_row) = (Vec::with_capacity(n_sections), Vec::new());
    for start in (0..classes.len()).step_by(chunk_len) {
        let chunk = start..(start + chunk_len).min(classes.len());
        table.collapses.clear();
        table.by_mask.clear();
        table.window_start = 0;
        for _ in 0..n_sections {
            table.add(&classes, &chunk)?;
        }
        table.price_window(&classes.factors[chunk.clone()])?;

        for (local, class) in chunk.enumerate() {
            let cpi = &table.cpi[local * n_sections..(local + 1) * n_sections];
            let mut sum = 0.0;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (section, &p) in cpi.iter().enumerate() {
                sum += p;
                lo = lo.min(p);
                hi = hi.max(p);
                if !sum.is_finite() {
                    median_row.clear();
                    let (rates, factors) = (rows[section], &classes.factors[class]);
                    push_row(&mut median_row, rates, factors, model.as_ref());
                    return Err(non_finite(section, &median_row, &read));
                }
            }
            // Median by predicted CPI, ties broken by row index so the
            // report is deterministic. That order is strict and total, so
            // selecting the middle row picks the one a full sort would.
            order.clear();
            order.extend(cpi.iter().copied().zip(0..n_sections));
            let (_, &mut (_, median), _) = order
                .select_nth_unstable_by((n_sections - 1) / 2, |a, b| {
                    (a.0.partial_cmp(&b.0).expect("finite predictions")).then(a.1.cmp(&b.1))
                });
            median_row.clear();
            push_row(
                &mut median_row,
                rows[median],
                &classes.factors[class],
                model.as_ref(),
            );
            let (blame, zero_top_blame_cpi) = blame(tree, &median_row, spec.top_blame, ancpi)?;
            if blame.iter().any(|b| !b.amount.is_finite())
                || zero_top_blame_cpi.is_some_and(|p| !p.is_finite())
            {
                return Err(non_finite(median, &median_row, &read));
            }
            priced.push(Priced {
                mean_cpi: sum / n_sections as f64,
                min_cpi: lo,
                max_cpi: hi,
                blame,
                zero_top_blame_cpi,
            });
        }
    }
    span.add("classes", classes.len() as u64);
    span.add("rows_priced", table.rows_priced as u64);
    mtperf_obs::add("sweep.config_classes", classes.len() as u64);
    mtperf_obs::add("sweep.rows_priced", table.rows_priced as u64);

    let results: Vec<ConfigResult> = points
        .into_iter()
        .zip(&classes.of)
        .map(|(point, &class)| {
            let p = &priced[class as usize];
            ConfigResult {
                id: point.id,
                settings: point.settings,
                mean_cpi: p.mean_cpi,
                min_cpi: p.min_cpi,
                max_cpi: p.max_cpi,
                blame: p.blame.clone(),
                zero_top_blame_cpi: p.zero_top_blame_cpi,
            }
        })
        .collect();
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

    #[test]
    fn configs_the_tree_cannot_tell_apart_share_a_class() {
        let samples = tiny_samples(80);
        let tree = fitted_tree(&samples);
        let read = read_columns(&tree);
        assert!(
            !read[Event::L1im.index()],
            "the fixture never misses in the L1I"
        );
        let spec = spec_json(r#"{"l1i_kb": [16, 32, 64], "l2_kb": [1024, 4096]}"#);
        let base = spec.base().unwrap();
        let points = spec.enumerate().unwrap();
        // The L1I axis moves only a column the tree never reads, and of
        // the columns it reads only the L2's factor moves.
        let plain = Classes::new(&base, &points, &read);
        assert_eq!((points.len(), plain.len()), (6, 2));
        assert_eq!(plain.of, [0, 1, 0, 1, 0, 1]);
        assert_eq!(plain.key_cols, [Event::L2m.index()]);
        // A model with analytic columns that reads none of them keys like
        // the plain one.
        let mut wide = read.clone();
        wide.resize(N_EVENTS + N_ANALYTIC, false);
        let unread = Classes::new(&base, &points, &wide);
        assert_eq!((&unread.of, &unread.key_cols), (&plain.of, &plain.key_cols));
        // An analytic column, or the `AnCpi` a residual sweep adds, reads
        // every counter's factor, the L1I's too; the factors no
        // configuration moves are no keys.
        for col in [N_EVENTS, N_EVENTS + N_ANALYTIC - 1] {
            let mut analytic = wide.clone();
            analytic[col] = true;
            let classes = Classes::new(&base, &points, &analytic);
            assert_eq!(classes.len(), 6, "column {col}");
            assert_eq!(classes.key_cols, [Event::L1im.index(), Event::L2m.index()]);
        }

        // A section with no L2 misses cannot tell the L2 sizes apart.
        let mut rates = [0.0; N_EVENTS];
        rates[Event::BrMisPr.index()] = 0.01;
        let live = plain.live(&rates);
        let collapse = plain.collapse(0..2, live);
        assert_eq!((collapse.of, collapse.reps), (vec![0, 0], vec![0]));
        rates[Event::L2m.index()] = -0.0;
        assert_eq!(plain.live(&rates), live);
        rates[Event::L2m.index()] = 0.002;
        let collapse = plain.collapse(0..2, plain.live(&rates));
        assert_eq!((collapse.of, collapse.reps), (vec![0, 1], vec![0, 1]));
    }
}
