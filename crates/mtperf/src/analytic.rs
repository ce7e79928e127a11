//! Per-component analytical CPI estimators — the cheap, closed-form half
//! of Concorde-style compositional fusion.
//!
//! [`AnalyticModel`] prices the Table-I counter rates of a section in
//! cycles per instruction using only the [`MachineConfig`] parameters: a
//! queueing-flavored cache/TLB miss-penalty estimate, branch-resolution
//! latency shadowed by memory-boundedness, and front-end stall charges.
//! The estimates are the *expectation* form of the simulator's
//! cycle-accounting model (`crates/sim/src/cycle.rs`): where the simulator
//! prices each instruction's event outcomes with its instantaneous ILP and
//! memory-boundedness, the analytical model prices the section's mean
//! rates with fixed expectation factors. It is deliberately wrong in the
//! interaction-heavy regimes — that residual is exactly what the model
//! tree is asked to learn (see [`mtperf_mtree::ResidualLearner`]).
//!
//! The per-component estimates are appended to the learning problem as
//! derived columns ([`dataset_with_analytic`]) behind the CLI's
//! `--features analytic` flag; with the flag off the ingest path does not
//! touch this module, so baseline training stays bit-identical.
//!
//! The module also hosts the design-space half of the fusion:
//! [`scale_factors`]/[`transplant_rates`] move a measured counter row onto
//! a hypothetical machine via documented power laws, so `mtperf sweep` can
//! score thousands of configurations without re-simulating.

use mtperf_counters::{Event, N_EVENTS};
use mtperf_mtree::{Dataset, MtreeError};
use mtperf_sim::{CacheGeometry, MachineConfig, TlbGeometry};

/// Number of derived analytical columns appended by
/// [`dataset_with_analytic`].
pub const N_ANALYTIC: usize = 6;

/// Names of the derived columns, in append order: the per-component cycle
/// estimates and their sum `AnCpi` (the analytical CPI prediction, which is
/// also the residual baseline column).
pub const ANALYTIC_NAMES: [&str; N_ANALYTIC] =
    ["AnBase", "AnFront", "AnMem", "AnTlb", "AnBr", "AnCpi"];

/// Expected reciprocal dependency distance. The counters carry no ILP
/// measurement, so the per-instruction dependency-stall charge uses a fixed
/// expectation (the simulator's workload mixes average `E[1/dep] ≈ 0.35`).
const ILP_RECIP: f64 = 0.35;

/// Fraction of an L1-miss/L2-hit latency exposed after out-of-order
/// hiding (the cycle model hides `min(0.12·dep, 0.85)`; at `dep ≈ 5` about
/// 40 % of the latency reaches retirement).
const L1_EXPOSED: f64 = 0.4;

/// Fraction of a data-side page walk exposed outside the cache-miss shadow
/// (the cycle model overlaps the walk with the line fetch, exposing the
/// max plus a quarter of the min).
const WALK_EXPOSED: f64 = 0.75;

/// Fraction of an ITLB walk that stalls the front end (matches the cycle
/// model's `itlb_walk * 0.9` charge).
const ITLB_EXPOSED: f64 = 0.9;

/// Utilization cap for the memory-queueing estimate: beyond this the
/// closed-form M/D/1 wait diverges, which a finite machine never does.
const MAX_UTILIZATION: f64 = 0.9;

/// Per-component analytical cycle estimates for one section, in cycles per
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Components {
    /// Issue bandwidth plus expected dependency stalls.
    pub base: f64,
    /// Front-end stalls: instruction-cache misses, ITLB walks, LCP stalls.
    pub frontend: f64,
    /// Data-side memory stalls: cache misses under MLP/queueing, load
    /// blocks, split and misaligned accesses.
    pub memory: f64,
    /// Data-side TLB stalls: micro-TLB refills and exposed page walks.
    pub tlb: f64,
    /// Branch-resolution latency, shadowed by memory-boundedness.
    pub branch: f64,
}

impl Components {
    /// Total analytical CPI: the sum of the components.
    pub fn cpi(&self) -> f64 {
        self.base + self.frontend + self.memory + self.tlb + self.branch
    }
}

/// Closed-form CPI estimator for a machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticModel {
    cfg: MachineConfig,
}

impl AnalyticModel {
    /// Creates an estimator for `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        AnalyticModel { cfg }
    }

    /// The machine the estimator prices for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Prices a section's counter rates (`rates[Event::index()]`, at least
    /// [`N_EVENTS`] long; extra columns are ignored) into per-component
    /// cycle estimates. Negative rates (possible after aggressive repair
    /// policies) are clamped to zero.
    pub fn components(&self, rates: &[f64]) -> Components {
        let cfg = &self.cfg;
        let r = |e: Event| rates[e.index()].max(0.0);

        let base = 1.0 / cfg.issue_width + cfg.dep_stall_coeff * ILP_RECIP;

        // Data-side cache hierarchy. L2 misses overlap up to max_mlp deep
        // in the best case; the M/D/1-style wait term prices the queueing
        // that sets in when miss traffic saturates the overlap capacity.
        let l2m = r(Event::L2m);
        let l1_only = (r(Event::L1dm) - l2m).max(0.0);
        let service = cfg.lat_mem / cfg.max_mlp;
        let utilization = (l2m * service).min(MAX_UTILIZATION);
        let queue = 1.0 + utilization / (2.0 * (1.0 - utilization));
        let mut memory = l1_only * cfg.lat_l2 * L1_EXPOSED + l2m * service * queue;
        memory += cfg.ld_block_penalty
            * (r(Event::LdBlSta) + 0.8 * r(Event::LdBlStd) + 1.2 * r(Event::LdBlOvSt));
        memory += cfg.split_penalty * (r(Event::L1dSpLd) + r(Event::L1dSpSt));
        memory += cfg.misalign_penalty * r(Event::MisalRef);

        // Data-side TLB: micro-TLB refills that hit the big TLB, plus the
        // exposed fraction of full page walks.
        let l0_refills = (r(Event::DtlbL0LdM) - r(Event::DtlbLdM)).max(0.0);
        let tlb = l0_refills * cfg.dtlb0_penalty + r(Event::DtlbLdM) * cfg.page_walk * WALK_EXPOSED;

        // Front end: an instruction miss that also misses the L2 drains to
        // memory with nothing to overlap it. The counters do not split
        // instruction L2 misses out, so the data-side L2-miss ratio stands
        // in for the shared-L2 pressure.
        let l1dm = r(Event::L1dm);
        let i_to_mem = if l1dm > 0.0 {
            (l2m / l1dm).min(1.0)
        } else {
            0.0
        };
        let frontend = r(Event::L1im)
            * ((1.0 - i_to_mem) * 0.8 * cfg.lat_l2 + i_to_mem * cfg.lat_mem)
            + r(Event::ItlbM) * cfg.itlb_walk * ITLB_EXPOSED
            + r(Event::Lcp) * cfg.lcp_stall;

        // Branch flushes recover partly inside the memory-stall shadow;
        // the memory share of the pre-branch CPI proxies the cycle model's
        // memory-boundedness EWMA.
        let pre_branch = base + frontend + memory + tlb;
        let membound = if pre_branch > 0.0 {
            ((memory + tlb) / pre_branch).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let branch = r(Event::BrMisPr) * cfg.mispredict_penalty * (1.0 - 0.5 * membound);

        Components {
            base,
            frontend,
            memory,
            tlb,
            branch,
        }
    }

    /// Total analytical CPI for a section's counter rates.
    pub fn cpi(&self, rates: &[f64]) -> f64 {
        self.components(rates).cpi()
    }

    /// The derived feature values for one row, in [`ANALYTIC_NAMES`] order.
    pub fn features(&self, rates: &[f64]) -> [f64; N_ANALYTIC] {
        let c = self.components(rates);
        [c.base, c.frontend, c.memory, c.tlb, c.branch, c.cpi()]
    }
}

/// Builds the augmented learning problem: the 20 Table-I counter columns
/// plus the [`N_ANALYTIC`] derived analytical columns priced for `machine`.
///
/// This is a separate ingest path from [`crate::dataset_from_samples`]; the
/// baseline path never calls into this module, which is what keeps
/// `--features analytic` off bit-identical to previous releases.
///
/// # Errors
///
/// The constructor errors of [`Dataset::from_rows`]
/// ([`MtreeError::EmptyDataset`], [`MtreeError::NonFiniteValue`], …).
pub fn dataset_with_analytic(
    samples: &mtperf_counters::SampleSet,
    machine: &MachineConfig,
) -> Result<Dataset, MtreeError> {
    let (mut names, rows, targets) = samples.to_learning_parts();
    names.extend(ANALYTIC_NAMES.iter().map(|s| s.to_string()));
    let model = AnalyticModel::new(machine.clone());
    let augmented: Vec<Vec<f64>> = rows
        .iter()
        .map(|rates| {
            let mut row = rates.to_vec();
            row.extend_from_slice(&model.features(rates));
            row
        })
        .collect();
    Dataset::from_rows(names, &augmented, &targets)
}

/// Returns the index of the `AnCpi` column in `data`, or a typed error
/// explaining that the dataset was ingested without analytic features.
///
/// # Errors
///
/// [`MtreeError::BadParams`] when the column is absent.
pub fn ancpi_index(data: &Dataset) -> Result<usize, MtreeError> {
    data.attr_index("AnCpi").ok_or_else(|| {
        MtreeError::BadParams(
            "residual mode needs the AnCpi column; ingest with --features analytic".to_string(),
        )
    })
}

/// Conflict-miss factor of a set-associative structure: misses rise as
/// associativity drops. Shared by the cache and TLB power laws.
fn assoc_term(ways: u32) -> f64 {
    1.0 + 0.3 / f64::from(ways.max(1))
}

/// Miss-rate factor for moving a cache from geometry `base` to `variant`:
/// the √2 rule (miss rate ∝ capacity^−½) times the conflict term.
fn cache_factor(base: &CacheGeometry, variant: &CacheGeometry) -> f64 {
    let capacity = (base.size_bytes as f64 / variant.size_bytes as f64).sqrt();
    capacity * assoc_term(variant.ways) / assoc_term(base.ways)
}

/// Miss-rate factor for a TLB: reach scales linearly with entries but
/// locality flattens the tail (entries^−0.7), times the conflict term.
fn tlb_factor(base: &TlbGeometry, variant: &TlbGeometry) -> f64 {
    let reach = (f64::from(base.entries) / f64::from(variant.entries)).powf(0.7);
    reach * assoc_term(variant.ways) / assoc_term(base.ways)
}

/// Misprediction factor for a global-history predictor budget: each extra
/// history bit quarters-of-halves the mispredict rate (2^−0.25 per bit).
fn predictor_factor(base_bits: u32, variant_bits: u32) -> f64 {
    2.0_f64.powf(-0.25 * (f64::from(variant_bits) - f64::from(base_bits)))
}

/// Per-event multiplicative factors for transplanting counter rates
/// measured on `base` onto a hypothetical `variant` machine. Events not
/// governed by any swept structure keep factor 1.
pub fn scale_factors(base: &MachineConfig, variant: &MachineConfig) -> [f64; N_EVENTS] {
    let mut f = [1.0; N_EVENTS];
    f[Event::L1dm.index()] = cache_factor(&base.l1d, &variant.l1d);
    f[Event::L1im.index()] = cache_factor(&base.l1i, &variant.l1i);
    f[Event::L2m.index()] = cache_factor(&base.l2, &variant.l2);
    f[Event::DtlbL0LdM.index()] = tlb_factor(&base.dtlb0, &variant.dtlb0);
    let big = tlb_factor(&base.dtlb1, &variant.dtlb1);
    f[Event::DtlbLdM.index()] = big;
    f[Event::DtlbLdReM.index()] = big;
    f[Event::Dtlb.index()] = big;
    f[Event::ItlbM.index()] = tlb_factor(&base.itlb, &variant.itlb);
    f[Event::BrMisPr.index()] =
        predictor_factor(base.predictor.history_bits, variant.predictor.history_bits);
    f
}

/// Applies [`scale_factors`] to one measured counter row, conserving the
/// branch count: mispredicts converted away by a bigger predictor reappear
/// as correct predictions (and vice versa, floored at zero).
pub fn transplant_rates(rates: &[f64], factors: &[f64; N_EVENTS]) -> [f64; N_EVENTS] {
    let mut out = [0.0; N_EVENTS];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = rates[i].max(0.0) * factors[i];
    }
    let before = rates[Event::BrMisPr.index()].max(0.0);
    let after = out[Event::BrMisPr.index()];
    let pred = Event::BrPred.index();
    out[pred] = (out[pred] + before - after).max(0.0);
    out
}

/// The factor columns that column `col` of a transplanted row reads. A
/// counter column of [`transplant_rates`] reads its own, and `BrPred` also
/// `BrMisPr`'s, because the mispredicts a predictor removes reappear as
/// correct predictions. An analytic column (`col >= N_EVENTS`, in
/// [`ANALYTIC_NAMES`] order) reads every counter's, because
/// [`AnalyticModel::features`] takes the whole transplanted row.
///
/// A factor column whose measured rate is zero after the `max(0.0)` clamp
/// cannot move the result: [`scale_factors`] are finite and positive, so
/// `0 × factor` is the same zero on every machine. Two machines whose
/// factors agree on every column read with a nonzero rate therefore get
/// bit-identical values in `col`; `mtperf sweep` prices such machines once.
/// For the analytic columns this also needs the base machine's
/// [`AnalyticModel`] to price every swept machine, which holds because no
/// sweep axis moves a parameter [`AnalyticModel::components`] reads.
pub fn factor_columns(col: usize) -> impl Iterator<Item = usize> {
    let own = if col < N_EVENTS {
        col..col + 1
    } else {
        0..N_EVENTS
    };
    let branch = (col == Event::BrPred.index()).then_some(Event::BrMisPr.index());
    own.chain(branch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf_counters::SectionSample;

    fn core2() -> AnalyticModel {
        AnalyticModel::new(MachineConfig::core2_duo())
    }

    fn rates_with(pairs: &[(Event, f64)]) -> [f64; N_EVENTS] {
        let mut r = [0.0; N_EVENTS];
        for &(e, v) in pairs {
            r[e.index()] = v;
        }
        r
    }

    #[test]
    fn clean_section_costs_the_issue_floor() {
        let m = core2();
        let c = m.components(&[0.0; N_EVENTS]);
        assert!(c.base > 0.25 && c.base < 0.5, "{c:?}");
        assert_eq!(c.frontend, 0.0);
        assert_eq!(c.memory, 0.0);
        assert_eq!(c.tlb, 0.0);
        assert_eq!(c.branch, 0.0);
        assert_eq!(c.cpi(), c.base);
    }

    #[test]
    fn l2_misses_dominate_and_queue() {
        let m = core2();
        let light = m.cpi(&rates_with(&[(Event::L1dm, 0.011), (Event::L2m, 0.001)]));
        let heavy = m.cpi(&rates_with(&[(Event::L1dm, 0.04), (Event::L2m, 0.03)]));
        assert!(heavy > light + 0.5, "{heavy} vs {light}");
        // Queueing makes cost superlinear in the miss rate.
        let double = m.cpi(&rates_with(&[(Event::L1dm, 0.08), (Event::L2m, 0.06)]));
        assert!(
            double > 2.0 * heavy - m.cpi(&[0.0; N_EVENTS]),
            "{double} vs {heavy}"
        );
    }

    #[test]
    fn branch_cost_shrinkss_when_memory_bound() {
        let m = core2();
        let br = rates_with(&[(Event::BrMisPr, 0.01)]);
        let lone = m.components(&br).branch;
        let shadowed = m
            .components(&rates_with(&[(Event::BrMisPr, 0.01), (Event::L2m, 0.05)]))
            .branch;
        assert!(shadowed < lone, "{shadowed} vs {lone}");
        assert!(shadowed > 0.5 * lone - 1e-12);
    }

    #[test]
    fn machine_parameters_move_the_estimate() {
        let rates = rates_with(&[
            (Event::L1dm, 0.02),
            (Event::L2m, 0.01),
            (Event::BrMisPr, 0.008),
            (Event::L1im, 0.005),
        ]);
        let core2 = core2().cpi(&rates);
        let netburst = AnalyticModel::new(MachineConfig::netburst_like()).cpi(&rates);
        // Narrower issue and a costlier flush must price the same counters
        // higher.
        assert!(netburst > core2, "{netburst} vs {core2}");
    }

    #[test]
    fn features_are_components_plus_total() {
        let m = core2();
        let rates = rates_with(&[(Event::L2m, 0.01), (Event::Lcp, 0.02)]);
        let f = m.features(&rates);
        let c = m.components(&rates);
        assert_eq!(f[0], c.base);
        assert_eq!(f[1], c.frontend);
        assert_eq!(f[2], c.memory);
        assert_eq!(f[3], c.tlb);
        assert_eq!(f[4], c.branch);
        assert_eq!(f[5], c.cpi());
        assert_eq!(ANALYTIC_NAMES.len(), N_ANALYTIC);
    }

    #[test]
    fn augmented_dataset_extends_the_columns() {
        let mut set = mtperf_counters::SampleSet::new();
        let mut rates = [0.0; N_EVENTS];
        rates[Event::L2m.index()] = 0.01;
        set.push(SectionSample::new("w", 0, 1.5, rates));
        let machine = MachineConfig::core2_duo();
        let d = dataset_with_analytic(&set, &machine).unwrap();
        assert_eq!(d.n_attrs(), N_EVENTS + N_ANALYTIC);
        assert_eq!(d.attr_name(N_EVENTS), "AnBase");
        assert_eq!(ancpi_index(&d).unwrap(), N_EVENTS + N_ANALYTIC - 1);
        let expect = AnalyticModel::new(machine).cpi(&rates);
        assert_eq!(d.value(0, N_EVENTS + N_ANALYTIC - 1), expect);

        let plain = crate::dataset_from_samples(&set).unwrap();
        assert!(ancpi_index(&plain).is_err());
    }

    #[test]
    fn scale_factors_follow_the_power_laws() {
        let base = MachineConfig::core2_duo();
        let mut bigger = base.clone();
        bigger.l2.size_bytes *= 4;
        let f = scale_factors(&base, &bigger);
        // 4x the capacity halves the L2 miss rate (capacity^-1/2).
        assert!((f[Event::L2m.index()] - 0.5).abs() < 1e-12);
        // Untouched structures keep factor 1.
        assert_eq!(f[Event::L1dm.index()], 1.0);
        assert_eq!(f[Event::InstLd.index()], 1.0);

        let mut smaller_tlb = base.clone();
        smaller_tlb.dtlb1.entries /= 4;
        let f = scale_factors(&base, &smaller_tlb);
        assert!(f[Event::DtlbLdM.index()] > 1.0);
        assert_eq!(f[Event::DtlbLdM.index()], f[Event::Dtlb.index()],);

        let mut better_bp = base.clone();
        better_bp.predictor.history_bits += 4;
        let f = scale_factors(&base, &better_bp);
        assert!((f[Event::BrMisPr.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transplant_conserves_branch_count() {
        let base = MachineConfig::core2_duo();
        let mut better_bp = base.clone();
        better_bp.predictor.history_bits += 4;
        let f = scale_factors(&base, &better_bp);
        let rates = rates_with(&[(Event::BrMisPr, 0.02), (Event::BrPred, 0.18)]);
        let out = transplant_rates(&rates, &f);
        let before = rates[Event::BrMisPr.index()] + rates[Event::BrPred.index()];
        let after = out[Event::BrMisPr.index()] + out[Event::BrPred.index()];
        assert!((before - after).abs() < 1e-12, "{before} vs {after}");
        assert!(out[Event::BrMisPr.index()] < rates[Event::BrMisPr.index()]);
    }

    #[test]
    fn transplanted_columns_read_only_their_factor_columns() {
        let base = MachineConfig::core2_duo();
        let mut variants = vec![base.clone()];
        for (l1d, l2, history, dtlb) in [(16, 512, 8, 128), (64, 4096, 16, 512)] {
            let mut m = base.clone();
            m.l1d.size_bytes = l1d * 1024;
            m.l1i.size_bytes = l1d * 1024;
            m.l2.size_bytes = l2 * 1024;
            m.predictor.history_bits = history;
            m.dtlb1.entries = dtlb;
            m.itlb.entries = dtlb / 2;
            variants.push(m);
        }
        let factors: Vec<[f64; N_EVENTS]> =
            variants.iter().map(|v| scale_factors(&base, v)).collect();
        // The whole row a sweep prices: the transplanted counters, then the
        // analytic columns of the base machine's model.
        let model = AnalyticModel::new(base.clone());
        let row = |rates: &[f64], factors: &[f64; N_EVENTS]| {
            let moved = transplant_rates(rates, factors);
            let mut row = moved.to_vec();
            row.extend_from_slice(&model.features(&moved));
            row
        };
        // Every rate sign the repair policies can leave, on every column.
        for value in [0.0, -0.0, -0.02, 0.03, 1.5] {
            for zeroed in 0..=N_EVENTS {
                let mut rates = [0.011_f64; N_EVENTS];
                if zeroed < N_EVENTS {
                    rates[zeroed] = value;
                }
                for (a, fa) in factors.iter().enumerate() {
                    for fb in &factors {
                        // `mixed` takes `fb` on the columns `col` reads with a
                        // nonzero rate and `fa` everywhere else; `col` must
                        // come out as it does under `fb` alone.
                        for col in 0..N_EVENTS + N_ANALYTIC {
                            let mut mixed = *fa;
                            for k in factor_columns(col) {
                                if rates[k].max(0.0) != 0.0 {
                                    mixed[k] = fb[k];
                                }
                            }
                            let got = row(&rates, &mixed)[col];
                            let want = row(&rates, fb)[col];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "column {col}, variant {a}, rate {value} on column {zeroed}"
                            );
                        }
                    }
                }
            }
        }
        let pred = Event::BrPred.index();
        assert_eq!(
            factor_columns(pred).collect::<Vec<_>>(),
            vec![pred, Event::BrMisPr.index()]
        );
        assert_eq!(factor_columns(0).collect::<Vec<_>>(), vec![0]);
        for col in N_EVENTS..N_EVENTS + N_ANALYTIC {
            assert_eq!(
                factor_columns(col).collect::<Vec<_>>(),
                (0..N_EVENTS).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn no_sweep_axis_moves_the_analytic_model() {
        // `mtperf sweep` prices the analytic columns of every configuration
        // with the base machine's model, which holds only while no axis
        // moves a parameter `components` reads.
        let rows = [
            [0.0; N_EVENTS],
            [-0.0; N_EVENTS],
            [0.011; N_EVENTS],
            [-0.02; N_EVENTS],
            [1e300; N_EVENTS],
            [f64::MAX; N_EVENTS],
            rates_with(&[
                (Event::L1dm, 0.02),
                (Event::L2m, 0.03),
                (Event::BrMisPr, -0.01),
                (Event::L1im, 1.7e308),
            ]),
        ];
        for name in ["core2_duo", "netburst_like", "tiny"] {
            let base = crate::sweep::machine_by_name(name).unwrap();
            // Doubling keeps every geometry valid and 12 history bits within
            // the 24-bit limit.
            let axes: Vec<String> = crate::sweep::AXIS_NAMES
                .iter()
                .map(|&axis| {
                    let value = match axis {
                        "l1d_kb" => base.l1d.size_bytes / 1024,
                        "l1d_ways" => u64::from(base.l1d.ways),
                        "l1i_kb" => base.l1i.size_bytes / 1024,
                        "l2_kb" => base.l2.size_bytes / 1024,
                        "l2_ways" => u64::from(base.l2.ways),
                        "dtlb1_entries" => u64::from(base.dtlb1.entries),
                        "itlb_entries" => u64::from(base.itlb.entries),
                        "history_bits" => u64::from(base.predictor.history_bits),
                        other => panic!("no test values for sweep axis {other}"),
                    };
                    format!(r#""{axis}": [{value}, {}]"#, 2 * value)
                })
                .collect();
            let spec: crate::sweep::SweepSpec = serde_json::from_str(&format!(
                r#"{{"base_machine": "{name}", "axes": {{{}}}}}"#,
                axes.join(", ")
            ))
            .unwrap();
            let points = spec.enumerate().unwrap();
            assert_eq!(points.len(), 1 << crate::sweep::AXIS_NAMES.len());
            let want = AnalyticModel::new(base);
            for point in &points {
                let got = AnalyticModel::new(point.machine.clone());
                for rates in &rows {
                    assert_eq!(
                        got.features(rates).map(f64::to_bits),
                        want.features(rates).map(f64::to_bits),
                        "{name}, configuration {}, rates {rates:?}",
                        point.id
                    );
                }
            }
        }
    }

    #[test]
    fn identity_transplant_is_identity() {
        let base = MachineConfig::core2_duo();
        let f = scale_factors(&base, &base);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-15));
        let rates = rates_with(&[(Event::L2m, 0.01), (Event::BrMisPr, 0.005)]);
        let out = transplant_rates(&rates, &f);
        for i in 0..N_EVENTS {
            assert!((out[i] - rates[i]).abs() < 1e-15);
        }
    }
}
