//! Fleet federation: hierarchical roll-up of telemetry snapshots at
//! 10,000-site scale.
//!
//! The paper's experiment is one ~7-site federation, and
//! [`crate::iris::IrisScenario`] simulates it by looping sites serially
//! (parallelism lives *inside* each site's collect). That inversion is
//! wrong once "all sites" means tens of thousands of mostly-small
//! machine rooms: the per-site work is microseconds, so the win is many
//! **sites** in flight, not many workers per site. This module inverts
//! the sharding:
//!
//! * a [`FleetScenario`] holds the rack → site → region → fleet
//!   hierarchy as flat site configs tagged with region indexes, in
//!   region-major order (the canonical enumeration
//!   [`iriscast_inventory::FederatedFleet`] defines);
//! * [`FleetScenario::try_simulate`] shards **sites** across the one
//!   process-wide persistent worker pool
//!   ([`iriscast_telemetry::par::pool_fill_indexed`]); each site collects
//!   with `workers = 1` (inline on the claiming worker — no nested
//!   dispatch) using that worker's own recycled
//!   [`CollectScratch`] arena
//!   ([`CollectScratch::with_thread_local`]) — one arena per worker,
//!   not per call;
//! * each site's [`iriscast_telemetry::SiteTelemetryResult`] is reduced
//!   to a compact [`SiteRollup`] on the worker and its buffers recycled
//!   immediately, so the fleet never materialises 10,000 full power
//!   series;
//! * the per-site rollups stream into a columnar [`FleetRollup`] whose
//!   quantile queries reuse the cached-sort machinery of
//!   [`crate::stats_view`] (one `OnceLock`-guarded sorted copy,
//!   [`iriscast_grid::stats::percentile_sorted`] interpolation).
//!
//! Sharding is bit-invariant: every site collects with one worker
//! whichever pool thread claims it, and the final fold visits slots in
//! site order, so `try_simulate(1)` and `try_simulate(16)` produce
//! identical bits — the property suites in `tests/properties.rs` pin
//! this against independently collected sites.
//!
//! # Example
//!
//! ```
//! use iriscast_model::federation::FleetScenario;
//!
//! // A toy federation: 2 regions × 3 sites × 4 nodes.
//! let fleet = FleetScenario::synthetic(2, 3, 4, 0xF1EE7);
//! let rollup = fleet.try_simulate(4).unwrap();
//! assert_eq!(rollup.site_count(), 6);
//! assert_eq!(rollup.total_nodes(), 24);
//! let median = rollup.percentile(0.5).unwrap();
//! assert!(median.kilowatt_hours() > 0.0);
//! ```

use crate::error::{Error, Result};
use crate::iris::IrisScenario;
use iriscast_grid::stats;
use iriscast_telemetry::par::pool_fill_indexed;
use iriscast_telemetry::{
    CollectScratch, EnergyByMethod, MeterKind, NodeGroupTelemetry, NodePowerModel, SiteCollector,
    SiteTelemetryConfig, SiteTelemetryResult, SyntheticUtilization, TelemetryResult,
};
use iriscast_units::{Energy, Period, Power, SimDuration};
use std::sync::OnceLock;

/// One site of a federated scenario: a collector config tagged with the
/// region it rolls up into.
#[derive(Clone, Debug)]
pub struct FleetSite {
    /// Index into [`FleetScenario::region_codes`].
    pub region: u32,
    /// Collector configuration (groups, methods, coverage, seed).
    pub config: SiteTelemetryConfig,
    /// Utilisation source driving the site's nodes.
    pub utilization: SyntheticUtilization,
}

/// A simulatable federation: the site → region → fleet hierarchy with
/// everything each site's collector needs, held in region-major site
/// order.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Region short codes; [`FleetSite::region`] indexes this list.
    pub region_codes: Vec<String>,
    /// Sites in region-major order — the canonical enumeration every
    /// shard assignment and columnar statistic uses.
    pub sites: Vec<FleetSite>,
    /// Snapshot window shared by every site.
    pub period: Period,
}

impl FleetScenario {
    /// A synthetic hyperscale federation: `regions × sites_per_region`
    /// small sites of `nodes_per_site` nodes each, PDU-metered, sampled
    /// hourly over the 24-hour snapshot window. Site utilisations vary
    /// deterministically with `seed`, so the fleet has a real spread for
    /// the quantile queries to resolve.
    ///
    /// This is the "Chasing Carbon" shape — thousands of rooms of a few
    /// racks — as opposed to the paper's seven large HPC sites; the
    /// `fleet_federation` bench simulates 10,000 of these in the same
    /// order of time as the 7-site IRIS snapshot.
    pub fn synthetic(regions: u32, sites_per_region: u32, nodes_per_site: u32, seed: u64) -> Self {
        let region_codes = (0..regions).map(|r| format!("R{r:03}")).collect();
        let mut sites = Vec::with_capacity((regions as usize) * (sites_per_region as usize));
        for r in 0..regions {
            for s in 0..sites_per_region {
                let index = u64::from(r) * u64::from(sites_per_region) + u64::from(s);
                // Cheap splitmix-style hash → mean utilisation in
                // [0.25, 0.75], deterministic in (seed, site index).
                let mix = (seed ^ index)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(31)
                    .wrapping_mul(0x94D0_49BB_1331_11EB);
                let mean = 0.25 + 0.5 * ((mix >> 11) as f64 / (1u64 << 53) as f64);
                let mut config = SiteTelemetryConfig::new(
                    format!("R{r:03}-S{s:04}"),
                    vec![NodeGroupTelemetry {
                        label: "edge".into(),
                        count: nodes_per_site,
                        power_model: NodePowerModel::linear(
                            Power::from_watts(140.0),
                            Power::from_watts(620.0),
                        ),
                    }],
                    seed ^ (index << 1) ^ 1,
                );
                config.methods = vec![MeterKind::Pdu];
                config.sample_step = SimDuration::from_secs(3_600);
                sites.push(FleetSite {
                    region: r,
                    config,
                    utilization: SyntheticUtilization::calibrated(mean, seed ^ (index << 7) ^ 3),
                });
            }
        }
        FleetScenario {
            region_codes,
            sites,
            period: Period::snapshot_24h(),
        }
    }

    /// Wraps the calibrated IRIS scenario as a single-region federation,
    /// so the paper's snapshot can run through the fleet roll-up path.
    /// Site order, configs and utilisation sources are identical to the
    /// scenario's, so per-site energies are bit-identical to
    /// [`IrisScenario::simulate`]'s rows.
    pub fn from_iris(scenario: &IrisScenario) -> Self {
        FleetScenario {
            region_codes: vec!["IRIS".into()],
            sites: scenario
                .sites
                .iter()
                .map(|s| FleetSite {
                    region: 0,
                    config: s.config.clone(),
                    utilization: s.utilization,
                })
                .collect(),
            period: scenario.period,
        }
    }

    /// Overrides the sampling step on every site (tests use coarser
    /// steps to stay fast in debug builds).
    pub fn with_sample_step(mut self, step: SimDuration) -> Self {
        for s in &mut self.sites {
            s.config.sample_step = step;
        }
        self
    }

    /// Number of sites across all regions.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total monitored nodes across the federation.
    pub fn total_nodes(&self) -> u64 {
        self.sites
            .iter()
            .map(|s| u64::from(s.config.total_nodes()))
            .sum()
    }

    /// Simulates the whole federation, sharding **sites** across the
    /// persistent worker pool, and streams the per-site results into a
    /// columnar [`FleetRollup`].
    ///
    /// Inversion of the [`IrisScenario`] strategy: each site collects
    /// with one worker (inline on whichever pool thread claims it, using
    /// that thread's recycled scratch arena), and up to `workers` sites
    /// are in flight at once: `workers` caps how many threads of the
    /// shared pool, the caller included, this call may use. Results are
    /// bit-identical for every
    /// `workers` value. The first site that fails to collect (zero
    /// nodes, empty window — reachable only by hand-mutating the public
    /// fields) surfaces as its typed
    /// [`iriscast_telemetry::TelemetryError`], earliest site first.
    pub fn try_simulate(&self, workers: usize) -> TelemetryResult<FleetRollup> {
        let mut slots: Vec<Option<TelemetryResult<SiteRollup>>> =
            Vec::with_capacity(self.sites.len());
        slots.resize_with(self.sites.len(), || None);
        let period = self.period;
        let sites = &self.sites;
        pool_fill_indexed(&mut slots, workers, |i, slot| {
            let site = &sites[i];
            *slot = Some(CollectScratch::with_thread_local(|scratch| {
                // workers = 1 ⇒ the inner collect runs inline on this
                // pool thread (`pool_fill_indexed` shortcuts the
                // single-worker case), so there is no nested dispatch
                // and no re-entrant scratch borrow.
                let result = SiteCollector::collect_config(
                    &site.config,
                    period,
                    &site.utilization,
                    1,
                    scratch,
                )?;
                let rollup = SiteRollup::from_result(&result, site.region);
                scratch.recycle(result);
                Ok(rollup)
            }));
        });

        let mut rollup = FleetRollup::new(self.region_codes.clone(), self.period);
        for slot in slots {
            // Not a data condition: `pool_fill_indexed` writes every slot
            // exactly once by contract, so a `None` is a harness bug.
            rollup.fold_site(slot.expect("pool_fill_indexed visits every slot")?);
        }
        Ok(rollup)
    }
}

/// The compact per-site reduction a federation worker hands back:
/// everything the fleet tiers need, none of the power series they don't.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteRollup {
    /// Region index the site rolls up into.
    pub region: u32,
    /// Monitored nodes swept.
    pub nodes: u32,
    /// Observed energy per available method.
    pub energies: EnergyByMethod,
    /// Instrument-free truth energy, for validation.
    pub truth: Energy,
}

impl SiteRollup {
    /// Reduces a full collector result to the roll-up columns. Energies
    /// match [`iriscast_telemetry::SiteEnergyReport::from_result`]
    /// cell for cell, so fleet totals stay bit-identical to the serial
    /// row path.
    pub fn from_result(result: &SiteTelemetryResult, region: u32) -> Self {
        SiteRollup {
            region,
            nodes: result.nodes,
            energies: EnergyByMethod {
                facility: result.energy(MeterKind::Facility),
                pdu: result.energy(MeterKind::Pdu),
                ipmi: result.energy(MeterKind::Ipmi),
                turbostat: result.energy(MeterKind::Turbostat),
            },
            truth: result.true_energy(),
        }
    }
}

/// One region's totals inside a [`FleetRollup`].
#[derive(Clone, Debug, PartialEq)]
pub struct RegionRollup {
    /// Region short code ("?" for region indexes beyond the scenario's
    /// code list — reachable only via hand-mutated fields).
    pub code: String,
    /// Sites rolled into this region.
    pub sites: usize,
    /// Monitored nodes rolled into this region.
    pub nodes: u64,
    /// Sum of the region's per-site best estimates (sites without an
    /// estimate excluded).
    pub best_estimate: Energy,
    /// Sum of the region's truth energies.
    pub truth: Energy,
}

/// Columnar fleet-level statistics over per-site best-estimate energies,
/// with the same cached-sort quantile machinery as
/// [`crate::stats_view`]: the sorted copy is built once on first
/// quantile query and reused after that.
///
/// Sites that lack any measurement method hold `NaN` in the
/// best-estimate column and are excluded from quantiles, totals and
/// extrema; a *present* best estimate that is itself `NaN` (poisoned
/// data) instead flags the whole column, and quantile queries refuse
/// with [`Error::NonFiniteData`] rather than interpolating garbage.
#[derive(Clone, Debug)]
pub struct FleetRollup {
    period: Period,
    region_codes: Vec<String>,
    region_of: Vec<u32>,
    nodes: Vec<u32>,
    /// Per-site best estimate in kWh; `NaN` = the site has no method.
    best_kwh: Vec<f64>,
    truth_kwh: Vec<f64>,
    missing_best: usize,
    nan_best: bool,
    sorted_best: OnceLock<Vec<f64>>,
}

impl FleetRollup {
    /// An empty roll-up to fold sites into — the incremental
    /// counterpart of [`FleetScenario::try_simulate`]'s batch path,
    /// which itself is just `new` + [`FleetRollup::fold_site`] per
    /// site. The serve layer grows one of these per live fleet.
    pub fn new(region_codes: Vec<String>, period: Period) -> Self {
        FleetRollup {
            period,
            region_codes,
            region_of: Vec::new(),
            nodes: Vec::new(),
            best_kwh: Vec::new(),
            truth_kwh: Vec::new(),
            missing_best: 0,
            nan_best: false,
            sorted_best: OnceLock::new(),
        }
    }

    /// Folds one more site's roll-up into the columns, in place.
    ///
    /// A warm cached-sort view is **updated** — the new best estimate is
    /// inserted at its `partition_point` rank — never left stale: the
    /// private `push` this grew out of skipped the cache entirely, which
    /// was sound only while every push happened before the first
    /// quantile query. The incremental service folds *between* queries,
    /// so the regression tests now pin fold-after-warm-query directly.
    /// Sites without an estimate (and poisoned `NaN` estimates, which
    /// flag the column for the quantile guards) stay out of the cached
    /// view, exactly as the batch sort filters them.
    pub fn fold_site(&mut self, site: SiteRollup) {
        self.region_of.push(site.region);
        self.nodes.push(site.nodes);
        let kwh = match site.energies.best_estimate() {
            Some(e) => {
                let kwh = e.kilowatt_hours();
                if kwh.is_nan() {
                    self.nan_best = true;
                }
                kwh
            }
            None => {
                self.missing_best += 1;
                f64::NAN
            }
        };
        self.best_kwh.push(kwh);
        self.truth_kwh.push(site.truth.kilowatt_hours());
        if !kwh.is_nan() {
            if let Some(sorted) = self.sorted_best.get_mut() {
                let p = sorted.partition_point(|x| x.total_cmp(&kwh).is_le());
                sorted.insert(p, kwh);
            }
        }
    }

    /// Snapshot window the fleet was simulated over.
    pub fn period(&self) -> Period {
        self.period
    }

    /// Region short codes, as supplied by the scenario.
    pub fn region_codes(&self) -> &[String] {
        &self.region_codes
    }

    /// Number of sites rolled up.
    pub fn site_count(&self) -> usize {
        self.best_kwh.len()
    }

    /// Sites that produced no best estimate (no measurement method).
    pub fn sites_missing_estimate(&self) -> usize {
        self.missing_best
    }

    /// Total monitored nodes across the fleet.
    pub fn total_nodes(&self) -> u64 {
        self.nodes.iter().map(|&n| u64::from(n)).sum()
    }

    /// The per-site best-estimate column in site (= region-major) order,
    /// in kWh; `NaN` marks a site with no estimate.
    pub fn best_estimate_kwh(&self) -> &[f64] {
        &self.best_kwh
    }

    /// The per-site truth-energy column in site order, in kWh.
    pub fn truth_kwh(&self) -> &[f64] {
        &self.truth_kwh
    }

    /// Fleet total of per-site best estimates — the Table 2 "Total" row
    /// convention lifted to fleet scale. Sites without an estimate are
    /// skipped, exactly as [`iriscast_telemetry::aggregate::total_best_estimate`]
    /// skips `None` rows, and the fold runs in site order, so the total
    /// is bit-identical to the serial row path's. A poisoned column
    /// (some site's *present* estimate is `NaN`) yields `NaN`, just as
    /// the serial sum would.
    pub fn total_best_estimate(&self) -> Energy {
        if self.nan_best {
            return Energy::from_kilowatt_hours(f64::NAN);
        }
        let kwh = self
            .best_kwh
            .iter()
            .filter(|v| !v.is_nan())
            .fold(0.0, |acc, v| acc + v);
        Energy::from_kilowatt_hours(kwh)
    }

    /// Fleet total of instrument-free truth energies.
    pub fn total_truth(&self) -> Energy {
        Energy::from_kilowatt_hours(self.truth_kwh.iter().fold(0.0, |acc, v| acc + v))
    }

    /// The sorted best-estimate column (present values only), built once
    /// and cached — `stats_view`'s cached-sort pattern.
    fn sorted_best(&self) -> &[f64] {
        self.sorted_best.get_or_init(|| {
            let mut v: Vec<f64> = self
                .best_kwh
                .iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }

    /// The `q`-quantile (0 = min, 0.5 = median, 1 = max) of per-site
    /// best estimates, linearly interpolated with the same rule as every
    /// other quantile in the workspace
    /// ([`iriscast_grid::stats::percentile_sorted`]).
    ///
    /// # Errors
    /// [`Error::InvalidFraction`] when `q` lies outside `[0, 1]`;
    /// [`Error::NonFiniteData`] when a present estimate is `NaN`;
    /// [`Error::EmptyColumn`] when no site has any estimate.
    pub fn percentile(&self, q: f64) -> Result<Energy> {
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidFraction { value: q });
        }
        if self.nan_best {
            return Err(Error::NonFiniteData {
                column: "best estimate",
            });
        }
        stats::percentile_sorted(self.sorted_best(), q)
            .map(Energy::from_kilowatt_hours)
            .ok_or(Error::EmptyColumn {
                column: "best estimate",
            })
    }

    /// Median per-site best estimate — `percentile(0.5)`.
    pub fn median(&self) -> Result<Energy> {
        self.percentile(0.5)
    }

    /// The hottest site as `(site index, best estimate)`, or `None` when
    /// no site has an estimate. `NaN` estimates never win.
    pub fn hottest_site(&self) -> Option<(usize, Energy)> {
        self.best_kwh
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, Energy::from_kilowatt_hours(v)))
    }

    /// Imbalance factor: hottest site over the mean site (present
    /// estimates only) — 1.0 is a perfectly balanced fleet. Degenerate
    /// fleets (no estimates, all-zero, `NaN`-poisoned) report 1.0
    /// through the same NaN-safe guard as
    /// [`iriscast_telemetry::RackEnergyReport::imbalance`].
    pub fn imbalance(&self) -> f64 {
        let Some((_, hottest)) = self.hottest_site() else {
            return 1.0;
        };
        let mut sum = 0.0;
        let mut n = 0usize;
        for &v in &self.best_kwh {
            if !v.is_nan() {
                sum += v;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        // Explicit NaN arm: NaN compares false against any threshold,
        // so a bare `<= 0.0` guard would let it through into the ratio.
        if mean.is_nan() || mean <= 0.0 {
            return 1.0;
        }
        hottest.kilowatt_hours() / mean
    }

    /// Per-region totals in region order — the middle tier of the
    /// roll-up. Region indexes beyond the scenario's code list (only
    /// reachable by hand-mutating public fields) land in a trailing
    /// `"?"` bucket rather than panicking.
    pub fn region_rollups(&self) -> Vec<RegionRollup> {
        let known = self.region_codes.len();
        let buckets = self
            .region_of
            .iter()
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(0)
            .max(known);
        let mut out: Vec<RegionRollup> = (0..buckets)
            .map(|r| RegionRollup {
                code: self
                    .region_codes
                    .get(r)
                    .cloned()
                    .unwrap_or_else(|| "?".into()),
                sites: 0,
                nodes: 0,
                best_estimate: Energy::from_kilowatt_hours(0.0),
                truth: Energy::from_kilowatt_hours(0.0),
            })
            .collect();
        for (i, &r) in self.region_of.iter().enumerate() {
            let bucket = &mut out[r as usize];
            bucket.sites += 1;
            bucket.nodes += u64::from(self.nodes[i]);
            if !self.best_kwh[i].is_nan() {
                bucket.best_estimate += Energy::from_kilowatt_hours(self.best_kwh[i]);
            }
            bucket.truth += Energy::from_kilowatt_hours(self.truth_kwh[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iriscast_telemetry::TelemetryError;

    fn quick_fleet() -> FleetScenario {
        FleetScenario::synthetic(3, 4, 2, 99).with_sample_step(SimDuration::from_secs(7_200))
    }

    #[test]
    fn synthetic_shape_and_order() {
        let f = quick_fleet();
        assert_eq!(f.region_codes.len(), 3);
        assert_eq!(f.site_count(), 12);
        assert_eq!(f.total_nodes(), 24);
        // Region-major order with contiguous region runs.
        let regions: Vec<u32> = f.sites.iter().map(|s| s.region).collect();
        assert_eq!(regions, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        // Utilisation means actually vary across sites.
        let means: Vec<f64> = f.sites.iter().map(|s| s.utilization.mean).collect();
        assert!(means.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-3));
    }

    #[test]
    fn rollup_tiers_sum_consistently() {
        let rollup = quick_fleet().try_simulate(4).unwrap();
        assert_eq!(rollup.site_count(), 12);
        assert_eq!(rollup.total_nodes(), 24);
        assert_eq!(rollup.sites_missing_estimate(), 0);
        let regions = rollup.region_rollups();
        assert_eq!(regions.len(), 3);
        assert_eq!(regions.iter().map(|r| r.sites).sum::<usize>(), 12);
        let by_region: f64 = regions
            .iter()
            .map(|r| r.best_estimate.kilowatt_hours())
            .sum();
        let flat = rollup.total_best_estimate().kilowatt_hours();
        assert!((by_region - flat).abs() < flat * 1e-12 + 1e-9);
        // PDU observes the truth with small noise: totals are close.
        let truth = rollup.total_truth().kilowatt_hours();
        assert!((flat - truth).abs() / truth < 0.05, "{flat} vs {truth}");
    }

    #[test]
    fn quantiles_bracket_the_column() {
        let rollup = quick_fleet().try_simulate(2).unwrap();
        let lo = rollup.percentile(0.0).unwrap();
        let med = rollup.median().unwrap();
        let hi = rollup.percentile(1.0).unwrap();
        assert!(lo <= med && med <= hi);
        let (_, hottest) = rollup.hottest_site().unwrap();
        assert_eq!(hi, hottest);
        assert!(rollup.imbalance() >= 1.0);
        assert!(matches!(
            rollup.percentile(1.5),
            Err(Error::InvalidFraction { .. })
        ));
    }

    #[test]
    fn methodless_sites_are_skipped_not_poisonous() {
        let mut f = quick_fleet();
        f.sites[3].config.methods.clear();
        let rollup = f.try_simulate(2).unwrap();
        assert_eq!(rollup.sites_missing_estimate(), 1);
        assert!(rollup.best_estimate_kwh()[3].is_nan());
        assert!(rollup.total_best_estimate().kilowatt_hours().is_finite());
        assert!(rollup.median().unwrap().kilowatt_hours() > 0.0);
        // A fleet with no estimates at all is an EmptyColumn, not a 0.
        for s in &mut f.sites {
            s.config.methods.clear();
        }
        let bare = f.try_simulate(2).unwrap();
        assert!(matches!(
            bare.median(),
            Err(Error::EmptyColumn {
                column: "best estimate"
            })
        ));
        assert_eq!(bare.hottest_site(), None);
        assert_eq!(bare.imbalance(), 1.0);
        assert_eq!(bare.total_best_estimate().kilowatt_hours(), 0.0);
    }

    #[test]
    fn degenerate_site_fails_as_a_value() {
        let mut f = quick_fleet();
        f.sites[5].config.groups.clear();
        let err = f.try_simulate(4).unwrap_err();
        assert!(matches!(err, TelemetryError::NoNodes { .. }));
    }

    #[test]
    fn earliest_failing_site_wins() {
        let mut f = quick_fleet();
        f.sites[7].config.groups.clear();
        f.sites[2].config.groups.clear();
        let err = f.try_simulate(4).unwrap_err();
        let TelemetryError::NoNodes { site } = err else {
            panic!("wrong error kind");
        };
        assert_eq!(site, f.sites[2].config.site_code);
    }

    #[test]
    fn sharding_is_bit_invariant() {
        let f = quick_fleet();
        let a = f.try_simulate(1).unwrap();
        let b = f.try_simulate(16).unwrap();
        assert_eq!(a.best_estimate_kwh(), b.best_estimate_kwh());
        assert_eq!(a.truth_kwh(), b.truth_kwh());
        assert_eq!(
            a.total_best_estimate().kilowatt_hours(),
            b.total_best_estimate().kilowatt_hours()
        );
    }

    fn hand_site(kwh: Option<f64>, truth: f64) -> SiteRollup {
        SiteRollup {
            region: 0,
            nodes: 1,
            energies: EnergyByMethod {
                facility: None,
                pdu: kwh.map(Energy::from_kilowatt_hours),
                ipmi: None,
                turbostat: None,
            },
            truth: Energy::from_kilowatt_hours(truth),
        }
    }

    #[test]
    fn fold_after_warm_query_never_serves_the_stale_sort() {
        // The regression: the old private `push` never touched the
        // cached sort, which was sound only because every push happened
        // before the first quantile query. The public fold interleaves
        // with queries, so a warm cache must absorb each new site.
        let mut live = FleetRollup::new(vec!["R".into()], Period::snapshot_24h());
        live.fold_site(hand_site(Some(10.0), 10.0));
        live.fold_site(hand_site(Some(30.0), 30.0));
        // Warm the cache, then fold an extremum past both ends.
        assert_eq!(live.percentile(1.0).unwrap().kilowatt_hours(), 30.0);
        live.fold_site(hand_site(Some(50.0), 50.0));
        assert_eq!(live.percentile(1.0).unwrap().kilowatt_hours(), 50.0);
        live.fold_site(hand_site(Some(1.0), 1.0));
        assert_eq!(live.percentile(0.0).unwrap().kilowatt_hours(), 1.0);
        // A methodless site folds into the columns but not the warm
        // cache (mirroring the batch sort's NaN filter).
        live.fold_site(hand_site(None, 2.0));
        assert_eq!(live.sites_missing_estimate(), 1);
        assert_eq!(live.percentile(0.0).unwrap().kilowatt_hours(), 1.0);
        // Every quantile of the warm incremental view matches a cold
        // roll-up of the same sites, interpolation and all.
        let mut cold = FleetRollup::new(vec!["R".into()], Period::snapshot_24h());
        for kwh in [Some(10.0), Some(30.0), Some(50.0), Some(1.0), None] {
            cold.fold_site(hand_site(kwh, kwh.unwrap_or(2.0)));
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(
                live.percentile(q).unwrap().kilowatt_hours(),
                cold.percentile(q).unwrap().kilowatt_hours(),
                "q = {q}"
            );
        }
        // A poisoned estimate folded after warming flips the typed
        // refusal on, stale cache notwithstanding.
        live.fold_site(hand_site(Some(f64::NAN), 0.0));
        assert!(matches!(
            live.percentile(0.5),
            Err(Error::NonFiniteData { .. })
        ));
    }

    #[test]
    fn unknown_region_index_lands_in_question_bucket() {
        let mut f = quick_fleet();
        f.sites[11].region = 9;
        let rollup = f.try_simulate(2).unwrap();
        let regions = rollup.region_rollups();
        assert_eq!(regions.len(), 10);
        assert_eq!(regions[9].code, "?");
        assert_eq!(regions[9].sites, 1);
        assert_eq!(regions.iter().map(|r| r.sites).sum::<usize>(), 12);
    }
}
