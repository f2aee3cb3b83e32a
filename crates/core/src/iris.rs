//! The paper's experiment as a library function: the calibrated IRIS
//! snapshot.
//!
//! Calibration works backwards from the published Table 2: each site's
//! *wall* energy target is derived from its most upstream measurement
//! (facility/PDU directly; IPMI divided by the 0.985 instrument share),
//! the site-wide utilisation is solved from the fleet's power envelopes,
//! and IPMI node coverage is solved so the expected IPMI column lands on
//! the published value. Running the collector with those parameters then
//! regenerates Table 2 — systematic offsets, missing cells and all — from
//! a physically structured simulation rather than from pasted constants.

use crate::paper::{self, Table2Row};
use iriscast_inventory::{iris as iris_inv, Fleet};
use iriscast_telemetry::{
    aggregate, CollectScratch, MeterKind, NodeGroupTelemetry, NodePowerModel, SiteCollector,
    SiteEnergyReport, SiteTelemetryConfig, SiteTelemetryResult, SyntheticUtilization,
};
use iriscast_units::{Energy, Period, SimDuration};

/// A fully calibrated per-site simulation setup.
#[derive(Clone, Debug)]
pub struct CalibratedSite {
    /// Collector configuration (groups, methods, coverage, seed).
    pub config: SiteTelemetryConfig,
    /// Utilisation source whose mean reproduces the site's published
    /// energy.
    pub utilization: SyntheticUtilization,
    /// The site-wide utilisation the calibration solved for.
    pub solved_utilization: f64,
}

/// The full IRIS snapshot scenario: fleet + calibrated sites.
#[derive(Clone, Debug)]
pub struct IrisScenario {
    /// The IRIS hardware inventory.
    pub fleet: Fleet,
    /// One calibrated setup per Table 2 row, in row order.
    pub sites: Vec<CalibratedSite>,
    /// Snapshot window (24 hours).
    pub period: Period,
}

/// Result of simulating the snapshot.
#[derive(Clone, Debug)]
pub struct IrisSnapshotResult {
    /// Per-site collector outputs (power series per method, registers).
    pub site_results: Vec<SiteTelemetryResult>,
    /// Table 2 rows computed from the simulation.
    pub rows: Vec<SiteEnergyReport>,
}

impl IrisSnapshotResult {
    /// The federation total using the paper's best-estimate priority.
    pub fn total(&self) -> Energy {
        aggregate::total_best_estimate(&self.rows)
    }

    /// Total monitored nodes.
    pub fn nodes(&self) -> u32 {
        aggregate::total_nodes(&self.rows)
    }
}

/// Which methods each site had, per the published Table 2's populated
/// cells.
fn methods_for(row: &Table2Row) -> Vec<MeterKind> {
    let mut methods = Vec::new();
    if row.facility_kwh.is_some() {
        methods.push(MeterKind::Facility);
    }
    if row.pdu_kwh.is_some() {
        methods.push(MeterKind::Pdu);
    }
    if row.ipmi_kwh.is_some() {
        methods.push(MeterKind::Ipmi);
    }
    if row.turbostat_kwh.is_some() {
        methods.push(MeterKind::Turbostat);
    }
    methods
}

/// The wall-energy target for a site: its most upstream published cell,
/// corrected for instrument coverage where only IPMI exists.
fn wall_target_kwh(row: &Table2Row, ipmi_share: f64) -> f64 {
    row.facility_kwh
        .or(row.pdu_kwh)
        .unwrap_or_else(|| row.ipmi_kwh.expect("every Table 2 row has IPMI") / ipmi_share)
}

impl IrisScenario {
    /// Builds the calibrated scenario with the given base seed.
    pub fn paper_snapshot(seed: u64) -> Self {
        let fleet = iris_inv::iris_fleet();
        let period = Period::snapshot_24h();
        let window_hours = period.duration().as_hours();
        let mut sites = Vec::with_capacity(paper::TABLE2_ROWS.len());

        for (i, row) in paper::TABLE2_ROWS.iter().enumerate() {
            let site = fleet
                .site(row.site)
                .unwrap_or_else(|| panic!("fleet is missing site {}", row.site));
            // Monitored groups become telemetry groups.
            let groups: Vec<NodeGroupTelemetry> = site
                .groups
                .iter()
                .filter(|g| g.monitored > 0)
                .map(|g| NodeGroupTelemetry {
                    label: g.spec.name().to_string(),
                    count: g.monitored,
                    power_model: NodePowerModel::linear(g.spec.idle_power(), g.spec.max_power()),
                })
                .collect();
            let mut config = SiteTelemetryConfig::new(row.site, groups, seed ^ (i as u64 + 1));
            config.methods = methods_for(row);

            // Solve site utilisation from the wall-energy target.
            let ipmi_share = config.groups[0].power_model.ipmi_share;
            let target_kwh = wall_target_kwh(row, ipmi_share);
            let target_power =
                Energy::from_kilowatt_hours(target_kwh).mean_power_over(period.duration());
            let u = config.solve_utilization(target_power);

            // Solve IPMI node coverage against the published IPMI cell:
            // walk the id space (group order) accumulating expected IPMI
            // energy per node until the target is met.
            if let Some(ipmi_target) = row.ipmi_kwh {
                let mut remaining = ipmi_target;
                let mut covered_nodes = 0.0f64;
                'groups: for g in &config.groups {
                    let per_node_kwh = (g.power_model.ipmi_visible(g.power_model.wall_power(u))
                        * SimDuration::from_hours(window_hours))
                    .kilowatt_hours();
                    for _ in 0..g.count {
                        if remaining < per_node_kwh / 2.0 {
                            break 'groups;
                        }
                        remaining -= per_node_kwh;
                        covered_nodes += 1.0;
                    }
                }
                config.ipmi_node_coverage =
                    (covered_nodes / f64::from(config.total_nodes())).min(1.0);
            }

            sites.push(CalibratedSite {
                utilization: SyntheticUtilization::calibrated(u, seed ^ (0x5EED << 8) ^ i as u64),
                solved_utilization: u,
                config,
            });
        }

        IrisScenario {
            fleet,
            sites,
            period,
        }
    }

    /// The scenario as a single-region federation, for the fleet-level
    /// roll-up path ([`crate::federation::FleetScenario::try_simulate`]):
    /// same sites, same seeds, so per-site energies are bit-identical to
    /// [`IrisScenario::simulate`]'s rows.
    pub fn federated(&self) -> crate::federation::FleetScenario {
        crate::federation::FleetScenario::from_iris(self)
    }

    /// Overrides the sampling step on every site (tests use coarser steps
    /// to stay fast in debug builds; benches use the realistic 30 s).
    pub fn with_sample_step(mut self, step: SimDuration) -> Self {
        for s in &mut self.sites {
            s.config.sample_step = step;
        }
        self
    }

    /// Runs the collectors and assembles Table 2.
    ///
    /// # Panics
    /// If any site fails to collect. Scenarios from
    /// [`IrisScenario::paper_snapshot`] always collect, but the fields
    /// are public — a hand-mutated scenario (zero-length period,
    /// zero-node site) should go through
    /// [`IrisScenario::try_simulate_with`] to get the failure as a
    /// value.
    pub fn simulate(&self, workers: usize) -> IrisSnapshotResult {
        self.simulate_with(workers, &mut CollectScratch::new())
    }

    /// [`IrisScenario::simulate`] with caller-owned collector buffers:
    /// one [`CollectScratch`] serves every site in turn, so a loop that
    /// simulates repeatedly (benchmarks, day-sweeps) can keep the chunk
    /// arena warm across snapshots — recycle the previous snapshot's
    /// [`SiteTelemetryResult`]s into `scratch` first and the collect
    /// data path allocates nothing. Bit-identical to
    /// [`IrisScenario::simulate`], including its panic on a
    /// non-collectable site.
    pub fn simulate_with(
        &self,
        workers: usize,
        scratch: &mut CollectScratch,
    ) -> IrisSnapshotResult {
        self.try_simulate_with(workers, scratch)
            .unwrap_or_else(|e| panic!("site failed to collect: {e}"))
    }

    /// The fallible form of [`IrisScenario::simulate_with`]: a site that
    /// cannot collect (zero-length period, zero monitored nodes — only
    /// reachable by mutating the scenario's public fields) surfaces as
    /// the typed [`iriscast_telemetry::TelemetryError`] instead of a
    /// panic.
    pub fn try_simulate_with(
        &self,
        workers: usize,
        scratch: &mut CollectScratch,
    ) -> iriscast_telemetry::TelemetryResult<IrisSnapshotResult> {
        let mut site_results = Vec::with_capacity(self.sites.len());
        let mut rows = Vec::with_capacity(self.sites.len());
        for site in &self.sites {
            // Borrowed-config collect: no per-site config clone or
            // collector construction — with a recycled scratch, the
            // whole snapshot's telemetry data path allocates nothing.
            let result = SiteCollector::collect_config(
                &site.config,
                self.period,
                &site.utilization,
                workers,
                scratch,
            )?;
            rows.push(SiteEnergyReport::from_result(&result));
            site_results.push(result);
        }
        Ok(IrisSnapshotResult { site_results, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coarse sampling keeps debug-mode tests quick; calibration is
    /// time-mean based, so the step barely moves the totals.
    fn quick_scenario() -> IrisScenario {
        IrisScenario::paper_snapshot(2022).with_sample_step(SimDuration::from_secs(600))
    }

    #[test]
    fn calibration_solves_sane_utilizations() {
        let scenario = quick_scenario();
        assert_eq!(scenario.sites.len(), 6);
        for site in &scenario.sites {
            assert!(
                (0.05..=0.95).contains(&site.solved_utilization),
                "{}: u = {}",
                site.config.site_code,
                site.solved_utilization
            );
        }
        // QMUL's published mean wall power is ~459 W/node on a 140–620 W
        // envelope → u ≈ 0.66.
        let qmul = &scenario.sites[0];
        assert!((qmul.solved_utilization - 0.664).abs() < 0.01);
    }

    #[test]
    fn coverage_reflects_published_ipmi_gaps() {
        let scenario = quick_scenario();
        let by_code = |code: &str| {
            scenario
                .sites
                .iter()
                .find(|s| s.config.site_code == code)
                .unwrap()
        };
        // QMUL IPMI ≈ full coverage; DUR and SCARF far below.
        assert!(by_code("QMUL").config.ipmi_node_coverage > 0.95);
        let dur = by_code("DUR").config.ipmi_node_coverage;
        assert!((0.70..0.85).contains(&dur), "DUR coverage {dur}");
        let scarf = by_code("STFC-SCARF").config.ipmi_node_coverage;
        assert!((0.70..0.85).contains(&scarf), "SCARF coverage {scarf}");
    }

    #[test]
    fn simulated_table2_matches_published_cells() {
        let result = quick_scenario().simulate(4);
        for (row, published) in result.rows.iter().zip(paper::TABLE2_ROWS.iter()) {
            assert_eq!(row.site, published.site);
            assert_eq!(row.nodes, published.nodes);
            let check = |got: Option<Energy>, want: Option<f64>, what: &str| match (got, want) {
                (Some(g), Some(w)) => {
                    let rel = (g.kilowatt_hours() - w).abs() / w;
                    assert!(
                        rel < 0.02,
                        "{}/{what}: simulated {:.0} vs published {w:.0} ({:.1}% off)",
                        row.site,
                        g.kilowatt_hours(),
                        rel * 100.0
                    );
                }
                (None, None) => {}
                (g, w) => panic!("{}/{what}: presence mismatch {g:?} vs {w:?}", row.site),
            };
            check(row.energies.facility, published.facility_kwh, "facility");
            check(row.energies.pdu, published.pdu_kwh, "pdu");
            check(row.energies.ipmi, published.ipmi_kwh, "ipmi");
            check(row.energies.turbostat, published.turbostat_kwh, "turbostat");
        }
        // Federation total within 2% of 18,760 kWh.
        let total = result.total().kilowatt_hours();
        assert!(
            (total - paper::TABLE2_TOTAL_KWH).abs() / paper::TABLE2_TOTAL_KWH < 0.02,
            "total {total:.0}"
        );
        assert_eq!(result.nodes(), 2_462);
    }

    #[test]
    fn qmul_method_ordering_reproduced() {
        let result = quick_scenario().simulate(4);
        let qmul = &result.rows[0];
        let fac = qmul.energies.facility.unwrap().kilowatt_hours();
        let pdu = qmul.energies.pdu.unwrap().kilowatt_hours();
        let ipmi = qmul.energies.ipmi.unwrap().kilowatt_hours();
        let turbo = qmul.energies.turbostat.unwrap().kilowatt_hours();
        assert!(turbo < ipmi && ipmi < pdu);
        assert!((fac - pdu).abs() / pdu < 0.01);
        // The paper's systematic offsets: −5% and −1.5%.
        assert!((turbo / ipmi - 0.949).abs() < 0.01, "{}", turbo / ipmi);
        assert!((ipmi / pdu - 0.985).abs() < 0.01, "{}", ipmi / pdu);
    }

    #[test]
    fn hand_mutated_scenario_fails_as_a_value_through_try_simulate() {
        let mut scenario = quick_scenario();
        scenario.period =
            Period::starting_at(scenario.period.start(), iriscast_units::SimDuration::ZERO);
        let err = scenario
            .try_simulate_with(2, &mut CollectScratch::new())
            .unwrap_err();
        assert!(matches!(
            err,
            iriscast_telemetry::TelemetryError::EmptyWindow { .. }
        ));
    }

    #[test]
    fn federated_rollup_matches_serial_rows_bit_for_bit() {
        let scenario = quick_scenario();
        let serial = scenario.simulate(2);
        let rollup = scenario.federated().try_simulate(4).unwrap();
        assert_eq!(rollup.site_count(), serial.rows.len());
        for (i, row) in serial.rows.iter().enumerate() {
            let want = row.energies.best_estimate().unwrap().kilowatt_hours();
            assert_eq!(rollup.best_estimate_kwh()[i], want, "{} drifted", row.site);
        }
        assert_eq!(
            rollup.total_best_estimate().kilowatt_hours(),
            serial.total().kilowatt_hours(),
            "fleet total is not bit-identical to the Table 2 total"
        );
        assert_eq!(rollup.total_nodes(), u64::from(serial.nodes()));
        let regions = rollup.region_rollups();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].code, "IRIS");
        assert_eq!(regions[0].sites, serial.rows.len());
    }

    #[test]
    fn simulation_is_deterministic() {
        let scenario = quick_scenario();
        let a = scenario.simulate(1);
        let b = scenario.simulate(8);
        assert_eq!(a.rows, b.rows, "worker count changed the result");
    }
}
