//! Time-resolved assessment: per-interval energy convolved with
//! per-interval grid intensity over a scenario space.
//!
//! The paper's Table 2 telemetry and Figure 1 intensity data are both
//! half-hourly series, but its published evaluation collapses them to
//! scalars (total energy × three reference intensities). This module
//! makes the time-resolved form the engine's native mode: a
//! [`TimeResolvedAssessment`] couples one measured
//! [`EnergySeries`] to an axis of [`IntensitySeries`] — different days,
//! different grid scenarios, forecast vs actual — and evaluates
//!
//! > `Ca = Σᵢ PUE·Eᵢ·CIᵢ`  *(equation 3, per interval)*
//!
//! at every point of the usual CI × PUE × embodied × lifespan scenario
//! space. Series on different grids are aligned through the exactness
//! rules in [`iriscast_units::align`] (whole-multiple steps, matching
//! phase, full coverage) — never silently interpolated.
//!
//! Every batch path of the scalar engine is available unchanged —
//! materialised ([`TimeResolvedAssessment::evaluate_space`]), streamed
//! ([`TimeResolvedAssessment::stream_space`], bounded memory for sweeps
//! past 10M points) and chunked ([`TimeResolvedAssessment::chunks`]) —
//! because the convolutions are factored into the same per-(CI, PUE)
//! kernel tables the scalar engine uses: per-point cost stays two table
//! reads regardless of series length. Per-interval detail for one
//! scenario comes back as a [`CarbonProfile`].
//!
//! ```
//! use iriscast_model::time_resolved::TimeResolvedAssessment;
//! use iriscast_model::paper;
//! use iriscast_grid::series::IntensitySeries;
//! use iriscast_telemetry::timeseries::EnergySeries;
//! use iriscast_units::{CarbonIntensity, Energy, SimDuration, Timestamp};
//!
//! // A flat 400 kWh/half-hour day against two candidate days of grid data.
//! let energy = EnergySeries::new(
//!     Timestamp::EPOCH,
//!     SimDuration::SETTLEMENT_PERIOD,
//!     vec![Energy::from_kilowatt_hours(400.0); 48],
//! );
//! let day = |base: f64| IntensitySeries::new(
//!     Timestamp::EPOCH,
//!     SimDuration::SETTLEMENT_PERIOD,
//!     (0..48).map(|i| CarbonIntensity::from_grams_per_kwh(
//!         base + 40.0 * f64::from(i % 2),
//!     )).collect(),
//! );
//! let assessment = TimeResolvedAssessment::builder()
//!     .energy_series(energy)
//!     .ci_series(day(60.0))
//!     .ci_series(day(240.0))
//!     .pue_values(&[1.1, 1.3, 1.5])
//!     .embodied_bounds(paper::server_embodied_bounds())
//!     .lifespans_years(&[3, 5, 7])
//!     .servers(paper::AMORTISATION_FLEET_SERVERS)
//!     .build()
//!     .unwrap();
//! let results = assessment.evaluate_space();
//! assert_eq!(results.len(), 2 * 3 * 2 * 3);
//! // The clean day beats the dirty day at every shared setting.
//! assert!(results.totals()[0] < results.totals()[results.len() / 2]);
//! ```

use crate::embodied::fleet_snapshot_daily;
use crate::engine::{
    chunks_over, evaluate_into, materialise, stream_points, AssessmentBuilder, EvalTables,
    PointOutcome, PointResult, SpaceChunks, SpaceResults,
};
use crate::error::{Error, Result};
use crate::space::{ScenarioAxis, ScenarioPoint, ScenarioSpace};
use iriscast_grid::IntensitySeries;
use iriscast_telemetry::EnergySeries;
use iriscast_units::{
    Bounds, CarbonIntensity, CarbonMass, Period, Pue, SimDuration, Timestamp, TriEstimate,
};
use std::sync::OnceLock;

/// A fully resolved time-resolved assessment: one energy series, one
/// aligned intensity series per carbon-intensity axis sample, and the
/// scenario space they sweep. Built with
/// [`TimeResolvedAssessment::builder`].
///
/// The carbon-intensity axis of [`TimeResolvedAssessment::space`] holds
/// each series' *energy-weighted mean* intensity (`Σ Eᵢ·CIᵢ / Σ Eᵢ`) —
/// the scalar that, applied to the total energy, would reproduce the
/// convolved active carbon. Envelope, percentile and marginal queries on
/// the results therefore read exactly as they do for the scalar engine.
#[derive(Clone, Debug)]
pub struct TimeResolvedAssessment {
    energy: EnergySeries,
    servers: u32,
    window_days: f64,
    space: ScenarioSpace,
    /// Per CI-axis sample: intensity re-expressed on the energy grid
    /// (one value per energy slot).
    aligned: Vec<Vec<CarbonIntensity>>,
    /// Kernel tables — the per-(CI, PUE) convolutions and windowed fleet
    /// charges — built lazily on first evaluation and reused by every
    /// subsequent batch/stream/chunk call. This is the expensive part of
    /// a time-resolved evaluation (O(axes × slots)), so caching it makes
    /// repeated sweeps over the same assessment table-read cheap.
    tables: OnceLock<EvalTables>,
}

/// Equality is over the assessment's inputs; the lazily built kernel
/// -table cache is a derived artefact and deliberately not compared.
impl PartialEq for TimeResolvedAssessment {
    fn eq(&self, other: &Self) -> bool {
        self.energy == other.energy
            && self.servers == other.servers
            && self.window_days == other.window_days
            && self.space == other.space
            && self.aligned == other.aligned
    }
}

impl TimeResolvedAssessment {
    /// Starts a builder with nothing filled in.
    pub fn builder() -> TimeResolvedBuilder {
        TimeResolvedBuilder::default()
    }

    /// The measured per-slot energy being assessed.
    pub fn energy(&self) -> &EnergySeries {
        &self.energy
    }

    /// The fleet size amortised.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The embodied window in days (the energy series' covered period).
    pub fn window_days(&self) -> f64 {
        self.window_days
    }

    /// The scenario space this assessment sweeps. The CI axis carries
    /// each series' energy-weighted mean intensity (see the type docs).
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// The intensity values of one CI-axis sample, aligned to the energy
    /// grid (one value per energy slot).
    pub fn aligned_intensity(&self, ci_index: usize) -> Result<&[CarbonIntensity]> {
        self.aligned
            .get(ci_index)
            .map(Vec::as_slice)
            .ok_or(Error::PointOutOfRange {
                index: ci_index,
                len: self.aligned.len(),
            })
    }

    /// The interval-by-interval convolution `Σᵢ PUE·Eᵢ·CIᵢ`, folded in
    /// slot order — the arithmetic every evaluation path shares (and the
    /// arithmetic a per-slot scalar summation reproduces bit-for-bit).
    fn convolve(&self, ci: &[CarbonIntensity], pue: Pue) -> CarbonMass {
        let mut acc = CarbonMass::ZERO;
        for (&e, &c) in self.energy.values().iter().zip(ci) {
            acc += pue.apply(e) * c;
        }
        acc
    }

    /// The windowed embodied charge for one (embodied, lifespan) pair.
    fn embodied_charge(&self, embodied_per_server: CarbonMass, lifespan_years: f64) -> CarbonMass {
        fleet_snapshot_daily(embodied_per_server, lifespan_years, self.servers) * self.window_days
    }

    /// Builds the shared kernel tables: one convolved active value per
    /// (CI series, PUE) pair, one windowed fleet charge per
    /// (embodied, lifespan) pair. Per-point evaluation cost downstream is
    /// independent of the series length. Built once, lazily, and cached
    /// (the assessment is immutable, so no invalidation is needed).
    fn tables(&self) -> &EvalTables {
        self.tables.get_or_init(|| {
            let mut active = Vec::with_capacity(self.aligned.len() * self.space.pue().len());
            for ci in &self.aligned {
                for &pue in self.space.pue() {
                    active.push(self.convolve(ci, pue));
                }
            }
            let mut embodied =
                Vec::with_capacity(self.space.embodied().len() * self.space.lifespan_years().len());
            for &e in self.space.embodied() {
                for &years in self.space.lifespan_years() {
                    embodied.push(self.embodied_charge(e, years));
                }
            }
            EvalTables { active, embodied }
        })
    }

    /// Evaluates one scenario point (integrated over the window).
    pub fn evaluate(&self, index: usize) -> Result<PointResult> {
        let point = self.space.point(index)?;
        let ci = &self.aligned[point.coords[0]];
        Ok(PointResult {
            point,
            outcome: PointOutcome {
                active: self.convolve(ci, point.pue),
                embodied: self.embodied_charge(point.embodied_per_server, point.lifespan_years),
            },
        })
    }

    /// The per-interval carbon trajectory of one scenario point.
    pub fn profile(&self, index: usize) -> Result<CarbonProfile> {
        let result = self.evaluate(index)?;
        let point = result.point;
        let ci = &self.aligned[point.coords[0]];
        let step_days = self.energy.step().as_days();
        let embodied_per_slot = fleet_snapshot_daily(
            point.embodied_per_server,
            point.lifespan_years,
            self.servers,
        ) * step_days;
        let active: Vec<CarbonMass> = self
            .energy
            .values()
            .iter()
            .zip(ci)
            .map(|(&e, &c)| point.pue.apply(e) * c)
            .collect();
        Ok(CarbonProfile {
            point,
            start: self.energy.start(),
            step: self.energy.step(),
            active,
            embodied_per_slot,
            integrated: result.outcome,
        })
    }

    /// Evaluates every point in the space, serially, in index order.
    /// Materialises full columns — use the streaming or chunked forms
    /// for spaces too large to hold.
    pub fn evaluate_space(&self) -> SpaceResults {
        materialise(&self.space, self.tables())
    }

    /// Evaluates the space into an existing [`SpaceResults`], reusing
    /// its buffers — the warm path for repeated day-sweeps (evaluate one
    /// day's assessment, recycle the results for the next). Values are
    /// bit-identical to [`TimeResolvedAssessment::evaluate_space`];
    /// after warm-up, same-shape sweeps allocate nothing. Any cached
    /// statistics view on `out` is invalidated and lazily rebuilt.
    pub fn evaluate_space_into(&self, out: &mut SpaceResults) {
        evaluate_into(&self.space, self.tables(), out);
    }

    /// Streams every point, in index order, to `sink` without
    /// materialising result columns: memory stays O(axes), not
    /// O(points), so >10M-point day-sweeps run in a bounded footprint.
    pub fn stream_space(&self, sink: impl FnMut(PointResult)) {
        stream_points(&self.space, self.tables(), sink);
    }

    /// Iterates the space as materialised chunks of at most
    /// `chunk_points` points (clamped to ≥ 1); only one chunk is alive
    /// at a time.
    pub fn chunks(&self, chunk_points: usize) -> SpaceChunks<'_> {
        chunks_over(&self.space, self.tables().clone(), chunk_points)
    }
}

/// The per-interval carbon trajectory of one evaluated scenario:
/// active carbon per energy slot, the (constant) embodied charge each
/// slot carries, and the integrated outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CarbonProfile {
    point: ScenarioPoint,
    start: Timestamp,
    step: SimDuration,
    active: Vec<CarbonMass>,
    embodied_per_slot: CarbonMass,
    integrated: PointOutcome,
}

impl CarbonProfile {
    /// The scenario this profile belongs to.
    pub fn point(&self) -> &ScenarioPoint {
        &self.point
    }

    /// First slot start.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Slot width.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of slots (= the energy series' length, ≥ 1).
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Always `false`: profiles inherit the energy series' non-emptiness.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Active carbon per slot, in slot order.
    pub fn active(&self) -> &[CarbonMass] {
        &self.active
    }

    /// The embodied charge apportioned to each slot (amortisation is
    /// uniform in time, so it is the same for every slot).
    pub fn embodied_per_slot(&self) -> CarbonMass {
        self.embodied_per_slot
    }

    /// The integrated outcome — identical to what
    /// [`TimeResolvedAssessment::evaluate`] returns for the same point.
    /// The per-slot values sum to it up to floating-point rounding.
    pub fn integrated(&self) -> PointOutcome {
        self.integrated
    }

    /// Iterates `(slot_period, outcome)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Period, PointOutcome)> + '_ {
        self.active.iter().enumerate().map(move |(i, &a)| {
            (
                Period::starting_at(self.start + self.step * i as i64, self.step),
                PointOutcome {
                    active: a,
                    embodied: self.embodied_per_slot,
                },
            )
        })
    }

    /// The slot with the highest active carbon (ties resolve to the
    /// earliest slot).
    pub fn dirtiest_slot(&self) -> (Period, CarbonMass) {
        self.extreme_slot(|a, b| a > b)
    }

    /// The slot with the lowest active carbon (ties resolve to the
    /// earliest slot).
    pub fn cleanest_slot(&self) -> (Period, CarbonMass) {
        self.extreme_slot(|a, b| a < b)
    }

    fn extreme_slot(
        &self,
        better: impl Fn(CarbonMass, CarbonMass) -> bool,
    ) -> (Period, CarbonMass) {
        let mut best = 0usize;
        for (i, &a) in self.active.iter().enumerate().skip(1) {
            if better(a, self.active[best]) {
                best = i;
            }
        }
        (
            Period::starting_at(self.start + self.step * best as i64, self.step),
            self.active[best],
        )
    }
}

/// Builder for [`TimeResolvedAssessment`]: an energy series, one or more
/// intensity series (the CI axis), and the same PUE/embodied/lifespan
/// axes and fleet parameters as the scalar
/// [`crate::engine::AssessmentBuilder`] (whose validation it reuses).
///
/// The embodied window is always the energy series' covered period —
/// time-resolved assessment charges embodied carbon for exactly the time
/// the telemetry covers.
#[derive(Clone, Debug, Default)]
pub struct TimeResolvedBuilder {
    inner: AssessmentBuilder,
    energy: Option<EnergySeries>,
    ci: Vec<IntensitySeries>,
}

impl TimeResolvedBuilder {
    /// Sets the measured per-slot energy (required).
    pub fn energy_series(mut self, series: EnergySeries) -> Self {
        self.energy = Some(series);
        self
    }

    /// Appends one intensity series to the CI axis (at least one is
    /// required). Series may live on any grid that aligns exactly with
    /// the energy grid — same-step with matching phase, a whole multiple
    /// coarser, or a whole multiple finer — and must cover the energy
    /// series' period; violations surface as
    /// [`Error::Units`]([`iriscast_units::UnitsError::GridMismatch`]) at
    /// [`TimeResolvedBuilder::build`].
    pub fn ci_series(mut self, series: IntensitySeries) -> Self {
        self.ci.push(series);
        self
    }

    /// Appends every series in `all` to the CI axis.
    pub fn ci_series_all(mut self, all: impl IntoIterator<Item = IntensitySeries>) -> Self {
        self.ci.extend(all);
        self
    }

    /// Sets the PUE axis.
    pub fn pue_axis(mut self, axis: ScenarioAxis<Pue>) -> Self {
        self.inner = self.inner.pue_axis(axis);
        self
    }

    /// PUE axis from a low/mid/high triple.
    pub fn pue_tri(mut self, tri: TriEstimate<Pue>) -> Self {
        self.inner = self.inner.pue_tri(tri);
        self
    }

    /// PUE axis from raw ratios (validated at
    /// [`TimeResolvedBuilder::build`]).
    pub fn pue_values(mut self, samples: &[f64]) -> Self {
        self.inner = self.inner.pue_values(samples);
        self
    }

    /// Sets the embodied-carbon axis (per-server).
    pub fn embodied_axis(mut self, axis: ScenarioAxis<CarbonMass>) -> Self {
        self.inner = self.inner.embodied_axis(axis);
        self
    }

    /// Embodied axis from published per-server bounds.
    pub fn embodied_bounds(mut self, bounds: Bounds<CarbonMass>) -> Self {
        self.inner = self.inner.embodied_bounds(bounds);
        self
    }

    /// Embodied axis of `n` evenly spaced samples across per-server
    /// bounds.
    pub fn embodied_linspace(mut self, bounds: Bounds<CarbonMass>, n: usize) -> Self {
        self.inner = self.inner.embodied_linspace(bounds, n);
        self
    }

    /// Sets the lifespan axis (years).
    pub fn lifespan_axis(mut self, axis: ScenarioAxis<f64>) -> Self {
        self.inner = self.inner.lifespan_axis(axis);
        self
    }

    /// Lifespan axis from whole-year samples.
    pub fn lifespans_years(mut self, years: &[u32]) -> Self {
        self.inner = self.inner.lifespans_years(years);
        self
    }

    /// Lifespan axis of `n` evenly spaced samples between `lo` and `hi`
    /// years.
    pub fn lifespan_linspace(mut self, lo: f64, hi: f64, n: usize) -> Self {
        self.inner = self.inner.lifespan_linspace(lo, hi, n);
        self
    }

    /// Sets the fleet size amortised (required).
    pub fn servers(mut self, servers: u32) -> Self {
        self.inner = self.inner.servers(servers);
        self
    }

    /// Validates, aligns every intensity series to the energy grid, and
    /// builds the [`TimeResolvedAssessment`].
    pub fn build(self) -> Result<TimeResolvedAssessment> {
        let energy = self.energy.ok_or(Error::MissingParameter {
            what: "energy series",
        })?;
        if self.ci.is_empty() {
            return Err(Error::EmptyAxis {
                axis: "carbon-intensity series".into(),
            });
        }
        let grid = energy.grid();
        let aligned = self
            .ci
            .iter()
            .map(|s| s.project_onto(&grid))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Each series' energy-weighted mean intensity becomes its scalar
        // CI-axis sample (a zero-energy window falls back to the plain
        // mean: any weighting of zero energy is equivalent).
        let total_energy = energy.total();
        let means: Vec<f64> = aligned
            .iter()
            .map(|ci| {
                if total_energy.joules() > 0.0 {
                    let mass: CarbonMass =
                        energy.values().iter().zip(ci).map(|(&e, &c)| e * c).sum();
                    mass.grams() / total_energy.kilowatt_hours()
                } else {
                    ci.iter().map(|c| c.grams_per_kwh()).sum::<f64>() / ci.len() as f64
                }
            })
            .collect();
        let scalar = self
            .inner
            .energy(total_energy)
            .ci_grams_per_kwh(&means)
            .window(grid.period().duration())
            .build()?;
        Ok(TimeResolvedAssessment {
            window_days: scalar.window_days(),
            servers: scalar.servers(),
            space: scalar.space().clone(),
            aligned,
            energy,
            tables: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use iriscast_units::Energy;

    fn flat_energy(slots: usize, kwh_per_slot: f64) -> EnergySeries {
        EnergySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            vec![Energy::from_kilowatt_hours(kwh_per_slot); slots],
        )
    }

    fn ramp_ci(slots: usize, base: f64, slope: f64) -> IntensitySeries {
        IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            (0..slots)
                .map(|i| CarbonIntensity::from_grams_per_kwh(base + slope * i as f64))
                .collect(),
        )
    }

    fn paper_shaped(energy: EnergySeries, ci: Vec<IntensitySeries>) -> TimeResolvedAssessment {
        TimeResolvedAssessment::builder()
            .energy_series(energy)
            .ci_series_all(ci)
            .pue_values(&[1.1, 1.3, 1.5])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[3, 5, 7])
            .servers(paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_energy_and_ci_series() {
        let err = TimeResolvedAssessment::builder().build().unwrap_err();
        assert_eq!(
            err,
            Error::MissingParameter {
                what: "energy series"
            }
        );
        let err = TimeResolvedAssessment::builder()
            .energy_series(flat_energy(4, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::EmptyAxis { .. }), "{err}");
        // Inner-builder validation still applies (missing PUE axis…).
        let err = TimeResolvedAssessment::builder()
            .energy_series(flat_energy(4, 10.0))
            .ci_series(ramp_ci(4, 100.0, 0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::MissingParameter { .. }), "{err}");
    }

    #[test]
    fn misaligned_series_is_a_typed_error() {
        // CI covers only half the energy window.
        let err = TimeResolvedAssessment::builder()
            .energy_series(flat_energy(48, 10.0))
            .ci_series(ramp_ci(24, 100.0, 1.0))
            .pue_values(&[1.3])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[5])
            .servers(100)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Units(_)), "{err}");
    }

    #[test]
    fn constant_intensity_matches_scalar_engine() {
        let energy = flat_energy(48, 403.75); // 19,380 kWh total
        let a = paper_shaped(energy.clone(), vec![ramp_ci(48, 175.0, 0.0)]);
        assert!((a.window_days() - 1.0).abs() < 1e-12);
        let scalar = crate::engine::Assessment::builder()
            .energy(energy.total())
            .ci_grams_per_kwh(&[175.0])
            .pue_values(&[1.1, 1.3, 1.5])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[3, 5, 7])
            .servers(paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .unwrap();
        let tr = a.evaluate_space();
        let sc = scalar.evaluate_space();
        assert_eq!(tr.len(), sc.len());
        for (t, s) in tr.totals().iter().zip(sc.totals()) {
            assert!((t.grams() - s.grams()).abs() < 1e-6 * s.grams().max(1.0));
        }
        // Embodied columns are exactly equal (same arithmetic).
        assert_eq!(tr.embodied(), sc.embodied());
    }

    #[test]
    fn weighted_mean_ci_lands_on_the_axis() {
        // Energy all in the second half; CI 100 then 300 → weighted 300.
        let mut slots = vec![Energy::ZERO; 24];
        slots.extend(vec![Energy::from_kilowatt_hours(10.0); 24]);
        let energy = EnergySeries::new(Timestamp::EPOCH, SimDuration::SETTLEMENT_PERIOD, slots);
        let mut ci = vec![CarbonIntensity::from_grams_per_kwh(100.0); 24];
        ci.extend(vec![CarbonIntensity::from_grams_per_kwh(300.0); 24]);
        let series = IntensitySeries::new(Timestamp::EPOCH, SimDuration::SETTLEMENT_PERIOD, ci);
        let a = paper_shaped(energy, vec![series]);
        let axis_ci = a.space().ci().samples()[0];
        assert!((axis_ci.grams_per_kwh() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn coarser_and_finer_ci_grids_align_exactly() {
        let energy = flat_energy(48, 10.0);
        // Hourly CI (coarser, repeated) and 10-minute CI (finer, averaged).
        let hourly = IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::HOUR,
            (0..24)
                .map(|i| CarbonIntensity::from_grams_per_kwh(100.0 + f64::from(i)))
                .collect(),
        );
        let fine = IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::from_minutes(10),
            (0..144)
                .map(|i| CarbonIntensity::from_grams_per_kwh(100.0 + f64::from(i % 3)))
                .collect(),
        );
        let a = paper_shaped(energy, vec![hourly, fine]);
        let first = a.aligned_intensity(0).unwrap();
        assert_eq!(first.len(), 48);
        assert_eq!(first[0].grams_per_kwh(), 100.0);
        assert_eq!(first[1].grams_per_kwh(), 100.0); // repeated hour value
        assert_eq!(first[2].grams_per_kwh(), 101.0);
        let second = a.aligned_intensity(1).unwrap();
        assert_eq!(second.len(), 48);
        assert_eq!(second[0].grams_per_kwh(), 101.0); // mean of 100/101/102
        assert!(a.aligned_intensity(2).is_err());
    }

    #[test]
    fn every_batch_path_is_bit_identical() {
        let energy = flat_energy(48, 12.5);
        let a = paper_shaped(
            energy,
            vec![
                ramp_ci(48, 60.0, 1.0),
                ramp_ci(48, 280.0, -2.0),
                ramp_ci(48, 175.0, 0.0),
            ],
        );
        let results = a.evaluate_space();
        assert_eq!(results.len(), 3 * 3 * 2 * 3);

        let mut streamed = Vec::new();
        a.stream_space(|p| streamed.push(p));
        for (i, p) in streamed.iter().enumerate() {
            assert_eq!(*p, results.get(i).unwrap(), "point {i}");
            assert_eq!(*p, a.evaluate(i).unwrap(), "point {i}");
        }
        let mut idx = 0;
        for chunk in a.chunks(11) {
            for k in 0..chunk.len() {
                assert_eq!(chunk.total[k], results.totals()[idx + k]);
            }
            idx += chunk.len();
        }
        assert_eq!(idx, results.len());
        assert!(a.evaluate(results.len()).is_err());
    }

    #[test]
    fn profile_slots_sum_to_integrated() {
        let energy = flat_energy(48, 10.0);
        let a = paper_shaped(energy, vec![ramp_ci(48, 50.0, 5.0)]);
        let profile = a.profile(7).unwrap();
        assert_eq!(profile.len(), 48);
        assert!(!profile.is_empty());
        assert_eq!(profile.step(), SimDuration::SETTLEMENT_PERIOD);
        let integrated = profile.integrated();
        assert_eq!(integrated, a.evaluate(7).unwrap().outcome);
        let active_sum: CarbonMass = profile.active().iter().copied().sum();
        assert!((active_sum.grams() - integrated.active.grams()).abs() < 1e-6);
        let embodied_sum = profile.embodied_per_slot() * profile.len() as f64;
        assert!(
            (embodied_sum.grams() - integrated.embodied.grams()).abs()
                < 1e-9 * integrated.embodied.grams()
        );
        // Slot iteration tiles the window.
        let slots: Vec<Period> = profile.iter().map(|(p, _)| p).collect();
        assert_eq!(slots.len(), 48);
        for w in slots.windows(2) {
            assert_eq!(w[0].end(), w[1].start());
        }
        // Ramp: cleanest first slot, dirtiest last slot.
        let (clean, c_val) = profile.cleanest_slot();
        let (dirty, d_val) = profile.dirtiest_slot();
        assert_eq!(clean.start(), Timestamp::EPOCH);
        assert_eq!(dirty.end(), Timestamp::from_days(1));
        assert!(c_val < d_val);
        assert!(a.profile(a.space().len()).is_err());
    }

    #[test]
    fn dst_length_days_are_first_class() {
        // A 23-hour (spring-forward) and a 25-hour (fall-back) "day":
        // nothing assumes 48 settlement periods.
        for slots in [46usize, 50] {
            let energy = flat_energy(slots, 10.0);
            let a = paper_shaped(energy, vec![ramp_ci(slots, 100.0, 1.0)]);
            assert_eq!(a.energy().len(), slots);
            let expected_days = slots as f64 / 48.0;
            assert!((a.window_days() - expected_days).abs() < 1e-12);
            let results = a.evaluate_space();
            let mut streamed = Vec::new();
            a.stream_space(|p| streamed.push(p.outcome.total()));
            assert_eq!(streamed.as_slice(), results.totals());
        }
    }

    #[test]
    fn zero_energy_windows_fall_back_to_plain_mean() {
        let energy = EnergySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            vec![Energy::ZERO; 4],
        );
        let a = paper_shaped(energy, vec![ramp_ci(4, 100.0, 100.0)]);
        // Plain mean of 100/200/300/400.
        assert!((a.space().ci().samples()[0].grams_per_kwh() - 250.0).abs() < 1e-9);
        let results = a.evaluate_space();
        for &active in results.active() {
            assert_eq!(active, CarbonMass::ZERO);
        }
    }
}
