//! The scenario-space evaluation engine.
//!
//! This is the generalised form of the paper's methodology: one IT-energy
//! figure, one fleet, and a [`ScenarioSpace`] of model inputs, evaluated
//! to `total = active + embodied` at every point. The paper's Tables 3
//! and 4 are tiny spaces (3 × 3 and 2 × 5); the engine evaluates spaces of
//! any cardinality, materialised, streamed or chunked, and answers
//! envelope/percentile/marginal queries over the batch.
//!
//! Entry point: [`Assessment::builder`].
//!
//! ```
//! use iriscast_model::engine::Assessment;
//! use iriscast_model::paper;
//!
//! // The paper's exact parameter space, as a 3 × 3 × 2 × 5 scenario space.
//! let assessment = Assessment::builder()
//!     .energy(paper::effective_energy())
//!     .ci_tri(paper::ci_references())
//!     .pue_tri(paper::pue_table3())
//!     .embodied_bounds(paper::server_embodied_bounds())
//!     .lifespans_years(&paper::LIFESPANS_YEARS)
//!     .servers(paper::AMORTISATION_FLEET_SERVERS)
//!     .build()
//!     .unwrap();
//! let results = assessment.evaluate_space();
//! assert_eq!(results.len(), 90);
//! // §6's active envelope falls out of the batch: 1,066–9,302 kg.
//! let env = results.envelope();
//! assert!((env.active.lo.kilograms() - 1_065.9).abs() < 0.1);
//! assert!((env.active.hi.kilograms() - 9_302.4).abs() < 0.1);
//! ```

use crate::column::Column;
use crate::embodied::fleet_snapshot_daily;
use crate::error::{Error, Result};
use crate::space::{ScenarioAxis, ScenarioPoint, ScenarioSpace};
use crate::stats_view::StatsAccumulator;
use iriscast_units::{Bounds, CarbonIntensity, CarbonMass, Energy, Pue, SimDuration, TriEstimate};
use std::sync::OnceLock;

// Re-exported here because the query types began life in this module;
// they are defined alongside the rest of the statistics surface in
// [`crate::stats_view`].
pub use crate::stats_view::{Envelope, Marginal, TotalsSummary};

/// Active and embodied carbon for one evaluated scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointOutcome {
    /// Active carbon for the window (equations 2–3).
    pub active: CarbonMass,
    /// Embodied carbon apportioned to the window (equation 4).
    pub embodied: CarbonMass,
}

impl PointOutcome {
    /// Equation (1): `Ct = Ca + Ce`.
    pub fn total(&self) -> CarbonMass {
        self.active + self.embodied
    }

    /// Embodied share of the total, in `[0, 1]`.
    pub fn embodied_share(&self) -> f64 {
        self.embodied / self.total()
    }
}

/// One evaluated scenario: the resolved parameters plus the outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointResult {
    /// The scenario that was evaluated.
    pub point: ScenarioPoint,
    /// Its active/embodied outcome.
    pub outcome: PointOutcome,
}

/// The model kernel: one scenario, evaluated.
///
/// `window_days` scales the embodied charge (1.0 is the paper's 24-hour
/// snapshot). Every evaluation path — single point, batch, parallel batch,
/// and all the legacy adapters — funnels through this function, which is
/// what keeps them bit-identical.
///
/// The caller guarantees `lifespan_years > 0` (the builder and
/// [`ScenarioSpace`] validate it; the underlying amortisation helper
/// asserts it).
pub fn evaluate_one(
    energy: Energy,
    servers: u32,
    window_days: f64,
    ci: CarbonIntensity,
    pue: Pue,
    embodied_per_server: CarbonMass,
    lifespan_years: f64,
) -> PointOutcome {
    PointOutcome {
        active: pue.apply(energy) * ci,
        embodied: fleet_snapshot_daily(embodied_per_server, lifespan_years, servers) * window_days,
    }
}

/// A fully resolved assessment: energy, fleet, window, and the scenario
/// space to sweep. Built with [`Assessment::builder`].
#[derive(Clone, Debug)]
pub struct Assessment {
    energy: Energy,
    servers: u32,
    window_days: f64,
    space: ScenarioSpace,
    /// Kernel tables, built lazily on first evaluation and reused by
    /// every subsequent batch/stream/chunk call — an `Assessment` is
    /// immutable, so the cache never needs invalidating.
    tables: OnceLock<EvalTables>,
}

/// Equality is over the assessment's parameters; the lazily built kernel
///-table cache is a derived artefact and deliberately not compared.
impl PartialEq for Assessment {
    fn eq(&self, other: &Self) -> bool {
        self.energy == other.energy
            && self.servers == other.servers
            && self.window_days == other.window_days
            && self.space == other.space
    }
}

impl Assessment {
    /// Starts a builder with nothing filled in.
    pub fn builder() -> AssessmentBuilder {
        AssessmentBuilder::default()
    }

    /// The paper's exact parameterisation (effective energy, Table 3/4
    /// axes, 2,398 servers, 24-hour window).
    pub fn paper() -> Self {
        Assessment::builder()
            .energy(crate::paper::effective_energy())
            .ci_tri(crate::paper::ci_references())
            .pue_tri(crate::paper::pue_table3())
            .embodied_bounds(crate::paper::server_embodied_bounds())
            .lifespans_years(&crate::paper::LIFESPANS_YEARS)
            .servers(crate::paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .expect("paper parameters are valid")
    }

    /// The IT energy being assessed.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// The fleet size amortised.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The window length the embodied charge covers, in days.
    pub fn window_days(&self) -> f64 {
        self.window_days
    }

    /// The scenario space this assessment sweeps.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// Evaluates one scenario point.
    pub fn evaluate(&self, point: &ScenarioPoint) -> PointResult {
        PointResult {
            point: *point,
            outcome: evaluate_one(
                self.energy,
                self.servers,
                self.window_days,
                point.ci,
                point.pue,
                point.embodied_per_server,
                point.lifespan_years,
            ),
        }
    }

    /// Evaluates the scenario at a flat index.
    pub fn evaluate_index(&self, index: usize) -> Result<PointResult> {
        Ok(self.evaluate(&self.space.point(index)?))
    }

    /// Precomputed multiplication tables for this assessment: one active
    /// value per (CI, PUE) pair (`pue.apply(energy) * ci`, exactly
    /// [`evaluate_one`]'s arithmetic) and one windowed fleet charge per
    /// (embodied, lifespan) pair. Factoring these out makes a batch
    /// O(points) table reads while keeping each point's value identical
    /// to [`evaluate_one`] — it is what keeps every evaluation path
    /// (materialised, streamed, chunked, parallel) bit-identical.
    ///
    /// Built once, lazily, and cached: repeated sweeps over the same
    /// assessment (the warm path) pay no per-call table work.
    fn tables(&self) -> &EvalTables {
        self.tables.get_or_init(|| {
            let pued: Vec<Energy> = self
                .space
                .pue()
                .iter()
                .map(|p| p.apply(self.energy))
                .collect();
            let mut active = Vec::with_capacity(self.space.ci().len() * pued.len());
            for &ci in self.space.ci() {
                for &pe in &pued {
                    active.push(pe * ci);
                }
            }
            let mut embodied =
                Vec::with_capacity(self.space.embodied().len() * self.space.lifespan_years().len());
            for &e in self.space.embodied() {
                for &years in self.space.lifespan_years() {
                    embodied.push(fleet_snapshot_daily(e, years, self.servers) * self.window_days);
                }
            }
            EvalTables { active, embodied }
        })
    }

    /// Evaluates every point in the space, serially, in index order.
    pub fn evaluate_space(&self) -> SpaceResults {
        materialise(&self.space, self.tables())
    }

    /// Evaluates the space into an existing [`SpaceResults`], reusing its
    /// column buffers (and, where capacities allow, its space's axis
    /// buffers) instead of allocating fresh ones — the warm path for
    /// repeated sweeps such as the `day_sweep` pattern. Values are
    /// bit-identical to [`Assessment::evaluate_space`]; after the first
    /// sweep warms the buffers, subsequent same-shape sweeps through this
    /// call allocate nothing.
    ///
    /// Any cached statistics view on `out` (see
    /// [`SpaceResults::percentile`]) is invalidated; it is rebuilt lazily
    /// on the next quantile query.
    pub fn evaluate_space_into(&self, out: &mut SpaceResults) {
        evaluate_into(&self.space, self.tables(), out);
    }

    /// Streams every point, in index order, to `sink` — no result
    /// columns are materialised, so memory stays O(1) in the space's
    /// cardinality. This is how >10M-point sweeps stay inside a bounded
    /// footprint; for batch queries (envelope, percentiles, marginals)
    /// use [`Assessment::evaluate_space`] instead.
    pub fn stream_space(&self, sink: impl FnMut(PointResult)) {
        stream_points(&self.space, self.tables(), sink);
    }

    /// Iterates the space as materialised chunks of at most
    /// `chunk_points` points (clamped to ≥ 1) — the middle ground
    /// between one giant [`SpaceResults`] and a per-point sink: each
    /// [`SpaceChunk`] holds contiguous columns for vectorised
    /// consumption, and only one chunk is alive at a time.
    pub fn chunks(&self, chunk_points: usize) -> SpaceChunks<'_> {
        chunks_over(&self.space, self.tables().clone(), chunk_points)
    }
}

/// Precomputed per-(CI, PUE) active and per-(embodied, lifespan) fleet
/// charges — the shared kernel every evaluation path reads. The scalar
/// engine fills `active` from one energy figure; the time-resolved
/// engine fills it from per-interval convolutions. Everything downstream
/// (materialise / stream / chunk) is common code, which is
/// what keeps the paths bit-identical to each other.
#[derive(Clone, Debug)]
pub(crate) struct EvalTables {
    /// Active carbon per (ci, pue) pair, ci-major.
    pub(crate) active: Vec<CarbonMass>,
    /// Windowed embodied charge per (embodied, lifespan) pair, embodied-major.
    pub(crate) embodied: Vec<CarbonMass>,
}

impl EvalTables {
    /// Calls `sink(flat_index, outcome)` for every point in
    /// `[start, end)`, in index order, without materialising anything.
    fn for_each(&self, start: usize, end: usize, mut sink: impl FnMut(usize, PointOutcome)) {
        let n_inner = self.embodied.len();
        let mut outer = start / n_inner;
        let mut inner = start % n_inner;
        for idx in start..end {
            sink(
                idx,
                PointOutcome {
                    active: self.active[outer],
                    embodied: self.embodied[inner],
                },
            );
            inner += 1;
            if inner == n_inner {
                inner = 0;
                outer += 1;
            }
        }
    }

    /// Materialises the three result columns for `[start, end)` into
    /// caller-owned buffers, clearing them first — the buffer-reuse
    /// primitive behind [`Assessment::evaluate_space_into`]. When the
    /// buffers' capacities already fit the range (the warm path), this
    /// allocates nothing.
    fn fill_columns_into(
        &self,
        start: usize,
        end: usize,
        active: &mut Vec<CarbonMass>,
        embodied: &mut Vec<CarbonMass>,
        total: &mut Vec<CarbonMass>,
    ) {
        active.clear();
        embodied.clear();
        total.clear();
        active.reserve(end - start);
        embodied.reserve(end - start);
        total.reserve(end - start);
        self.for_each(start, end, |_, o| {
            active.push(o.active);
            embodied.push(o.embodied);
            total.push(o.active + o.embodied);
        });
    }

    /// Materialises the three result columns for `[start, end)`.
    fn fill_columns(
        &self,
        start: usize,
        end: usize,
    ) -> (Vec<CarbonMass>, Vec<CarbonMass>, Vec<CarbonMass>) {
        let mut active = Vec::new();
        let mut embodied = Vec::new();
        let mut total = Vec::new();
        self.fill_columns_into(start, end, &mut active, &mut embodied, &mut total);
        (active, embodied, total)
    }
}

/// Serial materialisation over the kernel tables.
pub(crate) fn materialise(space: &ScenarioSpace, tables: &EvalTables) -> SpaceResults {
    let (active, embodied, total) = tables.fill_columns(0, space.len());
    SpaceResults {
        space: space.clone(),
        active: active.into(),
        embodied: embodied.into(),
        total: total.into(),
        sorted: OnceLock::new(),
    }
}

/// Serial materialisation into an existing [`SpaceResults`], reusing its
/// buffers (see [`Assessment::evaluate_space_into`]). Bit-identical to
/// [`materialise`]; the stale statistics cache is dropped so queries
/// can't read the previous sweep's totals.
pub(crate) fn evaluate_into(space: &ScenarioSpace, tables: &EvalTables, out: &mut SpaceResults) {
    if out.space != *space {
        out.space.clone_from(space);
    }
    out.sorted = OnceLock::new();
    tables.fill_columns_into(
        0,
        space.len(),
        out.active.vec_mut(),
        out.embodied.vec_mut(),
        out.total.vec_mut(),
    );
}

/// Serial streaming over the kernel tables: `sink` sees every point in
/// index order and nothing is materialised.
pub(crate) fn stream_points(
    space: &ScenarioSpace,
    tables: &EvalTables,
    mut sink: impl FnMut(PointResult),
) {
    let lookup = space.lookup();
    tables.for_each(0, space.len(), move |idx, outcome| {
        sink(PointResult {
            point: lookup
                .point(idx)
                .expect("kernel indices are in range by construction"),
            outcome,
        });
    });
}

/// A contiguous slice of batch results: columns for the points
/// `[start, start + len)` of the owning space, in index order.
///
/// Produced by the chunked iterators ([`Assessment::chunks`] and the
/// time-resolved equivalent); values are bit-identical to the same
/// indices of a full [`SpaceResults`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceChunk {
    /// Flat index of the chunk's first point.
    pub start: usize,
    /// Active-carbon column for the chunk.
    pub active: Vec<CarbonMass>,
    /// Embodied-carbon column for the chunk.
    pub embodied: Vec<CarbonMass>,
    /// Total-carbon column for the chunk.
    pub total: Vec<CarbonMass>,
}

impl SpaceChunk {
    /// Number of points in the chunk (≥ 1).
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// `true` when the chunk holds no points (never produced by the
    /// iterators; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// The flat-index range this chunk covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len()
    }
}

/// Iterator of [`SpaceChunk`]s over a scenario space (see
/// [`Assessment::chunks`]). Only the chunk being yielded is
/// materialised.
#[derive(Clone, Debug)]
pub struct SpaceChunks<'a> {
    space: &'a ScenarioSpace,
    tables: EvalTables,
    next: usize,
    chunk: usize,
}

impl Iterator for SpaceChunks<'_> {
    type Item = SpaceChunk;

    fn next(&mut self) -> Option<SpaceChunk> {
        let n = self.space.len();
        if self.next >= n {
            return None;
        }
        let start = self.next;
        let end = (start + self.chunk).min(n);
        self.next = end;
        let (active, embodied, total) = self.tables.fill_columns(start, end);
        Some(SpaceChunk {
            start,
            active,
            embodied,
            total,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.space.len().saturating_sub(self.next);
        let chunks = remaining.div_ceil(self.chunk);
        (chunks, Some(chunks))
    }
}

impl ExactSizeIterator for SpaceChunks<'_> {}

pub(crate) fn chunks_over<'a>(
    space: &'a ScenarioSpace,
    tables: EvalTables,
    chunk_points: usize,
) -> SpaceChunks<'a> {
    SpaceChunks {
        space,
        tables,
        next: 0,
        chunk: chunk_points.max(1),
    }
}

/// Builder for [`Assessment`]: energy source, the four scenario axes,
/// fleet size, and embodied window.
///
/// Axis setters exist at three altitudes: raw [`ScenarioAxis`] values,
/// the paper's [`TriEstimate`]/[`Bounds`] types, and plain-number
/// conveniences. Validation (empty axes, invalid PUEs, non-positive
/// lifespans) happens in [`AssessmentBuilder::build`] and surfaces as
/// typed [`Error`]s rather than panics.
#[derive(Clone, Debug, Default)]
pub struct AssessmentBuilder {
    energy: Option<Energy>,
    servers: Option<u32>,
    window: Option<SimDuration>,
    ci: Option<ScenarioAxis<CarbonIntensity>>,
    pue: Option<ScenarioAxis<Pue>>,
    pue_raw: Option<Vec<f64>>,
    embodied: Option<ScenarioAxis<CarbonMass>>,
    lifespan: Option<ScenarioAxis<f64>>,
    /// First error recorded by a convenience setter (e.g. an empty
    /// sample list); surfaced by [`AssessmentBuilder::build`].
    deferred: Option<Error>,
}

impl AssessmentBuilder {
    /// Sets the measured IT energy for the window (required).
    pub fn energy(mut self, energy: Energy) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Sets the fleet size amortised (required).
    pub fn servers(mut self, servers: u32) -> Self {
        self.servers = Some(servers);
        self
    }

    /// Sets the window the embodied charge covers (default: 24 hours, the
    /// paper's snapshot).
    pub fn window(mut self, window: SimDuration) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the carbon-intensity axis.
    pub fn ci_axis(mut self, axis: ScenarioAxis<CarbonIntensity>) -> Self {
        self.ci = Some(axis);
        self
    }

    /// Carbon-intensity axis from a low/mid/high triple.
    pub fn ci_tri(self, tri: TriEstimate<CarbonIntensity>) -> Self {
        self.ci_axis(ScenarioAxis::from_tri("carbon intensity", tri))
    }

    /// Records a setter-level failure for [`AssessmentBuilder::build`]
    /// to report (the first one wins), leaving already-set axes alone.
    fn defer(&mut self, err: Error) {
        self.deferred.get_or_insert(err);
    }

    /// Carbon-intensity axis from raw g/kWh samples. An empty list
    /// surfaces as [`Error::EmptyAxis`] at [`AssessmentBuilder::build`].
    pub fn ci_grams_per_kwh(mut self, samples: &[f64]) -> Self {
        match ScenarioAxis::new(
            "carbon intensity",
            samples
                .iter()
                .map(|&g| CarbonIntensity::from_grams_per_kwh(g))
                .collect(),
        ) {
            Ok(axis) => self.ci = Some(axis),
            Err(e) => self.defer(e),
        }
        self
    }

    /// Sets the PUE axis.
    pub fn pue_axis(mut self, axis: ScenarioAxis<Pue>) -> Self {
        self.pue = Some(axis);
        self.pue_raw = None;
        self
    }

    /// PUE axis from a low/mid/high triple.
    pub fn pue_tri(self, tri: TriEstimate<Pue>) -> Self {
        self.pue_axis(ScenarioAxis::from_tri("pue", tri))
    }

    /// PUE axis from raw ratios; values are validated at
    /// [`AssessmentBuilder::build`], where an invalid PUE becomes
    /// [`Error::Units`] instead of a panic.
    pub fn pue_values(mut self, samples: &[f64]) -> Self {
        self.pue_raw = Some(samples.to_vec());
        self.pue = None;
        self
    }

    /// Sets the embodied-carbon axis (per-server).
    pub fn embodied_axis(mut self, axis: ScenarioAxis<CarbonMass>) -> Self {
        self.embodied = Some(axis);
        self
    }

    /// Embodied axis from published per-server bounds (2 samples — the
    /// paper's 400/1,100 kg bracket).
    pub fn embodied_bounds(self, bounds: Bounds<CarbonMass>) -> Self {
        self.embodied_axis(
            ScenarioAxis::new("embodied per server", bounds.to_vec())
                .expect("two bounds are never an empty sample list"),
        )
    }

    /// Embodied axis of `n` evenly spaced samples across per-server
    /// bounds. `n == 0` surfaces as [`Error::EmptyAxis`] at
    /// [`AssessmentBuilder::build`].
    pub fn embodied_linspace(mut self, bounds: Bounds<CarbonMass>, n: usize) -> Self {
        match ScenarioAxis::linspace("embodied per server", bounds, n) {
            Ok(axis) => self.embodied = Some(axis),
            Err(e) => self.defer(e),
        }
        self
    }

    /// Sets the lifespan axis (years).
    pub fn lifespan_axis(mut self, axis: ScenarioAxis<f64>) -> Self {
        self.lifespan = Some(axis);
        self
    }

    /// Lifespan axis from whole-year samples (Table 4's 3–7 years). An
    /// empty list surfaces as [`Error::EmptyAxis`] at
    /// [`AssessmentBuilder::build`].
    pub fn lifespans_years(mut self, years: &[u32]) -> Self {
        let samples: Vec<f64> = years.iter().map(|&y| f64::from(y)).collect();
        match ScenarioAxis::new("lifespan", samples) {
            Ok(axis) => self.lifespan = Some(axis),
            Err(e) => self.defer(e),
        }
        self
    }

    /// Lifespan axis of `n` evenly spaced samples between `lo` and `hi`
    /// years. `n == 0` surfaces as [`Error::EmptyAxis`] at
    /// [`AssessmentBuilder::build`].
    pub fn lifespan_linspace(mut self, lo: f64, hi: f64, n: usize) -> Self {
        match ScenarioAxis::linspace("lifespan", Bounds::new(lo, hi), n) {
            Ok(axis) => self.lifespan = Some(axis),
            Err(e) => self.defer(e),
        }
        self
    }

    /// Validates and builds the [`Assessment`].
    pub fn build(self) -> Result<Assessment> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        let energy = self
            .energy
            .ok_or(Error::MissingParameter { what: "energy" })?;
        let servers = self.servers.ok_or(Error::MissingParameter {
            what: "fleet size (servers)",
        })?;
        let window_days = match self.window {
            Some(w) => w.as_days(),
            None => 1.0,
        };
        if !(window_days.is_finite() && window_days > 0.0) {
            return Err(Error::InvalidWindow { days: window_days });
        }
        let ci = self.ci.ok_or(Error::MissingParameter {
            what: "carbon-intensity axis",
        })?;
        let pue = match (self.pue, self.pue_raw) {
            (Some(axis), _) => axis,
            (None, Some(raw)) => {
                let samples = raw
                    .into_iter()
                    .map(Pue::new)
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                ScenarioAxis::new("pue", samples)?
            }
            (None, None) => return Err(Error::MissingParameter { what: "pue axis" }),
        };
        let embodied = self.embodied.ok_or(Error::MissingParameter {
            what: "embodied-carbon axis",
        })?;
        let lifespan = self.lifespan.ok_or(Error::MissingParameter {
            what: "lifespan axis",
        })?;
        Ok(Assessment {
            energy,
            servers,
            window_days,
            space: ScenarioSpace::new(ci, pue, embodied, lifespan)?,
            tables: OnceLock::new(),
        })
    }
}

/// Columnar results of a batch evaluation: one entry per scenario point,
/// in the space's index order.
///
/// Columns are stored separately (struct-of-arrays) so envelope,
/// percentile and marginal queries scan contiguous memory. Each column
/// (and the CI axis) is a `Vec` plus a head offset, so
/// [`SpaceResults::retract_rows`] drops the oldest rows without moving
/// the survivors. The query surface (envelope / quantiles / marginals)
/// lives in [`crate::stats_view`]; quantile queries share a lazily
/// built sorted view of the total column, so repeated queries cost
/// O(1) after the first.
///
/// # Invariant
///
/// Every constructor ([`Assessment::evaluate_space`] and friends) fills
/// exactly `space.len()` entries per column, and a [`ScenarioSpace`] is
/// non-empty by construction (every axis rejects empty sample lists) —
/// so `len() ≥ 1` always, each axis sample owns `len() / axis_len ≥ 1`
/// points, and the statistics queries are total without empty-input
/// guards. Debug builds assert the invariant before every statistics
/// query (`debug_assert_invariant`).
#[derive(Clone, Debug)]
pub struct SpaceResults {
    pub(crate) space: ScenarioSpace,
    pub(crate) active: Column<CarbonMass>,
    pub(crate) embodied: Column<CarbonMass>,
    pub(crate) total: Column<CarbonMass>,
    /// Lazily built ascending view of `total` in kilograms (see
    /// [`crate::stats_view`]); folded into in place by
    /// [`SpaceResults::extend_rows`], dropped on re-fill by
    /// [`Assessment::evaluate_space_into`].
    pub(crate) sorted: OnceLock<StatsAccumulator>,
}

/// Equality is over the space and the three result columns; the lazily
/// built statistics cache is a derived artefact and deliberately not
/// compared (a queried and an unqueried copy of the same results are
/// equal).
impl PartialEq for SpaceResults {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.active == other.active
            && self.embodied == other.embodied
            && self.total == other.total
    }
}

impl SpaceResults {
    /// Number of evaluated points (= the space's cardinality, ≥ 1).
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// Always `false`: spaces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The space these results were evaluated over.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// Active-carbon column.
    pub fn active(&self) -> &[CarbonMass] {
        &self.active
    }

    /// Embodied-carbon column.
    pub fn embodied(&self) -> &[CarbonMass] {
        &self.embodied
    }

    /// Total-carbon column.
    pub fn totals(&self) -> &[CarbonMass] {
        &self.total
    }

    /// Reconstructs the full [`PointResult`] at an index.
    pub fn get(&self, index: usize) -> Result<PointResult> {
        let point = self.space.point(index)?;
        Ok(PointResult {
            point,
            outcome: PointOutcome {
                active: self.active[index],
                embodied: self.embodied[index],
            },
        })
    }

    /// Checks the type-level invariant (columns exactly tile the
    /// non-empty space) in debug builds; called by the statistics view
    /// before relying on it.
    #[inline]
    pub(crate) fn debug_assert_invariant(&self) {
        debug_assert!(
            !self.total.is_empty(),
            "spaces are non-empty by construction"
        );
        debug_assert_eq!(self.total.len(), self.space.len());
        debug_assert_eq!(self.active.len(), self.total.len());
        debug_assert_eq!(self.embodied.len(), self.total.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn builder_requires_every_parameter() {
        let missing = Assessment::builder().build().unwrap_err();
        assert_eq!(missing, Error::MissingParameter { what: "energy" });
        let missing_axis = Assessment::builder()
            .energy(paper::effective_energy())
            .servers(10)
            .build()
            .unwrap_err();
        assert_eq!(
            missing_axis,
            Error::MissingParameter {
                what: "carbon-intensity axis"
            }
        );
    }

    #[test]
    fn invalid_pue_is_a_typed_error_not_a_panic() {
        let err = Assessment::builder()
            .energy(paper::effective_energy())
            .servers(10)
            .ci_grams_per_kwh(&[100.0])
            .pue_values(&[1.1, 0.9])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[5])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Units(_)), "{err}");
    }

    #[test]
    fn empty_convenience_setter_surfaces_empty_axis_not_missing() {
        // A setter given an empty sample list must not clear a
        // previously set axis or masquerade as "missing".
        let err = Assessment::builder()
            .energy(paper::effective_energy())
            .servers(10)
            .ci_tri(paper::ci_references())
            .ci_grams_per_kwh(&[])
            .pue_values(&[1.3])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[5])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::EmptyAxis {
                axis: "carbon intensity".into()
            }
        );
        for builder in [
            Assessment::builder().embodied_linspace(paper::server_embodied_bounds(), 0),
            Assessment::builder().lifespan_linspace(3.0, 7.0, 0),
            Assessment::builder().lifespans_years(&[]),
        ] {
            let err = builder
                .energy(paper::effective_energy())
                .servers(10)
                .ci_tri(paper::ci_references())
                .pue_values(&[1.3])
                .embodied_bounds(paper::server_embodied_bounds())
                .lifespans_years(&[5])
                .build()
                .unwrap_err();
            assert!(matches!(err, Error::EmptyAxis { .. }), "{err}");
        }
    }

    #[test]
    fn non_positive_window_is_rejected() {
        for secs in [0i64, -86_400] {
            let err = Assessment::builder()
                .energy(paper::effective_energy())
                .servers(10)
                .ci_grams_per_kwh(&[175.0])
                .pue_values(&[1.3])
                .embodied_bounds(paper::server_embodied_bounds())
                .lifespans_years(&[5])
                .window(SimDuration::from_secs(secs))
                .build()
                .unwrap_err();
            assert!(matches!(err, Error::InvalidWindow { .. }), "{secs}: {err}");
        }
    }

    #[test]
    fn paper_space_matches_tables() {
        let a = Assessment::paper();
        assert_eq!(a.space().shape(), [3, 3, 2, 5]);
        let results = a.evaluate_space();
        assert_eq!(results.len(), 90);
        // Corner scenarios: all-low → Table 3 [0][0] + Table 4 7y/400kg;
        // all-high → Table 3 [2][2] + Table 4 3y/1100kg.
        let env = results.envelope();
        assert!((env.total.lo.kilograms() - 1_441.3).abs() < 0.1);
        assert!((env.total.hi.kilograms() - 11_711.3).abs() < 0.1);
        // The §6 assessment object agrees.
        let asm = results.assessment();
        assert!((asm.total().lo.kilograms() - 1_441.3).abs() < 0.1);
    }

    #[test]
    fn single_point_matches_batch() {
        let a = Assessment::paper();
        let results = a.evaluate_space();
        for idx in [0, 1, 17, 42, 89] {
            let single = a.evaluate_index(idx).unwrap();
            let batch = results.get(idx).unwrap();
            assert_eq!(single, batch, "point {idx}");
            assert_eq!(
                single.outcome.total(),
                single.outcome.active + single.outcome.embodied
            );
        }
        assert!(results.get(90).is_err());
        assert!(a.evaluate_index(90).is_err());
    }

    #[test]
    fn evaluate_into_reuses_buffers_and_matches_fresh_evaluation() {
        let a = Assessment::paper();
        let fresh = a.evaluate_space();
        // Warm a differently-shaped result, then sweep into it.
        let b = Assessment::builder()
            .energy(paper::effective_energy())
            .ci_grams_per_kwh(&[80.0, 120.0])
            .pue_values(&[1.2])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[4])
            .servers(paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .unwrap();
        let mut reused = b.evaluate_space();
        assert_ne!(reused, fresh);
        a.evaluate_space_into(&mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(reused.space(), a.space());
        // Warm path: a same-shape re-sweep must reuse the column
        // storage in place (the data pointer survives clear + refill
        // when capacity already fits), not reallocate.
        let ptr = reused.totals().as_ptr();
        a.evaluate_space_into(&mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(reused.totals().as_ptr(), ptr);
        // A stale statistics cache never leaks across sweeps.
        let p95_b = b.evaluate_space().percentile(0.95).unwrap();
        let mut recycled = b.evaluate_space();
        assert_eq!(recycled.percentile(0.95).unwrap(), p95_b);
        a.evaluate_space_into(&mut recycled);
        assert_eq!(
            recycled.percentile(0.95).unwrap(),
            fresh.percentile(0.95).unwrap()
        );
    }

    #[test]
    fn streamed_and_chunked_paths_match_materialised() {
        let a = Assessment::paper();
        let results = a.evaluate_space();
        let mut streamed = Vec::new();
        a.stream_space(|p| streamed.push(p));
        assert_eq!(streamed.len(), results.len());
        for (i, p) in streamed.iter().enumerate() {
            assert_eq!(*p, results.get(i).unwrap(), "point {i}");
        }

        // Chunked: uneven chunk size, full coverage, exact columns.
        let mut idx = 0;
        let chunks = a.chunks(7);
        assert_eq!(chunks.len(), results.len().div_ceil(7));
        for chunk in chunks {
            assert_eq!(chunk.start, idx);
            assert!(!chunk.is_empty());
            assert_eq!(chunk.range().start, idx);
            for k in 0..chunk.len() {
                assert_eq!(chunk.active[k], results.active()[idx + k]);
                assert_eq!(chunk.embodied[k], results.embodied()[idx + k]);
                assert_eq!(chunk.total[k], results.totals()[idx + k]);
            }
            idx += chunk.len();
        }
        assert_eq!(idx, results.len());
        // Chunk size 0 is clamped, not a panic or infinite loop.
        assert_eq!(a.chunks(0).count(), results.len());
    }

    #[test]
    fn window_scales_embodied_only() {
        let base = Assessment::builder()
            .energy(paper::effective_energy())
            .ci_grams_per_kwh(&[175.0])
            .pue_values(&[1.3])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[5])
            .servers(paper::AMORTISATION_FLEET_SERVERS);
        let day = base.clone().build().unwrap().evaluate_space();
        let week = base
            .window(SimDuration::from_days(7))
            .build()
            .unwrap()
            .evaluate_space();
        assert_eq!(day.active(), week.active());
        for (d, w) in day.embodied().iter().zip(week.embodied()) {
            assert!((w.grams() - d.grams() * 7.0).abs() < 1e-6);
        }
    }
}
