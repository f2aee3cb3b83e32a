//! Statistics and query surface of [`SpaceResults`]: envelopes,
//! quantiles, grouped marginals, and the cached sorted view behind them.
//!
//! The paper's §6 methodology — and the screening workflows built on it —
//! ask the same batch many questions: an envelope, a handful of
//! quantiles, a marginal per axis. A [`SpaceResults`] is immutable once
//! evaluated, so the expensive part of a quantile query (sorting the
//! total column) is done **once**, lazily, and cached; every subsequent
//! quantile is an O(1) interpolation on the sorted view. Three query
//! shapes share that machinery:
//!
//! * [`SpaceResults::percentile`] — builds (or reuses) the cached sorted
//!   view; the right default, and what makes repeated queries
//!   allocation-free after the first;
//! * [`SpaceResults::percentiles`] — batch form over one sort, for
//!   answering a whole quantile grid at once;
//! * [`SpaceResults::percentile_oneshot`] — `select_nth`-based O(n)
//!   form for a single quantile of a batch that will not be queried
//!   again (it neither builds nor warms the cache).
//!
//! Totality: quantile queries validate `q ∈ [0, 1]`
//! ([`Error::InvalidFraction`]) and refuse NaN-bearing totals
//! ([`Error::NonFiniteData`]) instead of interpolating garbage; the
//! empty-input case is *unrepresentable* because every [`SpaceResults`]
//! constructor fills exactly `space.len() ≥ 1` rows (see the invariant
//! note on [`SpaceResults`]) — the `expect("results are non-empty")`
//! calls of the previous revision are gone, not hidden.
//!
//! # Incremental operation
//!
//! A result batch is no longer immutable: [`SpaceResults::extend_rows`]
//! folds a second batch (same inner axes, new carbon-intensity samples)
//! into this one in place, and a **warm** cached view is *updated* by
//! `StatsAccumulator::fold`'s galloping merge — O(new·log old)
//! comparisons, each old element moved at most once — instead of being
//! dropped and re-sorted. Quantile queries between folds therefore stay
//! O(1) and allocation-free, and every query answers bit-identically to
//! a from-scratch batch evaluation over the concatenated CI axis (the
//! property suites pin this at arbitrary split points).
//!
//! [`SpaceResults::retract_rows`] is the inverse: it evicts the oldest
//! CI blocks. Its cost depends on the view. On a **cold** view it is
//! O(evicted block), amortised: each column is a `Vec` plus a head
//! offset, eviction only advances the offset, and the dead prefix is
//! compacted away only when a later append would otherwise reallocate —
//! so memory is never above that of a plain front-drained `Vec`. On a
//! **warm** view the evicted totals are also subtracted from the sorted
//! view, an O(view) sweep.

use crate::engine::SpaceResults;
use crate::error::{Error, Result};
use crate::model::CarbonAssessment;
use crate::space::AxisId;
use iriscast_grid::stats;
use iriscast_units::{Bounds, CarbonMass};

/// The updatable sorted view of a result batch's total column:
/// kilograms, ascending (`total_cmp` order). Built lazily by the
/// quantile queries; **folded into** (not rebuilt) when the owning
/// [`SpaceResults`] grows through [`SpaceResults::extend_rows`]; dropped
/// when the batch is re-filled wholesale through
/// [`crate::engine::Assessment::evaluate_space_into`].
#[derive(Clone, Debug)]
pub(crate) struct StatsAccumulator {
    /// Totals in kilograms, ascending.
    kg: Vec<f64>,
    /// Whether any total is NaN (poisons quantile queries with a typed
    /// error; checked once here instead of per query).
    has_nan: bool,
}

impl StatsAccumulator {
    fn build(total: &[CarbonMass]) -> Self {
        let mut kg: Vec<f64> = total.iter().map(|t| t.kilograms()).collect();
        let has_nan = kg.iter().any(|v| v.is_nan());
        kg.sort_by(f64::total_cmp);
        StatsAccumulator { kg, has_nan }
    }

    /// Folds a batch of new totals into the sorted view by galloping
    /// merge: sort the (small) incoming batch, then walk it largest
    /// first, locating each value's rank among the remaining old values
    /// with one `partition_point` and sliding the old run above it into
    /// place with one `copy_within`. O(new·log old) comparisons and
    /// each old element moved at most once — not a full re-sort.
    ///
    /// Bit-identity: `total_cmp` is a total order in which equal values
    /// have identical bit patterns, so wherever ties land, the merged
    /// sequence is byte-for-byte the one a from-scratch
    /// [`StatsAccumulator::build`] of the concatenated column produces.
    fn fold(&mut self, new_total: &[CarbonMass]) {
        if new_total.is_empty() {
            return;
        }
        let mut incoming: Vec<f64> = new_total.iter().map(|t| t.kilograms()).collect();
        self.has_nan |= incoming.iter().any(|v| v.is_nan());
        incoming.sort_by(f64::total_cmp);
        let old_len = self.kg.len();
        self.kg.resize(old_len + incoming.len(), 0.0);
        // Merge back to front. Old values live in kg[..old_end]; the
        // next placed block ends (exclusively) at write_end. The loop
        // keeps `write_end - old_end == number of unplaced new values`,
        // so writes always land strictly above the unread old region.
        let mut old_end = old_len;
        let mut write_end = self.kg.len();
        for &v in incoming.iter().rev() {
            let p = self.kg[..old_end].partition_point(|x| x.total_cmp(&v).is_le());
            let run = old_end - p;
            self.kg.copy_within(p..old_end, write_end - run);
            write_end -= run + 1;
            self.kg[write_end] = v;
            old_end = p;
        }
        // Everything below the smallest new value was already in place.
        debug_assert_eq!(write_end, old_end);
    }

    /// Removes an exact multiset of totals from the sorted view — the
    /// inverse of [`StatsAccumulator::fold`], used by
    /// [`SpaceResults::retract_rows`] to evict the oldest
    /// carbon-intensity blocks without dropping the warm cache.
    ///
    /// Why exact retraction is safe here (the design the retention
    /// story rests on): the accumulator holds the **raw sorted
    /// values**, not merged running aggregates — there is no
    /// mean/variance to "un-merge" and therefore no numerical
    /// fragility. Under `total_cmp`, values that compare equal have
    /// identical bit patterns, so subtracting the retracted multiset by
    /// one ascending two-pointer sweep leaves byte-for-byte the view a
    /// from-scratch [`StatsAccumulator::build`] of the surviving column
    /// produces. Every retracted value must be present in the view
    /// (guaranteed by the caller, which retracts a prefix of its own
    /// total column; debug-asserted here).
    fn retract(&mut self, removed: &[CarbonMass]) {
        if removed.is_empty() {
            return;
        }
        let mut gone: Vec<f64> = removed.iter().map(|t| t.kilograms()).collect();
        gone.sort_by(f64::total_cmp);
        let mut write = 0usize;
        let mut g = 0usize;
        for read in 0..self.kg.len() {
            let v = self.kg[read];
            if g < gone.len() && v.total_cmp(&gone[g]).is_eq() {
                g += 1;
                continue;
            }
            self.kg[write] = v;
            write += 1;
        }
        debug_assert_eq!(g, gone.len(), "retracted totals must exist in the view");
        self.kg.truncate(write);
        // Recheck the NaN flag: under `total_cmp` NaNs sort to the
        // extremes (negative NaN below -inf, positive NaN above +inf),
        // so the two ends decide the flag exactly.
        self.has_nan = self.kg.first().is_some_and(|v| v.is_nan())
            || self.kg.last().is_some_and(|v| v.is_nan());
    }

    /// O(1) linear-interpolated quantile on the sorted view, delegating
    /// the interpolation rule to [`stats::percentile_sorted`] so every
    /// quantile path in the workspace shares one definition.
    fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidFraction { value: q });
        }
        if self.has_nan {
            return Err(Error::NonFiniteData { column: "total" });
        }
        Ok(stats::percentile_sorted(&self.kg, q)
            .expect("q validated above and the view is non-empty by the SpaceResults invariant"))
    }
}

/// Marginal statistics of the total along one sample of one axis: what the
/// batch looks like with that input pinned and everything else swept.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Marginal {
    /// The axis being conditioned on.
    pub axis: AxisId,
    /// The sample index along that axis.
    pub sample_index: usize,
    /// Total-carbon envelope over all other axes.
    pub total: Bounds<CarbonMass>,
    /// Mean total over all other axes.
    pub mean_total: CarbonMass,
}

impl Marginal {
    /// The spread this sample leaves unexplained (envelope width).
    pub fn span(&self) -> CarbonMass {
        self.total.hi - self.total.lo
    }
}

/// Joint active/embodied/total envelope of a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// Active-carbon envelope.
    pub active: Bounds<CarbonMass>,
    /// Embodied-carbon envelope.
    pub embodied: Bounds<CarbonMass>,
    /// Total-carbon envelope.
    pub total: Bounds<CarbonMass>,
}

/// Five-number-plus-mean summary of the total column, in carbon-mass
/// units — the model-layer face of [`iriscast_grid::stats::Summary`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotalsSummary {
    /// Minimum total.
    pub min: CarbonMass,
    /// 25th percentile.
    pub p25: CarbonMass,
    /// Median.
    pub median: CarbonMass,
    /// 75th percentile.
    pub p75: CarbonMass,
    /// Maximum total.
    pub max: CarbonMass,
    /// Arithmetic mean.
    pub mean: CarbonMass,
}

impl SpaceResults {
    /// The cached sorted totals, built on first use.
    fn sorted_totals(&self) -> &StatsAccumulator {
        self.debug_assert_invariant();
        self.sorted
            .get_or_init(|| StatsAccumulator::build(&self.total))
    }

    /// Folds another result batch into this one in place: `other`'s
    /// carbon-intensity samples are appended to this space's CI
    /// (outermost) axis and its columns appended row for row, so the
    /// grown batch is **bit-identical** — columns, envelope, quantiles,
    /// marginals — to a from-scratch evaluation over the concatenated CI
    /// axis. A warm cached-sort view is updated by galloping merge
    /// (`StatsAccumulator::fold`) rather than dropped, so quantile
    /// queries between folds stay O(1) and allocation-free; a cold view
    /// stays cold (nothing to keep warm).
    ///
    /// Cost: O(appended rows), amortised, plus the galloping merge on
    /// a warm view. An append that would reallocate a column first
    /// compacts away the rows earlier evictions left dead (see
    /// [`SpaceResults::retract_rows`]), so capacity grows only when
    /// the live rows need it.
    ///
    /// Only the CI axis may grow because it is outermost in the
    /// row-major point order: appending its samples appends whole
    /// contiguous blocks of points, leaving every existing index,
    /// coordinate and inner-axis stride untouched. The three inner axes
    /// must therefore be identical (name and samples), or the appended
    /// rows would land at the wrong coordinates —
    /// [`Error::ShapeMismatch`] names the first offender.
    pub fn extend_rows(&mut self, other: &SpaceResults) -> Result<()> {
        self.debug_assert_invariant();
        other.debug_assert_invariant();
        if self.space.pue() != other.space.pue() {
            return Err(Error::ShapeMismatch { axis: "pue" });
        }
        if self.space.embodied() != other.space.embodied() {
            return Err(Error::ShapeMismatch { axis: "embodied" });
        }
        if self.space.lifespan_years() != other.space.lifespan_years() {
            return Err(Error::ShapeMismatch { axis: "lifespan" });
        }
        self.active.extend_from_slice(&other.active);
        self.embodied.extend_from_slice(&other.embodied);
        self.total.extend_from_slice(&other.total);
        self.space.extend_ci(other.space.ci());
        if let Some(view) = self.sorted.get_mut() {
            view.fold(&other.total);
        }
        self.debug_assert_invariant();
        Ok(())
    }

    /// Evicts the **oldest** `ci_samples` carbon-intensity samples and
    /// their rows — the exact inverse of [`SpaceResults::extend_rows`].
    ///
    /// CI is outermost in the row-major point order, so the oldest
    /// samples own the leading `ci_samples · (len / ci_len)` rows of
    /// every column: retraction drops a column prefix, and the
    /// surviving batch is **bit-identical** — columns, envelope,
    /// quantiles, marginals — to one into which the evicted blocks were
    /// *never folded at all* (the retention property suites pin this).
    /// A warm cached-sort view has the evicted totals subtracted in
    /// place (`StatsAccumulator::retract`) rather than being dropped,
    /// so quantile queries across an eviction stay O(1) and
    /// allocation-free; a cold view stays cold.
    ///
    /// Cost: on a cold view, O(evicted block) amortised. The columns
    /// and the CI axis only advance a head offset past the evicted
    /// rows; the dead prefix is compacted away by the next
    /// [`SpaceResults::extend_rows`] that would otherwise reallocate,
    /// so memory is never above that of a plain front-drained `Vec`.
    /// On a warm view the subtraction from the sorted view is an
    /// O(view) sweep.
    ///
    /// `ci_samples == 0` is a no-op. At least one CI sample must
    /// survive (results are non-empty by invariant):
    /// [`Error::RetractOutOfRange`] when `ci_samples ≥ ci_len`.
    pub fn retract_rows(&mut self, ci_samples: usize) -> Result<()> {
        self.debug_assert_invariant();
        if ci_samples == 0 {
            return Ok(());
        }
        let available = self.space.ci().len();
        if ci_samples >= available {
            return Err(Error::RetractOutOfRange {
                requested: ci_samples,
                available,
            });
        }
        let rows = ci_samples * (self.total.len() / available);
        // Subtract from the warm view first — it needs the evicted
        // totals, which the drops below discard.
        if let Some(view) = self.sorted.get_mut() {
            view.retract(&self.total[..rows]);
        }
        self.active.drop_front(rows);
        self.embodied.drop_front(rows);
        self.total.drop_front(rows);
        self.space.retract_ci(ci_samples);
        self.debug_assert_invariant();
        Ok(())
    }

    fn column_bounds(col: &[CarbonMass]) -> Bounds<CarbonMass> {
        let mut lo = col[0];
        let mut hi = col[0];
        for &v in &col[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Bounds::new(lo, hi)
    }

    /// The batch's joint envelope: min/max of each column.
    pub fn envelope(&self) -> Envelope {
        self.debug_assert_invariant();
        Envelope {
            active: Self::column_bounds(&self.active),
            embodied: Self::column_bounds(&self.embodied),
            total: Self::column_bounds(&self.total),
        }
    }

    /// The envelope packaged as a [`CarbonAssessment`] — how §6 of the
    /// paper combines its table extremes.
    pub fn assessment(&self) -> CarbonAssessment {
        let env = self.envelope();
        CarbonAssessment::new(env.active, env.embodied)
    }

    /// Linear-interpolated percentile of the total column; `q` in
    /// `[0, 1]`.
    ///
    /// The first quantile query sorts the column once into a cached
    /// view; this and every later quantile query on the same results
    /// then costs O(1) and allocates nothing. For a single quantile of
    /// a batch that will never be queried again, see
    /// [`SpaceResults::percentile_oneshot`].
    pub fn percentile(&self, q: f64) -> Result<CarbonMass> {
        self.sorted_totals()
            .quantile(q)
            .map(CarbonMass::from_kilograms)
    }

    /// Batch percentiles over one shared sort: every `q` answered
    /// against the cached sorted view. All-or-nothing — an out-of-range
    /// `q` anywhere in the batch fails the whole call, so a partial
    /// answer can't be mistaken for a full one.
    pub fn percentiles(&self, qs: &[f64]) -> Result<Vec<CarbonMass>> {
        let view = self.sorted_totals();
        qs.iter()
            .map(|&q| view.quantile(q).map(CarbonMass::from_kilograms))
            .collect()
    }

    /// One-shot percentile via `select_nth` — O(n) expected instead of
    /// the O(n log n) sort, for a single quantile of a batch that will
    /// not be queried again. Does not build the cached view (that is
    /// the point); if the view already exists it is used directly.
    pub fn percentile_oneshot(&self, q: f64) -> Result<CarbonMass> {
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidFraction { value: q });
        }
        if let Some(view) = self.sorted.get() {
            return view.quantile(q).map(CarbonMass::from_kilograms);
        }
        self.debug_assert_invariant();
        let mut kg: Vec<f64> = self.total.iter().map(|t| t.kilograms()).collect();
        match stats::percentile_select(&mut kg, q) {
            Some(v) => Ok(CarbonMass::from_kilograms(v)),
            // `q` is validated and the column is non-empty by invariant,
            // so the only remaining refusal is NaN-bearing input.
            None => Err(Error::NonFiniteData { column: "total" }),
        }
    }

    /// Mean of the total column. Single pass, no allocation.
    ///
    /// Unlike the quantile queries, this follows plain IEEE semantics
    /// for non-finite data: a `NaN` total yields a `NaN` mean (visible
    /// in the result, unlike a `NaN` silently *ranked* into a quantile,
    /// which would masquerade as a real order statistic).
    pub fn mean_total(&self) -> CarbonMass {
        self.debug_assert_invariant();
        let sum: f64 = self.total.iter().map(|t| t.kilograms()).sum();
        CarbonMass::from_kilograms(sum / self.total.len() as f64)
    }

    /// Five-number-plus-mean summary of the totals, read off the cached
    /// sorted view (one sort amortised across this and every quantile
    /// query).
    pub fn summary(&self) -> Result<TotalsSummary> {
        let view = self.sorted_totals();
        let q = |q: f64| view.quantile(q).map(CarbonMass::from_kilograms);
        Ok(TotalsSummary {
            min: q(0.0)?,
            p25: q(0.25)?,
            median: q(0.5)?,
            p75: q(0.75)?,
            max: q(1.0)?,
            mean: self.mean_total(),
        })
    }

    /// Grouped marginals along one axis: for each of its samples, the
    /// envelope and mean of the total over every other axis. Sorting the
    /// output by [`Marginal::span`] ranks how much uncertainty each
    /// sample of the input leaves unresolved — the batch analogue of the
    /// one-at-a-time tornado in [`crate::sensitivity`].
    pub fn marginals(&self, axis: AxisId) -> Vec<Marginal> {
        self.debug_assert_invariant();
        let n_samples = self.space.axis_len(axis);
        let stride = self.space.stride_of(axis);
        // The space is a cartesian product, so every sample of every
        // axis owns exactly `len / n_samples ≥ 1` points — empty groups
        // are impossible by construction and the mean below never needs
        // the masking `count.max(1)` guard an earlier revision carried
        // (which would have silently reported zero bounds for a group
        // that can't exist).
        let per_sample = self.total.len() / n_samples;
        // Seed each group's bounds from its first point (flat index
        // `s · stride`), then fold the whole column once.
        let mut lo: Vec<CarbonMass> = (0..n_samples).map(|s| self.total[s * stride]).collect();
        let mut hi = lo.clone();
        let mut sum = vec![0.0f64; n_samples];
        for (idx, &t) in self.total.iter().enumerate() {
            let s = (idx / stride) % n_samples;
            lo[s] = lo[s].min(t);
            hi[s] = hi[s].max(t);
            sum[s] += t.kilograms();
        }
        (0..n_samples)
            .map(|s| Marginal {
                axis,
                sample_index: s,
                total: Bounds::new(lo[s], hi[s]),
                mean_total: CarbonMass::from_kilograms(sum[s] / per_sample as f64),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Assessment;
    use crate::paper;
    use iriscast_units::Energy;

    fn naive_percentile(results: &SpaceResults, q: f64) -> CarbonMass {
        // The pre-cache definition: clone the column, sort, interpolate.
        let kg: Vec<f64> = results.totals().iter().map(|t| t.kilograms()).collect();
        CarbonMass::from_kilograms(stats::percentile(&kg, q).expect("non-empty, valid q"))
    }

    #[test]
    fn percentiles_and_mean_are_ordered() {
        let results = Assessment::paper().evaluate_space();
        let p5 = results.percentile(0.05).unwrap();
        let p50 = results.percentile(0.50).unwrap();
        let p95 = results.percentile(0.95).unwrap();
        assert!(p5 < p50 && p50 < p95);
        let env = results.envelope();
        assert!(p5 >= env.total.lo && p95 <= env.total.hi);
        let mean = results.mean_total();
        assert!(mean > env.total.lo && mean < env.total.hi);
        assert!(results.percentile(1.5).is_err());
        assert!(results.percentile(-0.1).is_err());
        assert!(results.percentile_oneshot(1.5).is_err());
        assert!(results.percentiles(&[0.5, -0.1]).is_err());
    }

    #[test]
    fn cached_batched_and_oneshot_agree_with_naive_sort_per_call() {
        let results = Assessment::paper().evaluate_space();
        let qs = [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
        let batch = results.percentiles(&qs).unwrap();
        for (&q, &b) in qs.iter().zip(&batch) {
            let naive = naive_percentile(&results, q);
            assert_eq!(results.percentile(q).unwrap(), naive, "cached, q = {q}");
            assert_eq!(b, naive, "batch, q = {q}");
            assert_eq!(
                results.percentile_oneshot(q).unwrap(),
                naive,
                "oneshot, q = {q}"
            );
        }
        // Oneshot on a fresh (cache-less) result takes the select path.
        let fresh = Assessment::paper().evaluate_space();
        for q in qs {
            assert_eq!(
                fresh.percentile_oneshot(q).unwrap(),
                naive_percentile(&fresh, q),
                "select path, q = {q}"
            );
        }
    }

    #[test]
    fn summary_is_consistent_with_envelope_and_quantiles() {
        let results = Assessment::paper().evaluate_space();
        let s = results.summary().unwrap();
        let env = results.envelope();
        assert_eq!(s.min, env.total.lo);
        assert_eq!(s.max, env.total.hi);
        assert_eq!(s.median, results.percentile(0.5).unwrap());
        assert_eq!(s.mean, results.mean_total());
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.max);
    }

    #[test]
    fn nan_totals_surface_as_typed_errors_not_interpolation() {
        // A NaN energy figure propagates NaN into every total; quantile
        // queries must refuse it, not rank it.
        let results = Assessment::builder()
            .energy(Energy::from_kilowatt_hours(f64::NAN))
            .ci_grams_per_kwh(&[100.0, 200.0])
            .pue_values(&[1.2, 1.4])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[3, 5])
            .servers(100)
            .build()
            .unwrap()
            .evaluate_space();
        assert_eq!(
            results.percentile(0.5).unwrap_err(),
            Error::NonFiniteData { column: "total" }
        );
        assert_eq!(
            results.percentile_oneshot(0.5).unwrap_err(),
            Error::NonFiniteData { column: "total" }
        );
        assert_eq!(
            results.percentiles(&[0.5]).unwrap_err(),
            Error::NonFiniteData { column: "total" }
        );
        assert!(results.summary().is_err());
        // Range validation still wins over data validation.
        assert_eq!(
            results.percentile(2.0).unwrap_err(),
            Error::InvalidFraction { value: 2.0 }
        );
    }

    fn eval_ci(ci: &[f64]) -> SpaceResults {
        Assessment::builder()
            .energy(paper::effective_energy())
            .ci_grams_per_kwh(ci)
            .pue_values(&[1.1, 1.3, 1.58])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[3, 5, 7])
            .servers(100)
            .build()
            .unwrap()
            .evaluate_space()
    }

    #[test]
    fn gallop_fold_equals_full_rebuild_on_awkward_values() {
        let vals = |xs: &[f64]| -> Vec<CarbonMass> {
            xs.iter().copied().map(CarbonMass::from_kilograms).collect()
        };
        let old = vals(&[5.0, 1.0, 3.0, 3.0, -0.0, 2.5]);
        let cases: &[&[f64]] = &[
            &[],
            &[4.0],
            &[-1.0, 10.0, 3.0, 3.0, 0.0],
            &[f64::NAN, 2.0],
            &[0.5, 0.5, 0.5, 0.5],
            &[-2.0, -0.0, 0.0, 100.0, f64::INFINITY],
        ];
        for new in cases {
            let mut acc = StatsAccumulator::build(&old);
            acc.fold(&vals(new));
            let mut all = old.clone();
            all.extend(vals(new));
            let rebuilt = StatsAccumulator::build(&all);
            // Bitwise, not `==`: NaN and signed-zero placement are part
            // of the total_cmp contract being pinned.
            assert!(
                acc.kg
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(rebuilt.kg.iter().map(|v| v.to_bits())),
                "fold of {new:?} diverged from rebuild"
            );
            assert_eq!(acc.has_nan, rebuilt.has_nan, "{new:?}");
        }
        // Folding into an empty view is the degenerate all-new merge.
        let mut acc = StatsAccumulator::build(&[]);
        acc.fold(&vals(&[2.0, 1.0]));
        assert_eq!(acc.kg, vec![1.0, 2.0]);
    }

    #[test]
    fn extend_rows_matches_batch_bit_for_bit() {
        let batch = eval_ci(&[50.0, 175.0, 900.0]);
        let mut live = eval_ci(&[50.0]);
        // Warm the cache before the first fold so the galloping-merge
        // path (not a lazy rebuild) is what answers below.
        assert!(live.percentile(0.95).unwrap().kilograms() > 0.0);
        live.extend_rows(&eval_ci(&[175.0])).unwrap();
        live.extend_rows(&eval_ci(&[900.0])).unwrap();
        // Space and columns are the batch's, bit for bit …
        assert_eq!(live, batch);
        assert_eq!(live.space().shape(), batch.space().shape());
        // … and so is every query surface: quantiles off the folded
        // warm view, envelope, marginals, mean.
        for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(
                live.percentile(q).unwrap(),
                batch.percentile(q).unwrap(),
                "q = {q}"
            );
        }
        assert_eq!(live.envelope(), batch.envelope());
        assert_eq!(live.mean_total(), batch.mean_total());
        for axis in AxisId::ALL {
            assert_eq!(live.marginals(axis), batch.marginals(axis), "{axis:?}");
        }
        assert_eq!(live.summary().unwrap(), batch.summary().unwrap());
    }

    #[test]
    fn extend_rows_after_warm_query_never_serves_the_stale_sort() {
        let mut live = eval_ci(&[175.0]);
        let before_max = live.percentile(1.0).unwrap();
        // Fold a block whose totals dwarf everything cached; a stale
        // sort would keep reporting `before_max`.
        live.extend_rows(&eval_ci(&[9_000.0])).unwrap();
        let after_max = live.percentile(1.0).unwrap();
        assert!(after_max > before_max);
        assert_eq!(
            after_max,
            eval_ci(&[175.0, 9_000.0]).percentile(1.0).unwrap()
        );
        // The oneshot path reuses the same (updated) cache when warm.
        assert_eq!(live.percentile_oneshot(1.0).unwrap(), after_max);
        // A cold view stays cold across a fold and still answers right.
        let mut cold = eval_ci(&[175.0]);
        cold.extend_rows(&eval_ci(&[9_000.0])).unwrap();
        assert_eq!(cold.percentile(1.0).unwrap(), after_max);
    }

    #[test]
    fn retract_subtracts_an_exact_multiset_from_the_warm_view() {
        let vals = |xs: &[f64]| -> Vec<CarbonMass> {
            xs.iter().copied().map(CarbonMass::from_kilograms).collect()
        };
        // (survivors, retracted) pairs exercising duplicates, signed
        // zero, NaN and infinities — the total_cmp corner cases.
        let cases: &[(&[f64], &[f64])] = &[
            (&[1.0, 2.0], &[3.0]),
            (&[3.0, 3.0], &[3.0, 3.0]),
            (&[-0.0, 0.0], &[-0.0, 0.0]),
            (&[2.0], &[f64::NAN, f64::NAN]),
            (&[f64::NAN], &[2.0, f64::INFINITY]),
            (&[5.0, 1.0, 3.0], &[]),
        ];
        for (keep, gone) in cases {
            let mut all = vals(gone);
            all.extend(vals(keep));
            let mut acc = StatsAccumulator::build(&all);
            acc.retract(&vals(gone));
            let survivors = StatsAccumulator::build(&vals(keep));
            assert!(
                acc.kg
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(survivors.kg.iter().map(|v| v.to_bits())),
                "retract of {gone:?} diverged from a rebuild of {keep:?}"
            );
            assert_eq!(acc.has_nan, survivors.has_nan, "{keep:?} - {gone:?}");
        }
    }

    #[test]
    fn retract_rows_is_the_exact_inverse_of_extend_rows() {
        // Fold three CI blocks, evict the oldest two: the survivor must
        // be bit-identical to a batch that never saw the evicted blocks
        // — including the warm cached-sort view that answers quantiles.
        let never_ingested = eval_ci(&[900.0]);
        let mut live = eval_ci(&[50.0]);
        assert!(live.percentile(0.5).unwrap().kilograms() > 0.0); // warm it
        live.extend_rows(&eval_ci(&[175.0])).unwrap();
        live.extend_rows(&eval_ci(&[900.0])).unwrap();
        live.retract_rows(2).unwrap();
        assert_eq!(live, never_ingested);
        for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(
                live.percentile(q).unwrap().kilograms().to_bits(),
                never_ingested.percentile(q).unwrap().kilograms().to_bits(),
                "q = {q}"
            );
        }
        assert_eq!(live.envelope(), never_ingested.envelope());
        assert_eq!(live.mean_total(), never_ingested.mean_total());
        for axis in AxisId::ALL {
            assert_eq!(
                live.marginals(axis),
                never_ingested.marginals(axis),
                "{axis:?}"
            );
        }
        assert_eq!(live.summary().unwrap(), never_ingested.summary().unwrap());

        // A cold view stays cold across a retraction and still answers.
        let mut cold = eval_ci(&[50.0, 175.0]);
        cold.retract_rows(1).unwrap();
        assert_eq!(cold, eval_ci(&[175.0]));
        assert_eq!(
            cold.percentile(1.0).unwrap(),
            eval_ci(&[175.0]).percentile(1.0).unwrap()
        );
    }

    #[test]
    fn retract_rows_must_leave_at_least_one_ci_sample() {
        let mut live = eval_ci(&[50.0, 175.0, 900.0]);
        assert_eq!(
            live.retract_rows(3).unwrap_err(),
            Error::RetractOutOfRange {
                requested: 3,
                available: 3
            }
        );
        assert_eq!(
            live.retract_rows(7).unwrap_err(),
            Error::RetractOutOfRange {
                requested: 7,
                available: 3
            }
        );
        // A refused retraction leaves the batch untouched; a zero
        // retraction is a no-op.
        assert_eq!(live, eval_ci(&[50.0, 175.0, 900.0]));
        live.retract_rows(0).unwrap();
        assert_eq!(live, eval_ci(&[50.0, 175.0, 900.0]));
    }

    #[test]
    fn extend_rows_rejects_mismatched_inner_axes() {
        let base = || {
            Assessment::builder()
                .energy(paper::effective_energy())
                .ci_grams_per_kwh(&[175.0])
                .embodied_bounds(paper::server_embodied_bounds())
                .servers(100)
        };
        let a = base()
            .pue_values(&[1.3])
            .lifespans_years(&[5])
            .build()
            .unwrap()
            .evaluate_space();
        let other_pue = base()
            .pue_values(&[1.58])
            .lifespans_years(&[5])
            .build()
            .unwrap()
            .evaluate_space();
        let other_life = base()
            .pue_values(&[1.3])
            .lifespans_years(&[3])
            .build()
            .unwrap()
            .evaluate_space();
        let mut live = a.clone();
        assert_eq!(
            live.extend_rows(&other_pue).unwrap_err(),
            Error::ShapeMismatch { axis: "pue" }
        );
        assert_eq!(
            live.extend_rows(&other_life).unwrap_err(),
            Error::ShapeMismatch { axis: "lifespan" }
        );
        // A failed fold leaves the accumulator untouched.
        assert_eq!(live, a);
    }

    #[test]
    fn marginals_rank_ci_as_dominant() {
        let results = Assessment::paper().evaluate_space();
        // With everything else swept, pinning CI should leave the least
        // residual spread relative to its own effect: compare the spread
        // *between* marginal means per axis.
        let spread = |axis: AxisId| {
            let m = results.marginals(axis);
            assert_eq!(m.len(), results.space().axis_len(axis));
            let lo = m
                .iter()
                .map(|x| x.mean_total)
                .min_by(CarbonMass::total_cmp)
                .unwrap();
            let hi = m
                .iter()
                .map(|x| x.mean_total)
                .max_by(CarbonMass::total_cmp)
                .unwrap();
            hi - lo
        };
        let ci = spread(AxisId::Ci);
        for other in [AxisId::Pue, AxisId::Embodied, AxisId::Lifespan] {
            assert!(
                ci.kilograms() > spread(other).kilograms(),
                "CI marginal spread should dominate {other:?}"
            );
        }
        // Marginal bucket counts: each CI sample covers len/3 points.
        let m = results.marginals(AxisId::Ci);
        for bucket in &m {
            assert!(bucket.total.lo <= bucket.mean_total);
            assert!(bucket.mean_total <= bucket.total.hi);
            assert!(bucket.span() > CarbonMass::ZERO);
        }
    }

    #[test]
    fn singleton_axes_have_exact_degenerate_marginals() {
        // One sample per axis: the single marginal group covers the
        // whole (one-point) batch exactly — the configuration where the
        // old `count.max(1)` mask would have been closest to biting.
        let results = Assessment::builder()
            .energy(paper::effective_energy())
            .ci_grams_per_kwh(&[175.0])
            .pue_values(&[1.3])
            .embodied_bounds(paper::server_embodied_bounds())
            .lifespans_years(&[5])
            .servers(paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .unwrap()
            .evaluate_space();
        for axis in AxisId::ALL {
            let m = results.marginals(axis);
            assert_eq!(m.len(), results.space().axis_len(axis));
            for bucket in &m {
                assert!(bucket.total.lo > CarbonMass::ZERO, "{axis:?}");
                assert!(bucket.mean_total >= bucket.total.lo, "{axis:?}");
                assert!(bucket.mean_total <= bucket.total.hi, "{axis:?}");
            }
        }
        // The CI marginal of the 2-sample embodied axis × 1-sample rest:
        // each group's mean is its own total.
        let m = results.marginals(AxisId::Embodied);
        for (s, bucket) in m.iter().enumerate() {
            assert_eq!(bucket.total.lo, bucket.total.hi);
            assert_eq!(bucket.mean_total, bucket.total.lo, "sample {s}");
        }
    }
}
