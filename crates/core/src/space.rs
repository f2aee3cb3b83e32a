//! First-class scenario spaces: named axes and their cartesian product.
//!
//! The paper evaluates `total = active + embodied` over *ranges* — but only
//! ever three hand-picked values per input (Tables 3 and 4). This module
//! generalises that idiom: a [`ScenarioAxis`] is any ordered sample list
//! over a unit type, and a [`ScenarioSpace`] is the cartesian product of
//! the model's four swept inputs (carbon intensity × PUE × embodied carbon
//! × lifespan), indexable and iterable at any cardinality. The paper's
//! 3 × 3 grid and 5-row sweep are just small spaces (see the adapters in
//! [`crate::scenario`]).
//!
//! Points are ordered row-major with carbon intensity outermost and
//! lifespan innermost; this ordering is part of the API contract (the
//! Table 3/4 adapters rely on it) and is stable.

use crate::column::Column;
use crate::error::{Error, Result};
use iriscast_units::sample::Lerp;
use iriscast_units::{Bounds, CarbonIntensity, CarbonMass, Pue, TriEstimate};

/// A named, ordered list of scenario samples for one model input.
///
/// An axis is never empty — construction rejects empty sample lists with
/// [`Error::EmptyAxis`], which is what makes downstream envelope queries
/// total (the `expect("sweep has rows")` panic of the old API is
/// unrepresentable).
#[derive(Debug, PartialEq)]
pub struct ScenarioAxis<T> {
    name: String,
    samples: Column<T>,
}

// Hand-written so `clone_from` reuses the existing name/sample
// allocations — the buffer-reuse evaluation paths
// (`Assessment::evaluate_space_into`) clone spaces into long-lived
// results on every sweep, and the derived impl would reallocate both
// fields each time.
impl<T: Clone> Clone for ScenarioAxis<T> {
    fn clone(&self) -> Self {
        ScenarioAxis {
            name: self.name.clone(),
            samples: self.samples.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.samples.clone_from(&source.samples);
    }
}

impl<T> ScenarioAxis<T> {
    /// Builds an axis from a sample list, rejecting an empty one.
    pub fn new(name: impl Into<String>, samples: Vec<T>) -> Result<Self> {
        let name = name.into();
        if samples.is_empty() {
            return Err(Error::EmptyAxis { axis: name });
        }
        Ok(ScenarioAxis {
            name,
            samples: samples.into(),
        })
    }

    /// A one-sample axis: the input is held fixed rather than swept.
    pub fn singleton(name: impl Into<String>, value: T) -> Self {
        ScenarioAxis {
            name: name.into(),
            samples: vec![value].into(),
        }
    }

    /// The axis's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples (always ≥ 1).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always `false` — axes reject empty sample lists at construction.
    /// Present for API completeness (clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ordered samples.
    pub fn samples(&self) -> &[T] {
        &self.samples
    }

    /// Appends another axis's samples to this one (the incremental-fold
    /// growth path; see [`ScenarioSpace::extend_ci`]). The name is
    /// kept — growth changes *where* the axis has been sampled, not
    /// what it is.
    pub(crate) fn extend_from(&mut self, other: &Self)
    where
        T: Clone,
    {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Removes the **oldest** `k` samples — the front of the list, the
    /// exact inverse of `k` samples appended by
    /// [`ScenarioAxis::extend_from`]. O(1): the samples sit in a
    /// front-trimmable column that reclaims the dead prefix on a later
    /// append. The caller ([`ScenarioSpace::retract_ci`]) guarantees
    /// `k < len()`, so the never-empty invariant survives.
    pub(crate) fn retract_front(&mut self, k: usize) {
        debug_assert!(k < self.samples.len(), "an axis must stay non-empty");
        self.samples.drop_front(k);
    }

    /// Borrowing iterator over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.samples.iter()
    }
}

impl<T: Copy> ScenarioAxis<T> {
    /// An axis from the paper's low/mid/high triple — the compatibility
    /// bridge: every `TriEstimate` is a 3-sample axis.
    pub fn from_tri(name: impl Into<String>, tri: TriEstimate<T>) -> Self {
        ScenarioAxis {
            name: name.into(),
            samples: tri.to_vec().into(),
        }
    }

    /// The sample at `i`, if in range.
    pub fn get(&self, i: usize) -> Option<T> {
        self.samples.get(i).copied()
    }
}

impl<T: Lerp> ScenarioAxis<T> {
    /// An axis of `n` evenly spaced samples across `bounds` (inclusive).
    pub fn linspace(name: impl Into<String>, bounds: Bounds<T>, n: usize) -> Result<Self> {
        ScenarioAxis::new(name, bounds.linspace(n))
    }
}

impl<'a, T> IntoIterator for &'a ScenarioAxis<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Identifies one of the four swept axes (for marginal queries and
/// coordinate decoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisId {
    /// Grid carbon intensity.
    Ci,
    /// Power usage effectiveness.
    Pue,
    /// Embodied carbon per server.
    Embodied,
    /// Hardware lifespan in years.
    Lifespan,
}

impl AxisId {
    /// Every axis, in the space's canonical (outermost-first) order.
    pub const ALL: [AxisId; 4] = [AxisId::Ci, AxisId::Pue, AxisId::Embodied, AxisId::Lifespan];

    /// Position of this axis in the canonical order.
    pub const fn position(self) -> usize {
        match self {
            AxisId::Ci => 0,
            AxisId::Pue => 1,
            AxisId::Embodied => 2,
            AxisId::Lifespan => 3,
        }
    }
}

/// The cartesian product of the model's four swept inputs.
///
/// Cardinality is the product of the axis lengths; a point's flat index
/// decodes row-major with [`AxisId::Ci`] outermost and
/// [`AxisId::Lifespan`] innermost.
#[derive(Debug, PartialEq)]
pub struct ScenarioSpace {
    ci: ScenarioAxis<CarbonIntensity>,
    pue: ScenarioAxis<Pue>,
    embodied: ScenarioAxis<CarbonMass>,
    lifespan_years: ScenarioAxis<f64>,
}

// Hand-written so `clone_from` reuses the axes' allocations (see
// `ScenarioAxis`'s `Clone` impl).
impl Clone for ScenarioSpace {
    fn clone(&self) -> Self {
        ScenarioSpace {
            ci: self.ci.clone(),
            pue: self.pue.clone(),
            embodied: self.embodied.clone(),
            lifespan_years: self.lifespan_years.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ci.clone_from(&source.ci);
        self.pue.clone_from(&source.pue);
        self.embodied.clone_from(&source.embodied);
        self.lifespan_years.clone_from(&source.lifespan_years);
    }
}

/// One resolved parameter set: a single scenario drawn from a space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioPoint {
    /// Flat index within the owning space.
    pub index: usize,
    /// Per-axis sample indices, in [`AxisId::ALL`] order.
    pub coords: [usize; 4],
    /// Grid carbon intensity for this scenario.
    pub ci: CarbonIntensity,
    /// PUE for this scenario.
    pub pue: Pue,
    /// Embodied carbon per server for this scenario.
    pub embodied_per_server: CarbonMass,
    /// Hardware lifespan in years for this scenario.
    pub lifespan_years: f64,
}

impl ScenarioSpace {
    /// Builds a space from four axes, validating the lifespan samples
    /// (amortisation requires positive, finite lifespans).
    pub fn new(
        ci: ScenarioAxis<CarbonIntensity>,
        pue: ScenarioAxis<Pue>,
        embodied: ScenarioAxis<CarbonMass>,
        lifespan_years: ScenarioAxis<f64>,
    ) -> Result<Self> {
        for &years in lifespan_years.samples() {
            if !(years.is_finite() && years > 0.0) {
                return Err(Error::InvalidLifespan { years });
            }
        }
        Ok(ScenarioSpace {
            ci,
            pue,
            embodied,
            lifespan_years,
        })
    }

    /// The carbon-intensity axis.
    pub fn ci(&self) -> &ScenarioAxis<CarbonIntensity> {
        &self.ci
    }

    /// The PUE axis.
    pub fn pue(&self) -> &ScenarioAxis<Pue> {
        &self.pue
    }

    /// The embodied-carbon axis.
    pub fn embodied(&self) -> &ScenarioAxis<CarbonMass> {
        &self.embodied
    }

    /// The lifespan axis (years).
    pub fn lifespan_years(&self) -> &ScenarioAxis<f64> {
        &self.lifespan_years
    }

    /// Axis lengths in [`AxisId::ALL`] order.
    pub fn shape(&self) -> [usize; 4] {
        [
            self.ci.len(),
            self.pue.len(),
            self.embodied.len(),
            self.lifespan_years.len(),
        ]
    }

    /// The length of one axis.
    pub fn axis_len(&self, axis: AxisId) -> usize {
        self.shape()[axis.position()]
    }

    /// The display name of one axis.
    pub fn axis_name(&self, axis: AxisId) -> &str {
        match axis {
            AxisId::Ci => self.ci.name(),
            AxisId::Pue => self.pue.name(),
            AxisId::Embodied => self.embodied.name(),
            AxisId::Lifespan => self.lifespan_years.name(),
        }
    }

    /// Cardinality: the number of scenario points (product of axis
    /// lengths, always ≥ 1).
    pub fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// Always `false`: every axis has at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The stride of one axis in the flat row-major index: a point's
    /// coordinate along `axis` is `(index / stride) % axis_len(axis)`.
    /// This is the cheap single-axis form of [`ScenarioSpace::coords`],
    /// used by grouped-marginal scans.
    pub fn stride_of(&self, axis: AxisId) -> usize {
        self.shape()[axis.position() + 1..].iter().product()
    }

    /// Decodes a flat index into per-axis coordinates.
    pub fn coords(&self, index: usize) -> Result<[usize; 4]> {
        coords_in(self.shape(), index)
    }

    /// Encodes per-axis coordinates into a flat index (the inverse of
    /// [`ScenarioSpace::coords`]).
    pub fn index_of(&self, coords: [usize; 4]) -> Result<usize> {
        let shape = self.shape();
        for (c, n) in coords.iter().zip(shape.iter()) {
            if c >= n {
                return Err(Error::PointOutOfRange { index: *c, len: *n });
            }
        }
        let [ci_i, pue_i, emb_i, life_i] = coords;
        let [_, n_pue, n_emb, n_life] = shape;
        Ok(((ci_i * n_pue + pue_i) * n_emb + emb_i) * n_life + life_i)
    }

    /// Resolves the scenario at a flat index.
    pub fn point(&self, index: usize) -> Result<ScenarioPoint> {
        self.lookup().point(index)
    }

    /// Borrows the four axes' samples once, for resolving many points:
    /// each borrow of an axis re-derives its live slice (see
    /// [`ScenarioAxis::retract_front`]), which the per-point streaming
    /// loops would otherwise pay four times a point.
    pub(crate) fn lookup(&self) -> PointLookup<'_> {
        PointLookup {
            ci: self.ci.samples(),
            pue: self.pue.samples(),
            embodied: self.embodied.samples(),
            lifespan_years: self.lifespan_years.samples(),
        }
    }

    /// Appends another CI axis's samples to this space's carbon-intensity
    /// axis. CI is the **outermost** axis of the row-major point order,
    /// so growing it appends whole blocks of `len() / ci.len()` points at
    /// the end of the flat index — existing indices, coordinates and
    /// every inner-axis stride are untouched. This is what makes
    /// [`crate::engine::SpaceResults::extend_rows`] a plain column
    /// append; growing any *inner* axis would interleave instead, which
    /// is why no such path exists.
    pub(crate) fn extend_ci(&mut self, other: &ScenarioAxis<CarbonIntensity>) {
        self.ci.extend_from(other);
    }

    /// Removes the **oldest** `k` carbon-intensity samples — the front
    /// of the CI axis, the inverse of [`ScenarioSpace::extend_ci`].
    /// Because CI is outermost in the row-major point order, dropping
    /// its leading samples drops whole leading blocks of
    /// `len() / ci.len()` points; surviving points keep their relative
    /// order and every inner-axis stride is untouched (indices shift
    /// down by the evicted block count, exactly as if the evicted
    /// samples had never been part of the space). The caller
    /// ([`crate::engine::SpaceResults::retract_rows`]) validates
    /// `k < ci.len()`.
    pub(crate) fn retract_ci(&mut self, k: usize) {
        self.ci.retract_front(k);
    }

    /// Iterates every scenario point in index order.
    pub fn points(&self) -> impl Iterator<Item = ScenarioPoint> + '_ {
        let lookup = self.lookup();
        (0..self.len()).map(move |i| {
            lookup
                .point(i)
                .expect("index < len is in range by construction")
        })
    }
}

/// A space's four sample lists, borrowed once (see
/// [`ScenarioSpace::lookup`]).
pub(crate) struct PointLookup<'a> {
    ci: &'a [CarbonIntensity],
    pue: &'a [Pue],
    embodied: &'a [CarbonMass],
    lifespan_years: &'a [f64],
}

impl PointLookup<'_> {
    /// Resolves the scenario at a flat index.
    pub(crate) fn point(&self, index: usize) -> Result<ScenarioPoint> {
        let shape = [
            self.ci.len(),
            self.pue.len(),
            self.embodied.len(),
            self.lifespan_years.len(),
        ];
        let coords = coords_in(shape, index)?;
        let [ci_i, pue_i, emb_i, life_i] = coords;
        Ok(ScenarioPoint {
            index,
            coords,
            ci: self.ci[ci_i],
            pue: self.pue[pue_i],
            embodied_per_server: self.embodied[emb_i],
            lifespan_years: self.lifespan_years[life_i],
        })
    }
}

/// Decodes a flat row-major index into per-axis coordinates for a
/// space of the given shape.
fn coords_in(shape: [usize; 4], index: usize) -> Result<[usize; 4]> {
    let len = shape.iter().product();
    if index >= len {
        return Err(Error::PointOutOfRange { index, len });
    }
    let [_, n_pue, n_emb, n_life] = shape;
    let life_i = index % n_life;
    let rest = index / n_life;
    let emb_i = rest % n_emb;
    let rest = rest / n_emb;
    let pue_i = rest % n_pue;
    let ci_i = rest / n_pue;
    Ok([ci_i, pue_i, emb_i, life_i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ScenarioSpace {
        ScenarioSpace::new(
            ScenarioAxis::new(
                "ci",
                vec![
                    CarbonIntensity::from_grams_per_kwh(50.0),
                    CarbonIntensity::from_grams_per_kwh(175.0),
                ],
            )
            .unwrap(),
            ScenarioAxis::new("pue", vec![Pue::new(1.1).unwrap(), Pue::new(1.3).unwrap()]).unwrap(),
            ScenarioAxis::new(
                "embodied",
                vec![
                    CarbonMass::from_kilograms(400.0),
                    CarbonMass::from_kilograms(750.0),
                    CarbonMass::from_kilograms(1_100.0),
                ],
            )
            .unwrap(),
            ScenarioAxis::new("lifespan", vec![3.0, 5.0, 7.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn empty_axis_rejected() {
        let err = ScenarioAxis::<f64>::new("lifespan", vec![]).unwrap_err();
        assert_eq!(
            err,
            Error::EmptyAxis {
                axis: "lifespan".into()
            }
        );
    }

    #[test]
    fn invalid_lifespans_rejected() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let err = ScenarioSpace::new(
                ScenarioAxis::singleton("ci", CarbonIntensity::from_grams_per_kwh(175.0)),
                ScenarioAxis::singleton("pue", Pue::new(1.3).unwrap()),
                ScenarioAxis::singleton("embodied", CarbonMass::from_kilograms(750.0)),
                ScenarioAxis::new("lifespan", vec![5.0, bad]).unwrap(),
            )
            .unwrap_err();
            assert!(matches!(err, Error::InvalidLifespan { .. }), "{bad}");
        }
    }

    #[test]
    fn cardinality_and_shape() {
        let s = small_space();
        assert_eq!(s.shape(), [2, 2, 3, 3]);
        assert_eq!(s.len(), 36);
        assert!(!s.is_empty());
        assert_eq!(s.axis_len(AxisId::Embodied), 3);
        assert_eq!(s.axis_name(AxisId::Lifespan), "lifespan");
    }

    #[test]
    fn index_coords_round_trip() {
        let s = small_space();
        for i in 0..s.len() {
            let coords = s.coords(i).unwrap();
            assert_eq!(s.index_of(coords).unwrap(), i);
        }
        assert!(s.coords(s.len()).is_err());
        assert!(s.index_of([0, 0, 0, 3]).is_err());
    }

    #[test]
    fn stride_agrees_with_coords() {
        let s = small_space();
        for axis in AxisId::ALL {
            let stride = s.stride_of(axis);
            let n = s.axis_len(axis);
            for i in 0..s.len() {
                assert_eq!(
                    (i / stride) % n,
                    s.coords(i).unwrap()[axis.position()],
                    "{axis:?} at {i}"
                );
            }
        }
        assert_eq!(s.stride_of(AxisId::Lifespan), 1);
        assert_eq!(s.stride_of(AxisId::Ci), 2 * 3 * 3);
    }

    #[test]
    fn iteration_order_is_lifespan_innermost() {
        let s = small_space();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts.len(), 36);
        // First three points differ only in lifespan.
        assert_eq!(pts[0].lifespan_years, 3.0);
        assert_eq!(pts[1].lifespan_years, 5.0);
        assert_eq!(pts[2].lifespan_years, 7.0);
        assert_eq!(pts[0].ci, pts[1].ci);
        // The outermost axis flips halfway through.
        assert_eq!(pts[0].ci.grams_per_kwh(), 50.0);
        assert_eq!(pts[18].ci.grams_per_kwh(), 175.0);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn tri_and_linspace_constructors() {
        let tri = TriEstimate::new(1.0, 2.0, 3.0);
        let axis = ScenarioAxis::from_tri("x", tri);
        assert_eq!(axis.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(axis.get(1), Some(2.0));
        assert_eq!(axis.get(3), None);
        let lin = ScenarioAxis::linspace("y", Bounds::new(0.0, 10.0), 5).unwrap();
        assert_eq!(lin.samples(), &[0.0, 2.5, 5.0, 7.5, 10.0]);
        assert!(ScenarioAxis::linspace("z", Bounds::new(0.0, 1.0), 0).is_err());
        let collected: Vec<f64> = lin.iter().copied().collect();
        assert_eq!(collected.len(), 5);
        assert!(!lin.is_empty());
    }
}
