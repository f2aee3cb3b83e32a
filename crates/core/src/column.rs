//! A growable column whose oldest rows can be dropped in O(1).
//!
//! Sliding-window retention appends one block of rows at the back of
//! every result column and evicts one block from the front. A plain
//! `Vec` front drain moves the whole retained window to drop one block,
//! so eviction costs O(window). [`Column`] instead keeps a `head` offset
//! into its buffer: [`Column::drop_front`] only advances it, and the
//! dead prefix is reclaimed by [`Column::extend_from_slice`] at the one
//! moment a plain `Vec` would have to reallocate anyway.
//!
//! # Cost and memory model
//!
//! * `drop_front(k)` is O(1).
//! * `extend_from_slice(new)` compacts (moves the live rows to the
//!   front of the buffer) only when the append would otherwise
//!   reallocate. The buffer's capacity therefore grows exactly when a
//!   `Vec` holding only the live rows would grow: memory is never
//!   above that of a plain front-drained `Vec`.
//! * Between two compactions the buffer absorbs `capacity − live`
//!   appended rows, so one compaction's O(live) move is spread over
//!   that many appends. Under a fixed window this is amortised
//!   O(block) whenever the buffer has slack beyond one block. With no
//!   slack at all each append moves the window once, which is the cost
//!   of the plain front drain it replaces, never more: a column grown by
//!   doubling from one block reaches that state when the window is
//!   2^k − 1 blocks.
//!
//! Dead rows are not dropped until the next compaction (or until the
//! column is dropped); the columns this backs hold `Copy` figures.

use std::fmt;
use std::ops::Deref;

/// A `Vec<T>` plus a `head` offset; derefs to the live rows
/// `buf[head..]`.
pub(crate) struct Column<T> {
    buf: Vec<T>,
    head: usize,
}

impl<T> Column<T> {
    /// Drops the `k` oldest live rows by advancing `head`.
    pub(crate) fn drop_front(&mut self, k: usize) {
        debug_assert!(k <= self.len(), "cannot drop more rows than are live");
        self.head += k;
    }

    /// Moves the live rows to the front of the buffer, discarding the
    /// dead prefix.
    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// The live rows as a plain `Vec`, compacted first — for callers
    /// that refill a column wholesale and want its allocation.
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<T> {
        self.compact();
        &mut self.buf
    }

    /// Allocated rows, live and dead.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl<T: Clone> Column<T> {
    /// Appends rows at the back. Compacts first only when the append
    /// would otherwise reallocate, so capacity never grows to hold
    /// dead rows.
    pub(crate) fn extend_from_slice(&mut self, rows: &[T]) {
        if self.buf.len() + rows.len() > self.buf.capacity() {
            self.compact();
        }
        self.buf.extend_from_slice(rows);
    }
}

impl<T> From<Vec<T>> for Column<T> {
    fn from(buf: Vec<T>) -> Self {
        Column { buf, head: 0 }
    }
}

impl<T> Deref for Column<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.head..]
    }
}

// Hand-written so a clone copies only the live rows (the derived impl
// would copy the dead prefix and `head` too), and so `clone_from`
// reuses the destination's allocation.
impl<T: Clone> Clone for Column<T> {
    fn clone(&self) -> Self {
        Column::from(self.to_vec())
    }

    fn clone_from(&mut self, source: &Self) {
        self.buf.clear();
        self.head = 0;
        self.buf.extend_from_slice(source);
    }
}

/// Equality is over the live rows only.
impl<T: PartialEq> PartialEq for Column<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Formats the live rows as a list, exactly as the `Vec` it replaces.
impl<T: fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Assessment, SpaceResults};
    use crate::time_resolved::TimeResolvedAssessment;
    use iriscast_grid::IntensitySeries;
    use iriscast_telemetry::EnergySeries;
    use iriscast_units::{CarbonIntensity, CarbonMass, Energy, SimDuration, Timestamp};

    /// A tiny seeded generator (xorshift) so the mixed-operation check
    /// covers many interleavings without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[test]
    fn any_mix_of_appends_and_front_drops_equals_a_vec() {
        for seed in 1..=32u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut col: Column<u32> = Column::from(Vec::new());
            let mut reference: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for _ in 0..400 {
                if rng.below(3) == 0 && !reference.is_empty() {
                    let k = rng.below(reference.len() + 1);
                    col.drop_front(k);
                    reference.drain(..k);
                } else {
                    let n = rng.below(9);
                    let rows: Vec<u32> = (next..next + n as u32).collect();
                    next += n as u32;
                    col.extend_from_slice(&rows);
                    reference.extend_from_slice(&rows);
                }
                assert_eq!(&*col, &reference[..], "seed {seed}");
                assert_eq!(col.clone(), Column::from(reference.clone()));
                // Capacity grows exactly when the front-drained Vec's
                // does: never more memory than the Vec it replaces.
                assert_eq!(col.capacity(), reference.capacity(), "seed {seed}");
            }
            assert_eq!(col.vec_mut(), &reference);
        }
    }

    #[test]
    fn steady_state_retention_never_grows_capacity() {
        const BLOCK: usize = 81;
        for window in [1usize, 3, 7, 100, 400] {
            let block: Vec<u64> = (0..BLOCK as u64).collect();
            let mut col: Column<u64> = Column::from(Vec::new());
            for _ in 0..window {
                col.extend_from_slice(&block);
            }
            // One fold past the window, one eviction: the steady state.
            col.extend_from_slice(&block);
            col.drop_front(BLOCK);
            let settled = col.capacity();
            for _ in 0..1_000 {
                col.extend_from_slice(&block);
                col.drop_front(BLOCK);
                assert_eq!(col.len(), window * BLOCK);
                assert_eq!(col.capacity(), settled, "window {window}");
            }
        }
    }

    #[test]
    fn clone_holds_only_live_rows() {
        let mut col: Column<u32> = Column::from((0..100).collect::<Vec<_>>());
        col.drop_front(60);
        let copy = col.clone();
        assert_eq!(copy.head, 0);
        assert_eq!(copy.buf, (60..100).collect::<Vec<_>>());
        let mut reused: Column<u32> = Column::from(vec![7; 500]);
        reused.drop_front(3);
        reused.clone_from(&col);
        assert_eq!(reused.head, 0);
        assert_eq!(reused.buf, (60..100).collect::<Vec<_>>());
    }

    fn kg_axis(kg: &[f64]) -> crate::space::ScenarioAxis<CarbonMass> {
        let samples = kg.iter().map(|&v| CarbonMass::from_kilograms(v)).collect();
        crate::space::ScenarioAxis::new("embodied", samples).unwrap()
    }

    fn scalar(energy_kwh: f64, ci: &[f64]) -> Assessment {
        Assessment::builder()
            .energy(Energy::from_kilowatt_hours(energy_kwh))
            .ci_grams_per_kwh(ci)
            .pue_values(&[1.1, 1.3, 1.58])
            .embodied_axis(kg_axis(&[400.0, 900.0, 1_300.0]))
            .lifespans_years(&[3, 5, 7])
            .servers(100)
            .build()
            .unwrap()
    }

    /// A result batch whose columns and CI axis all carry a dead prefix.
    fn retracted() -> SpaceResults {
        let mut live = scalar(4_800.0, &[50.0, 150.0, 250.0]).evaluate_space();
        // Warm, so the refill must also drop a stale sorted view.
        live.percentile(0.5).unwrap();
        for i in 0..6 {
            let block = scalar(4_900.0 + 10.0 * f64::from(i), &[60.0, 170.0, 240.0]);
            live.extend_rows(&block.evaluate_space()).unwrap();
            live.retract_rows(3).unwrap();
        }
        assert!(live.total.head > 0 && live.space.ci().len() == 3);
        live
    }

    fn assert_bits_eq(got: &SpaceResults, want: &SpaceResults) {
        assert_eq!(got, want);
        for (a, b) in [
            (got.active(), want.active()),
            (got.embodied(), want.embodied()),
            (got.totals(), want.totals()),
        ] {
            let a: Vec<u64> = a.iter().map(|v| v.kilograms().to_bits()).collect();
            let b: Vec<u64> = b.iter().map(|v| v.kilograms().to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_retracted_batch_clones_without_dead_rows() {
        let live = retracted();
        let copy = live.clone();
        assert_eq!(copy, live);
        for col in [&copy.active, &copy.embodied, &copy.total] {
            assert_eq!((col.head, col.buf.len()), (0, live.len()));
        }
    }

    #[test]
    fn evaluate_into_a_retracted_batch_equals_a_fresh_evaluation() {
        let a = scalar(5_321.0, &[40.0, 120.0, 200.0, 280.0]);
        let mut reused = retracted();
        a.evaluate_space_into(&mut reused);
        assert_bits_eq(&reused, &a.evaluate_space());
        assert_eq!(reused.percentile(0.5), a.evaluate_space().percentile(0.5));

        let step = SimDuration::SETTLEMENT_PERIOD;
        let energy = EnergySeries::new(
            Timestamp::EPOCH,
            step,
            [90.0, 105.0, 97.5, 102.5]
                .iter()
                .map(|&kwh| Energy::from_kilowatt_hours(kwh))
                .collect(),
        );
        let ci = IntensitySeries::new(
            Timestamp::EPOCH,
            step,
            [120.0, 90.0, 240.0, 60.0]
                .iter()
                .map(|&g| CarbonIntensity::from_grams_per_kwh(g))
                .collect(),
        );
        let tr = TimeResolvedAssessment::builder()
            .energy_series(energy)
            .ci_series(ci)
            .pue_values(&[1.1, 1.4])
            .embodied_axis(kg_axis(&[400.0, 1_300.0]))
            .lifespans_years(&[3, 7])
            .servers(50)
            .build()
            .unwrap();
        let mut reused = retracted();
        tr.evaluate_space_into(&mut reused);
        assert_bits_eq(&reused, &tr.evaluate_space());
    }
}
