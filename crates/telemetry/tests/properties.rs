//! Property-based tests for the telemetry substrate's invariants.

use iriscast_telemetry::{
    decode_register_readings, CollectScratch, CumulativeRegister, FlatUtilization, GapPolicy,
    MeterErrorModel, NodeGroupTelemetry, NodePowerModel, PowerSeries, SiteCollector,
    SiteTelemetryConfig, SyntheticUtilization,
};
use iriscast_units::{Energy, Period, Power, SimDuration, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn watt_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 0.0..2_000.0f64,
        1 => Just(f64::NAN), // ~11% gaps
    ]
}

proptest! {
    /// Integration is bounded by min·T ≤ ∫ ≤ max·T for gap-free series.
    #[test]
    fn integration_bounds(watts in prop::collection::vec(0.0..2_000.0f64, 1..500)) {
        let n = watts.len();
        let lo = watts.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = watts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let s = PowerSeries::from_watts(Timestamp::EPOCH, SimDuration::from_secs(30), watts);
        let e = s.integrate(GapPolicy::Zero).joules();
        let t = (n as f64) * 30.0;
        prop_assert!(e >= lo * t - 1e-6);
        prop_assert!(e <= hi * t + 1e-6);
        // The trapezoid rule spans n−1 intervals (single samples hold for
        // one step), so its envelope is min/max over that shorter span.
        let trap = s.integrate_trapezoid(GapPolicy::Zero).joules();
        let t_trap = if n >= 2 { (n as f64 - 1.0) * 30.0 } else { 30.0 };
        prop_assert!(trap >= lo * t_trap - 1e-6 && trap <= hi * t_trap + 1e-6);
    }

    /// Gap filling is idempotent and never produces NaN.
    #[test]
    fn gap_fill_idempotent(watts in prop::collection::vec(watt_sample(), 1..300)) {
        let s = PowerSeries::from_watts(Timestamp::EPOCH, SimDuration::from_secs(30), watts);
        for policy in [GapPolicy::Zero, GapPolicy::HoldLast, GapPolicy::Interpolate] {
            let once = s.fill_gaps(policy);
            prop_assert!(once.watts().iter().all(|w| !w.is_nan()), "{policy:?} left NaN");
            let twice = once.fill_gaps(policy);
            prop_assert_eq!(once.watts(), twice.watts());
        }
    }

    /// Interpolated values always lie within the neighbouring valid range.
    #[test]
    fn interpolation_within_hull(watts in prop::collection::vec(watt_sample(), 2..300)) {
        let s = PowerSeries::from_watts(Timestamp::EPOCH, SimDuration::from_secs(30), watts.clone());
        let valid: Vec<f64> = watts.iter().cloned().filter(|w| !w.is_nan()).collect();
        prop_assume!(!valid.is_empty());
        let lo = valid.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let filled = s.fill_gaps(GapPolicy::Interpolate);
        for &w in filled.watts() {
            prop_assert!(w >= lo - 1e-9 && w <= hi + 1e-9, "{w} outside [{lo}, {hi}]");
        }
    }

    /// Energy-series roll-up conserves the integral exactly for any window
    /// that divides into the step.
    #[test]
    fn energy_rollup_conserves(
        watts in prop::collection::vec(0.0..2_000.0f64, 1..400),
        per in 1usize..20,
    ) {
        let step = SimDuration::from_secs(30);
        let s = PowerSeries::from_watts(Timestamp::EPOCH, step, watts);
        let window = SimDuration::from_secs(30 * per as i64);
        let es = s.to_energy_series(window, GapPolicy::Zero);
        let direct = s.integrate(GapPolicy::Zero);
        prop_assert!((es.total().joules() - direct.joules()).abs() < 1e-6);
    }

    /// A cumulative register round-trips energy within resolution per read.
    #[test]
    fn register_round_trip(
        initial in 0.0..900_000.0f64,
        increments in prop::collection::vec(0.0..100.0f64, 1..200),
    ) {
        let mut reg = CumulativeRegister::new(initial);
        let mut readings = vec![reg.display()];
        let mut truth = 0.0;
        for kwh in &increments {
            readings.push(reg.accumulate(Energy::from_kilowatt_hours(*kwh)));
            truth += kwh;
        }
        let decoded = decode_register_readings(&readings, 1_000_000.0).kilowatt_hours();
        // Truncation loses at most the resolution (1 kWh) overall, since
        // the register itself is exact and only the display truncates.
        prop_assert!((decoded - truth).abs() <= 1.0 + 1e-9, "decoded {decoded} truth {truth}");
    }

    /// Meter observation with a pure-gain model is exactly linear.
    #[test]
    fn meter_gain_linearity(truth_w in 0.0..5_000.0f64, gain in 0.5..1.5f64) {
        let m = MeterErrorModel { gain, ..MeterErrorModel::IDEAL };
        let mut rng = StdRng::seed_from_u64(1);
        let r = m.observe(Power::from_watts(truth_w), &mut rng).unwrap();
        prop_assert!((r.watts() - truth_w * gain).abs() < 1e-9);
    }

    /// The node power model is monotone in utilisation for any valid
    /// envelope, and instrument views preserve that order.
    #[test]
    fn power_model_monotone(
        idle in 10.0..400.0f64,
        dynamic in 0.0..600.0f64,
        u1 in 0.0..1.0f64,
        u2 in 0.0..1.0f64,
    ) {
        let m = NodePowerModel::linear(
            Power::from_watts(idle),
            Power::from_watts(idle + dynamic),
        );
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(m.wall_power(lo) <= m.wall_power(hi));
        prop_assert!(m.ipmi_visible(m.wall_power(lo)) <= m.ipmi_visible(m.wall_power(hi)));
        prop_assert!(m.rapl_visible(m.wall_power(lo)) <= m.rapl_visible(m.wall_power(hi)));
        // Views never exceed the wall truth.
        let wall = m.wall_power(hi);
        prop_assert!(m.ipmi_visible(wall) <= wall);
        prop_assert!(m.rapl_visible(wall) <= m.ipmi_visible(wall));
    }

    /// Calibration inverse: solving for a power inside the envelope and
    /// evaluating lands back on the target.
    #[test]
    fn utilisation_solver_inverse(
        idle in 10.0..400.0f64,
        dynamic in 1.0..600.0f64,
        frac in 0.0..1.0f64,
    ) {
        let m = NodePowerModel::linear(
            Power::from_watts(idle),
            Power::from_watts(idle + dynamic),
        );
        let target = Power::from_watts(idle + dynamic * frac);
        let u = m.utilisation_for_power(target);
        prop_assert!((m.wall_power(u).watts() - target.watts()).abs() < 1e-6);
    }

    /// The scratch-arena collect (`collect_with` + `recycle`) is
    /// bit-identical to a fresh `collect` for arbitrary fleet sizes,
    /// utilisations and seeds, at 1 and 16 workers — reusing buffers
    /// changes provenance, never arithmetic or fold order.
    #[test]
    fn scratch_collect_equals_fresh_collect(
        nodes in 1u32..220,
        util in 0.0..1.0f64,
        seed in 0u64..1_000,
    ) {
        let mut cfg = SiteTelemetryConfig::new(
            "PROP",
            vec![NodeGroupTelemetry {
                label: "compute".into(),
                count: nodes,
                power_model: NodePowerModel::linear(
                    Power::from_watts(100.0),
                    Power::from_watts(500.0),
                ),
            }],
            seed,
        );
        cfg.sample_step = SimDuration::from_secs(1_800);
        let collector = SiteCollector::new(cfg);
        let source = FlatUtilization(util);
        let day = Period::snapshot_24h();
        let mut scratch = CollectScratch::new();
        for workers in [1usize, 16] {
            let fresh = collector.collect(day, &source, workers).unwrap();
            let warm = collector
                .collect_with(day, &source, workers, &mut scratch)
                .unwrap();
            prop_assert_eq!(&warm, &fresh, "workers = {}", workers);
            scratch.recycle(warm);
        }
    }

    /// Collects on the worker pool at 2, 3 and 16 workers are
    /// bit-identical to the one-worker collect (inline on the caller's
    /// thread) for arbitrary fleets, loads and seeds: the pool changes
    /// *where* chunks execute, never the chunking, arithmetic or fold
    /// order.
    #[test]
    fn pool_collect_equals_serial_collect(
        nodes in 1u32..220,
        mean in 0.0..1.0f64,
        seed in 0u64..1_000,
    ) {
        let mut cfg = SiteTelemetryConfig::new(
            "POOL",
            vec![NodeGroupTelemetry {
                label: "compute".into(),
                count: nodes,
                power_model: NodePowerModel::linear(
                    Power::from_watts(100.0),
                    Power::from_watts(500.0),
                ),
            }],
            seed,
        );
        cfg.sample_step = SimDuration::from_secs(1_800);
        let collector = SiteCollector::new(cfg);
        let source = SyntheticUtilization::new(mean, 0.1, 0.03, seed ^ 0xA5A5);
        let day = Period::snapshot_24h();
        let serial = collector.collect(day, &source, 1).unwrap();
        let mut scratch = CollectScratch::new();
        for workers in [2usize, 3, 16] {
            let pooled = collector
                .collect_with(day, &source, workers, &mut scratch)
                .unwrap();
            prop_assert_eq!(&pooled, &serial, "workers = {}", workers);
            scratch.recycle(pooled);
        }
    }
}
