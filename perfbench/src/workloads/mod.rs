//! The four workloads. Each builds its inputs from the seed, sets up
//! several times (`setup_s` is the median), measures for the run's
//! seconds, and verifies every operation it counts.

pub mod backfill;
pub mod cosim_week;
pub mod live_wire;
pub mod snapshot_day;
