//! Multi-level power-measurement simulation stack.
//!
//! The paper's Table 2 compares four ways of measuring the same 24 hours of
//! DRI energy — facility bulk meters, rack PDUs, on-node IPMI, and
//! Turbostat (RAPL) — and finds systematic spread between them: at QMUL,
//! Turbostat reads ~5% below IPMI, which reads ~1.5% below the PDU; at
//! Durham and SCARF, IPMI captures only ~77% of the PDU energy. Those
//! offsets are *physics* (instrument coverage), not noise, and
//! reproducing them requires the measurement stack itself. This crate
//! builds it:
//!
//! * [`PowerSeries`] / [`EnergySeries`] — regular time series with
//!   gap handling, resampling, and power→energy integration;
//! * [`NodePowerModel`] — utilisation→wall-power curves with an explicit
//!   RAPL-visible share (CPU package + DRAM);
//! * [`meter`] — the four instrument models with gain, quantisation,
//!   noise, dropout and per-site coverage;
//! * [`CumulativeRegister`] — facility-meter kWh registers with rollover;
//! * [`collector`] — the parallel sampling engine that sweeps a whole
//!   site's fleet over the snapshot window on flat per-node state
//!   columns (SoA) with deterministic per-node RNG streams;
//! * [`aggregate`] — node→site roll-ups and the Table 2 report structure;
//! * [`quality`] — cross-method adjustment factors (the paper's
//!   "potentially adjusting measurements" discussion);
//! * [`par`] — deterministic parallelism on one persistent worker pool
//!   ([`par::pool_fill_indexed`]), bit-identical to serial at every
//!   worker count; a call's `workers` caps how many pool threads it
//!   may use.
//!
//! # Example
//!
//! ```
//! use iriscast_telemetry::{NodePowerModel, SyntheticUtilization, UtilizationSource};
//! use iriscast_units::{Power, Timestamp};
//!
//! let model = NodePowerModel::linear(Power::from_watts(140.0), Power::from_watts(620.0));
//! let util = SyntheticUtilization::new(0.6, 0.15, 0.05, 42);
//! let u = util.utilization(3, Timestamp::from_secs(3_600));
//! let p = model.wall_power(u);
//! assert!(p >= model.idle() && p <= model.max());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod collector;
pub mod error;
pub mod meter;
pub mod network;
pub mod par;
mod power;
pub mod quality;
pub mod rack;
mod register;
mod sources;
pub mod timeseries;

pub use aggregate::{EnergyByMethod, SiteEnergyReport};
pub use collector::{
    CollectScratch, DropoutMode, NodeGroupTelemetry, NodeId, SiteCollector, SiteTelemetryConfig,
    SiteTelemetryResult, StepFaults, SteppedCollector,
};
pub use error::{TelemetryError, TelemetryResult};
pub use meter::{MeterErrorModel, MeterKind, MeterReading, PowerMeter};
pub use network::{SiteNetwork, SwitchPowerModel};
pub use power::{NodePowerModel, PowerCurve};
pub use quality::{MethodAdjustment, QualityReport};
pub use rack::{rack_energies, RackEnergyReport, RackLayout};
pub use register::{decode_register_readings, CumulativeRegister};
pub use sources::{FlatUtilization, SyntheticUtilization, TraceUtilization, UtilizationSource};
pub use timeseries::{EnergySeries, GapPolicy, PowerSeries};
