//! The IRISCAST carbon model: total climate impact of a computing
//! infrastructure.
//!
//! This crate is the paper's primary contribution — the model of §4:
//!
//! > `Ct = Ca + Ce`  *(equation 1)*
//!
//! where active carbon `Ca` is measured energy × grid carbon intensity ×
//! facility overheads (equations 2–3), and embodied carbon `Ce` is
//! manufacturing carbon amortised over hardware lifetime (equation 4).
//! Everything is evaluated as *ranges* (low/medium/high scenarios), the
//! paper's way of handling the deep uncertainty in each input.
//!
//! Layout:
//!
//! * [`space`] — first-class scenario spaces: [`space::ScenarioAxis`],
//!   [`space::ScenarioSpace`], [`space::ScenarioPoint`];
//! * [`engine`] — [`engine::Assessment::builder`] and batch evaluation
//!   (materialised, streamed, chunked; serial and parallel) with
//!   envelope/percentile/marginal queries;
//! * [`time_resolved`] — [`time_resolved::TimeResolvedAssessment`]:
//!   per-interval energy × intensity series convolved over the same
//!   scenario spaces, with per-interval [`time_resolved::CarbonProfile`]
//!   output;
//! * [`federation`] — [`federation::FleetScenario`]: rack → site →
//!   region → fleet roll-up that shards *sites* (not node lanes) across
//!   the persistent worker pool, scaling telemetry snapshots to 10,000
//!   sites with columnar fleet statistics;
//! * [`error`] — the typed [`Error`]/[`Result`] every fallible API uses;
//! * [`active`] — equations (2)–(3), scalar and time-aligned;
//! * [`facilities`] — PUE-based and measured facility overheads;
//! * [`embodied`] — equation (4) plus amortisation-policy extensions;
//! * [`scenario`] — the CI×PUE grid (Table 3) and embodied sweep (Table 4);
//! * [`model`] — equation (1) over interval estimates;
//! * [`assessment`] — the one-call pipeline producing every table;
//! * [`iris`] — the paper's experiment, calibrated and runnable;
//! * [`netzero`] — decarbonisation-pathway projection and the
//!   embodied/active crossover year (extension of §6's outlook);
//! * [`uncertainty`] — Monte-Carlo propagation (extension);
//! * [`equivalence`] — flight/car/household comparisons (§6);
//! * [`report`] — text/markdown table rendering;
//! * [`paper`] — every published constant and cell, for validation.
//!
//! # The scenario-space engine and the table adapters
//!
//! The model's native surface is the [`engine`]: an
//! [`engine::Assessment`] couples one energy figure and one fleet to a
//! [`space::ScenarioSpace`] — the cartesian product of carbon-intensity,
//! PUE, embodied-carbon and lifespan axes of *any* length — and evaluates
//! `total = active + embodied` at every point, materialised
//! ([`engine::Assessment::evaluate_space`]), streamed point by point
//! ([`engine::Assessment::stream_space`]) or in bounded chunks
//! ([`engine::Assessment::chunks`]), all bit-identical. The sweep is
//! serial: per-point work is two table reads and an add, and thread
//! fan-out did not beat the serial loop in the committed benches.
//!
//! The paper-shaped types predate the engine and are kept as **thin
//! adapters** over it, cell-for-cell and bit-for-bit compatible:
//!
//! * [`scenario::ActiveCarbonGrid`] is a CI×PUE space with embodied
//!   pinned to zero — Table 3 is the `active` column reshaped 3 × 3;
//! * [`scenario::EmbodiedSweep`] is an embodied×lifespan space with a
//!   fixed grid — Table 4 is the `embodied` column reshaped 2 × *n*;
//! * [`assessment::SnapshotAssessment::run`] composes both adapters, so
//!   every golden Table 3/4 number is unchanged;
//! * [`sensitivity`] and [`uncertainty`] evaluate their one-at-a-time and
//!   Monte-Carlo points through the same [`engine::evaluate_one`] kernel.
//!
//! New code should build scenario spaces directly; the adapters exist so
//! published-table workflows (and their serialised forms) keep working.
//!
//! # Quickstart
//!
//! ```
//! use iriscast_model::engine::Assessment;
//! use iriscast_model::paper;
//! use iriscast_units::Energy;
//!
//! // Assess a day where the estate drew 19,380 kWh (the paper's figure),
//! // sweeping a 6 × 4 × 5 × 5 = 600-scenario space.
//! let assessment = Assessment::builder()
//!     .energy(Energy::from_kilowatt_hours(19_380.0))
//!     .ci_grams_per_kwh(&[50.0, 100.0, 150.0, 200.0, 250.0, 300.0])
//!     .pue_values(&[1.1, 1.3, 1.5, 1.6])
//!     .embodied_linspace(paper::server_embodied_bounds(), 5)
//!     .lifespan_linspace(3.0, 7.0, 5)
//!     .servers(paper::AMORTISATION_FLEET_SERVERS)
//!     .build()
//!     .unwrap();
//! let results = assessment.evaluate_space();
//! assert_eq!(results.len(), 600);
//! let total = results.envelope().total;
//! assert!(total.lo.kilograms() > 1_400.0 && total.hi.kilograms() < 11_800.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod active;
pub mod assessment;
mod column;
pub mod embodied;
pub mod engine;
pub mod equivalence;
pub mod error;
pub mod facilities;
pub mod federation;
pub mod iris;
pub mod model;
pub mod netzero;
pub mod paper;
pub mod regional;
pub mod report;
pub mod scenario;
pub mod sensitivity;
pub mod space;
pub mod stats_view;
pub mod time_resolved;
pub mod uncertainty;

pub use assessment::{AssessmentParams, SnapshotAssessment};
pub use engine::{
    Assessment, AssessmentBuilder, PointOutcome, PointResult, SpaceChunk, SpaceChunks, SpaceResults,
};
pub use error::{Error, Result};
pub use federation::{FleetRollup, FleetScenario, FleetSite, RegionRollup, SiteRollup};
pub use model::CarbonAssessment;
pub use scenario::{ActiveCarbonGrid, EmbodiedSweep};
pub use space::{AxisId, ScenarioAxis, ScenarioPoint, ScenarioSpace};
pub use stats_view::{Envelope, Marginal, TotalsSummary};
pub use time_resolved::{CarbonProfile, TimeResolvedAssessment, TimeResolvedBuilder};
