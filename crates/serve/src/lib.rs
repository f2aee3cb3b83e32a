//! # iriscast-serve — the live assessment service
//!
//! The paper applies its methodology as a one-shot batch study; this
//! crate is the ROADMAP's production counterpart: a persistent
//! **ingest → fold → query** pipeline over the same carbon model, fed
//! by telemetry snapshots instead of a single measured window.
//!
//! ## Pipeline
//!
//! 1. **Ingest** — a `SnapshotSampler` on the event engine (or any
//!    producer) emits one [`SnapshotRecord`] per closed sampling
//!    window: site, window, sequence number, best-estimate energy. On
//!    the wire that is one NDJSON line per record
//!    ([`SnapshotRecord::parse_ndjson`]).
//! 2. **Fold** — each record is evaluated under its site's registered
//!    [`SiteModel`] (fixed PUE/embodied/lifespan axes, per-window CI
//!    samples) into a block of scenario rows, then folded into the
//!    site's growing [`SpaceResults`] ensemble via `extend_rows` — the
//!    incremental path that keeps the cached sorted view warm by
//!    galloping merge instead of re-sorting. Evaluation runs on the
//!    shared worker pool in waves of `workers` records
//!    ([`AssessmentService::ingest_batch`]); each wave is folded in
//!    input order and serialized per site in sequence order through a
//!    reorder buffer,
//!    so the resulting state is **bit-identical at every worker
//!    count** — the property suite pins 1 ≡ 16 workers against a
//!    sequential batch recompute.
//! 3. **Query** — [`AssessmentService::envelope`] /
//!    [`AssessmentService::percentile`] / [`AssessmentService::marginals`] /
//!    [`AssessmentService::tenant_share`] answer from the warm views:
//!    a quantile between folds is O(1) and allocation-free. Queries
//!    arrive and leave as NDJSON too
//!    ([`AssessmentService::serve_ndjson`]).
//!
//! ## Bounded staleness
//!
//! The live loop ([`AssessmentService::spawn_ingest`]) gives this
//! contract, with `B` the staleness bound passed at spawn:
//!
//! * **Freshness** — a snapshot is folded as soon as it is received;
//!   nothing batches or defers. A query issued after a record's fold
//!   completes observes it; replies carry the fold watermark
//!   (`folded`, [`Watermark`]) so a consumer can tell *which* prefix
//!   of the stream it observed.
//! * **Liveness within `B`** — the ingest thread never blocks longer
//!   than `B` waiting for traffic: `recv_timeout(B)` wakes it to bump
//!   the service heartbeat ([`AssessmentService::heartbeats`]) and
//!   notice disconnect. A heartbeat (or watermark advance) older than
//!   `B` plus scheduling slack therefore means the ingest thread is
//!   dead or wedged — staleness is *detectable* within one bound, not
//!   discovered at the next query.
//! * **In-order visibility** — folds apply strictly in per-site
//!   sequence order. A query never observes window *k+1* without
//!   window *k*; out-of-order arrivals park in the reorder buffer and
//!   are reported via [`Watermark::pending`].
//!
//! ## Multi-tenant attribution
//!
//! [`AssessmentService::tenant_share`] allocates a site's footprint to
//! the services sharing it by normalized weights — the
//! Bergmark–Coroamă Part II rule: shares are mutually exclusive and
//! collectively exhaustive (they sum to 1), so no emission is counted
//! twice and none is orphaned.
//!
//! ## Scale-out
//!
//! Three further pieces take the single in-process service to a
//! deployable topology:
//!
//! * **Retention** — [`AssessmentService::set_retention`] bounds the
//!   queryable ensemble to a sliding window of the last *k* folded
//!   windows, evicting via the exact `retract_rows` inverse of the
//!   fold; the cumulative energy ledger is *not* rewound, so
//!   federation exports are retention-independent.
//! * **Transport** — [`transport`] frames the NDJSON codec over TCP
//!   and Unix-domain sockets ([`AssessmentService::serve_tcp`] /
//!   [`AssessmentService::serve_unix`]) with per-connection error
//!   isolation and graceful drain; [`spawn_record_feed`] bridges a
//!   socket to the [`AssessmentService::spawn_ingest`] channel.
//! * **Federation** — a [`FleetFederator`] pulls per-site
//!   [`SiteExport`]s from regional services over the wire and folds
//!   them into a fleet-wide `FleetRollup`, bit-for-bit equal to one
//!   flat service hosting every site (see [`federator`] for the
//!   three-link chain that makes that exact).
//!
//! [`SpaceResults`]: iriscast_model::engine::SpaceResults

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod federator;
pub mod record;
pub mod service;
pub mod transport;
pub mod wire;

pub use error::{ServeError, ServeResult};
pub use federator::{FleetFederator, RegionHandle};
pub use record::SnapshotRecord;
pub use service::{
    AssessmentService, IngestHandle, IngestStats, SiteExport, SiteModel, TenantShare, Watermark,
};
pub use transport::{spawn_record_feed, FeedStats, SocketClient, SocketServer, TransportStats};
pub use wire::{MarginalWire, QueryReply, QueryRequest};
