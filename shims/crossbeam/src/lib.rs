//! Offline stand-in for `crossbeam`: the [`channel`] module's
//! multi-producer multi-consumer queues (the slice of
//! `crossbeam-channel` the telemetry worker pool, the assessment
//! service's ingest loop and the socket transport use).

#![deny(missing_docs)]

pub mod channel;
