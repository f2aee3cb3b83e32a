//! Typed errors for the assessment service.

use iriscast_model::Error as ModelError;
use std::fmt;

/// Result alias for serve-layer operations.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Everything that can go wrong ingesting into or querying the service.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A record or query named a site the service has never seen.
    UnknownSite {
        /// The offending site code.
        site: String,
    },
    /// A site was registered twice. Models are fixed at registration —
    /// re-registering mid-stream would silently change the meaning of
    /// every subsequent fold.
    DuplicateSite {
        /// The offending site code.
        site: String,
    },
    /// A tenant-share query named a tenant never registered for the
    /// site.
    UnknownTenant {
        /// The site queried.
        site: String,
        /// The offending tenant name.
        tenant: String,
    },
    /// A tenant-share query against a site with no registered tenants —
    /// there is no attribution key to allocate by.
    NoTenants {
        /// The site queried.
        site: String,
    },
    /// A tenant weight that cannot act as an attribution key: zero,
    /// negative, or non-finite.
    InvalidWeight {
        /// The site the tenant was registered under.
        site: String,
        /// The offending tenant name.
        tenant: String,
        /// The rejected weight.
        weight: f64,
    },
    /// A query against a site that has not folded its first snapshot
    /// yet.
    NoData {
        /// The site queried.
        site: String,
    },
    /// A snapshot whose sequence number was already folded (or is
    /// already waiting in the reorder buffer) — replaying it would
    /// double-count the window.
    StaleSnapshot {
        /// The site the snapshot belongs to.
        site: String,
        /// The replayed sequence number.
        seq: u64,
        /// The next sequence number the site will fold.
        next_seq: u64,
    },
    /// A telemetry snapshot with no usable energy: every measurement
    /// method was dark for the window.
    MissingEnergy {
        /// The site the snapshot belongs to.
        site: String,
        /// The snapshot's sequence number.
        seq: u64,
    },
    /// A snapshot whose energy is not a finite, non-negative figure
    /// (NaN, ±∞ or below zero). Refused at the ingest boundary, before
    /// evaluation: folded, it would poison the site's energy ledger
    /// (and every federation export of it) and make quantile queries
    /// fail with non-finite data.
    InvalidEnergy {
        /// The site the snapshot belongs to.
        site: String,
        /// The snapshot's sequence number.
        seq: u64,
        /// The rejected energy, kWh.
        energy_kwh: f64,
    },
    /// A retention bound of zero windows — the ensemble must always
    /// keep at least its newest window, or every query surface would
    /// collapse to [`ServeError::NoData`] the moment retention ran.
    InvalidRetention {
        /// The site the bound was set on.
        site: String,
    },
    /// The carbon model rejected the snapshot's assessment (bad axis,
    /// non-positive window, …).
    Model(ModelError),
    /// A wire line that does not parse as its NDJSON record type.
    Wire {
        /// 1-based line number within the NDJSON input.
        line: usize,
        /// The parse failure.
        detail: String,
    },
    /// A socket-transport failure: bind, accept, or connection I/O.
    /// Per-connection I/O errors are isolated to their connection (the
    /// listener keeps serving); this variant surfaces the ones that
    /// stop a client call or the listener itself.
    Transport {
        /// What failed, including the OS error text.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSite { site } => {
                write!(f, "site {site} is not registered with the service")
            }
            ServeError::DuplicateSite { site } => {
                write!(f, "site {site} is already registered")
            }
            ServeError::UnknownTenant { site, tenant } => {
                write!(f, "tenant {tenant} is not registered under site {site}")
            }
            ServeError::NoTenants { site } => {
                write!(f, "site {site} has no registered tenants to attribute to")
            }
            ServeError::InvalidWeight {
                site,
                tenant,
                weight,
            } => write!(
                f,
                "tenant {tenant} under site {site}: weight {weight} is not a \
                 positive finite attribution key"
            ),
            ServeError::NoData { site } => {
                write!(f, "site {site} has not folded any snapshots yet")
            }
            ServeError::StaleSnapshot {
                site,
                seq,
                next_seq,
            } => write!(
                f,
                "site {site}: snapshot seq {seq} replayed (next expected fold \
                 is seq {next_seq})"
            ),
            ServeError::MissingEnergy { site, seq } => write!(
                f,
                "site {site}: snapshot seq {seq} carries no energy estimate \
                 from any measurement method"
            ),
            ServeError::InvalidEnergy {
                site,
                seq,
                energy_kwh,
            } => write!(
                f,
                "site {site}: snapshot seq {seq} energy {energy_kwh} kWh is not \
                 a finite non-negative figure"
            ),
            ServeError::InvalidRetention { site } => {
                write!(f, "site {site}: retention must keep at least one window")
            }
            ServeError::Model(e) => write!(f, "carbon model rejected the snapshot: {e}"),
            ServeError::Wire { line, detail } => {
                write!(f, "wire line {line}: {detail}")
            }
            ServeError::Transport { detail } => {
                write!(f, "socket transport: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ServeError::UnknownSite { site: "KCL".into() };
        assert!(e.to_string().contains("KCL"));
        let e = ServeError::StaleSnapshot {
            site: "KCL".into(),
            seq: 3,
            next_seq: 7,
        };
        assert!(e.to_string().contains("seq 3"));
        assert!(e.to_string().contains("seq 7"));
        let e = ServeError::InvalidWeight {
            site: "KCL".into(),
            tenant: "lsst".into(),
            weight: -1.0,
        };
        assert!(e.to_string().contains("-1"));
        use std::error::Error as _;
        assert!(e.source().is_none());
        let e = ServeError::InvalidEnergy {
            site: "KCL".into(),
            seq: 4,
            energy_kwh: f64::NAN,
        };
        assert!(e.to_string().contains("seq 4"));
        assert!(e.to_string().contains("NaN"));
        let e = ServeError::Model(ModelError::InvalidFraction { value: 2.0 });
        assert!(e.source().is_some());
    }
}
