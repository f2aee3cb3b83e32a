//! The ingest side of the wire: one NDJSON line per snapshot window.
//!
//! A [`SnapshotRecord`] is the serialized form of one closed sampling
//! window — what a `SnapshotSampler` on the event engine emits, reduced
//! to the fields the carbon model needs (site, window, best-estimate
//! energy) plus the sequence number the fold order is keyed on. One
//! record per line, framed by the serde_json NDJSON helpers, so a live
//! feed is a plain append-only byte stream.

use crate::error::{ServeError, ServeResult};
use iriscast_telemetry::SiteTelemetryResult;
use iriscast_units::SimDuration;
use serde::{Deserialize, Serialize};

/// One snapshot window on the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotRecord {
    /// Site short code (must be registered with the service).
    pub site: String,
    /// Per-site snapshot sequence number, 0-based and contiguous.
    /// Folds are applied in `seq` order regardless of arrival order.
    pub seq: u64,
    /// Window start, seconds since the simulation epoch.
    pub window_start_s: i64,
    /// Window end (exclusive), seconds since the simulation epoch.
    pub window_end_s: i64,
    /// Best-estimate IT energy for the window, kWh (the paper's
    /// Facility → PDU → IPMI → Turbostat priority).
    pub energy_kwh: f64,
}

impl SnapshotRecord {
    /// Reduces a collected telemetry window to its wire form.
    ///
    /// Uses the result's best-estimate energy;
    /// [`ServeError::MissingEnergy`] if every method was dark for the
    /// window.
    pub fn from_telemetry(seq: u64, result: &SiteTelemetryResult) -> ServeResult<Self> {
        let energy = result
            .best_estimate()
            .ok_or_else(|| ServeError::MissingEnergy {
                site: result.site_code.clone(),
                seq,
            })?;
        Ok(SnapshotRecord {
            site: result.site_code.clone(),
            seq,
            window_start_s: result.period.start().as_secs(),
            window_end_s: result.period.end().as_secs(),
            energy_kwh: energy.kilowatt_hours(),
        })
    }

    /// Refuses a record whose energy is not a finite, non-negative
    /// figure: [`ServeError::InvalidEnergy`].
    pub(crate) fn check_energy(&self) -> ServeResult<()> {
        if self.energy_kwh.is_finite() && self.energy_kwh >= 0.0 {
            Ok(())
        } else {
            Err(ServeError::InvalidEnergy {
                site: self.site.clone(),
                seq: self.seq,
                energy_kwh: self.energy_kwh,
            })
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs(self.window_end_s - self.window_start_s)
    }

    /// Parses an NDJSON ingest stream, one record per line; blank lines
    /// are skipped. All-or-nothing: the first malformed line fails the
    /// whole batch with its 1-based line number, so a half-ingested
    /// feed can't masquerade as a complete one.
    pub fn parse_ndjson(input: &str) -> ServeResult<Vec<SnapshotRecord>> {
        let mut out = Vec::new();
        for (idx, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: SnapshotRecord =
                serde_json::from_str(line).map_err(|e| ServeError::Wire {
                    line: idx + 1,
                    detail: e.to_string(),
                })?;
            out.push(record);
        }
        Ok(out)
    }

    /// Frames records as NDJSON, one line each.
    pub fn write_ndjson(records: &[SnapshotRecord], out: &mut impl std::io::Write) {
        for record in records {
            serde_json::ndjson::to_writer(&mut *out, record)
                .expect("snapshot records serialize infallibly");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> SnapshotRecord {
        SnapshotRecord {
            site: "CAM".into(),
            seq,
            window_start_s: (seq as i64) * 21_600,
            window_end_s: (seq as i64 + 1) * 21_600,
            energy_kwh: 4_800.0 + seq as f64,
        }
    }

    #[test]
    fn ndjson_round_trip() {
        let records = vec![record(0), record(1), record(2)];
        let mut buf = Vec::new();
        SnapshotRecord::write_ndjson(&records, &mut buf);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        let back = SnapshotRecord::parse_ndjson(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let text = "{\"site\":\"CAM\",\"seq\":0,\"window_start_s\":0,\
                    \"window_end_s\":60,\"energy_kwh\":1.0}\nnot json\n";
        let err = SnapshotRecord::parse_ndjson(text).unwrap_err();
        assert!(matches!(err, ServeError::Wire { line: 2, .. }));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut buf = Vec::new();
        SnapshotRecord::write_ndjson(&[record(7)], &mut buf);
        let text = format!("\n{}\n", String::from_utf8(buf).unwrap());
        let back = SnapshotRecord::parse_ndjson(&text).unwrap();
        assert_eq!(back, vec![record(7)]);
    }
}
