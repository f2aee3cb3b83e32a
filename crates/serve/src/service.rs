//! The assessment service: per-site incremental fold state, the ingest
//! paths that grow it, and the query surface that reads it warm.

use crate::error::{ServeError, ServeResult};
use crate::record::SnapshotRecord;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use iriscast_model::engine::{Assessment, Envelope, Marginal, SpaceResults, TotalsSummary};
use iriscast_model::space::{AxisId, ScenarioAxis};
use iriscast_telemetry::par::pool_fill_indexed;
use iriscast_units::{Bounds, CarbonMass, Energy};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The scenario template one site's snapshots are evaluated under: the
/// axes that stay fixed across windows, plus the carbon-intensity
/// scenario samples applied *per window*.
///
/// Every snapshot of a site is evaluated with the same PUE, embodied
/// and lifespan axes (the [`SpaceResults::extend_rows`] precondition);
/// the CI samples become that window's block of the growing ensemble.
/// The model is fixed at registration — changing it mid-stream would
/// silently change the meaning of every subsequent fold.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteModel {
    /// Fleet size the embodied charge is amortised over.
    pub servers: u32,
    /// Carbon-intensity scenario samples applied to each window, g/kWh.
    pub ci_grams_per_kwh: Vec<f64>,
    /// PUE scenario samples (fixed across windows).
    pub pue_values: Vec<f64>,
    /// Per-server embodied-carbon scenario samples, kg (fixed).
    pub embodied_kg: Vec<f64>,
    /// Hardware lifespan scenario samples, years (fixed).
    pub lifespans_years: Vec<u32>,
}

impl SiteModel {
    /// The paper's Table 3/4 parameterisation scaled to `servers`
    /// machines: CI references, PUE low/medium/high, the server
    /// embodied bounds (low/mid/high), 3–7 year lifespans.
    pub fn paper(servers: u32) -> Self {
        let ci = iriscast_model::paper::ci_references();
        let pue = iriscast_model::paper::pue_table3();
        let embodied = iriscast_model::paper::server_embodied_bounds();
        let mid = (embodied.lo.kilograms() + embodied.hi.kilograms()) / 2.0;
        SiteModel {
            servers,
            ci_grams_per_kwh: vec![
                ci.low.grams_per_kwh(),
                ci.mid.grams_per_kwh(),
                ci.high.grams_per_kwh(),
            ],
            pue_values: vec![pue.low.value(), pue.mid.value(), pue.high.value()],
            embodied_kg: vec![embodied.lo.kilograms(), mid, embodied.hi.kilograms()],
            lifespans_years: iriscast_model::paper::LIFESPANS_YEARS.to_vec(),
        }
    }

    /// Points each snapshot contributes to the site's ensemble.
    pub fn points_per_snapshot(&self) -> usize {
        self.ci_grams_per_kwh.len()
            * self.pue_values.len()
            * self.embodied_kg.len()
            * self.lifespans_years.len()
    }

    /// Builds the one-window assessment for a record: the record's
    /// energy and window, this template's axes.
    fn assessment_for(&self, record: &SnapshotRecord) -> ServeResult<Assessment> {
        let embodied: Vec<CarbonMass> = self
            .embodied_kg
            .iter()
            .map(|&kg| CarbonMass::from_kilograms(kg))
            .collect();
        Ok(Assessment::builder()
            .energy(Energy::from_kilowatt_hours(record.energy_kwh))
            .window(record.window())
            .ci_grams_per_kwh(&self.ci_grams_per_kwh)
            .pue_values(&self.pue_values)
            .embodied_axis(ScenarioAxis::new("embodied", embodied)?)
            .lifespans_years(&self.lifespans_years)
            .servers(self.servers)
            .build()?)
    }

    /// Evaluates one record to its block of scenario rows.
    pub fn evaluate(&self, record: &SnapshotRecord) -> ServeResult<SpaceResults> {
        Ok(self.assessment_for(record)?.evaluate_space())
    }
}

/// One tenant's attribution key under a site.
#[derive(Clone, Debug, PartialEq)]
struct Tenant {
    name: String,
    weight: f64,
}

/// Per-site fold state: the growing ensemble plus the reorder buffer
/// that serializes out-of-order arrivals back into `seq` order.
#[derive(Debug)]
struct SiteState {
    /// Shared with every in-flight evaluation of the site's records.
    model: Arc<SiteModel>,
    results: Option<SpaceResults>,
    /// Next sequence number to fold.
    next_seq: u64,
    /// Evaluated blocks that arrived ahead of `next_seq`, keyed by seq;
    /// the value carries the block, its window end, and its energy.
    pending: BTreeMap<u64, (SpaceResults, i64, f64)>,
    /// End of the latest folded window, seconds since the epoch.
    last_window_end_s: Option<i64>,
    /// Cumulative best-estimate energy across every folded window, kWh.
    /// Summed strictly in `seq` order, so the figure is bit-identical
    /// at any worker count — and it **survives eviction**: retention
    /// bounds the queryable scenario ensemble, not the site's energy
    /// ledger (the federation tier rolls this up fleet-wide).
    energy_kwh: f64,
    /// Sliding-window retention: keep at most this many folded windows
    /// in the ensemble, evicting the oldest. `None` = keep forever.
    retain_windows: Option<usize>,
    /// Windows evicted by retention so far.
    evicted: u64,
    tenants: Vec<Tenant>,
}

impl SiteState {
    /// Drains the reorder buffer: folds every block whose turn has
    /// come, in strictly increasing `seq` order. This is the only
    /// place rows enter `results`, which is what makes the pipeline
    /// bit-identical at any worker count — evaluation may happen in
    /// any order on any thread, but folds are applied in emission
    /// order. Retention runs here too, after every fold, so the
    /// ensemble never holds more than `retain_windows` windows between
    /// any two observable states.
    fn fold_ready(&mut self) -> ServeResult<()> {
        while let Some((block, window_end_s, energy_kwh)) = self.pending.remove(&self.next_seq) {
            match self.results.as_mut() {
                None => self.results = Some(block),
                Some(base) => base.extend_rows(&block)?,
            }
            self.last_window_end_s = Some(window_end_s);
            self.energy_kwh += energy_kwh;
            self.next_seq += 1;
            self.evict_to_retention()?;
        }
        Ok(())
    }

    /// Evicts the oldest windows until the ensemble fits the retention
    /// bound. Each folded window owns one block of the model's CI
    /// samples at the *front* of the ensemble (folds append at the
    /// back, in seq order), so eviction is `retract_rows` of exactly
    /// `ci` samples per window — the documented exact inverse of the
    /// fold, leaving state bit-identical to never having ingested the
    /// evicted windows.
    fn evict_to_retention(&mut self) -> ServeResult<()> {
        let Some(retain) = self.retain_windows else {
            return Ok(());
        };
        let ci_per_window = self.model.ci_grams_per_kwh.len();
        while (self.next_seq - self.evicted) as usize > retain {
            let results = self
                .results
                .as_mut()
                .expect("a site with folded windows has results");
            results.retract_rows(ci_per_window)?;
            self.evicted += 1;
        }
        Ok(())
    }
}

/// Staleness observables for one site: what a monitor needs to decide
/// whether a query answer is fresh enough.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermark {
    /// Snapshots folded into the ensemble so far.
    pub folded: u64,
    /// Evaluated snapshots waiting in the reorder buffer (a sequence
    /// gap upstream, or evaluation still in flight).
    pub pending: usize,
    /// End of the latest folded window, seconds since the epoch.
    pub last_window_end_s: Option<i64>,
    /// Scenario points currently answering queries.
    pub points: usize,
    /// Windows evicted by sliding-window retention so far; `folded`
    /// still counts every window ever folded, so the ensemble currently
    /// holds `folded - evicted` windows.
    pub evicted: u64,
}

/// What the federation tier pulls from a site: the inputs to
/// [`iriscast_model::FleetRollup::fold_site`], plus the staleness
/// counters a federator needs to decide the export is complete.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteExport {
    /// Cumulative best-estimate energy across every folded window,
    /// kWh. Summed in `seq` order (bit-identical at any worker count)
    /// and unaffected by retention.
    pub energy_kwh: f64,
    /// Fleet size the site's model amortises over.
    pub servers: u32,
    /// Windows folded so far.
    pub folded: u64,
    /// Windows evicted by retention so far.
    pub evicted: u64,
}

/// One tenant's allocated slice of a site's footprint, per the
/// Bergmark–Coroamă Part II rule (see
/// [`AssessmentService::tenant_share`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TenantShare {
    /// The tenant.
    pub tenant: String,
    /// The tenant's normalized allocation key, `weight / Σ weights`.
    pub share: f64,
    /// The site's total-carbon envelope scaled by `share`.
    pub total: Bounds<CarbonMass>,
    /// The site's mean total scaled by `share`.
    pub mean_total: CarbonMass,
}

/// Counters an ingest thread hands back when its feed disconnects.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestStats {
    /// Snapshots evaluated and handed to the fold.
    pub folded: u64,
    /// Snapshots rejected (unknown site, stale seq, model refusal).
    pub rejected: u64,
    /// Timeout wakeups with no traffic — each one is a heartbeat
    /// proving the thread was alive within the staleness bound.
    pub idle_wakeups: u64,
    /// The last rejection, for diagnostics.
    pub last_error: Option<String>,
}

/// Handle to a live ingest thread; join it after dropping (or
/// disconnecting) every sender to collect its [`IngestStats`].
#[derive(Debug)]
pub struct IngestHandle {
    join: JoinHandle<IngestStats>,
}

impl IngestHandle {
    /// Waits for the ingest thread to observe channel disconnect and
    /// exit, returning its counters.
    pub fn join(self) -> IngestStats {
        self.join.join().expect("ingest thread never panics")
    }
}

#[derive(Debug, Default)]
struct Inner {
    sites: HashMap<String, SiteState>,
    /// Timeout wakeups across every ingest thread — the liveness
    /// heartbeat behind the bounded-staleness contract.
    heartbeats: u64,
}

/// The live assessment service: registered site models, per-site
/// incremental ensembles, and the warm query surface over them.
///
/// Cloning is cheap and shares state (an `Arc`), which is how the
/// background ingest thread and the query side hold the same service.
/// Concurrency model: folds take the write lock briefly per snapshot;
/// queries share the read lock and answer from the cached sorted views,
/// which [`SpaceResults::extend_rows`] keeps warm across folds — a
/// quantile between folds is O(1) and allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AssessmentService {
    inner: Arc<RwLock<Inner>>,
}

impl AssessmentService {
    /// An empty service; register sites before ingesting.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("service lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("service lock poisoned")
    }

    /// Registers a site's scenario template. The model is fixed for
    /// the service's lifetime; [`ServeError::DuplicateSite`] on a
    /// repeat.
    pub fn register_site(&self, site: impl Into<String>, model: SiteModel) -> ServeResult<()> {
        let site = site.into();
        let mut inner = self.write();
        if inner.sites.contains_key(&site) {
            return Err(ServeError::DuplicateSite { site });
        }
        inner.sites.insert(
            site,
            SiteState {
                model: Arc::new(model),
                results: None,
                next_seq: 0,
                pending: BTreeMap::new(),
                last_window_end_s: None,
                energy_kwh: 0.0,
                retain_windows: None,
                evicted: 0,
                tenants: Vec::new(),
            },
        );
        Ok(())
    }

    /// Registers a tenant under a site with its attribution weight
    /// (any positive finite usage measure — node-seconds, booked
    /// capacity — consistent across the site's tenants). Repeat
    /// registration replaces the weight.
    pub fn register_tenant(
        &self,
        site: &str,
        tenant: impl Into<String>,
        weight: f64,
    ) -> ServeResult<()> {
        let tenant = tenant.into();
        let mut inner = self.write();
        let state = inner
            .sites
            .get_mut(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        if !(weight.is_finite() && weight > 0.0) {
            return Err(ServeError::InvalidWeight {
                site: site.into(),
                tenant,
                weight,
            });
        }
        match state.tenants.iter_mut().find(|t| t.name == tenant) {
            Some(t) => t.weight = weight,
            None => state.tenants.push(Tenant {
                name: tenant,
                weight,
            }),
        }
        Ok(())
    }

    /// Looks up the model a record will be evaluated under.
    fn model_of(&self, site: &str) -> ServeResult<Arc<SiteModel>> {
        self.read()
            .sites
            .get(site)
            .map(|s| Arc::clone(&s.model))
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })
    }

    /// Hands one evaluated block to its site's reorder buffer and
    /// folds everything whose turn has come.
    fn fold_evaluated(&self, record: &SnapshotRecord, block: SpaceResults) -> ServeResult<()> {
        let mut inner = self.write();
        let state = inner
            .sites
            .get_mut(&record.site)
            .ok_or_else(|| ServeError::UnknownSite {
                site: record.site.clone(),
            })?;
        if record.seq < state.next_seq || state.pending.contains_key(&record.seq) {
            return Err(ServeError::StaleSnapshot {
                site: record.site.clone(),
                seq: record.seq,
                next_seq: state.next_seq,
            });
        }
        state
            .pending
            .insert(record.seq, (block, record.window_end_s, record.energy_kwh));
        state.fold_ready()
    }

    /// Evaluates and folds one snapshot, synchronously. A record for an
    /// unknown site, or with a non-finite or negative energy
    /// ([`ServeError::InvalidEnergy`]), is refused before evaluation
    /// and leaves the site's state untouched.
    pub fn ingest(&self, record: &SnapshotRecord) -> ServeResult<()> {
        let model = self.model_of(&record.site)?;
        record.check_energy()?;
        let block = model.evaluate(record)?;
        self.fold_evaluated(record, block)
    }

    /// Ingests a batch, evaluating on the shared worker pool with at
    /// most `workers` of its threads (1 = inline on the caller's
    /// thread). Records are taken in waves of `workers`: a wave is
    /// evaluated in parallel, then its blocks are folded in input order
    /// through the per-site reorder buffer, so the resulting state is
    /// **bit-identical at every worker count** (the property suite pins
    /// 1 ≡ 16). Returns the number of snapshots ingested.
    ///
    /// An unknown site or an invalid energy anywhere in the batch fails
    /// it before any evaluation starts, so nothing is folded. Any other
    /// refusal (a model that cannot build the record's assessment, a
    /// stale or repeated `seq`) stops the batch at that record: the
    /// records before it are ingested and none after it, exactly as at
    /// one worker.
    pub fn ingest_batch(&self, records: &[SnapshotRecord], workers: usize) -> ServeResult<usize> {
        // Resolve every model and check every energy up front so a bad
        // record fails the batch before any evaluation work starts.
        let models: Vec<Arc<SiteModel>> = records
            .iter()
            .map(|r| {
                let model = self.model_of(&r.site)?;
                r.check_energy()?;
                Ok(model)
            })
            .collect::<ServeResult<_>>()?;
        let wave = workers.max(1);
        let mut blocks: Vec<Option<ServeResult<SpaceResults>>> = Vec::with_capacity(wave);
        for (wave_records, wave_models) in records.chunks(wave).zip(models.chunks(wave)) {
            blocks.resize_with(wave_records.len(), || None);
            pool_fill_indexed(&mut blocks, workers, |i, block| {
                *block = Some(wave_models[i].evaluate(&wave_records[i]));
            });
            for (record, block) in wave_records.iter().zip(blocks.drain(..)) {
                let block = block.expect("pool_fill_indexed visits every slot")?;
                self.fold_evaluated(record, block)?;
            }
        }
        Ok(records.len())
    }

    /// Spawns the live ingest thread: a loop over
    /// `recv_timeout(staleness)` that evaluates and folds each arriving
    /// record, and on every timeout bumps the service heartbeat instead
    /// of blocking indefinitely — the mechanism behind the
    /// bounded-staleness contract (see the crate docs). Rejected
    /// records are counted, not fatal; the thread exits when every
    /// sender is dropped.
    pub fn spawn_ingest(&self, rx: Receiver<SnapshotRecord>, staleness: Duration) -> IngestHandle {
        let service = self.clone();
        let join = thread::Builder::new()
            .name("iriscast-serve-ingest".into())
            .spawn(move || {
                let mut stats = IngestStats::default();
                loop {
                    match rx.recv_timeout(staleness) {
                        Ok(record) => match service.ingest(&record) {
                            Ok(()) => stats.folded += 1,
                            Err(e) => {
                                stats.rejected += 1;
                                stats.last_error = Some(e.to_string());
                            }
                        },
                        Err(RecvTimeoutError::Timeout) => {
                            stats.idle_wakeups += 1;
                            service.write().heartbeats += 1;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                stats
            })
            .expect("spawn ingest thread");
        IngestHandle { join }
    }

    /// Parses an NDJSON ingest stream and ingests it with
    /// [`AssessmentService::ingest_batch`]. Returns the number of
    /// snapshots ingested.
    pub fn ingest_ndjson(&self, input: &str, workers: usize) -> ServeResult<usize> {
        let records = SnapshotRecord::parse_ndjson(input)?;
        self.ingest_batch(&records, workers)
    }

    /// Timeout heartbeats across every ingest thread so far.
    pub fn heartbeats(&self) -> u64 {
        self.read().heartbeats
    }

    fn with_results<T>(
        &self,
        site: &str,
        f: impl FnOnce(&SpaceResults) -> ServeResult<T>,
    ) -> ServeResult<T> {
        let inner = self.read();
        let state = inner
            .sites
            .get(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        let results = state
            .results
            .as_ref()
            .ok_or_else(|| ServeError::NoData { site: site.into() })?;
        f(results)
    }

    /// A detached copy of the site's current scenario ensemble: the
    /// retained windows' rows only, in fold order.
    pub fn results(&self, site: &str) -> ServeResult<SpaceResults> {
        self.with_results(site, |r| Ok(r.clone()))
    }

    /// The site's joint active/embodied/total envelope.
    pub fn envelope(&self, site: &str) -> ServeResult<Envelope> {
        self.with_results(site, |r| Ok(r.envelope()))
    }

    /// Linear-interpolated percentile of the site's total column,
    /// `q ∈ [0, 1]`. Warm after the first call: answered from the
    /// cached sorted view that folds keep up to date.
    pub fn percentile(&self, site: &str, q: f64) -> ServeResult<CarbonMass> {
        self.with_results(site, |r| Ok(r.percentile(q)?))
    }

    /// Five-number-plus-mean summary of the site's totals.
    pub fn summary(&self, site: &str) -> ServeResult<TotalsSummary> {
        self.with_results(site, |r| Ok(r.summary()?))
    }

    /// Grouped marginals along one axis of the site's ensemble. Note
    /// that the CI axis grows by one block per folded snapshot, so its
    /// marginals are *per window-sample*; the three inner axes keep
    /// their registered lengths.
    pub fn marginals(&self, site: &str, axis: AxisId) -> ServeResult<Vec<Marginal>> {
        self.with_results(site, |r| Ok(r.marginals(axis)))
    }

    /// One tenant's allocated slice of the site's footprint.
    ///
    /// Attribution follows the Bergmark–Coroamă Part II rule for many
    /// services sharing one infrastructure: each tenant receives the
    /// fraction `weight / Σ weights` of the site's footprint, so the
    /// allocation is *mutually exclusive* (shares are disjoint) and
    /// *collectively exhaustive* (shares sum to 1 — no double counting
    /// and no orphaned emissions).
    pub fn tenant_share(&self, site: &str, tenant: &str) -> ServeResult<TenantShare> {
        let inner = self.read();
        let state = inner
            .sites
            .get(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        if state.tenants.is_empty() {
            return Err(ServeError::NoTenants { site: site.into() });
        }
        let total_weight: f64 = state.tenants.iter().map(|t| t.weight).sum();
        let t = state
            .tenants
            .iter()
            .find(|t| t.name == tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                site: site.into(),
                tenant: tenant.into(),
            })?;
        let results = state
            .results
            .as_ref()
            .ok_or_else(|| ServeError::NoData { site: site.into() })?;
        let share = t.weight / total_weight;
        let env = results.envelope();
        Ok(TenantShare {
            tenant: t.name.clone(),
            share,
            total: Bounds::new(env.total.lo * share, env.total.hi * share),
            mean_total: results.mean_total() * share,
        })
    }

    /// Every tenant's slice of the site, in registration order — the
    /// collectively-exhaustive allocation table.
    pub fn tenant_shares(&self, site: &str) -> ServeResult<Vec<TenantShare>> {
        let names: Vec<String> = {
            let inner = self.read();
            let state = inner
                .sites
                .get(site)
                .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
            state.tenants.iter().map(|t| t.name.clone()).collect()
        };
        names
            .iter()
            .map(|name| self.tenant_share(site, name))
            .collect()
    }

    /// The site's staleness observables.
    pub fn watermark(&self, site: &str) -> ServeResult<Watermark> {
        let inner = self.read();
        let state = inner
            .sites
            .get(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        Ok(Watermark {
            folded: state.next_seq,
            pending: state.pending.len(),
            last_window_end_s: state.last_window_end_s,
            points: state.results.as_ref().map_or(0, SpaceResults::len),
            evicted: state.evicted,
        })
    }

    /// Bounds a site's ensemble to its most recent `windows` folded
    /// windows, evicting the oldest as new ones fold in — the
    /// sliding-window retention policy. Each eviction costs O(one
    /// window's rows), amortised, while the site's sorted view is cold
    /// (it only advances the columns' head offset; the dead rows are
    /// compacted away when a later fold would otherwise reallocate, so
    /// memory is never above a plain `Vec` of the retained rows), and
    /// O(retained rows) while a quantile query has warmed the view (the
    /// evicted totals are subtracted from it). Eviction is *exact*:
    /// [`SpaceResults::retract_rows`] is the bitwise inverse of the
    /// fold, so a service that kept windows `k..n` answers every query
    /// with the same bits as one that only ever saw `k..n` (the
    /// property suite pins this). `windows` must be at least 1;
    /// tightening the bound below the current backlog evicts
    /// immediately. Cumulative energy ([`Watermark::folded`] and the
    /// federation export) is deliberately *not* rewound — retention
    /// bounds the scenario ensemble, not the site's energy ledger.
    pub fn set_retention(&self, site: &str, windows: usize) -> ServeResult<()> {
        if windows == 0 {
            return Err(ServeError::InvalidRetention { site: site.into() });
        }
        let mut inner = self.write();
        let state = inner
            .sites
            .get_mut(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        state.retain_windows = Some(windows);
        state.evict_to_retention()
    }

    /// The site names registered so far, sorted — the canonical
    /// enumeration order the federation tier folds sites in.
    pub fn sites(&self) -> Vec<String> {
        let inner = self.read();
        let mut names: Vec<String> = inner.sites.keys().cloned().collect();
        names.sort();
        names
    }

    /// Cumulative best-estimate energy folded for a site, kWh — summed
    /// strictly in `seq` order and unaffected by retention.
    pub fn site_energy_kwh(&self, site: &str) -> ServeResult<f64> {
        Ok(self.export(site)?.energy_kwh)
    }

    /// The site's federation export: everything the fleet tier needs
    /// to fold this site into a [`iriscast_model::FleetRollup`].
    pub fn export(&self, site: &str) -> ServeResult<SiteExport> {
        let inner = self.read();
        let state = inner
            .sites
            .get(site)
            .ok_or_else(|| ServeError::UnknownSite { site: site.into() })?;
        Ok(SiteExport {
            energy_kwh: state.energy_kwh,
            servers: state.model.servers,
            folded: state.next_seq,
            evicted: state.evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn model() -> SiteModel {
        SiteModel {
            servers: 100,
            ci_grams_per_kwh: vec![50.0, 150.0, 250.0],
            pue_values: vec![1.1, 1.3, 1.58],
            embodied_kg: vec![400.0, 900.0, 1_300.0],
            lifespans_years: vec![3, 5, 7],
        }
    }

    fn record(seq: u64, energy_kwh: f64) -> SnapshotRecord {
        SnapshotRecord {
            site: "CAM".into(),
            seq,
            window_start_s: (seq as i64) * 21_600,
            window_end_s: (seq as i64 + 1) * 21_600,
            energy_kwh,
        }
    }

    /// The sequential reference: evaluate in seq order, extend_rows by
    /// hand.
    fn reference(records: &[SnapshotRecord]) -> SpaceResults {
        let m = model();
        let mut base: Option<SpaceResults> = None;
        let mut sorted = records.to_vec();
        sorted.sort_by_key(|r| r.seq);
        for r in &sorted {
            let block = m.evaluate(r).unwrap();
            match base.as_mut() {
                None => base = Some(block),
                Some(b) => b.extend_rows(&block).unwrap(),
            }
        }
        base.unwrap()
    }

    #[test]
    fn out_of_order_arrival_folds_in_seq_order() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        let records = [record(0, 4_800.0), record(1, 5_100.0), record(2, 4_650.0)];
        // Arrive 2, 0, 1.
        for i in [2usize, 0, 1] {
            service.ingest(&records[i]).unwrap();
        }
        let w = service.watermark("CAM").unwrap();
        assert_eq!(w.folded, 3);
        assert_eq!(w.pending, 0);
        assert_eq!(w.last_window_end_s, Some(3 * 21_600));
        let expected = reference(&records);
        let got = service.percentile("CAM", 0.5).unwrap();
        assert_eq!(
            got.kilograms().to_bits(),
            expected.percentile(0.5).unwrap().kilograms().to_bits()
        );
        assert_eq!(service.envelope("CAM").unwrap(), expected.envelope());
    }

    #[test]
    fn gap_parks_in_the_reorder_buffer_until_filled() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.ingest(&record(0, 4_800.0)).unwrap();
        service.ingest(&record(2, 4_650.0)).unwrap();
        let w = service.watermark("CAM").unwrap();
        assert_eq!((w.folded, w.pending), (1, 1));
        service.ingest(&record(1, 5_100.0)).unwrap();
        let w = service.watermark("CAM").unwrap();
        assert_eq!((w.folded, w.pending), (3, 0));
    }

    #[test]
    fn replayed_seq_is_rejected() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.ingest(&record(0, 4_800.0)).unwrap();
        let err = service.ingest(&record(0, 4_800.0)).unwrap_err();
        assert!(matches!(err, ServeError::StaleSnapshot { seq: 0, .. }));
        // A parked pending seq is protected too.
        service.ingest(&record(2, 4_650.0)).unwrap();
        let err = service.ingest(&record(2, 4_650.0)).unwrap_err();
        assert!(matches!(err, ServeError::StaleSnapshot { seq: 2, .. }));
    }

    #[test]
    fn queries_before_first_fold_and_unknown_names_are_typed_errors() {
        let service = AssessmentService::new();
        assert!(matches!(
            service.envelope("CAM").unwrap_err(),
            ServeError::UnknownSite { .. }
        ));
        service.register_site("CAM", model()).unwrap();
        assert!(matches!(
            service.percentile("CAM", 0.5).unwrap_err(),
            ServeError::NoData { .. }
        ));
        assert!(matches!(
            service.register_site("CAM", model()).unwrap_err(),
            ServeError::DuplicateSite { .. }
        ));
        assert!(matches!(
            service.tenant_share("CAM", "lsst").unwrap_err(),
            ServeError::NoTenants { .. }
        ));
    }

    #[test]
    fn tenant_shares_are_exhaustive_and_exclusive() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.register_tenant("CAM", "lsst", 1.0).unwrap();
        service.register_tenant("CAM", "euclid", 1.0).unwrap();
        service.register_tenant("CAM", "gaia", 2.0).unwrap();
        service.ingest(&record(0, 4_800.0)).unwrap();
        let shares = service.tenant_shares("CAM").unwrap();
        assert_eq!(shares.len(), 3);
        // Dyadic weights: the normalized shares are exact, so
        // exhaustiveness holds bit-for-bit, not just approximately.
        assert_eq!(shares[0].share, 0.25);
        assert_eq!(shares[1].share, 0.25);
        assert_eq!(shares[2].share, 0.5);
        assert_eq!(shares.iter().map(|s| s.share).sum::<f64>(), 1.0);
        let env = service.envelope("CAM").unwrap();
        let hi_sum: f64 = shares.iter().map(|s| s.total.hi.kilograms()).sum();
        assert!((hi_sum - env.total.hi.kilograms()).abs() < 1e-9 * env.total.hi.kilograms());
        // Invalid weights refused.
        assert!(matches!(
            service.register_tenant("CAM", "bad", 0.0).unwrap_err(),
            ServeError::InvalidWeight { .. }
        ));
        assert!(matches!(
            service.tenant_share("CAM", "nope").unwrap_err(),
            ServeError::UnknownTenant { .. }
        ));
    }

    #[test]
    fn parallel_batch_matches_sequential_bit_for_bit() {
        let records: Vec<SnapshotRecord> = (0..12)
            .map(|i| record(i, 4_500.0 + 37.0 * i as f64))
            .collect();
        let expected = reference(&records);

        for workers in [1usize, 4] {
            let service = AssessmentService::new();
            service.register_site("CAM", model()).unwrap();
            // Feed in scrambled order; the reorder buffer restores it.
            let mut scrambled = records.clone();
            scrambled.reverse();
            assert_eq!(service.ingest_batch(&scrambled, workers).unwrap(), 12);
            let qs = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
            for &q in &qs {
                assert_eq!(
                    service.percentile("CAM", q).unwrap().kilograms().to_bits(),
                    expected.percentile(q).unwrap().kilograms().to_bits(),
                    "q={q} workers={workers}"
                );
            }
            assert_eq!(service.envelope("CAM").unwrap(), expected.envelope());
            assert_eq!(
                service.marginals("CAM", AxisId::Pue).unwrap(),
                expected.marginals(AxisId::Pue)
            );
        }
    }

    #[test]
    fn retention_evicts_to_exactly_the_never_ingested_bits() {
        let records: Vec<SnapshotRecord> = (0..8)
            .map(|i| record(i, 4_500.0 + 61.0 * i as f64))
            .collect();
        let retained = AssessmentService::new();
        retained.register_site("CAM", model()).unwrap();
        retained.set_retention("CAM", 3).unwrap();
        for r in &records {
            retained.ingest(r).unwrap();
        }
        let w = retained.watermark("CAM").unwrap();
        assert_eq!((w.folded, w.evicted), (8, 5));
        assert_eq!(w.points, 3 * model().points_per_snapshot());
        // Bit-for-bit against a service that only ever saw the last 3.
        let expected = reference(&records[5..]);
        for &q in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                retained.percentile("CAM", q).unwrap().kilograms().to_bits(),
                expected.percentile(q).unwrap().kilograms().to_bits(),
                "q={q}"
            );
        }
        assert_eq!(retained.envelope("CAM").unwrap(), expected.envelope());
        // Energy ledger is NOT rewound by eviction.
        let all: f64 = records.iter().map(|r| r.energy_kwh).fold(0.0, |a, b| a + b);
        assert_eq!(retained.site_energy_kwh("CAM").unwrap(), all);
    }

    #[test]
    fn nan_energy_is_refused_before_evaluation() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.ingest(&record(0, 4_800.0)).unwrap();
        let before = service.watermark("CAM").unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let err = service.ingest(&record(1, bad)).unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidEnergy { seq: 1, .. }),
                "{err:?}"
            );
        }
        // A batch carrying one bad record folds nothing, even the good
        // record ahead of it.
        let err = service
            .ingest_batch(&[record(1, 4_900.0), record(2, f64::NAN)], 4)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidEnergy { seq: 2, .. }));
        assert_eq!(service.watermark("CAM").unwrap(), before);
        assert_eq!(service.site_energy_kwh("CAM").unwrap(), 4_800.0);
        // The site still answers, and seq 1 is still the next fold.
        assert!(service.percentile("CAM", 0.5).is_ok());
        service.ingest(&record(1, 4_900.0)).unwrap();
        assert_eq!(service.watermark("CAM").unwrap().folded, 2);
    }

    #[test]
    fn negative_energy_is_refused_before_evaluation() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        let err = service.ingest(&record(0, -5.0)).unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidEnergy {
                site: "CAM".into(),
                seq: 0,
                energy_kwh: -5.0,
            }
        );
        let err = service.ingest_batch(&[record(0, -5.0)], 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidEnergy { seq: 0, .. }));
        let w = service.watermark("CAM").unwrap();
        assert_eq!((w.folded, w.pending, w.points), (0, 0, 0));
        assert_eq!(service.site_energy_kwh("CAM").unwrap(), 0.0);
        assert!(matches!(
            service.percentile("CAM", 0.5).unwrap_err(),
            ServeError::NoData { .. }
        ));
        // Zero energy (an idle window) is a valid figure.
        service.ingest(&record(0, 0.0)).unwrap();
        assert_eq!(service.watermark("CAM").unwrap().folded, 1);
    }

    #[test]
    fn tightening_retention_evicts_immediately_and_zero_is_refused() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        for seq in 0..5u64 {
            service.ingest(&record(seq, 4_800.0 + seq as f64)).unwrap();
        }
        assert!(matches!(
            service.set_retention("CAM", 0).unwrap_err(),
            ServeError::InvalidRetention { .. }
        ));
        assert!(matches!(
            service.set_retention("NOPE", 2).unwrap_err(),
            ServeError::UnknownSite { .. }
        ));
        service.set_retention("CAM", 2).unwrap();
        let w = service.watermark("CAM").unwrap();
        assert_eq!((w.folded, w.evicted), (5, 3));
        assert_eq!(w.points, 2 * model().points_per_snapshot());
    }

    #[test]
    fn export_carries_the_federation_inputs() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.register_site("RAL", model()).unwrap();
        assert_eq!(service.sites(), vec!["CAM".to_string(), "RAL".into()]);
        service.ingest(&record(0, 4_800.0)).unwrap();
        service.ingest(&record(1, 5_100.0)).unwrap();
        let export = service.export("CAM").unwrap();
        assert_eq!(export.energy_kwh, 4_800.0 + 5_100.0);
        assert_eq!(export.servers, 100);
        assert_eq!((export.folded, export.evicted), (2, 0));
        // A registered-but-empty site exports zero energy, not NoData:
        // the fleet fold treats it as a present (zero) estimate.
        assert_eq!(service.export("RAL").unwrap().energy_kwh, 0.0);
        assert!(matches!(
            service.export("NOPE").unwrap_err(),
            ServeError::UnknownSite { .. }
        ));
    }

    #[test]
    fn live_ingest_thread_folds_and_heartbeats() {
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        let (tx, rx) = unbounded();
        let handle = service.spawn_ingest(rx, Duration::from_millis(5));
        tx.send(record(0, 4_800.0)).unwrap();
        tx.send(record(1, 5_100.0)).unwrap();
        // Unknown site: rejected, not fatal.
        let mut stray = record(2, 1.0);
        stray.site = "NOPE".into();
        tx.send(stray).unwrap();
        // Let the thread drain and idle at least once past the bound.
        std::thread::sleep(Duration::from_millis(30));
        drop(tx);
        let stats = handle.join();
        assert_eq!(stats.folded, 2);
        assert_eq!(stats.rejected, 1);
        assert!(stats.idle_wakeups >= 1);
        assert!(stats.last_error.unwrap().contains("NOPE"));
        assert!(service.heartbeats() >= 1);
        assert_eq!(service.watermark("CAM").unwrap().folded, 2);
    }
}
