//! The sampling engine: sweep a site's fleet over the snapshot window.
//!
//! For every node and every sample instant the collector evaluates the
//! utilisation source, maps it through the node's power model, and pushes
//! the true wall power through each configured instrument's error model.
//! Node sweeps run in parallel over fixed-size chunks (see [`crate::par`])
//! with per-node deterministic RNG streams, so results are bit-identical
//! regardless of worker count — `collect` with 1 worker equals `collect`
//! with 16.

use crate::error::{TelemetryError, TelemetryResult};
use crate::meter::{MeterErrorModel, MeterKind, PowerMeter};
use crate::par::pool_fill_indexed;
use crate::power::PowerCurve;
use crate::register::{decode_register_readings, CumulativeRegister};
use crate::sources::{splitmix64, UtilizationSource};
use crate::timeseries::{GapPolicy, PowerSeries};
use crate::NodePowerModel;
use iriscast_units::{Energy, Period, Power, SimDuration, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-site node identifier (index across the site's groups).
pub type NodeId = u64;

/// Nodes processed per parallel chunk. Fixed (rather than derived from the
/// worker count) so the floating-point reduction order — and therefore the
/// output — is identical for any parallelism level.
const CHUNK_NODES: usize = 64;

/// One homogeneous group of nodes within a site's telemetry config.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeGroupTelemetry {
    /// Label for reports (usually the inventory spec name).
    pub label: String,
    /// Number of monitored nodes in the group.
    pub count: u32,
    /// Power model shared by the group's nodes.
    pub power_model: NodePowerModel,
}

/// Everything the collector needs to know about one site.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SiteTelemetryConfig {
    /// Site short code (Table 2 row label).
    pub site_code: String,
    /// Monitored node groups.
    pub groups: Vec<NodeGroupTelemetry>,
    /// Which measurement methods exist at the site (Table 2's blank cells
    /// are methods a site simply did not have).
    pub methods: Vec<MeterKind>,
    /// Fraction of nodes whose BMC actually reports IPMI readings
    /// (Durham/SCARF have large non-reporting populations).
    pub ipmi_node_coverage: f64,
    /// Extra machine-room load the facility meter sees beyond the node
    /// wall power (switchgear, room networking), as a fraction.
    pub facility_overhead_frac: f64,
    /// Sampling interval for on-line methods (PDU/IPMI/Turbostat).
    pub sample_step: SimDuration,
    /// Per-site RNG seed.
    pub seed: u64,
}

impl SiteTelemetryConfig {
    /// A config with every method available, full IPMI coverage, no
    /// facility overhead, 30-second sampling.
    pub fn new(site_code: impl Into<String>, groups: Vec<NodeGroupTelemetry>, seed: u64) -> Self {
        SiteTelemetryConfig {
            site_code: site_code.into(),
            groups,
            methods: MeterKind::ALL.to_vec(),
            ipmi_node_coverage: 1.0,
            facility_overhead_frac: 0.0,
            sample_step: SimDuration::from_secs(30),
            seed,
        }
    }

    /// Total monitored nodes.
    pub fn total_nodes(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Solves for the single site-wide utilisation that makes the expected
    /// mean site wall power equal `target` (linear power curves assumed,
    /// exact for them). Clamped to `[0, 1]`.
    ///
    /// This is the calibration inverse used to reproduce published site
    /// energies: Table 2 reports energies, the simulator needs
    /// utilisations.
    pub fn solve_utilization(&self, target: Power) -> f64 {
        let idle_sum: f64 = self
            .groups
            .iter()
            .map(|g| g.power_model.idle().watts() * f64::from(g.count))
            .sum();
        let dynamic_sum: f64 = self
            .groups
            .iter()
            .map(|g| (g.power_model.max() - g.power_model.idle()).watts() * f64::from(g.count))
            .sum();
        if dynamic_sum <= 0.0 {
            return 0.0;
        }
        ((target.watts() - idle_sum) / dynamic_sum).clamp(0.0, 1.0)
    }

    /// Number of nodes (prefix of the id space) that report IPMI. The
    /// coverage is clamped defensively: [`SiteCollector::collect_config`]
    /// accepts borrowed configs that never went through
    /// [`SiteCollector::new`]'s validation.
    fn ipmi_reporting_nodes(&self) -> u64 {
        let total = f64::from(self.total_nodes());
        (self.ipmi_node_coverage.clamp(0.0, 1.0) * total).round() as u64
    }
}

/// One parallel chunk's accumulators: watts sums per (method, step).
///
/// Chunk results must stay materialised per chunk (not merged into
/// per-worker running sums) because the fold below adds them in global
/// chunk order — floating-point addition is non-associative, so any
/// other bracketing would break the `collect(1 worker) == collect(16
/// workers)` bit-identity guarantee. What *is* reusable is the storage:
/// a [`CollectScratch`] keeps these buffers alive across collect calls.
#[derive(Debug, Default)]
struct ChunkAcc {
    truth: Vec<f64>,
    pdu: Vec<f64>,
    ipmi: Vec<f64>,
    turbo: Vec<f64>,
    /// Flat per-node state for the chunk's sweep (see [`NodeLanes`]).
    lanes: NodeLanes,
}

impl ChunkAcc {
    /// Zeroes the four accumulators at `steps` samples, reusing their
    /// capacity.
    fn reset(&mut self, steps: usize) {
        for v in [
            &mut self.truth,
            &mut self.pdu,
            &mut self.ipmi,
            &mut self.turbo,
        ] {
            v.clear();
            v.resize(steps, 0.0);
        }
    }
}

/// Per-node state of one chunk, structure-of-arrays: the sweep's inner
/// loops walk flat `f64` columns (power-envelope parameters, hold-last
/// registers, the per-step utilisation/wall columns) instead of chasing
/// per-node structs, and the per-node RNG streams sit in one contiguous
/// column. Primed per collect from the site config; the columns keep
/// their capacity inside the scratch arena, so warm collects allocate
/// nothing here.
#[derive(Debug, Default)]
struct NodeLanes {
    /// Per-node deterministic RNG streams (seeded from site seed ⊕ id).
    rng: Vec<StdRng>,
    /// Idle wall power (W).
    idle_w: Vec<f64>,
    /// Dynamic range max − idle (W).
    span_w: Vec<f64>,
    /// Utilisation→power curve shape.
    curve: Vec<PowerCurve>,
    /// Fraction of wall power the node's IPMI/BMC reports.
    ipmi_share: Vec<f64>,
    /// Fraction of wall power RAPL covers.
    rapl_share: Vec<f64>,
    /// Whether this node's BMC reports at all (method present + inside
    /// the site's coverage prefix).
    ipmi_on: Vec<bool>,
    /// Hold-last registers bridging instrument dropouts, per method.
    held_pdu: Vec<f64>,
    held_ipmi: Vec<f64>,
    held_turbo: Vec<f64>,
    /// Per-step scratch columns: utilisation in, true wall power out.
    util: Vec<f64>,
    wall: Vec<f64>,
}

impl NodeLanes {
    /// Rebuilds every column for nodes `lo..hi` of `cfg`'s id space,
    /// reusing capacity. The group walk replaces the old per-node
    /// `model_for` scan.
    fn prime(&mut self, cfg: &SiteTelemetryConfig, lo: u64, hi: u64, ipmi_limit: u64) {
        let NodeLanes {
            rng,
            idle_w,
            span_w,
            curve,
            ipmi_share,
            rapl_share,
            ipmi_on,
            held_pdu,
            held_ipmi,
            held_turbo,
            util,
            wall,
        } = self;
        rng.clear();
        idle_w.clear();
        span_w.clear();
        curve.clear();
        ipmi_share.clear();
        rapl_share.clear();
        ipmi_on.clear();
        held_pdu.clear();
        held_ipmi.clear();
        held_turbo.clear();

        let ipmi_method = cfg.methods.contains(&MeterKind::Ipmi);
        let mut group_start = 0u64;
        for g in &cfg.groups {
            let group_end = group_start + u64::from(g.count);
            let (a, b) = (group_start.max(lo), group_end.min(hi));
            if a < b {
                let m = &g.power_model;
                let idle = m.idle().watts();
                for id in a..b {
                    rng.push(StdRng::seed_from_u64(splitmix64(cfg.seed ^ (id + 1))));
                    idle_w.push(idle);
                    span_w.push((m.max() - m.idle()).watts());
                    curve.push(m.curve());
                    ipmi_share.push(m.ipmi_share);
                    rapl_share.push(m.rapl_share);
                    ipmi_on.push(ipmi_method && id < ipmi_limit);
                    held_pdu.push(idle);
                    held_ipmi.push(m.ipmi_visible(m.idle()).watts());
                    held_turbo.push(m.rapl_visible(m.idle()).watts());
                }
            }
            group_start = group_end;
            if group_start >= hi {
                break;
            }
        }
        let n = (hi - lo) as usize;
        debug_assert_eq!(rng.len(), n, "lane columns must cover the chunk");
        util.clear();
        util.resize(n, 0.0);
        wall.clear();
        wall.resize(n, 0.0);
    }
}

/// The per-instrument constants of one sweep: which observation passes
/// run and each pass's error model. Derived once per collect from the
/// site config and shared between the batch and stepped paths.
#[derive(Clone, Copy, Debug)]
struct MeterPasses {
    pdu_err: MeterErrorModel,
    ipmi_err: MeterErrorModel,
    turbo_err: MeterErrorModel,
    do_pdu: bool,
    do_ipmi: bool,
    do_turbo: bool,
}

impl MeterPasses {
    fn for_config(cfg: &SiteTelemetryConfig) -> Self {
        let has = |k: MeterKind| cfg.methods.contains(&k);
        MeterPasses {
            pdu_err: PowerMeter::standard(MeterKind::Pdu).error,
            ipmi_err: PowerMeter::standard(MeterKind::Ipmi).error,
            turbo_err: PowerMeter::standard(MeterKind::Turbostat).error,
            // The facility meter reads the PDU-level aggregate plus room
            // overhead, so it needs the PDU pass even without PDUs.
            do_pdu: has(MeterKind::Pdu) || has(MeterKind::Facility),
            do_ipmi: has(MeterKind::Ipmi),
            do_turbo: has(MeterKind::Turbostat),
        }
    }
}

/// How a site-wide meter outage reads while the instrument is dark.
///
/// Per-sample dropouts (an instrument's own `dropout_prob`) are bridged
/// by the hold-last registers inside the sweep; a [`DropoutMode`]
/// describes the *site-level* failure a fault injector drives — the PDU
/// head-end dies, the BMC network partition drops every node at once.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DropoutMode {
    /// The aggregation layer keeps serving each node's last good reading
    /// — the outage is invisible in the series but the numbers are stale.
    HoldLast,
    /// The samples are simply missing: the series carries NaN gaps for
    /// the outage, to be reconstructed later under a [`GapPolicy`] (or
    /// refused as [`TelemetryError::UnrecoverableGap`] when nothing
    /// valid remains).
    Gap,
}

/// The site-wide meter outages in force at one sample instant: per
/// on-line method, dark (`Some(mode)`) or reporting (`None`).
///
/// The default is all-clear, and an all-clear sweep is bit-identical to
/// one that never heard of faults — the kernel takes the unfaulted path
/// (same arithmetic, same RNG draw order) whenever a method is up. While
/// a method is dark it draws **nothing** from the node's RNG stream (a
/// dead instrument measures nothing); the stream is shared across the
/// node's instrument passes, so observations after the outage — on any
/// method — differ from an unfaulted run's. Only the fault-free case is
/// bit-pinned.
///
/// The facility meter cannot be injected here: its readings derive from
/// the PDU-level aggregate through a cumulative register, so facility
/// outages are modelled upstream (fault the PDU feed) and
/// [`StepFaults::with`] refuses [`MeterKind::Facility`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StepFaults {
    pdu: Option<DropoutMode>,
    ipmi: Option<DropoutMode>,
    turbo: Option<DropoutMode>,
}

impl StepFaults {
    /// No outage on any method — the default, and the mode every
    /// non-fault-aware path sweeps under.
    pub fn clear() -> Self {
        StepFaults::default()
    }

    /// Whether no method is dark.
    pub fn is_clear(&self) -> bool {
        *self == StepFaults::default()
    }

    /// Builder: this sweep instant has `method` dark under `mode`.
    ///
    /// # Panics
    /// On [`MeterKind::Facility`] — register-derived, not injectable.
    pub fn with(mut self, method: MeterKind, mode: DropoutMode) -> Self {
        self.set(method, Some(mode));
        self
    }

    /// Marks `method` dark (`Some`) or reporting (`None`).
    ///
    /// # Panics
    /// On [`MeterKind::Facility`] — register-derived, not injectable.
    pub fn set(&mut self, method: MeterKind, mode: Option<DropoutMode>) {
        match method {
            MeterKind::Pdu => self.pdu = mode,
            MeterKind::Ipmi => self.ipmi = mode,
            MeterKind::Turbostat => self.turbo = mode,
            MeterKind::Facility => panic!(
                "facility readings derive from the PDU aggregate; \
                 inject the PDU feed instead"
            ),
        }
    }

    /// The outage mode in force for `method` (`None` = reporting).
    /// Facility always reports `None`.
    pub fn get(&self, method: MeterKind) -> Option<DropoutMode> {
        match method {
            MeterKind::Pdu => self.pdu,
            MeterKind::Ipmi => self.ipmi,
            MeterKind::Turbostat => self.turbo,
            MeterKind::Facility => None,
        }
    }
}

/// One sample instant of one chunk's sweep: evaluate utilisation → true
/// wall power for the chunk's nodes, then push it through each
/// configured instrument pass, accumulating nodes in ascending id
/// order.
///
/// This is the single shared kernel of the collector. The batch path
/// iterates time *inside* a chunk, the stepped path iterates chunks
/// inside a time step — both land here, so the arithmetic, the
/// accumulation bracketing, and each node's RNG draw order (PDU, then
/// IPMI, then Turbostat within a step, streams per node) are identical
/// by construction, which is what makes the two paths bit-identical.
///
/// `faults` carries site-wide outages in force at this instant. A dark
/// method skips its observation pass entirely (no RNG draws — a dead
/// instrument measures nothing): hold-last outages sum the per-node held
/// registers, gap outages write NaN into the accumulator column. The
/// all-clear case runs exactly the pre-fault code path.
fn sweep_chunk_step(
    acc: &mut ChunkAcc,
    passes: &MeterPasses,
    s: usize,
    t: Timestamp,
    lo: u64,
    utilization: &dyn UtilizationSource,
    faults: StepFaults,
) {
    let ChunkAcc {
        truth,
        pdu,
        ipmi,
        turbo,
        lanes,
    } = acc;
    let n = lanes.util.len();
    utilization.fill_step(lo, t, &mut lanes.util);
    let mut sum = 0.0;
    for j in 0..n {
        let w =
            lanes.idle_w[j] + lanes.span_w[j] * lanes.curve[j].apply(lanes.util[j].clamp(0.0, 1.0));
        lanes.wall[j] = w;
        sum += w;
    }
    truth[s] = sum;
    if passes.do_pdu {
        match faults.get(MeterKind::Pdu) {
            None => {
                let mut sum = 0.0;
                for j in 0..n {
                    if let Some(r) = passes
                        .pdu_err
                        .observe_watts(lanes.wall[j], &mut lanes.rng[j])
                    {
                        lanes.held_pdu[j] = r;
                    }
                    sum += lanes.held_pdu[j];
                }
                pdu[s] = sum;
            }
            Some(DropoutMode::HoldLast) => {
                let mut sum = 0.0;
                for j in 0..n {
                    sum += lanes.held_pdu[j];
                }
                pdu[s] = sum;
            }
            Some(DropoutMode::Gap) => pdu[s] = f64::NAN,
        }
    }
    if passes.do_ipmi {
        match faults.get(MeterKind::Ipmi) {
            None => {
                let mut sum = 0.0;
                for j in 0..n {
                    if lanes.ipmi_on[j] {
                        if let Some(r) = passes
                            .ipmi_err
                            .observe_watts(lanes.wall[j] * lanes.ipmi_share[j], &mut lanes.rng[j])
                        {
                            lanes.held_ipmi[j] = r;
                        }
                        sum += lanes.held_ipmi[j];
                    }
                }
                ipmi[s] = sum;
            }
            Some(DropoutMode::HoldLast) => {
                let mut sum = 0.0;
                for j in 0..n {
                    if lanes.ipmi_on[j] {
                        sum += lanes.held_ipmi[j];
                    }
                }
                ipmi[s] = sum;
            }
            Some(DropoutMode::Gap) => ipmi[s] = f64::NAN,
        }
    }
    if passes.do_turbo {
        match faults.get(MeterKind::Turbostat) {
            None => {
                let mut sum = 0.0;
                for j in 0..n {
                    if let Some(r) = passes
                        .turbo_err
                        .observe_watts(lanes.wall[j] * lanes.rapl_share[j], &mut lanes.rng[j])
                    {
                        lanes.held_turbo[j] = r;
                    }
                    sum += lanes.held_turbo[j];
                }
                turbo[s] = sum;
            }
            Some(DropoutMode::HoldLast) => {
                let mut sum = 0.0;
                for j in 0..n {
                    sum += lanes.held_turbo[j];
                }
                turbo[s] = sum;
            }
            Some(DropoutMode::Gap) => turbo[s] = f64::NAN,
        }
    }
}

/// Reusable buffers for [`SiteCollector::collect_with`]: the per-chunk
/// accumulator arena and a pool of `f64` buffers for fold targets and
/// output series.
///
/// A cold `collect` allocates `4 × steps` doubles per node chunk plus
/// the output series; in a hot loop (the full-federation snapshot bench,
/// a day-sweep) that allocator traffic dominates. Holding one scratch
/// across calls — and feeding finished results back through
/// [`CollectScratch::recycle`] — makes the per-sample data path
/// allocation-free after warm-up: buffers are drawn from the pool,
/// zeroed, filled, and either returned or handed to the caller inside
/// the result (to come back at the next `recycle`).
#[derive(Debug, Default)]
pub struct CollectScratch {
    /// Per-chunk accumulator arena, grown to the largest chunk count
    /// seen and reused verbatim after that.
    chunks: Vec<ChunkAcc>,
    /// Recycled `f64` buffers for fold targets, series payloads and
    /// register readings.
    pool: Vec<Vec<f64>>,
}

impl CollectScratch {
    /// An empty scratch; buffers are grown on first use. Constructing
    /// one is only worth it if it is then threaded through
    /// [`SiteCollector::collect_with`] calls — hence `#[must_use]`.
    #[must_use = "a scratch only pays off when passed to collect_with"]
    pub fn new() -> Self {
        CollectScratch::default()
    }

    /// Runs `f` with **this thread's** persistent scratch arena — the
    /// per-worker ownership model fleet-scale federation sweeps use.
    ///
    /// When thousands of sites are sharded across the worker pool, a
    /// scratch per *call* would rebuild the chunk arena 10,000 times and
    /// a single shared scratch would serialise the workers; one arena
    /// per worker **thread** is the right granularity. Pool workers are
    /// persistent (see [`crate::par`]), so the arena warms up once per
    /// thread per process and every later site collect on that worker
    /// reuses it. Results are bit-identical to any other scratch
    /// provenance — buffers never influence arithmetic.
    ///
    /// Re-entrancy: `f` must not call `with_thread_local` again on the
    /// same thread (the arena is exclusively borrowed for the duration);
    /// doing so panics with a borrow error rather than corrupting state.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut CollectScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: std::cell::RefCell<CollectScratch> =
                std::cell::RefCell::new(CollectScratch::new());
        }
        SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
    }

    /// Reclaims a finished result's buffers into the pool, so the next
    /// [`SiteCollector::collect_with`] call can reuse them instead of
    /// allocating.
    ///
    /// This **consumes and dismantles** `result`: its truth series,
    /// per-method series and facility register readings are torn down
    /// into raw buffers that later collects will zero and overwrite —
    /// recycle a result only once nothing else needs it (clones taken
    /// from it earlier stay valid; they own their data). The call never
    /// touches the chunk-accumulator arena, which is always safe to
    /// reuse because each collect re-zeroes it.
    pub fn recycle(&mut self, result: SiteTelemetryResult) {
        let SiteTelemetryResult {
            truth,
            series,
            facility_register,
            ..
        } = result;
        self.pool.push(truth.into_watts());
        for (_, s) in series {
            self.pool.push(s.into_watts());
        }
        if let Some(readings) = facility_register {
            self.pool.push(readings);
        }
    }

    /// A zeroed buffer of `len` samples, drawn from the pool when one is
    /// available.
    fn take_zeroed(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// An empty buffer (capacity from the pool when available).
    fn take_empty(&mut self) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }
}

/// The collector: applies a [`SiteTelemetryConfig`] to a window.
#[derive(Clone, Debug)]
pub struct SiteCollector {
    config: SiteTelemetryConfig,
}

/// Per-method site-aggregate observations plus decoded facility readings.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteTelemetryResult {
    /// Site short code.
    pub site_code: String,
    /// Nodes swept.
    pub nodes: u32,
    /// Window covered.
    pub period: Period,
    /// True (instrument-free) site wall power, for validation.
    truth: PowerSeries,
    /// Observed site-aggregate power per available method.
    series: BTreeMap<MeterKind, PowerSeries>,
    /// Raw half-hourly facility register readings (kWh), when the site has
    /// a facility meter.
    pub facility_register: Option<Vec<f64>>,
    facility_energy: Option<Energy>,
}

impl SiteCollector {
    /// Wraps a site config.
    #[must_use = "a collector does nothing until one of its collect methods runs"]
    pub fn new(config: SiteTelemetryConfig) -> Self {
        assert!(
            !config.groups.is_empty(),
            "site {} has no node groups",
            config.site_code
        );
        assert!(
            (0.0..=1.0).contains(&config.ipmi_node_coverage),
            "ipmi coverage must lie in [0, 1]"
        );
        SiteCollector { config }
    }

    /// Read-only access to the config.
    pub fn config(&self) -> &SiteTelemetryConfig {
        &self.config
    }

    /// Sweeps the fleet over `period`, sampling every `config.sample_step`.
    /// Node chunks run on the shared worker pool ([`crate::par`]), and
    /// `workers` caps how many of its threads this call may use
    /// (1 = inline on the caller's thread).
    ///
    /// A window with no sample instants (zero/negative length — partial
    /// windows round up to one sample) or a fleet of zero nodes is a
    /// [`TelemetryError`], not a panic. For hot loops that collect
    /// repeatedly, [`SiteCollector::collect_with`] reuses buffers across
    /// calls; this convenience form allocates a fresh scratch each time
    /// and is bit-identical to it.
    pub fn collect(
        &self,
        period: Period,
        utilization: &dyn UtilizationSource,
        workers: usize,
    ) -> TelemetryResult<SiteTelemetryResult> {
        self.collect_with(period, utilization, workers, &mut CollectScratch::new())
    }

    /// [`SiteCollector::collect`] with caller-owned buffers: the
    /// per-chunk accumulator arena and the output buffers are drawn from
    /// `scratch` instead of the allocator. Feed finished results back
    /// through [`CollectScratch::recycle`] and the per-sample data path
    /// allocates nothing after the first call — the warm path the
    /// full-federation snapshot loop runs on. Results are bit-identical
    /// to [`SiteCollector::collect`] at every worker count: only buffer
    /// provenance changes, never arithmetic or fold order.
    pub fn collect_with(
        &self,
        period: Period,
        utilization: &dyn UtilizationSource,
        workers: usize,
        scratch: &mut CollectScratch,
    ) -> TelemetryResult<SiteTelemetryResult> {
        SiteCollector::collect_config(&self.config, period, utilization, workers, scratch)
    }

    /// One collect straight off a **borrowed** config — the plumbing hot
    /// federation loops run on (`IrisScenario` drives six sites per
    /// snapshot; cloning configs or constructing collectors per call is
    /// avoidable allocator traffic). Identical semantics to the methods
    /// above, except that [`SiteCollector::new`]'s constructor assertions
    /// are not re-run: an empty fleet still surfaces as the typed
    /// [`TelemetryError::NoNodes`], and out-of-range IPMI coverage is
    /// clamped to `[0, 1]` instead of trapping.
    pub fn collect_config(
        cfg: &SiteTelemetryConfig,
        period: Period,
        utilization: &dyn UtilizationSource,
        workers: usize,
        scratch: &mut CollectScratch,
    ) -> TelemetryResult<SiteTelemetryResult> {
        let (steps, nodes) = Self::validate_sweep(cfg, period)?;
        let passes = MeterPasses::for_config(cfg);
        let ipmi_limit = cfg.ipmi_reporting_nodes();

        // Each chunk accumulates watts sums per (method, step) into its
        // arena slot, reused (zeroed) from the previous collect call.
        let n_chunks = nodes.div_ceil(CHUNK_NODES);
        if scratch.chunks.len() < n_chunks {
            scratch.chunks.resize_with(n_chunks, ChunkAcc::default);
        }
        let chunk_slots = &mut scratch.chunks[..n_chunks];
        for acc in chunk_slots.iter_mut() {
            acc.reset(steps);
        }
        pool_fill_indexed(chunk_slots, workers, |chunk_idx, acc| {
            let lo = (chunk_idx * CHUNK_NODES) as u64;
            let hi = (((chunk_idx + 1) * CHUNK_NODES).min(nodes)) as u64;
            acc.lanes.prime(cfg, lo, hi, ipmi_limit);

            // Time-outer sweep over flat columns; the per-instant kernel
            // is shared with the stepped path (see `sweep_chunk_step`),
            // so results stay invariant under worker count and
            // batch-vs-stepped driving.
            for (s, t) in period.iter_steps(cfg.sample_step).enumerate() {
                sweep_chunk_step(acc, &passes, s, t, lo, utilization, StepFaults::clear());
            }
        });

        Ok(Self::assemble(cfg, period, steps, n_chunks, scratch))
    }

    /// Window/fleet validation shared by the batch and stepped paths:
    /// the sample-instant count and node count, or the typed refusal.
    fn validate_sweep(
        cfg: &SiteTelemetryConfig,
        period: Period,
    ) -> TelemetryResult<(usize, usize)> {
        let steps = period.step_count(cfg.sample_step);
        if steps == 0 {
            return Err(TelemetryError::EmptyWindow {
                site: cfg.site_code.clone(),
                window_secs: period.duration().as_secs(),
                step_secs: cfg.sample_step.as_secs(),
            });
        }
        let nodes = cfg.total_nodes() as usize;
        if nodes == 0 {
            return Err(TelemetryError::NoNodes {
                site: cfg.site_code.clone(),
            });
        }
        Ok((steps, nodes))
    }

    /// Folds the first `n_chunks` chunk accumulators of `scratch` into
    /// output series and decoded facility readings. Shared by the batch
    /// and stepped paths; both arrive here with identical accumulator
    /// contents, so everything downstream is identical too.
    fn assemble(
        cfg: &SiteTelemetryConfig,
        period: Period,
        steps: usize,
        n_chunks: usize,
        scratch: &mut CollectScratch,
    ) -> SiteTelemetryResult {
        let has = |k: MeterKind| cfg.methods.contains(&k);

        // Fold chunk partials in chunk order — the fixed bracketing that
        // keeps every worker count bit-identical (see `ChunkAcc`).
        let mut truth = scratch.take_zeroed(steps);
        let mut pdu = scratch.take_zeroed(steps);
        let mut ipmi = scratch.take_zeroed(steps);
        let mut turbo = scratch.take_zeroed(steps);
        for acc in scratch.chunks[..n_chunks].iter() {
            for s in 0..steps {
                truth[s] += acc.truth[s];
                pdu[s] += acc.pdu[s];
                ipmi[s] += acc.ipmi[s];
                turbo[s] += acc.turbo[s];
            }
        }

        let mut series = BTreeMap::new();
        let truth_series = PowerSeries::from_watts(period.start(), cfg.sample_step, truth);
        if has(MeterKind::Pdu) {
            let mut copy = scratch.take_empty();
            copy.extend_from_slice(&pdu);
            series.insert(
                MeterKind::Pdu,
                PowerSeries::from_watts(period.start(), cfg.sample_step, copy),
            );
        }
        if has(MeterKind::Ipmi) {
            series.insert(
                MeterKind::Ipmi,
                PowerSeries::from_watts(period.start(), cfg.sample_step, ipmi),
            );
        } else {
            scratch.pool.push(ipmi);
        }
        if has(MeterKind::Turbostat) {
            series.insert(
                MeterKind::Turbostat,
                PowerSeries::from_watts(period.start(), cfg.sample_step, turbo),
            );
        } else {
            scratch.pool.push(turbo);
        }

        // Facility meter: the PDU-level truth plus room overhead flows
        // through a cumulative register read each half hour.
        let (facility_register, facility_energy) = if has(MeterKind::Facility) {
            let mut fac_watts = scratch.take_empty();
            fac_watts.extend(pdu.iter().map(|w| w * (1.0 + cfg.facility_overhead_frac)));
            scratch.pool.push(pdu);
            let fac_series = PowerSeries::from_watts(period.start(), cfg.sample_step, fac_watts);
            let fac_err = PowerMeter::standard(MeterKind::Facility).error;
            let readings = Self::read_register(&fac_series, cfg, fac_err, scratch.take_empty());
            series.insert(MeterKind::Facility, fac_series);
            let energy = decode_register_readings(&readings, 1_000_000.0);
            (Some(readings), Some(energy))
        } else {
            scratch.pool.push(pdu);
            (None, None)
        };

        SiteTelemetryResult {
            site_code: cfg.site_code.clone(),
            nodes: cfg.total_nodes(),
            period,
            truth: truth_series,
            series,
            facility_register,
            facility_energy,
        }
    }

    /// Simulates half-hourly reads of the facility's cumulative register
    /// into `readings` (assumed empty; pooled by the caller).
    fn read_register(
        site_power: &PowerSeries,
        cfg: &SiteTelemetryConfig,
        err: MeterErrorModel,
        mut readings: Vec<f64>,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(splitmix64(cfg.seed ^ 0x0FAC_1117));
        let mut register = CumulativeRegister::new(137_911.0);
        let read_every = (SimDuration::SETTLEMENT_PERIOD.as_secs() / site_power.step().as_secs())
            .max(1) as usize;
        readings.push(register.display());
        for (i, &w) in site_power.watts().iter().enumerate() {
            // A gapped feed (NaN, from an upstream PDU outage) leaves the
            // register holding its last total — no energy accumulates
            // while the meter is dark, but the register stays readable.
            if !w.is_nan() {
                // Apply the meter's (tiny) gain/noise to the power before
                // it accumulates — a register integrates the instrument's
                // view.
                let observed = err
                    .observe(Power::from_watts(w), &mut rng)
                    .unwrap_or(Power::from_watts(w));
                register.accumulate(observed * site_power.step());
            }
            if (i + 1) % read_every == 0 {
                readings.push(register.display());
            }
        }
        readings
    }
}

/// A site sweep driven one sample instant at a time — the incremental
/// form of [`SiteCollector::collect`] for event-driven hosts (the
/// simulation engine's clocked collector component ticks one
/// [`SteppedCollector::advance`] per tick).
///
/// Bit-identity: a completed stepped sweep reproduces the batch
/// collector's output exactly. Both paths run the same per-(chunk,
/// instant) kernel; the batch path iterates instants inside each chunk,
/// this one iterates chunks inside each instant — per-chunk state
/// (lanes, per-node RNG streams, hold-last registers) is primed once
/// here just as a batch collect primes it once per chunk, and the final
/// fold is the same chunk-order bracketing. The property suite pins
/// this.
///
/// Unlike the batch path the utilisation source is passed per
/// [`SteppedCollector::advance`], so a host may sample a *live* signal
/// that changes between ticks — the feedback loops batch collection
/// cannot express.
#[derive(Debug)]
pub struct SteppedCollector {
    cfg: SiteTelemetryConfig,
    period: Period,
    steps: usize,
    n_chunks: usize,
    passes: MeterPasses,
    scratch: CollectScratch,
    cursor: usize,
    next_t: Timestamp,
}

impl SteppedCollector {
    /// Validates `cfg` over `period` and primes the sweep state. Refuses
    /// the same degenerate inputs as [`SiteCollector::collect`]
    /// ([`TelemetryError::EmptyWindow`], [`TelemetryError::NoNodes`]).
    pub fn new(cfg: SiteTelemetryConfig, period: Period) -> TelemetryResult<Self> {
        let (steps, nodes) = SiteCollector::validate_sweep(&cfg, period)?;
        let passes = MeterPasses::for_config(&cfg);
        let ipmi_limit = cfg.ipmi_reporting_nodes();
        let n_chunks = nodes.div_ceil(CHUNK_NODES);
        let mut scratch = CollectScratch::new();
        scratch.chunks.resize_with(n_chunks, ChunkAcc::default);
        for (chunk_idx, acc) in scratch.chunks.iter_mut().enumerate() {
            acc.reset(steps);
            let lo = (chunk_idx * CHUNK_NODES) as u64;
            let hi = (((chunk_idx + 1) * CHUNK_NODES).min(nodes)) as u64;
            acc.lanes.prime(&cfg, lo, hi, ipmi_limit);
        }
        Ok(SteppedCollector {
            next_t: period.start(),
            cfg,
            period,
            steps,
            n_chunks,
            passes,
            scratch,
            cursor: 0,
        })
    }

    /// The site config the sweep runs on.
    pub fn config(&self) -> &SiteTelemetryConfig {
        &self.cfg
    }

    /// The window being swept.
    pub fn period(&self) -> Period {
        self.period
    }

    /// The sample instant the next [`SteppedCollector::advance`] will
    /// sweep, `None` once the window is exhausted.
    pub fn next_instant(&self) -> Option<Timestamp> {
        (self.cursor < self.steps).then_some(self.next_t)
    }

    /// Sample instants not yet swept.
    pub fn remaining(&self) -> usize {
        self.steps - self.cursor
    }

    /// Whether every sample instant has been swept.
    pub fn is_complete(&self) -> bool {
        self.cursor == self.steps
    }

    /// Sweeps one sample instant across every chunk (ascending chunk
    /// order) against `utilization`'s view *at that instant*, and
    /// advances the cursor. Returns the instant swept, `None` once the
    /// window is exhausted.
    pub fn advance(&mut self, utilization: &dyn UtilizationSource) -> Option<Timestamp> {
        self.advance_faulted(utilization, StepFaults::clear())
    }

    /// [`SteppedCollector::advance`] under site-wide meter outages: the
    /// methods `faults` marks dark skip their observation pass for this
    /// instant (hold-last serves stale registers, gap leaves NaN). An
    /// all-clear `faults` is exactly [`SteppedCollector::advance`] — the
    /// fault-free sweep stays bit-identical to the batch path.
    pub fn advance_faulted(
        &mut self,
        utilization: &dyn UtilizationSource,
        faults: StepFaults,
    ) -> Option<Timestamp> {
        if self.cursor >= self.steps {
            return None;
        }
        let t = self.next_t;
        for (chunk_idx, acc) in self.scratch.chunks[..self.n_chunks].iter_mut().enumerate() {
            let lo = (chunk_idx * CHUNK_NODES) as u64;
            sweep_chunk_step(acc, &self.passes, self.cursor, t, lo, utilization, faults);
        }
        self.cursor += 1;
        self.next_t = t + self.cfg.sample_step;
        Some(t)
    }

    /// Folds the completed sweep into a [`SiteTelemetryResult`] —
    /// bit-identical to a batch [`SiteCollector::collect`] over the same
    /// config, window, and per-instant utilisation. Refuses an
    /// unfinished sweep with [`TelemetryError::IncompleteSweep`].
    pub fn finish(mut self) -> TelemetryResult<SiteTelemetryResult> {
        if self.cursor < self.steps {
            return Err(TelemetryError::IncompleteSweep {
                site: self.cfg.site_code.clone(),
                done: self.cursor,
                steps: self.steps,
            });
        }
        Ok(SiteCollector::assemble(
            &self.cfg,
            self.period,
            self.steps,
            self.n_chunks,
            &mut self.scratch,
        ))
    }
}

impl SiteTelemetryResult {
    /// Observed energy for `kind` over the window, `None` when the site
    /// lacks the method. Facility energy comes from register decoding;
    /// the others integrate their power series.
    pub fn energy(&self, kind: MeterKind) -> Option<Energy> {
        if kind == MeterKind::Facility {
            return self.facility_energy;
        }
        self.series
            .get(&kind)
            .map(|s| s.integrate(GapPolicy::HoldLast))
    }

    /// Observed site-aggregate power series for `kind`.
    pub fn series(&self, kind: MeterKind) -> Option<&PowerSeries> {
        self.series.get(&kind)
    }

    /// The instrument-free truth — total wall power of the fleet.
    pub fn true_wall_series(&self) -> &PowerSeries {
        &self.truth
    }

    /// True total wall energy.
    pub fn true_energy(&self) -> Energy {
        self.truth.integrate(GapPolicy::Zero)
    }

    /// Bit-level equality: every sample compared by its IEEE-754 bit
    /// pattern, so the NaN holes a gap-mode outage leaves compare equal
    /// to themselves. The derived `PartialEq` follows float semantics
    /// (`NaN != NaN`), which makes a gapped sweep unequal to its own
    /// clone — reproducibility pins on faulted sweeps must use this.
    pub fn bitwise_eq(&self, other: &SiteTelemetryResult) -> bool {
        fn bits<'a>(s: &'a PowerSeries) -> impl Iterator<Item = u64> + 'a {
            s.watts().iter().map(|w| w.to_bits())
        }
        self.site_code == other.site_code
            && self.nodes == other.nodes
            && self.period == other.period
            && self.truth.start() == other.truth.start()
            && self.truth.step() == other.truth.step()
            && bits(&self.truth).eq(bits(&other.truth))
            && self.series.len() == other.series.len()
            && self
                .series
                .iter()
                .zip(&other.series)
                .all(|((ka, sa), (kb, sb))| ka == kb && bits(sa).eq(bits(sb)))
            && match (&self.facility_register, &other.facility_register) {
                (Some(a), Some(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                }
                (None, None) => true,
                _ => false,
            }
            && self.facility_energy.map(|e| e.kilowatt_hours().to_bits())
                == other.facility_energy.map(|e| e.kilowatt_hours().to_bits())
    }

    /// The observed series for `kind` with its NaN gaps reconstructed
    /// under `policy` — the recovery step a downstream assessment runs
    /// after a gap-mode outage. `Ok(None)` when the site lacks the
    /// method; [`TelemetryError::UnrecoverableGap`] when the series
    /// holds no valid sample at all (the instrument was dark for the
    /// whole window — no policy has anything to anchor on).
    pub fn recovered_series(
        &self,
        kind: MeterKind,
        policy: GapPolicy,
    ) -> TelemetryResult<Option<PowerSeries>> {
        let Some(s) = self.series.get(&kind) else {
            return Ok(None);
        };
        if s.valid_fraction() == 0.0 {
            return Err(TelemetryError::UnrecoverableGap {
                site: self.site_code.clone(),
                method: kind,
            });
        }
        Ok(Some(s.fill_gaps(policy)))
    }

    /// Observed energy for `kind` with gaps reconstructed under
    /// `policy` — [`SiteTelemetryResult::recovered_series`] integrated.
    /// Same `Ok(None)` / [`TelemetryError::UnrecoverableGap`] contract.
    pub fn recovered_energy(
        &self,
        kind: MeterKind,
        policy: GapPolicy,
    ) -> TelemetryResult<Option<Energy>> {
        Ok(self
            .recovered_series(kind, policy)?
            .map(|s| s.integrate(policy)))
    }

    /// The paper's Table 2 convention for a site's headline energy: the
    /// most upstream available method (Facility, else PDU, else IPMI, else
    /// Turbostat).
    pub fn best_estimate(&self) -> Option<Energy> {
        for kind in [
            MeterKind::Facility,
            MeterKind::Pdu,
            MeterKind::Ipmi,
            MeterKind::Turbostat,
        ] {
            if let Some(e) = self.energy(kind) {
                return Some(e);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{FlatUtilization, SyntheticUtilization};
    use iriscast_units::Timestamp;

    fn small_config() -> SiteTelemetryConfig {
        let model = NodePowerModel::linear(Power::from_watts(100.0), Power::from_watts(500.0));
        let mut cfg = SiteTelemetryConfig::new(
            "TST",
            vec![NodeGroupTelemetry {
                label: "compute".into(),
                count: 20,
                power_model: model,
            }],
            42,
        );
        cfg.sample_step = SimDuration::from_secs(300);
        cfg
    }

    fn window() -> Period {
        Period::snapshot_24h()
    }

    #[test]
    fn truth_matches_analytic_energy_for_flat_load() {
        let collector = SiteCollector::new(small_config());
        let r = collector
            .collect(window(), &FlatUtilization(0.5), 2)
            .unwrap();
        // 20 nodes × 300 W × 24 h = 144 kWh.
        let truth = r.true_energy().kilowatt_hours();
        assert!((truth - 144.0).abs() < 1e-9, "truth {truth}");
    }

    #[test]
    fn parallel_equals_serial_exactly() {
        let collector = SiteCollector::new(small_config());
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let serial = collector.collect(window(), &util, 1).unwrap();
        for workers in [2, 4, 8] {
            let par = collector.collect(window(), &util, workers).unwrap();
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn method_ordering_matches_instrument_coverage() {
        let collector = SiteCollector::new(small_config());
        let util = SyntheticUtilization::calibrated(0.55, 3);
        let r = collector.collect(window(), &util, 4).unwrap();
        let pdu = r.energy(MeterKind::Pdu).unwrap().kilowatt_hours();
        let ipmi = r.energy(MeterKind::Ipmi).unwrap().kilowatt_hours();
        let turbo = r.energy(MeterKind::Turbostat).unwrap().kilowatt_hours();
        let fac = r.energy(MeterKind::Facility).unwrap().kilowatt_hours();
        // Turbostat < IPMI < PDU ≈ Facility — the paper's QMUL ordering.
        assert!(turbo < ipmi, "turbostat {turbo} !< ipmi {ipmi}");
        assert!(ipmi < pdu, "ipmi {ipmi} !< pdu {pdu}");
        assert!(
            (fac - pdu).abs() / pdu < 0.01,
            "facility {fac} vs pdu {pdu}"
        );
        // Magnitudes: ipmi/pdu ≈ 0.985, turbo/ipmi ≈ 0.949.
        assert!((ipmi / pdu - 0.985).abs() < 0.01);
        assert!((turbo / ipmi - 0.949).abs() < 0.015);
    }

    #[test]
    fn missing_methods_are_none() {
        let mut cfg = small_config();
        cfg.methods = vec![MeterKind::Ipmi];
        let collector = SiteCollector::new(cfg);
        let r = collector
            .collect(window(), &FlatUtilization(0.4), 2)
            .unwrap();
        assert!(r.energy(MeterKind::Facility).is_none());
        assert!(r.energy(MeterKind::Pdu).is_none());
        assert!(r.energy(MeterKind::Turbostat).is_none());
        assert!(r.energy(MeterKind::Ipmi).is_some());
        // Best estimate falls through to IPMI.
        assert_eq!(r.best_estimate(), r.energy(MeterKind::Ipmi));
    }

    #[test]
    fn ipmi_coverage_reduces_reported_energy() {
        let mut cfg = small_config();
        cfg.ipmi_node_coverage = 0.5;
        let collector = SiteCollector::new(cfg);
        let r = collector
            .collect(window(), &FlatUtilization(0.5), 2)
            .unwrap();
        let pdu = r.energy(MeterKind::Pdu).unwrap().kilowatt_hours();
        let ipmi = r.energy(MeterKind::Ipmi).unwrap().kilowatt_hours();
        let ratio = ipmi / pdu;
        // 50% of nodes × 98.5% gain ≈ 0.49.
        assert!((ratio - 0.4925).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn utilization_solver_calibrates_site_energy() {
        let cfg = small_config();
        // Target: 250 W per node mean → 20 × 250 × 24h = 120 kWh.
        let u = cfg.solve_utilization(Power::from_watts(250.0 * 20.0));
        let collector = SiteCollector::new(cfg);
        let r = collector.collect(window(), &FlatUtilization(u), 2).unwrap();
        let truth = r.true_energy().kilowatt_hours();
        assert!((truth - 120.0).abs() < 0.01, "calibrated truth {truth}");
    }

    #[test]
    fn solver_clamps_out_of_envelope_targets() {
        let cfg = small_config();
        assert_eq!(cfg.solve_utilization(Power::from_watts(0.0)), 0.0);
        assert_eq!(cfg.solve_utilization(Power::from_megawatts(1.0)), 1.0);
    }

    #[test]
    fn facility_register_is_monotone_mod_rollover() {
        let collector = SiteCollector::new(small_config());
        let r = collector
            .collect(window(), &FlatUtilization(0.5), 2)
            .unwrap();
        let readings = r.facility_register.as_ref().unwrap();
        assert_eq!(readings.len(), 49); // initial + 48 half-hours
        for w in readings.windows(2) {
            assert!(w[1] >= w[0], "register went backwards without rollover");
        }
        // Decoded facility energy tracks the truth within register
        // resolution + meter noise.
        let fac = r.energy(MeterKind::Facility).unwrap().kilowatt_hours();
        let truth = r.true_energy().kilowatt_hours();
        assert!((fac - truth).abs() < 2.0, "facility {fac} vs truth {truth}");
    }

    #[test]
    fn heterogeneous_groups_use_their_own_models() {
        let hot = NodePowerModel::linear(Power::from_watts(200.0), Power::from_watts(800.0));
        let cold = NodePowerModel::linear(Power::from_watts(50.0), Power::from_watts(100.0));
        let mut cfg = SiteTelemetryConfig::new(
            "HET",
            vec![
                NodeGroupTelemetry {
                    label: "hot".into(),
                    count: 1,
                    power_model: hot,
                },
                NodeGroupTelemetry {
                    label: "cold".into(),
                    count: 1,
                    power_model: cold,
                },
            ],
            1,
        );
        cfg.sample_step = SimDuration::from_secs(3_600);
        let collector = SiteCollector::new(cfg);
        let r = collector
            .collect(window(), &FlatUtilization(1.0), 1)
            .unwrap();
        // 800 + 100 = 900 W for 24 h = 21.6 kWh.
        assert!((r.true_energy().kilowatt_hours() - 21.6).abs() < 1e-9);
    }

    #[test]
    fn different_seeds_give_different_observations_same_truth() {
        let cfg_a = small_config();
        let mut cfg_b = small_config();
        cfg_b.seed = 43;
        let util = FlatUtilization(0.5);
        let a = SiteCollector::new(cfg_a)
            .collect(window(), &util, 2)
            .unwrap();
        let b = SiteCollector::new(cfg_b)
            .collect(window(), &util, 2)
            .unwrap();
        assert_eq!(a.true_energy(), b.true_energy());
        assert_ne!(
            a.series(MeterKind::Ipmi).unwrap().watts(),
            b.series(MeterKind::Ipmi).unwrap().watts()
        );
    }

    #[test]
    #[should_panic(expected = "no node groups")]
    fn empty_site_rejected() {
        let cfg = SiteTelemetryConfig::new("EMPTY", vec![], 0);
        let _ = SiteCollector::new(cfg);
    }

    #[test]
    fn empty_window_is_a_typed_error_not_a_panic() {
        let collector = SiteCollector::new(small_config());
        // A zero-length window yields zero sample instants (partial
        // windows round up to one sample, so they still collect).
        let empty = Period::starting_at(Timestamp::EPOCH, SimDuration::ZERO);
        let err = collector
            .collect(empty, &FlatUtilization(0.5), 2)
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::TelemetryError::EmptyWindow {
                site: "TST".into(),
                window_secs: 0,
                step_secs: 300,
            }
        );
        assert!(err.to_string().contains("TST"));
    }

    #[test]
    fn zero_node_fleet_is_a_typed_error_not_a_panic() {
        // Groups exist but hold zero monitored nodes — constructible, so
        // it must surface as a value, not an assert.
        let mut cfg = small_config();
        cfg.groups[0].count = 0;
        let collector = SiteCollector::new(cfg);
        let err = collector
            .collect(window(), &FlatUtilization(0.5), 2)
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::TelemetryError::NoNodes { site: "TST".into() }
        );
    }

    #[test]
    fn scratch_arena_collect_is_bit_identical_to_fresh_collect() {
        // The warm path (reused chunk arena + recycled buffers) must
        // reproduce the cold path exactly, at serial and high worker
        // counts, across repeated collects.
        let collector = SiteCollector::new(small_config());
        let util = SyntheticUtilization::calibrated(0.6, 9);
        for workers in [1usize, 16] {
            let fresh = collector.collect(window(), &util, workers).unwrap();
            let mut scratch = CollectScratch::new();
            let cold = collector
                .collect_with(window(), &util, workers, &mut scratch)
                .unwrap();
            assert_eq!(cold, fresh, "cold scratch, workers = {workers}");
            // Recycle and run warm several times: buffers now come from
            // the pool, results must not drift.
            scratch.recycle(cold);
            for round in 0..3 {
                let warm = collector
                    .collect_with(window(), &util, workers, &mut scratch)
                    .unwrap();
                assert_eq!(warm, fresh, "round {round}, workers = {workers}");
                scratch.recycle(warm);
            }
        }
    }

    #[test]
    fn one_scratch_serves_differently_shaped_sites() {
        // A federation loop drives many sites through one scratch; a
        // bigger site after a smaller one must regrow cleanly and still
        // match its fresh-collect result.
        let mut scratch = CollectScratch::new();
        let util = FlatUtilization(0.5);
        for nodes in [20u32, 7, 200] {
            let mut cfg = small_config();
            cfg.groups[0].count = nodes;
            let collector = SiteCollector::new(cfg);
            let fresh = collector.collect(window(), &util, 4).unwrap();
            let warm = collector
                .collect_with(window(), &util, 4, &mut scratch)
                .unwrap();
            assert_eq!(warm, fresh, "{nodes} nodes");
            scratch.recycle(warm);
        }
    }

    #[test]
    fn stepped_sweep_is_bit_identical_to_batch_collect() {
        // Same config, window, and utilisation: advancing one instant at
        // a time must reproduce the batch collector exactly, including
        // the noisy instrument series (per-node RNG streams advance in
        // the same draw order either way). Heterogeneous groups + partial
        // IPMI coverage + >1 chunk to exercise every lane.
        let mut cfg = small_config();
        cfg.groups.push(NodeGroupTelemetry {
            label: "gpu".into(),
            count: 70, // spills into a second 64-node chunk
            power_model: NodePowerModel::linear(Power::from_watts(250.0), Power::from_watts(900.0)),
        });
        cfg.ipmi_node_coverage = 0.7;
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let batch = SiteCollector::new(cfg.clone())
            .collect(window(), &util, 4)
            .unwrap();
        let mut stepped = SteppedCollector::new(cfg, window()).unwrap();
        assert_eq!(stepped.remaining(), 288);
        while stepped.advance(&util).is_some() {}
        assert!(stepped.is_complete());
        assert_eq!(stepped.next_instant(), None);
        let r = stepped.finish().unwrap();
        assert_eq!(r, batch);
    }

    #[test]
    fn stepped_sweep_instants_match_batch_sampling_grid() {
        let cfg = small_config();
        let mut stepped = SteppedCollector::new(cfg.clone(), window()).unwrap();
        let util = FlatUtilization(0.5);
        let mut instants = Vec::new();
        while let Some(t) = stepped.advance(&util) {
            instants.push(t);
        }
        let grid: Vec<_> = window().iter_steps(cfg.sample_step).collect();
        assert_eq!(instants, grid);
    }

    #[test]
    fn unfinished_stepped_sweep_is_a_typed_error() {
        let mut stepped = SteppedCollector::new(small_config(), window()).unwrap();
        stepped.advance(&FlatUtilization(0.5));
        let err = stepped.finish().unwrap_err();
        assert_eq!(
            err,
            TelemetryError::IncompleteSweep {
                site: "TST".into(),
                done: 1,
                steps: 288,
            }
        );
        assert!(err.to_string().contains("1 of 288"));
    }

    #[test]
    fn stepped_collector_refuses_degenerate_inputs() {
        let empty = Period::starting_at(Timestamp::EPOCH, SimDuration::ZERO);
        assert!(matches!(
            SteppedCollector::new(small_config(), empty),
            Err(TelemetryError::EmptyWindow { .. })
        ));
        let mut cfg = small_config();
        cfg.groups[0].count = 0;
        assert!(matches!(
            SteppedCollector::new(cfg, window()),
            Err(TelemetryError::NoNodes { .. })
        ));
    }

    #[test]
    fn result_period_and_counts() {
        let collector = SiteCollector::new(small_config());
        let r = collector
            .collect(window(), &FlatUtilization(0.3), 2)
            .unwrap();
        assert_eq!(r.nodes, 20);
        assert_eq!(r.period.start(), Timestamp::EPOCH);
        assert_eq!(r.site_code, "TST");
        assert_eq!(r.true_wall_series().len(), 288);
    }

    /// Drives a full stepped sweep where `outage` decides the faults in
    /// force at each instant.
    fn sweep_with_faults(
        cfg: SiteTelemetryConfig,
        util: &dyn UtilizationSource,
        outage: impl Fn(Timestamp) -> StepFaults,
    ) -> SiteTelemetryResult {
        let mut stepped = SteppedCollector::new(cfg, window()).unwrap();
        while let Some(t) = stepped.next_instant() {
            stepped.advance_faulted(util, outage(t));
        }
        stepped.finish().unwrap()
    }

    /// An outage over hours 6–12 of the 24 h window.
    fn midday_outage(method: MeterKind, mode: DropoutMode) -> impl Fn(Timestamp) -> StepFaults {
        move |t| {
            if t >= Timestamp::from_hours(6.0) && t < Timestamp::from_hours(12.0) {
                StepFaults::clear().with(method, mode)
            } else {
                StepFaults::clear()
            }
        }
    }

    #[test]
    fn all_clear_faulted_sweep_is_bit_identical_to_batch() {
        let cfg = small_config();
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let batch = SiteCollector::new(cfg.clone())
            .collect(window(), &util, 4)
            .unwrap();
        let faulted = sweep_with_faults(cfg, &util, |_| StepFaults::clear());
        assert_eq!(faulted, batch);
    }

    #[test]
    fn truth_is_unaffected_by_any_outage() {
        // The truth pass is physics, not instrumentation: faulting every
        // injectable method leaves it bit-identical to the clean run.
        let cfg = small_config();
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let clean = SiteCollector::new(cfg.clone())
            .collect(window(), &util, 1)
            .unwrap();
        let faulted = sweep_with_faults(cfg, &util, |_| {
            StepFaults::clear()
                .with(MeterKind::Pdu, DropoutMode::Gap)
                .with(MeterKind::Ipmi, DropoutMode::HoldLast)
                .with(MeterKind::Turbostat, DropoutMode::Gap)
        });
        assert_eq!(faulted.true_wall_series(), clean.true_wall_series());
    }

    #[test]
    fn hold_last_outage_serves_stale_readings_and_draws_no_rng() {
        let cfg = small_config();
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let r = sweep_with_faults(
            cfg,
            &util,
            midday_outage(MeterKind::Pdu, DropoutMode::HoldLast),
        );
        let pdu = r.series(MeterKind::Pdu).unwrap();
        // During the outage every sample repeats the same stale sum: the
        // held registers never update while the meter is dark.
        let grid: Vec<_> = window().iter_steps(SimDuration::from_secs(300)).collect();
        let dark: Vec<f64> = grid
            .iter()
            .zip(pdu.watts())
            .filter(|(t, _)| **t >= Timestamp::from_hours(6.0) && **t < Timestamp::from_hours(12.0))
            .map(|(_, &w)| w)
            .collect();
        assert!(!dark.is_empty());
        assert!(
            dark.iter().all(|&w| w == dark[0]),
            "hold-last outage must freeze the aggregate"
        );
        // No gaps anywhere: hold-last outages are invisible in coverage.
        assert_eq!(pdu.valid_fraction(), 1.0);
        // The truth pass never touches the instrument RNG streams.
        let clean = SiteCollector::new(small_config())
            .collect(window(), &util, 1)
            .unwrap();
        assert_eq!(r.true_wall_series(), clean.true_wall_series());
    }

    #[test]
    fn gap_outage_leaves_nan_exactly_inside_the_outage() {
        let cfg = small_config();
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let r = sweep_with_faults(cfg, &util, midday_outage(MeterKind::Ipmi, DropoutMode::Gap));
        let ipmi = r.series(MeterKind::Ipmi).unwrap();
        for (t, &w) in window()
            .iter_steps(SimDuration::from_secs(300))
            .zip(ipmi.watts())
        {
            let in_outage = t >= Timestamp::from_hours(6.0) && t < Timestamp::from_hours(12.0);
            assert_eq!(w.is_nan(), in_outage, "at {t:?}");
        }
        // 6 of 24 hours dark → 75% valid.
        assert!((ipmi.valid_fraction() - 0.75).abs() < 1e-12);
        // Recovery under a policy fills the gap and integrates.
        let filled = r
            .recovered_series(MeterKind::Ipmi, GapPolicy::HoldLast)
            .unwrap()
            .unwrap();
        assert_eq!(filled.valid_fraction(), 1.0);
        let e = r
            .recovered_energy(MeterKind::Ipmi, GapPolicy::Interpolate)
            .unwrap()
            .unwrap();
        assert!(e.kilowatt_hours() > 0.0);
    }

    #[test]
    fn gapped_sweeps_compare_bitwise_not_by_float_equality() {
        let cfg = small_config();
        let util = SyntheticUtilization::calibrated(0.6, 9);
        let r = sweep_with_faults(
            cfg.clone(),
            &util,
            midday_outage(MeterKind::Ipmi, DropoutMode::Gap),
        );
        // Float equality disqualifies a gapped sweep from equalling its
        // own clone (NaN != NaN) — bitwise_eq is the reproducibility pin.
        assert!(r != r.clone());
        assert!(r.bitwise_eq(&r.clone()));
        // And it still distinguishes genuinely different sweeps.
        let clean = sweep_with_faults(cfg, &util, |_| StepFaults::clear());
        assert!(!r.bitwise_eq(&clean));
    }

    #[test]
    fn whole_window_gap_is_an_unrecoverable_typed_error() {
        let cfg = small_config();
        let util = FlatUtilization(0.5);
        let r = sweep_with_faults(cfg, &util, |_| {
            StepFaults::clear().with(MeterKind::Turbostat, DropoutMode::Gap)
        });
        let err = r
            .recovered_series(MeterKind::Turbostat, GapPolicy::HoldLast)
            .unwrap_err();
        assert_eq!(
            err,
            TelemetryError::UnrecoverableGap {
                site: "TST".into(),
                method: MeterKind::Turbostat,
            }
        );
        assert!(err.to_string().contains("Turbostat"));
        assert_eq!(
            r.recovered_energy(MeterKind::Turbostat, GapPolicy::Zero)
                .unwrap_err(),
            err
        );
        // Methods the site lacks are None, not an error.
        let mut cfg = small_config();
        cfg.methods = vec![MeterKind::Pdu];
        let r = SiteCollector::new(cfg).collect(window(), &util, 1).unwrap();
        assert_eq!(
            r.recovered_series(MeterKind::Ipmi, GapPolicy::HoldLast)
                .unwrap(),
            None
        );
    }

    #[test]
    fn gapped_pdu_feed_holds_the_facility_register() {
        let mut cfg = small_config();
        cfg.facility_overhead_frac = 0.05;
        let util = FlatUtilization(0.5);
        let r = sweep_with_faults(cfg, &util, midday_outage(MeterKind::Pdu, DropoutMode::Gap));
        // The facility series inherits the gap (it derives from the PDU
        // aggregate)...
        let fac = r.series(MeterKind::Facility).unwrap();
        assert!(fac.valid_fraction() < 1.0);
        // ...but the register stays readable and monotone: it simply
        // holds while the feed is dark, so no reading is ever NaN.
        let readings = r.facility_register.as_ref().unwrap();
        assert_eq!(readings.len(), 49);
        assert!(readings.iter().all(|v| !v.is_nan()));
        for w in readings.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Six dark hours of 24 → roughly a quarter of the energy missing.
        let clean = {
            let mut cfg = small_config();
            cfg.facility_overhead_frac = 0.05;
            SiteCollector::new(cfg).collect(window(), &util, 1).unwrap()
        };
        let lost = r.energy(MeterKind::Facility).unwrap().kilowatt_hours()
            / clean.energy(MeterKind::Facility).unwrap().kilowatt_hours();
        assert!((lost - 0.75).abs() < 0.01, "register kept {lost} of clean");
    }

    #[test]
    #[should_panic(expected = "derive from the PDU aggregate")]
    fn facility_faults_are_refused() {
        let _ = StepFaults::clear().with(MeterKind::Facility, DropoutMode::Gap);
    }

    #[test]
    fn step_faults_accessors() {
        let f = StepFaults::clear();
        assert!(f.is_clear());
        let f = f.with(MeterKind::Pdu, DropoutMode::HoldLast);
        assert!(!f.is_clear());
        assert_eq!(f.get(MeterKind::Pdu), Some(DropoutMode::HoldLast));
        assert_eq!(f.get(MeterKind::Ipmi), None);
        assert_eq!(f.get(MeterKind::Facility), None);
        let mut f = f;
        f.set(MeterKind::Pdu, None);
        assert!(f.is_clear());
    }
}
