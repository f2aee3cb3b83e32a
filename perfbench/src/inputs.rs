//! Seeded input generation. Every workload's inputs are a pure
//! function of `--seed`: the same seed gives identical inputs, and a
//! different seed gives different values with the same operation
//! counts. The program under test receives only these inputs.

use iriscast_serve::{SiteModel, SnapshotRecord};

/// SplitMix64: small, fast, and fixed forever, so inputs never depend
/// on a library's generator.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-purpose `stream` tag.
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` sorted distinct-ish samples in `[lo, hi)`.
fn sorted_samples(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.range(lo, hi)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Snapshot window length used by the serve workloads: six hours.
const WINDOW_S: i64 = 21_600;

/// A seeded site model with the paper's 3 × 3 × 3 × 3 template shape.
fn site_model(rng: &mut Rng) -> SiteModel {
    SiteModel {
        servers: 500 + rng.index(2_500) as u32,
        ci_grams_per_kwh: sorted_samples(rng, 3, 30.0, 320.0),
        pue_values: sorted_samples(rng, 3, 1.05, 1.7),
        embodied_kg: sorted_samples(rng, 3, 350.0, 1_400.0),
        lifespans_years: vec![3, 5, 7],
    }
}

/// One site's snapshot at `seq`, with a seeded energy draw.
fn record(site: &str, seq: u64, rng: &mut Rng) -> SnapshotRecord {
    SnapshotRecord {
        site: site.to_string(),
        seq,
        window_start_s: seq as i64 * WINDOW_S,
        window_end_s: (seq as i64 + 1) * WINDOW_S,
        energy_kwh: rng.range(2_000.0, 9_000.0),
    }
}

/// Site names `S0..S{n-1}`.
fn site_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("S{i}")).collect()
}

/// Inputs of `snapshot_day`: the scenario seeds and the axes of the
/// time-resolved assessment built from the collected day.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotDayInputs {
    /// Seed of the calibrated IRIS scenario (meters, utilisation).
    pub scenario_seed: u64,
    /// Seed of the November grid month.
    pub grid_seed: u64,
    /// Telemetry sampling step, seconds.
    pub sample_step_s: i64,
    /// Grid days used as the carbon-intensity axis of the assessment.
    pub ci_days: usize,
    /// PUE samples of the evaluated (materialised) space.
    pub pue: Vec<f64>,
    /// Embodied and lifespan sample counts of the evaluated space.
    pub side: usize,
    /// PUE samples of the refined (streamed) space.
    pub refined_pue: Vec<f64>,
    /// Embodied and lifespan sample counts of the refined space.
    pub refined_side: usize,
    /// Quantiles asked of the evaluated space.
    pub quantiles: Vec<f64>,
}

impl SnapshotDayInputs {
    /// Points in the evaluated space.
    pub fn points(&self) -> usize {
        self.ci_days * self.pue.len() * self.side * self.side
    }

    /// Points in the refined, streamed space.
    pub fn refined_points(&self) -> usize {
        self.ci_days * self.refined_pue.len() * self.refined_side * self.refined_side
    }
}

/// Builds the `snapshot_day` inputs for `seed`.
pub fn snapshot_day(seed: u64) -> SnapshotDayInputs {
    let mut rng = Rng::new(seed, 1);
    SnapshotDayInputs {
        scenario_seed: rng.next_u64() % 1_000_000,
        grid_seed: rng.next_u64() % 1_000_000,
        sample_step_s: 300,
        ci_days: 30,
        pue: sorted_samples(&mut rng, 12, 1.05, 1.7),
        side: 12,
        refined_pue: sorted_samples(&mut rng, 48, 1.05, 1.7),
        refined_side: 48,
        quantiles: vec![0.05, 0.5, 0.95],
    }
}

/// One operation of the `live_wire` closed loop.
#[derive(Clone, Debug, PartialEq)]
pub enum WireOp {
    /// Ingest the site's next snapshot.
    Ingest(SnapshotRecord),
    /// Warm percentile query.
    Percentile { site: String, q: f64 },
    /// Warm envelope query.
    Envelope { site: String },
    /// Warm tenant-share query.
    TenantShare { site: String, tenant: String },
}

/// Inputs of `live_wire`: site models, tenants, the preloaded history,
/// and the generator of each round's op stream.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveWireInputs {
    /// The seed the op streams derive from.
    pub seed: u64,
    /// Site names and models.
    pub sites: Vec<(String, SiteModel)>,
    /// Per site: `(tenant, weight)`.
    pub tenants: Vec<Vec<(String, f64)>>,
    /// Preloaded history, every site interleaved, seq order per site.
    pub history: Vec<SnapshotRecord>,
    /// Windows of history per site.
    pub history_windows: u64,
    /// Ops per round; each round runs on a freshly preloaded service.
    pub ops_per_round: usize,
    /// A federation sweep runs after every this many ops.
    pub sweep_every: usize,
}

/// Builds the `live_wire` inputs for `seed`.
pub fn live_wire(seed: u64) -> LiveWireInputs {
    let mut rng = Rng::new(seed, 2);
    let names = site_names(4);
    let sites: Vec<(String, SiteModel)> = names
        .iter()
        .map(|n| (n.clone(), site_model(&mut rng)))
        .collect();
    let tenants = names
        .iter()
        .map(|_| {
            (0..3)
                .map(|t| (format!("T{t}"), rng.range(1.0, 10.0)))
                .collect()
        })
        .collect();
    let history_windows = 16;
    let mut history = Vec::new();
    for seq in 0..history_windows {
        for n in &names {
            history.push(record(n, seq, &mut rng));
        }
    }
    LiveWireInputs {
        seed,
        sites,
        tenants,
        history,
        history_windows,
        ops_per_round: 1_000,
        sweep_every: 200,
    }
}

impl LiveWireInputs {
    /// The op stream of round `round`: half ingests of each site's
    /// next seq, half warm queries on uniformly drawn sites, split
    /// equally between `percentile`, `envelope` and `tenant_share`.
    /// The halves give the ingest and query medians the same number of
    /// samples a run.
    pub fn round_ops(&self, round: u64) -> Vec<WireOp> {
        let mut rng = Rng::new(self.seed, 1_000 + round);
        let mut next_seq = vec![self.history_windows; self.sites.len()];
        (0..self.ops_per_round)
            .map(|_| {
                let s = rng.index(self.sites.len());
                let site = self.sites[s].0.clone();
                match rng.index(6) {
                    0..=2 => {
                        let r = record(&site, next_seq[s], &mut rng);
                        next_seq[s] += 1;
                        WireOp::Ingest(r)
                    }
                    3 => WireOp::Percentile {
                        site,
                        q: rng.unit(),
                    },
                    4 => WireOp::Envelope { site },
                    _ => {
                        let t = rng.index(self.tenants[s].len());
                        WireOp::TenantShare {
                            site,
                            tenant: self.tenants[s][t].0.clone(),
                        }
                    }
                }
            })
            .collect()
    }
}

/// Inputs of `backfill`: site models, a long history per site, and
/// the retention window.
#[derive(Clone, Debug, PartialEq)]
pub struct BackfillInputs {
    /// Site names and models.
    pub sites: Vec<(String, SiteModel)>,
    /// Every site's history, interleaved round-robin, seq order per
    /// site.
    pub records: Vec<SnapshotRecord>,
    /// Windows of history per site.
    pub windows_per_site: u64,
    /// Retention bound, windows per site.
    pub retain: usize,
}

/// Builds the `backfill` inputs for `seed`.
pub fn backfill(seed: u64) -> BackfillInputs {
    let mut rng = Rng::new(seed, 3);
    let names = site_names(4);
    let sites: Vec<(String, SiteModel)> = names
        .iter()
        .map(|n| (n.clone(), site_model(&mut rng)))
        .collect();
    let windows_per_site = 2_400;
    let mut records = Vec::new();
    for seq in 0..windows_per_site {
        for n in &names {
            records.push(record(n, seq, &mut rng));
        }
    }
    BackfillInputs {
        sites,
        records,
        windows_per_site,
        retain: 400,
    }
}

/// One site of `cosim_week`.
#[derive(Clone, Debug, PartialEq)]
pub struct CosimSite {
    /// Cluster size in nodes.
    pub nodes: u32,
    /// Seed of the site's meters.
    pub meter_seed: u64,
    /// Meter outages as `(start_h, end_h)` windows from the week's
    /// start, PDU gap then IPMI hold-last; empty for a healthy site.
    pub outages_h: Vec<(f64, f64)>,
}

/// One simulated week of `cosim_week`: where it falls in the grid
/// month, and each site's job-stream seed.
#[derive(Clone, Debug, PartialEq)]
pub struct CosimVariant {
    /// First day of the week within the month.
    pub first_day: i64,
    /// Per site: the seed of its `batch_hpc` job stream.
    pub job_seeds: Vec<u64>,
}

/// Inputs of `cosim_week`. A run cycles through several weeks, so its
/// median covers more than one draw of the heavy-tailed job streams.
#[derive(Clone, Debug, PartialEq)]
pub struct CosimWeekInputs {
    /// Seed of the November grid month the weeks are cut from.
    pub grid_seed: u64,
    /// The fleet.
    pub sites: Vec<CosimSite>,
    /// The weeks a run cycles through.
    pub variants: Vec<CosimVariant>,
    /// Curtailment trips above this quantile of the week's intensity.
    pub threshold_quantile: f64,
    /// Capacity fraction ordered while curtailed.
    pub level: f64,
}

/// Builds the `cosim_week` inputs for `seed`.
pub fn cosim_week(seed: u64) -> CosimWeekInputs {
    let mut rng = Rng::new(seed, 4);
    let sites: Vec<CosimSite> = (0..4)
        .map(|i| {
            let outages_h = if i % 2 == 0 {
                let a = rng.range(6.0, 60.0);
                let b = rng.range(80.0, 140.0);
                vec![(a, a + 6.0), (b, b + 12.0)]
            } else {
                Vec::new()
            };
            CosimSite {
                nodes: 64,
                meter_seed: rng.next_u64() % 1_000_000,
                outages_h,
            }
        })
        .collect();
    let variants = (0..16)
        .map(|_| CosimVariant {
            first_day: rng.index(23) as i64,
            job_seeds: sites.iter().map(|_| rng.next_u64() % 1_000_000).collect(),
        })
        .collect();
    CosimWeekInputs {
        grid_seed: rng.next_u64() % 1_000_000,
        sites,
        variants,
        threshold_quantile: 0.75,
        level: 0.25,
    }
}
