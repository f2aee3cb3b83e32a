//! The iriscast end-to-end benchmark: four seeded workloads over the
//! assessment pipeline, an untraced run for the end-to-end metrics and
//! a traced run for the per-layer ones. See `README.md` beside this
//! crate for why each workload exists and what each metric should
//! move.

pub mod inputs;
pub mod stats;
pub mod trace;
pub mod workloads;

use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;

/// Settings of one run, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Each run sets up at least this many times, and for at least
/// [`SETUP_SECONDS`], before it measures; `setup_s` is the median. One
/// set-up lasts a fraction of a second, shorter than the host's slow
/// spells. The repeats all come before the measured iterations:
/// interleaved with them, they fragment `cosim_week`'s heap and slow
/// its weeks by 10–15%.
pub const SETUP_REPEATS: usize = 5;

/// The least time a run spends repeating its set-up.
pub const SETUP_SECONDS: f64 = 2.0;

/// Threads and loopback connections a workload used. Threads and
/// connections are sampled from `/proc` between operations; compute
/// workers are the counts the workload passes to the program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Budget {
    /// Peak OS threads of the process.
    pub threads: usize,
    /// Peak socket threads of the service (named `iriscast-serve-*`):
    /// its accept loop and one thread per open connection. Each blocks
    /// on its socket and runs only while a frame is in.
    pub service_threads: usize,
    /// Peak persistent workers of the collect pool (named
    /// `iriscast-pool-*`), spawned by the first call given more than
    /// one worker. They sleep between calls, and a call wakes at most
    /// as many as it was given workers.
    pub pool_threads: usize,
    /// Peak threads driving the load or the compute: the threads that
    /// are neither the service's nor the pool's, or the most workers
    /// one call was given.
    pub load_threads: usize,
    /// Peak connections open to the workload's server.
    pub connections: usize,
}

/// Thread-name prefixes of the service's socket threads and the
/// collect pool's workers, as `comm` shows them (15 bytes at most).
const SERVICE_THREAD: &str = "iriscast-serve";
const POOL_THREAD: &str = "iriscast-pool";

impl Budget {
    /// Samples the process's threads and, with a server listening on
    /// `server_port`, the loopback connections open to it.
    pub fn sample(&mut self, server_port: Option<u16>) {
        let (mut threads, mut service, mut pool) = (0, 0, 0);
        for task in std::fs::read_dir("/proc/self/task").into_iter().flatten() {
            let Ok(comm) = task.and_then(|t| std::fs::read_to_string(t.path().join("comm"))) else {
                continue; // the thread ended while being listed
            };
            threads += 1;
            if comm.starts_with(SERVICE_THREAD) {
                service += 1;
            } else if comm.starts_with(POOL_THREAD) {
                pool += 1;
            }
        }
        self.threads = self.threads.max(threads);
        self.service_threads = self.service_threads.max(service);
        self.pool_threads = self.pool_threads.max(pool);
        self.load_threads = self.load_threads.max(threads - service - pool);
        let connections = server_port.map_or(0, open_connections);
        self.connections = self.connections.max(connections);
    }

    /// Notes a call that runs `n` compute workers.
    pub fn workers(&mut self, n: usize) {
        self.load_threads = self.load_threads.max(n);
    }

    /// Whether the load threads and the connections fit in `nproc`.
    pub fn within(&self, nproc: usize) -> bool {
        self.load_threads <= nproc && self.connections <= nproc
    }
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on. Returns whether it did.
pub fn pin_to_one_cpu() -> bool {
    // `cpu_set_t` from glibc: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `size` bytes of `mask`,
    // and pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; WORDS];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

/// Server-side TCP sockets on `port` that are established or closing
/// (`/proc/net/tcp` states 01 and 08): one per open connection.
fn open_connections(port: u16) -> usize {
    let local = format!(":{port:04X}");
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .map(|p| {
            let table = std::fs::read_to_string(p).unwrap_or_default();
            table
                .lines()
                .skip(1)
                .filter(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    f.len() > 3 && f[1].ends_with(&local) && (f[3] == "01" || f[3] == "08")
                })
                .count()
        })
        .sum()
}

/// What a workload measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed verification.
    pub failed: u64,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// The host probe timed just before each set-up, ns.
    pub setup_probe_ns: Vec<f64>,
    /// The workload's primary figure (`primary_ms`), ms.
    pub primary_ms: f64,
    /// The workload's secondary figure (`secondary_ms`), ms.
    pub secondary_ms: f64,
    /// The workload's own end-to-end figures under their descriptive
    /// names (`day_ms`, `ingest_p50_ms`, …): `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics this workload measured (traced run).
    pub layers: Vec<(&'static str, f64)>,
    /// Main-path wall time of the untraced iterations of a traced run.
    pub untraced_main_ns: Vec<f64>,
    /// Main-path wall time of the traced iterations of a traced run.
    pub traced_main_ns: Vec<f64>,
    /// Threads and connections the run used.
    pub budget: Budget,
    /// Host probe times, ns.
    pub probe_ns: Vec<f64>,
}

impl Outcome {
    /// Counts one verified (`ok`) or failed operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Every per-layer metric: `(name, unit, better)`. A traced run prints
/// all of them; a layer that does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("telemetry.collect_ms", "ms", "lower"),
    ("telemetry.collect_2w_ms", "ms", "lower"),
    ("telemetry.ns_per_node_sample", "ns", "lower"),
    ("grid.simulate_ms", "ms", "lower"),
    ("time_resolved.build_ms", "ms", "lower"),
    ("engine.evaluate_ms", "ms", "lower"),
    ("engine.stream_ns_per_point", "ns", "lower"),
    ("stats_view.query_ms", "ms", "lower"),
    ("stats_view.fold_us", "us", "lower"),
    ("stats_view.retract_us", "us", "lower"),
    ("stats_view.cold_sort_ms", "ms", "lower"),
    ("service.evaluate_us", "us", "lower"),
    ("service.ingest_us", "us", "lower"),
    ("service.folded", "count", "higher"),
    ("service.rows", "count", "lower"),
    ("service.evicted", "count", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.serve_ndjson_us", "us", "lower"),
    ("transport.ingest_overhead_us", "us", "lower"),
    ("transport.query_overhead_us", "us", "lower"),
    ("transport.ingest_p99_ms", "ms", "lower"),
    ("transport.query_p99_ms", "ms", "lower"),
    ("transport.frames", "count", "higher"),
    ("transport.rejected", "count", "lower"),
    ("federator.sweep_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("workload.generate_ms", "ms", "lower"),
    ("workload.jobs", "count", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// The most `trace.unaccounted_share` may read before a traced run
/// fails its check: the stage times must sum to the wall time.
pub const MAX_UNACCOUNTED: f64 = 0.10;

/// The quantile of a run's samples that the latency slots report. The
/// host alternates between a fast and a slow state every few seconds;
/// a run's median reads the share of the run the host spent slow,
/// while its 5th percentile reads the fast state, which every run
/// visits. See the noise notes in `README.md`.
pub const FAST_QUANTILE: f64 = 0.05;

/// [`FAST_QUANTILE`] of `samples`.
pub fn fast(samples: &[f64]) -> f64 {
    stats::quantile(samples, FAST_QUANTILE)
}

/// [`FAST_QUANTILE`] of each group of samples, averaged. For a figure
/// that pools operations of different cost: a pooled quantile would
/// fall to the cheapest group.
pub fn fast_per_group(groups: &[Vec<f64>]) -> f64 {
    groups.iter().map(|g| fast(g)).sum::<f64>() / groups.len() as f64
}

/// Median of a traced span's durations, in `unit_ns` nanoseconds
/// (1e6 for ms, 1e3 for µs).
pub fn span_median(tracer: &Tracer, name: &str, unit_ns: f64) -> f64 {
    stats::median(&tracer.durations_ns(name)) / unit_ns
}

/// Times `f`, returning its result and the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

/// Iteration `i` of a traced run is traced when odd; the even ones run
/// untraced so the two can be compared for the tracing overhead.
pub fn traced_iteration(cfg: &RunConfig, i: usize) -> bool {
    cfg.trace && i % 2 == 1
}

/// Sets up repeatedly (see [`SETUP_REPEATS`]), recording each wall
/// time in `out.setup_s` and the host probe before it in
/// `out.setup_probe_ns`, and returns the last set-up.
pub fn repeat_setup<S>(out: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let mut probe = HostProbe::new();
    let start = Instant::now();
    loop {
        out.setup_probe_ns.push(probe.time());
        let (built, ns) = timed(&mut setup);
        out.setup_s.push(ns / 1e9);
        if out.setup_s.len() >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return built;
        }
    }
}

/// Values the host probe sorts: 128 KiB, cache-resident.
const PROBE_SORT_LEN: usize = 16_384;

/// Values the host probe streams over: 4 MiB.
const PROBE_STREAM_LEN: usize = 1 << 19;

/// The host probe's fast-state time on the host the bounds were set
/// on (2 vCPUs, `Intel(R) Xeon(R) Processor`), ms. End-to-end times
/// are reported as if measured there: see [`to_reference`].
pub const PROBE_REFERENCE_MS: f64 = 1.6;

/// A fixed computation of the benchmark's own, timed before every
/// iteration: a sort of seeded values and a square-root pass over a
/// larger array. It shares no code with the program, so its time
/// tracks the host's speed alone.
pub struct HostProbe {
    values: Vec<f64>,
    scratch: Vec<f64>,
    stream: Vec<f64>,
}

impl HostProbe {
    /// Builds the probe's inputs and runs it once, untimed, so the
    /// first timed run does not fault its pages in.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let values = (0..PROBE_SORT_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64
            })
            .collect();
        let mut probe = HostProbe {
            values,
            scratch: Vec::with_capacity(PROBE_SORT_LEN),
            stream: (0..PROBE_STREAM_LEN).map(|i| i as f64 + 1.0).collect(),
        };
        probe.time();
        probe
    }

    /// Runs the probe once; returns its time, ns.
    pub fn time(&mut self) -> f64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.values);
        let ((), ns) = timed(|| {
            self.scratch.sort_unstable_by(f64::total_cmp);
            let root_sum: f64 = self.stream.iter().map(|v| v.sqrt()).sum();
            black_box((&self.scratch, root_sum));
        });
        ns
    }
}

/// The factor that takes a time measured in this run to the reference
/// host: [`PROBE_REFERENCE_MS`] over the run's fast-state probe time.
pub fn to_reference(probe_ns: &[f64]) -> f64 {
    PROBE_REFERENCE_MS / (fast(probe_ns) / 1e6)
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// `setup_s` as on the reference host: each set-up's time scaled by the
/// probe timed just before it, then the median. Set-ups all fall in
/// the run's first seconds, so the run's fast-state probe time would
/// not describe the state they ran in.
pub fn setup_at_reference(out: &Outcome) -> f64 {
    let scaled: Vec<f64> = out
        .setup_s
        .iter()
        .zip(&out.setup_probe_ns)
        .map(|(s, probe_ns)| s * PROBE_REFERENCE_MS / (probe_ns / 1e6))
        .collect();
    stats::median(&scaled)
}

/// Runs `iteration(i)` for `i = 0, 1, …` until `seconds` have passed,
/// and at least `min` times, with a host probe before each iteration.
/// Returns the probe times, ns.
pub fn run_for(seconds: f64, min: usize, mut iteration: impl FnMut(usize)) -> Vec<f64> {
    let mut probe = HostProbe::new();
    let mut probe_ns = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < seconds {
        probe_ns.push(probe.time());
        iteration(i);
        i += 1;
    }
    probe_ns
}
