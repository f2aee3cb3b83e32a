//! Deterministic parallelism on one persistent worker pool.
//!
//! The collector sweeps thousands of nodes × thousands of samples, the
//! federation collects thousands of sites, and the assessment service
//! evaluates batches of snapshots; the work is embarrassingly parallel
//! but the *output must not depend on thread scheduling*.
//! [`pool_fill_indexed`] is the one fan-out all of them use: it runs
//! `f(index, &mut slots[index])` for every slot, so each slot is
//! written by exactly one claimant and `parallel == serial` exactly,
//! which the test suites assert.
//!
//! The pool is process-wide: its workers are spawned lazily on the
//! first parallel fill and reused by every later call. Dispatch
//! publishes a stack-allocated job in a registry, sends wake tokens
//! over a `crossbeam::channel`, and lets workers *claim* slot indices
//! from a shared atomic cursor; the calling thread participates too and
//! never blocks on a syscall for completion. After the pool is up, a
//! dispatch performs no heap allocation and no thread spawn. A call's
//! `workers` caps how many threads of the shared pool (the caller
//! included) may work on it at once.

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One in-flight pool dispatch, allocated on the **caller's stack** and
/// published to workers by address. Soundness rests on three facts the
/// code below maintains:
///
/// 1. every slot index is claimed exactly once (`next.fetch_add`), so a
///    claimant holds the only `&mut` into that slot;
/// 2. a participant's final touch of the job is its `participants`
///    release-decrement — after that it never dereferences the pointer
///    again;
/// 3. the caller **unregisters the job before its completion wait**:
///    picks and their `participants` increments happen only under the
///    registry lock, so once the caller's `retain` critical section has
///    run, no new worker can reach the job and every prior pick's
///    increment is visible to the caller (same-lock happens-before).
///    Spinning until `finished == chunks` and `participants == 0`
///    therefore outlasts the last possible access, and only then does
///    the stack frame die. (Unregistering *after* the wait would race:
///    a worker could be picked mid-wait, after the caller last sampled
///    `participants`.)
struct PoolJob {
    /// Type-erased trampoline: `run(ctx, i)` fills slot `i`.
    run: unsafe fn(*const (), usize),
    /// Points at the caller's stack-held context (slot base + closure).
    ctx: *const (),
    /// Total slots to fill.
    chunks: usize,
    /// Claim cursor: `fetch_add` hands out slot indices.
    next: AtomicUsize,
    /// Slots fully processed (bulk-added when a participant exits).
    finished: AtomicUsize,
    /// Pool workers currently inside [`run_chunks`] for this job.
    participants: AtomicUsize,
    /// Most pool workers allowed in at once (`workers − 1`: the caller
    /// is a participant too and is not counted here). Enforced at pick
    /// time so a small-`workers` dispatch keeps its CPU bound even when
    /// the rest of the pool sits idle.
    helper_cap: usize,
    /// A chunk panicked; the payload below carries the first one.
    panicked: AtomicBool,
    /// First panic payload, re-thrown on the caller's thread.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// A `*const PoolJob` that may cross threads (see [`PoolJob`] soundness
/// notes — the registry and claim protocol make the accesses race-free).
#[derive(Copy, Clone, PartialEq, Eq)]
struct JobPtr(*const PoolJob);
// SAFETY: the pointee outlives every access (the publishing caller spins
// until all participants leave before unregistering and returning), and
// all shared mutation goes through atomics or the payload mutex.
unsafe impl Send for JobPtr {}
unsafe impl Sync for JobPtr {}

/// The process-wide persistent worker pool.
struct Pool {
    /// Wake tokens: one `()` nudges one idle worker to scan the registry.
    wake: Sender<()>,
    /// Jobs currently accepting claimants.
    registry: Arc<Mutex<Vec<JobPtr>>>,
    /// Worker threads spawned (≥ 1, capped at 32).
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The pool, spawning its workers on first use. Sized to the host's
    /// available parallelism — worker *counts* requested per call above
    /// that add nothing on this host and are quietly capped.
    fn global() -> &'static Pool {
        POOL.get_or_init(|| {
            let (wake, wake_rx) = channel::unbounded::<()>();
            let registry: Arc<Mutex<Vec<JobPtr>>> = Arc::default();
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(32);
            for i in 0..threads {
                let rx = wake_rx.clone();
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("iriscast-pool-{i}"))
                    .spawn(move || worker_loop(rx, reg))
                    .expect("spawn pool worker");
            }
            Pool {
                wake,
                registry,
                threads,
            }
        })
    }
}

/// Number of persistent pool worker threads, spawning the pool if it is
/// not up yet. Introspection hook for benches, tests and capacity
/// planning; the pool is sized to the host's available parallelism
/// (capped at 32).
pub fn pool_size() -> usize {
    Pool::global().threads
}

/// A pool worker: sleep on the wake channel, then serve registry jobs
/// until none have unclaimed slots left.
fn worker_loop(wake: Receiver<()>, registry: Arc<Mutex<Vec<JobPtr>>>) {
    while wake.recv().is_ok() {
        loop {
            // Pick any job with unclaimed slots and helper headroom;
            // registering as a participant must happen under the
            // registry lock so the publishing caller cannot observe
            // `participants == 0` between our pick and our first claim,
            // and so the `helper_cap` check cannot race another pick
            // (decrements happen outside the lock, so a stale high
            // count can only make us decline — never oversubscribe).
            let picked = {
                let jobs = registry.lock();
                jobs.iter()
                    .find(|JobPtr(p)| {
                        // SAFETY: pointers in the registry are live (the
                        // caller unregisters before its job dies).
                        let job = unsafe { &**p };
                        job.next.load(Ordering::Relaxed) < job.chunks
                            && job.participants.load(Ordering::Relaxed) < job.helper_cap
                    })
                    .copied()
                    .inspect(|JobPtr(p)| {
                        let job = unsafe { &**p };
                        job.participants.fetch_add(1, Ordering::Relaxed);
                    })
            };
            let Some(JobPtr(p)) = picked else { break };
            // SAFETY: participant registration above keeps the job alive
            // until our matching `participants` decrement.
            let job = unsafe { &*p };
            run_chunks(job);
            job.participants.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Claims and runs slots until the job's cursor is exhausted, then
/// bulk-reports how many this participant completed. Panics are caught
/// per slot so one poisoned chunk can neither kill a pool worker nor
/// leave the job incomplete; the first payload is re-thrown by the
/// caller.
fn run_chunks(job: &PoolJob) {
    let mut done = 0usize;
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.chunks {
            break;
        }
        // SAFETY: index `i` was claimed exactly once, so the trampoline
        // holds the only mutable access to slot `i`.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.ctx, i) }));
        if let Err(payload) = result {
            if !job.panicked.swap(true, Ordering::Relaxed) {
                *job.panic_payload.lock() = Some(payload);
            }
        }
        done += 1;
    }
    job.finished.fetch_add(done, Ordering::Release);
}

/// Runs `f(index, &mut slots[index])` for every slot on the persistent
/// pool, with at most `workers` threads (the caller included) working
/// on this call at once. Every slot is written by exactly one claimant,
/// so the output is bit-identical to the serial loop whatever the
/// scheduling; once the pool is up a call spawns no thread and
/// allocates nothing.
///
/// `f` must be pure in everything but its slot (it runs from several
/// threads in unspecified order). With `workers <= 1` or a single slot
/// the loop runs inline on the caller's thread. `workers == 0` is
/// clamped to 1 rather than asserted: a caller-supplied zero (a
/// miscomputed `cores - reserved`, a config file) must not panic deep
/// inside the fill path of an otherwise valid call. A panic in `f` is
/// re-thrown on the caller's thread.
pub fn pool_fill_indexed<S, F>(slots: &mut [S], workers: usize, f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let workers = workers.max(1);
    let items = slots.len();
    if items == 0 {
        return;
    }
    if workers == 1 || items == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }

    let pool = Pool::global();

    /// Caller-stack context the type-erased trampoline reads back.
    struct Ctx<S, F> {
        slots: *mut S,
        f: *const F,
    }
    unsafe fn run_one<S, F: Fn(usize, &mut S)>(ctx: *const (), i: usize) {
        // SAFETY: `ctx` is the caller's `Ctx<S, F>`, alive for the whole
        // dispatch; slot `i` is exclusively ours (claimed once).
        let c = unsafe { &*(ctx as *const Ctx<S, F>) };
        (unsafe { &*c.f })(i, unsafe { &mut *c.slots.add(i) });
    }

    let ctx = Ctx {
        slots: slots.as_mut_ptr(),
        f: &raw const f,
    };
    let helper_cap = (workers - 1).min(pool.threads);
    let job = PoolJob {
        run: run_one::<S, F>,
        ctx: (&raw const ctx).cast(),
        chunks: items,
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        participants: AtomicUsize::new(0),
        helper_cap,
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    };

    // Publish, nudge up to `helper_cap` helpers (more than the pool has
    // threads is pointless), and join in ourselves. Idle workers beyond
    // the cap cannot pile on: the pick condition enforces it.
    pool.registry.lock().push(JobPtr(&raw const job));
    for _ in 0..helper_cap {
        let _ = pool.wake.send(());
    }
    run_chunks(&job);

    // Retract the publication FIRST: all slots are claimed by now (our
    // own claim loop only exits on an exhausted cursor), and removal
    // goes through the same lock every pick goes through — after this
    // critical section no new worker can reach the job, and every
    // already-picked worker's `participants` increment is visible to
    // the loads below. Only then is waiting on the counters race-free
    // (waiting before unregistering could sample `participants == 0`,
    // have a worker pick the job, and free the frame under it).
    pool.registry
        .lock()
        .retain(|&p| p != JobPtr(&raw const job));
    // Escalating wait: spin briefly (the common case — helpers are just
    // draining their last chunk), yield for a while, then fall back to
    // bounded sleeps so a stalled helper (blocking fill closure, page
    // fault, oversubscribed host) cannot peg this core indefinitely.
    // `park_timeout` needs no unpark partner: the loop re-checks on
    // every wakeup, and nobody else may touch the job anyway — a
    // completion signal *from* a participant would be an access after
    // its supposedly-final decrement.
    let mut spins = 0u32;
    while job.finished.load(Ordering::Acquire) < job.chunks
        || job.participants.load(Ordering::Acquire) != 0
    {
        spins = spins.saturating_add(1);
        if spins < 128 {
            std::hint::spin_loop();
        } else if spins < 1_128 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(std::time::Duration::from_micros(100));
        }
    }

    if job.panicked.load(Ordering::Relaxed) {
        let payload = job.panic_payload.lock().take();
        resume_unwind(payload.unwrap_or_else(|| Box::new("pool chunk panicked")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_any_worker_count() {
        let expect: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(17) ^ 3).collect();
        for workers in [1, 2, 3, 7, 16, 64] {
            let mut slots = vec![0u64; 257];
            pool_fill_indexed(&mut slots, workers, |i, s| {
                *s = (i as u64).wrapping_mul(17) ^ 3;
            });
            assert_eq!(slots, expect, "workers = {workers}");
        }
    }

    #[test]
    fn fill_matches_map_for_any_worker_count() {
        // The filled slots equal a plain serial `map`/`collect` over
        // the indices, including with more workers than slots.
        let expect: Vec<u64> = (0..1_000)
            .map(|i| (i as u64).wrapping_mul(31) ^ 7)
            .collect();
        for workers in [1, 2, 3, 7, 16, 2_000] {
            let mut slots = vec![0u64; 1_000];
            pool_fill_indexed(&mut slots, workers, |i, s| {
                *s = (i as u64).wrapping_mul(31) ^ 7;
            });
            assert_eq!(slots, expect, "workers = {workers}");
        }
    }

    #[test]
    fn pool_fill_matches_spawn_fill_for_any_worker_count() {
        // Owning, heap-backed slots: a parallel pool fill must leave
        // each slot exactly as the inline one-worker fill does (no slot
        // written twice, dropped or swapped), then handle the
        // degenerate shapes.
        let fill = |i: usize, s: &mut Vec<u32>| s.extend((0..i % 5).map(|k| (i * 7 + k) as u32));
        let mut inline = vec![Vec::new(); 257];
        pool_fill_indexed(&mut inline, 1, fill);
        for workers in [2, 3, 7, 16, 64] {
            let mut pooled = vec![Vec::new(); 257];
            pool_fill_indexed(&mut pooled, workers, fill);
            assert_eq!(pooled, inline, "pool vs inline, workers = {workers}");
        }
        let mut empty: [Vec<u32>; 0] = [];
        pool_fill_indexed(&mut empty, 4, |_, _| unreachable!());
        let mut one = [Vec::new()];
        pool_fill_indexed(&mut one, 4, |i, s| s.push(i as u32 + 9));
        assert_eq!(one, [vec![9]]);
    }

    #[test]
    fn empty_and_single() {
        let mut empty: [u64; 0] = [];
        pool_fill_indexed(&mut empty, 4, |_, _| unreachable!());
        let mut one = [0u64];
        pool_fill_indexed(&mut one, 4, |i, s| *s = i as u64 + 9);
        assert_eq!(one, [9]);
    }

    #[test]
    fn uneven_chunks_cover_all_items() {
        // 10 slots across 4 workers.
        let mut slots = [0usize; 10];
        pool_fill_indexed(&mut slots, 4, |i, s| *s = i);
        assert_eq!(slots, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // More workers than slots.
        let mut slots = [0usize; 3];
        pool_fill_indexed(&mut slots, 16, |i, s| *s = i * 2);
        assert_eq!(slots, [0, 2, 4]);
    }

    #[test]
    fn fill_clamps_zero_workers_to_serial() {
        // A caller-supplied 0 runs the serial (1-worker) loop rather
        // than tripping an assert deep in the fill path.
        let mut slots = [0usize; 4];
        pool_fill_indexed(&mut slots, 0, |i, s| *s = i + 1);
        assert_eq!(slots, [1, 2, 3, 4]);
    }

    #[test]
    fn zero_workers_clamped_to_serial() {
        // The clamped call never reaches the pool: every slot runs on
        // the caller's thread.
        let caller = std::thread::current().id();
        let mut slots = [None; 10];
        pool_fill_indexed(&mut slots, 0, |_, s| *s = Some(std::thread::current().id()));
        assert!(slots.iter().all(|s| *s == Some(caller)));
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        // Whatever slot the caller claims waits (boundedly) until a pool
        // helper has run another one, so the check does not depend on
        // how fast the helper wakes.
        use std::sync::{Condvar, Mutex as StdMutex};
        let helped = (StdMutex::new(false), Condvar::new());
        let main = std::thread::current().id();
        let mut slots = vec![0u8; 64];
        pool_fill_indexed(&mut slots, 4, |_, _| {
            let (flag, cv) = &helped;
            if std::thread::current().id() == main {
                let timeout = std::time::Duration::from_secs(10);
                let guard = flag.lock().unwrap();
                drop(cv.wait_timeout_while(guard, timeout, |h| !*h).unwrap());
            } else {
                *flag.lock().unwrap() = true;
                cv.notify_all();
            }
        });
        assert!(
            *helped.0.lock().unwrap(),
            "no work observed off the main thread"
        );
    }

    #[test]
    fn pool_is_reusable_and_persistent_across_dispatches() {
        assert!(pool_size() >= 1);
        // Many dispatches against the same global pool; every one must
        // complete fully (a leaked claim or lost wake token would hang
        // or miss slots).
        for round in 0..50usize {
            let mut slots = vec![0usize; 64 + round];
            pool_fill_indexed(&mut slots, 8, |i, s| *s = i + round);
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i + round, "round {round}");
            }
        }
    }

    #[test]
    fn pool_serves_concurrent_callers() {
        // Simultaneous dispatches from several threads share the worker
        // pool without mixing slots across jobs.
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                scope.spawn(move || {
                    for _ in 0..20 {
                        let mut slots = vec![0usize; 97];
                        pool_fill_indexed(&mut slots, 4, |i, s| *s = i * 3 + caller);
                        for (i, s) in slots.iter().enumerate() {
                            assert_eq!(*s, i * 3 + caller, "caller {caller}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn pool_honors_the_requested_worker_cap() {
        // `workers` bounds CPU use: at most `workers − 1` pool helpers
        // may join the caller, however idle the rest of the pool is.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        for workers in [2usize, 3] {
            let seen = StdMutex::new(HashSet::new());
            let mut slots = vec![0usize; 48];
            pool_fill_indexed(&mut slots, workers, |i, s| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(200));
                *s = i;
            });
            assert_eq!(slots, (0..48).collect::<Vec<_>>());
            let distinct = seen.lock().unwrap().len();
            assert!(
                distinct <= workers,
                "{distinct} threads ran chunks with workers = {workers}"
            );
        }
    }

    #[test]
    fn pool_propagates_chunk_panics_without_poisoning_workers() {
        let result = std::panic::catch_unwind(|| {
            let mut slots = vec![0u8; 32];
            pool_fill_indexed(&mut slots, 4, |i, _| {
                if i == 17 {
                    panic!("chunk 17 exploded");
                }
            });
        });
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk 17"), "payload: {msg}");
        // The pool must still work afterwards.
        let mut slots = vec![0usize; 64];
        pool_fill_indexed(&mut slots, 8, |i, s| *s = i);
        assert_eq!(slots, (0..64).collect::<Vec<_>>());
    }
}
