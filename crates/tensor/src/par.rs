//! Deterministic data-parallel execution for batch-dimension work.
//!
//! Every hot loop in this workspace is *unit-parallel*: matmul output rows,
//! `im2col` images, forward-pass examples. Each unit is computed by a pure
//! function of the inputs, so splitting the units across threads cannot
//! change any unit's result — parallel output is **bitwise identical** to
//! the serial path. The executor here only ever splits *between* units; it
//! never splits (and therefore never reorders) the floating-point reduction
//! *inside* a unit.
//!
//! Configuration is process-global:
//!
//! * `DCN_THREADS=N` in the environment sets the thread budget (`1` forces
//!   the exact legacy serial path, `0`/unset means one thread per core).
//! * [`configure`] overrides the environment programmatically;
//!   [`reset`] returns to the environment default.
//!
//! Small workloads stay serial: a parallel region is only opened when every
//! worker would receive at least the call site's own floor of units. Nested
//! parallel regions are suppressed — a thread already running a region's
//! slot runs any region it reaches inline, so e.g. a batch-chunked forward
//! pass that calls a parallelizable matmul does not oversubscribe the
//! machine.
//!
//! # The parked pool
//!
//! Regions run on one process-lifetime pool of parked worker threads. A
//! region of `n` slots runs slot 0 on the calling thread and slot `w ≥ 1`
//! on parked worker `w − 1`, and returns only once every slot has finished.
//! Opening a region therefore costs a queue push and a wake per worker, not
//! a thread spawn and join; a worker polls its queue briefly before it
//! parks, so the back-to-back regions of one forward pass skip the wake.
//! The pool grows lazily to the widest region asked for —
//! `ParConfig::threads − 1` workers for regions sized through
//! [`planned_workers`] — and a budget of 1 never starts a worker. A worker
//! outlives its region, so its thread-local state, above all its
//! [`crate::scratch`] pool, stays warm from one region to the next.
//!
//! * **Lifetimes.** Slot tasks borrow the caller's stack. The caller cannot
//!   leave the region, by return or by unwind, before every worker has
//!   finished its task.
//! * **Panics.** A panicking slot does not cut the region short: the caller
//!   still waits for every slot, then resumes the panic of the
//!   lowest-numbered slot that panicked. A worker catches its task's panic
//!   and goes back to its queue, so the pool never shrinks and a later
//!   region never waits on a dead worker.
//! * **Nesting.** A region opened inside a slot — on a worker, or in the
//!   caller's slot 0 — runs all its slots inline on that thread. Workers
//!   therefore block only on their own job queue.
//! * **Concurrent callers.** Several threads may open regions at once (the
//!   serving batcher and a request thread, two in-process parameter-server
//!   workers). Their jobs queue FIFO on each worker, so one region may wait
//!   behind another's job. That costs time but cannot deadlock: every job
//!   runs to completion without waiting on anything.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

use dcn_obs::ordered;

/// Thread budget and kernel choice for the parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Maximum worker threads per parallel region, the calling thread
    /// included. `1` is the exact legacy serial path (no pool worker is
    /// started at all).
    pub threads: usize,
    /// Opt-in to the fused-multiply-add GEMM microkernels (`DCN_FMA=1`).
    ///
    /// Fused contraction performs one rounding per multiply-add instead of
    /// two, so the fused kernels are **not** bitwise-identical to the
    /// default path — they are tolerance-tested against it instead. They
    /// *are* bitwise-stable across thread counts and across machines
    /// (`f32::mul_add` has exact single-rounding semantics whether or not
    /// hardware FMA exists). Off by default; the default path stays
    /// bit-exact against the naive reference kernels.
    pub fma: bool,
}

impl ParConfig {
    /// The configuration currently in effect (override, else environment).
    pub fn current() -> Self {
        current()
    }

    /// Exact legacy serial execution.
    pub fn serial() -> Self {
        ParConfig {
            threads: 1,
            fma: false,
        }
    }

    /// A budget of `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ParConfig {
            threads: threads.max(1),
            fma: false,
        }
    }

    /// Builder: opt in to (or out of) the fused-multiply-add kernels.
    #[must_use]
    pub fn fma(mut self, fma: bool) -> Self {
        self.fma = fma;
        self
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: default_threads(),
            fma: default_fma(),
        }
    }
}

/// Programmatic thread override; 0 = unset (fall back to the environment).
static OVERRIDE_THREADS: AtomicUsize = AtomicUsize::new(0);
/// Programmatic FMA override; 0 = unset, 1 = forced off, 2 = forced on.
static OVERRIDE_FMA: AtomicUsize = AtomicUsize::new(0);

/// The single sanctioned environment read (registered in
/// `ci/lint/determinism_allowlist.txt`): both `DCN_THREADS` and `DCN_FMA`
/// are bootstrap settings resolved once per process through this helper,
/// and both are deterministic given their values — thread count never
/// changes results at all, and the FMA flag selects between two paths that
/// are each individually deterministic.
fn env_setting(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok())
}

/// Environment default thread budget, resolved once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match env_setting("DCN_THREADS") {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Environment default for the FMA opt-in (`DCN_FMA=1`), resolved once per
/// process.
fn default_fma() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| env_setting("DCN_FMA") == Some(1))
}

/// Installs `cfg` as the process-global parallel configuration.
///
/// Takes effect for every subsequent parallel region in any thread. Use
/// [`reset`] to return to the `DCN_THREADS` / `DCN_FMA` / core-count
/// default.
pub fn configure(cfg: ParConfig) {
    OVERRIDE_THREADS.store(cfg.threads.max(1), Ordering::Relaxed);
    OVERRIDE_FMA.store(if cfg.fma { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears any [`configure`] override.
pub fn reset() {
    OVERRIDE_THREADS.store(0, Ordering::Relaxed);
    OVERRIDE_FMA.store(0, Ordering::Relaxed);
}

fn current() -> ParConfig {
    let t = OVERRIDE_THREADS.load(Ordering::Relaxed);
    let f = OVERRIDE_FMA.load(Ordering::Relaxed);
    ParConfig {
        threads: if t == 0 { default_threads() } else { t },
        fma: match f {
            0 => default_fma(),
            1 => false,
            _ => true,
        },
    }
}

thread_local! {
    /// Set while the current thread runs a region's slot (always, on a
    /// pool worker); nested regions run inline instead of dispatching.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already inside a parallel region.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// Worker count the executor would use for `units` units with a per-worker
/// floor of `min_units`, honoring the global configuration and the
/// nested-region guard. Returns 1 when the work would run serially.
///
/// Callers that must *prepare* per-worker inputs (e.g. splitting a batch
/// tensor) use this to skip the preparation entirely on the serial path.
pub fn planned_workers(units: usize, min_units: usize) -> usize {
    effective_threads(units, min_units)
}

/// Balanced contiguous partition of `0..units` into `workers` spans of
/// `(start, len)`, sizes differing by at most one. Companion to
/// [`planned_workers`] for call sites that pre-split their input.
pub fn partition_units(units: usize, workers: usize) -> Vec<(usize, usize)> {
    partition(units, workers.max(1))
}

/// Worker count for `units` units with a per-worker floor of `min_units`,
/// honoring the global configuration and the nested-region guard.
fn effective_threads(units: usize, min_units: usize) -> usize {
    if in_parallel_region() {
        return 1;
    }
    let cfg = current();
    if cfg.threads <= 1 {
        return 1;
    }
    cfg.threads.min(units / min_units.max(1)).max(1)
}

/// Records one parallel-region dispatch decision into the observability
/// layer. Collection-gated: costs one relaxed atomic load when disabled and
/// never influences the dispatch itself, so outputs stay bitwise identical.
fn record_region(units: usize, workers: usize) {
    if !dcn_obs::enabled() {
        return;
    }
    dcn_obs::counter(dcn_obs::names::PAR_REGIONS_TOTAL).inc();
    if workers <= 1 {
        dcn_obs::counter(dcn_obs::names::PAR_SERIAL_REGIONS_TOTAL).inc();
    }
    dcn_obs::counter(dcn_obs::names::PAR_UNITS_TOTAL).add(units as u64);
    dcn_obs::sketch(dcn_obs::names::PAR_WORKERS).observe(workers as f64);
}

/// Balanced contiguous partition of `0..units` into `workers` spans,
/// returned as `(start, len)` pairs. Earlier spans absorb the remainder, so
/// span sizes differ by at most one.
fn partition(units: usize, workers: usize) -> Vec<(usize, usize)> {
    let base = units / workers;
    let rem = units % workers;
    let mut spans = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        spans.push((start, len));
        start += len;
    }
    spans
}

/// Runs `f` over disjoint contiguous chunks of `data`, where `data` is a
/// sequence of equal `unit_len` records (matmul rows, images, examples).
///
/// `f(first_unit, chunk)` receives the index of its first unit and a
/// mutable slice covering whole units. Each unit must be computable
/// independently of the others — the function is called once over the whole
/// buffer on the serial path and once per worker on the parallel path, and
/// the two must write identical bytes (which they do automatically when `f`
/// treats units independently).
///
/// `min_units` is the call site's floor on units per worker; below it (or
/// when the configured budget is 1, or inside another parallel region) the
/// call degenerates to exactly `f(0, data)` on the current thread.
pub fn for_each_unit_chunk<T, F>(data: &mut [T], unit_len: usize, min_units: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    if unit_len == 0 {
        f(0, data);
        return;
    }
    let units = data.len() / unit_len;
    let workers = effective_threads(units, min_units);
    record_region(units, workers);
    if workers <= 1 {
        f(0, data);
        return;
    }
    run_chunks(data, unit_len, workers, &f);
}

/// Order-preserving parallel map: `f(i, &items[i])` for every item, results
/// collected in input order.
///
/// `min_units` is the call site's floor on items per worker; below it the
/// map runs serially on the current thread, which is also the exact
/// `threads = 1` path.
pub fn par_map<T, R, F>(items: &[T], min_units: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_threads(items.len(), min_units);
    record_region(items.len(), workers);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    run_chunks(&mut out, 1, workers, &|first, chunk: &mut [Option<R>]| {
        for ((i, item), slot) in (first..).zip(&items[first..]).zip(chunk) {
            *slot = Some(f(i, item));
        }
    });
    // Every slot is filled: a task that panicked was resumed above.
    out.into_iter().flatten().collect()
}

/// Runs `f(worker_index)` for every index in `0..workers` as one region —
/// the raw primitive behind the intra-GEMM 2-D partition in
/// `crate::kernel`, where workers write disjoint (row-tile-range ×
/// column-block-range) regions of one output buffer and therefore cannot
/// use the slice-splitting [`for_each_unit_chunk`].
///
/// `workers <= 1` runs `f(0)` inline on the current thread (the exact
/// serial path — no worker is woken). Otherwise index 0 runs on the calling
/// thread and index `w` on parked worker `w − 1`, each marked as inside a
/// parallel region so nested parallel primitives run inline. `units` is the
/// region's work-unit count, recorded into the observability layer only.
///
/// Callers are expected to have sized `workers` through
/// [`planned_workers`], which honors the global configuration and the
/// nested-region guard; the pool grows to the largest `workers − 1` asked
/// for.
pub fn run_workers<F>(workers: usize, units: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = workers.max(1);
    record_region(units, workers);
    if workers <= 1 {
        f(0);
        return;
    }
    let f = &f;
    let mut tasks: Vec<_> = (0..workers).map(|w| move || f(w)).collect();
    run_slots(&mut tasks);
}

/// Splits `data` into the balanced `workers`-way partition of its
/// `unit_len` records and runs `f(first_unit, chunk)` on each chunk as one
/// region.
fn run_chunks<T, F>(data: &mut [T], unit_len: usize, workers: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut rest = data;
    let mut tasks: Vec<_> = partition(rest.len() / unit_len, workers)
        .into_iter()
        .map(|(start, len)| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len * unit_len);
            rest = tail;
            move || f(start, chunk)
        })
        .collect();
    run_slots(&mut tasks);
}

/// Runs one region: `tasks[0]` on the calling thread and `tasks[w]` on
/// parked worker `w − 1`, returning once every task has finished. Inside
/// another region, or at a budget of 1, every task runs inline here.
fn run_slots<F: FnMut() + Send>(tasks: &mut [F]) {
    let Some((own, rest)) = tasks.split_first_mut() else {
        return;
    };
    if in_parallel_region() || current().threads <= 1 {
        let outcome = as_slot(|| {
            own();
            rest.iter_mut().for_each(|task| task());
        });
        if let Err(payload) = outcome {
            panic::resume_unwind(payload);
        }
        return;
    }
    // Start every missing worker before the first job is queued, so a
    // failed spawn unwinds while no worker holds a borrow of this stack.
    let mut link = &POOL;
    for _ in 0..rest.len() {
        link = &link.get_or_init(Worker::spawn).next;
    }
    let (done, finished) = mpsc::channel();
    let mut link = &POOL;
    for (slot, task) in (1..).zip(rest.iter_mut()) {
        let worker: &'static Worker = link.get_or_init(Worker::spawn);
        let task: &mut (dyn FnMut() + Send) = task;
        // SAFETY: the transmute only erases the borrow's lifetime; the
        // reference itself is unchanged. The worker's use of it ends before
        // it reports the slot on `done`, and this function cannot return or
        // unwind before it has received every slot's report (or every
        // job, and with it every copy of `done`, is gone): the caller's own
        // slot runs under `catch_unwind`, every worker was started above,
        // and a push only locks an `ordered` mutex that absorbs poisoning
        // and is never held while another lock is taken. `tasks` outlives
        // this call, and each element is handed to exactly one worker.
        let task = unsafe {
            std::mem::transmute::<&mut (dyn FnMut() + Send), &'static mut (dyn FnMut() + Send)>(
                task,
            )
        };
        worker.push(Job {
            task,
            slot,
            done: done.clone(),
        });
        link = &worker.next;
    }
    drop(done);
    // Payloads are kept, not dropped, until every slot has reported: a
    // payload's drop may itself panic.
    let mut panics = Vec::new();
    if let Err(payload) = as_slot(own) {
        panics.push((0, payload));
    }
    for (slot, outcome) in finished.iter().take(rest.len()) {
        if let Err(payload) = outcome {
            panics.push((slot, payload));
        }
    }
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(slot, _)| slot) {
        panic::resume_unwind(payload);
    }
}

/// Runs `f` as a region slot on the calling thread: regions opened inside
/// it run inline, and the thread's previous mark is restored afterwards,
/// also when `f` panics.
fn as_slot(f: impl FnOnce()) -> std::thread::Result<()> {
    let was = IN_PARALLEL.with(|flag| flag.replace(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    IN_PARALLEL.with(|flag| flag.set(was));
    outcome
}

/// Head of the pool's worker list: parked worker `i` sits `i` links down.
static POOL: OnceLock<&'static Worker> = OnceLock::new();

/// One slot of a region, queued on a parked worker.
struct Job {
    /// The slot's task, borrowed from the caller's stack (see [`run_slots`]).
    task: &'static mut (dyn FnMut() + Send),
    slot: usize,
    /// Receives the slot's outcome once the task has finished.
    done: mpsc::Sender<(usize, std::thread::Result<()>)>,
}

/// How many times a worker that finished a job polls its queue before it
/// parks, yielding its core between polls: about 55 µs on the 2-core host
/// when no other thread wants the core (220 ns per `yield_now`). Regions
/// come in bursts — a forward pass opens one per layer, tens of
/// microseconds apart — and waking a parked worker takes about 10 µs, so
/// the poll turns all but the first wake of a burst into a load. Yielding
/// rather than spinning matters when the budget exceeds the core count: a
/// spinning worker held a core that the region's other slots needed and
/// made an 8-thread batch-1 forward on 2 cores 3× slower.
const POLLS: u32 = 256;

/// A parked worker: its FIFO of jobs and the link to the next worker.
struct Worker {
    jobs: ordered::Mutex<VecDeque<Job>>,
    /// Length of `jobs`, readable without the lock while polling.
    queued: AtomicUsize,
    ready: ordered::Condvar,
    next: OnceLock<&'static Worker>,
}

impl Worker {
    /// Starts a worker thread parked on an empty queue. Workers live for
    /// the rest of the process.
    fn spawn() -> &'static Worker {
        let worker: &'static Worker = Box::leak(Box::new(Worker {
            jobs: ordered::Mutex::new(VecDeque::new(), "tensor.par.jobs"),
            queued: AtomicUsize::new(0),
            ready: ordered::Condvar::new(),
            next: OnceLock::new(),
        }));
        std::thread::spawn(move || worker.serve());
        worker
    }

    fn push(&self, job: Job) {
        let mut jobs = self.jobs.lock();
        jobs.push_back(job);
        self.queued.store(jobs.len(), Ordering::Relaxed);
        drop(jobs);
        self.ready.notify_one();
    }

    /// The worker loop: run the oldest job, report its slot, repeat.
    fn serve(&self) -> ! {
        IN_PARALLEL.with(|flag| flag.set(true));
        loop {
            let Job { task, slot, done } = self.next_job();
            let outcome = panic::catch_unwind(AssertUnwindSafe(task));
            // The caller waits for this report, so the channel is open.
            let _ = done.send((slot, outcome));
        }
    }

    fn next_job(&self) -> Job {
        for _ in 0..POLLS {
            if self.queued.load(Ordering::Relaxed) > 0 {
                break;
            }
            std::thread::yield_now();
        }
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                self.queued.store(jobs.len(), Ordering::Relaxed);
                return job;
            }
            jobs = self.ready.wait(jobs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced_and_complete() {
        for units in 0..40 {
            for workers in 1..8 {
                let spans = partition(units, workers);
                assert_eq!(spans.len(), workers);
                assert_eq!(spans.iter().map(|&(_, l)| l).sum::<usize>(), units);
                let mut expect = 0;
                for &(start, len) in &spans {
                    assert_eq!(start, expect);
                    expect += len;
                }
                let lens: Vec<usize> = spans.iter().map(|&(_, l)| l).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn chunked_writes_cover_every_unit_once() {
        configure(ParConfig::with_threads(4));
        let mut data = vec![0u32; 7 * 3]; // 7 units of 3.
        for_each_unit_chunk(&mut data, 3, 1, |first_unit, chunk| {
            for (u, rec) in chunk.chunks_mut(3).enumerate() {
                for v in rec {
                    *v = (first_unit + u) as u32 + 1;
                }
            }
        });
        let expect: Vec<u32> = (0..7).flat_map(|u| [u + 1; 3]).collect();
        assert_eq!(data, expect);
        reset();
    }

    #[test]
    fn par_map_preserves_order() {
        configure(ParConfig::with_threads(3));
        let items: Vec<usize> = (0..17).collect();
        let out = par_map(&items, 1, |i, &v| {
            assert_eq!(i, v);
            v * 10
        });
        assert_eq!(out, (0..17).map(|v| v * 10).collect::<Vec<_>>());
        reset();
    }

    #[test]
    fn small_workloads_stay_serial() {
        configure(ParConfig::with_threads(8));
        // 7 units with a floor of 100 per worker → serial, single call.
        let mut calls = std::sync::atomic::AtomicUsize::new(0);
        let mut data = vec![0u8; 7];
        for_each_unit_chunk(&mut data, 1, 100, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(*calls.get_mut(), 1);
        reset();
    }

    #[test]
    fn nested_regions_run_inline() {
        configure(ParConfig::with_threads(4));
        let items: Vec<usize> = (0..8).collect();
        let nested_parallel = par_map(&items, 1, |_, _| {
            assert!(in_parallel_region());
            // A nested map must not spawn: it sees the guard and runs inline.
            let inner = par_map(&[1usize, 2, 3, 4], 1, |_, &v| v);
            inner.len()
        });
        assert_eq!(nested_parallel, vec![4; 8]);
        assert!(!in_parallel_region());
        reset();
    }

    #[test]
    fn configure_and_reset_round_trip() {
        configure(ParConfig::with_threads(3));
        assert_eq!(ParConfig::current().threads, 3);
        reset();
        assert!(ParConfig::current().threads >= 1);
        assert_eq!(ParConfig::serial().threads, 1);
        assert!(!ParConfig::serial().fma);
        assert!(ParConfig::with_threads(2).fma(true).fma);
    }

    #[test]
    fn run_workers_covers_every_index_once() {
        use std::sync::atomic::AtomicU32;
        let seen: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
        run_workers(5, 5, |w| {
            assert!(in_parallel_region());
            seen[w].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
        // The serial degenerate case runs inline without marking the region.
        let inline_hits = AtomicU32::new(0);
        run_workers(1, 1, |w| {
            assert_eq!(w, 0);
            inline_hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(inline_hits.load(Ordering::Relaxed), 1);
    }
}
