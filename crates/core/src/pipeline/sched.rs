//! The sharded work-stealing runtime the executors and the session
//! multiplexer run on.
//!
//! The dedicated-thread executor of PR-5 spawned one thread per stage per
//! run: correct, but threads exist whether or not there is work, and N
//! concurrent sessions would mean N × stages threads fighting the
//! scheduler. This module replaces that with a fixed worker pool sized to
//! `min(cores, 8)` ([`default_pool_threads`]) and turns every pipeline
//! node — the frame source and each stage — into a *cooperatively
//! scheduled task*:
//!
//! * **Sharded queues.** Each worker owns a run queue (a LIFO slot for
//!   wake locality plus a FIFO deque for fairness); tasks pushed from
//!   outside the pool land in a shared injector queue; idle workers
//!   steal from the back of other shards.
//! * **Non-blocking data plane.** Stages exchange messages through
//!   bounded inboxes (the per-session channel credits). A task that
//!   cannot push (downstream full) or pop (inbox empty) *returns* to the
//!   pool instead of blocking a thread, and is woken by the exact event
//!   that unblocks it (a downstream pop, an upstream push or close).
//!   This is what lets one worker drive an entire graph — or 64 graphs —
//!   without deadlock.
//! * **Wake protocol.** Each node carries an atomic state (`IDLE`,
//!   `QUEUED`, `RUNNING`, `RUNNING_DIRTY`); wakes CAS `IDLE → QUEUED`
//!   (push) or `RUNNING → RUNNING_DIRTY` (requeue after the current
//!   poll), so a node is in at most one queue and no wake is ever lost.
//! * **Supervision, preserved.** Every `process`/`flush` call runs under
//!   `catch_unwind`; a panicked stage turns poisoned and drains its
//!   inbox without processing. A per-run watchdog thread (only when
//!   `stall_timeout` is configured) polls the same per-node progress
//!   counters the threaded executor kept, blames the upstream-most
//!   unfinished node, cancels injected stalls, and records a
//!   [`PipelineError::StageStalled`]. `RunOutcome` semantics are
//!   bit-compatible with PR-5.
//! * **Tenant identity.** A pipeline tagged with a session label (see
//!   `Pipeline::with_session`) registers its meters under
//!   `name#session=<label>` — the suffix the Prometheus exporter turns
//!   into a `session="…"` label — and opens its spans under interned
//!   `stage@label` categories, so one shared pool still yields
//!   per-tenant metrics, sampler series, and trace tracks.
//!
//! Fairness: a task yields after a fixed quantum of messages, so a hot
//! session cannot pin a worker; its bounded inboxes (credits) stop it
//! from flooding memory ahead of a slow stage.

use super::error::PipelineError;
use super::executor::{
    finish_report, maybe_dump_flight, panic_message, source_step, FlightConfig, Pipeline,
    PipelineOutput, SourceStep, StageMeter,
};
use super::report::PipelineReport;
use super::stages::FrameSource;
use super::{DeconvolvedBlock, Message, Stage};
use crate::fault::FaultInjector;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Messages a task may process (or frames a source may emit) before it
/// yields its worker back to the pool.
const QUANTUM: u32 = 64;

/// How long an idle worker sleeps before re-scanning the queues anyway —
/// a belt-and-braces bound on any lost-wakeup bug, not the design wake
/// path.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// The worker-pool size the global scheduler uses: machine width capped
/// at 8 (the serving design point — sessions beyond that multiplex).
pub fn default_pool_threads() -> usize {
    crate::parallel::machine_threads().min(8)
}

/// Locks a mutex, riding through poisoning: scheduler state stays usable
/// even if some other holder panicked (stage panics never unwind while
/// holding these — they are caught inside the poll).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// A handle to a worker pool. Cheap to clone; all clones share the pool.
#[derive(Clone)]
pub struct Scheduler {
    pool: Arc<Pool>,
}

struct Pool {
    shards: Vec<Shard>,
    /// Tasks pushed from threads outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// Queued-task count: pushed before the sleep-lock notify, popped on
    /// dequeue, so a worker never parks while work is visible.
    pending: AtomicUsize,
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
    stats: SchedStats,
}

/// Lock-free per-pool tallies of the scheduler's hot points. Every event
/// is also mirrored into the global metrics registry (the `sched.*`
/// families on `/metrics`); these pool-local copies exist so tests on
/// private pools can assert invariants without cross-pool noise.
#[derive(Default)]
struct SchedStats {
    local_pops: AtomicU64,
    injector_pops: AtomicU64,
    steals: AtomicU64,
    executed: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    dwell_samples: AtomicU64,
}

/// Point-in-time copy of one pool's scheduler telemetry (see
/// [`Scheduler::stats`]).
///
/// Invariant (at quiescence): `local_pops + injector_pops + steals ==
/// executed` — every executed task was dequeued by exactly one of the
/// three pop paths. Jobs drained by a [`Scheduler::run_batch`] *caller*
/// never pass through the queues and are counted by none of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStatsSnapshot {
    /// Tasks a worker popped from its own shard (LIFO slot or FIFO).
    pub local_pops: u64,
    /// Tasks popped from the shared injector queue.
    pub injector_pops: u64,
    /// Tasks stolen from the back of another worker's shard.
    pub steals: u64,
    /// Tasks dispatched by worker loops.
    pub executed: u64,
    /// Times a worker went to sleep on the wakeup condvar.
    pub parks: u64,
    /// Pushes that notified a sleeping worker.
    pub wakes: u64,
    /// Queue-dwell samples recorded (always 0 on single-worker pools:
    /// with one shard there is no cross-worker queueing to measure).
    pub dwell_samples: u64,
}

#[derive(Default)]
struct SleepState {
    sleepers: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shard {
    queue: Mutex<ShardQueue>,
}

#[derive(Default)]
struct ShardQueue {
    /// Most-recently-woken task: run next for cache locality. Never
    /// stolen.
    lifo: Option<Task>,
    /// Owner pops the front; thieves steal the back.
    fifo: VecDeque<Task>,
}

/// One queued unit of work plus its enqueue timestamp (for queue-dwell
/// accounting; `0` on single-worker pools, where dispatch follows enqueue
/// trivially and dwell would only measure the worker's own backlog).
struct Task {
    kind: TaskKind,
    enqueued_ns: u64,
}

/// One schedulable unit: a pipeline node, or a batch of data-parallel jobs
/// (block deconvolution slabs) sharing the pool with the session graphs.
enum TaskKind {
    Node(Arc<Node>),
    Jobs(Arc<JobBatch>),
}

/// A batch of independent closures submitted by [`Scheduler::run_batch`].
///
/// Workers take **one job per poll** and re-enqueue the batch while jobs
/// remain, so a long batch interleaves with pipeline nodes instead of
/// pinning workers (the same fairness contract as the node quantum). The
/// submitting thread participates in draining the queue, which means a
/// batch completes even on a fully busy — or single-worker — pool, and
/// nested submission from inside a job cannot deadlock.
struct JobBatch {
    /// Jobs not yet started.
    jobs: Mutex<VecDeque<Box<dyn FnOnce() + Send>>>,
    /// Jobs not yet finished (started and unstarted).
    remaining: AtomicUsize,
    /// Completion latch: flipped by whichever thread finishes the last job.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload message observed in any job.
    panic: Mutex<Option<String>>,
    /// Profiler tag workers publish while running this batch's jobs (see
    /// [`ims_obs::prof`]); carries the deconvolution method name.
    prof_tag: u32,
}

impl JobBatch {
    /// Runs `job`, recording a panic instead of unwinding into the worker,
    /// and releases the completion latch when it was the last one.
    fn run_one(&self, job: Box<dyn FnOnce() + Send>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let msg = panic_message(payload);
            lock(&self.panic).get_or_insert(msg);
        }
        if self.remaining.fetch_sub(1, SeqCst) == 1 {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }
}

thread_local! {
    /// `(pool identity, shard index)` of the worker running this thread.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

impl Scheduler {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = Arc::new(Pool {
            shards: (0..threads).map(|_| Shard::default()).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(SleepState::default()),
            wakeup: Condvar::new(),
            stats: SchedStats::default(),
        });
        for i in 0..threads {
            let p = pool.clone();
            std::thread::Builder::new()
                .name(format!("sched-worker-{i}"))
                .spawn(move || worker_loop(p, i))
                .expect("spawn scheduler worker");
        }
        Self { pool }
    }

    /// The process-wide pool (size [`default_pool_threads`]) that
    /// `run_threaded` and the session manager share.
    pub fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler::new(default_pool_threads()))
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.pool.shards.len()
    }

    /// This pool's scheduler telemetry so far (see
    /// [`SchedStatsSnapshot`] for the invariants it carries).
    pub fn stats(&self) -> SchedStatsSnapshot {
        let s = &self.pool.stats;
        SchedStatsSnapshot {
            local_pops: s.local_pops.load(Relaxed),
            injector_pops: s.injector_pops.load(Relaxed),
            steals: s.steals.load(Relaxed),
            executed: s.executed.load(Relaxed),
            parks: s.parks.load(Relaxed),
            wakes: s.wakes.load(Relaxed),
            dwell_samples: s.dwell_samples.load(Relaxed),
        }
    }

    /// Runs a batch of independent jobs on the pool, blocking until every
    /// job has finished. The calling thread participates in draining the
    /// batch, so this completes even when every worker is busy (or the
    /// pool has a single worker and the caller *is* it, via nested
    /// submission); workers interleave batch jobs with pipeline nodes one
    /// job at a time, so serving sessions are not starved by a block
    /// deconvolution. If any job panics the batch still runs to
    /// completion, then this call panics with the first captured message.
    ///
    /// Jobs may borrow from the caller's stack: the function does not
    /// return until all of them are done.
    pub fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        static DEFAULT_TAG: OnceLock<u32> = OnceLock::new();
        let tag = *DEFAULT_TAG.get_or_init(|| ims_obs::prof::intern_tag("-", "batch", "-"));
        self.run_batch_tagged(jobs, tag);
    }

    /// [`Scheduler::run_batch`] with an explicit profiler tag (from
    /// [`ims_obs::prof::intern_tag`]): workers publish `tag` while
    /// running this batch's jobs, so sampled CPU lands on the submitting
    /// stage/method instead of a generic batch bucket.
    pub fn run_batch_tagged<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>, tag: u32) {
        if jobs.is_empty() {
            return;
        }
        // SAFETY: the closures are handed to worker threads, which
        // requires 'static, but every job is guaranteed finished before
        // this function returns (the completion latch below), so no
        // borrow escapes its scope. Box<dyn FnOnce> has identical layout
        // regardless of the trait object's lifetime bound.
        let jobs: Vec<Box<dyn FnOnce() + Send + 'static>> = unsafe { std::mem::transmute(jobs) };
        let batch = Arc::new(JobBatch {
            remaining: AtomicUsize::new(jobs.len()),
            jobs: Mutex::new(jobs.into()),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            prof_tag: tag,
        });
        self.pool.push_task(TaskKind::Jobs(batch.clone()), false);
        // Drain alongside the workers.
        while let Some(job) = lock(&batch.jobs).pop_front() {
            batch.run_one(job);
        }
        // Queue empty; wait for jobs other threads are still running.
        let mut done = lock(&batch.done);
        while !*done {
            done = batch
                .done_cv
                .wait_timeout(done, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(done);
        let panicked = lock(&batch.panic).take();
        if let Some(msg) = panicked {
            panic!("job in scheduler batch panicked: {msg}");
        }
    }

    /// Asks every worker to exit once the queues are drained of its
    /// current task. In-flight runs never complete after this; it exists
    /// for tests that spin up private pools, not for the global one.
    pub fn shutdown(&self) {
        let mut sleep = lock(&self.pool.sleep);
        sleep.shutdown = true;
        drop(sleep);
        self.pool.wakeup.notify_all();
    }
}

fn worker_loop(pool: Arc<Pool>, me: usize) {
    ims_obs::set_thread_name(&format!("sched-worker-{me}"));
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&pool) as usize, me))));
    let prof = ims_obs::prof::register_worker();
    while let Some(task) = next_task(&pool, me, prof.slot()) {
        pool.stats.executed.fetch_add(1, Relaxed);
        ims_obs::static_counter!("sched.executed_total").incr();
        match task.kind {
            TaskKind::Node(node) => {
                // The one relaxed store per dispatch the profiler costs.
                prof.slot().set_tag(node.prof_tag);
                run_node(&pool, node);
            }
            TaskKind::Jobs(batch) => {
                prof.slot().set_tag(batch.prof_tag);
                run_jobs(&pool, batch);
            }
        }
    }
}

fn next_task(pool: &Pool, me: usize, prof: &ims_obs::WorkerSlot) -> Option<Task> {
    loop {
        if let Some(t) = pool.pop(me) {
            return Some(t);
        }
        let mut sleep = lock(&pool.sleep);
        if sleep.shutdown {
            return None;
        }
        // A push that raced our scan bumped `pending` before taking this
        // lock; retry instead of parking past it.
        if pool.pending.load(SeqCst) > 0 {
            drop(sleep);
            continue;
        }
        // Off the hot path: the dispatch store never clears the tag, so
        // mark the worker idle only when it actually parks.
        prof.clear_tag();
        pool.stats.parks.fetch_add(1, Relaxed);
        ims_obs::static_counter!("sched.parks_total").incr();
        sleep.sleepers += 1;
        let (mut sleep, _) = pool
            .wakeup
            .wait_timeout(sleep, PARK_TIMEOUT)
            .unwrap_or_else(|e| e.into_inner());
        sleep.sleepers -= 1;
    }
}

/// Worker-side batch step: claim one job, re-enqueue the batch if jobs
/// remain (before running, so other workers can drain it concurrently),
/// then run the claimed job.
fn run_jobs(pool: &Pool, batch: Arc<JobBatch>) {
    let (job, more) = {
        let mut q = lock(&batch.jobs);
        let job = q.pop_front();
        (job, !q.is_empty())
    };
    if more {
        pool.push_task(TaskKind::Jobs(batch.clone()), false);
    }
    if let Some(job) = job {
        batch.run_one(job);
    }
}

fn run_node(pool: &Pool, node: Arc<Node>) {
    node.state.store(RUNNING, SeqCst);
    match node.poll() {
        Poll::Yield => {
            node.state.store(QUEUED, SeqCst);
            pool.push(node, false);
        }
        Poll::Complete => node.state.store(IDLE, SeqCst),
        Poll::Pending => {
            // A wake that landed mid-poll left the state RUNNING_DIRTY;
            // honour it by requeueing instead of idling.
            if node
                .state
                .compare_exchange(RUNNING, IDLE, SeqCst, SeqCst)
                .is_err()
            {
                node.state.store(QUEUED, SeqCst);
                pool.push(node, true);
            }
        }
    }
}

impl Pool {
    /// Records one dequeue event: the pool-local + global pop counters
    /// for `branch`, and the enqueue→dispatch dwell when stamped.
    fn note_pop(&self, local: &AtomicU64, global: &'static ims_obs::Counter, task: &Task) {
        local.fetch_add(1, Relaxed);
        global.incr();
        if task.enqueued_ns > 0 {
            let dwell = ims_obs::trace::now_ns().saturating_sub(task.enqueued_ns);
            self.stats.dwell_samples.fetch_add(1, Relaxed);
            ims_obs::static_histogram!("sched.queue_dwell_ns").record(dwell);
        }
    }

    fn pop(&self, me: usize) -> Option<Task> {
        {
            let mut q = lock(&self.shards[me].queue);
            if let Some(t) = q.lifo.take().or_else(|| q.fifo.pop_front()) {
                self.pending.fetch_sub(1, SeqCst);
                drop(q);
                self.note_pop(
                    &self.stats.local_pops,
                    ims_obs::static_counter!("sched.local_pops_total"),
                    &t,
                );
                return Some(t);
            }
        }
        if let Some(t) = lock(&self.injector).pop_front() {
            self.pending.fetch_sub(1, SeqCst);
            self.note_pop(
                &self.stats.injector_pops,
                ims_obs::static_counter!("sched.injector_pops_total"),
                &t,
            );
            return Some(t);
        }
        let n = self.shards.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(t) = lock(&self.shards[victim].queue).fifo.pop_back() {
                self.pending.fetch_sub(1, SeqCst);
                self.note_pop(
                    &self.stats.steals,
                    ims_obs::static_counter!("sched.steals_total"),
                    &t,
                );
                return Some(t);
            }
        }
        None
    }

    /// Enqueues a runnable node (see [`Pool::push_task`]).
    fn push(&self, node: Arc<Node>, to_lifo: bool) {
        self.push_task(TaskKind::Node(node), to_lifo);
    }

    /// Enqueues a task: onto the calling worker's shard (the LIFO slot
    /// for wakes, the FIFO for quantum yields), or the shared injector
    /// when called from outside the pool.
    fn push_task(&self, kind: TaskKind, to_lifo: bool) {
        let task = Task {
            kind,
            // Dwell is only meaningful with >1 worker competing for the
            // queues; a single-shard pool skips the timestamp entirely.
            enqueued_ns: if self.shards.len() > 1 {
                ims_obs::trace::now_ns()
            } else {
                0
            },
        };
        self.pending.fetch_add(1, SeqCst);
        let my_shard = WORKER.with(|w| match w.get() {
            Some((pool_id, shard)) if pool_id == self as *const Pool as usize => Some(shard),
            _ => None,
        });
        match my_shard {
            Some(shard) => {
                let mut q = lock(&self.shards[shard].queue);
                if to_lifo {
                    if let Some(evicted) = q.lifo.replace(task) {
                        q.fifo.push_front(evicted);
                    }
                } else {
                    q.fifo.push_back(task);
                }
            }
            None => lock(&self.injector).push_back(task),
        }
        let sleep = lock(&self.sleep);
        if sleep.sleepers > 0 {
            drop(sleep);
            self.wakeup.notify_one();
            self.stats.wakes.fetch_add(1, Relaxed);
            ims_obs::static_counter!("sched.wakes_total").incr();
        }
    }
}

// ---------------------------------------------------------------------
// Graph nodes as tasks
// ---------------------------------------------------------------------

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

enum Poll {
    /// Quantum exhausted with work left: requeue for fairness.
    Yield,
    /// Blocked on input or output: wait for the unblocking wake.
    Pending,
    /// This node will never run again.
    Complete,
}

/// Shared state of one scheduled run (one session).
struct RunCore {
    pool: Arc<Pool>,
    /// Per-node progress counters (index 0 = source), watchdog-polled.
    progress: Vec<AtomicU64>,
    /// Per-node completion flags, watchdog blame order.
    done: Vec<AtomicBool>,
    /// Watchdog fired: the source stops producing so the graph drains.
    cancel: AtomicBool,
    injector: Option<FaultInjector>,
    /// Collected output blocks (the sink; unbounded like the threaded
    /// executor's collector thread).
    sink: Mutex<Vec<DeconvolvedBlock>>,
    completed: Mutex<bool>,
    completed_cv: Condvar,
    /// Watchdog-recorded stalls; panics are gathered from the nodes at
    /// join so the error order (stalls first, then panics in stage
    /// order) matches the threaded executor's report contract.
    stall_errors: Mutex<Vec<PipelineError>>,
}

impl RunCore {
    fn finish(&self) {
        let mut c = lock(&self.completed);
        *c = true;
        drop(c);
        self.completed_cv.notify_all();
    }
}

/// A bounded message queue feeding one stage — the session's channel
/// credits for that hop.
struct Inbox {
    capacity: usize,
    q: Mutex<InboxQ>,
}

#[derive(Default)]
struct InboxQ {
    items: VecDeque<Message>,
    closed: bool,
}

impl Inbox {
    /// Pops one message; also reports closed-ness and the pre-pop depth
    /// (for queue accounting and full→not-full edge detection).
    fn pop(&self) -> (Option<Message>, bool, usize) {
        let mut q = lock(&self.q);
        let depth = q.items.len();
        (q.items.pop_front(), q.closed, depth)
    }
}

struct Node {
    state: AtomicU8,
    /// 0 = source, `i + 1` = stage `i`; indexes `progress`/`done`.
    index: usize,
    /// Profiler tag (`session, stage, -`) workers publish while polling
    /// this node (see [`ims_obs::prof`]).
    prof_tag: u32,
    /// `None` once the run has been joined and the body extracted.
    body: Mutex<Option<Body>>,
    /// `None` for the source.
    inbox: Option<Inbox>,
    /// `None` for the last stage (its output is the sink).
    downstream: Option<Arc<Node>>,
    /// Weak to break the `downstream` chain's reference cycle.
    upstream: OnceLock<Weak<Node>>,
    run: Arc<RunCore>,
}

/// A node's state, behind its lock while a worker polls it.
struct Body {
    /// The node's boundary recorder.
    meter: StageMeter,
    /// Messages awaiting downstream credit: the source's generated
    /// frame, or a stage's emissions.
    outbox: VecDeque<Message>,
    blocked_send_since: Option<Instant>,
    /// The caught panic that poisoned this node: a poisoned source stops
    /// producing, a poisoned stage drains its inbox without processing.
    panic: Option<String>,
    finished: bool,
    work: Work,
}

/// What a node runs: the frame source, or one stage.
enum Work {
    Source {
        source: FrameSource,
        frames: u64,
        next: u64,
    },
    Stage {
        stage: Box<dyn Stage>,
        flushed: bool,
        blocked_recv_since: Option<Instant>,
    },
}

impl Node {
    fn poll(self: &Arc<Self>) -> Poll {
        let mut guard = lock(&self.body);
        match guard.as_mut() {
            Some(b) if !b.finished => match b.work {
                Work::Source { .. } => self.poll_source(b),
                Work::Stage { .. } => self.poll_stage(b),
            },
            _ => Poll::Complete,
        }
    }

    fn poll_source(&self, b: &mut Body) -> Poll {
        let run = &self.run;
        let mut budget = QUANTUM;
        loop {
            if !self.drain(b) {
                return Poll::Pending;
            }
            let Work::Source {
                source,
                frames,
                next,
            } = &mut b.work
            else {
                unreachable!("a source node runs the source")
            };
            if b.panic.is_some() || run.cancel.load(Relaxed) || *next >= *frames {
                return self.finish(b);
            }
            if budget == 0 {
                return Poll::Yield;
            }
            budget -= 1;
            let i = *next;
            *next = i + 1;
            let meter = &mut b.meter;
            // An injected stall sleeps on this worker; the watchdog's
            // cancel breaks it mid-sleep, and the source stops.
            match catch_unwind(AssertUnwindSafe(|| {
                source_step(source, run.injector.as_ref(), meter, i)
            })) {
                Ok(SourceStep::Emit(msg)) => b.outbox.push_back(msg),
                Ok(SourceStep::Dropped) => {
                    run.progress[0].fetch_add(1, Relaxed);
                }
                Ok(SourceStep::Stopped) => *next = *frames,
                Err(payload) => b.panic = Some(panic_message(payload)),
            }
        }
    }

    fn poll_stage(&self, b: &mut Body) -> Poll {
        let run = &self.run;
        let inbox = self.inbox.as_ref().expect("stage nodes have an inbox");
        let mut budget = QUANTUM;
        loop {
            // 1. Drain the outbox first: downstream credit gates input.
            if !self.drain(b) {
                return Poll::Pending;
            }
            let Work::Stage {
                stage,
                flushed,
                blocked_recv_since,
            } = &mut b.work
            else {
                unreachable!("a stage node runs a stage")
            };
            let (meter, outbox) = (&mut b.meter, &mut b.outbox);
            // 2. One input message.
            let (popped, closed, depth) = inbox.pop();
            match popped {
                Some(msg) => {
                    if let Some(t) = blocked_recv_since.take() {
                        meter.blocked_recv += t.elapsed();
                    }
                    meter.ingress(&msg, Some(depth));
                    if depth == inbox.capacity {
                        // full → not-full edge: give upstream its credit
                        self.wake_upstream();
                    }
                    // A poisoned stage keeps consuming so upstream never
                    // wedges on a full inbox, but processes nothing.
                    if b.panic.is_none() {
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                            meter.process(stage.as_mut(), msg, &mut |m| outbox.push_back(m))
                        })) {
                            b.panic = Some(panic_message(p));
                        }
                    }
                    run.progress[self.index].fetch_add(1, Relaxed);
                    if budget == 0 {
                        return Poll::Yield;
                    }
                    budget -= 1;
                }
                None if closed => {
                    if b.panic.is_none() && !*flushed {
                        *flushed = true;
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                            meter.flush(stage.as_mut(), &mut |m| outbox.push_back(m))
                        })) {
                            b.panic = Some(panic_message(p));
                        }
                        continue; // drain whatever flush emitted
                    }
                    return self.finish(b);
                }
                None => {
                    blocked_recv_since.get_or_insert_with(Instant::now);
                    return Poll::Pending;
                }
            }
        }
    }

    /// Sends the outbox downstream in order, each message's egress
    /// recorded as it lands; `false` when downstream refused one (out of
    /// credit), which stays at the front of the outbox. Egress timestamps
    /// are taken before the push: a fast downstream may record its
    /// ingress the instant the push lands, and chains sort by timestamp.
    fn drain(&self, b: &mut Body) -> bool {
        while let Some(msg) = b.outbox.pop_front() {
            let ts = ims_obs::trace::now_ns();
            let meter = &mut b.meter;
            if let Err(msg) = self.push_downstream(msg, |m| meter.egress(m, ts)) {
                b.outbox.push_front(msg);
                b.blocked_send_since.get_or_insert_with(Instant::now);
                return false;
            }
            if self.inbox.is_none() {
                // The source's progress is frames handed off; a stage's
                // is inputs taken.
                self.run.progress[0].fetch_add(1, Relaxed);
            }
        }
        if let Some(t) = b.blocked_send_since.take() {
            b.meter.blocked_send += t.elapsed();
        }
        true
    }

    /// Marks the node finished and closes its output.
    fn finish(&self, b: &mut Body) -> Poll {
        b.finished = true;
        self.run.done[self.index].store(true, Relaxed);
        self.close_downstream();
        Poll::Complete
    }

    /// Offers a message downstream; `Err(msg)` hands it back when the
    /// inbox is out of credits. `sent` sees the message just before it
    /// lands. The last stage's output lands in the run's sink (unbounded,
    /// like the threaded collector).
    // `Err` is the rejected message itself, returned by value so the
    // caller can retry without an allocation — not an error payload.
    #[allow(clippy::result_large_err)]
    fn push_downstream(&self, msg: Message, sent: impl FnOnce(&Message)) -> Result<(), Message> {
        match &self.downstream {
            Some(next) => {
                let inbox = next.inbox.as_ref().expect("downstream has an inbox");
                {
                    let mut q = lock(&inbox.q);
                    if q.items.len() >= inbox.capacity {
                        return Err(msg);
                    }
                    sent(&msg);
                    q.items.push_back(msg);
                }
                next.wake(&self.run.pool);
                Ok(())
            }
            None => {
                sent(&msg);
                if let Message::Deconvolved(b) = msg {
                    lock(&self.run.sink).push(b);
                }
                Ok(())
            }
        }
    }

    /// Closes the downstream inbox (EOF) — or, from the last stage,
    /// declares the run complete.
    fn close_downstream(&self) {
        match &self.downstream {
            Some(next) => {
                lock(&next.inbox.as_ref().expect("downstream has an inbox").q).closed = true;
                next.wake(&self.run.pool);
            }
            None => self.run.finish(),
        }
    }

    fn wake_upstream(&self) {
        if let Some(up) = self.upstream.get().and_then(Weak::upgrade) {
            up.wake(&self.run.pool);
        }
    }

    /// Makes sure this node runs (again): queues it when idle, marks it
    /// dirty when mid-poll. Lost-wake-free: state changes are CAS'd and
    /// every producer-side mutation happens before the wake.
    fn wake(self: &Arc<Self>, pool: &Arc<Pool>) {
        loop {
            match self.state.load(SeqCst) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        pool.push(self.clone(), true);
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, RUNNING_DIRTY, SeqCst, SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                _ => return, // QUEUED | RUNNING_DIRTY: already rescheduled
            }
        }
    }
}

// ---------------------------------------------------------------------
// Spawning a pipeline onto the pool
// ---------------------------------------------------------------------

/// Submits a pipeline to `sched` and returns without waiting. Used by
/// `Pipeline::spawn_on` (and through it `run_threaded` and the session
/// manager).
pub(super) fn spawn(mut pipeline: Pipeline, sched: &Scheduler) -> ScheduledRun {
    assert!(!pipeline.stages.is_empty(), "pipeline has no stages");
    let meters = pipeline.arm(true);
    let start = Instant::now();
    // `capture` was already distributed to the source and stages by
    // `arm()`; the handle itself is not needed past this point.
    let Pipeline {
        source,
        stages,
        channel_depth,
        injector,
        supervisor,
        session,
        flight,
        capture: _,
    } = pipeline;
    let n = stages.len();
    let frames = source.frames();
    let names: Vec<String> = meters.iter().map(|m| m.name.to_string()).collect();

    let run = Arc::new(RunCore {
        pool: sched.pool.clone(),
        progress: (0..=n).map(|_| AtomicU64::new(0)).collect(),
        done: (0..=n).map(|_| AtomicBool::new(false)).collect(),
        cancel: AtomicBool::new(false),
        injector: injector.clone(),
        sink: Mutex::new(Vec::new()),
        completed: Mutex::new(false),
        completed_cv: Condvar::new(),
        stall_errors: Mutex::new(Vec::new()),
    });

    // Inbox capacity of stage i = the depth of the channel that fed it
    // under the threaded executor: `channel_depth` for stage 0, the
    // upstream stage's `output_depth` after that. These bounds are the
    // session's per-hop credits.
    let mut caps = Vec::with_capacity(n);
    caps.push(channel_depth);
    for s in stages.iter().take(n - 1) {
        caps.push(s.output_depth(channel_depth));
    }

    let work: Vec<Work> = std::iter::once(Work::Source {
        source,
        frames,
        next: 0,
    })
    .chain(stages.into_iter().map(|stage| Work::Stage {
        stage,
        flushed: false,
        blocked_recv_since: None,
    }))
    .collect();
    // Build back-to-front so each node owns an Arc to its downstream;
    // upstream links are Weak (the chain would otherwise be a cycle).
    let mut nodes: Vec<Arc<Node>> = Vec::with_capacity(n + 1);
    let mut downstream: Option<Arc<Node>> = None;
    for (index, (work, meter)) in work.into_iter().zip(meters).enumerate().rev() {
        let node = Arc::new(Node {
            state: AtomicU8::new(IDLE),
            index,
            prof_tag: ims_obs::prof::intern_tag(session.unwrap_or("-"), meter.name, "-"),
            body: Mutex::new(Some(Body {
                meter,
                outbox: VecDeque::new(),
                blocked_send_since: None,
                panic: None,
                finished: false,
                work,
            })),
            inbox: (index > 0).then(|| Inbox {
                capacity: caps[index - 1].max(1),
                q: Mutex::new(InboxQ::default()),
            }),
            downstream: downstream.take(),
            upstream: OnceLock::new(),
            run: run.clone(),
        });
        if let Some(next) = &node.downstream {
            let _ = next.upstream.set(Arc::downgrade(&node));
        }
        downstream = Some(node.clone());
        nodes.push(node);
    }
    nodes.reverse(); // index order: source, stage 0, …, stage n-1

    // Watchdog: its own thread per supervised run (the pool's workers
    // may all be busy — or sleeping inside an injected stall).
    let watchdog = supervisor.stall_timeout.map(|timeout| {
        let run = run.clone();
        let weak_nodes: Vec<Weak<Node>> = nodes.iter().map(Arc::downgrade).collect();
        std::thread::Builder::new()
            .name("sched-watchdog".into())
            .spawn(move || {
                ims_obs::set_thread_name("watchdog");
                let tick = (timeout / 4).max(Duration::from_millis(5)).min(timeout);
                let mut last: Vec<u64> = run.progress.iter().map(|p| p.load(Relaxed)).collect();
                let mut idle = Duration::ZERO;
                let mut completed = lock(&run.completed);
                loop {
                    let (guard, _) = run
                        .completed_cv
                        .wait_timeout(completed, tick)
                        .unwrap_or_else(|e| e.into_inner());
                    completed = guard;
                    if *completed || run.done.iter().all(|d| d.load(Relaxed)) {
                        return;
                    }
                    let now: Vec<u64> = run.progress.iter().map(|p| p.load(Relaxed)).collect();
                    if now != last {
                        last = now;
                        idle = Duration::ZERO;
                        continue;
                    }
                    idle += tick;
                    if idle < timeout {
                        continue;
                    }
                    // Stalled: blame the upstream-most unfinished node,
                    // break any injected stall, and let the graph drain.
                    let blamed = run.done.iter().position(|d| !d.load(Relaxed)).unwrap_or(0);
                    run.cancel.store(true, Relaxed);
                    if let Some(inj) = &run.injector {
                        inj.cancel();
                    }
                    ims_obs::static_counter!("pipeline.watchdog_stalls").incr();
                    ims_obs::instant("fault", "watchdog_stall");
                    lock(&run.stall_errors).push(PipelineError::StageStalled {
                        stage: names[blamed].clone(),
                        timeout_ms: timeout.as_millis() as u64,
                    });
                    drop(completed);
                    for w in &weak_nodes {
                        if let Some(node) = w.upgrade() {
                            node.wake(&run.pool);
                        }
                    }
                    return;
                }
            })
            .expect("spawn scheduler watchdog")
    });

    // Kick every node once: stages settle into Pending-on-input, the
    // source starts producing.
    for node in &nodes {
        node.wake(&sched.pool);
    }

    ScheduledRun {
        nodes,
        run,
        start,
        channel_depth,
        frames,
        injector,
        watchdog,
        flight,
        session,
    }
}

/// An in-flight scheduled run (one session's pipeline).
pub struct ScheduledRun {
    nodes: Vec<Arc<Node>>,
    run: Arc<RunCore>,
    start: Instant,
    channel_depth: usize,
    frames: u64,
    injector: Option<FaultInjector>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    flight: FlightConfig,
    session: Option<&'static str>,
}

impl ScheduledRun {
    /// Whether the graph has fully drained (join would not block).
    pub fn is_finished(&self) -> bool {
        *lock(&self.run.completed)
    }

    /// Waits for the graph to drain and assembles the same
    /// [`PipelineOutput`] contract the dedicated-thread executor
    /// produced: ordered blocks, per-stage meters, structured errors
    /// (stalls first, then panics in stage order), and the
    /// `RunOutcome` verdict.
    pub fn join(mut self) -> PipelineOutput {
        {
            let mut completed = lock(&self.run.completed);
            while !*completed {
                completed = self
                    .run
                    .completed_cv
                    .wait(completed)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let mut errors: Vec<PipelineError> = std::mem::take(&mut *lock(&self.run.stall_errors));
        let mut meters: Vec<StageMeter> = Vec::with_capacity(self.nodes.len());
        let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(self.nodes.len() - 1);
        for node in &self.nodes {
            let body = lock(&node.body).take().expect("node body taken once");
            if let Some(message) = body.panic {
                errors.push(PipelineError::StagePanicked {
                    stage: body.meter.name.into(),
                    message,
                });
            }
            meters.push(body.meter);
            if let Work::Stage { stage, .. } = body.work {
                stages.push(stage);
            }
        }
        let blocks = std::mem::take(&mut *lock(&self.run.sink));
        let mut report = PipelineReport::new("threaded");
        report.channel_depth = self.channel_depth;
        report.errors = errors;
        finish_report(
            &mut report,
            stages,
            meters,
            self.frames,
            blocks.len(),
            self.start,
            self.injector.as_ref(),
        );
        maybe_dump_flight(&mut report, &self.flight, self.session);
        PipelineOutput { blocks, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_batch_runs_every_job() {
        let sched = Scheduler::new(2);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        sched.run_batch(jobs);
        assert_eq!(hits.load(SeqCst), 64);
        sched.shutdown();
    }

    #[test]
    fn run_batch_borrows_caller_state() {
        // Jobs write into disjoint slices of a caller-owned buffer — the
        // pattern the batched deconvolver uses for its output slabs.
        let sched = Scheduler::new(2);
        let mut out = vec![0usize; 40];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(10)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(move || {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = i * 100 + k;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        sched.run_batch(jobs);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 10) * 100 + i % 10);
        }
        sched.shutdown();
    }

    #[test]
    fn run_batch_propagates_panics_after_completion() {
        let sched = Scheduler::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|i| {
                let completed = completed.clone();
                Box::new(move || {
                    if i == 3 {
                        panic!("job {i} exploded");
                    }
                    completed.fetch_add(1, SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| sched.run_batch(jobs)))
            .expect_err("batch with a panicking job must panic");
        let msg = panic_message(err);
        assert!(msg.contains("job 3 exploded"), "got: {msg}");
        // The other jobs still ran to completion first.
        assert_eq!(completed.load(SeqCst), 7);
        sched.shutdown();
    }

    #[test]
    fn run_batch_nested_submission_does_not_deadlock() {
        // A single-worker pool where a batch job itself submits a batch:
        // the inner caller drains its own jobs, so this must complete.
        let sched = Scheduler::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let inner_sched = sched.clone();
        let inner_hits = hits.clone();
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            let h = inner_hits.clone();
            inner_sched.run_batch(vec![Box::new(move || {
                h.fetch_add(1, SeqCst);
            }) as Box<dyn FnOnce() + Send>]);
            inner_hits.fetch_add(1, SeqCst);
        })];
        sched.run_batch(jobs);
        assert_eq!(hits.load(SeqCst), 2);
        sched.shutdown();
    }

    #[test]
    fn run_batch_empty_is_a_no_op() {
        let sched = Scheduler::new(1);
        sched.run_batch(Vec::new());
        sched.shutdown();
    }
}
