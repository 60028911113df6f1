//! The daemon's job queue: a bounded worker pool draining a priority heap of
//! experiments, with per-job cancellation, timeouts, and streamed events.
//!
//! Jobs are ordered by `(priority desc, submission seq asc)` — higher
//! priorities first, FIFO within a priority. Each job carries a cooperative
//! cancel flag wired into the grid runners' [`RunControl`]; cancellation and
//! timeouts therefore take effect at *cell* granularity (a multi-second cell
//! finishes before the flag is observed — cells that completed stay in the
//! memo, they are complete and correct). Every state change is fanned out to
//! the job's subscribers as [`JobEvent`]s over an `mpsc` channel; the daemon
//! turns those into protocol lines.

use crate::spec::Experiment;
use crate::store::ResultStore;
use pimba_system::obs::MetricsHub;
use pimba_system::sweep::RunControl;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Job identifier, unique within one daemon process.
pub type JobId = u64;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the heap, not yet claimed by a worker.
    Queued,
    /// Claimed and executing.
    Running,
    /// Finished; every record was streamed.
    Done,
    /// The runner panicked (the daemon survives; the job does not).
    Failed,
    /// Cancelled by request before completion.
    Cancelled,
    /// Cancelled by its deadline before completion.
    TimedOut,
}

impl JobState {
    /// Protocol name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One streamed job notification.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// `done` of `total` cells finished.
    Progress {
        /// Cells finished so far.
        done: usize,
        /// Total cells in the experiment.
        total: usize,
    },
    /// One canonical JSONL record line (see [`crate::spec`]).
    Record(String),
    /// The run's canonical JSONL event trace — emitted once, after the last
    /// record and before [`JobEvent::Done`], and only when the job was
    /// submitted with trace capture (the spec's `"trace": true`).
    Trace(String),
    /// Terminal: all records streamed.
    Done {
        /// Number of records produced.
        records: usize,
    },
    /// Terminal: the job panicked.
    Failed(String),
    /// Terminal: cancelled by request.
    Cancelled,
    /// Terminal: cancelled by deadline.
    TimedOut,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is shutting down and no longer accepts jobs.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    priority: i64,
    seq: u64,
    id: JobId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; earlier submission breaks ties.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct JobEntry {
    experiment: Experiment,
    trace: bool,
    state: JobState,
    cancel: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
    timeout: Option<Duration>,
    done: usize,
    total: usize,
    finished_seq: Option<u64>,
    subscribers: Vec<Sender<JobEvent>>,
}

#[derive(Default)]
struct HeapState {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
    draining: bool,
}

struct QueueInner {
    heap: Mutex<HeapState>,
    available: Condvar,
    jobs: Mutex<HashMap<JobId, JobEntry>>,
    next_id: AtomicU64,
    finish_counter: AtomicU64,
    store: ResultStore,
    metrics: MetricsHub,
    default_timeout: Option<Duration>,
}

impl QueueInner {
    /// Fans `event` out to the job's subscribers and applies its state
    /// transition. Terminal events drop the subscriber list (closing the
    /// streams).
    fn publish(&self, id: JobId, event: JobEvent) {
        self.publish_locked(&mut self.jobs.lock().unwrap(), id, event);
    }

    /// [`QueueInner::publish`] under an already held jobs lock.
    fn publish_locked(&self, jobs: &mut HashMap<JobId, JobEntry>, id: JobId, event: JobEvent) {
        let Some(job) = jobs.get_mut(&id) else {
            return;
        };
        match &event {
            JobEvent::Progress { done, total } => {
                job.done = *done;
                job.total = *total;
            }
            JobEvent::Done { .. } => job.state = JobState::Done,
            JobEvent::Failed(_) => job.state = JobState::Failed,
            JobEvent::Cancelled => job.state = JobState::Cancelled,
            JobEvent::TimedOut => job.state = JobState::TimedOut,
            JobEvent::Record(_) | JobEvent::Trace(_) => {}
        }
        job.subscribers
            .retain(|sub| sub.send(event.clone()).is_ok());
        if job.state.is_terminal() {
            if job.finished_seq.is_none() {
                job.finished_seq = Some(self.finish_counter.fetch_add(1, Ordering::Relaxed));
            }
            job.subscribers.clear();
        }
    }
}

/// The priority job queue and its worker pool. Dropping the queue without
/// [`JobQueue::shutdown`] aborts workers at the next heap wait (jobs in
/// flight still complete); prefer an explicit shutdown.
pub struct JobQueue {
    inner: Arc<QueueInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("jobs", &self.inner.jobs.lock().unwrap().len())
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Starts `workers` worker threads (clamped to ≥ 1) over `store`.
    /// `default_timeout` bounds jobs that do not set their own.
    pub fn start(store: ResultStore, workers: usize, default_timeout: Option<Duration>) -> Self {
        let inner = Arc::new(QueueInner {
            heap: Mutex::new(HeapState::default()),
            available: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            finish_counter: AtomicU64::new(0),
            store,
            metrics: MetricsHub::new(),
            default_timeout,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// The shared result store.
    pub fn store(&self) -> &ResultStore {
        &self.inner.store
    }

    /// The queue-wide metrics registry: every job's run publishes its series
    /// here (labelled per cell), for the protocol's `metrics` command. Being
    /// write-only from the runners, the registry never feeds back into
    /// results (see [`pimba_system::obs`]).
    pub fn metrics(&self) -> &MetricsHub {
        &self.inner.metrics
    }

    /// Enqueues an experiment. Returns the job id and the event stream (the
    /// submitter's subscription). Higher `priority` runs earlier.
    pub fn submit(
        &self,
        experiment: Experiment,
        priority: i64,
        timeout: Option<Duration>,
    ) -> Result<(JobId, Receiver<JobEvent>), SubmitError> {
        self.submit_traced(experiment, priority, timeout, false)
    }

    /// [`JobQueue::submit`] with opt-in trace capture: a `trace` job streams
    /// one [`JobEvent::Trace`] (the run's canonical JSONL event trace) after
    /// its records and before [`JobEvent::Done`].
    pub fn submit_traced(
        &self,
        experiment: Experiment,
        priority: i64,
        timeout: Option<Duration>,
        trace: bool,
    ) -> Result<(JobId, Receiver<JobEvent>), SubmitError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let total = experiment.total_cells();
        {
            let mut heap = self.inner.heap.lock().unwrap();
            if heap.draining {
                return Err(SubmitError::Draining);
            }
            let mut jobs = self.inner.jobs.lock().unwrap();
            jobs.insert(
                id,
                JobEntry {
                    experiment,
                    trace,
                    state: JobState::Queued,
                    cancel: Arc::new(AtomicBool::new(false)),
                    timed_out: Arc::new(AtomicBool::new(false)),
                    timeout: timeout.or(self.inner.default_timeout),
                    done: 0,
                    total,
                    finished_seq: None,
                    subscribers: vec![tx],
                },
            );
            let seq = heap.next_seq;
            heap.next_seq += 1;
            heap.heap.push(HeapEntry { priority, seq, id });
        }
        self.inner.available.notify_one();
        Ok((id, rx))
    }

    /// Requests cancellation. `true` if the job exists and was not already
    /// terminal; such a job ends cancelled. Queued jobs terminate
    /// immediately; running jobs stop at the next cell boundary, or, past
    /// the last one, end cancelled without streaming their records.
    pub fn cancel(&self, id: JobId) -> bool {
        let flagged = {
            let jobs = self.inner.jobs.lock().unwrap();
            match jobs.get(&id) {
                Some(job) if !job.state.is_terminal() => {
                    job.cancel.store(true, Ordering::SeqCst);
                    job.state == JobState::Queued
                }
                _ => return false,
            }
        };
        if flagged {
            // Still queued: the worker that eventually pops it would publish
            // Cancelled, but that could be arbitrarily late — do it now. The
            // worker skips entries whose state is already terminal.
            self.publish_if_not_terminal(id, JobEvent::Cancelled);
        }
        true
    }

    fn publish_if_not_terminal(&self, id: JobId, event: JobEvent) {
        let already = {
            let jobs = self.inner.jobs.lock().unwrap();
            jobs.get(&id).is_none_or(|job| job.state.is_terminal())
        };
        if !already {
            self.inner.publish(id, event);
        }
    }

    /// `(state, done, total)` of a job, if it exists.
    pub fn status(&self, id: JobId) -> Option<(JobState, usize, usize)> {
        let jobs = self.inner.jobs.lock().unwrap();
        jobs.get(&id).map(|job| (job.state, job.done, job.total))
    }

    /// The job's position in queue-wide completion order (0 = first job to
    /// reach a terminal state), or `None` while it is still queued/running.
    /// Unlike wall-clock comparisons this is race-free: the sequence is
    /// stamped under the jobs lock at the terminal transition.
    pub fn finish_seq(&self, id: JobId) -> Option<u64> {
        let jobs = self.inner.jobs.lock().unwrap();
        jobs.get(&id).and_then(|job| job.finished_seq)
    }

    /// Per-state job counts, for the `stats` command.
    pub fn state_counts(&self) -> Vec<(JobState, usize)> {
        let jobs = self.inner.jobs.lock().unwrap();
        let mut counts: Vec<(JobState, usize)> = Vec::new();
        for job in jobs.values() {
            match counts.iter_mut().find(|(s, _)| *s == job.state) {
                Some((_, n)) => *n += 1,
                None => counts.push((job.state, 1)),
            }
        }
        counts
    }

    /// Stops accepting submissions, cancels queued (unstarted) jobs, lets
    /// running jobs finish, joins every worker, and flushes the store to
    /// stable storage.
    pub fn shutdown(&self) {
        let queued: Vec<JobId> = {
            let mut heap = self.inner.heap.lock().unwrap();
            heap.draining = true;
            heap.heap.drain().map(|entry| entry.id).collect()
        };
        for id in queued {
            self.publish_if_not_terminal(id, JobEvent::Cancelled);
        }
        self.inner.available.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        let _ = self.inner.store.sync();
    }
}

fn worker_loop(inner: Arc<QueueInner>) {
    loop {
        let entry = {
            let mut heap = inner.heap.lock().unwrap();
            loop {
                if let Some(entry) = heap.heap.pop() {
                    break entry;
                }
                if heap.draining {
                    return;
                }
                heap = inner.available.wait(heap).unwrap();
            }
        };
        run_job(&inner, entry.id);
    }
}

fn run_job(inner: &Arc<QueueInner>, id: JobId) {
    // Claim: snapshot what the run needs and flip Queued → Running. A job
    // cancelled while queued is already terminal — skip it.
    let (experiment, trace, cancel, timed_out, timeout) = {
        let mut jobs = inner.jobs.lock().unwrap();
        let Some(job) = jobs.get_mut(&id) else { return };
        if job.state.is_terminal() {
            return;
        }
        job.state = JobState::Running;
        (
            job.experiment.clone(),
            job.trace,
            Arc::clone(&job.cancel),
            Arc::clone(&job.timed_out),
            job.timeout,
        )
    };

    let deadline = timeout.map(|t| Instant::now() + t);
    let progress_inner = Arc::clone(inner);
    let progress_cancel = Arc::clone(&cancel);
    let progress_timed_out = Arc::clone(&timed_out);
    let control = RunControl::new()
        .with_cancel(Arc::clone(&cancel))
        .with_metrics(inner.metrics.clone())
        .with_progress(Arc::new(move |done, total| {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    progress_timed_out.store(true, Ordering::SeqCst);
                    progress_cancel.store(true, Ordering::SeqCst);
                }
            }
            progress_inner.publish(id, JobEvent::Progress { done, total });
        }));

    // A panicking cell must not take the worker (and the daemon) down with
    // it; the runners' own threads propagate panics to this join point.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        experiment.run_traced(&inner.store, &control, trace)
    }));

    match outcome {
        Ok(Ok((lines, trace_jsonl))) => {
            // Decided under the jobs lock, which `JobQueue::cancel` also
            // takes: a cancel that reported success ends the job cancelled
            // even when it landed after the last cell boundary, and one that
            // comes later finds the job terminal.
            let mut jobs = inner.jobs.lock().unwrap();
            if cancel.load(Ordering::SeqCst) && !timed_out.load(Ordering::SeqCst) {
                inner.publish_locked(&mut jobs, id, JobEvent::Cancelled);
                return;
            }
            let records = lines.len();
            for line in lines {
                inner.publish_locked(&mut jobs, id, JobEvent::Record(line));
            }
            if let Some(trace) = trace_jsonl {
                inner.publish_locked(&mut jobs, id, JobEvent::Trace(trace));
            }
            inner.publish_locked(&mut jobs, id, JobEvent::Done { records });
            drop(jobs);
            // Results are on the heap already; make them durable eagerly so a
            // crash right after "done" still leaves a warm store.
            let _ = inner.store.sync();
        }
        Ok(Err(_aborted)) => {
            if timed_out.load(Ordering::SeqCst) {
                inner.publish(id, JobEvent::TimedOut);
            } else {
                inner.publish(id, JobEvent::Cancelled);
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            inner.publish(id, JobEvent::Failed(message));
        }
    }
}
