//! The fleet co-simulator: N per-replica `pimba-serve` engine sessions under
//! a front-door router, colocated or disaggregated.
//!
//! Each replica is one incrementally-steppable
//! [`Session`] of the single-replica engine — the same
//! event loop, schedulers, admission control and fast-forward machinery,
//! advanced here in co-simulation windows. All replicas of one run are
//! sessions of one `Engine`, so they share its dense latency memo: a shape one
//! replica evaluated is a lookup for every other.
//!
//! Every run enters through [`FleetSim::run_faulted`] ([`FleetSim::run`] is
//! the same call with an empty [`FaultPlan`]) and lands in one of four
//! drivers: per topology, one sequential **event loop** and one decoupled
//! free-run. An event loop pops one closed `FleetEvent` vocabulary —
//! arrival, fault, slowdown end, detection, resume, timeout check — in
//! `(time, creation-seq)` order and dispatches it at a single `match`. Trace
//! arrivals merge in from the sorted trace ahead of equal-time heap events,
//! so a fault-free run pushes nothing onto the heap; an empty plan is simply
//! a run in which no fault ever fires.
//!
//! At an arrival at `t` the [`Router`] reads replica loads through a
//! [`LoadProbe`]; the colocated loop answers a read by stepping *that*
//! replica to `t` (exclusive — see the `pimba-serve` engine docs for why the
//! exclusive horizon makes incremental feeding exact), then steps the chosen
//! replica to `t` and injects the request. Every other handler likewise
//! steps only the replicas it changes (a crash victim, a slowdown target, a
//! timeout's replica). Replicas nobody touched keep free-running past `t`
//! later: stepping a session to `t1` and then to `t2` is bit-identical to
//! stepping it straight to `t2`, so round robin steps each replica only at
//! its own arrivals and po2 steps two per arrival without changing a bit. A
//! colocated fleet of one replica therefore computes **bit-identically** to
//! a plain `Engine::run` over the same trace, and every replica of a larger
//! fleet to `Engine::run` over its routed sub-trace — the anchors the fleet
//! test-suite (and the `fleet_scale` bench, on every run) asserts. The
//! disaggregated loop steps its prefill pool to every event and routes from
//! load snapshots.
//!
//! # Disaggregated prefill/decode
//!
//! [`FleetMode::Disaggregated`] splits the fleet into a prefill pool and a
//! decode pool. The front door routes arrivals over the prefill pool, where a
//! request runs its prompt prefill plus the first decode step (producing the
//! first token — TTFT is paid here). Its decoding context — the SU-LLM state
//! and any KV cache, sized by
//! [`MemoryModel::dynamic_bytes`] in the system's storage formats — then
//! ships to a decode replica through the [`StateTransferModel`], arriving
//! `transfer_ns(bytes)` later; a second router (its own keyed PCG stream)
//! places it, and [`Session::inject_prefilled`] resumes decoding at full
//! context without re-prefilling. Handoffs are delivered in global
//! arrival-time order (completion windows between trace arrivals guarantee no
//! earlier handoff can appear later), so the co-simulation stays
//! deterministic for any worker-thread count of the grid runner above it.
//!
//! # Parallel intra-fleet execution
//!
//! Load-aware routers (JSQ, po2, tenant affinity) always run the event
//! loops above, whatever [`FleetConfig::workers`] says: each of their
//! decisions reads loads that depend on every earlier decision. Measured on
//! a 2-vCPU box, every parallel scheme tried for them (windowed lockstep,
//! optimistic chunked speculation) was 5–90× slower than the sequential
//! loop.
//!
//! A [load-oblivious](RouterKind::load_oblivious) router (round robin) with
//! `workers > 1` and an empty fault plan takes the **decoupled free-run**
//! over [`fleet_map`]: its
//! routing sequence is replayed up front against idle load snapshots (the
//! policy never reads them), the trace splits into per-replica injection
//! plans, and every replica free-runs to completion on `workers` threads
//! with no synchronization at all. Replica state is insensitive to *foreign*
//! horizons (stepping to an instant with nothing to inject is a bit-level
//! no-op), so dropping the other replicas' arrival horizons leaves its
//! result untouched. A disaggregated fleet free-runs its prefill pool,
//! rebuilds the handoff stream from the completions in global
//! `(completion, id)` order — the order the event loop queues them in — and
//! free-runs its decode pool over the deliveries. The result is
//! **bit-identical** to the event loop for any worker count
//! (asserted on every `fleet_parallel` bench run and by the parallel
//! property suite).
//!
//! # Fault tolerance & live migration
//!
//! [`FleetSim::run_faulted`] folds a deterministic
//! [`FaultPlan`] into the co-simulation: replica
//! crashes and restarts, transient slowdowns (per-replica compute-latency
//! multipliers) and handoff-link partitions, plus the recovery stack —
//! failure detection after a configurable lag, live migration of in-flight
//! requests, and bounded retry with exponential backoff. The migration path
//! maintains these invariants:
//!
//! * **An empty plan is the fault-free run.** [`FleetSim::run`] *is*
//!   `run_faulted` with an empty plan, and the fault handlers of the event
//!   loops only act when a fault fires, so they cannot perturb the
//!   fault-free fleet at any worker count (gated in
//!   `tests/parallel_equivalence.rs`, with a no-op slowdown as a second
//!   input, and on every `fleet_fault` bench run).
//! * **Faulted runs are sequential and bit-reproducible.** Migration moves
//!   state *between* replicas mid-run, which no fixed per-replica injection
//!   plan can express — so a non-empty plan always runs the topology's
//!   event loop, whatever `config.workers` says. A given
//!   `(system, model, trace, config, plan)` is therefore trivially
//!   bit-identical across worker counts, threads and repeats.
//! * **Causal global-time order.** Loop events (arrivals, faults,
//!   detections, migration deliveries, retries, timeouts) execute in
//!   `(time, creation-seq)` order; a replica is stepped to an event's
//!   instant before the event reads or changes it, so a migrated request
//!   can never resume earlier than the crash that evicted it.
//! * **Migration prices the state, and only the state.** A victim with `g`
//!   decoded tokens re-enters a survivor via `inject_prefilled` at context
//!   `prompt + g` after `transfer_ns(dynamic_bytes(1, prompt + g))` on the
//!   plan's migration link — the same `MemoryModel` bytes the disaggregated
//!   handoff ships, which is exactly where Pimba's constant-size state pays
//!   off against a GPU KV cache.
//! * **Zombie windows black-hole.** Between a crash and its detection the
//!   router still sees the victim's frozen load snapshot; requests routed
//!   there are lost-in-flight and re-enter recovery (as retries — the
//!   shipped state died with the zombie) when the detector fires. Dead
//!   replicas are excluded from routing after detection: load-aware policies
//!   simply never see them, and round-robin stays load-oblivious but skips
//!   them (it rotates over the live slice).
//! * **Recovered outcomes are trace-native.** After assembly, a migrated or
//!   retried request's outcome is patched back to its original arrival,
//!   prompt and output lengths — TTFT keeps the instant the *first* token
//!   was actually produced (pre-crash for migrations) — with
//!   `retries`/`migrations` counters recording the journey, so SLO math
//!   charges recovery delay honestly.
//!
//! # Observability without perturbation
//!
//! [`FleetSim::with_trace`] attaches a
//! [`TraceRecorder`]: the drivers then emit route
//! decisions (with the retry `attempt` from attempt 1 on), handoff
//! deliveries and the full fault
//! vocabulary (crash/detect/migrate/retry/restart/slowdown/timeout/
//! blackhole/lost) onto a `fleet` track, and every replica session records
//! its engine events onto a per-replica track. Sinks are **write-only**:
//! no driver or replica ever reads a recorded event back, so an attached
//! recorder cannot change a single bit of the simulation output — the same
//! no-perturbation invariant `pimba_system::obs` documents, gated here by
//! `tests/obs_identity.rs` alongside the bit-identity invariants above.

use crate::fault::{FaultError, FaultKind, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{FleetResult, ReplicaReport, ReplicaRole};
use crate::router::{streams, LoadProbe, ReplicaLoad, Router, RouterKind};
use pimba_models::config::ModelConfig;
use pimba_serve::engine::{CompletedRequest, DroppedRequest, Engine, EngineConfig, Session};
use pimba_serve::metrics::{PreemptionStats, RequestOutcome, SimResult, TelemetryStats};
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Trace, TraceRequest};
use pimba_system::memory::MemoryModel;
use pimba_system::obs::{profile_phase, TraceEvent, TraceRecorder, TraceSink};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::fleet_map;
use pimba_system::transfer::StateTransferModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How the fleet's replicas divide the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetMode {
    /// Every replica serves requests end to end.
    Colocated {
        /// Number of replicas.
        replicas: usize,
    },
    /// Prefill-pool replicas hand decoding requests to decode-pool replicas
    /// through a state-transfer latency model.
    Disaggregated {
        /// Replicas in the prefill pool.
        prefill_replicas: usize,
        /// Replicas in the decode pool.
        decode_replicas: usize,
        /// The prefill→decode state-handoff cost model.
        transfer: StateTransferModel,
    },
}

impl FleetMode {
    /// Total replica count.
    pub fn replicas(&self) -> usize {
        match *self {
            FleetMode::Colocated { replicas } => replicas,
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                ..
            } => prefill_replicas + decode_replicas,
        }
    }
}

/// One fleet simulation's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Replica topology.
    pub mode: FleetMode,
    /// Front-door routing policy (also used, on its own PCG stream, for the
    /// decode pool of a disaggregated fleet).
    pub router: RouterKind,
    /// Per-replica scheduling policy.
    pub policy: PolicyKind,
    /// Per-replica engine knobs (batch cap, memory budget, seq bucketing,
    /// fast-forward, timeline decimation).
    pub engine: EngineConfig,
    /// Seed of the router's sampling substreams.
    pub seed: u64,
    /// Worker threads of the decoupled free-run, which a
    /// [load-oblivious](RouterKind::load_oblivious) router takes when
    /// `workers > 1` and the fault plan is empty; every other run takes the
    /// topology's sequential event loop.
    /// Any value produces bit-identical results (see the module docs) — an
    /// execution knob, excluded from memo cell keys.
    pub workers: usize,
    /// Ignored: no driver reads it. It once selected between two parallel
    /// drivers for load-aware routers, which are gone; the field stays only
    /// until code that builds a `FleetConfig` by struct literal stops
    /// naming it.
    pub speculation: bool,
}

impl FleetConfig {
    /// A colocated fleet of `replicas` continuous-batching replicas under
    /// join-shortest-queue routing — chain field updates for anything else.
    pub fn colocated(replicas: usize) -> Self {
        Self {
            mode: FleetMode::Colocated { replicas },
            router: RouterKind::Jsq,
            policy: PolicyKind::Continuous,
            engine: EngineConfig::default(),
            seed: 0xF1EE7,
            workers: 0,
            speculation: true,
        }
    }
}

/// One replica's execution state: the engine session, its boxed scheduling
/// policy and its fault state — moved to a worker thread as a unit by the
/// decoupled free-run. Only the colocated event loop crashes or restarts a
/// replica; everywhere else the fault state keeps its initial values.
struct ReplicaRun<'a> {
    session: Session<'a>,
    scheduler: Box<dyn Scheduler>,
    /// False from a crash to the next restart. A dead replica keeps its
    /// drained session until the restart retires it.
    alive: bool,
    /// A dead replica stays *visible* to the router until detected.
    detected: bool,
    /// Bumped on every restart; stamps detection events so a detector racing
    /// a restart can't re-recover the new incarnation.
    incarnation: u32,
    /// Latest compute-scale change; stale `SlowEnd` events don't reset.
    slow_token: u64,
    /// In-flight requests dropped by the crash, awaiting detection.
    dropped: Vec<DroppedRequest>,
    /// Requests routed into the zombie window, awaiting detection.
    black_holed: Vec<usize>,
    /// Finished results of previous incarnations.
    retired: Vec<SimResult>,
}

impl ReplicaRun<'_> {
    /// Advances the replica through its events strictly before `horizon`.
    fn step_until(&mut self, horizon: f64) {
        self.session.step_until(horizon, self.scheduler.as_mut());
    }
}

/// A pool of co-simulated replicas of one engine (so they share its latency
/// memo), stepped together to a pool-wide horizon, one at a time through a
/// [`SteppingProbe`], or free-run to completion.
struct Pool<'a> {
    engine: &'a Engine<'a>,
    policy: PolicyKind,
    /// The trace's [`trace_bounds`], passed to every session.
    bounds: (usize, usize),
    /// Per-replica engine-event tracks, reattached to a restarted session.
    sinks: Vec<TraceSink>,
    replicas: Vec<ReplicaRun<'a>>,
    /// Per-replica loads as the router sees them. A dead replica's entry is
    /// the snapshot frozen at its crash, grown by the requests black-holed
    /// into it since.
    loads: Vec<ReplicaLoad>,
}

impl<'a> Pool<'a> {
    /// One replica per sink, each session recording its engine events onto
    /// its sink (write-only — see the module docs' no-perturbation
    /// invariant). `bounds` are the trace's [`trace_bounds`], which size the
    /// engine's latency memo if this pool opens its first session.
    fn new(
        engine: &'a Engine<'a>,
        policy: PolicyKind,
        bounds: (usize, usize),
        sinks: Vec<TraceSink>,
    ) -> Self {
        assert!(!sinks.is_empty(), "a pool needs at least one replica");
        let mut pool = Self {
            engine,
            policy,
            bounds,
            loads: vec![IDLE_LOAD; sinks.len()],
            sinks,
            replicas: Vec::new(),
        };
        pool.replicas = (0..pool.sinks.len())
            .map(|replica| ReplicaRun {
                session: pool.session(replica),
                scheduler: policy.build(),
                alive: true,
                detected: false,
                incarnation: 0,
                slow_token: 0,
                dropped: Vec::new(),
                black_holed: Vec::new(),
                retired: Vec::new(),
            })
            .collect();
        pool
    }

    /// A fresh session for `replica`, tracing onto its sink.
    fn session(&self, replica: usize) -> Session<'a> {
        let mut session = self.engine.session(self.bounds.0, self.bounds.1);
        session.set_trace(self.sinks[replica].clone());
        session
    }

    /// Advances every replica through its events strictly before `t`.
    fn step_until(&mut self, t: f64) {
        let _stepping = profile_phase("stepping");
        for replica in 0..self.replicas.len() {
            self.advance(replica, t);
        }
    }

    /// Advances one replica through its events strictly before `t`,
    /// refreshing its load entry as part of the same call (stepping is the
    /// only operation that can change `queue_depth`/`occupancy` or complete
    /// requests, so the entry stays exact between steps).
    fn advance(&mut self, replica: usize, t: f64) {
        let run = &mut self.replicas[replica];
        run.step_until(t);
        self.loads[replica] = session_load(&run.session);
    }

    /// [`Pool::advance`] for a single replica, timed as `stepping`.
    fn step_replica(&mut self, replica: usize, t: f64) {
        let _stepping = profile_phase("stepping");
        self.advance(replica, t);
    }

    /// The decoupled free-run: `inject(index, replica)` feeds each replica
    /// its whole injection plan, then the replica steps to completion, on up
    /// to `workers` threads. Load entries are refreshed by [`Pool::finish`].
    fn free_run(&mut self, workers: usize, inject: impl Fn(usize, &mut ReplicaRun<'a>) + Sync) {
        fleet_map(&mut self.replicas, workers, |replica, run| {
            inject(replica, run);
            run.step_until(f64::INFINITY);
        });
    }

    /// Injects one arrival into `replica`, updating its load entry in place:
    /// `outstanding` grows by exactly one, and nothing else changes (the
    /// arrival event is pending, so it is neither queued nor batched yet).
    fn inject(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.replicas[replica].session.inject(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// [`Pool::inject`] for a fully prefilled arrival (the decode side of a
    /// disaggregated handoff, or a live migration) — same incremental load
    /// bump.
    fn inject_prefilled(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.replicas[replica].session.inject_prefilled(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// Starts a slowdown of `replica` at `t`: steps it there, scales its
    /// compute latencies by `factor` and returns the token its end carries.
    fn slow_down(&mut self, replica: usize, t: f64, factor: f64) -> u64 {
        self.step_replica(replica, t);
        let run = &mut self.replicas[replica];
        run.session.set_compute_scale(factor);
        run.slow_token += 1;
        run.slow_token
    }

    /// Ends the slowdown `token` started, unless a later scale change (or a
    /// crash) superseded it.
    fn slow_end(&mut self, replica: usize, t: f64, token: u64) {
        let run = &self.replicas[replica];
        if run.alive && run.slow_token == token {
            self.step_replica(replica, t);
            self.replicas[replica].session.set_compute_scale(1.0);
        }
    }

    /// Steps a live `replica` to `t` and cancels request `id` if it is still
    /// waiting for admission there; the load entry follows the queue.
    fn cancel_queued(&mut self, replica: usize, id: usize, t: f64) -> bool {
        self.step_replica(replica, t);
        let session = &mut self.replicas[replica].session;
        let cancelled = session.cancel_queued(id);
        self.loads[replica] = session_load(session);
        cancelled
    }

    /// Kills `replica` at `t`: steps it there, freezes its load entry as the
    /// router's view of the zombie, and drops every incomplete request into
    /// `dropped`. Returns the incarnation that crashed.
    fn crash(&mut self, replica: usize, t: f64) -> u32 {
        self.step_replica(replica, t);
        let run = &mut self.replicas[replica];
        run.alive = false;
        run.detected = false;
        run.slow_token += 1;
        run.dropped = run.session.crash_drop();
        run.incarnation
    }

    /// Revives a dead `replica` with a fresh session and scheduler, retiring
    /// the crashed incarnation's result.
    fn restart(&mut self, replica: usize) {
        let session = self.session(replica);
        let run = &mut self.replicas[replica];
        let crashed = std::mem::replace(&mut run.session, session);
        run.retired.push(crashed.finish());
        run.scheduler = self.policy.build();
        run.alive = true;
        run.detected = false;
        run.incarnation += 1;
        run.slow_token += 1;
        self.loads[replica] = IDLE_LOAD;
    }

    /// The per-replica load snapshot, maintained *incrementally*: refreshed
    /// replica-by-replica while stepping and bumped on injection, instead of
    /// rebuilt from every session at every routing decision. In debug builds
    /// every read cross-checks against a full rebuild; the property test in
    /// this module pins the equivalence on randomized traces.
    fn loads(&self) -> &[ReplicaLoad] {
        debug_assert_eq!(
            self.loads,
            self.rebuilt_loads(),
            "incremental load snapshot diverged from a rebuild"
        );
        &self.loads
    }

    /// Rebuilds the load snapshot from the sessions — the reference the
    /// incremental snapshot is asserted against.
    fn rebuilt_loads(&self) -> Vec<ReplicaLoad> {
        self.replicas
            .iter()
            .map(|run| session_load(&run.session))
            .collect()
    }

    /// Drains every replica to completion and returns the per-replica
    /// results, each incarnation's merged into one.
    fn finish(mut self) -> Vec<SimResult> {
        self.step_until(f64::INFINITY);
        self.replicas
            .into_iter()
            .map(|mut run| {
                run.retired.push(run.session.finish());
                merge_sim_results(run.retired)
            })
            .collect()
    }
}

/// The colocated event loop's [`LoadProbe`] over the replicas the router can
/// see: reading a live replica's load first steps that replica to the
/// arrival instant `t`, so a router that reads fewer loads leaves more
/// replicas free-running (round robin steps none, po2 two; the loop then
/// steps the chosen replica before injecting). Stepping a replica to `t1`
/// and then to `t2` is bit-identical to stepping it straight to `t2`, so
/// which replicas a router reads never changes a result bit. An undetected
/// zombie answers its frozen load. The stepping is timed as `stepping`,
/// nested in `routing`.
struct SteppingProbe<'p, 'a> {
    pool: &'p mut Pool<'a>,
    visible: &'p [usize],
    t: f64,
}

impl LoadProbe for SteppingProbe<'_, '_> {
    fn replicas(&self) -> usize {
        self.visible.len()
    }

    /// The replica's incrementally maintained load entry after stepping it
    /// to `t`; debug builds cross-check a live one against a rebuild.
    fn load(&mut self, index: usize) -> ReplicaLoad {
        let replica = self.visible[index];
        if self.pool.replicas[replica].alive {
            self.pool.step_replica(replica, self.t);
            debug_assert_eq!(
                self.pool.loads[replica],
                session_load(&self.pool.replicas[replica].session),
                "incremental load of replica {replica} diverged from a rebuild"
            );
        }
        self.pool.loads[replica]
    }
}

/// A session's load as the router sees it.
fn session_load(session: &Session<'_>) -> ReplicaLoad {
    ReplicaLoad {
        outstanding: session.outstanding(),
        queue_depth: session.queue_depth(),
        occupancy: session.occupancy(),
    }
}

/// An idle load snapshot — a fresh session's, and what a load-oblivious
/// router is replayed against by the decoupled free-run (the policy never
/// reads it).
const IDLE_LOAD: ReplicaLoad = ReplicaLoad {
    outstanding: 0,
    queue_depth: 0,
    occupancy: 0,
};

/// A heap entry popped earliest-first, its creation sequence number breaking
/// timestamp ties (creation order is deterministic).
struct Timed<E> {
    time_ns: f64,
    seq: u64,
    item: E,
}

impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Timed<E> {}
impl<E> Ord for Timed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The prefill→decode handoffs in flight, request ids popped earliest-first
/// — the one place a handoff is priced. A request with more than one output
/// token departs its prefill replica at `departs_at(completion)` (the
/// completion instant, unless a link partition holds it) and reaches the
/// decode pool `transfer_ns(dynamic_bytes(1, prompt + 1))` later;
/// single-token requests never hand off. Sequence numbers follow
/// `(completion, id)` order and break delivery-time ties.
struct Handoffs<'a> {
    heap: BinaryHeap<Timed<usize>>,
    next_seq: u64,
    memory: MemoryModel<'a>,
    transfer: StateTransferModel,
}

impl<'a> Handoffs<'a> {
    fn new(memory: MemoryModel<'a>, transfer: StateTransferModel) -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            memory,
            transfer,
        }
    }

    /// Queues a handoff for every request `prefill` completed since the
    /// last call.
    fn collect(&mut self, prefill: &mut Pool<'_>, trace: &Trace, departs_at: impl Fn(f64) -> f64) {
        let mut fresh: Vec<CompletedRequest> = prefill
            .replicas
            .iter_mut()
            .flat_map(|run| run.session.drain_completions())
            .collect();
        fresh.sort_by(|a, b| {
            a.completion_ns
                .total_cmp(&b.completion_ns)
                .then_with(|| a.id.cmp(&b.id))
        });
        for done in fresh {
            let original = trace.requests[done.id];
            if original.output_len <= 1 {
                continue;
            }
            let bytes = self.memory.dynamic_bytes(1, original.prompt_len + 1);
            self.heap.push(Timed {
                time_ns: departs_at(done.completion_ns) + self.transfer.transfer_ns(bytes),
                seq: self.next_seq,
                item: done.id,
            });
            self.next_seq += 1;
        }
    }

    /// The earliest queued handoff, if it arrives strictly before `t`.
    fn pop_before(&mut self, t: f64) -> Option<Timed<usize>> {
        if self.heap.peek()?.time_ns < t {
            self.heap.pop()
        } else {
            None
        }
    }
}

/// One event of a fleet event loop — the single dispatch vocabulary of both
/// topologies (the disaggregated loop sees only arrivals and slowdowns).
enum FleetEvent {
    /// Trace request `id` arrives at the front door.
    Arrival(usize),
    /// `plan.events[index]` fires.
    Fault(usize),
    /// A slowdown window on `replica` ends — stale unless `token` still names
    /// the latest scale change.
    SlowEnd { replica: usize, token: u64 },
    /// The failure detector notices `replica`'s crash — stale if the replica
    /// restarted (new incarnation) or was already handled.
    Detect { replica: usize, incarnation: u32 },
    /// Request `id` re-enters the fleet (migration delivery or retry) —
    /// stale if a newer attempt superseded it.
    Resume {
        id: usize,
        attempt: u32,
        generated: usize,
    },
    /// Request `id`'s queue-wait deadline expires — acts only if the request
    /// is still queued (unadmitted) on a live replica.
    TimeoutCheck { id: usize, attempt: u32 },
}

/// A fleet event loop's queue, popped in `(time, seq)` order: the plan's
/// faults and every event a handler schedules ride a heap, and the
/// time-sorted trace's arrivals merge in ahead of equal-time heap events —
/// the order of pushing every arrival first, without a heap push or pop per
/// arrival.
struct EventQueue<'t> {
    arrivals: &'t [TraceRequest],
    next_arrival: usize,
    heap: BinaryHeap<Timed<FleetEvent>>,
    seq: u64,
}

impl<'t> EventQueue<'t> {
    /// Seeds the plan's faults that `keep` selects. A fault's sequence
    /// number is its plan index, so simultaneous faults fire in plan order,
    /// ahead of every event a handler schedules.
    fn new(trace: &'t Trace, plan: &FaultPlan, keep: impl Fn(FaultKind) -> bool) -> Self {
        let heap = plan
            .events
            .iter()
            .enumerate()
            .filter(|(_, fault)| keep(fault.kind))
            .map(|(index, fault)| Timed {
                time_ns: fault.time_ns,
                seq: index as u64,
                item: FleetEvent::Fault(index),
            })
            .collect();
        Self {
            arrivals: &trace.requests,
            next_arrival: 0,
            heap,
            seq: plan.events.len() as u64,
        }
    }

    fn push(&mut self, time_ns: f64, item: FleetEvent) {
        self.heap.push(Timed {
            time_ns,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// The next event and its instant.
    fn pop(&mut self) -> Option<(f64, FleetEvent)> {
        if let Some(request) = self.arrivals.get(self.next_arrival) {
            let t = request.arrival_ns;
            if self
                .heap
                .peek()
                .is_none_or(|top| t.total_cmp(&top.time_ns).is_le())
            {
                self.next_arrival += 1;
                return Some((t, FleetEvent::Arrival(self.next_arrival - 1)));
            }
        }
        self.heap.pop().map(|top| (top.time_ns, top.item))
    }
}

/// Recovery bookkeeping for one trace request.
#[derive(Clone, Copy)]
struct Track {
    /// Current attempt; 0 until the first retry. Resume/timeout events
    /// carrying an older attempt are stale.
    attempt: u32,
    retries: u32,
    migrations: u32,
    /// Tokens already generated before the current placement (migrated-in
    /// context beyond the prompt).
    resumed_generated: usize,
    /// Replica currently holding the request, if any.
    location: Option<usize>,
    /// Earliest observed first-token instant across incarnations (NaN until
    /// one is seen); migrated requests keep their pre-crash TTFT.
    first_token_ns: f64,
    lost: bool,
    /// Whether the outcome needs trace-native patching at assembly.
    touched: bool,
}

impl Track {
    const NEW: Track = Track {
        attempt: 0,
        retries: 0,
        migrations: 0,
        resumed_generated: 0,
        location: None,
        first_token_ns: f64::NAN,
        lost: false,
        touched: false,
    };
}

/// The colocated event loop (module docs) and its world: the replica pool,
/// the replicas the router can see, request tracks, the event queue and the
/// recovery counters. Arrivals, faults, detections, migration deliveries,
/// retries and timeouts run in `(time, seq)` order, each handler stepping
/// only the replicas it reads or changes. With an empty plan only arrivals
/// ever fire, and each steps just the replicas its router reads plus the
/// one it picks.
struct ColocatedLoop<'a, 'p> {
    pool: Pool<'a>,
    /// Replicas the router can see, ascending: live ones plus undetected
    /// zombies. Updated on detection and restart.
    visible: Vec<usize>,
    router: Box<dyn Router>,
    events: EventQueue<'p>,
    tracks: Vec<Track>,
    stats: FaultStats,
    /// Requests with no visible replica to route to, flushed at the next
    /// restart: `(id, attempt, generated)`.
    hold: Vec<(usize, u32, usize)>,
    assignment: Vec<u32>,
    plan: &'p FaultPlan,
    trace: &'p Trace,
    memory: MemoryModel<'a>,
    /// The fleet-level trace track (route/fault/recovery events).
    sink: TraceSink,
}

impl<'a, 'p> ColocatedLoop<'a, 'p> {
    /// A fleet of `replicas` fresh replicas of `engine`, every arrival of
    /// `trace` and every fault of `plan` pending.
    fn new(
        fleet: &FleetSim<'a>,
        engine: &'a Engine<'a>,
        trace: &'p Trace,
        replicas: usize,
        config: &FleetConfig,
        plan: &'p FaultPlan,
    ) -> Self {
        Self {
            pool: Pool::new(
                engine,
                config.policy,
                trace_bounds(trace),
                fleet.replica_sinks("replica", replicas),
            ),
            visible: (0..replicas).collect(),
            router: config.router.build(config.seed, streams::ROUTER_FRONT, 0),
            events: EventQueue::new(trace, plan, |_| true),
            tracks: vec![Track::NEW; trace.len()],
            stats: FaultStats::default(),
            hold: Vec::new(),
            assignment: vec![u32::MAX; trace.len()],
            plan,
            trace,
            memory: MemoryModel::new(fleet.sim.config(), fleet.model),
            sink: fleet.fleet_sink(),
        }
    }

    /// Runs every event in `(time, seq)` order, then drains the replicas.
    fn run(mut self) -> FleetResult {
        while let Some((t, event)) = self.events.pop() {
            match event {
                FleetEvent::Arrival(id) => self.place(id, 0, t),
                FleetEvent::Fault(index) => self.apply_fault(index, t),
                FleetEvent::SlowEnd { replica, token } => self.pool.slow_end(replica, t, token),
                FleetEvent::Detect {
                    replica,
                    incarnation,
                } => self.detect(replica, incarnation, t),
                FleetEvent::Resume {
                    id,
                    attempt,
                    generated,
                } => {
                    let track = &self.tracks[id];
                    if !track.lost && track.attempt == attempt {
                        self.place(id, generated, t);
                    }
                }
                FleetEvent::TimeoutCheck { id, attempt } => self.timeout_check(id, attempt, t),
            }
        }
        self.finish()
    }

    /// Routes request `id` (resuming with `generated` tokens of context) at
    /// time `t`. Requests routed into an undetected zombie black-hole until
    /// the detector fires; with every replica dead *and* detected, the
    /// request holds at the front door until a restart.
    fn place(&mut self, id: usize, generated: usize, t: f64) {
        if self.visible.is_empty() {
            let attempt = self.tracks[id].attempt;
            self.hold.push((id, attempt, generated));
            return;
        }
        let original = self.trace.requests[id];
        let request = TraceRequest {
            arrival_ns: t,
            prompt_len: original.prompt_len + generated,
            output_len: original.output_len - generated,
            ..original
        };
        let choice = {
            let _routing = profile_phase("routing");
            let mut probe = SteppingProbe {
                pool: &mut self.pool,
                visible: &self.visible,
                t,
            };
            self.router.route(id, &request, &mut probe)
        };
        assert!(
            choice < self.visible.len(),
            "router returned replica {choice}"
        );
        let target = self.visible[choice];
        let attempt = self.tracks[id].attempt;
        self.sink.emit(|| {
            let route = TraceEvent::instant("route", t, id as u64).arg("replica", target as f64);
            if attempt > 0 {
                route.arg("attempt", attempt as f64)
            } else {
                route
            }
        });
        if self.assignment[id] == u32::MAX {
            self.assignment[id] = target as u32;
        }
        self.tracks[id].location = Some(target);
        if !self.pool.replicas[target].alive {
            // Zombie window: the request (and any shipped state) vanishes
            // until the failure detector fires; its frozen load grows so
            // load-aware routers steer away from the pile-up.
            self.pool.replicas[target].black_holed.push(id);
            self.pool.loads[target].outstanding += 1;
            self.pool.loads[target].queue_depth += 1;
            self.stats.black_holed += 1;
            self.sink.emit(|| {
                TraceEvent::instant("blackhole", t, id as u64).arg("replica", target as f64)
            });
            return;
        }
        self.pool.step_replica(target, t);
        if generated > 0 {
            self.pool.inject_prefilled(target, id, request);
        } else {
            self.pool.inject(target, id, request);
        }
        self.tracks[id].resumed_generated = generated;
        if self.plan.retry.timeout_ns > 0.0 {
            self.events.push(
                t + self.plan.retry.timeout_ns,
                FleetEvent::TimeoutCheck { id, attempt },
            );
        }
    }

    /// Consumes one retry attempt for `id` (or marks it lost), scheduling the
    /// re-entry after backoff + deterministic jitter.
    fn retry_or_lose(&mut self, id: usize, t: f64) {
        let next = self.tracks[id].attempt + 1;
        if self.plan.recovery == RecoveryPolicy::None || next > self.plan.retry.max_attempts {
            self.tracks[id].lost = true;
            self.tracks[id].touched = true;
            self.stats.lost += 1;
            self.sink.emit(|| TraceEvent::instant("lost", t, id as u64));
            return;
        }
        let track = &mut self.tracks[id];
        track.attempt = next;
        track.retries += 1;
        track.touched = true;
        track.resumed_generated = 0;
        track.first_token_ns = f64::NAN;
        self.stats.retries += 1;
        let at = t + self.plan.retry.backoff_ns(self.plan.seed, id, next);
        self.sink
            .emit(|| TraceEvent::span("retry", t, at - t, id as u64).arg("attempt", next as f64));
        self.events.push(
            at,
            FleetEvent::Resume {
                id,
                attempt: next,
                generated: 0,
            },
        );
    }

    /// Handles a request lost from a replica (crash-drop or black-hole):
    /// live-migrate its generated state to a survivor if the policy allows
    /// and progress exists, otherwise retry from scratch.
    fn handle_loss(&mut self, id: usize, generated_here: usize, first_token_ns: f64, t: f64) {
        self.tracks[id].location = None;
        if self.tracks[id].lost {
            return;
        }
        let cumulative = self.tracks[id].resumed_generated + generated_here;
        let original = self.trace.requests[id];
        if self.plan.recovery == RecoveryPolicy::Migrate
            && cumulative >= 1
            && cumulative < original.output_len
        {
            let track = &mut self.tracks[id];
            track.migrations += 1;
            track.touched = true;
            if !track.first_token_ns.is_finite() && first_token_ns.is_finite() {
                track.first_token_ns = first_token_ns;
            }
            let attempt = track.attempt;
            self.stats.migrations += 1;
            let bytes = self
                .memory
                .dynamic_bytes(1, original.prompt_len + cumulative);
            self.stats.migrated_bytes += bytes;
            let at = t + self.plan.migration_link.transfer_ns(bytes);
            self.sink.emit(|| {
                TraceEvent::span("migrate", t, at - t, id as u64)
                    .arg("bytes", bytes)
                    .arg("generated", cumulative as f64)
            });
            self.events.push(
                at,
                FleetEvent::Resume {
                    id,
                    attempt,
                    generated: cumulative,
                },
            );
        } else {
            self.retry_or_lose(id, t);
        }
    }

    fn crash(&mut self, victim: usize, t: f64) {
        if !self.pool.replicas[victim].alive {
            return;
        }
        self.stats.crashes += 1;
        let incarnation = self.pool.crash(victim, t);
        let dropped = &self.pool.replicas[victim].dropped;
        for d in dropped {
            self.tracks[d.id].location = None;
        }
        self.sink.emit(|| {
            TraceEvent::instant("crash", t, victim as u64)
                .arg("replica", victim as f64)
                .arg("dropped", dropped.len() as f64)
        });
        self.events.push(
            t + self.plan.detection_latency_ns,
            FleetEvent::Detect {
                replica: victim,
                incarnation,
            },
        );
    }

    /// The failure detector fires: unless the replica restarted or was
    /// already handled, it leaves the router's view and recovery runs.
    fn detect(&mut self, replica: usize, incarnation: u32, t: f64) {
        let run = &mut self.pool.replicas[replica];
        if run.alive || run.detected || run.incarnation != incarnation {
            return;
        }
        run.detected = true;
        self.visible.retain(|&r| r != replica);
        self.recover(replica, t);
    }

    /// Runs recovery for a detected crash: every request the replica held
    /// (dropped in-flight, or black-holed during the zombie window) re-enters
    /// through migration or retry.
    fn recover(&mut self, replica: usize, t: f64) {
        let dropped = std::mem::take(&mut self.pool.replicas[replica].dropped);
        let black = std::mem::take(&mut self.pool.replicas[replica].black_holed);
        self.sink.emit(|| {
            TraceEvent::instant("detect", t, replica as u64)
                .arg("replica", replica as f64)
                .arg("dropped", dropped.len() as f64)
                .arg("black_holed", black.len() as f64)
        });
        for d in dropped {
            self.handle_loss(d.id, d.generated, d.first_token_ns, t);
        }
        for id in black {
            // State shipped into the zombie died with it: restart from
            // scratch, whatever progress the pre-crash incarnations made.
            self.tracks[id].resumed_generated = 0;
            self.handle_loss(id, 0, f64::NAN, t);
        }
    }

    fn restart(&mut self, replica: usize, t: f64) {
        if self.pool.replicas[replica].alive {
            return;
        }
        if !self.pool.replicas[replica].detected {
            // The replacement raced the detector: the fleet learns of the
            // loss now, so recovery triggers here.
            self.pool.replicas[replica].detected = true;
            self.recover(replica, t);
        }
        if let Err(slot) = self.visible.binary_search(&replica) {
            self.visible.insert(slot, replica);
        }
        self.stats.restarts += 1;
        self.sink.emit(|| {
            TraceEvent::instant("restart", t, replica as u64).arg("replica", replica as f64)
        });
        self.pool.restart(replica);
        for (id, attempt, generated) in std::mem::take(&mut self.hold) {
            self.events.push(
                t,
                FleetEvent::Resume {
                    id,
                    attempt,
                    generated,
                },
            );
        }
    }

    fn apply_fault(&mut self, index: usize, t: f64) {
        match self.plan.events[index].kind {
            FaultKind::Crash { replica } => self.crash(replica, t),
            FaultKind::Restart { replica } => self.restart(replica, t),
            FaultKind::Slowdown {
                replica,
                factor,
                duration_ns,
            } => {
                if !self.pool.replicas[replica].alive {
                    return;
                }
                self.stats.slowdowns += 1;
                self.sink.emit(|| {
                    TraceEvent::span("slowdown", t, duration_ns, replica as u64)
                        .arg("replica", replica as f64)
                        .arg("factor", factor)
                });
                let token = self.pool.slow_down(replica, t, factor);
                self.events
                    .push(t + duration_ns, FleetEvent::SlowEnd { replica, token });
            }
            FaultKind::LinkDown { .. } => {
                unreachable!("validated: colocated plans carry no link faults")
            }
        }
    }

    fn timeout_check(&mut self, id: usize, attempt: u32, t: f64) {
        let track = &self.tracks[id];
        if track.lost || track.attempt != attempt {
            return;
        }
        let Some(location) = track.location else {
            return;
        };
        if !self.pool.replicas[location].alive {
            return; // the crash path owns recovery of this request
        }
        if !self.pool.cancel_queued(location, id, t) {
            return; // admitted (or finished) before the deadline
        }
        self.stats.timeouts += 1;
        self.sink
            .emit(|| TraceEvent::instant("timeout", t, id as u64).arg("replica", location as f64));
        self.tracks[id].location = None;
        // Timed-out requests always take the retry path: they made no
        // progress while queued, and bounding attempts keeps the loop
        // finite even under Migrate.
        self.retry_or_lose(id, t);
    }

    /// Drains the replicas and assembles the fleet result.
    fn finish(mut self) -> FleetResult {
        // Requests still held never saw a live replica again: lost.
        for (id, _, _) in std::mem::take(&mut self.hold) {
            if !self.tracks[id].lost {
                self.tracks[id].lost = true;
                self.stats.lost += 1;
            }
        }
        let mut out = colocated_result(self.pool.finish(), self.assignment);
        // Patch recovered outcomes back to trace-native shape: original
        // arrival and lengths, the true first-token instant for migrations,
        // and the recovery counters.
        for o in out.outcomes.iter_mut() {
            let track = &self.tracks[o.id];
            if track.touched {
                let original = self.trace.requests[o.id];
                o.arrival_ns = original.arrival_ns;
                o.prompt_len = original.prompt_len;
                o.output_len = original.output_len;
                if track.first_token_ns.is_finite() {
                    o.first_token_ns = track.first_token_ns;
                }
                o.retries = track.retries;
                o.migrations = track.migrations;
            }
        }
        out.fault = self.stats;
        out
    }
}

/// Merges one replica's per-incarnation results (one per crash/restart cycle
/// plus the final drain) into a single [`SimResult`]: outcomes concatenate
/// (sorted by id — at most one completion per request exists fleet-wide),
/// timelines concatenate in time order, peaks max, counters sum, and the mean
/// occupancy is the event-weighted mean of the parts.
fn merge_sim_results(mut parts: Vec<SimResult>) -> SimResult {
    assert!(!parts.is_empty(), "a replica always retires one result");
    if parts.len() == 1 {
        return parts.pop().expect("length checked");
    }
    let mut outcomes = Vec::new();
    let mut timeline = Vec::new();
    let mut makespan_ns = 0.0f64;
    let mut telemetry = TelemetryStats::default();
    let mut preemption = PreemptionStats::default();
    let mut weighted_occupancy = 0.0;
    for part in parts {
        outcomes.extend(part.outcomes);
        timeline.extend(part.timeline);
        makespan_ns = makespan_ns.max(part.makespan_ns);
        let t = part.telemetry;
        telemetry.events += t.events;
        telemetry.peak_queue_depth = telemetry.peak_queue_depth.max(t.peak_queue_depth);
        telemetry.peak_batch_occupancy = telemetry.peak_batch_occupancy.max(t.peak_batch_occupancy);
        weighted_occupancy += t.mean_batch_occupancy * t.events as f64;
        let p = part.preemption;
        preemption.evictions += p.evictions;
        preemption.resumes += p.resumes;
        preemption.checkpoint_bytes += p.checkpoint_bytes;
        preemption.restore_bytes += p.restore_bytes;
        preemption.checkpoint_stall_ns += p.checkpoint_stall_ns;
        preemption.restore_stall_ns += p.restore_stall_ns;
    }
    telemetry.mean_batch_occupancy = if telemetry.events > 0 {
        weighted_occupancy / telemetry.events as f64
    } else {
        0.0
    };
    outcomes.sort_by_key(|o| o.id);
    SimResult {
        outcomes,
        timeline,
        makespan_ns,
        telemetry,
        preemption,
    }
}

/// The cluster-level simulator for one (system, model) pair.
pub struct FleetSim<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    recorder: Option<Arc<TraceRecorder>>,
    trace_prefix: String,
}

impl<'a> FleetSim<'a> {
    /// A fleet of replicas of `sim` serving `model`. All replicas share the
    /// simulator.
    pub fn new(sim: &'a ServingSimulator, model: &'a ModelConfig) -> Self {
        Self {
            sim,
            model,
            recorder: None,
            trace_prefix: String::new(),
        }
    }

    /// Records every run onto `recorder`: driver events (routes, handoffs,
    /// faults, recovery) on a `fleet` track plus one engine-event
    /// track per replica. Write-only — an attached recorder never changes
    /// the simulation output (module docs).
    pub fn with_trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Prepends `prefix` to every track name this fleet registers — how a
    /// grid runner sharing one recorder across cells keeps track names
    /// unique (duplicate names would fold together on a JSONL re-parse).
    pub fn with_trace_prefix(mut self, prefix: &str) -> Self {
        self.trace_prefix = prefix.to_string();
        self
    }

    /// The driver-level trace sink (disabled when no recorder is attached).
    fn fleet_sink(&self) -> TraceSink {
        match &self.recorder {
            Some(recorder) => recorder.track(&format!("{}fleet", self.trace_prefix)),
            None => TraceSink::disabled(),
        }
    }

    /// One sink per replica, named `{prefix} {index}` — all disabled when no
    /// recorder is attached.
    fn replica_sinks(&self, prefix: &str, count: usize) -> Vec<TraceSink> {
        match &self.recorder {
            Some(recorder) => (0..count)
                .map(|i| recorder.track(&format!("{}{prefix} {i}", self.trace_prefix)))
                .collect(),
            None => vec![TraceSink::disabled(); count],
        }
    }

    /// Runs `trace` through the fleet: [`FleetSim::run_faulted`] with an
    /// empty plan. Deterministic in `(system, model, trace, config)`; a
    /// single-replica colocated fleet is bit-identical to `Engine::run` on
    /// the same trace.
    ///
    /// # Panics
    /// With the message of the [`FaultError`] `run_faulted` returns for an
    /// invalid input: an unsorted trace or a non-finite arrival, a colocated
    /// fleet of zero replicas, or an empty prefill or decode pool.
    pub fn run(&self, trace: &Trace, config: &FleetConfig) -> FleetResult {
        self.run_faulted(trace, config, &FaultPlan::default())
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Runs `trace` through the fleet under a [`FaultPlan`]: scheduled
    /// crashes/restarts/slowdowns (colocated) or slowdowns/link partitions
    /// (disaggregated), with the recovery stack — detection lag, live
    /// migration, bounded retry — layered on top. See the module docs for
    /// the migration-path invariants.
    ///
    /// Every run enters here. A [load-oblivious](RouterKind::load_oblivious)
    /// router with `config.workers > 1` and an [empty](FaultPlan::is_empty)
    /// plan takes the decoupled free-run; everything else runs the
    /// topology's sequential event loop, where an empty plan simply never
    /// fires a fault. A time-unsorted trace or one with a non-finite
    /// arrival, an empty replica pool, or a structurally impossible plan
    /// returns a [`FaultError`] naming the offending field.
    pub fn run_faulted(
        &self,
        trace: &Trace,
        config: &FleetConfig,
        plan: &FaultPlan,
    ) -> Result<FleetResult, FaultError> {
        check_inputs(trace, config.mode)?;
        let disaggregated = matches!(config.mode, FleetMode::Disaggregated { .. });
        plan.validate(config.mode.replicas(), disaggregated)?;
        let decoupled = plan.is_empty() && config.workers > 1 && config.router.load_oblivious();
        Ok(match config.mode {
            FleetMode::Colocated { replicas } if decoupled && replicas > 1 => {
                self.run_colocated_decoupled(trace, replicas, config)
            }
            FleetMode::Colocated { replicas } => {
                let engine = Engine::new(self.sim, self.model, config.engine);
                ColocatedLoop::new(self, &engine, trace, replicas, config, plan).run()
            }
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                transfer,
            } if decoupled => self.run_disaggregated_decoupled(
                trace,
                prefill_replicas,
                decode_replicas,
                transfer,
                config,
            ),
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                transfer,
            } => self.disaggregated_event_loop(
                trace,
                prefill_replicas,
                decode_replicas,
                transfer,
                config,
                plan,
            ),
        })
    }

    /// The disaggregated event loop: before each event acts, the prefill
    /// pool steps to its instant and every handoff that lands earlier is
    /// delivered (completion windows between events guarantee no earlier
    /// handoff can appear later). Slowdowns apply at their instants, and
    /// handoff departures queue behind link partitions. Crash faults and
    /// timeouts are colocated-only (the validator rejects them here).
    fn disaggregated_event_loop(
        &self,
        trace: &Trace,
        prefill_replicas: usize,
        decode_replicas: usize,
        transfer: StateTransferModel,
        config: &FleetConfig,
        plan: &FaultPlan,
    ) -> FleetResult {
        let engine = Engine::new(self.sim, self.model, config.engine);
        let bounds = trace_bounds(trace);
        let mut prefill = Pool::new(
            &engine,
            config.policy,
            bounds,
            self.replica_sinks("prefill", prefill_replicas),
        );
        let mut decode = Pool::new(
            &engine,
            config.policy,
            bounds,
            self.replica_sinks("decode", decode_replicas),
        );
        let sink = self.fleet_sink();
        let mut front = config.router.build(config.seed, streams::ROUTER_FRONT, 0);
        let mut back = config.router.build(config.seed, streams::ROUTER_DECODE, 1);
        let mut handoffs = Handoffs::new(MemoryModel::new(self.sim.config(), self.model), transfer);
        let mut stats = FaultStats::default();

        // Merge link partitions into disjoint [start, heal) windows; a
        // handoff whose state departs inside a window queues at the link and
        // ships when it heals. With no partition, departure is completion.
        let mut raw_windows: Vec<(f64, f64)> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { duration_ns } => Some((e.time_ns, e.time_ns + duration_ns)),
                _ => None,
            })
            .collect();
        stats.link_downs = raw_windows.len() as u32;
        raw_windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut link_windows: Vec<(f64, f64)> = Vec::new();
        for (start, heal) in raw_windows {
            match link_windows.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(heal),
                _ => link_windows.push((start, heal)),
            }
        }
        for &(start, heal) in &link_windows {
            sink.emit(|| TraceEvent::span("linkdown", start, heal - start, 0));
        }
        let departs_at = |completion_ns: f64| {
            for &(start, heal) in &link_windows {
                if completion_ns < start {
                    break;
                }
                if completion_ns < heal {
                    return heal;
                }
            }
            completion_ns
        };

        let mut events = EventQueue::new(trace, plan, |kind| {
            matches!(kind, FaultKind::Slowdown { .. })
        });
        let mut assignment = Vec::with_capacity(trace.len());
        let mut decode_assignment = vec![u32::MAX; trace.len()];
        while let Some((t, event)) = events.pop() {
            prefill.step_until(t);
            handoffs.collect(&mut prefill, trace, departs_at);
            while let Some(h) = handoffs.pop_before(t) {
                deliver(
                    &mut decode,
                    back.as_mut(),
                    trace,
                    &h,
                    &mut decode_assignment,
                    &sink,
                );
            }
            match event {
                FleetEvent::Arrival(id) => {
                    let pre_request = prefill_request(&trace.requests[id]);
                    let choice = {
                        let _routing = profile_phase("routing");
                        front.route(id, &pre_request, &mut prefill.loads())
                    };
                    assert!(
                        choice < prefill_replicas,
                        "router returned replica {choice}"
                    );
                    sink.emit(|| {
                        TraceEvent::instant("route", t, id as u64).arg("replica", choice as f64)
                    });
                    prefill.inject(choice, id, pre_request);
                    assignment.push(choice as u32);
                }
                FleetEvent::Fault(index) => {
                    let FaultKind::Slowdown {
                        replica,
                        factor,
                        duration_ns,
                    } = plan.events[index].kind
                    else {
                        unreachable!("only slowdowns are queued")
                    };
                    stats.slowdowns += 1;
                    sink.emit(|| {
                        TraceEvent::instant("slowdown", t, replica as u64)
                            .arg("replica", replica as f64)
                            .arg("factor", factor)
                    });
                    // Slowdowns address the fleet index: prefill replicas first.
                    let token = if replica < prefill_replicas {
                        prefill.slow_down(replica, t, factor)
                    } else {
                        decode.slow_down(replica - prefill_replicas, t, factor)
                    };
                    events.push(t + duration_ns, FleetEvent::SlowEnd { replica, token });
                }
                FleetEvent::SlowEnd { replica, token } => {
                    if replica < prefill_replicas {
                        prefill.slow_end(replica, t, token);
                    } else {
                        decode.slow_end(replica - prefill_replicas, t, token);
                    }
                }
                _ => unreachable!("validated: disaggregated plans carry no crash or timeout"),
            }
        }

        // Drain the prefill pool, then deliver every remaining handoff and
        // drain the decode pool.
        prefill.step_until(f64::INFINITY);
        handoffs.collect(&mut prefill, trace, departs_at);
        while let Some(h) = handoffs.pop_before(f64::INFINITY) {
            deliver(
                &mut decode,
                back.as_mut(),
                trace,
                &h,
                &mut decode_assignment,
                &sink,
            );
        }
        let mut out = disaggregated_result(
            trace,
            prefill.finish(),
            decode.finish(),
            assignment,
            decode_assignment,
        );
        out.fault = stats;
        out
    }

    /// The decoupled free-run of a load-oblivious router over a colocated
    /// fleet (module docs): the routing sequence is replayed against idle
    /// loads, the trace splits into per-replica injection plans, and every
    /// replica free-runs to completion on up to `config.workers` threads.
    fn run_colocated_decoupled(
        &self,
        trace: &Trace,
        replicas: usize,
        config: &FleetConfig,
    ) -> FleetResult {
        let engine = Engine::new(self.sim, self.model, config.engine);
        let mut pool = Pool::new(
            &engine,
            config.policy,
            trace_bounds(trace),
            self.replica_sinks("replica", replicas),
        );
        let sink = self.fleet_sink();
        let mut router = config.router.build(config.seed, streams::ROUTER_FRONT, 0);
        let idle = vec![IDLE_LOAD; replicas];
        let mut assignment = Vec::with_capacity(trace.len());
        let mut plans: Vec<Vec<usize>> = vec![Vec::new(); replicas];
        for (id, request) in trace.requests.iter().enumerate() {
            let choice = route_idle(router.as_mut(), id, request, &idle);
            sink.emit(|| {
                TraceEvent::instant("route", request.arrival_ns, id as u64)
                    .arg("replica", choice as f64)
            });
            plans[choice].push(id);
            assignment.push(choice as u32);
        }
        // The whole plan is known upfront, and pausing at each arrival
        // horizon before injecting is a bit-level no-op (module docs), so
        // skip the pauses: inject everything and free-run once — the plain
        // `Engine::run` event pattern.
        pool.free_run(config.workers, |replica, run| {
            for &id in &plans[replica] {
                run.session.inject(id, trace.requests[id]);
            }
        });
        colocated_result(pool.finish(), assignment)
    }

    /// The sub-trace oracle of a fault-free colocated run: every replica's
    /// result must equal `Engine::run` (on a fresh engine) over the requests
    /// `result.assignment` routed to it, outcome ids mapped back to trace
    /// indices. The oracle does not depend on when the driver stepped which
    /// replica, so it pins probe stepping and the shared latency memo for
    /// every router. Returns the first replica that differs.
    ///
    /// # Panics
    /// If `config.mode` is not colocated.
    pub fn sub_trace_divergence(
        &self,
        trace: &Trace,
        config: &FleetConfig,
        result: &FleetResult,
    ) -> Option<usize> {
        let FleetMode::Colocated { replicas } = config.mode else {
            panic!("the sub-trace oracle covers colocated fleets only");
        };
        (0..replicas).find(|&replica| {
            let ids: Vec<usize> = (0..trace.len())
                .filter(|&id| result.assignment[id] as usize == replica)
                .collect();
            let sub_trace = Trace {
                requests: ids.iter().map(|&id| trace.requests[id]).collect(),
            };
            let mut expected = Engine::new(self.sim, self.model, config.engine)
                .run(&sub_trace, config.policy.build().as_mut());
            for outcome in &mut expected.outcomes {
                outcome.id = ids[outcome.id];
            }
            result.replicas[replica].result != expected
        })
    }

    /// The decoupled free-run of a load-oblivious router over a
    /// disaggregated fleet (module docs): the prefill pool free-runs over
    /// its replayed front-door plans, the handoff stream is rebuilt from its
    /// completions, and the decode pool free-runs over the deliveries routed
    /// in handoff order.
    fn run_disaggregated_decoupled(
        &self,
        trace: &Trace,
        prefill_replicas: usize,
        decode_replicas: usize,
        transfer: StateTransferModel,
        config: &FleetConfig,
    ) -> FleetResult {
        let engine = Engine::new(self.sim, self.model, config.engine);
        let bounds = trace_bounds(trace);
        let mut prefill = Pool::new(
            &engine,
            config.policy,
            bounds,
            self.replica_sinks("prefill", prefill_replicas),
        );
        let mut decode = Pool::new(
            &engine,
            config.policy,
            bounds,
            self.replica_sinks("decode", decode_replicas),
        );
        let sink = self.fleet_sink();
        let mut front = config.router.build(config.seed, streams::ROUTER_FRONT, 0);
        let mut back = config.router.build(config.seed, streams::ROUTER_DECODE, 1);
        let mut handoffs = Handoffs::new(MemoryModel::new(self.sim.config(), self.model), transfer);

        // Phase 1 — replay front routing against idle loads, free-run the
        // prefill pool over its per-replica plans.
        let idle = vec![IDLE_LOAD; prefill_replicas];
        let mut assignment = Vec::with_capacity(trace.len());
        let mut plans: Vec<Vec<usize>> = vec![Vec::new(); prefill_replicas];
        for (id, request) in trace.requests.iter().enumerate() {
            let choice = route_idle(front.as_mut(), id, &prefill_request(request), &idle);
            sink.emit(|| {
                TraceEvent::instant("route", request.arrival_ns, id as u64)
                    .arg("replica", choice as f64)
            });
            plans[choice].push(id);
            assignment.push(choice as u32);
        }
        prefill.free_run(config.workers, |replica, run| {
            for &id in &plans[replica] {
                run.session.inject(id, prefill_request(&trace.requests[id]));
            }
        });

        // Phase 2 — rebuild the sequential handoff stream. The sequential
        // driver collects completions in non-overlapping time ranges, each
        // batch in (completion, id) order, so one collection over the whole
        // run assigns the same sequence numbers and pops in the same order.
        handoffs.collect(&mut prefill, trace, |completion_ns| completion_ns);

        // Phase 3 — replay back routing in delivery order, free-run the
        // decode pool over its per-replica plans.
        let idle = vec![IDLE_LOAD; decode_replicas];
        let mut decode_assignment = vec![u32::MAX; trace.len()];
        let mut plans: Vec<Vec<(usize, TraceRequest)>> = vec![Vec::new(); decode_replicas];
        while let Some(h) = handoffs.pop_before(f64::INFINITY) {
            let id = h.item;
            let request = decode_request(trace, &h);
            let choice = route_idle(back.as_mut(), id, &request, &idle);
            sink.emit(|| {
                TraceEvent::instant("handoff", h.time_ns, id as u64).arg("replica", choice as f64)
            });
            plans[choice].push((id, request));
            decode_assignment[id] = choice as u32;
        }
        decode.free_run(config.workers, |replica, run| {
            for &(id, request) in &plans[replica] {
                run.session.inject_prefilled(id, request);
            }
        });
        disaggregated_result(
            trace,
            prefill.finish(),
            decode.finish(),
            assignment,
            decode_assignment,
        )
    }
}

/// Assembles a colocated fleet's per-replica results — shared by every
/// colocated driver, so they cannot drift.
fn colocated_result(results: Vec<SimResult>, assignment: Vec<u32>) -> FleetResult {
    // Request ids are trace indices, so a linear scatter by id recovers the
    // same ascending order a comparison sort would — without the O(n log n).
    let total: usize = results.iter().map(|r| r.outcomes.len()).sum();
    let mut slots: Vec<Option<RequestOutcome>> = vec![None; assignment.len()];
    for r in &results {
        for o in &r.outcomes {
            slots[o.id] = Some(*o);
        }
    }
    let mut outcomes = Vec::with_capacity(total);
    outcomes.extend(slots.into_iter().flatten());
    let makespan_ns = results.iter().map(|r| r.makespan_ns).fold(0.0, f64::max);
    let replicas = results
        .into_iter()
        .enumerate()
        .map(|(replica, result)| ReplicaReport {
            replica,
            role: ReplicaRole::Colocated,
            result,
        })
        .collect();
    FleetResult {
        outcomes,
        replicas,
        assignment,
        decode_assignment: Vec::new(),
        makespan_ns,
        fault: FaultStats::default(),
    }
}

/// Stitches the prefill and decode stages into end-to-end outcomes — shared
/// by every disaggregated driver.
fn disaggregated_result(
    trace: &Trace,
    prefill_results: Vec<SimResult>,
    decode_results: Vec<SimResult>,
    assignment: Vec<u32>,
    decode_assignment: Vec<u32>,
) -> FleetResult {
    let mut first_token = vec![f64::NAN; trace.len()];
    let mut completion = vec![f64::NAN; trace.len()];
    for r in &prefill_results {
        for o in &r.outcomes {
            first_token[o.id] = o.first_token_ns;
            completion[o.id] = o.completion_ns;
        }
    }
    for r in &decode_results {
        for o in &r.outcomes {
            completion[o.id] = o.completion_ns;
        }
    }
    let outcomes = trace
        .requests
        .iter()
        .enumerate()
        .filter(|(id, _)| completion[*id].is_finite())
        .map(|(id, r)| RequestOutcome {
            id,
            arrival_ns: r.arrival_ns,
            first_token_ns: first_token[id],
            completion_ns: completion[id],
            prompt_len: r.prompt_len,
            output_len: r.output_len,
            tenant: r.tenant,
            priority: r.priority,
            retries: 0,
            migrations: 0,
        })
        .collect();
    let makespan_ns = prefill_results
        .iter()
        .chain(decode_results.iter())
        .map(|r| r.makespan_ns)
        .fold(0.0, f64::max);
    let replicas = prefill_results
        .into_iter()
        .map(|result| (ReplicaRole::Prefill, result))
        .chain(
            decode_results
                .into_iter()
                .map(|result| (ReplicaRole::Decode, result)),
        )
        .enumerate()
        .map(|(replica, (role, result))| ReplicaReport {
            replica,
            role,
            result,
        })
        .collect();
    FleetResult {
        outcomes,
        replicas,
        assignment,
        decode_assignment,
        makespan_ns,
        fault: FaultStats::default(),
    }
}

/// The prefill-side request of an arrival in a disaggregated fleet: the
/// prompt plus the first token, after which its state hands off.
fn prefill_request(request: &TraceRequest) -> TraceRequest {
    TraceRequest {
        output_len: 1,
        ..*request
    }
}

/// Routes one arrival of a load-oblivious router, which never reads loads:
/// the decoupled free-run replays its decisions against `idle` ones.
fn route_idle(
    router: &mut dyn Router,
    id: usize,
    request: &TraceRequest,
    mut idle: &[ReplicaLoad],
) -> usize {
    let choice = {
        let _routing = profile_phase("routing");
        router.route(id, request, &mut idle)
    };
    assert!(choice < idle.len(), "router returned replica {choice}");
    choice
}

/// The decode-side resumption request of a handoff: full context is
/// prompt+1 (prefill plus first token), `output_len - 1` tokens remain, and
/// it arrives at the handoff instant (tenant/priority tags ride along).
fn decode_request(trace: &Trace, handoff: &Timed<usize>) -> TraceRequest {
    let original = trace.requests[handoff.item];
    TraceRequest {
        arrival_ns: handoff.time_ns,
        prompt_len: original.prompt_len + 1,
        output_len: original.output_len - 1,
        ..original
    }
}

/// Delivers one handoff: steps the decode pool to the handoff instant, routes
/// it and injects the remaining-decode request fully prefilled.
fn deliver(
    decode: &mut Pool<'_>,
    back: &mut dyn Router,
    trace: &Trace,
    handoff: &Timed<usize>,
    decode_assignment: &mut [u32],
    sink: &TraceSink,
) {
    let _delivery = profile_phase("handoff_delivery");
    let id = handoff.item;
    decode.step_until(handoff.time_ns);
    let request = decode_request(trace, handoff);
    let choice = back.route(id, &request, &mut decode.loads());
    sink.emit(|| {
        TraceEvent::instant("handoff", handoff.time_ns, id as u64).arg("replica", choice as f64)
    });
    decode.inject_prefilled(choice, id, request);
    decode_assignment[id] = choice as u32;
}

/// The inputs every run checks before simulating: each replica pool is
/// non-empty, and the trace's arrivals are finite and time-sorted.
fn check_inputs(trace: &Trace, mode: FleetMode) -> Result<(), FaultError> {
    let empty_pool = match mode {
        FleetMode::Colocated { replicas: 0 } => Some("mode.replicas"),
        FleetMode::Disaggregated {
            prefill_replicas: 0,
            ..
        } => Some("mode.prefill_replicas"),
        FleetMode::Disaggregated {
            decode_replicas: 0, ..
        } => Some("mode.decode_replicas"),
        _ => None,
    };
    if let Some(field) = empty_pool {
        return Err(FaultError {
            field: field.to_string(),
            message: "a replica pool needs at least one replica".to_string(),
        });
    }
    let mut previous = f64::NEG_INFINITY;
    for (i, request) in trace.requests.iter().enumerate() {
        let t = request.arrival_ns;
        let message = if !t.is_finite() {
            format!("must be finite, got {t}")
        } else if t < previous {
            format!(
                "{t} precedes the previous arrival {previous}: fleet traces must be \
                 time-sorted (use Trace::from_requests)"
            )
        } else {
            previous = t;
            continue;
        };
        return Err(FaultError {
            field: format!("trace.requests[{i}].arrival_ns"),
            message,
        });
    }
    Ok(())
}

/// `(max final sequence, max prompt)` of a trace — the latency-table sizing
/// hints of the replica sessions.
fn trace_bounds(trace: &Trace) -> (usize, usize) {
    let max_seq = trace
        .requests
        .iter()
        .map(|r| r.prompt_len + r.output_len)
        .max()
        .unwrap_or(1);
    let max_prompt = trace
        .requests
        .iter()
        .map(|r| r.prompt_len)
        .max()
        .unwrap_or(1);
    (max_seq, max_prompt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_serve::traffic::{generate_tenant_mix, Scenario};
    use pimba_system::config::{SystemConfig, SystemKind};

    fn setup() -> (ServingSimulator, ModelConfig) {
        (
            ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
            ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
        )
    }

    fn small_trace(n: usize) -> Trace {
        Scenario::chat().generate(40.0, n, 99)
    }

    /// The incremental-load micro-fix's property: the load entries the pool
    /// maintains in place (refreshed while stepping, bumped on inject) equal
    /// a full per-session rebuild after *every* routing decision — including
    /// the replicas a probing router left unstepped — over randomized traces,
    /// every shipped policy and every router. (Debug builds also cross-check
    /// every probed load; this pins the property for release builds.)
    #[test]
    fn incremental_loads_match_rebuilt_at_every_decision() {
        let (sim, model) = setup();
        for (seed, policy) in [
            (11u64, PolicyKind::Continuous),
            (23, PolicyKind::FcfsStatic),
            (37, PolicyKind::ChunkedPrefill { chunk_tokens: 64 }),
        ] {
            let trace = Scenario::summarization().generate(25.0, 50, seed);
            for router in RouterKind::ALL {
                let engine = Engine::new(&sim, &model, EngineConfig::default());
                let config = FleetConfig {
                    router,
                    policy,
                    seed,
                    ..FleetConfig::colocated(3)
                };
                let plan = FaultPlan::default();
                let fleet = FleetSim::new(&sim, &model);
                let mut run = ColocatedLoop::new(&fleet, &engine, &trace, 3, &config, &plan);
                while let Some((t, FleetEvent::Arrival(id))) = run.events.pop() {
                    run.place(id, 0, t);
                    let pool = &run.pool;
                    assert_eq!(pool.loads, pool.rebuilt_loads(), "post-inject, id {id}");
                }
                run.pool.step_until(f64::INFINITY);
                assert_eq!(run.pool.loads, run.pool.rebuilt_loads(), "drained");
            }
        }
    }

    /// The lockstep reference of the colocated event loop: step the
    /// whole pool to each arrival, route on every replica's load, inject.
    /// Returns the assignment and the per-replica results.
    fn lockstep_reference(
        sim: &ServingSimulator,
        model: &ModelConfig,
        trace: &Trace,
        config: &FleetConfig,
    ) -> (Vec<u32>, Vec<SimResult>) {
        let FleetMode::Colocated { replicas } = config.mode else {
            panic!("the lockstep reference covers colocated fleets only");
        };
        let engine = Engine::new(sim, model, config.engine);
        let sinks = vec![TraceSink::disabled(); replicas];
        let mut pool = Pool::new(&engine, config.policy, trace_bounds(trace), sinks);
        let mut router = config.router.build(config.seed, streams::ROUTER_FRONT, 0);
        let mut assignment = Vec::with_capacity(trace.len());
        for (id, request) in trace.requests.iter().enumerate() {
            pool.step_until(request.arrival_ns);
            let choice = router.route(id, request, &mut pool.loads());
            pool.inject(choice, id, *request);
            assignment.push(choice as u32);
        }
        (assignment, pool.finish())
    }

    /// The probe-stepping driver reads a load only by stepping that replica,
    /// so it must route exactly as the lockstep reference does, and every
    /// replica must end bit-identical. The sparse trace makes every replica
    /// idle at most arrivals, so po2 and JSQ decide on load ties; the tenant
    /// mix gives tenant affinity homes to keep.
    #[test]
    fn probe_stepping_matches_the_lockstep_reference() {
        let (sim, model) = setup();
        let fleet = FleetSim::new(&sim, &model);
        for seed in [5u64, 61, 0xD1CE] {
            let traces = [
                Scenario::chat().generate(60.0, 90, seed),
                Scenario::reasoning().generate(0.5, 24, seed),
                generate_tenant_mix(&Scenario::tenant_mix(), 40.0, 90, seed),
            ];
            for trace in &traces {
                for replicas in [1usize, 3, 8] {
                    for router in RouterKind::ALL
                        .into_iter()
                        .chain([RouterKind::TenantAffinity])
                    {
                        let config = FleetConfig {
                            mode: FleetMode::Colocated { replicas },
                            router,
                            seed,
                            ..FleetConfig::colocated(1)
                        };
                        let label = format!("seed {seed}/{replicas} replicas/{}", router.name());
                        let result = fleet.run(trace, &config);
                        let (assignment, expected) =
                            lockstep_reference(&sim, &model, trace, &config);
                        assert_eq!(result.assignment, assignment, "{label}");
                        assert_eq!(result.replicas.len(), expected.len(), "{label}");
                        for (report, expected) in result.replicas.iter().zip(&expected) {
                            assert!(
                                report.result == *expected,
                                "{label}: replica {}",
                                report.replica
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn colocated_fleet_conserves_requests() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        for router in RouterKind::ALL {
            let config = FleetConfig {
                router,
                ..FleetConfig::colocated(4)
            };
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            assert_eq!(result.outcomes.len(), trace.len(), "{}", router.name());
            for (id, o) in result.outcomes.iter().enumerate() {
                assert_eq!(o.id, id);
                assert!(o.first_token_ns > o.arrival_ns);
                assert!(o.completion_ns >= o.first_token_ns);
            }
            let per_replica: usize = result.per_replica_completed().iter().sum();
            assert_eq!(per_replica, trace.len());
            assert_eq!(result.assignment.len(), trace.len());
        }
    }

    #[test]
    fn disaggregated_fleet_conserves_requests_and_orders_stages() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let result = FleetSim::new(&sim, &model).run(&trace, &config);
        assert_eq!(result.outcomes.len(), trace.len());
        for (id, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.id, id);
            assert!(o.first_token_ns > o.arrival_ns, "ttft after arrival");
            assert!(
                o.completion_ns >= o.first_token_ns,
                "decode stage after prefill stage"
            );
            // Multi-token requests must have handed off.
            if o.output_len > 1 {
                assert_ne!(result.decode_assignment[id], u32::MAX);
            }
        }
        assert_eq!(result.replicas.len(), 4);
        assert_eq!(result.replicas[0].role, ReplicaRole::Prefill);
        assert_eq!(result.replicas[3].role, ReplicaRole::Decode);
        // Every multi-token request shows up in exactly one decode replica.
        let decode_served: usize = result.replicas[2..]
            .iter()
            .map(ReplicaReport::completed)
            .sum();
        let multi = trace.requests.iter().filter(|r| r.output_len > 1).count();
        assert_eq!(decode_served, multi);
    }

    #[test]
    fn load_aware_routing_beats_round_robin_on_tail_ttft() {
        let (sim, model) = setup();
        // High-variance reasoning traffic under an SLO-constrained batch cap
        // is where load-aware routing pays: round-robin parks long requests
        // behind each other while an idle replica sits elsewhere.
        let trace = Scenario::reasoning().generate(24.0, 80, 7);
        let p99_ttft = |router: RouterKind| {
            let mut config = FleetConfig::colocated(4);
            config.router = router;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            result
                .summary(&pimba_serve::metrics::SloSpec::default())
                .ttft_ms
                .p99
        };
        let rr = p99_ttft(RouterKind::RoundRobin);
        assert!(
            p99_ttft(RouterKind::Jsq) < rr,
            "jsq p99 TTFT must beat round-robin's {rr}"
        );
        assert!(
            p99_ttft(RouterKind::PowerOfTwo) < rr,
            "po2 p99 TTFT must beat round-robin's {rr}"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_run() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        let plan = FaultPlan::default();
        for router in RouterKind::ALL {
            for workers in [1, 4] {
                let config = FleetConfig {
                    router,
                    workers,
                    ..FleetConfig::colocated(4)
                };
                let fleet = FleetSim::new(&sim, &model);
                let baseline = fleet.run(&trace, &config);
                let faulted = fleet
                    .run_faulted(&trace, &config, &plan)
                    .expect("empty plan validates");
                assert_eq!(baseline, faulted, "{} workers={workers}", router.name());
            }
        }
    }

    #[test]
    fn run_faulted_rejects_invalid_plans_with_field_names() {
        let (sim, model) = setup();
        let trace = small_trace(10);
        let fleet = FleetSim::new(&sim, &model);
        let plan = FaultPlan::default().crash(0.0, 9);
        let err = fleet
            .run_faulted(&trace, &FleetConfig::colocated(4), &plan)
            .expect_err("out-of-range replica must be rejected");
        assert_eq!(err.field, "events[0].replica");
        let plan = FaultPlan::default().crash(0.0, 0);
        let dis = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let err = fleet
            .run_faulted(&trace, &dis, &plan)
            .expect_err("crashes are colocated-only");
        assert_eq!(err.field, "events[0].kind");

        // Bad fleet inputs come back the same way, whatever the plan.
        let empty = FaultPlan::default();
        let mut unsorted = trace.clone();
        unsorted.requests.swap(3, 4);
        let mut non_finite = trace.clone();
        non_finite.requests[0].arrival_ns = f64::NAN;
        let pools = |prefill_replicas, decode_replicas| FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let cases = [
            (
                &unsorted,
                FleetConfig::colocated(4),
                "trace.requests[4].arrival_ns",
            ),
            (&non_finite, dis.clone(), "trace.requests[0].arrival_ns"),
            (&trace, FleetConfig::colocated(0), "mode.replicas"),
            (&trace, pools(0, 2), "mode.prefill_replicas"),
            (&trace, pools(2, 0), "mode.decode_replicas"),
        ];
        for (trace, config, field) in cases {
            let err = fleet
                .run_faulted(trace, &config, &empty)
                .expect_err("invalid fleet input must be rejected");
            assert_eq!(err.field, field);
        }
    }

    #[test]
    #[should_panic(expected = "`trace.requests[0].arrival_ns`: must be finite")]
    fn run_panics_with_the_typed_error_message() {
        let (sim, model) = setup();
        let mut trace = small_trace(4);
        trace.requests[0].arrival_ns = f64::INFINITY;
        FleetSim::new(&sim, &model).run(&trace, &FleetConfig::colocated(2));
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_worker_counts_and_repeats() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        let plan = FaultPlan::default()
            .crash(0.25e9, 1)
            .restart(0.45e9, 1)
            .slowdown(0.1e9, 2, 3.0, 0.2e9);
        let fleet = FleetSim::new(&sim, &model);
        let mut results = Vec::new();
        for workers in [1, 2, 8] {
            for _ in 0..2 {
                let config = FleetConfig {
                    router: RouterKind::PowerOfTwo,
                    workers,
                    ..FleetConfig::colocated(4)
                };
                results.push(fleet.run_faulted(&trace, &config, &plan).expect("valid"));
            }
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r);
        }
    }

    #[test]
    fn kill_and_migrate_conserves_requests_and_counts_recoveries() {
        let (sim, model) = setup();
        let trace = small_trace(80);
        let plan = FaultPlan::kill_storm(4, 2, 0.2e9, 0.4e9, 0.15e9);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(4)
        };
        let result = FleetSim::new(&sim, &model)
            .run_faulted(&trace, &config, &plan)
            .expect("valid plan");
        assert_eq!(result.fault.crashes, 2);
        assert_eq!(result.fault.restarts, 2);
        assert!(
            result.fault.migrations + result.fault.retries > 0,
            "a kill storm mid-trace must disturb at least one request"
        );
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len(),
            "every request either completes or is counted lost"
        );
        for o in &result.outcomes {
            let original = trace.requests[o.id];
            assert_eq!(o.prompt_len, original.prompt_len);
            assert_eq!(o.output_len, original.output_len);
            assert_eq!(o.arrival_ns, original.arrival_ns);
            assert!(o.first_token_ns > o.arrival_ns);
            assert!(o.completion_ns >= o.first_token_ns);
            if o.migrations > 0 {
                assert!(result.fault.migrated_bytes > 0.0);
            }
        }
        let recovered: u32 = result.outcomes.iter().map(|o| o.migrations).sum();
        assert_eq!(recovered, result.fault.migrations);
    }

    #[test]
    fn migration_preserves_progress_that_retry_only_redoes() {
        let (sim, model) = setup();
        let trace = small_trace(80);
        let plan = FaultPlan::kill_storm(4, 2, 0.2e9, 0.4e9, 0.15e9);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let run = |recovery: RecoveryPolicy| {
            let plan = FaultPlan {
                recovery,
                ..plan.clone()
            };
            fleet.run_faulted(&trace, &config, &plan).expect("valid")
        };
        let migrate = run(RecoveryPolicy::Migrate);
        let retry = run(RecoveryPolicy::RetryOnly);
        let none = run(RecoveryPolicy::None);
        assert_eq!(retry.fault.migrations, 0);
        assert_eq!(none.fault.migrations + none.fault.retries, 0);
        assert!(
            none.fault.lost > 0,
            "no-recovery must lose the dropped requests"
        );
        assert_eq!(none.outcomes.len() + none.fault.lost as usize, trace.len());
        // Migration resumes mid-stream: every migrated request restarts
        // decode from its checkpoint, so its completion can only be earlier
        // than the from-scratch retry of the same request.
        if migrate.fault.migrations > 0 && retry.fault.retries > 0 {
            let mean = |r: &FleetResult| {
                r.outcomes
                    .iter()
                    .map(|o| o.completion_ns - o.arrival_ns)
                    .sum::<f64>()
                    / r.outcomes.len() as f64
            };
            assert!(
                mean(&migrate) <= mean(&retry),
                "migration must not be slower end-to-end than redoing work"
            );
        }
    }

    #[test]
    fn slowdown_stretches_the_colocated_makespan() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig::colocated(2);
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        let plan = FaultPlan::default()
            .slowdown(0.0, 0, 8.0, 5.0e9)
            .slowdown(0.0, 1, 8.0, 5.0e9);
        let slowed = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(slowed.fault.slowdowns, 2);
        assert_eq!(slowed.outcomes.len(), trace.len());
        assert!(
            slowed.makespan_ns > baseline.makespan_ns,
            "an 8x slowdown across the fleet must stretch the makespan"
        );
    }

    #[test]
    fn queue_timeouts_retry_and_bound_attempts() {
        let (sim, model) = setup();
        // One slow replica, a burst of arrivals, and a timeout shorter than
        // the queue wait: late requests must churn through retries.
        let trace = Scenario::chat().generate(400.0, 60, 99);
        let config = FleetConfig {
            router: RouterKind::RoundRobin,
            ..FleetConfig::colocated(2)
        };
        let plan = FaultPlan {
            retry: RetryPolicy {
                timeout_ns: 2.0e6,
                max_attempts: 2,
                base_backoff_ns: 1.0e6,
                max_backoff_ns: 8.0e6,
                jitter_ns: 0.5e6,
            },
            recovery: RecoveryPolicy::RetryOnly,
            ..FaultPlan::default()
        }
        .slowdown(0.0, 0, 50.0, 10.0e9)
        .slowdown(0.0, 1, 50.0, 10.0e9);
        let result = FleetSim::new(&sim, &model)
            .run_faulted(&trace, &config, &plan)
            .expect("valid");
        assert!(result.fault.timeouts > 0, "timeouts must fire");
        assert_eq!(
            result.fault.timeouts,
            result.fault.retries + result.fault.lost
        );
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len()
        );
        for o in &result.outcomes {
            assert!(o.retries <= plan.retry.max_attempts);
        }
    }

    #[test]
    fn disaggregated_link_partition_delays_handoffs() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        let plan = FaultPlan::default().link_down(0.0, 2.0e9);
        let result = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(result.fault.link_downs, 1);
        assert_eq!(result.outcomes.len(), trace.len());
        // Every handoff departing during the partition queues until it
        // heals: no decode can finish meaningfully before the window ends.
        assert!(
            result.makespan_ns > baseline.makespan_ns,
            "a 2s partition must delay the fleet"
        );
        let min_completion = result
            .outcomes
            .iter()
            .filter(|o| o.output_len > 1)
            .map(|o| o.completion_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_completion > 2.0e9,
            "multi-token completions ride the healed link (got {min_completion})"
        );
    }

    #[test]
    fn disaggregated_slowdowns_are_deterministic_and_stretch_decode() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        // Slow both decode replicas (indices 2 and 3 in fleet order).
        let plan = FaultPlan::default()
            .slowdown(0.0, 2, 10.0, 10.0e9)
            .slowdown(0.0, 3, 10.0, 10.0e9);
        let a = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        let b = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(a, b, "faulted disaggregated runs are bit-reproducible");
        assert_eq!(a.fault.slowdowns, 2);
        assert!(a.makespan_ns > baseline.makespan_ns);
    }
}
