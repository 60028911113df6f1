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
//! the same call with an empty [`FaultPlan`]) and lands in **one sequential
//! event loop**, whatever the topology, the router or the plan. The loop pops
//! one closed `FleetEvent` vocabulary — arrival, fault, slowdown end,
//! detection, resume, timeout check, and a disaggregated fleet's prefill-due
//! and handoff events — in time order and dispatches it at a single `match`.
//! Trace arrivals merge in from the sorted trace ahead of equal-time heap
//! events, so a fault-free colocated run pushes nothing onto the heap; an
//! empty plan is simply a run in which no fault ever fires.
//!
//! At an arrival at `t` the [`Router`] reads replica loads through a
//! [`LoadProbe`]; the loop answers a read by stepping *that* replica to `t`
//! (exclusive — see the `pimba-serve` engine docs for why the exclusive
//! horizon makes incremental feeding exact), then steps the chosen replica to
//! `t` and injects the request. Every other handler likewise steps only the
//! replicas it changes (a crash victim, a slowdown target, a timeout's
//! replica). Replicas nobody touched keep free-running past `t` later:
//! stepping a session to `t1` and then to `t2` is bit-identical to stepping
//! it straight to `t2`, so round robin steps each replica only at its own
//! arrivals and po2 steps two per arrival without changing a bit. A colocated
//! fleet of one replica therefore computes **bit-identically** to a plain
//! `Engine::run` over the same trace, and every replica of a larger fleet to
//! `Engine::run` over its routed sub-trace — the anchors the fleet test-suite
//! (and the `fleet_scale` bench, on every run) asserts.
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
//! `transfer_ns(bytes)` after it departs (at completion, unless a link
//! partition holds it until the link heals). A second router (its own keyed
//! PCG stream) places it, and [`Session::inject_prefilled`] resumes decoding
//! at full context without re-prefilling: a handoff is a resume with one
//! generated token.
//!
//! Both pools step lazily, like a colocated one. A decode replica is stepped
//! only when the back router reads or picks it, or when a slowdown targets
//! it. A prefill replica is stepped when the front router reads or picks it,
//! when a slowdown targets it, or when it is *due*: a `PrefillDue` event,
//! armed at the replica's [`Session::next_event_time_ns`] (one at a time),
//! steps it through that instant and on up to the next queued event, and
//! turns each request it completed into a `Handoff` event. Every completion
//! happens in such a step, so no handoff is discovered late.
//!
//! Events at one instant run in a fixed order: trace arrivals; then faults
//! (in plan order) and the events handlers scheduled (in creation order);
//! then due prefill replicas; last, handoffs in `(completion, id)` order. A
//! handoff therefore lands after every other event at its instant, an
//! arrival exactly on it included.
//!
//! # Fault tolerance & live migration
//!
//! [`FleetSim::run_faulted`] folds a deterministic
//! [`FaultPlan`] into the co-simulation: replica
//! crashes and restarts, transient slowdowns (per-replica compute-latency
//! multipliers) and handoff-link partitions, plus the recovery stack —
//! failure detection after a configurable lag, live migration of in-flight
//! requests, and bounded retry with exponential backoff. Crashes and
//! queue-wait timeouts are colocated-only ([`FaultPlan::validate`]). The
//! migration path maintains these invariants:
//!
//! * **An empty plan is the fault-free run.** [`FleetSim::run`] *is*
//!   `run_faulted` with an empty plan, and the fault handlers of the event
//!   loop only act when a fault fires, so they cannot perturb the
//!   fault-free fleet (gated in
//!   `tests/parallel_equivalence.rs`, with a no-op slowdown as a second
//!   input, and on every `fleet_fault` bench run).
//! * **Faulted runs are sequential and bit-reproducible.** Every run is
//!   one event loop on the calling thread, so a given
//!   `(system, model, trace, config, plan)` is bit-identical across threads
//!   and repeats.
//! * **Causal global-time order.** Loop events (arrivals, faults,
//!   detections, migration deliveries, retries, timeouts) execute in time
//!   order; a replica is stepped to an event's instant before the event
//!   reads or changes it, so a migrated request can never resume earlier
//!   than the crash that evicted it.
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
//! * **Recovered outcomes are trace-native.** Every outcome carries its
//!   request's original arrival, prompt and output lengths — TTFT keeps the
//!   instant the *first* token was actually produced (pre-crash for
//!   migrations) — with `retries`/`migrations` counters recording the
//!   journey, so SLO math charges recovery delay honestly.
//!
//! # Observability without perturbation
//!
//! [`FleetSim::with_trace`] attaches a
//! [`TraceRecorder`]: the event loop then emits route
//! decisions (with the retry `attempt` from attempt 1 on), handoff
//! deliveries and the full fault
//! vocabulary (crash/detect/migrate/retry/restart/slowdown/timeout/
//! blackhole/lost/linkdown) onto a `fleet` track, and every replica session
//! records its engine events onto a per-replica track. Sinks are
//! **write-only**: no driver or replica ever reads a recorded event back, so
//! an attached recorder cannot change a single bit of the simulation output
//! — the same no-perturbation invariant `pimba_system::obs` documents, gated
//! here by `tests/obs_identity.rs` alongside the bit-identity invariants
//! above.

use crate::fault::{FaultError, FaultKind, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{FleetResult, ReplicaReport, ReplicaRole};
use crate::router::{streams, LoadProbe, ReplicaLoad, Router, RouterKind};
use pimba_models::config::ModelConfig;
use pimba_serve::engine::{DroppedRequest, Engine, EngineConfig, Session};
use pimba_serve::metrics::{PreemptionStats, RequestOutcome, SimResult, TelemetryStats};
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Trace, TraceRequest};
use pimba_system::memory::MemoryModel;
use pimba_system::obs::{profile_phase, TraceEvent, TraceRecorder, TraceSink};
use pimba_system::serving::ServingSimulator;
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
    /// Ignored: no driver reads it, and memo cell keys exclude it. It once
    /// set the worker threads of a parallel round-robin driver, which is
    /// gone; the field stays only until code that builds a `FleetConfig` by
    /// struct literal stops naming it.
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
/// policy and its fault state. Crash and restart faults are colocated-only,
/// so a disaggregated fleet's replicas stay alive in their first incarnation.
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

/// A pool of co-simulated replicas of one engine (so they share its latency
/// memo). The event loop steps them one at a time — through a
/// [`SteppingProbe`] when a router reads a load, or when a handler acts on a
/// replica — and the whole pool together only when the run drains.
struct Pool<'a> {
    engine: &'a Engine<'a>,
    policy: PolicyKind,
    /// The trace's [`trace_bounds`], passed to every session.
    bounds: (usize, usize),
    /// Per-replica engine-event tracks, reattached to a restarted session.
    sinks: Vec<TraceSink>,
    replicas: Vec<ReplicaRun<'a>>,
    /// Per-replica loads as the router sees them, maintained
    /// *incrementally*: refreshed replica by replica while stepping and
    /// bumped on injection, never rebuilt from every session at a routing
    /// decision (debug builds cross-check each probed entry; a property test
    /// below pins the equivalence). A dead replica's entry is the snapshot
    /// frozen at its crash, grown by the requests black-holed into it since.
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
        run.session.step_until(t, run.scheduler.as_mut());
        self.loads[replica] = session_load(&run.session);
    }

    /// [`Pool::advance`] for a single replica, timed as `stepping`.
    fn step_replica(&mut self, replica: usize, t: f64) {
        let _stepping = profile_phase("stepping");
        self.advance(replica, t);
    }

    /// Injects one arrival into `replica`, updating its load entry in place:
    /// `outstanding` grows by exactly one, and nothing else changes (the
    /// arrival event is pending, so it is neither queued nor batched yet).
    fn inject(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.replicas[replica].session.inject(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// [`Pool::inject`] for a fully prefilled arrival (a disaggregated
    /// handoff, or a live migration) — same incremental load bump.
    fn inject_prefilled(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.replicas[replica].session.inject_prefilled(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// Starts a slowdown of a live `replica` at `t`: steps it there, scales
    /// its compute latencies by `factor` and returns the token its end
    /// carries. A dead replica is left alone (`None`).
    fn slow_down(&mut self, replica: usize, t: f64, factor: f64) -> Option<u64> {
        if !self.replicas[replica].alive {
            return None;
        }
        self.step_replica(replica, t);
        let run = &mut self.replicas[replica];
        run.session.set_compute_scale(factor);
        run.slow_token += 1;
        Some(run.slow_token)
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

    /// Rebuilds the load snapshot from the sessions — the reference the
    /// incremental snapshot is asserted against.
    #[cfg(test)]
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

/// The event loop's [`LoadProbe`] over the replicas a router can
/// see: reading a live replica's load first steps that replica to the
/// routing instant `t`, so a router that reads fewer loads leaves more
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

/// An idle load snapshot — a fresh session's.
const IDLE_LOAD: ReplicaLoad = ReplicaLoad {
    outstanding: 0,
    queue_depth: 0,
    occupancy: 0,
};

/// One routed tier of a fleet — a colocated fleet has one, a disaggregated
/// fleet a prefill and a decode stage: a replica pool, the router that
/// places requests on it and the replica each request was first placed on.
struct Stage<'a> {
    pool: Pool<'a>,
    router: Box<dyn Router>,
    /// Replicas the router can see, ascending: live ones plus undetected
    /// zombies. Updated on detection and restart.
    visible: Vec<usize>,
    /// Each request's first replica in this stage (`u32::MAX` until placed).
    assignment: Vec<u32>,
}

impl<'a> Stage<'a> {
    fn new(pool: Pool<'a>, router: Box<dyn Router>, requests: usize) -> Self {
        Self {
            visible: (0..pool.replicas.len()).collect(),
            pool,
            router,
            assignment: vec![u32::MAX; requests],
        }
    }

    /// Picks the replica for request `id` at `t`, reading loads through a
    /// [`SteppingProbe`], and records it if it is `id`'s first placement.
    fn route(&mut self, id: usize, request: &TraceRequest, t: f64) -> usize {
        let choice = {
            let _routing = profile_phase("routing");
            let mut probe = SteppingProbe {
                pool: &mut self.pool,
                visible: &self.visible,
                t,
            };
            self.router.route(id, request, &mut probe)
        };
        assert!(
            choice < self.visible.len(),
            "router returned replica {choice}"
        );
        let target = self.visible[choice];
        if self.assignment[id] == u32::MAX {
            self.assignment[id] = target as u32;
        }
        target
    }
}

/// The decode side of a disaggregated fleet: the decode stage, the link a
/// handoff crosses, and when each prefill replica is next due.
struct Decode<'a> {
    stage: Stage<'a>,
    /// The handoff link: a request's state, `dynamic_bytes(1, prompt + 1)`,
    /// arrives `transfer_ns(bytes)` after it departs.
    transfer: StateTransferModel,
    /// The plan's link partitions, merged into disjoint ascending
    /// `[start, heal)` windows.
    link_windows: Vec<(f64, f64)>,
    /// Each prefill replica's armed `PrefillDue` instant (infinite while
    /// none is armed).
    due: Vec<f64>,
}

impl Decode<'_> {
    /// When a state completed at `completion_ns` leaves its prefill replica:
    /// at once, unless a link partition holds it until the link heals.
    fn departs_at(&self, completion_ns: f64) -> f64 {
        for &(start, heal) in &self.link_windows {
            if completion_ns < start {
                break;
            }
            if completion_ns < heal {
                return heal;
            }
        }
        completion_ns
    }
}

/// One event of the fleet event loop — the single dispatch vocabulary of
/// both topologies (a disaggregated fleet sees no crash, detection, resume
/// or timeout; a colocated one no prefill-due or handoff).
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
    /// Prefill replica `replica` has an engine event at this instant.
    PrefillDue(usize),
    /// Request `id`'s state, completed on its prefill replica at
    /// `completion_ns`, reaches the decode pool.
    Handoff { id: usize, completion_ns: f64 },
}

/// A queued event, popped earliest first; [`Timed::tie`] orders one
/// instant's events.
struct Timed {
    time_ns: f64,
    seq: u64,
    event: FleetEvent,
}

impl Timed {
    /// The order among events at one instant: first the plan's faults and
    /// the events handlers scheduled, by sequence number (a fault's is its
    /// plan index, ahead of every scheduled event); then due prefill
    /// replicas; last, handoffs in `(completion, id)` order — so a handoff
    /// lands after everything else at its instant.
    fn tie(&self) -> (u8, f64, u64) {
        match self.event {
            FleetEvent::PrefillDue(_) => (1, 0.0, self.seq),
            FleetEvent::Handoff { id, completion_ns } => (2, completion_ns, id as u64),
            _ => (0, 0.0, self.seq),
        }
    }
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Timed {}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        let (mine, theirs) = (self.tie(), other.tie());
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then(theirs.0.cmp(&mine.0))
            .then(theirs.1.total_cmp(&mine.1))
            .then(theirs.2.cmp(&mine.2))
    }
}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event loop's queue: the plan's faults and every event a handler
/// schedules ride a heap, and the time-sorted trace's arrivals merge in ahead
/// of equal-time heap events — the order of pushing every arrival first,
/// without a heap push or pop per arrival.
struct EventQueue<'t> {
    arrivals: &'t [TraceRequest],
    next_arrival: usize,
    heap: BinaryHeap<Timed>,
    seq: u64,
}

impl<'t> EventQueue<'t> {
    /// Seeds the plan's faults, each with its plan index as sequence number,
    /// so simultaneous faults fire in plan order. Link partitions are not
    /// events: they act as departure windows of the handoff link.
    fn new(trace: &'t Trace, plan: &FaultPlan) -> Self {
        let heap = plan
            .events
            .iter()
            .enumerate()
            .filter(|(_, fault)| !matches!(fault.kind, FaultKind::LinkDown { .. }))
            .map(|(index, fault)| Timed {
                time_ns: fault.time_ns,
                seq: index as u64,
                event: FleetEvent::Fault(index),
            })
            .collect();
        Self {
            arrivals: &trace.requests,
            next_arrival: 0,
            heap,
            seq: plan.events.len() as u64,
        }
    }

    fn push(&mut self, time_ns: f64, event: FleetEvent) {
        self.heap.push(Timed {
            time_ns,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The instant of the next event (infinite when none is left).
    fn next_time(&self) -> f64 {
        let arrival = self
            .arrivals
            .get(self.next_arrival)
            .map_or(f64::INFINITY, |request| request.arrival_ns);
        let queued = self.heap.peek().map_or(f64::INFINITY, |top| top.time_ns);
        arrival.min(queued)
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
        self.heap.pop().map(|top| (top.time_ns, top.event))
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
    };
}

/// The fleet event loop (module docs) and its world: the front stage (the
/// colocated replicas, or the prefill pool), a disaggregated fleet's decode
/// side, request tracks, the event queue and the recovery counters. Events
/// run in time order, each handler stepping only the replicas it reads or
/// changes. With an empty plan a colocated fleet only ever sees arrivals,
/// and each steps just the replicas its router reads plus the one it picks.
struct FleetLoop<'a, 'p> {
    front: Stage<'a>,
    back: Option<Decode<'a>>,
    events: EventQueue<'p>,
    tracks: Vec<Track>,
    stats: FaultStats,
    /// Requests with no visible replica to route to, flushed at the next
    /// restart: `(id, attempt, generated)`.
    hold: Vec<(usize, u32, usize)>,
    plan: &'p FaultPlan,
    trace: &'p Trace,
    memory: MemoryModel<'a>,
    /// The fleet-level trace track (route/handoff/fault/recovery events).
    sink: TraceSink,
}

impl<'a, 'p> FleetLoop<'a, 'p> {
    /// A fleet of fresh replicas of `engine` in `config`'s topology, every
    /// arrival of `trace` and every fault of `plan` pending.
    fn new(
        fleet: &FleetSim<'a>,
        engine: &'a Engine<'a>,
        trace: &'p Trace,
        config: &FleetConfig,
        plan: &'p FaultPlan,
    ) -> Self {
        let bounds = trace_bounds(trace);
        let stage = |track: &str, replicas: usize, domain: u64, stream: u64| {
            let sinks = fleet.replica_sinks(track, replicas);
            let router = config.router.build(config.seed, domain, stream);
            Stage::new(
                Pool::new(engine, config.policy, bounds, sinks),
                router,
                trace.len(),
            )
        };
        let (front, back) = match config.mode {
            FleetMode::Colocated { replicas } => {
                (stage("replica", replicas, streams::ROUTER_FRONT, 0), None)
            }
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                transfer,
            } => (
                stage("prefill", prefill_replicas, streams::ROUTER_FRONT, 0),
                Some(Decode {
                    stage: stage("decode", decode_replicas, streams::ROUTER_DECODE, 1),
                    transfer,
                    link_windows: link_windows(plan),
                    due: vec![f64::INFINITY; prefill_replicas],
                }),
            ),
        };
        let sink = fleet.fleet_sink();
        for &(start, heal) in back.iter().flat_map(|back| &back.link_windows) {
            sink.emit(|| TraceEvent::span("linkdown", start, heal - start, 0));
        }
        let link_downs = plan
            .events
            .iter()
            .filter(|fault| matches!(fault.kind, FaultKind::LinkDown { .. }))
            .count() as u32;
        Self {
            front,
            back,
            events: EventQueue::new(trace, plan),
            tracks: vec![Track::NEW; trace.len()],
            stats: FaultStats {
                link_downs,
                ..FaultStats::default()
            },
            hold: Vec::new(),
            plan,
            trace,
            memory: MemoryModel::new(fleet.sim.config(), fleet.model),
            sink,
        }
    }

    /// Runs every event in order, then drains the replicas.
    fn run(mut self) -> FleetResult {
        while let Some((t, event)) = self.events.pop() {
            self.dispatch(t, event);
        }
        self.finish()
    }

    fn dispatch(&mut self, t: f64, event: FleetEvent) {
        match event {
            FleetEvent::Arrival(id) => self.place(id, 0, t),
            FleetEvent::Fault(index) => self.apply_fault(index, t),
            FleetEvent::SlowEnd { replica, token } => {
                let (pool, local) = self.pool_of(replica);
                pool.slow_end(local, t, token);
            }
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
            FleetEvent::PrefillDue(replica) => self.prefill_due(replica, t),
            FleetEvent::Handoff { id, .. } => self.place(id, 1, t),
        }
    }

    /// The pool holding fleet replica `replica` and its index there. Fleet
    /// indices, as fault plans address them, run over the front pool first,
    /// then the decode pool.
    fn pool_of(&mut self, replica: usize) -> (&mut Pool<'a>, usize) {
        let front = self.front.pool.replicas.len();
        match &mut self.back {
            Some(back) if replica >= front => (&mut back.stage.pool, replica - front),
            _ => (&mut self.front.pool, replica),
        }
    }

    /// Routes request `id` (resuming with `generated` tokens of context) at
    /// time `t`. Arrivals, retries and migrations enter the front stage; a
    /// disaggregated fleet has no migrations, and its resume is a handoff
    /// (`generated` 1), which enters the decode stage. A prefill replica runs
    /// an arrival's prompt and first token only. Requests routed into an
    /// undetected zombie black-hole until the detector fires; with every
    /// replica dead *and* detected, the request holds at the front door until
    /// a restart.
    fn place(&mut self, id: usize, generated: usize, t: f64) {
        let disaggregated = self.back.is_some();
        let handoff = disaggregated && generated > 0;
        let stage = match &mut self.back {
            Some(back) if handoff => &mut back.stage,
            _ => &mut self.front,
        };
        let attempt = self.tracks[id].attempt;
        if stage.visible.is_empty() {
            self.hold.push((id, attempt, generated));
            return;
        }
        let original = self.trace.requests[id];
        let request = TraceRequest {
            arrival_ns: t,
            prompt_len: original.prompt_len + generated,
            output_len: if disaggregated && !handoff {
                1
            } else {
                original.output_len - generated
            },
            ..original
        };
        let target = stage.route(id, &request, t);
        self.sink.emit(|| {
            let name = if handoff { "handoff" } else { "route" };
            let event = TraceEvent::instant(name, t, id as u64).arg("replica", target as f64);
            if attempt > 0 {
                event.arg("attempt", attempt as f64)
            } else {
                event
            }
        });
        if handoff {
            stage.pool.step_replica(target, t);
            stage.pool.inject_prefilled(target, id, request);
            return;
        }
        self.tracks[id].location = Some(target);
        let pool = &mut self.front.pool;
        if !pool.replicas[target].alive {
            // Zombie window: the request (and any shipped state) vanishes
            // until the failure detector fires; its frozen load grows so
            // load-aware routers steer away from the pile-up.
            pool.replicas[target].black_holed.push(id);
            pool.loads[target].outstanding += 1;
            pool.loads[target].queue_depth += 1;
            self.stats.black_holed += 1;
            self.sink.emit(|| {
                TraceEvent::instant("blackhole", t, id as u64).arg("replica", target as f64)
            });
            return;
        }
        pool.step_replica(target, t);
        if generated > 0 {
            pool.inject_prefilled(target, id, request);
        } else {
            pool.inject(target, id, request);
        }
        self.tracks[id].resumed_generated = generated;
        if self.plan.retry.timeout_ns > 0.0 {
            self.events.push(
                t + self.plan.retry.timeout_ns,
                FleetEvent::TimeoutCheck { id, attempt },
            );
        }
        self.arm(target);
    }

    /// Arms prefill replica `replica`'s `PrefillDue` event at its next
    /// engine event, unless one is still armed. A colocated fleet arms
    /// nothing: no event waits on its replicas' completions.
    ///
    /// An armed instant later than the loop's clock is a work completion (an
    /// arrival is never pending past the clock), so an arrival injected
    /// meanwhile cannot start work, or complete a request, before it. Every
    /// completion therefore happens in a `PrefillDue` step: a router read or
    /// a slowdown steps a prefill replica to an instant that is not yet due.
    fn arm(&mut self, replica: usize) {
        let Some(back) = &mut self.back else {
            return;
        };
        if back.due[replica].is_finite() {
            return;
        }
        let session = &self.front.pool.replicas[replica].session;
        if let Some(due) = session.next_event_time_ns() {
            back.due[replica] = due;
            self.events.push(due, FleetEvent::PrefillDue(replica));
        }
    }

    /// Prefill replica `replica` is due at `t`: steps it through `t` and on
    /// up to the next queued event (nothing can read or change it before
    /// then), hands off every request it completed with tokens left to
    /// decode, and arms its next event.
    fn prefill_due(&mut self, replica: usize, t: f64) {
        let back = self.back.as_mut().expect("only prefill replicas fall due");
        debug_assert_eq!(back.due[replica], t, "one armed event per replica");
        back.due[replica] = f64::INFINITY;
        let pool = &mut self.front.pool;
        pool.step_replica(replica, self.events.next_time().max(t.next_up()));
        for done in pool.replicas[replica].session.drain_completions() {
            let original = self.trace.requests[done.id];
            if original.output_len <= 1 {
                continue;
            }
            let bytes = self.memory.dynamic_bytes(1, original.prompt_len + 1);
            self.events.push(
                back.departs_at(done.completion_ns) + back.transfer.transfer_ns(bytes),
                FleetEvent::Handoff {
                    id: done.id,
                    completion_ns: done.completion_ns,
                },
            );
        }
        self.arm(replica);
    }

    /// Consumes one retry attempt for `id` (or marks it lost), scheduling the
    /// re-entry after backoff + deterministic jitter.
    fn retry_or_lose(&mut self, id: usize, t: f64) {
        let next = self.tracks[id].attempt + 1;
        if self.plan.recovery == RecoveryPolicy::None || next > self.plan.retry.max_attempts {
            self.tracks[id].lost = true;
            self.stats.lost += 1;
            self.sink.emit(|| TraceEvent::instant("lost", t, id as u64));
            return;
        }
        let track = &mut self.tracks[id];
        track.attempt = next;
        track.retries += 1;
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
        if !self.front.pool.replicas[victim].alive {
            return;
        }
        self.stats.crashes += 1;
        let incarnation = self.front.pool.crash(victim, t);
        let dropped = &self.front.pool.replicas[victim].dropped;
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
        let run = &mut self.front.pool.replicas[replica];
        if run.alive || run.detected || run.incarnation != incarnation {
            return;
        }
        run.detected = true;
        self.front.visible.retain(|&r| r != replica);
        self.recover(replica, t);
    }

    /// Runs recovery for a detected crash: every request the replica held
    /// (dropped in-flight, or black-holed during the zombie window) re-enters
    /// through migration or retry.
    fn recover(&mut self, replica: usize, t: f64) {
        let dropped = std::mem::take(&mut self.front.pool.replicas[replica].dropped);
        let black = std::mem::take(&mut self.front.pool.replicas[replica].black_holed);
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
        if self.front.pool.replicas[replica].alive {
            return;
        }
        if !self.front.pool.replicas[replica].detected {
            // The replacement raced the detector: the fleet learns of the
            // loss now, so recovery triggers here.
            self.front.pool.replicas[replica].detected = true;
            self.recover(replica, t);
        }
        if let Err(slot) = self.front.visible.binary_search(&replica) {
            self.front.visible.insert(slot, replica);
        }
        self.stats.restarts += 1;
        self.sink.emit(|| {
            TraceEvent::instant("restart", t, replica as u64).arg("replica", replica as f64)
        });
        self.front.pool.restart(replica);
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
                let (pool, local) = self.pool_of(replica);
                let Some(token) = pool.slow_down(local, t, factor) else {
                    return;
                };
                self.stats.slowdowns += 1;
                self.sink.emit(|| {
                    TraceEvent::span("slowdown", t, duration_ns, replica as u64)
                        .arg("replica", replica as f64)
                        .arg("factor", factor)
                });
                self.events
                    .push(t + duration_ns, FleetEvent::SlowEnd { replica, token });
            }
            FaultKind::LinkDown { .. } => {
                unreachable!("link partitions are departure windows, never queued")
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
        if !self.front.pool.replicas[location].alive {
            return; // the crash path owns recovery of this request
        }
        if !self.front.pool.cancel_queued(location, id, t) {
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

    /// Drains the replicas and assembles the fleet result: the per-replica
    /// reports in fleet order, and one trace-native outcome per completed
    /// request — its trace arrival and lengths, its first token from the
    /// front stage (or the pre-crash instant a migration kept), its
    /// completion from the last stage that served it, and its recovery
    /// counters.
    fn finish(mut self) -> FleetResult {
        // Requests still held never saw a live replica again: lost.
        for (id, _, _) in std::mem::take(&mut self.hold) {
            if !self.tracks[id].lost {
                self.tracks[id].lost = true;
                self.stats.lost += 1;
            }
        }
        let mut first_token = vec![f64::NAN; self.trace.len()];
        let mut completion = vec![f64::NAN; self.trace.len()];
        let (front_role, back) = match self.back {
            Some(back) => (ReplicaRole::Prefill, Some(back.stage)),
            None => (ReplicaRole::Colocated, None),
        };
        let mut reports = Vec::new();
        for result in self.front.pool.finish() {
            for o in &result.outcomes {
                first_token[o.id] = o.first_token_ns;
                completion[o.id] = o.completion_ns;
            }
            reports.push((front_role, result));
        }
        let mut decode_assignment = Vec::new();
        if let Some(back) = back {
            for result in back.pool.finish() {
                for o in &result.outcomes {
                    completion[o.id] = o.completion_ns;
                }
                reports.push((ReplicaRole::Decode, result));
            }
            decode_assignment = back.assignment;
        }
        let outcomes = self
            .trace
            .requests
            .iter()
            .zip(&self.tracks)
            .enumerate()
            .filter(|(id, _)| completion[*id].is_finite())
            .map(|(id, (r, track))| RequestOutcome {
                id,
                arrival_ns: r.arrival_ns,
                first_token_ns: if track.first_token_ns.is_finite() {
                    track.first_token_ns
                } else {
                    first_token[id]
                },
                completion_ns: completion[id],
                prompt_len: r.prompt_len,
                output_len: r.output_len,
                tenant: r.tenant,
                priority: r.priority,
                retries: track.retries,
                migrations: track.migrations,
            })
            .collect();
        let makespan_ns = reports
            .iter()
            .map(|(_, result)| result.makespan_ns)
            .fold(0.0, f64::max);
        let replicas = reports
            .into_iter()
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
            assignment: self.front.assignment,
            decode_assignment,
            makespan_ns,
            fault: self.stats,
        }
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
    /// Every run enters here and runs the one sequential event loop, where
    /// an [empty](FaultPlan::is_empty) plan simply never fires a fault. A time-unsorted trace or one with a non-finite
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
        let engine = Engine::new(self.sim, self.model, config.engine);
        Ok(FleetLoop::new(self, &engine, trace, config, plan).run())
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

/// A plan's link partitions merged into disjoint, ascending `[start, heal)`
/// windows.
fn link_windows(plan: &FaultPlan) -> Vec<(f64, f64)> {
    let mut raw: Vec<(f64, f64)> = plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::LinkDown { duration_ns } => Some((e.time_ns, e.time_ns + duration_ns)),
            _ => None,
        })
        .collect();
    raw.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for (start, heal) in raw {
        match windows.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(heal),
            _ => windows.push((start, heal)),
        }
    }
    windows
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
                let mut run = FleetLoop::new(&fleet, &engine, &trace, &config, &plan);
                while let Some((t, FleetEvent::Arrival(id))) = run.events.pop() {
                    run.place(id, 0, t);
                    let pool = &run.front.pool;
                    assert_eq!(pool.loads, pool.rebuilt_loads(), "post-inject, id {id}");
                }
                run.front.pool.step_until(f64::INFINITY);
                assert_eq!(
                    run.front.pool.loads,
                    run.front.pool.rebuilt_loads(),
                    "drained"
                );
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
            let choice = router.route(id, request, &mut pool.loads.as_slice());
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

    /// Pools step only when touched: round robin reads no loads, so a
    /// handoff steps only the decode replica it lands on. At some handoff
    /// instant another decode replica must still have an engine event
    /// pending before it — which a sweep stepping the whole decode pool to
    /// every handoff never leaves.
    #[test]
    fn decode_replicas_step_only_when_a_handoff_lands_on_them() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 1,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            router: RouterKind::RoundRobin,
            ..FleetConfig::colocated(3)
        };
        let engine = Engine::new(&sim, &model, config.engine);
        let plan = FaultPlan::default();
        let fleet = FleetSim::new(&sim, &model);
        let mut run = FleetLoop::new(&fleet, &engine, &trace, &config, &plan);
        let mut lagging = 0;
        while let Some((t, event)) = run.events.pop() {
            let handoff = matches!(event, FleetEvent::Handoff { .. });
            run.dispatch(t, event);
            if handoff {
                let decode = &run.back.as_ref().expect("disaggregated").stage.pool;
                lagging += decode
                    .replicas
                    .iter()
                    .filter(|replica| {
                        let session = &replica.session;
                        session.now_ns() < t
                            && session.next_event_time_ns().is_some_and(|next| next < t)
                    })
                    .count();
            }
        }
        assert!(
            lagging > 0,
            "every decode replica was stepped to every handoff instant"
        );
        assert_eq!(run.finish().outcomes.len(), trace.len());
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
            let config = FleetConfig {
                router,
                ..FleetConfig::colocated(4)
            };
            let fleet = FleetSim::new(&sim, &model);
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert_eq!(baseline, faulted, "{}", router.name());
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
        let config = FleetConfig {
            router: RouterKind::PowerOfTwo,
            ..FleetConfig::colocated(4)
        };
        let results: Vec<_> = (0..2)
            .map(|_| fleet.run_faulted(&trace, &config, &plan).expect("valid"))
            .collect();
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
