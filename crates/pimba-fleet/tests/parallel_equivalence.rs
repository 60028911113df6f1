//! The fleet result contract: every topology runs one sequential event loop,
//! pinned here by literal fingerprints of round-robin runs and of
//! disaggregated JSQ, po2 and simultaneous-handoff runs — same outcomes,
//! same per-replica telemetry, same assignments, same makespan — and an
//! empty fault plan is byte-identical to the fault-free run for every
//! router. And the memoized grid contract: a warm re-evaluation returns
//! byte-identical records without stepping an engine, at any runner thread
//! count.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::FaultPlan;
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::metrics::FleetResult;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::FingerprintBuilder;
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use std::sync::Arc;

fn setup() -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

fn modes() -> [FleetMode; 2] {
    [
        FleetMode::Colocated { replicas: 4 },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ]
}

/// A 128-bit fingerprint of everything a fleet run reports — outcomes,
/// per-replica results and fault counters — over its exact `Debug` rendering
/// (`f64`s print their shortest round-trip form, so equal fingerprints mean
/// equal bits).
fn result_fingerprint(result: &FleetResult) -> (u64, u64) {
    FingerprintBuilder::new().debug(result).finish().words()
}

/// Literal pins of round robin on an 8-replica fleet, colocated and
/// disaggregated (3 prefill + 5 decode), under FCFS-static and continuous
/// batching. Round robin reads no loads, so these runs step each colocated
/// replica only at its own arrivals; any change to the event loop that moves
/// a single output bit moves a fingerprint.
#[test]
fn round_robin_runs_match_pinned_fingerprints() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(60.0, 160, 0x4047_D0B1);
    let topologies = [
        ("colocated", FleetMode::Colocated { replicas: 8 }),
        (
            "disaggregated",
            FleetMode::Disaggregated {
                prefill_replicas: 3,
                decode_replicas: 5,
                transfer: StateTransferModel::nvlink(),
            },
        ),
    ];
    let pinned: [(PolicyKind, [(u64, u64); 2]); 2] = [
        (
            PolicyKind::FcfsStatic,
            [
                (8817151351148644133, 12349043624799038082),
                (15209070468943055070, 8469751261997710404),
            ],
        ),
        (
            PolicyKind::Continuous,
            [
                (3753139742547114330, 8448840073254159548),
                (11828185448692345648, 2593864385626278075),
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (policy, pins) in pinned {
        for ((label, mode), pin) in topologies.into_iter().zip(pins) {
            let mut config = FleetConfig::colocated(1);
            config.mode = mode;
            config.router = RouterKind::RoundRobin;
            config.policy = policy;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let got = result_fingerprint(&fleet.run(&trace, &config));
            if got != pin {
                mismatches.push(format!("{label}/{}: {got:?}", policy.name()));
            }
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved: {mismatches:?}");
}

/// Literal pins of the load-aware routers (JSQ and po2) on the disaggregated
/// 3 + 5 fleet, under FCFS-static and continuous batching: both routers read
/// replica loads at every arrival and every handoff, so a handoff delivered
/// one event early or late, or a pool stepped past an instant before a load
/// read, moves a fingerprint.
#[test]
fn load_aware_disaggregated_runs_match_pinned_fingerprints() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(60.0, 160, 0x4047_D0B1);
    let pinned: [(PolicyKind, [(u64, u64); 2]); 2] = [
        (
            PolicyKind::FcfsStatic,
            [
                (6259867975912664135, 13703185503903886419),
                (1642053752959146909, 6651994339045863035),
            ],
        ),
        (
            PolicyKind::Continuous,
            [
                (6551149575300114359, 1197488998994817447),
                (5763102489711137269, 10205465685619828224),
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (policy, pins) in pinned {
        for (router, pin) in [RouterKind::Jsq, RouterKind::PowerOfTwo]
            .into_iter()
            .zip(pins)
        {
            let mut config = FleetConfig::colocated(1);
            config.mode = FleetMode::Disaggregated {
                prefill_replicas: 3,
                decode_replicas: 5,
                transfer: StateTransferModel::nvlink(),
            };
            config.router = router;
            config.policy = policy;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let got = result_fingerprint(&fleet.run(&trace, &config));
            if got != pin {
                mismatches.push(format!("{}/{}: {got:?}", router.name(), policy.name()));
            }
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved: {mismatches:?}");
}

/// Simultaneous handoffs: with a fixed prompt and output length, an
/// FCFS-static prefill batch completes at one instant and every handoff of
/// that batch ships the same state bytes, so they all reach the decode pool
/// at the same instant. Their delivery order — `(completion, id)` — decides
/// which decode replica each lands on; pinned for every router.
#[test]
fn simultaneous_handoffs_match_pinned_fingerprints() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let mut uniform = Scenario::chat();
    uniform.prompt_range = (256, 256);
    uniform.output_range = (96, 96);
    let trace = uniform.generate(240.0, 120, 0x51_4417);
    let mut config = FleetConfig::colocated(1);
    config.mode = FleetMode::Disaggregated {
        prefill_replicas: 3,
        decode_replicas: 5,
        transfer: StateTransferModel::nvlink(),
    };
    config.policy = PolicyKind::FcfsStatic;
    config.engine.max_batch = 16;
    config.engine.seq_bucket = 32;
    let pinned = [
        (
            RouterKind::RoundRobin,
            (3300287455201913117, 4514931732320584983),
        ),
        (
            RouterKind::Jsq,
            (11111299835139885070, 11083981649258573014),
        ),
        (
            RouterKind::PowerOfTwo,
            (13252901192863916569, 8729057275828637641),
        ),
    ];
    let mut mismatches = Vec::new();
    for (router, pin) in pinned {
        config.router = router;
        let result = fleet.run(&trace, &config);
        // The premise: some prefill batch finished several requests at once.
        let mut first_tokens: Vec<f64> = result.outcomes.iter().map(|o| o.first_token_ns).collect();
        first_tokens.sort_by(f64::total_cmp);
        assert!(
            first_tokens.windows(2).any(|w| w[0] == w[1]),
            "{}: no two handoffs share an instant",
            router.name()
        );
        let got = result_fingerprint(&result);
        if got != pin {
            mismatches.push(format!("{}: {got:?}", router.name()));
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved: {mismatches:?}");
}

/// The sharpest window edge: a handoff landing *exactly* on an arrival
/// instant. A handoff runs after every other event at its instant, so this
/// one delivers after that arrival, not before it — pinned as a literal
/// fingerprint of the round-robin run.
#[test]
fn handoff_exactly_on_a_window_boundary_stays_bit_identical() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let mut config = FleetConfig::colocated(1);
    config.mode = FleetMode::Disaggregated {
        prefill_replicas: 2,
        decode_replicas: 2,
        transfer: StateTransferModel::nvlink(),
    };
    config.router = RouterKind::RoundRobin;
    config.engine.max_batch = 8;
    config.engine.seq_bucket = 32;

    // Probe run: find the first handoff instant (first token + transfer).
    let base = Scenario::chat().generate(20.0, 12, 0x5EED);
    let probe = fleet.run(&base, &config);
    let transfer = StateTransferModel::nvlink();
    let memory = pimba_system::memory::MemoryModel::new(sim.config(), &model);
    let handoff_at = probe
        .outcomes
        .iter()
        .filter(|o| o.output_len > 1)
        .map(|o| o.first_token_ns + transfer.transfer_ns(memory.dynamic_bytes(1, o.prompt_len + 1)))
        .fold(f64::INFINITY, f64::min);
    assert!(handoff_at.is_finite(), "probe produced no handoffs");

    // Engineer a trace with one arrival at exactly that instant.
    let mut requests = base.requests.clone();
    requests.push(TraceRequest {
        arrival_ns: handoff_at,
        prompt_len: 96,
        output_len: 24,
        ..TraceRequest::default()
    });
    let trace = Trace::from_requests(requests);

    let got = result_fingerprint(&fleet.run(&trace, &config));
    assert_eq!(
        got,
        (1603693535214811932, 5519177201098684484),
        "boundary handoff moved"
    );
}

/// The memo contract: a second run of the same grid is byte-identical and
/// never simulates — every cell, trace and capacity search is answered from
/// the store.
#[test]
fn warm_grid_reevaluation_is_byte_identical_with_zero_simulations() {
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![30.0, 80.0])
        .with_replica_counts(vec![2, 4])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell(40)
        .with_max_batch(16);
    let total = grid.len();
    let memo = Arc::new(FleetMemo::new());

    let cold = FleetRunner::new().with_memo(memo.clone()).run(&grid);
    let (traces, _, cells) = memo.stats();
    assert_eq!(cells.misses as usize, total, "cold run computes every cell");
    assert_eq!(memo.cells_stored(), total);
    let cold_trace_misses = traces.misses;

    let warm = FleetRunner::new().with_memo(memo.clone()).run(&grid);
    assert_eq!(warm, cold, "warm records must be byte-identical");
    let (traces, _, cells) = memo.stats();
    assert_eq!(
        cells.hits as usize, total,
        "warm run must answer every cell from the store"
    );
    assert_eq!(cells.misses as usize, total, "no warm recomputation");
    assert_eq!(
        traces.misses, cold_trace_misses,
        "no warm trace regeneration"
    );

    // Memoless and memoized runs agree (memo is invisible in the results),
    // and so does a memoized run with a different thread count.
    let plain = FleetRunner::new().run(&grid);
    assert_eq!(plain, cold);
    let sequential = FleetRunner::new()
        .with_threads(1)
        .with_memo(memo.clone())
        .run(&grid);
    assert_eq!(sequential, cold, "threads are an execution knob, not a key");
    let (_, _, cells) = memo.stats();
    assert_eq!(
        cells.misses as usize, total,
        "sequential rerun hit every cell"
    );

    // One changed knob only recomputes what it invalidates: comparing one
    // more system reuses every existing cell (the outermost grid axis, so
    // existing cells keep their flat indices and per-cell router streams).
    let extended = grid.clone().with_systems(vec![
        SystemConfig::small_scale(SystemKind::Gpu),
        SystemConfig::small_scale(SystemKind::Pimba),
        SystemConfig::small_scale(SystemKind::GpuQuant),
    ]);
    let records = FleetRunner::new().with_memo(memo.clone()).run(&extended);
    assert_eq!(records.len(), extended.len());
    let (_, _, cells) = memo.stats();
    assert_eq!(
        cells.misses as usize,
        total + total / 2,
        "only the new system's cells simulate"
    );
}

/// The fault-injection identity gate: an **empty** `FaultPlan` routed through
/// `run_faulted` is byte-identical to `run` for every topology and router
/// this suite covers — and so is a plan whose only fault is a
/// no-op slowdown (factor exactly 1.0), apart from the slowdown counter: the
/// fault handlers of the event loop must not perturb the fault-free walk.
/// (Effective plans are covered by `tests/fault_determinism.rs`.)
#[test]
fn empty_fault_plan_rides_the_parallel_equivalence_matrix() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(45.0, 90, 0xFA17);
    let plan = FaultPlan::default();
    let no_op = FaultPlan::default().slowdown(0.5e9, 0, 1.0, 0.3e9);
    for mode in modes() {
        for router in RouterKind::ALL {
            let mut config = FleetConfig::colocated(1);
            config.mode = mode;
            config.router = router;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let label = format!("{mode:?}/{}", router.name());
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert!(baseline == faulted, "empty plan diverged: {label}");
            let mut slowed = fleet
                .run_faulted(&trace, &config, &no_op)
                .expect("no-op plan validates");
            assert_eq!(slowed.fault.slowdowns, 1, "{label}");
            slowed.fault.slowdowns = 0;
            assert!(baseline == slowed, "no-op slowdown diverged: {label}");
        }
    }
}
