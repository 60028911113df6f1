//! The parallel co-simulation contract: for any worker count, any topology
//! and any router, a fleet run produces results **bit-identical** to the
//! sequential driver — same outcomes, same per-replica telemetry, same
//! assignments, same makespan. Load-aware routers run the sequential driver
//! at every worker count; load-oblivious ones take the decoupled free-run.
//! And the memoized grid contract: a warm re-evaluation returns
//! byte-identical records without stepping an engine.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::FaultPlan;
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
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

/// The tentpole property: parallel ≡ sequential to the bit, across
/// {colocated, disaggregated} × every router × worker counts {1, 2, 4, 8} ×
/// seeded traces. Worker count 1 exercises the dispatch falling back to the
/// sequential path; 8 oversubscribes 4 replicas.
#[test]
fn parallel_fleet_is_bit_identical_to_sequential_for_any_worker_count() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    for (seed, rate) in [(0xA11CE, 60.0), (0xB0B, 25.0)] {
        let trace = Scenario::chat().generate(rate, 90, seed);
        for mode in modes() {
            for router in RouterKind::ALL {
                let mut config = FleetConfig::colocated(1);
                config.mode = mode;
                config.router = router;
                config.engine.max_batch = 16;
                config.engine.seq_bucket = 32;
                let sequential = fleet.run(&trace, &config);
                for workers in [1, 2, 4, 8] {
                    config.workers = workers;
                    let parallel = fleet.run(&trace, &config);
                    assert!(
                        parallel == sequential,
                        "diverged: {mode:?}/{}/workers={workers}/seed={seed:#x}",
                        router.name()
                    );
                }
            }
        }
    }
}

/// Scheduling policies ride along unchanged: the decoupled free-run replays
/// the same per-replica policy decisions.
#[test]
fn parallel_fleet_is_bit_identical_across_policies() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::reasoning().generate(30.0, 70, 17);
    for policy in [
        PolicyKind::FcfsStatic,
        PolicyKind::Continuous,
        PolicyKind::ChunkedPrefill { chunk_tokens: 128 },
    ] {
        let mut config = FleetConfig::colocated(3);
        config.router = RouterKind::RoundRobin;
        config.policy = policy;
        config.engine.max_batch = 12;
        config.engine.seq_bucket = 32;
        let sequential = fleet.run(&trace, &config);
        config.workers = 4;
        let parallel = fleet.run(&trace, &config);
        assert!(parallel == sequential, "diverged: {}", policy.name());
    }
}

/// The sharpest window edge: a handoff landing *exactly* on an arrival
/// instant. The sequential driver's strict `h.time_ns < t` delivery test
/// must be reproduced by the decoupled disaggregated free-run — the handoff
/// delivers after that arrival, not before it.
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

    for router in RouterKind::ALL.into_iter().filter(|r| r.load_oblivious()) {
        config.router = router;
        config.workers = 0;
        let sequential = fleet.run(&trace, &config);
        for workers in [2, 8] {
            config.workers = workers;
            let parallel = fleet.run(&trace, &config);
            assert!(
                parallel == sequential,
                "boundary handoff diverged: {}/workers={workers}",
                router.name()
            );
        }
    }
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
    // and so does a memoized run with a different execution configuration.
    let plain = FleetRunner::new().run(&grid);
    assert_eq!(plain, cold);
    let parallel = FleetRunner::new()
        .with_threads(1)
        .with_fleet_workers(4)
        .with_memo(memo.clone())
        .run(&grid);
    assert_eq!(parallel, cold, "workers are an execution knob, not a key");
    let (_, _, cells) = memo.stats();
    assert_eq!(
        cells.misses as usize, total,
        "parallel rerun hit every cell"
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
/// `run_faulted` is byte-identical to `run` for every topology, router and
/// worker count this suite covers — and so is a plan whose only fault is a
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
            for workers in [0, 2, 8] {
                let mut config = FleetConfig::colocated(1);
                config.mode = mode;
                config.router = router;
                config.workers = workers;
                config.engine.max_batch = 16;
                config.engine.seq_bucket = 32;
                let label = format!("{mode:?}/{}/workers={workers}", router.name());
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
}
