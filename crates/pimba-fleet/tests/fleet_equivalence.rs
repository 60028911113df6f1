//! The fleet's correctness anchors:
//!
//! 1. **Single-replica equivalence** — a colocated fleet of one replica is
//!    bit-identical to `Engine::run` on the same trace, for every router and
//!    both engine modes. This pins the whole co-simulation layer (probe
//!    stepping, horizon pauses, injection ordering) to the extensively
//!    property-tested single-replica engine.
//! 2. **Conservation** — every arrival completes exactly once across the
//!    fleet, whatever the topology.
//! 3. **Determinism** — grid records are bit-identical across worker-thread
//!    counts and across repeat runs; a replayed JSONL trace reproduces the
//!    fleet result exactly.
//! 4. **Sub-trace equivalence** — every replica of a larger colocated fleet
//!    is bit-identical to `Engine::run` over the requests routed to it.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetModeSpec, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::{generate_tenant_mix, Scenario, Trace};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;

fn setup(kind: SystemKind) -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(kind)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

#[test]
fn single_replica_fleet_is_bit_identical_to_plain_engine_run() {
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let (sim, model) = setup(kind);
        for scenario in [Scenario::chat(), Scenario::reasoning()] {
            let trace = scenario.generate(30.0, 70, 0xBEEF);
            for fast_forward in [true, false] {
                for policy in [
                    PolicyKind::FcfsStatic,
                    PolicyKind::Continuous,
                    PolicyKind::ChunkedPrefill { chunk_tokens: 128 },
                ] {
                    let engine_config = EngineConfig {
                        max_batch: 24,
                        seq_bucket: 32,
                        fast_forward,
                        ..EngineConfig::default()
                    };
                    let engine = Engine::new(&sim, &model, engine_config);
                    let mut scheduler = policy.build();
                    let expected = engine.run(&trace, scheduler.as_mut());

                    for router in RouterKind::ALL {
                        let config = FleetConfig {
                            mode: FleetMode::Colocated { replicas: 1 },
                            router,
                            policy,
                            engine: engine_config,
                            seed: 1,
                            ..FleetConfig::colocated(1)
                        };
                        let fleet = FleetSim::new(&sim, &model).run(&trace, &config);
                        assert_eq!(
                            fleet.replicas[0].result,
                            expected,
                            "{kind:?}/{}/{}/ff={fast_forward}/{}",
                            scenario.name,
                            policy.name(),
                            router.name()
                        );
                        assert_eq!(fleet.outcomes, expected.outcomes);
                        assert_eq!(fleet.makespan_ns, expected.makespan_ns);
                    }
                }
            }
        }
    }
}

#[test]
fn every_arrival_completes_exactly_once_across_replicas() {
    let (sim, model) = setup(SystemKind::Pimba);
    let trace = Scenario::chat().generate(80.0, 120, 3);
    let modes = [
        FleetMode::Colocated { replicas: 3 },
        FleetMode::Colocated { replicas: 8 },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 3,
            transfer: StateTransferModel::nvlink(),
        },
    ];
    for mode in modes {
        for router in RouterKind::ALL {
            let config = FleetConfig {
                mode,
                router,
                ..FleetConfig::colocated(1)
            };
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            // Exactly once at the fleet level…
            assert_eq!(result.outcomes.len(), trace.len());
            let mut seen = vec![0usize; trace.len()];
            for o in &result.outcomes {
                seen[o.id] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "{mode:?}/{}", router.name());
            // …and exactly once per lifecycle stage across replicas.
            let front_door: usize = match mode {
                FleetMode::Colocated { .. } => result
                    .replicas
                    .iter()
                    .map(|r| r.result.outcomes.len())
                    .sum(),
                FleetMode::Disaggregated {
                    prefill_replicas, ..
                } => result.replicas[..prefill_replicas]
                    .iter()
                    .map(|r| r.result.outcomes.len())
                    .sum(),
            };
            assert_eq!(front_door, trace.len());
            assert_eq!(result.assignment.len(), trace.len());
        }
    }
}

/// Fleet grid records must be bit-identical across worker-thread counts and
/// repeats — the cluster analogue of the single-replica determinism suite.
#[test]
fn fleet_grid_is_bit_identical_across_thread_counts_and_repeats() {
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![30.0, 90.0])
        .with_replica_counts(vec![1, 3])
        .with_routers(vec![RouterKind::Jsq, RouterKind::PowerOfTwo])
        .with_requests_per_cell(40)
        .with_max_batch(16);
    let reference = FleetRunner::new().with_threads(1).run(&grid);
    for threads in [2, 8] {
        let got = FleetRunner::new().with_threads(threads).run(&grid);
        assert_eq!(got, reference, "thread count {threads} diverged");
    }
    let repeat = FleetRunner::new().with_threads(1).run(&grid);
    assert_eq!(repeat, reference, "repeat run diverged");

    // The disaggregated grid is deterministic too.
    let disagg = grid.clone().with_mode(FleetModeSpec::Disaggregated {
        prefill_fraction: 0.4,
        transfer: StateTransferModel::nvlink(),
    });
    let reference = FleetRunner::new().with_threads(1).run(&disagg);
    let got = FleetRunner::new().with_threads(8).run(&disagg);
    assert_eq!(got, reference, "disaggregated grid diverged across threads");
}

/// A trace exported to JSONL and re-imported drives the fleet to the exact
/// same result — the replay contract of the trace dump satellite.
#[test]
fn jsonl_trace_replay_reproduces_the_fleet_result() {
    let (sim, model) = setup(SystemKind::Pimba);
    let trace = Scenario::rag_long_context().generate(12.0, 50, 11);
    let replayed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
    assert_eq!(replayed, trace);
    let config = FleetConfig {
        router: RouterKind::PowerOfTwo,
        ..FleetConfig::colocated(3)
    };
    let fleet = FleetSim::new(&sim, &model);
    assert_eq!(fleet.run(&trace, &config), fleet.run(&replayed, &config));
}

/// The sub-trace oracle: in a multi-replica colocated fleet every replica's
/// result equals `Engine::run` over the requests routed to it. The oracle
/// does not depend on when the sequential driver steps which replica, so
/// this pins load-probe stepping and the engine-shared latency memo for
/// every router (the assignment itself is pinned against a lockstep
/// reference in `cluster.rs`'s tests). The sparse trace makes every replica
/// idle at most arrivals, so po2 and JSQ decide on load ties; the tenant mix
/// gives tenant affinity homes to keep.
#[test]
fn every_replica_equals_engine_run_over_its_routed_sub_trace() {
    let (sim, model) = setup(SystemKind::Pimba);
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
                    let result = fleet.run(trace, &config);
                    let label = format!("seed {seed}/{replicas} replicas/{}", router.name());
                    assert_eq!(
                        fleet.sub_trace_divergence(trace, &config, &result),
                        None,
                        "{label}"
                    );
                }
            }
        }
    }
}
