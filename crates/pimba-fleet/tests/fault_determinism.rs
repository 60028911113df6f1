//! Fault-injection determinism: a faulted fleet run is a pure function of
//! (plan, trace, config) — **bit-identical** across repeats for *random*
//! fault plans — and an empty plan is **byte-identical** to the fault-free
//! fleet.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy, RetryPolicy};
use pimba_fleet::metrics::FleetResult;
use pimba_fleet::router::RouterKind;
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::FingerprintBuilder;
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use proptest::prelude::*;

const REPLICAS: usize = 4;
const RECOVERIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::None,
    RecoveryPolicy::RetryOnly,
    RecoveryPolicy::Migrate,
];

fn setup() -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

#[allow(clippy::too_many_arguments)]
fn assert_faulted_run_is_pure(
    rate_rps: f64,
    n_requests: usize,
    trace_seed: u64,
    plan: &FaultPlan,
    router: RouterKind,
) {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(rate_rps, n_requests, trace_seed);
    let config = FleetConfig {
        router,
        ..FleetConfig::colocated(REPLICAS)
    };
    let mut reference = None;
    for repeat in 0..2 {
        let result = fleet
            .run_faulted(&trace, &config, plan)
            .expect("generated plans validate");
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len(),
            "every request completes or is counted lost"
        );
        match &reference {
            None => reference = Some(result),
            Some(reference) => assert_eq!(
                *reference, result,
                "faulted run diverged at repeat={repeat}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn faulted_fleets_are_bit_identical_across_workers_and_repeats(
        rate_rps in 10.0f64..60.0,
        n_requests in 20usize..60,
        trace_seed in 0u64..u64::MAX,
        plan_seed in 0u64..u64::MAX,
        // kills {1,2,3} × slowdown {off,on} × timeout {off,on}, flattened to
        // stay within the tuple-strategy arity.
        variant in 0usize..12,
        first_ms in 50.0f64..400.0,
        spacing_ms in 50.0f64..300.0,
        downtime_ms in 20.0f64..200.0,
        detection_us in 100.0f64..5_000.0,
        // recovery policy × router, flattened like `variant`.
        policy_sel in 0usize..9,
    ) {
        let recovery_idx = policy_sel % RECOVERIES.len();
        let router_idx = policy_sel / RECOVERIES.len() % RouterKind::ALL.len();
        let kills = 1 + variant % 3;
        let with_slowdown = (variant / 3) % 2;
        let with_timeout = variant / 6;
        let mut plan = FaultPlan::kill_storm(
            REPLICAS,
            kills,
            first_ms * 1e6,
            spacing_ms * 1e6,
            downtime_ms * 1e6,
        );
        plan.seed = plan_seed;
        plan.detection_latency_ns = detection_us * 1e3;
        plan.recovery = RECOVERIES[recovery_idx];
        if with_slowdown == 1 {
            // keep the storm's victims distinct from the slowed replica
            plan = plan.slowdown(first_ms * 0.5e6, REPLICAS - 1, 4.0, spacing_ms * 1e6);
        }
        if with_timeout == 1 {
            plan.retry = RetryPolicy {
                timeout_ns: 20.0e6,
                ..plan.retry
            };
        }
        assert_faulted_run_is_pure(
            rate_rps,
            n_requests,
            trace_seed,
            &plan,
            RouterKind::ALL[router_idx],
        );
    }
}

/// The non-negotiable invariant, over both topologies and every router: an
/// **empty** fault plan is byte-identical to the fault-free fleet.
#[test]
fn empty_plan_is_byte_identical_to_fault_free_fleet() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(40.0, 80, 0xDE7EC7);
    let plan = FaultPlan::default();
    assert!(plan.is_empty());
    let modes = [
        FleetMode::Colocated { replicas: REPLICAS },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ];
    for mode in modes {
        for router in RouterKind::ALL {
            let config = FleetConfig {
                mode,
                router,
                ..FleetConfig::colocated(REPLICAS)
            };
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert_eq!(
                baseline,
                faulted,
                "empty plan diverged: {mode:?}/{}",
                router.name()
            );
        }
    }
}

/// A 128-bit fingerprint of everything a fleet run reports — outcomes,
/// per-replica results and fault counters — over its exact `Debug` rendering
/// (`f64`s print their shortest round-trip form, so equal fingerprints mean
/// equal bits).
fn result_fingerprint(result: &FleetResult) -> (u64, u64) {
    FingerprintBuilder::new().debug(result).finish().words()
}

/// Literal pins of faulted runs: a colocated kill storm with live migration
/// and queue-wait timeouts under every router, and a disaggregated fleet with
/// overlapping link partitions and back-to-back slowdowns on one decode
/// replica (the second starts at the exact instant the first ends, where
/// equal-time event order matters). Any change to the fault-event walk that
/// moves a single output bit moves a fingerprint.
#[test]
fn faulted_runs_match_pinned_fingerprints() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(40.0, 80, 0x5EED_F417);

    let mut storm = FaultPlan::kill_storm(REPLICAS, 2, 0.4e9, 0.5e9, 0.3e9);
    storm.recovery = RecoveryPolicy::Migrate;
    storm.detection_latency_ns = 100.0e6;
    storm.retry = RetryPolicy {
        timeout_ns: 2.0e6,
        ..storm.retry
    };
    let colocated: [(RouterKind, (u64, u64)); 3] = [
        (
            RouterKind::RoundRobin,
            (9242422226914557875, 2072842150364274467),
        ),
        (RouterKind::Jsq, (1650334193124271042, 7336050640764807931)),
        (
            RouterKind::PowerOfTwo,
            (7255931750438772613, 15749023425549128092),
        ),
    ];
    let mut mismatches = Vec::new();
    for (router, pinned) in colocated {
        let config = FleetConfig {
            router,
            ..FleetConfig::colocated(REPLICAS)
        };
        let result = fleet
            .run_faulted(&trace, &config, &storm)
            .expect("storm validates");
        assert!(
            result.fault.crashes == 2 && result.fault.timeouts > 0 && result.fault.black_holed > 0
        );
        let got = result_fingerprint(&result);
        if got != pinned {
            mismatches.push(format!("colocated/{}: {got:?}", router.name()));
        }
    }

    // Slowdowns on decode replica 2: [0.1 s, 0.25 s) then [0.25 s, 0.45 s),
    // listed out of time order; partitions [0.05 s, 0.25 s) and
    // [0.15 s, 0.35 s) overlap.
    let partitioned = FaultPlan::default()
        .slowdown(0.25e9, 2, 2.0, 0.2e9)
        .slowdown(0.1e9, 2, 4.0, 0.15e9)
        .link_down(0.05e9, 0.2e9)
        .link_down(0.15e9, 0.2e9);
    let config = FleetConfig {
        mode: FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
        ..FleetConfig::colocated(REPLICAS)
    };
    let result = fleet
        .run_faulted(&trace, &config, &partitioned)
        .expect("plan validates");
    assert_eq!((result.fault.slowdowns, result.fault.link_downs), (2, 2));
    let got = result_fingerprint(&result);
    if got != (15665301041718606574, 18049843581053865978) {
        mismatches.push(format!("disaggregated: {got:?}"));
    }
    assert!(mismatches.is_empty(), "fingerprints moved: {mismatches:?}");
}
