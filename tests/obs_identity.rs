//! The observability no-perturbation property, end to end: enabling tracing
//! and metrics must never change a single output bit — in the engine, in the
//! fleet on both topologies, and under injected faults — and both trace
//! exports must be well-formed JSON. These are
//! the root gates behind the invariant stated in `pimba_system::obs` and
//! `pimba_fleet::cluster`. A last gate pins the metric snapshot itself: the
//! batched export leaves exactly the bytes per-request recording would.

use pimba::fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba::fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba::fleet::metrics::FleetResult;
use pimba::fleet::router::RouterKind;
use pimba::models::{ModelConfig, ModelFamily, ModelScale};
use pimba::netline::Json;
use pimba::serve::engine::{Engine, EngineConfig};
use pimba::serve::metrics::SimResult;
use pimba::serve::runner::{TrafficGrid, TrafficRunner};
use pimba::serve::sched::ContinuousBatching;
use pimba::serve::traffic::{generate_tenant_mix, Scenario};
use pimba::system::config::{SystemConfig, SystemKind};
use pimba::system::obs::{MetricValue, MetricsHub, TraceRecorder};
use pimba::system::serving::ServingSimulator;
use pimba::system::sweep::RunControl;
use pimba::system::transfer::StateTransferModel;
use std::collections::BTreeSet;
use std::sync::Arc;

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

fn sim() -> ServingSimulator {
    ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba))
}

/// A four-replica kill storm with live migration — enough churn to exercise
/// the crash/detect/migrate/restart paths the fault layer instruments.
fn storm(requests: usize, rate_rps: f64) -> FaultPlan {
    let span_ns = requests as f64 / rate_rps * 1e9;
    let mut plan = FaultPlan::kill_storm(4, 2, 0.25 * span_ns, 0.3 * span_ns, 0.2 * span_ns);
    plan.recovery = RecoveryPolicy::Migrate;
    plan
}

#[test]
fn engine_tracing_never_changes_results() {
    let model = model();
    let sim = sim();
    let trace = Scenario::chat().generate(30.0, 80, 7);
    let config = EngineConfig {
        max_batch: 8,
        seq_bucket: 16,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&sim, &model, config);
    let baseline = engine.run(&trace, &mut ContinuousBatching);

    let recorder = TraceRecorder::new();
    let traced = engine.run_traced(&trace, &mut ContinuousBatching, recorder.track("engine"));
    assert_eq!(traced, baseline, "an attached sink must not change a bit");
    assert!(
        recorder.event_count() > 0,
        "the engine must emit scheduler events"
    );
    let tracks = recorder.tracks();
    let names: BTreeSet<&str> = tracks[0].events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.contains("admit"),
        "admissions must be traced: {names:?}"
    );
}

#[test]
fn fleet_tracing_is_identical_across_worker_counts() {
    let model = model();
    let sim = sim();
    let trace = Scenario::chat().generate(50.0, 100, 2026);
    let modes = [
        FleetMode::Colocated { replicas: 3 },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ];
    for mode in modes {
        let config = FleetConfig {
            mode,
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(3)
        };
        let baseline = FleetSim::new(&sim, &model).run(&trace, &config);
        let recorder = Arc::new(TraceRecorder::new());
        let traced = FleetSim::new(&sim, &model)
            .with_trace(Arc::clone(&recorder))
            .run(&trace, &config);
        assert!(traced == baseline, "tracing changed fleet output: {mode:?}");
        assert!(
            recorder.event_count() > 0,
            "the fleet must emit route events: {mode:?}"
        );
        // A fault-free route names its replica and nothing else (the
        // retry attempt rides along only from attempt 1 on).
        let tracks = recorder.tracks();
        let fleet_track = tracks
            .iter()
            .find(|t| t.name == "fleet")
            .expect("the fleet track is registered");
        let routes: Vec<_> = fleet_track
            .events
            .iter()
            .filter(|e| e.name == "route")
            .collect();
        assert_eq!(routes.len(), trace.len(), "{mode:?}");
        for route in routes {
            let keys: Vec<&str> = route.args.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["replica"], "{mode:?}");
        }
    }
}

#[test]
fn faulted_fleet_tracing_is_identical_and_captures_the_storm() {
    let model = model();
    let sim = sim();
    let requests = 120;
    let rate = 60.0;
    let trace = Scenario::chat().generate(rate, requests, 2026);
    let plan = storm(requests, rate);
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(4)
    };

    let baseline = FleetSim::new(&sim, &model)
        .run_faulted(&trace, &config, &plan)
        .expect("storm validates");
    let recorder = Arc::new(TraceRecorder::new());
    let traced = FleetSim::new(&sim, &model)
        .with_trace(Arc::clone(&recorder))
        .run_faulted(&trace, &config, &plan)
        .expect("storm validates");
    assert!(traced == baseline, "tracing changed faulted fleet output");
    assert_eq!(traced.fault.crashes, 2, "both kills must land");

    let names: BTreeSet<String> = recorder
        .tracks()
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name.clone()))
        .collect();
    for expected in ["route", "crash", "detect", "restart", "migrate"] {
        assert!(
            names.contains(expected),
            "storm trace must contain '{expected}' events, got {names:?}"
        );
    }
}

#[test]
fn runner_metrics_and_tracing_never_change_records() {
    let grid = TrafficGrid::new(model())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![8.0, 16.0])
        .with_requests_per_cell(12)
        .with_seq_bucket(32);
    let plain = TrafficRunner::new().run(&grid);

    let hub = MetricsHub::new();
    let recorder = Arc::new(TraceRecorder::new());
    let control = RunControl::new().with_metrics(hub.clone());
    let instrumented = TrafficRunner::new()
        .with_trace(Arc::clone(&recorder))
        .run_controlled(&grid, &control)
        .expect("uncancelled run");
    assert_eq!(
        instrumented, plain,
        "metrics + tracing must not change records"
    );
    assert!(
        !hub.snapshot().is_empty(),
        "the run must publish metric series"
    );
    assert!(
        hub.snapshot()
            .iter()
            .any(|s| s.name == "serve_requests_completed"),
        "per-request outcome counters must be exported"
    );
    assert!(recorder.event_count() > 0);
}

#[test]
fn trace_codecs_round_trip_byte_stably() {
    let model = model();
    let sim = sim();
    let requests = 120;
    let rate = 60.0;
    let trace = Scenario::chat().generate(rate, requests, 2026);
    let recorder = Arc::new(TraceRecorder::new());
    FleetSim::new(&sim, &model)
        .with_trace(Arc::clone(&recorder))
        .run_faulted(&trace, &FleetConfig::colocated(4), &storm(requests, rate))
        .expect("storm validates");
    assert!(recorder.event_count() > 0);

    // JSONL: every line is one JSON object (the literal bytes are pinned by
    // `obs::tests::jsonl_rendering_is_pinned`).
    let jsonl = recorder.to_jsonl();
    let placeholders = recorder
        .tracks()
        .iter()
        .filter(|t| t.events.is_empty())
        .count();
    assert_eq!(jsonl.lines().count(), recorder.event_count() + placeholders);
    for line in jsonl.lines() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("{e:?}: {line}"));
        assert!(
            event.get("track").and_then(Json::as_str).is_some(),
            "{line}"
        );
    }

    // Chrome trace-event JSON: parses (via netline) and is non-empty.
    let chrome = recorder.to_chrome_json();
    let parsed = Json::parse(&chrome).expect("Chrome trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every record carries the trace-event schema's required keys.
    for event in events {
        let keys: Vec<&str> = event
            .as_obj()
            .expect("trace events are objects")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for required in ["ph", "pid", "tid", "name"] {
            assert!(keys.contains(&required), "event missing '{required}'");
        }
    }
}

/// The per-request reference for [`SimResult::export_metrics`]: one hub call
/// per series per outcome, in outcome order.
fn reference_sim_export(hub: &MetricsHub, result: &SimResult, labels: &[(&str, &str)]) {
    let t = &result.telemetry;
    let p = &result.preemption;
    hub.counter("serve_events", labels, t.events);
    hub.gauge("serve_peak_queue_depth", labels, t.peak_queue_depth as f64);
    hub.gauge(
        "serve_peak_batch_occupancy",
        labels,
        t.peak_batch_occupancy as f64,
    );
    hub.gauge("serve_mean_batch_occupancy", labels, t.mean_batch_occupancy);
    hub.gauge("serve_makespan_ms", labels, result.makespan_ns / 1e6);
    hub.counter("serve_evictions", labels, p.evictions);
    hub.counter("serve_resumes", labels, p.resumes);
    hub.gauge(
        "serve_checkpoint_stall_ms",
        labels,
        p.checkpoint_stall_ns / 1e6,
    );
    hub.gauge("serve_restore_stall_ms", labels, p.restore_stall_ns / 1e6);
    for o in &result.outcomes {
        let tenant = o.tenant.to_string();
        let mut with_tenant = labels.to_vec();
        with_tenant.push(("tenant", &tenant));
        hub.counter("serve_requests_completed", &with_tenant, 1);
        hub.counter("serve_request_retries", &with_tenant, o.retries as u64);
        hub.counter(
            "serve_request_migrations",
            &with_tenant,
            o.migrations as u64,
        );
        hub.observe("serve_ttft_ms", &with_tenant, o.ttft_ns() / 1e6);
        hub.observe("serve_tpot_ms", &with_tenant, o.tpot_ns() / 1e6);
        hub.observe("serve_e2e_ms", &with_tenant, o.e2e_ns() / 1e6);
    }
}

/// The per-request reference for [`FleetResult::export_metrics`].
fn reference_fleet_export(hub: &MetricsHub, result: &FleetResult, labels: &[(&str, &str)]) {
    hub.gauge("fleet_makespan_ms", labels, result.makespan_ns / 1e6);
    hub.counter(
        "fleet_requests_completed",
        labels,
        result.outcomes.len() as u64,
    );
    let t = result.fleet_telemetry();
    hub.counter("fleet_events", labels, t.events);
    hub.gauge("fleet_peak_queue_depth", labels, t.peak_queue_depth as f64);
    hub.gauge(
        "fleet_peak_batch_occupancy",
        labels,
        t.peak_batch_occupancy as f64,
    );
    for r in &result.replicas {
        let replica = r.replica.to_string();
        let mut replica_labels = labels.to_vec();
        replica_labels.push(("replica", &replica));
        replica_labels.push(("role", r.role.name()));
        reference_sim_export(hub, &r.result, &replica_labels);
    }
    let f = &result.fault;
    for (name, value) in [
        ("fleet_fault_crashes", f.crashes),
        ("fleet_fault_restarts", f.restarts),
        ("fleet_fault_slowdowns", f.slowdowns),
        ("fleet_fault_link_downs", f.link_downs),
        ("fleet_fault_migrations", f.migrations),
        ("fleet_fault_retries", f.retries),
        ("fleet_fault_timeouts", f.timeouts),
        ("fleet_fault_black_holed", f.black_holed),
        ("fleet_fault_lost", f.lost),
    ] {
        hub.counter(name, labels, value as u64);
    }
    hub.gauge("fleet_fault_migrated_bytes", labels, f.migrated_bytes);
}

#[test]
fn batched_metrics_export_matches_per_request_recording_byte_for_byte() {
    let model = model();
    let sim = sim();
    let requests = 160;
    let rate = 400.0;
    let trace = generate_tenant_mix(&Scenario::tenant_mix(), rate, requests, 2026);
    assert!(trace.tenants().len() > 1, "the trace must mix tenants");
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(4)
    };
    let result = FleetSim::new(&sim, &model)
        .run_faulted(&trace, &config, &storm(requests, rate))
        .expect("storm validates");
    assert!(
        result.outcomes.iter().any(|o| o.retries > 0),
        "the storm must retry requests"
    );
    assert!(
        result.outcomes.iter().any(|o| o.migrations > 0),
        "the storm must migrate requests"
    );
    // Recovery counters live on the fleet-level outcomes; per-replica
    // results record each replica's own attempts. Export the fleet outcomes
    // as one run too, so the pre-summed retry/migration counters are
    // nonzero.
    let fleet_outcomes = SimResult {
        outcomes: result.outcomes.clone(),
        ..result.replicas[0].result.clone()
    };

    let batched = MetricsHub::new();
    let reference = MetricsHub::new();
    // Twice into the same hub: the daemon keeps one hub across jobs, so
    // `cell` series accumulate over repeated exports.
    for _ in 0..2 {
        result.export_metrics(&batched, &[("cell", "0")]);
        reference_fleet_export(&reference, &result, &[("cell", "0")]);
        fleet_outcomes.export_metrics(&batched, &[("cell", "fleet")]);
        reference_sim_export(&reference, &fleet_outcomes, &[("cell", "fleet")]);
    }
    let json = batched.to_json();
    let migrations = batched
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "serve_request_migrations")
        .any(|s| s.value != MetricValue::Counter(0));
    assert!(migrations, "migration counters must be exercised: {json}");
    assert_eq!(
        json,
        reference.to_json(),
        "batched export must leave the per-request snapshot bytes"
    );
}
