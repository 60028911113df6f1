//! Fleet-scale serving study: how many replicas hold the SLO at a given
//! fleet load (GPU vs Pimba), how much the router matters at high load, and
//! what disaggregated prefill/decode costs or saves under the state-transfer
//! model. Writes `results/BENCH_fleet_scale.json`.
//!
//! Every run opens with the **divergence gate**: a colocated single-replica
//! fleet is simulated next to the plain `pimba-serve` engine on the same
//! trace and the two `SimResult`s must agree bit for bit — the co-simulation
//! layer is not allowed to change a single output bit. The gate then runs the
//! multi-replica colocated fleets this bench sweeps under every router and
//! checks each replica against the plain engine over its routed sub-trace,
//! which covers the driver's load-probe stepping and the replicas' shared
//! latency memo. Any mismatch panics (and fails CI, where this bench runs as
//! a smoke with `FLEET_SCALE_REQUESTS` shrinking the traces).

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{replicas_to_hold, FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::SloSpec;
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::{handoff_bytes, StateTransferModel};

fn requests_per_cell() -> usize {
    std::env::var("FLEET_SCALE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

const SLO: SloSpec = SloSpec {
    ttft_ms: 1000.0,
    tpot_ms: 50.0,
};
const SCALING_RATE_RPS: f64 = 48.0;
const TARGET_ATTAINMENT: f64 = 0.99;

/// The gate: a single-replica colocated fleet must be bit-identical to the
/// plain engine, and every replica of a multi-replica one to the plain engine
/// over its routed sub-trace, for both systems, a couple of policies and
/// every router. Returns after asserting; the JSON records that it ran.
fn assert_fleet_bit_identity(n: usize) {
    let model = model();
    let trace = Scenario::reasoning().generate(8.0, n.min(120), 2026);
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        for policy in [PolicyKind::Continuous, PolicyKind::FcfsStatic] {
            let engine_config = EngineConfig {
                max_batch: 32,
                seq_bucket: 32,
                ..EngineConfig::default()
            };
            let engine = Engine::new(&sim, &model, engine_config);
            let mut scheduler = policy.build();
            let expected = engine.run(&trace, scheduler.as_mut());
            let config = FleetConfig {
                mode: FleetMode::Colocated { replicas: 1 },
                router: RouterKind::Jsq,
                policy,
                engine: engine_config,
                seed: 1,
                ..FleetConfig::colocated(1)
            };
            let fleet_sim = FleetSim::new(&sim, &model);
            let fleet = fleet_sim.run(&trace, &config);
            assert_eq!(
                fleet.replicas[0].result,
                expected,
                "single-replica fleet diverged from the plain engine ({kind:?}/{})",
                policy.name()
            );
            for replicas in [2, 3, 4, 6, 8] {
                for router in RouterKind::ALL
                    .into_iter()
                    .chain([RouterKind::TenantAffinity])
                {
                    let config = FleetConfig {
                        mode: FleetMode::Colocated { replicas },
                        router,
                        ..config.clone()
                    };
                    let fleet = fleet_sim.run(&trace, &config);
                    if let Some(replica) = fleet_sim.sub_trace_divergence(&trace, &config, &fleet) {
                        panic!(
                            "replica {replica} of {replicas} diverged from the plain engine over \
                             its routed sub-trace ({kind:?}/{}/{})",
                            policy.name(),
                            router.name()
                        );
                    }
                }
            }
        }
    }
    println!("  divergence gate: single-replica fleet == plain engine (bit-identical)");
    println!("  divergence gate: every replica == plain engine over its routed sub-trace");
}

fn bench_cells(c: &mut Criterion) {
    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = Scenario::chat().generate(120.0, requests_per_cell().min(200), 2026);
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(8)
    };
    c.bench_function("fleet_scale_8_replica_jsq_chat", |b| {
        b.iter(|| FleetSim::new(&sim, &model).run(&trace, &config))
    });
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping fleet-scale recording)");
        return;
    }
    let n = requests_per_cell();
    // Opt-in self-profiling: per-phase (routing / stepping / handoff
    // delivery / window barriers) wall-time report on stderr. Wall clocks
    // only — simulated results and the JSON artifact are unchanged.
    if bench::profile_enabled() {
        pimba_system::obs::enable_profiling();
    }
    assert_fleet_bit_identity(n);
    let model = model();

    // ------------------------------------------------------------------
    // 1. Scaling: replicas needed to hold 99% attainment at a fixed fleet
    //    load, GPU vs Pimba, reasoning traffic, JSQ routing.
    // ------------------------------------------------------------------
    let replica_counts = vec![1usize, 2, 3, 4, 6, 8];
    let grid = FleetGrid::new(model.clone())
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::reasoning()])
        .with_rates(vec![SCALING_RATE_RPS])
        .with_replica_counts(replica_counts.clone())
        .with_routers(vec![RouterKind::Jsq])
        .with_requests_per_cell(n)
        .with_slo(SLO)
        .with_seed(2026);
    let records = FleetRunner::new().run(&grid);

    // Observability gate (opt-in): with PIMBA_TRACE set, (a) re-run the
    // scaling grid with tracing + metrics attached — byte-identical records
    // mean the artifact below regenerates bit for bit — and (b) check that a
    // traced empty-FaultPlan fleet still equals the fault-free run.
    if bench::trace_enabled() {
        use pimba_fleet::fault::FaultPlan;
        use pimba_system::obs::{MetricsHub, TraceRecorder};
        use pimba_system::sweep::RunControl;
        use std::sync::Arc;
        let hub = MetricsHub::new();
        let recorder = Arc::new(TraceRecorder::new());
        let instrumented = FleetRunner::new()
            .with_trace(Arc::clone(&recorder))
            .run_controlled(&grid, &RunControl::new().with_metrics(hub.clone()))
            .expect("uncancelled run");
        assert!(
            instrumented == records,
            "tracing + metrics changed the fleet records"
        );

        let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let trace = Scenario::chat().generate(60.0, n.min(200), 2026);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(4)
        };
        let plain = FleetSim::new(&sim, &model).run(&trace, &config);
        let empty_plan = FleetSim::new(&sim, &model)
            .with_trace(Arc::clone(&recorder))
            .with_trace_prefix("empty-plan / ")
            .run_faulted(&trace, &config, &FaultPlan::default())
            .expect("empty plan validates");
        assert!(
            empty_plan == plain,
            "a traced empty-FaultPlan fleet must equal the fault-free run"
        );
        println!(
            "  PIMBA_TRACE: instrumented rerun byte-identical, empty fault plan \
             inert ({} trace events, {} metric series)",
            recorder.event_count(),
            hub.snapshot().len()
        );
    }

    let mut scaling_rows: Vec<Vec<String>> = Vec::new();
    let mut scaling_json: Vec<String> = Vec::new();
    for rec in &records {
        let system = grid.systems[rec.system].kind.name();
        scaling_rows.push(vec![
            system.to_string(),
            rec.replicas.to_string(),
            rec.max_batch.to_string(),
            bench::fmt(rec.summary.slo_attainment, 3),
            bench::fmt(rec.summary.goodput_rps, 1),
            bench::fmt(rec.goodput_per_replica, 2),
            bench::fmt(rec.summary.ttft_ms.p99, 1),
        ]);
        scaling_json.push(format!(
            "    {{\"system\": \"{system}\", \"replicas\": {}, \"max_batch\": {}, \
             \"attainment\": {:.4}, \"goodput_rps\": {:.2}, \"goodput_per_replica\": {:.3}, \
             \"p99_ttft_ms\": {:.2}}}",
            rec.replicas,
            rec.max_batch,
            rec.summary.slo_attainment,
            rec.summary.goodput_rps,
            rec.goodput_per_replica,
            rec.summary.ttft_ms.p99,
        ));
    }
    bench::print_table(
        &format!(
            "Fleet scaling: reasoning @ {SCALING_RATE_RPS} rps fleet load, JSQ (SLO {}ms TTFT / {}ms TPOT)",
            SLO.ttft_ms, SLO.tpot_ms
        ),
        &[
            "system",
            "replicas",
            "max_batch",
            "attainment",
            "goodput_rps",
            "goodput/replica",
            "p99_ttft_ms",
        ],
        &scaling_rows,
    );

    let gpu_needed = replicas_to_hold(
        &records,
        0,
        0,
        SCALING_RATE_RPS,
        RouterKind::Jsq,
        TARGET_ATTAINMENT,
    );
    let pimba_needed = replicas_to_hold(
        &records,
        1,
        0,
        SCALING_RATE_RPS,
        RouterKind::Jsq,
        TARGET_ATTAINMENT,
    );
    let fmt_needed = |n: Option<usize>| {
        n.map(|v| v.to_string())
            .unwrap_or_else(|| format!("> {}", replica_counts.last().unwrap()))
    };
    println!(
        "\n  replicas to hold {:.0}% attainment at {SCALING_RATE_RPS} rps: GPU {} vs Pimba {}",
        TARGET_ATTAINMENT * 100.0,
        fmt_needed(gpu_needed),
        fmt_needed(pimba_needed)
    );

    // ------------------------------------------------------------------
    // 2. Router comparison at high load: p99 TTFT, RR vs JSQ vs po2. The
    //    rates sit just under the 4-replica saturation point (batch cap 16)
    //    — the regime where load-aware placement decides whether a long
    //    request parks behind another or finds the idle replica. Far past
    //    saturation every router collapses identically; far below, none
    //    matters.
    // ------------------------------------------------------------------
    let router_rates = [12.0, 14.0];
    let router_grid = FleetGrid::new(model.clone())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::reasoning()])
        .with_rates(router_rates.to_vec())
        .with_replica_counts(vec![4])
        .with_routers(RouterKind::ALL.to_vec())
        .with_requests_per_cell(n)
        .with_slo(SLO)
        .with_max_batch(16)
        .with_seed(7);
    let router_records = FleetRunner::new().run(&router_grid);
    let rr_p99_at = |rate: f64| {
        router_records
            .iter()
            .find(|r| r.router == RouterKind::RoundRobin && r.rate_rps == rate)
            .map(|r| r.summary.ttft_ms.p99)
            .unwrap()
    };
    let mut router_rows = Vec::new();
    let mut router_json = Vec::new();
    for rec in &router_records {
        let rr_p99 = rr_p99_at(rec.rate_rps);
        router_rows.push(vec![
            bench::fmt(rec.rate_rps, 0),
            rec.router.name().to_string(),
            bench::fmt(rec.summary.ttft_ms.p50, 1),
            bench::fmt(rec.summary.ttft_ms.p99, 1),
            bench::fmt(rr_p99 / rec.summary.ttft_ms.p99, 2),
            bench::fmt(rec.summary.slo_attainment, 3),
            format!("{:?}", rec.per_replica_completed),
        ]);
        router_json.push(format!(
            "    {{\"rate_rps\": {}, \"router\": \"{}\", \"p50_ttft_ms\": {:.2}, \
             \"p99_ttft_ms\": {:.2}, \"p99_speedup_vs_rr\": {:.3}, \"attainment\": {:.4}}}",
            rec.rate_rps,
            rec.router.name(),
            rec.summary.ttft_ms.p50,
            rec.summary.ttft_ms.p99,
            rr_p99 / rec.summary.ttft_ms.p99,
            rec.summary.slo_attainment,
        ));
    }
    bench::print_table(
        "Routing at high load: Pimba x4, reasoning, batch cap 16",
        &[
            "rate_rps",
            "router",
            "p50_ttft_ms",
            "p99_ttft_ms",
            "rr/p99",
            "attainment",
            "served",
        ],
        &router_rows,
    );

    // ------------------------------------------------------------------
    // 3. Disaggregated vs colocated under the transfer model, plus the
    //    handoff-size story (SU-LLM state vs transformer KV cache).
    // ------------------------------------------------------------------
    let transfer = StateTransferModel::nvlink();
    let mut disagg_rows = Vec::new();
    let mut disagg_json = Vec::new();
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let trace = Scenario::chat().generate(60.0, n, 2027);
        let bytes = handoff_bytes(sim.config(), &model, 2048);
        let transfer_us = transfer.transfer_ns(bytes) / 1e3;
        for (mode_name, mode) in [
            ("colocated", FleetMode::Colocated { replicas: 4 }),
            (
                "disaggregated",
                FleetMode::Disaggregated {
                    prefill_replicas: 2,
                    decode_replicas: 2,
                    transfer,
                },
            ),
        ] {
            let config = FleetConfig {
                mode,
                router: RouterKind::Jsq,
                policy: PolicyKind::Continuous,
                engine: EngineConfig {
                    max_batch: 32,
                    seq_bucket: 32,
                    timeline_sample_every: 0,
                    ..EngineConfig::default()
                },
                seed: 5,
                ..FleetConfig::colocated(1)
            };
            let run_start = std::time::Instant::now();
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            let wall = run_start.elapsed().as_secs_f64();
            let tput = result.throughput(wall);
            println!(
                "  [{} {mode_name}] wall {:.2} ms, {} events, {:.1} Mevents/s",
                kind.name(),
                wall * 1e3,
                tput.events,
                tput.events_per_sec / 1e6
            );
            let s = result.summary(&SLO);
            disagg_rows.push(vec![
                kind.name().to_string(),
                mode_name.to_string(),
                bench::fmt(s.ttft_ms.p99, 1),
                bench::fmt(s.tpot_ms.p99, 2),
                bench::fmt(s.e2e_ms.p99, 1),
                bench::fmt(s.slo_attainment, 3),
                bench::fmt(bytes / 1e6, 2),
                bench::fmt(transfer_us, 1),
            ]);
            disagg_json.push(format!(
                "    {{\"system\": \"{}\", \"mode\": \"{mode_name}\", \"p99_ttft_ms\": {:.2}, \
                 \"p99_tpot_ms\": {:.3}, \"p99_e2e_ms\": {:.2}, \"attainment\": {:.4}, \
                 \"handoff_mb_per_request\": {:.3}, \"transfer_us_per_handoff\": {:.2}}}",
                kind.name(),
                s.ttft_ms.p99,
                s.tpot_ms.p99,
                s.e2e_ms.p99,
                s.slo_attainment,
                bytes / 1e6,
                transfer_us,
            ));
        }
    }
    // The KV-cache contrast: what a transformer would have to ship.
    let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
    let gpu_cfg = SystemConfig::small_scale(SystemKind::Gpu);
    let pimba_cfg = SystemConfig::small_scale(SystemKind::Pimba);
    let kv_mb = handoff_bytes(&gpu_cfg, &opt, 2048) / 1e6;
    let state_mb = handoff_bytes(&pimba_cfg, &model, 2048) / 1e6;
    bench::print_table(
        "Disaggregated prefill/decode (2P+2D, NVLink transfer) vs colocated x4, chat @ 60 rps",
        &[
            "system",
            "mode",
            "p99_ttft_ms",
            "p99_tpot_ms",
            "p99_e2e_ms",
            "attainment",
            "handoff_MB",
            "transfer_us",
        ],
        &disagg_rows,
    );
    println!(
        "\n  handoff size @ 2048 ctx: Pimba/Mamba-2 state {state_mb:.2} MB vs GPU/OPT KV cache {kv_mb:.2} MB ({:.0}x)",
        kv_mb / state_mb
    );

    let header = [
        "system",
        "replicas",
        "max_batch",
        "attainment",
        "goodput_rps",
        "goodput_per_replica",
        "p99_ttft_ms",
    ];
    bench::write_csv("fleet_scale", &header, &scaling_rows);

    let json = format!(
        "{{\n  \"bench\": \"fleet_scale\",\n  \"requests_per_cell\": {n},\n  \
         \"slo\": {{\"ttft_ms\": {}, \"tpot_ms\": {}}},\n  \
         \"single_replica_bit_identical\": true,\n  \
         \"scaling_rate_rps\": {SCALING_RATE_RPS},\n  \
         \"replicas_for_99pct_slo\": {{\"GPU\": \"{}\", \"Pimba\": \"{}\"}},\n  \
         \"scaling\": [\n{}\n  ],\n  \
         \"router_comparison\": [\n{}\n  ],\n  \
         \"disaggregation\": [\n{}\n  ],\n  \
         \"handoff_mb\": {{\"pimba_mamba2_state\": {state_mb:.3}, \"gpu_opt_kv\": {kv_mb:.3}}}\n}}\n",
        SLO.ttft_ms,
        SLO.tpot_ms,
        fmt_needed(gpu_needed),
        fmt_needed(pimba_needed),
        scaling_json.join(",\n"),
        router_json.join(",\n"),
        disagg_json.join(",\n"),
    );
    let path = bench::results_dir().join("BENCH_fleet_scale.json");
    std::fs::write(&path, json).expect("failed to write BENCH_fleet_scale.json");
    println!("  -> wrote {}", path.display());

    if bench::profile_enabled() {
        eprintln!("{}", pimba_system::obs::profile_report_text());
    }
}

criterion_group!(benches, bench_cells, record_results);
criterion_main!(benches);
