//! Fleet event-loop throughput and memoized what-if grids. Writes
//! `results/BENCH_fleet_parallel.json`.
//!
//! Headlines:
//! * wall-clock, events/s and ns per event of an 8-replica fleet, colocated
//!   and disaggregated (3 prefill + 5 decode), one row per router. Every
//!   fleet runs the one sequential event loop, so ns per event compares the
//!   two topologies directly. The primary regime is a uniform batch
//!   workload under FCFS-static scheduling (fixed prompt/output, the
//!   standard throughput-benchmark shape); a continuous-batching
//!   long-decode regime is reported alongside it.
//! * cold vs warm evaluation of a what-if grid against a shared
//!   [`FleetMemo`] (warm cells skip simulation entirely). The warm records
//!   must be byte-identical to the cold run, or the bench panics (and fails
//!   CI, where this bench runs as a smoke with `FLEET_PARALLEL_REQUESTS`
//!   shrinking the workload).
//!
//! Parallelism lives across grid cells (the runner's threads) and daemon
//! jobs, not inside one fleet.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use std::sync::Arc;

fn requests() -> usize {
    std::env::var("FLEET_PARALLEL_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6000)
}

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

/// A measured regime: traffic shape + per-replica policy + offered rate.
struct Regime {
    key: &'static str,
    scenario: Scenario,
    policy: PolicyKind,
    rate_rps: f64,
}

/// Uniform batch workload (fixed prompt/output, the standard
/// throughput-benchmark shape) under FCFS-static scheduling: whole batches
/// complete together.
fn uniform_batch() -> Scenario {
    let mut scn = Scenario::chat();
    scn.name = "uniform_batch".to_string();
    scn.prompt_range = (256, 256);
    scn.output_range = (512, 512);
    scn
}

/// Long-decode traffic under continuous batching: busy batches at
/// sub-saturation load, the regime a production fleet actually runs in.
fn long_decode() -> Scenario {
    let mut scn = Scenario::chat();
    scn.name = "long_decode".to_string();
    scn.prompt_range = (64, 512);
    scn.output_range = (256, 1024);
    scn
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            key: "fcfs_uniform",
            scenario: uniform_batch(),
            policy: PolicyKind::FcfsStatic,
            rate_rps: 60.0,
        },
        Regime {
            key: "continuous_long_decode",
            scenario: long_decode(),
            policy: PolicyKind::Continuous,
            rate_rps: 42.0,
        },
    ]
}

const REPLICAS: usize = 8;

/// The two 8-replica topologies every regime runs on.
fn topologies() -> [(&'static str, FleetMode); 2] {
    [
        ("colocated", FleetMode::Colocated { replicas: REPLICAS }),
        (
            "disaggregated",
            FleetMode::Disaggregated {
                prefill_replicas: 3,
                decode_replicas: REPLICAS - 3,
                transfer: StateTransferModel::nvlink(),
            },
        ),
    ]
}

fn fleet_config(mode: FleetMode, router: RouterKind, policy: PolicyKind) -> FleetConfig {
    let mut config = FleetConfig::colocated(REPLICAS);
    config.mode = mode;
    config.router = router;
    config.policy = policy;
    config.engine.max_batch = 16;
    config.engine.seq_bucket = 512;
    config.engine.timeline_sample_every = 0;
    config
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping fleet-parallel recording)");
        return;
    }
    let n = requests();
    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let fleet = FleetSim::new(&sim, &model);
    let reps = if n <= 1000 { 1 } else { 9 };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ------------------------------------------------------------------
    // 1. Event-loop throughput: wall-clock per router and topology.
    // ------------------------------------------------------------------
    let mut rows_json: Vec<String> = Vec::new();
    for regime in regimes() {
        let trace = regime.scenario.generate(regime.rate_rps, n, 2026);
        for (label, mode) in topologies() {
            let mut rows: Vec<Vec<String>> = Vec::new();
            for router in RouterKind::ALL {
                let config = fleet_config(mode, router, regime.policy);
                let result = fleet.run(&trace, &config);
                let times: Vec<f64> = (0..reps)
                    .map(|_| bench::median_secs(1, || fleet.run(&trace, &config)))
                    .collect();
                let wall = pimba_system::stats::median(&times).expect("at least one rep");
                let throughput = result.throughput(wall);
                let ns_per_event = wall * 1e9 / throughput.events as f64;
                rows.push(vec![
                    router.name().into(),
                    bench::fmt(wall * 1e3, 2),
                    throughput.events.to_string(),
                    bench::fmt(throughput.events_per_sec / 1e6, 3),
                    bench::fmt(ns_per_event, 1),
                ]);
                rows_json.push(format!(
                    "    {{\"regime\": \"{}\", \"scenario\": \"{}\", \"policy\": \"{}\", \
                     \"rate_rps\": {}, \"topology\": \"{label}\", \"router\": \"{}\", \
                     \"wall_ms\": {:.2}, \"events\": {}, \"events_per_sec\": {:.0}, \
                     \"ns_per_event\": {:.1}}}",
                    regime.key,
                    regime.scenario.name,
                    match regime.policy {
                        PolicyKind::FcfsStatic => "fcfs_static",
                        _ => "continuous",
                    },
                    regime.rate_rps,
                    router.name(),
                    wall * 1e3,
                    throughput.events,
                    throughput.events_per_sec,
                    ns_per_event,
                ));
            }
            bench::print_table(
                &format!(
                    "Fleet event loop [{} / {label}]: {REPLICAS} replicas, {} @ {} rps, \
                     {n} requests (median of {reps}, nproc {nproc})",
                    regime.key, regime.scenario.name, regime.rate_rps
                ),
                &["router", "wall_ms", "events", "Mevents/s", "ns/event"],
                &rows,
            );
        }
    }

    // ------------------------------------------------------------------
    // 2. Memoized what-if grid: cold vs warm.
    // ------------------------------------------------------------------
    let grid = FleetGrid::new(model.clone())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat(), long_decode()])
        .with_rates(vec![30.0, 60.0])
        .with_replica_counts(vec![4, 8])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell((n / 8).max(100))
        .with_seed(2026);
    // Opt-in persistent memo: with PIMBA_STORE_DIR set, the what-if grid
    // warms a disk-backed store shared across bench invocations (so the
    // "cold" run below may itself be warm from a previous one).
    let store_dir = std::env::var_os("PIMBA_STORE_DIR").map(std::path::PathBuf::from);
    let memo = match &store_dir {
        Some(dir) => Arc::new(FleetMemo::persistent(dir).expect("open PIMBA_STORE_DIR")),
        None => Arc::new(FleetMemo::new()),
    };
    let runner = FleetRunner::new().with_memo(memo.clone());
    let cold_start = std::time::Instant::now();
    let cold = runner.run(&grid);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let warm_start = std::time::Instant::now();
    let warm = runner.run(&grid);
    let warm_wall = warm_start.elapsed().as_secs_f64();
    assert!(warm == cold, "warm memo records diverged from cold run");
    let (_, cell_stats) = memo.stats();
    assert!(
        cell_stats.hits as usize >= grid.len(),
        "warm run must answer every cell from the memo"
    );
    if let Some(dir) = &store_dir {
        memo.sync().expect("sync store");
        // "Restart": reload the segment files exactly as a fresh process
        // would, and re-answer the whole grid from disk.
        let reloaded = Arc::new(FleetMemo::persistent(dir).expect("reopen PIMBA_STORE_DIR"));
        let restart_start = std::time::Instant::now();
        let restarted = FleetRunner::new().with_memo(reloaded.clone()).run(&grid);
        let restart_wall = restart_start.elapsed().as_secs_f64();
        assert!(
            restarted == cold,
            "disk-warm records diverged from cold run"
        );
        let (_, disk_cells) = reloaded.stats();
        assert_eq!(
            disk_cells.misses, 0,
            "restart must answer every cell from disk"
        );
        println!(
            "  memo store {}: cold {:.1} ms vs warm restart {:.2} ms ({:.0}x, \
             {} cells from disk, byte-identical)",
            dir.display(),
            cold_wall * 1e3,
            restart_wall * 1e3,
            cold_wall / restart_wall.max(1e-9),
            disk_cells.hits,
        );
    }
    let memo_speedup = cold_wall / warm_wall;
    bench::print_table(
        &format!(
            "Memoized what-if grid: {} cells, {} requests/cell (warm byte-identical)",
            grid.len(),
            grid.requests_per_cell
        ),
        &["phase", "wall_ms", "speedup"],
        &[
            vec!["cold".into(), bench::fmt(cold_wall * 1e3, 1), "1.00".into()],
            vec![
                "warm".into(),
                bench::fmt(warm_wall * 1e3, 2),
                bench::fmt(memo_speedup, 1),
            ],
        ],
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet_parallel\",\n  \"requests\": {n},\n  \"nproc\": {nproc},\n  \
         \"fleet\": {{\"replicas\": {REPLICAS}, \"disaggregated\": \"3 prefill + 5 decode\", \
         \"max_batch\": 16}},\n  \
         \"gates\": {{\"memo_warm_byte_identical\": true}},\n  \
         \"event_loop\": [\n{}\n  ],\n  \
         \"memo_grid\": {{\"cells\": {}, \"requests_per_cell\": {}, \
         \"cold_wall_ms\": {:.2}, \"warm_wall_ms\": {:.3}, \"speedup\": {:.1}}}\n}}\n",
        rows_json.join(",\n"),
        grid.len(),
        grid.requests_per_cell,
        cold_wall * 1e3,
        warm_wall * 1e3,
        memo_speedup,
    );
    let path = bench::results_dir().join("BENCH_fleet_parallel.json");
    std::fs::write(&path, json).expect("failed to write BENCH_fleet_parallel.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, record_results);
criterion_main!(benches);
