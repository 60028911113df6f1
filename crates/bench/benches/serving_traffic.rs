//! Trace-driven serving under load: the queueing view of the paper's serving
//! claims.
//!
//! Where `fig12_*`/`fig15_*` compare steady-state step latencies, this bench
//! drives the GPU baseline and the Pimba GPU+PIM system through identical
//! request traces (chat and reasoning-heavy scenarios at a moderate and a
//! saturating arrival rate) with the continuous-batching scheduler, and reports
//! the metrics an operator would: p50/p99 TTFT, p50/p99 TPOT, goodput and SLO
//! attainment. It also re-checks the determinism acceptance criterion (results
//! bit-identical across thread counts and repeat runs) and writes
//! `results/BENCH_serving_traffic.json`.
//!
//! Pass a criterion-style filter (any argument) to skip the recording pass,
//! or set `SERVING_TRAFFIC_REQUESTS` to change the per-cell request count.
//! `PIMBA_PROFILE=1` prints the simulator's per-phase wall-time report to
//! stderr; with `PIMBA_TRACE=1` as well, it includes `metrics_export`.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::metrics::SloSpec;
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};

fn requests_per_cell() -> usize {
    std::env::var("SERVING_TRAFFIC_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

/// GPU-only vs GPU+PIM (Pimba), chat + reasoning, moderate + saturating rates.
fn grid() -> TrafficGrid {
    TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat(), Scenario::reasoning()])
        .with_rates(vec![4.0, 24.0])
        .with_policy(PolicyKind::Continuous)
        .with_requests_per_cell(requests_per_cell())
        .with_seq_bucket(64)
        .with_seed(2025)
        // Tight interactive SLO: first token within 200 ms, then 125 tokens/s —
        // strict enough that the saturating rate separates the systems.
        .with_slo(SloSpec {
            ttft_ms: 200.0,
            tpot_ms: 8.0,
        })
}

fn bench_runner(c: &mut Criterion) {
    let g = grid();
    c.bench_function("serving_traffic_grid_parallel", |b| {
        b.iter(|| TrafficRunner::new().run(&g))
    });
    c.bench_function("serving_traffic_grid_serial", |b| {
        b.iter(|| TrafficRunner::new().with_threads(1).run(&g))
    });
}

fn fingerprint(records: &[TrafficRecord]) -> Vec<u64> {
    records
        .iter()
        .flat_map(|r| {
            [
                r.summary.ttft_ms.p99.to_bits(),
                r.summary.tpot_ms.p99.to_bits(),
                r.summary.e2e_ms.p99.to_bits(),
                r.summary.goodput_rps.to_bits(),
            ]
        })
        .collect()
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping traffic recording)");
        return;
    }
    // Opt-in self-profiling: per-phase (stepping / memo lookup / metrics
    // export) wall-time report on stderr. Wall clocks only — simulated
    // results and the JSON artifact are unchanged.
    if bench::profile_enabled() {
        pimba_system::obs::enable_profiling();
    }
    let g = grid();
    let grid_start = std::time::Instant::now();
    let records = TrafficRunner::new().run(&g);
    let grid_wall = grid_start.elapsed().as_secs_f64();
    println!(
        "  grid wall {:.1} ms, {} cells, {:.1} cells/s",
        grid_wall * 1e3,
        records.len(),
        records.len() as f64 / grid_wall
    );

    // Acceptance: bit-identical across thread counts and repeat runs.
    let deterministic = fingerprint(&records) == fingerprint(&TrafficRunner::new().run(&g))
        && fingerprint(&records) == fingerprint(&TrafficRunner::new().with_threads(1).run(&g));
    println!("\ndeterministic across threads/repeats: {deterministic}");
    assert!(deterministic, "traffic results must be reproducible");

    // Observability gate (opt-in): with PIMBA_TRACE set, re-run the grid with
    // a trace recorder and a metrics hub attached — the instrumented records
    // must be byte-identical, so the artifact below regenerates bit for bit.
    if bench::trace_enabled() {
        use pimba_system::obs::{MetricsHub, TraceRecorder};
        use pimba_system::sweep::RunControl;
        use std::sync::Arc;
        let hub = MetricsHub::new();
        let recorder = Arc::new(TraceRecorder::new());
        let instrumented = TrafficRunner::new()
            .with_trace(Arc::clone(&recorder))
            .run_controlled(&g, &RunControl::new().with_metrics(hub.clone()))
            .expect("uncancelled run");
        assert!(
            instrumented == records,
            "tracing + metrics changed the traffic records"
        );
        println!(
            "  PIMBA_TRACE: instrumented rerun byte-identical \
             ({} trace events, {} metric series)",
            recorder.event_count(),
            hub.snapshot().len()
        );
    }

    let header = [
        "system",
        "scenario",
        "rate_rps",
        "max_batch",
        "ttft_p50_ms",
        "ttft_p99_ms",
        "tpot_p50_ms",
        "tpot_p99_ms",
        "e2e_p99_ms",
        "goodput_rps",
        "slo_attainment",
    ];
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    for r in &records {
        let system = g.systems[r.system].kind.name();
        let scenario = g.scenarios[r.scenario].name.clone();
        let s = &r.summary;
        rows.push(vec![
            system.to_string(),
            scenario.clone(),
            bench::fmt(r.rate_rps, 1),
            r.max_batch.to_string(),
            bench::fmt(s.ttft_ms.p50, 2),
            bench::fmt(s.ttft_ms.p99, 2),
            bench::fmt(s.tpot_ms.p50, 3),
            bench::fmt(s.tpot_ms.p99, 3),
            bench::fmt(s.e2e_ms.p99, 1),
            bench::fmt(s.goodput_rps, 2),
            bench::fmt(s.slo_attainment, 3),
        ]);
        json_cells.push(format!(
            "    {{\"system\": \"{system}\", \"scenario\": \"{scenario}\", \"rate_rps\": {:.1}, \
             \"max_batch\": {}, \"ttft_p50_ms\": {:.4}, \"ttft_p99_ms\": {:.4}, \
             \"tpot_p50_ms\": {:.4}, \"tpot_p99_ms\": {:.4}, \"e2e_p99_ms\": {:.4}, \
             \"goodput_rps\": {:.4}, \"slo_attainment\": {:.4}}}",
            r.rate_rps,
            r.max_batch,
            s.ttft_ms.p50,
            s.ttft_ms.p99,
            s.tpot_ms.p50,
            s.tpot_ms.p99,
            s.e2e_ms.p99,
            s.goodput_rps,
            s.slo_attainment,
        ));
    }
    bench::print_table(
        "Serving under traffic (continuous batching, identical traces per system)",
        &header,
        &rows,
    );
    bench::write_csv("serving_traffic", &header, &rows);

    let json = format!(
        "{{\n  \"bench\": \"serving_traffic\",\n  \"policy\": \"{}\",\n  \
         \"requests_per_cell\": {},\n  \"deterministic\": {deterministic},\n  \"cells\": [\n{}\n  ]\n}}\n",
        g.policy.name(),
        g.requests_per_cell,
        json_cells.join(",\n"),
    );
    let path = bench::results_dir().join("BENCH_serving_traffic.json");
    std::fs::write(&path, json).expect("failed to write BENCH_serving_traffic.json");
    println!("  -> wrote {}", path.display());

    // Opt-in persistent memo: with PIMBA_STORE_DIR set, the grid warms a
    // disk-backed store shared across bench invocations, and a simulated
    // restart (reopening the segment files) must answer every cell warm and
    // byte-identical.
    if let Some(dir) = std::env::var_os("PIMBA_STORE_DIR").map(std::path::PathBuf::from) {
        use pimba_serve::runner::TrafficMemo;
        use std::sync::Arc;
        let memo = Arc::new(TrafficMemo::persistent(&dir).expect("open PIMBA_STORE_DIR"));
        let cold_start = std::time::Instant::now();
        let first = TrafficRunner::new().with_memo(Arc::clone(&memo)).run(&g);
        let cold_wall = cold_start.elapsed().as_secs_f64();
        assert!(
            first == records,
            "memoized records diverged from direct run"
        );
        memo.sync().expect("sync store");
        drop(memo);

        // "Restart": reload the segments exactly as a fresh process would.
        let reloaded = Arc::new(TrafficMemo::persistent(&dir).expect("reopen PIMBA_STORE_DIR"));
        let warm_start = std::time::Instant::now();
        let warm = TrafficRunner::new()
            .with_memo(Arc::clone(&reloaded))
            .run(&g);
        let warm_wall = warm_start.elapsed().as_secs_f64();
        assert!(warm == records, "disk-warm records diverged from cold run");
        let (_, cells) = reloaded.stats();
        assert_eq!(cells.misses, 0, "restart must answer every cell from disk");
        println!(
            "  memo store {}: cold {:.1} ms vs warm restart {:.2} ms ({:.0}x, \
             {} cells from disk, byte-identical)",
            dir.display(),
            cold_wall * 1e3,
            warm_wall * 1e3,
            cold_wall / warm_wall.max(1e-9),
            cells.hits,
        );
    }

    if bench::profile_enabled() {
        eprintln!("{}", pimba_system::obs::profile_report_text());
    }
}

criterion_group!(benches, bench_runner, record_results);
criterion_main!(benches);
