//! Sweep-engine throughput: how fast the simulator itself runs.
//!
//! Times the evaluation of serving-simulator grids three ways —
//!
//! 1. **naive**: single-threaded, per-layer operator evaluation
//!    (`generation_step_per_layer` — one latency-model invocation per block per
//!    operator, the O(layers × ops) path a layer-by-layer simulator executes),
//! 2. **canonical**: single-threaded, fused per-kind evaluation
//!    (`generation_step`, one workload and one evaluation per operator per
//!    point),
//! 3. **sweep**: the `SweepRunner` fast path (seq-invariant row evaluation +
//!    worker threads),
//!
//! on the 4-system × 8-point grid of the acceptance criterion and on a full
//! figure-scale fleet grid. Every variant computes each latency directly; the
//! simulator has no cache. Besides the criterion-style per-variant lines it
//! writes `results/BENCH_sweep_throughput.json` with median wall-clock numbers and
//! the naive→sweep speedup, establishing the perf-trajectory baseline. (Its
//! `canonical_uncached_*` keys keep their historical names.)

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{SweepGrid, SweepRunner};

fn systems() -> Vec<SystemConfig> {
    SystemKind::MAIN_COMPARISON
        .iter()
        .map(|&k| SystemConfig::small_scale(k))
        .collect()
}

/// The acceptance grid: 4 systems x (2 batches x 4 seq lens) = 32 points.
fn small_grid() -> SweepGrid {
    SweepGrid {
        systems: systems(),
        models: vec![ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)],
        batches: vec![32, 128],
        seq_lens: vec![512, 1024, 2048, 4096],
    }
}

/// Figure-scale grid: 4 systems x 6 models x 3 batches x 8 seq lens = 576 points.
fn fleet_grid() -> SweepGrid {
    SweepGrid {
        systems: systems(),
        models: ModelFamily::PERFORMANCE_SET
            .iter()
            .map(|&f| ModelConfig::preset(f, ModelScale::Small))
            .collect(),
        batches: vec![32, 64, 128],
        seq_lens: vec![256, 512, 1024, 1536, 2048, 2560, 3072, 4096],
    }
}

/// The naive baseline: fresh simulators, one point at a time, per-layer
/// operator evaluation.
fn run_naive_per_layer(grid: &SweepGrid) -> f64 {
    let sims: Vec<ServingSimulator> = grid
        .systems
        .iter()
        .map(|c| ServingSimulator::new(c.clone()))
        .collect();
    let mut checksum = 0.0;
    for sim in &sims {
        for model in &grid.models {
            for &batch in &grid.batches {
                for &seq in &grid.seq_lens {
                    checksum += sim.generation_step_per_layer(model, batch, seq).total_ns;
                }
            }
        }
    }
    checksum
}

/// The point-by-point path: fused per-kind evaluation, one `generation_step`
/// plus one `memory_usage_bytes` per point, single thread. (Hand-rolled: the
/// `SweepRunner` evaluates rows through the seq-invariant `StepFunction`, so
/// the point-by-point baseline must be spelled out to stay the baseline.)
fn run_canonical_serial(grid: &SweepGrid) -> f64 {
    let sims: Vec<ServingSimulator> = grid
        .systems
        .iter()
        .map(|c| ServingSimulator::new(c.clone()))
        .collect();
    let mut checksum = 0.0;
    for sim in &sims {
        for model in &grid.models {
            for &batch in &grid.batches {
                for &seq in &grid.seq_lens {
                    checksum += sim.generation_step(model, batch, seq).total_ns;
                    checksum += sim.memory_usage_bytes(model, batch, seq);
                }
            }
        }
    }
    checksum
}

/// The fast path under test.
fn run_sweep(grid: &SweepGrid) -> f64 {
    SweepRunner::new()
        .run(grid)
        .iter()
        .map(|r| r.step.total_ns)
        .sum()
}

fn bench_grids(c: &mut Criterion) {
    let small = small_grid();
    let fleet = fleet_grid();
    c.bench_function("sweep_small_naive_per_layer_serial", |b| {
        b.iter(|| run_naive_per_layer(&small))
    });
    c.bench_function("sweep_small_canonical_serial", |b| {
        b.iter(|| run_canonical_serial(&small))
    });
    c.bench_function("sweep_small_parallel", |b| b.iter(|| run_sweep(&small)));
    c.bench_function("sweep_fleet_canonical_serial", |b| {
        b.iter(|| run_canonical_serial(&fleet))
    });
    c.bench_function("sweep_fleet_parallel", |b| b.iter(|| run_sweep(&fleet)));
}

/// Measures the headline speedups and records the perf-trajectory baseline.
/// Skipped when a bench-name filter is given, so targeted runs stay fast.
fn record_trajectory(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping trajectory recording)");
        return;
    }
    let small = small_grid();
    let fleet = fleet_grid();

    let naive_small = bench::median_secs(9, || run_naive_per_layer(&small));
    let canonical_small = bench::median_secs(9, || run_canonical_serial(&small));
    let sweep_small = bench::median_secs(9, || run_sweep(&small));
    let canonical_fleet = bench::median_secs(5, || run_canonical_serial(&fleet));
    let sweep_fleet = bench::median_secs(5, || run_sweep(&fleet));

    let speedup_small = naive_small / sweep_small;
    let speedup_fleet = canonical_fleet / sweep_fleet;

    println!("\n== sweep engine wall-clock (medians) ==");
    println!(
        "small grid (32 pts):  naive/per-layer {:.3} ms | canonical {:.3} ms | sweep {:.3} ms",
        naive_small * 1e3,
        canonical_small * 1e3,
        sweep_small * 1e3
    );
    println!(
        "fleet grid (576 pts): canonical {:.3} ms | sweep {:.3} ms",
        canonical_fleet * 1e3,
        sweep_fleet * 1e3
    );
    println!("speedup vs naive single-threaded (small grid): {speedup_small:.1}x");
    println!("speedup vs canonical single-threaded (fleet grid): {speedup_fleet:.1}x");
    println!(
        "sweep throughput: {:.0} pts/s (small grid) | {:.0} pts/s (fleet grid)",
        32.0 / sweep_small,
        576.0 / sweep_fleet
    );

    let json = format!(
        "{{\n  \"bench\": \"sweep_throughput\",\n  \"small_grid_points\": 32,\n  \"fleet_grid_points\": 576,\n  \"naive_per_layer_small_ms\": {:.4},\n  \"canonical_uncached_small_ms\": {:.4},\n  \"sweep_small_ms\": {:.4},\n  \"canonical_uncached_fleet_ms\": {:.4},\n  \"sweep_fleet_ms\": {:.4},\n  \"speedup_small_vs_naive\": {:.2},\n  \"speedup_fleet_vs_canonical\": {:.2}\n}}\n",
        naive_small * 1e3,
        canonical_small * 1e3,
        sweep_small * 1e3,
        canonical_fleet * 1e3,
        sweep_fleet * 1e3,
        speedup_small,
        speedup_fleet,
    );
    let path = bench::results_dir().join("BENCH_sweep_throughput.json");
    std::fs::write(&path, json).expect("failed to write BENCH_sweep_throughput.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, bench_grids, record_trajectory);
criterion_main!(benches);
