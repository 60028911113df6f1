//! Regression tests of the performance layer: the parallel sweep engine must
//! leave every result exactly (bit-for-bit) identical to the plain per-op
//! evaluation, and the op model itself is pinned to literal bit patterns.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{max_batch_within_slo, SweepGrid, SweepRunner};

fn models() -> Vec<ModelConfig> {
    [
        ModelFamily::RetNet,
        ModelFamily::Mamba2,
        ModelFamily::Zamba2,
        ModelFamily::Opt,
    ]
    .iter()
    .map(|&f| ModelConfig::preset(f, ModelScale::Small))
    .collect()
}

fn grid() -> SweepGrid {
    SweepGrid {
        systems: SystemKind::MAIN_COMPARISON
            .iter()
            .map(|&k| SystemConfig::small_scale(k))
            .collect(),
        models: models(),
        batches: vec![16, 64, 128],
        seq_lens: vec![512, 1024, 2048, 4096],
    }
}

/// Asserts two f64 values are the same bit pattern (stronger than `==`).
fn assert_bits_eq(a: f64, b: f64, context: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{context}: {a} vs {b} differ in bits"
    );
}

#[test]
fn parallel_cached_sweep_matches_direct_uncached_evaluation() {
    let grid = grid();
    let records = SweepRunner::new().with_threads(8).run(&grid);
    assert_eq!(records.len(), grid.len());
    // Fresh simulators, evaluated one grid point at a time.
    let sims: Vec<ServingSimulator> = grid
        .systems
        .iter()
        .map(|c| ServingSimulator::new(c.clone()))
        .collect();
    for record in &records {
        let model = &grid.models[record.model];
        let direct = sims[record.system].generation_step(model, record.batch, record.seq_len);
        assert_eq!(direct.ops.len(), record.step.ops.len());
        for (a, b) in record.step.ops.iter().zip(&direct.ops) {
            assert_bits_eq(a.latency_ns, b.latency_ns, "sweep op latency");
        }
        assert_bits_eq(record.step.total_ns, direct.total_ns, "sweep step total");
        assert_bits_eq(
            record.throughput_tps,
            record.batch as f64 / (direct.total_ns * 1e-9),
            "sweep throughput",
        );
        assert_bits_eq(
            record.memory_bytes,
            sims[record.system].memory_usage_bytes(model, record.batch, record.seq_len),
            "sweep memory",
        );
    }
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let grid = grid();
    let serial = SweepRunner::new().with_threads(1).run(&grid);
    for threads in [2, 3, 7, 16] {
        let parallel = SweepRunner::new().with_threads(threads).run(&grid);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_bits_eq(a.step.total_ns, b.step.total_ns, "thread-count invariance");
            assert_eq!(
                (a.system, a.model, a.batch, a.seq_len),
                (b.system, b.model, b.batch, b.seq_len)
            );
        }
    }
}

#[test]
fn per_layer_step_expands_to_layers_times_ops() {
    let system = SystemConfig::small_scale(SystemKind::Pimba);
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);

    // Mamba-2 has 64 identical blocks: the naive per-layer path performs one
    // evaluation per block per op, the fused path one per op kind.
    let sim = ServingSimulator::new(system);
    let fused = sim.generation_step(&model, 64, 2048);
    let naive = sim.generation_step_per_layer(&model, 64, 2048);
    assert!(
        naive.ops.len() >= 64 * fused.ops.len() / 2,
        "expansion must be O(layers x ops)"
    );
}

/// A simulator holds no state that outlives a call: one that has already
/// served other queries answers exactly like a freshly built one.
fn used_and_fresh(system: &SystemConfig) -> (ServingSimulator, ServingSimulator) {
    let used = ServingSimulator::new(system.clone());
    for model in &models() {
        for &(batch, seq) in &[(16usize, 512usize), (64, 2048), (96, 2048)] {
            used.generation_step(model, batch, seq);
            used.prefill_latency_ns(model, batch, seq);
        }
    }
    (used, ServingSimulator::new(system.clone()))
}

#[test]
fn request_latency_is_cache_invariant() {
    for kind in SystemKind::MAIN_COMPARISON {
        let (used, fresh) = used_and_fresh(&SystemConfig::small_scale(kind));
        let model = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small);
        let a = used.request_latency(&model, 16, 512, 128);
        let b = fresh.request_latency(&model, 16, 512, 128);
        assert_bits_eq(a.prefill_ms, b.prefill_ms, "prefill");
        assert_bits_eq(a.generation_ms, b.generation_ms, "generation");
    }
}

#[test]
fn slo_capacity_is_cache_invariant() {
    let model = ModelConfig::preset(ModelFamily::RetNet, ModelScale::Small);
    let (used, fresh) = used_and_fresh(&SystemConfig::small_scale(SystemKind::Pimba));
    let slo_ms = fresh.generation_step(&model, 96, 2048).total_ns * 1e-6;
    assert_eq!(
        max_batch_within_slo(&used, &model, 2048, slo_ms, 1024),
        max_batch_within_slo(&fresh, &model, 2048, slo_ms, 1024),
    );
}

/// `(batch, seq)` points of the op-model pins; `seq` doubles as the prompt
/// length of the prefill pin.
const PIN_POINTS: [(usize, usize); 3] = [(1, 512), (32, 2048), (128, 8192)];

/// Step and prefill latency bits at [`PIN_POINTS`], then the SLO capacity at
/// seq 2048 for SLOs of 10 ms and 20 ms (batch cap 512), per (system, model).
type Pin = (SystemKind, ModelFamily, [(u64, u64); 3], [Option<usize>; 2]);

#[rustfmt::skip]
const PINS: [Pin; 6] = [
    (SystemKind::Gpu, ModelFamily::Opt, [
        (0x415e005ff1a48dd5, 0x4192abf36ec80523),
        (0x417ce9ca302eacfb, 0x421967b109c5c087),
        (0x41b5edbd9589f172, 0x42766c006d612e18),
    ], [Some(3), Some(17)]),
    (SystemKind::Gpu, ModelFamily::Mamba2, [
        (0x4148cdc97282b4ed, 0x41713f9a361f5162),
        (0x4159fed21cc9cc70, 0x41e13ac1fa1f5162),
        (0x417105d7aaf6ec60, 0x42213ab8d25f5162),
    ], [Some(59), Some(143)]),
    (SystemKind::Gpu, ModelFamily::Zamba2, [
        (0x415c5daa7e0a0785, 0x41851069a8181e05),
        (0x416b49a660e1b29e, 0x42018ea9a80ed21f),
        (0x4196777f1c5b8111, 0x4256d725407cef47),
    ], [Some(12), Some(58)]),
    (SystemKind::Pimba, ModelFamily::Opt, [
        (0x415d6548516975a8, 0x4192abf36ec80523),
        (0x41642de43b350887, 0x421967b109c5c087),
        (0x418906ac2ce5f6d1, 0x42766c006d612e18),
    ], [Some(25), Some(132)]),
    (SystemKind::Pimba, ModelFamily::Mamba2, [
        (0x4148046ffbee799a, 0x41713f9a361f5162),
        (0x414bc4a5670c2e98, 0x41e13ac1fa1f5162),
        (0x4153b11906ccdcf0, 0x42213ab8d25f5162),
    ], [Some(249), Some(499)]),
    (SystemKind::Pimba, ModelFamily::Zamba2, [
        (0x415c01fa72e0357a, 0x41851069a8181e05),
        (0x415fba24af963013, 0x42018ea9a80ed21f),
        (0x4171b55d0a126537, 0x4256d725407cef47),
    ], [Some(86), Some(226)]),
];

/// The analytic op model, pinned independently of the benches: any drift in
/// a kernel, PIM schedule or workload shape moves one of these bits.
#[test]
fn op_model_matches_pinned_bits() {
    for (kind, family, points, capacities) in PINS {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let model = ModelConfig::preset(family, ModelScale::Small);
        let context = format!("{kind:?} {family:?}");
        for (&(batch, seq), &(step_bits, prefill_bits)) in PIN_POINTS.iter().zip(&points) {
            assert_eq!(
                sim.generation_step(&model, batch, seq).total_ns.to_bits(),
                step_bits,
                "{context} step b{batch} s{seq}"
            );
            assert_eq!(
                sim.prefill_latency_ns(&model, batch, seq).to_bits(),
                prefill_bits,
                "{context} prefill b{batch} p{seq}"
            );
        }
        for (slo_ms, expected) in [10.0, 20.0].into_iter().zip(capacities) {
            assert_eq!(
                max_batch_within_slo(&sim, &model, 2048, slo_ms, 512),
                expected,
                "{context} capacity at {slo_ms} ms"
            );
        }
    }
}
