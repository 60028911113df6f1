//! Dense latency memos: O(1) lock-free reads on the serving hot path.
//!
//! The discrete-event engine of `pimba-serve` looks up one decode-step latency
//! per step and one prefill latency per admission. Recomputing each from the
//! analytic operator model builds a workload and evaluates every operator; a
//! [`LatencyMemo`] instead is a *dense* memo indexed by `(batch, seq-bucket)`,
//! owned by one engine and shared by every session that engine creates (all
//! replicas of a fleet cell, restarted replicas, prefill and decode pools,
//! `Engine::run`): slice indexing plus a relaxed atomic load, no hashing, no
//! locks.
//!
//! Rows (one per batch size) allocate lazily on first touch, so a run that
//! visits 30 distinct batch sizes pays for 30 rows, not `max_batch`. Entries
//! fill lazily from the backing [`ServingSimulator`]. A memo entry stores the
//! exact `f64` the simulator returned; reads are bit-identical to calling the
//! simulator directly, which keeps the engine's results independent of whether
//! (and how often, and by which session) an entry was filled.
//!
//! Entries are `Sync`: each is an [`AtomicU64`] holding the value's bits, with
//! NaN meaning "not filled yet"; rows and per-row [`StepFunction`]s are
//! [`OnceLock`]s. An entry is a pure function of `(simulator, model, bucket,
//! batch, bucketed seq)`, so two sessions or threads racing on an empty entry
//! compute and store the same bits, and relaxed ordering suffices. The memo
//! borrows nothing; every read names the simulator and model, which must be
//! the same pair for the memo's whole life ([`StepLatencyTable`] binds them
//! for standalone use).
//!
//! [`StepFunction`]: crate::serving::StepFunction

use crate::serving::{ServingSimulator, StepRow};
use pimba_models::config::ModelConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The bits of an entry nobody has filled yet (a NaN, which no latency is).
const EMPTY: u64 = f64::NAN.to_bits();

/// Rounds `seq` up to a multiple of `bucket`.
fn round_up(seq: usize, bucket: usize) -> usize {
    seq.div_ceil(bucket) * bucket
}

/// Lazily filled dense rows over `(batch, bucket-index)`, shared by the step
/// and prefill halves of a [`LatencyMemo`].
#[derive(Debug)]
struct DenseRows {
    seq_bucket: usize,
    /// Number of bucket slots per row (highest reachable index + 1).
    slots: usize,
    /// One row per batch size (index 0 unused), allocated on first touch.
    rows: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

impl DenseRows {
    fn new(seq_bucket: usize, max_batch: usize, max_seq: usize) -> Self {
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        Self {
            seq_bucket,
            slots: round_up(max_seq, seq_bucket) / seq_bucket + 1,
            rows: (0..=max_batch).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The memoized value at `(batch, bucketed_seq)`, computing it on first
    /// access; `None` when the coordinates fall outside the memo (the caller
    /// falls back to the simulator).
    fn get_or_fill(
        &self,
        batch: usize,
        bucketed_seq: usize,
        fill: impl FnOnce() -> f64,
    ) -> Option<f64> {
        let slot = bucketed_seq / self.seq_bucket;
        let row = self
            .rows
            .get(batch)?
            .get_or_init(|| (0..self.slots).map(|_| AtomicU64::new(EMPTY)).collect());
        let entry = row.get(slot)?;
        let stored = f64::from_bits(entry.load(Ordering::Relaxed));
        if !stored.is_nan() {
            return Some(stored);
        }
        let value = fill();
        entry.store(value.to_bits(), Ordering::Relaxed);
        Some(value)
    }
}

/// Dense decode-step and prefill latency memo for one
/// `(simulator, model, seq-bucket)`: the fast path of the serving engine's
/// hot loop, shared by every session of one engine (module docs).
///
/// Step entries fill through a per-batch-row [`StepFunction`]: the
/// seq-invariant operators are evaluated once per row and only the attention
/// operator is evaluated per bucket — the same decomposition the sweep engine
/// uses, and bit-identical to `generation_step` (its fill path sums the same
/// values in the same order).
///
/// [`StepFunction`]: crate::serving::StepFunction
#[derive(Debug)]
pub struct LatencyMemo {
    steps: DenseRows,
    /// One lazily built seq-invariant evaluator per batch row.
    step_rows: Box<[OnceLock<StepRow>]>,
    prefills: DenseRows,
}

impl LatencyMemo {
    /// A memo covering batches `0..=max_batch`, decode sequence lengths
    /// `0..=max_seq` and prompts `0..=max_prompt` (after rounding up to
    /// `seq_bucket`). Entries fill lazily; lookups outside the bounds answer
    /// from the simulator with the same bits.
    pub fn new(seq_bucket: usize, max_batch: usize, max_seq: usize, max_prompt: usize) -> Self {
        Self {
            steps: DenseRows::new(seq_bucket, max_batch, max_seq.max(1)),
            step_rows: (0..=max_batch).map(|_| OnceLock::new()).collect(),
            prefills: DenseRows::new(seq_bucket, max_batch, max_prompt),
        }
    }

    /// Latency of one generation step over `batch` requests at `seq_len`
    /// (rounded up to the memo's bucket) — exactly
    /// `sim.generation_step(model, batch, bucketed(seq_len.max(1))).total_ns`.
    pub fn step_ns(
        &self,
        sim: &ServingSimulator,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> f64 {
        let bucketed = round_up(seq_len.max(1), self.steps.seq_bucket);
        match self.step_rows.get(batch) {
            Some(row) => {
                // The row's evaluator is only needed on a miss.
                let fill = || {
                    row.get_or_init(|| sim.step_row(model, batch))
                        .total_ns(sim, model, bucketed)
                };
                self.steps
                    .get_or_fill(batch, bucketed, fill)
                    .unwrap_or_else(fill)
            }
            // Beyond the declared batch bound: answer from the simulator.
            None => sim.generation_step(model, batch, bucketed).total_ns,
        }
    }

    /// Latency of prefilling a batch of `batch` prompts of `prompt_len` tokens
    /// (rounded up to the memo's bucket) — exactly
    /// `sim.prefill_latency_ns(model, batch, bucketed(prompt_len))`.
    pub fn prefill_ns(
        &self,
        sim: &ServingSimulator,
        model: &ModelConfig,
        batch: usize,
        prompt_len: usize,
    ) -> f64 {
        let bucketed = round_up(prompt_len, self.prefills.seq_bucket);
        let fill = || sim.prefill_latency_ns(model, batch, bucketed);
        self.prefills
            .get_or_fill(batch, bucketed, fill)
            .unwrap_or_else(fill)
    }
}

/// A standalone decode-step [`LatencyMemo`] bound to its simulator and model
/// — for probing the memo layer outside an engine.
#[derive(Debug)]
pub struct StepLatencyTable<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    memo: LatencyMemo,
}

impl<'a> StepLatencyTable<'a> {
    /// A table covering batches `0..=max_batch` and sequence lengths
    /// `0..=max_seq` (after rounding up to `seq_bucket`). Entries fill lazily.
    pub fn new(
        sim: &'a ServingSimulator,
        model: &'a ModelConfig,
        seq_bucket: usize,
        max_batch: usize,
        max_seq: usize,
    ) -> Self {
        Self {
            sim,
            model,
            memo: LatencyMemo::new(seq_bucket, max_batch, max_seq, 0),
        }
    }

    /// [`LatencyMemo::step_ns`] against the bound simulator and model.
    pub fn step_ns(&self, batch: usize, seq_len: usize) -> f64 {
        self.memo.step_ns(self.sim, self.model, batch, seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, SystemKind};
    use pimba_models::config::{ModelFamily, ModelScale};

    fn setup() -> (ServingSimulator, ModelConfig) {
        (
            ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
            ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small),
        )
    }

    #[test]
    fn step_table_matches_simulator_bit_for_bit() {
        let (sim, model) = setup();
        let table = StepLatencyTable::new(&sim, &model, 32, 64, 4096);
        for (batch, seq) in [(1usize, 1usize), (8, 500), (64, 4096), (64, 4095), (3, 31)] {
            let bucketed = seq.max(1).div_ceil(32) * 32;
            let direct = sim.generation_step(&model, batch, bucketed).total_ns;
            assert_eq!(table.step_ns(batch, seq), direct, "b={batch} s={seq}");
            // Second read answers from the dense row, same bits.
            assert_eq!(table.step_ns(batch, seq), direct);
        }
    }

    #[test]
    fn prefill_table_matches_simulator_bit_for_bit() {
        let (sim, model) = setup();
        let memo = LatencyMemo::new(64, 16, 1, 2048);
        for (batch, prompt) in [(1usize, 64usize), (16, 2048), (4, 1), (2, 129)] {
            let bucketed = prompt.div_ceil(64) * 64;
            let direct = sim.prefill_latency_ns(&model, batch, bucketed);
            assert_eq!(memo.prefill_ns(&sim, &model, batch, prompt), direct);
            assert_eq!(memo.prefill_ns(&sim, &model, batch, prompt), direct);
        }
    }

    #[test]
    fn out_of_range_lookups_fall_back_to_the_simulator() {
        let (sim, model) = setup();
        let table = StepLatencyTable::new(&sim, &model, 32, 4, 256);
        // Batch and seq both beyond the declared bounds still answer correctly.
        let direct = sim.generation_step(&model, 9, 512).total_ns;
        assert_eq!(table.step_ns(9, 512), direct);
        // In-range batch, out-of-range seq: the row's evaluator answers.
        let direct = sim.generation_step(&model, 3, 1024).total_ns;
        assert_eq!(table.step_ns(3, 1000), direct);
        let memo = LatencyMemo::new(32, 4, 256, 128);
        let direct = sim.prefill_latency_ns(&model, 2, 512);
        assert_eq!(memo.prefill_ns(&sim, &model, 2, 500), direct);
    }

    #[test]
    fn rows_allocate_lazily() {
        let (sim, model) = setup();
        let table = StepLatencyTable::new(&sim, &model, 32, 512, 8192);
        let built = |t: &StepLatencyTable<'_>| {
            t.memo
                .steps
                .rows
                .iter()
                .filter(|r| r.get().is_some())
                .count()
        };
        assert_eq!(built(&table), 0);
        table.step_ns(17, 100);
        assert_eq!(built(&table), 1);
    }

    /// Two threads filling one memo concurrently (interleaved over the same
    /// entries, in opposite orders) read back exactly the simulator's bits.
    #[test]
    fn concurrent_fills_are_bit_identical_to_the_simulator() {
        let (sim, model) = setup();
        let memo = LatencyMemo::new(32, 24, 2048, 1024);
        let points: Vec<(usize, usize)> = (1..=24)
            .flat_map(|b| (0..2048).step_by(97).map(move |s| (b, s)))
            .collect();
        let fill = |reverse: bool| {
            let order: Vec<&(usize, usize)> = if reverse {
                points.iter().rev().collect()
            } else {
                points.iter().collect()
            };
            for &&(b, s) in &order {
                let bucketed = s.max(1).div_ceil(32) * 32;
                assert_eq!(
                    memo.step_ns(&sim, &model, b, s),
                    sim.generation_step(&model, b, bucketed).total_ns
                );
                let prompt = s / 2;
                assert_eq!(
                    memo.prefill_ns(&sim, &model, b, prompt),
                    sim.prefill_latency_ns(&model, b, prompt.div_ceil(32) * 32)
                );
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| fill(false));
            scope.spawn(|| fill(true));
        });
        // Every entry is now filled; reads still match.
        fill(false);
    }
}
