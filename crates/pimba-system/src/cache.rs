//! A compatibility stub: the serving simulator keeps no latency cache.
//!
//! Every latency is computed directly by the analytic operator model; the
//! memo tiers that remain are the per-engine
//! [`LatencyMemo`](crate::table::LatencyMemo) and the cell-level grid memo.
//! The names below survive only because `whatif_bench/src/replay.rs` still
//! names them; nothing in the workspace calls them.

/// Hit/miss counters of the removed cache; always zero.
///
/// Stays only until `whatif_bench/src/replay.rs` stops naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (always 0).
    pub hits: u64,
    /// Lookups that had to compute (always 0).
    pub misses: u64,
}

/// A cache that stores nothing.
///
/// Stays only until `whatif_bench/src/replay.rs` stops naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyCache;

impl LatencyCache {
    /// The (empty) cache. Stays only until `whatif_bench/src/replay.rs`
    /// stops naming it.
    pub fn new() -> Self {
        Self
    }

    /// Always [`CacheStats::default`]. Stays only until
    /// `whatif_bench/src/replay.rs` stops naming it.
    pub fn op_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Always [`CacheStats::default`]. Stays only until
    /// `whatif_bench/src/replay.rs` stops naming it.
    pub fn workload_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}
