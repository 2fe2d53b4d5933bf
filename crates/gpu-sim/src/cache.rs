//! A set-associative cache model with LRU replacement, used for the CROP
//! color cache, the ZROP z-cache (paper §VII-A: the CROP cache is a 16 KB
//! per-GPC structure in front of the L2) and the L2 behind them.
//!
//! Storage is flat: one tag, LRU-stamp and dirty array of `sets × ways`
//! lines (set `s` owns lines `s * ways ..`) plus a per-set fill count, so a
//! lookup scans one contiguous run of tags. Stamps come from a private
//! access clock, never from the statistics, so [`Cache::reset_stats`]
//! cannot disturb the replacement order. [`Cache::reset`] empties the
//! cache in place — zeroing the fill counts, the clock and the statistics
//! — which lets a per-draw cache live in a reused scratch.

use crate::stats::CacheStats;

/// Set-associative LRU cache over 64-bit line addresses.
///
/// Tracks hits/misses/writebacks; the caller converts byte addresses to
/// line addresses. No data storage — this is a tag-only timing model.
///
/// A `Default` cache has no sets; shape it with [`Cache::reset`] before
/// accessing it.
///
/// # Examples
///
/// ```
/// use gpu_sim::cache::Cache;
/// let mut c = Cache::new(1024, 128, 2); // 8 lines, 2-way, 4 sets
/// assert!(!c.access(0, false)); // cold miss
/// assert!(c.access(0, false));  // hit
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Line tags, `ways` per set; only the first `fill[set]` are valid.
    tags: Vec<u64>,
    /// Clock value of each line's last touch (LRU). Unique per access.
    stamps: Vec<u64>,
    /// Whether each line has been written since it was filled.
    dirty: Vec<bool>,
    /// Valid lines per set.
    fill: Vec<u32>,
    ways: usize,
    set_mask: u64,
    /// Accesses since the last [`Cache::reset`]; the next LRU stamp.
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (zero sizes, `size` not a
    /// multiple of `line × ways`, or a non-power-of-two set count).
    pub fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let mut cache = Self::default();
        cache.reset(size_bytes, line_bytes, ways);
        cache
    }

    /// Returns the cache to the state [`Cache::new`] would build for this
    /// geometry, in place: no valid lines, a zero clock and zero
    /// statistics. Allocates only when the geometry grows.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent geometry, as [`Cache::new`] does.
    pub fn reset(&mut self, size_bytes: usize, line_bytes: usize, ways: usize) {
        assert!(
            size_bytes > 0 && line_bytes > 0 && ways > 0,
            "zero cache geometry"
        );
        let lines = size_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "size must be a multiple of line*ways"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        // Lines past a set's fill count are never read, so only the fill
        // counts need clearing.
        self.tags.resize(lines, 0);
        self.stamps.resize(lines, 0);
        self.dirty.resize(lines, false);
        self.fill.clear();
        self.fill.resize(sets, 0);
        self.ways = ways;
        self.set_mask = sets as u64 - 1;
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `line_addr` (already divided by line
    /// size). Returns `true` on hit. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> bool {
        let stamp = self.clock;
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let base = set * self.ways;
        let filled = self.fill[set] as usize;
        if let Some(way) = self.tags[base..base + filled]
            .iter()
            .position(|&tag| tag == line_addr)
        {
            self.stamps[base + way] = stamp;
            self.dirty[base + way] |= write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let line = if filled < self.ways {
            self.fill[set] += 1;
            base + filled
        } else {
            // Evict the least recently used way. Stamps are unique, so
            // the victim does not depend on where lines sit in the set.
            let victim = base
                + (0..self.ways)
                    .min_by_key(|&way| self.stamps[base + way])
                    .expect("a full set is non-empty");
            if self.dirty[victim] {
                self.stats.writebacks += 1;
            }
            victim
        };
        self.tags[line] = line_addr;
        self.stamps[line] = stamp;
        self.dirty[line] = write;
        false
    }

    /// Flushes all lines, counting writebacks for dirty ones (end of draw).
    pub fn flush(&mut self) {
        for (set, filled) in self.fill.iter_mut().enumerate() {
            let base = set * self.ways;
            let dirty = &self.dirty[base..base + *filled as usize];
            self.stats.writebacks += dirty.iter().filter(|&&d| d).count() as u64;
            *filled = 0;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents and their LRU order.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 128, 2);
        assert!(!c.access(5, false));
        assert!(c.access(5, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, 4 sets: addresses 0, 4, 8 share set 0.
        let mut c = Cache::new(1024, 128, 2);
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // refresh 0 → 4 is LRU
        c.access(8, false); // evicts 4
        assert!(c.access(0, false), "0 should still be resident");
        assert!(!c.access(4, false), "4 should have been evicted");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(256, 128, 1); // 2 sets, direct-mapped
        c.access(0, true);
        c.access(2, false); // same set (mask 1), evicts dirty 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let mut c = Cache::new(1024, 128, 2);
        c.access(1, true);
        c.access(2, false);
        c.flush();
        assert_eq!(c.stats().writebacks, 1);
        // After flush, everything misses again.
        assert!(!c.access(1, false));
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        // 16KB, 128B lines, 8-way = 128 lines.
        let mut c = Cache::new(16 * 1024, 128, 8);
        for addr in 0..128u64 {
            c.access(addr, true);
        }
        c.reset_stats();
        for round in 0..10 {
            for addr in 0..128u64 {
                assert!(c.access(addr, true), "round {round} addr {addr}");
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn reset_stats_keeps_lru_order() {
        // 1 set, 2 ways: after the warm-up, 0 is the most recently used
        // line and 1 the least; 2 evicts 1, then 3 must evict 0, not 2.
        let mut c = Cache::new(256, 128, 2);
        for addr in [0, 1, 0, 1, 0, 1, 0] {
            c.access(addr, false);
        }
        c.reset_stats();
        assert!(!c.access(2, false));
        assert!(!c.access(3, false));
        assert!(c.access(2, false), "2 was the most recently used line");
        assert!(!c.access(0, false), "0 was the least recently used line");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(3 * 128, 128, 1);
    }
}
