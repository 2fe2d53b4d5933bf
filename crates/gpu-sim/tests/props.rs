//! Property-based tests for the hardware-unit models.

use gpu_sim::binning::{BinStats, BinTable, Flush, FlushReason};
use gpu_sim::cache::Cache;
use gpu_sim::stats::{CacheStats, Unit};
use gpu_sim::timing::{PipelineTimer, WorkBatch};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Reference LRU cache: one `Vec` of `(tag, dirty, stamp)` lines per set,
/// stamped by its own access counter.
struct LruModel {
    sets: Vec<Vec<(u64, bool, u64)>>,
    ways: usize,
    now: u64,
    stats: CacheStats,
}

impl LruModel {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            now: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        let now = self.now;
        self.now += 1;
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[(addr % n_sets) as usize];
        if let Some(line) = set.iter_mut().find(|l| l.0 == addr) {
            line.1 |= write;
            line.2 = now;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() == self.ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            if set.remove(lru).1 {
                self.stats.writebacks += 1;
            }
        }
        set.push((addr, write, now));
        false
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            self.stats.writebacks += set.drain(..).filter(|l| l.1).count() as u64;
        }
    }
}

/// Cache geometry `(sets, ways)`: power-of-two sets of 1–16 ways, or one
/// fully associative set of up to 64 ways.
fn cache_geometry() -> impl Strategy<Value = (usize, usize)> {
    (0u32..6, 1usize..=16, 0u8..4).prop_map(|(set_bits, ways, shape)| {
        if shape == 0 {
            (1, ways * 4)
        } else {
            (1 << set_bits, ways)
        }
    })
}

/// Cache operations: mostly accesses `(addr, write)`, with occasional
/// `flush` (op 0) and `reset_stats` (op 1).
fn cache_ops() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    proptest::collection::vec(
        (0u8..40, 0u64..200, 0u8..2).prop_map(|(op, addr, w)| (op, addr, w == 1)),
        1..600,
    )
}

/// Replays `ops` on the cache and the model, asserting every access and
/// the final statistics agree.
fn check_cache_against_model(cache: &mut Cache, model: &mut LruModel, ops: &[(u8, u64, bool)]) {
    for (i, &(op, addr, write)) in ops.iter().enumerate() {
        match op {
            0 => {
                cache.flush();
                model.flush();
            }
            1 => {
                cache.reset_stats();
                model.stats = CacheStats::default();
            }
            _ => assert_eq!(
                cache.access(addr, write),
                model.access(addr, write),
                "op {i}: access {addr} write {write}"
            ),
        }
    }
    cache.flush();
    model.flush();
    assert_eq!(cache.stats(), model.stats);
}

/// Reference bin table: the keyed `HashMap` of bins plus a `VecDeque` of
/// keys in allocation order.
struct BinModel {
    bins: HashMap<u32, Vec<u32>>,
    order: VecDeque<u32>,
    max_bins: usize,
    capacity: usize,
    stats: BinStats,
}

impl BinModel {
    fn new(max_bins: usize, capacity: usize) -> Self {
        Self {
            bins: HashMap::new(),
            order: VecDeque::new(),
            max_bins,
            capacity,
            stats: BinStats::default(),
        }
    }

    fn insert(&mut self, key: u32, item: u32) -> Vec<Flush<u32>> {
        self.stats.insertions += 1;
        let mut out = Vec::new();
        if !self.bins.contains_key(&key) {
            if self.bins.len() == self.max_bins {
                let victim = self.order.pop_front().unwrap();
                self.stats.flushes += 1;
                self.stats.evictions += 1;
                out.push(Flush {
                    key: victim,
                    items: self.bins.remove(&victim).unwrap(),
                    reason: FlushReason::Evicted,
                });
            }
            self.bins.insert(key, Vec::new());
            self.order.push_back(key);
        }
        let bin = self.bins.get_mut(&key).unwrap();
        bin.push(item);
        if bin.len() == self.capacity {
            let items = self.bins.remove(&key).unwrap();
            self.order.retain(|&k| k != key);
            self.stats.flushes += 1;
            self.stats.items_in_full_flushes += items.len() as u64;
            out.push(Flush {
                key,
                items,
                reason: FlushReason::Full,
            });
        }
        out
    }

    fn drain(&mut self) -> Vec<Flush<u32>> {
        let mut out = Vec::new();
        while let Some(key) = self.order.pop_front() {
            self.stats.flushes += 1;
            out.push(Flush {
                key,
                items: self.bins.remove(&key).unwrap(),
                reason: FlushReason::Drain,
            });
        }
        out
    }
}

/// Replays `keys` through the table and the model, asserting the exact
/// `(key, items, reason)` flush sequence — inserts, then the drain — and
/// the final statistics agree. Flushed storage is recycled into the table.
fn check_bins_against_model(table: &mut BinTable<u32>, model: &mut BinModel, keys: &[u32]) {
    for (seq, &key) in keys.iter().enumerate() {
        let got: Vec<Flush<u32>> = table.insert(key, seq as u32).into_iter().collect();
        assert_eq!(got, model.insert(key, seq as u32), "insert {seq} key {key}");
        assert_eq!(table.occupied(), model.bins.len());
        for flush in got {
            table.recycle(flush.items);
        }
    }
    let drained: Vec<Flush<u32>> = table.drain().collect();
    assert_eq!(drained, model.drain());
    assert_eq!(table.occupied(), 0);
    assert_eq!(table.stats(), model.stats);
}

proptest! {
    /// Bin tables conserve items: everything inserted comes out exactly
    /// once across flushes + drain, with per-key insertion order intact.
    #[test]
    fn bin_table_conserves_items(
        keys in proptest::collection::vec(0u32..12, 1..300),
        bins in 1usize..8,
        cap in 1usize..16,
    ) {
        let mut table: BinTable<(u32, usize)> = BinTable::new(bins, cap);
        let mut out: Vec<(u32, (u32, usize))> = Vec::new();
        for (seq, &k) in keys.iter().enumerate() {
            for flush in table.insert(k, (k, seq)) {
                for item in flush.items {
                    out.push((flush.key, item));
                }
            }
        }
        for flush in table.drain() {
            for item in flush.items {
                out.push((flush.key, item));
            }
        }
        prop_assert_eq!(out.len(), keys.len(), "conservation violated");
        // Flushed under the right key, and order preserved per key.
        let mut per_key: HashMap<u32, Vec<usize>> = HashMap::new();
        for (key, (k, seq)) in out {
            prop_assert_eq!(key, k, "item flushed under wrong key");
            per_key.entry(k).or_default().push(seq);
        }
        for seqs in per_key.values() {
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "per-key order violated");
        }
    }

    /// A bin never exceeds its capacity and the table never exceeds its
    /// bin budget.
    #[test]
    fn bin_table_respects_limits(
        keys in proptest::collection::vec(0u32..50, 1..300),
        bins in 1usize..6,
        cap in 1usize..10,
    ) {
        let mut table: BinTable<u32> = BinTable::new(bins, cap);
        for &k in &keys {
            for flush in table.insert(k, k) {
                prop_assert!(flush.items.len() <= cap);
            }
            prop_assert!(table.occupied() <= bins);
        }
    }

    /// The bin table flushes exactly what the `HashMap` + `VecDeque`
    /// reference does — same keys, items, reasons and order — and a table
    /// reset to a new geometry behaves exactly like a fresh model.
    #[test]
    fn bin_table_matches_reference_model(
        keys in proptest::collection::vec(0u32..40, 1..400),
        again in proptest::collection::vec(0u32..40, 1..400),
        (bins, cap) in (1usize..12, 1usize..20),
        (bins2, cap2) in (1usize..12, 1usize..20),
    ) {
        let mut table = BinTable::new(bins, cap);
        check_bins_against_model(&mut table, &mut BinModel::new(bins, cap), &keys);
        // Reset with bins still open, then reuse under a new geometry.
        for &key in &keys[..keys.len().min(5)] {
            let _ = table.insert(key, 0);
        }
        table.reset(bins2, cap2, 40);
        check_bins_against_model(&mut table, &mut BinModel::new(bins2, cap2), &again);
    }

    /// The flat cache agrees with the per-set `Vec` LRU reference on every
    /// access — across flushes and `reset_stats` — and after a reset to a
    /// new geometry it behaves exactly like a fresh reference.
    #[test]
    fn cache_matches_reference_model(
        (sets, ways) in cache_geometry(),
        (sets2, ways2) in cache_geometry(),
        ops in cache_ops(),
        again in cache_ops(),
    ) {
        let line = 128;
        let mut cache = Cache::new(sets * ways * line, line, ways);
        check_cache_against_model(&mut cache, &mut LruModel::new(sets, ways), &ops);
        for &(_, addr, write) in &ops[..ops.len().min(5)] {
            cache.access(addr, write);
        }
        cache.reset(sets2 * ways2 * line, line, ways2);
        check_cache_against_model(&mut cache, &mut LruModel::new(sets2, ways2), &again);
    }

    /// Cache: hits + misses equals accesses; a working set no larger than
    /// the capacity in a single set never misses after warmup.
    #[test]
    fn cache_accounting_is_consistent(addrs in proptest::collection::vec(0u64..64, 1..500)) {
        let mut cache = Cache::new(16 * 128, 128, 16); // fully assoc, 16 lines
        for &a in &addrs {
            cache.access(a, a % 3 == 0);
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }

    /// Small working sets are fully resident after one pass.
    #[test]
    fn cache_retains_small_working_set(unique in proptest::collection::hash_set(0u64..1000, 1..16)) {
        let mut cache = Cache::new(16 * 128, 128, 16);
        let addrs: Vec<u64> = unique.into_iter().collect();
        for &a in &addrs { cache.access(a, false); }
        cache.reset_stats();
        for &a in &addrs {
            prop_assert!(cache.access(a, false), "address {a} evicted prematurely");
        }
    }

    /// Timing: total time is at least the bottleneck's busy time and at
    /// most the sum of all busy time plus per-batch latency.
    #[test]
    fn timer_total_bounded_by_work(
        services in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..100)
    ) {
        let mut t = PipelineTimer::new();
        for (r, s, c) in &services {
            let mut b = WorkBatch::default();
            b.add(Unit::Raster, *r);
            b.add(Unit::Sm, *s);
            b.add(Unit::Crop, *c);
            t.push(b);
        }
        let n = services.len() as f64;
        let (total, busy) = t.finish();
        let max_busy = *busy.iter().max().unwrap();
        let sum_busy: u64 = busy.iter().sum();
        prop_assert!(total >= max_busy, "total {total} < bottleneck {max_busy}");
        prop_assert!((total as f64) <= sum_busy as f64 + 12.0 * n + 10.0,
            "total {total} exceeds serial bound {sum_busy} + latency");
    }

    /// Adding work never makes the pipeline finish earlier.
    #[test]
    fn timer_monotone_in_work(
        base in proptest::collection::vec(0.0f64..20.0, 1..50),
        extra in 0.0f64..30.0,
    ) {
        let run = |boost: f64| {
            let mut t = PipelineTimer::new();
            for (i, &c) in base.iter().enumerate() {
                let mut b = WorkBatch::default();
                b.add(Unit::Crop, c + if i == 0 { boost } else { 0.0 });
                t.push(b);
            }
            t.finish().0
        };
        prop_assert!(run(extra) >= run(0.0));
    }
}
