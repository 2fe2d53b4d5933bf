//! Hardware binning structures: the Tile Coalescing (TC) unit and the
//! VR-Pipe Tile Grid Coalescing (TGC) unit.
//!
//! Both are keyed bin tables with the flush policy the paper describes
//! (§V-A): a bin flushes when (1) it is full, (2) all bins are occupied and
//! an item for a new key arrives — the *oldest* bin is evicted — or (3) a
//! timeout elapses (end-of-draw flush in this model; the functional
//! simulation has no idle cycles between items of one draw call).
//!
//! The hot loop stays fast without changing modeled behaviour:
//!
//! * [`BinTable`] keeps its bins in a fixed array of `max_bins` slots.
//!   Keys are dense `u32` indices — the TC unit's screen-tile index
//!   `y * tiles_x + x`, the TGC unit's grid index — looked up through a
//!   flat key → slot array, with no hashing. An intrusive doubly linked
//!   list threads the occupied slots in allocation order, so evicting the
//!   oldest bin and unlinking a full one are both O(1).
//! * [`BinTable::insert`] returns its at most two flushes in a fixed
//!   [`Flushes`] value, [`BinTable::drain_next`] yields one bin at a time,
//!   and flushed bin storage recycles through an internal pool
//!   ([`BinTable::recycle`]), so steady-state insertion allocates nothing.
//! * [`BinTable::reset`] returns a table to its freshly constructed state
//!   in place, reshaping only when the geometry changes, so a per-draw
//!   table can live in a reused scratch.
//! * [`KeyStream`] derives the `(key, item)` insertion stream on worker
//!   threads with per-thread partials merged **in chunk order**, then the
//!   table replays it serially — the flush/eviction sequence (and with it
//!   every downstream blend order) is bit-exact with a serial build.

use gsplat::par::ThreadPolicy;

/// Why a bin was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bin reached capacity.
    Full,
    /// All bins were occupied and a new key arrived; the oldest bin was
    /// evicted (premature flush — the failure mode the TGC unit mitigates).
    Evicted,
    /// End-of-draw drain (subsumes the hardware timeout flush).
    Drain,
}

/// One flushed bin: the key, its items in insertion order, and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flush<V> {
    pub key: u32,
    pub items: Vec<V>,
    pub reason: FlushReason,
}

/// The bins one [`BinTable::insert`] flushed: an eviction that made room
/// for a new key, then a full flush of the bin the item landed in. Either
/// may be absent; iteration yields them in that order.
#[derive(Debug)]
pub struct Flushes<V> {
    evicted: Option<Flush<V>>,
    full: Option<Flush<V>>,
}

impl<V> Flushes<V> {
    /// `true` when the insertion flushed nothing.
    pub fn is_empty(&self) -> bool {
        self.evicted.is_none() && self.full.is_none()
    }
}

impl<V> IntoIterator for Flushes<V> {
    type Item = Flush<V>;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Flush<V>>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        [self.evicted, self.full].into_iter().flatten()
    }
}

/// Counters for one bin table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BinStats {
    /// Items inserted.
    pub insertions: u64,
    /// Bins flushed (any reason).
    pub flushes: u64,
    /// Flushes caused by bin-table pressure.
    pub evictions: u64,
    /// Items flushed in full bins (utilisation numerator).
    pub items_in_full_flushes: u64,
}

/// End-of-list marker for slot links and empty key-index entries.
const NIL: u32 = u32::MAX;

/// One bin slot. While occupied it is linked into the allocation-order
/// list; `items` holds the bin's storage (empty while the slot is free).
#[derive(Debug, Clone)]
struct Slot<V> {
    key: u32,
    /// Previous (older) occupied slot, or `NIL`.
    prev: u32,
    /// Next (newer) occupied slot, or `NIL`.
    next: u32,
    items: Vec<V>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Self {
            key: 0,
            prev: NIL,
            next: NIL,
            items: Vec::new(),
        }
    }
}

/// A keyed FIFO bin table with bounded bin count and bin capacity.
///
/// Models both the TC unit (key = screen-tile index, item = quad, 32×128)
/// and the TGC unit (key = tile-grid index, item = primitive, 128×16).
/// Keys are dense indices: the key index grows to the largest key seen
/// (or is sized up front by [`BinTable::reset`]).
///
/// A `Default` table has no bins; shape it with [`BinTable::reset`]
/// before inserting.
///
/// # Examples
///
/// ```
/// use gpu_sim::binning::{BinTable, FlushReason};
/// let mut t: BinTable<u32> = BinTable::new(2, 3);
/// assert!(t.insert(7, 1).is_empty());
/// assert!(t.insert(8, 2).is_empty());
/// // Third key with both bins occupied evicts the oldest (key 7).
/// let flushed: Vec<_> = t.insert(9, 3).into_iter().collect();
/// assert_eq!(flushed[0].key, 7);
/// assert_eq!(flushed[0].reason, FlushReason::Evicted);
/// ```
#[derive(Debug, Clone)]
pub struct BinTable<V> {
    /// `max_bins` slots, occupied or free.
    slots: Vec<Slot<V>>,
    /// Key → occupying slot, `NIL` when the key has no open bin.
    index: Vec<u32>,
    /// Oldest and newest occupied slots (`NIL` when none is occupied).
    head: u32,
    tail: u32,
    /// Free slots, popped from the back.
    free: Vec<u32>,
    bin_capacity: usize,
    stats: BinStats,
    /// Recycled bin storage (capacity-preserving free list).
    pool: Vec<Vec<V>>,
}

impl<V> Default for BinTable<V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            index: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            bin_capacity: 0,
            stats: BinStats::default(),
            pool: Vec::new(),
        }
    }
}

impl<V> BinTable<V> {
    /// Creates a table with `max_bins` bins of `bin_capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when either parameter is zero.
    pub fn new(max_bins: usize, bin_capacity: usize) -> Self {
        let mut table = Self::default();
        table.reset(max_bins, bin_capacity, 0);
        table
    }

    /// Returns the table to the state [`BinTable::new`] would build, in
    /// place: every open bin is discarded (its storage kept in the pool),
    /// the statistics are zeroed, and the key index is sized for keys
    /// `0..keys`. Allocates only when the geometry grows.
    ///
    /// # Panics
    ///
    /// Panics when `max_bins` or `bin_capacity` is zero.
    pub fn reset(&mut self, max_bins: usize, bin_capacity: usize, keys: usize) {
        assert!(
            max_bins > 0 && bin_capacity > 0,
            "bin table must be non-empty"
        );
        let mut slot = self.head;
        while slot != NIL {
            let s = &mut self.slots[slot as usize];
            self.index[s.key as usize] = NIL;
            let mut storage = std::mem::take(&mut s.items);
            storage.clear();
            self.pool.push(storage);
            slot = s.next;
        }
        self.pool.truncate(max_bins + 1);
        self.slots.resize_with(max_bins, Slot::default);
        self.index.resize(keys, NIL);
        self.free.clear();
        self.free.extend((0..max_bins as u32).rev());
        self.head = NIL;
        self.tail = NIL;
        self.bin_capacity = bin_capacity;
        self.stats = BinStats::default();
    }

    /// Returns a flushed bin's storage to the table's free list, making
    /// steady-state insertion allocation-free. Call with `flush.items`
    /// once the flush has been consumed.
    pub fn recycle(&mut self, mut storage: Vec<V>) {
        if self.pool.len() < self.slots.len() + 1 {
            storage.clear();
            self.pool.push(storage);
        }
    }

    /// Inserts an item under `key`, returning any bins flushed as a
    /// consequence: an eviction to make room, then a full flush.
    pub fn insert(&mut self, key: u32, item: V) -> Flushes<V> {
        self.stats.insertions += 1;
        let mut flushes = Flushes {
            evicted: None,
            full: None,
        };
        if key as usize >= self.index.len() {
            self.index.resize(key as usize + 1, NIL);
        }
        let mut slot = self.index[key as usize];
        if slot == NIL {
            if self.free.is_empty() {
                // Evict the oldest bin to make room (paper flush cond. 2).
                self.stats.evictions += 1;
                flushes.evicted = Some(self.close(self.head, FlushReason::Evicted));
            }
            slot = self.free.pop().expect("a slot was freed above");
            self.open(slot, key);
        }
        let bin = &mut self.slots[slot as usize].items;
        bin.push(item);
        if bin.len() == self.bin_capacity {
            // Full flush (paper flush cond. 1).
            self.stats.items_in_full_flushes += bin.len() as u64;
            flushes.full = Some(self.close(slot, FlushReason::Full));
        }
        flushes
    }

    /// Flushes the oldest remaining bin (end of draw call), or returns
    /// `None` once the table is empty. Calling it until `None` drains the
    /// table in allocation order without collecting the bins.
    pub fn drain_next(&mut self) -> Option<Flush<V>> {
        (self.head != NIL).then(|| self.close(self.head, FlushReason::Drain))
    }

    /// Drains the remaining bins in allocation order (end of draw call),
    /// one [`BinTable::drain_next`] per item: bins the iterator has not
    /// yielded yet stay in the table.
    pub fn drain(&mut self) -> impl Iterator<Item = Flush<V>> + '_ {
        std::iter::from_fn(move || self.drain_next())
    }

    /// Number of currently occupied bins.
    pub fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BinStats {
        self.stats
    }

    /// Opens a bin for `key` in the free `slot`, as the newest bin.
    fn open(&mut self, slot: u32, key: u32) {
        let storage = self
            .pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.bin_capacity));
        let tail = self.tail;
        let s = &mut self.slots[slot as usize];
        s.key = key;
        s.prev = tail;
        s.next = NIL;
        s.items = storage;
        match tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
        self.index[key as usize] = slot;
    }

    /// Unlinks the occupied `slot`, frees it and returns its bin.
    fn close(&mut self, slot: u32, reason: FlushReason) -> Flush<V> {
        let s = &mut self.slots[slot as usize];
        let (key, prev, next) = (s.key, s.prev, s.next);
        let items = std::mem::take(&mut s.items);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.index[key as usize] = NIL;
        self.free.push(slot);
        self.stats.flushes += 1;
        Flush { key, items, reason }
    }
}

/// A reusable `(key, item)` insertion stream whose key derivation runs on
/// worker threads.
///
/// Bin-table evolution (flushes, evictions) is inherently order-dependent,
/// so the table itself replays the stream serially; what parallelizes is
/// the per-item key computation — for the pipeline that is triangle setup
/// plus tile/grid intersection, the expensive pure part. Per-thread
/// partial streams are merged in chunk order, so the replayed insertion
/// sequence — and with it every flush, eviction and downstream blend
/// order — is bit-exact with a serial build.
#[derive(Debug)]
pub struct KeyStream<K> {
    pairs: Vec<(K, u32)>,
    worker: Vec<Vec<(K, u32)>>,
}

impl<K> Default for KeyStream<K> {
    fn default() -> Self {
        Self {
            pairs: Vec::new(),
            worker: Vec::new(),
        }
    }
}

impl<K: Copy + Send> KeyStream<K> {
    /// Rebuilds the stream for items `0..n_items`. `emit(i, push)` must
    /// call `push(key)` for each key item `i` maps to, in the order the
    /// serial path would insert them; it runs concurrently on workers.
    pub fn build<F>(&mut self, n_items: usize, policy: ThreadPolicy, emit: F)
    where
        F: Fn(u32, &mut dyn FnMut(K)) + Sync,
    {
        self.pairs.clear();
        let workers = policy.workers(n_items);
        if workers <= 1 {
            for i in 0..n_items as u32 {
                emit(i, &mut |key| self.pairs.push((key, i)));
            }
            return;
        }
        self.worker.resize_with(workers, Vec::new);
        let chunk = n_items.div_ceil(workers);
        let emit = &emit;
        std::thread::scope(|s| {
            for (w, partial) in self.worker.iter_mut().enumerate() {
                s.spawn(move || {
                    partial.clear();
                    let start = (w * chunk).min(n_items);
                    let end = ((w + 1) * chunk).min(n_items);
                    for i in start as u32..end as u32 {
                        emit(i, &mut |key| partial.push((key, i)));
                    }
                });
            }
        });
        for partial in &mut self.worker {
            self.pairs.append(partial);
        }
    }

    /// The `(key, item)` pairs in serial insertion order.
    pub fn pairs(&self) -> &[(K, u32)] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bin_flushes_immediately() {
        let mut t: BinTable<u8> = BinTable::new(4, 2);
        assert!(t.insert(1, 10).is_empty());
        let f: Vec<_> = t.insert(1, 11).into_iter().collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].items, vec![10, 11]);
        assert_eq!(f[0].reason, FlushReason::Full);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn eviction_is_fifo_oldest_first() {
        let mut t: BinTable<u8> = BinTable::new(2, 10);
        t.insert(1, 0);
        t.insert(2, 0);
        t.insert(1, 1); // touch does not reorder FIFO
        let f: Vec<_> = t.insert(3, 0).into_iter().collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].key, 1, "oldest-allocated bin must be evicted");
        assert_eq!(f[0].items.len(), 2);
    }

    #[test]
    fn drain_returns_everything_in_order() {
        let mut t: BinTable<u8> = BinTable::new(4, 10);
        t.insert(3, 0);
        t.insert(1, 0);
        t.insert(2, 0);
        let d: Vec<_> = t.drain().collect();
        let keys: Vec<u32> = d.iter().map(|f| f.key).collect();
        assert_eq!(keys, vec![3, 1, 2]);
        assert!(d.iter().all(|f| f.reason == FlushReason::Drain));
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn stats_track_all_paths() {
        let mut t: BinTable<u8> = BinTable::new(1, 2);
        t.insert(1, 0);
        t.insert(2, 0); // evicts bin 1
        t.insert(2, 1); // fills bin 2
        assert_eq!(t.drain().count(), 0); // nothing left
        let s = t.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.flushes, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.items_in_full_flushes, 2);
    }

    #[test]
    fn recycled_bins_behave_like_fresh_ones() {
        let mut t: BinTable<u8> = BinTable::new(2, 3);
        for round in 0..5u8 {
            for k in 0..2u32 {
                for item in 0..3u8 {
                    for flush in t.insert(k, item) {
                        assert_eq!(flush.items, vec![0, 1, 2], "round {round} key {k}");
                        assert_eq!(flush.reason, FlushReason::Full);
                        t.recycle(flush.items);
                    }
                }
            }
        }
        assert_eq!(t.stats().flushes, 10);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn key_stream_parallel_matches_serial_order() {
        use gsplat::par::ThreadPolicy;
        let emit = |i: u32, push: &mut dyn FnMut(u32)| {
            push(i % 5);
            if i.is_multiple_of(2) {
                push((i / 2) % 5);
            }
        };
        let mut serial = KeyStream::default();
        serial.build(333, ThreadPolicy::serial(), emit);
        for policy in [
            ThreadPolicy {
                threads: 3,
                deterministic: true,
            },
            ThreadPolicy {
                threads: 7,
                deterministic: false,
            },
            ThreadPolicy::default(),
        ] {
            let mut par = KeyStream::default();
            par.build(333, policy, emit);
            assert_eq!(par.pairs(), serial.pairs(), "{policy:?}");
            // Replaying both streams drives identical table evolution.
            let mut a: BinTable<u32> = BinTable::new(3, 4);
            let mut b: BinTable<u32> = BinTable::new(3, 4);
            let fa: Vec<_> = serial
                .pairs()
                .iter()
                .flat_map(|&(k, v)| a.insert(k, v))
                .collect();
            let fb: Vec<_> = par
                .pairs()
                .iter()
                .flat_map(|&(k, v)| b.insert(k, v))
                .collect();
            assert_eq!(fa, fb);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn round_robin_pattern_reproduces_tile_bin_cliff() {
        // The paper's §VII-A microbench: with N keys round-robin over a
        // 32-bin table, N ≤ 32 accumulates per-key items in one bin,
        // N = 33 degenerates to one item per flush.
        for (n_keys, expect_single) in [(32u32, false), (33u32, true)] {
            let mut t: BinTable<u32> = BinTable::new(32, 128);
            for round in 0..10u32 {
                for k in 0..n_keys {
                    t.insert(k, round);
                }
            }
            let drained: Vec<_> = t.drain().collect();
            let max_items = drained.iter().map(|f| f.items.len()).max().unwrap_or(0);
            if expect_single {
                assert_eq!(max_items, 1, "N=33 must flush single-item bins");
            } else {
                assert_eq!(max_items, 10, "N=32 keeps all rounds in one bin");
            }
        }
    }
}
