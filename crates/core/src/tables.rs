//! Bounded lookup tables with occupancy accounting.
//!
//! CORD's protocol state lives in small hardware lookup tables (paper §4.3,
//! Fig. 6 left). [`LookupTable`] models one: a tagged map with a fixed entry
//! capacity and a fixed per-entry byte cost. Occupancy (current and peak) is
//! tracked so experiments can report exactly the storage the paper's
//! Figs. 11/12 and Table 3 report, and insertion beyond capacity is an
//! explicit, checkable condition — the protocol *stalls* instead of growing.
//!
//! Entries live in one key-sorted vector: lookups are a binary search,
//! inserts and removes shift the tail, and [`LookupTable::clear`] keeps the
//! allocation. Live entries are few, so the shifts are short memmoves, and
//! the per-epoch clear-then-refill cycle of a store counter allocates
//! nothing once the vector has grown to its working size.

/// A capacity-bounded, byte-accounted lookup table.
///
/// # Example
///
/// ```
/// use cord::LookupTable;
///
/// let mut t: LookupTable<u32, u64> = LookupTable::new(2, 6);
/// assert!(t.try_insert(1, 10));
/// assert!(t.try_insert(2, 20));
/// assert!(!t.try_insert(3, 30), "capacity exhausted");
/// assert_eq!(t.peak_bytes(), 12);
/// t.remove(&1);
/// assert!(t.try_insert(3, 30));
/// ```
#[derive(Debug, Clone)]
pub struct LookupTable<K: Ord, V> {
    /// Live entries in ascending key order, keys unique.
    entries: Vec<(K, V)>,
    capacity: usize,
    entry_bytes: u64,
    peak_entries: usize,
}

impl<K: Ord, V> LookupTable<K, V> {
    /// Creates a table holding at most `capacity` entries of `entry_bytes`
    /// bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (CORD requires ≥ 1 entry per table).
    pub fn new(capacity: usize, entry_bytes: u64) -> Self {
        assert!(capacity >= 1, "tables need at least one entry");
        LookupTable {
            entries: Vec::new(),
            capacity,
            entry_bytes,
            peak_entries: 0,
        }
    }

    /// `Ok(i)`: `key` is at slot `i`; `Err(i)`: it would be inserted there.
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts a fresh entry at slot `i` (a `find` miss), tracking the peak.
    fn insert_at(&mut self, i: usize, key: K, value: V) {
        debug_assert!(self.has_room(), "insert_at past capacity");
        self.entries.insert(i, (key, value));
        self.peak_entries = self.peak_entries.max(self.entries.len());
    }

    /// Whether a new key could be inserted right now.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether `n` new keys could be inserted right now.
    pub fn has_room_for(&self, n: usize) -> bool {
        self.entries.len() + n <= self.capacity
    }

    /// Inserts `key → value` if there is room (or the key exists, replacing
    /// its value). Returns `false` — and changes nothing — when full.
    pub fn try_insert(&mut self, key: K, value: V) -> bool {
        match self.find(&key) {
            Ok(i) => self.entries[i].1 = value,
            Err(_) if !self.has_room() => return false,
            Err(i) => self.insert_at(i, key, value),
        }
        true
    }

    /// Gets a value.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Gets a value mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Upserts via a default: like `entry().or_insert()`, but bounded.
    /// Returns `None` if a fresh insert was needed and the table is full.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> Option<&mut V> {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(_) if !self.has_room() => return None,
            Err(i) => {
                self.insert_at(i, key, default());
                i
            }
        };
        Some(&mut self.entries[i].1)
    }

    /// Removes and returns a value (reclaiming the entry — paper §4.3).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Removes every entry (e.g. resetting per-epoch counters on a Release);
    /// the peak high-water mark and the allocation are kept.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.entries.len() as u64 * self.entry_bytes
    }

    /// Peak occupancy in bytes over the table's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_entries as u64 * self.entry_bytes
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<&K> {
        self.entries.last().map(|(k, _)| k)
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<&K> {
        self.entries.first().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_insertion() {
        let mut t: LookupTable<u8, u8> = LookupTable::new(2, 4);
        assert!(t.try_insert(1, 1));
        assert!(t.try_insert(2, 2));
        assert!(!t.try_insert(3, 3));
        // replacing an existing key is always allowed
        assert!(t.try_insert(2, 22));
        assert_eq!(t.get(&2), Some(&22));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reclamation_frees_room() {
        let mut t: LookupTable<u8, u8> = LookupTable::new(1, 4);
        assert!(t.try_insert(1, 1));
        assert!(!t.has_room());
        assert_eq!(t.remove(&1), Some(1));
        assert!(t.has_room_for(1));
        assert!(t.try_insert(2, 2));
        assert!(!t.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t: LookupTable<u8, u8> = LookupTable::new(4, 10);
        t.try_insert(1, 1);
        t.try_insert(2, 2);
        t.try_insert(3, 3);
        t.remove(&1);
        t.remove(&2);
        assert_eq!(t.bytes(), 10);
        assert_eq!(t.peak_bytes(), 30);
    }

    #[test]
    fn get_or_insert_respects_capacity() {
        let mut t: LookupTable<u8, u64> = LookupTable::new(1, 4);
        *t.get_or_insert_with(5, || 0).unwrap() += 7;
        assert_eq!(t.get(&5), Some(&7));
        assert!(t.get_or_insert_with(6, || 0).is_none());
        // existing key still reachable at capacity
        assert!(t.get_or_insert_with(5, || 0).is_some());
    }

    #[test]
    fn key_order_helpers() {
        let mut t: LookupTable<u32, ()> = LookupTable::new(8, 1);
        for k in [5u32, 1, 9] {
            t.try_insert(k, ());
        }
        assert_eq!(t.min_key(), Some(&1));
        assert_eq!(t.max_key(), Some(&9));
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _: LookupTable<u8, u8> = LookupTable::new(0, 1);
    }
}
