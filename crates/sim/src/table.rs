//! Exact-key tables: the nest walk's output accumulator and the compute
//! counter's space-id slots.
//!
//! A [`KeyTable`] maps fixed-width `u64` keys to dense slot ids in
//! insertion order. Keys live back to back in one flat arena (`width`
//! words each) and an open-addressing `u32` index finds them, so a new
//! key costs an arena append and no allocation of its own. The index is
//! hashed with a randomly seeded [`RandomState`]: output coordinates come
//! from client tensors under `teaal serve`, so crafted keys must not be
//! able to force collisions. Keys are compared exactly, never by hash.
//!
//! [`OutTable`] pairs each key with its accumulated value and the last
//! output epoch that touched it, and drains in key order with one sort
//! of slot ids — the level-writer shape of The Sparse Abstract Machine:
//! append coordinates and values to flat arrays, order them once.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An unused index cell.
const EMPTY: u32 = u32::MAX;

/// An insertion-ordered set of fixed-width `u64` keys with dense slots.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    /// Words per key (zero for scalar outputs: one empty key).
    width: usize,
    len: usize,
    /// Slot `s`'s key is `keys[s * width..(s + 1) * width]`.
    keys: Vec<u64>,
    /// Power-of-two open-addressing index (linear probing, load ≤ ½)
    /// holding slot ids.
    index: Vec<u32>,
    hasher: RandomState,
}

/// Where a missing key would go: the result of a failed
/// [`KeyTable::probe`], valid until the table next changes.
pub(crate) struct Vacant(usize);

impl KeyTable {
    /// An empty table of `width`-word keys.
    pub(crate) fn new(width: usize) -> Self {
        KeyTable {
            width,
            len: 0,
            keys: Vec::new(),
            index: vec![EMPTY; 16],
            hasher: RandomState::new(),
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The key of `slot`.
    #[inline]
    pub(crate) fn key(&self, slot: usize) -> &[u64] {
        &self.keys[slot * self.width..(slot + 1) * self.width]
    }

    /// The slot of `key`, or where it would be inserted.
    #[inline]
    pub(crate) fn probe(&self, key: &[u64]) -> Result<usize, Vacant> {
        debug_assert_eq!(key.len(), self.width);
        let mask = self.index.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.index[i] {
                EMPTY => return Err(Vacant(i)),
                s if self.key(s as usize) == key => return Ok(s as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Appends `key` at the position a [`KeyTable::probe`] of the
    /// unchanged table returned, and returns its new slot.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` keys (hundreds of GiB of arena).
    pub(crate) fn insert(&mut self, at: Vacant, key: &[u64]) -> usize {
        let slot = self.len;
        self.index[at.0] = u32::try_from(slot)
            .ok()
            .filter(|&s| s != EMPTY)
            .expect("key table holds fewer than u32::MAX keys");
        self.keys.extend_from_slice(key);
        self.len += 1;
        if 2 * self.len > self.index.len() {
            self.reindex(2 * self.index.len());
        }
        slot
    }

    /// The slot of `key`, inserting it if new; `true` when inserted.
    pub(crate) fn slot(&mut self, key: &[u64]) -> (usize, bool) {
        match self.probe(key) {
            Ok(s) => (s, false),
            Err(at) => (self.insert(at, key), true),
        }
    }

    /// Rewrites every key as `key[perm[0]], key[perm[1]], ..`, keeping
    /// slots. `perm` must be a permutation of `0..width`.
    pub(crate) fn permute(&mut self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.width);
        let mut buf = vec![0u64; self.width];
        for key in self.keys.chunks_exact_mut(self.width.max(1)) {
            for (b, &i) in buf.iter_mut().zip(perm) {
                *b = key[i];
            }
            key.copy_from_slice(&buf);
        }
        self.reindex(self.index.len());
    }

    /// Slot ids in ascending key order.
    pub(crate) fn sorted_slots(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len as u32).collect();
        order.sort_unstable_by(|&a, &b| self.key(a as usize).cmp(self.key(b as usize)));
        order
    }

    /// Rebuilds the index with `cap` cells.
    fn reindex(&mut self, cap: usize) {
        let mask = cap - 1;
        let mut index = vec![EMPTY; cap];
        for slot in 0..self.len {
            let mut i = self.hasher.hash_one(self.key(slot)) as usize & mask;
            while index[i] != EMPTY {
                i = (i + 1) & mask;
            }
            index[i] = slot as u32;
        }
        self.index = index;
    }
}

/// The output accumulator of a non-concordant walk: each distinct output
/// key's value, folded in leaf order, and the output epoch that last
/// touched it (see [`crate::counters::OutputChannel::update`]).
pub(crate) struct OutTable {
    keys: KeyTable,
    values: Vec<f64>,
    epochs: Vec<u64>,
}

impl OutTable {
    /// An empty table of `width`-coordinate output points.
    pub(crate) fn new(width: usize) -> Self {
        OutTable {
            keys: KeyTable::new(width),
            values: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Number of distinct output points.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The slot of `key`, or where it would be inserted.
    #[inline]
    pub(crate) fn probe(&self, key: &[u64]) -> Result<usize, Vacant> {
        self.keys.probe(key)
    }

    /// Inserts a fresh point at `at` (from [`OutTable::probe`]) with its
    /// first value and epoch, returning its slot.
    pub(crate) fn insert(&mut self, at: Vacant, key: &[u64], value: f64, epoch: u64) -> usize {
        self.values.push(value);
        self.epochs.push(epoch);
        self.keys.insert(at, key)
    }

    /// The accumulated value and last epoch of `slot`.
    #[inline]
    pub(crate) fn entry_mut(&mut self, slot: usize) -> (&mut f64, &mut u64) {
        (&mut self.values[slot], &mut self.epochs[slot])
    }

    /// Folds `value` into `key` with `fold` (insertion when new, at epoch
    /// 0). Off the leaf path: shard merges.
    pub(crate) fn fold(&mut self, key: &[u64], value: f64, fold: impl FnOnce(f64, f64) -> f64) {
        match self.probe(key) {
            Ok(s) => self.values[s] = fold(self.values[s], value),
            Err(at) => {
                self.insert(at, key, value, 0);
            }
        }
    }

    /// Reorders every key's coordinates by `perm` (see
    /// [`KeyTable::permute`]).
    pub(crate) fn permute(&mut self, perm: &[usize]) {
        self.keys.permute(perm);
    }

    /// Every `(key, value)`, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u64], f64)> + '_ {
        (0..self.len()).map(move |s| (self.keys.key(s), self.values[s]))
    }

    /// Every `(key, value)`, in ascending key order.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (&[u64], f64)> + '_ {
        self.keys
            .sorted_slots()
            .into_iter()
            .map(move |s| (self.keys.key(s as usize), self.values[s as usize]))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use proptest::prelude::*;

    use super::*;
    use crate::counters::OutputChannel;

    /// Values whose running sum depends on the order they are added in.
    const VALUES: [f64; 6] = [1e16, 1.0, -1e16, 0.1, 3.3, -0.7];

    /// Per-width coordinate span keeping a few hundred distinct keys, so
    /// streams repeat keys and grow the index several times.
    fn key_of(width: usize, words: (u64, u64, u64)) -> Vec<u64> {
        let span = [400, 20, 8][width - 1];
        [words.0 % span, words.1 % span, words.2 % span][..width].to_vec()
    }

    /// One leaf: key words, a value, and whether the output epoch
    /// advances first.
    type Event = ((u64, u64, u64), usize, u64);

    fn events() -> impl Strategy<Value = Vec<Event>> {
        proptest::collection::vec(
            ((0u64..400, 0u64..400, 0u64..400), 0usize..6, 0u64..8),
            0..1500,
        )
    }

    proptest! {
        #[test]
        fn table_matches_a_btreemap_oracle(width in 1usize..4, stream in events()) {
            let mut table = OutTable::new(width);
            let mut out = OutputChannel::new(64, Some("K".into()));
            // The oracle: values and the pre-table epoch bookkeeping
            // (`last_epoch` keyed by the exact output key).
            let mut oracle: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
            let mut last_epoch: HashMap<Vec<u64>, u64> = HashMap::new();
            let (mut epoch, mut writes, mut updates, mut drains) = (0u64, 0u64, 0u64, 0u64);
            let mut slots: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
            for (words, vi, advance) in stream {
                if advance == 0 {
                    out.advance_epoch();
                    epoch += 1;
                }
                let key = key_of(width, words);
                let value = VALUES[vi];
                match table.probe(&key) {
                    Ok(slot) => {
                        prop_assert_eq!(slots.get(&key), Some(&slot), "equal keys share a slot");
                        let (v, last) = table.entry_mut(slot);
                        *v += value;
                        out.update(last);
                    }
                    Err(at) => {
                        prop_assert!(!slots.contains_key(&key), "a known key probed vacant");
                        let slot = table.insert(at, &key, value, out.write());
                        prop_assert_eq!(slot, slots.len(), "slots are dense, in insertion order");
                        slots.insert(key.clone(), slot);
                    }
                }
                match oracle.get_mut(&key) {
                    Some(v) => {
                        *v += value;
                        updates += 1;
                    }
                    None => {
                        oracle.insert(key.clone(), value);
                        writes += 1;
                    }
                }
                if let Some(e) = last_epoch.insert(key, epoch) {
                    if e != epoch {
                        drains += 1;
                    }
                }
            }
            prop_assert_eq!(table.len(), oracle.len());
            let drained: Vec<(Vec<u64>, u64)> =
                table.sorted().map(|(k, v)| (k.to_vec(), v.to_bits())).collect();
            let want: Vec<(Vec<u64>, u64)> =
                oracle.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
            prop_assert_eq!(drained, want, "key order and leaf-order folds");
            prop_assert_eq!((out.writes, out.updates), (writes, updates));
            prop_assert_eq!(out.drain_bits, 64 * drains);
            prop_assert_eq!(out.refill_bits, 64 * drains);
        }

        #[test]
        fn permuted_keys_drain_in_permuted_order(stream in events()) {
            let mut table = OutTable::new(3);
            let mut oracle: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
            for (words, vi, _) in stream {
                let key = key_of(3, words);
                table.fold(&key, VALUES[vi], |a, b| a + b);
                *oracle.entry(vec![key[2], key[0], key[1]]).or_insert(0.0) += VALUES[vi];
            }
            table.permute(&[2, 0, 1]);
            let drained: Vec<(Vec<u64>, u64)> =
                table.sorted().map(|(k, v)| (k.to_vec(), v.to_bits())).collect();
            let want: Vec<(Vec<u64>, u64)> =
                oracle.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
            prop_assert_eq!(drained, want);
            // The rebuilt index still finds every permuted key.
            for k in oracle.keys() {
                prop_assert!(table.probe(k).is_ok());
            }
        }
    }

    #[test]
    fn scalar_keys_share_one_slot() {
        let mut keys = KeyTable::new(0);
        assert_eq!(keys.slot(&[]), (0, true));
        assert_eq!(keys.slot(&[]), (0, false));
        assert_eq!(keys.len(), 1);
        assert_eq!(keys.sorted_slots(), vec![0]);
        keys.permute(&[]);
        assert_eq!(keys.slot(&[]), (0, false));
    }

    #[test]
    fn growth_keeps_every_slot() {
        let mut keys = KeyTable::new(2);
        for i in 0..5000u64 {
            assert_eq!(keys.slot(&[i % 71, i]), (i as usize, true));
        }
        for i in 0..5000u64 {
            assert_eq!(keys.probe(&[i % 71, i]).ok(), Some(i as usize));
        }
        assert!(keys.probe(&[0, 5000]).is_err());
    }
}
