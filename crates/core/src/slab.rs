//! A generational slot table: the one "slot vector plus free list" of the
//! workspace.
//!
//! A [`Slab`] hands out a [`Key`] per inserted value: the slot's index and
//! the slot's generation at insertion. Removing a value bumps its slot's
//! generation, so a key minted for a freed slot never resolves again — not
//! even after the slot is reused — and a stale key is refused in O(1).
//! Freed slots are reused last in, first out, which keeps indices small and
//! insertion cheap: the role the heap allocator plays for stack records in
//! the paper's Chez Scheme implementation.
//!
//! The stack keeps its segments and continuation records here
//! ([`SegStack`](crate::SegStack)); the embedders above keep parked waits,
//! engines and sockets in one too.

use std::num::NonZeroU32;
use std::ops::{Index, IndexMut};

/// Names one value of a [`Slab`]: a `u32` slot index and the slot's
/// generation when the value was inserted. The generation is never zero,
/// so `Option<Key>` is eight bytes like `Key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    index: u32,
    gen: NonZeroU32,
}

const _: () = assert!(std::mem::size_of::<Option<Key>>() == 8);

impl Key {
    /// The slot index. Two keys of one slab share an index only if one of
    /// them is stale.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The slot's generation when the key was minted; never zero.
    pub fn generation(self) -> u32 {
        self.gen.get()
    }

    /// A key no slab resolves: a placeholder until a real key is minted.
    pub(crate) const DANGLING: Key = Key { index: u32::MAX, gen: NonZeroU32::MIN };

    /// The key a fresh slab hands out for its `index`-th insertion.
    #[cfg(test)]
    pub(crate) fn first(index: u32) -> Key {
        Key { index, gen: NonZeroU32::MIN }
    }
}

/// One slot: its generation and, while occupied, its value. A vacant
/// slot's generation is the one its next value will get, which no key
/// handed out so far carries.
#[derive(Debug, Clone)]
struct Entry<T> {
    gen: NonZeroU32,
    value: Option<T>,
}

impl<T> Entry<T> {
    /// The value in this entry, which `key` is trusted to name (see
    /// [`Slab`]'s `Index`).
    #[inline]
    fn trusted(&self, key: Key) -> &T {
        debug_assert!(self.gen == key.gen, "stale slab key {key:?}");
        self.value.as_ref().unwrap_or_else(|| stale(key))
    }

    /// [`Entry::trusted`], mutably.
    #[inline]
    fn trusted_mut(&mut self, key: Key) -> &mut T {
        debug_assert!(self.gen == key.gen, "stale slab key {key:?}");
        self.value.as_mut().unwrap_or_else(|| stale(key))
    }
}

#[cold]
fn stale(key: Key) -> ! {
    panic!("stale slab key {key:?}")
}

/// A slotted table mapping [`Key`]s to values of type `T`.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// The vacant slots, most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { entries: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    /// An empty slab; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a value, returning its key: the most recently freed slot's,
    /// else a new slot's.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> Key {
        let index = match self.free.pop() {
            Some(index) => index,
            None => self.grow(),
        };
        let e = &mut self.entries[index as usize];
        debug_assert!(e.value.is_none());
        e.value = Some(value);
        Key { index, gen: e.gen }
    }

    /// Adds a vacant slot and returns its index. Out of line: inlined, the
    /// growth code made a one-shot capture-and-reinstate round trip
    /// measurably slower.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) -> u32 {
        let index = u32::try_from(self.entries.len()).expect("slab index overflow");
        self.entries.push(Entry { gen: NonZeroU32::MIN, value: None });
        // Room on the (here empty) free list for every slot, so `remove` —
        // which a collection's sweep calls once per dead entry — never
        // allocates. Growth is paid here, beside the entry vector's own.
        self.free.reserve(self.entries.len());
        index
    }

    /// Removes and returns the value `key` names, retiring the key; `None`
    /// if the key is stale. Never allocates.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        let e = self.entries.get_mut(key.index as usize).filter(|e| e.gen == key.gen)?;
        let value = e.value.take()?;
        // Generations wrap past `u32::MAX` back to 1: a key must be held
        // across 2^32 - 1 reuses of its slot to be confused.
        e.gen = e.gen.checked_add(1).unwrap_or(NonZeroU32::MIN);
        self.free.push(key.index);
        Some(value)
    }

    /// The value `key` names, or `None` if the key is stale.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&T> {
        self.entries.get(key.index as usize).filter(|e| e.gen == key.gen)?.value.as_ref()
    }

    /// The value `key` names, mutably, or `None` if the key is stale.
    #[inline]
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        self.entries.get_mut(key.index as usize).filter(|e| e.gen == key.gen)?.value.as_mut()
    }

    /// Two distinct live values, mutably — the split borrow behind
    /// cross-segment slot copies. Trusts its keys as `Index` does.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` share an index or either slot is vacant.
    pub fn get2_mut(&mut self, a: Key, b: Key) -> (&mut T, &mut T) {
        let (lo, hi) = (a.index.min(b.index) as usize, a.index.max(b.index) as usize);
        assert!(lo < hi, "get2_mut needs distinct slots");
        let (left, right) = self.entries.split_at_mut(hi);
        let (x, y) = (&mut left[lo], &mut right[0]);
        let (x, y) = if a.index < b.index { (x, y) } else { (y, x) };
        (x.trusted_mut(a), y.trusted_mut(b))
    }

    /// Whether `key` names a live value.
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// The key of the value in slot `index`, if the slot is occupied. With
    /// [`Slab::slot_count`], the cursor of an in-place walk that removes
    /// values as it goes.
    pub fn key_at(&self, index: u32) -> Option<Key> {
        let e = self.entries.get(index as usize)?;
        e.value.as_ref().map(|_| Key { index, gen: e.gen })
    }

    /// One past the highest slot index ever handed out.
    pub fn slot_count(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether the slab holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live values with their keys, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &T)> {
        (0..self.slot_count()).filter_map(|i| self.key_at(i).map(|k| (k, &self[k])))
    }

    /// The live values, mutably, in index order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().filter_map(|e| e.value.as_mut())
    }

    /// Removes every value, retiring every key, and returns the values in
    /// index order. The slots stay for reuse.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        (0..self.slot_count()).filter_map(|i| self.key_at(i).and_then(|k| self.remove(k)))
    }
}

/// Indexing trusts the key: it is for keys the caller knows are live —
/// the links of live records, the current segment — on paths where a
/// generation compare per lookup is measurable (the stack's
/// prompt/take/push cycle does about twenty; `core.subcont_ns` read 2–9 %
/// slower with the compare). It panics on a vacant slot, and checks the
/// generation in debug builds only: in a release build a stale key whose
/// slot was reused reads the slot's new value. A key that may be stale
/// goes through [`Slab::get`], [`Slab::contains`] or [`Slab::remove`],
/// which always refuse it.
impl<T> Index<Key> for Slab<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `key`'s slot is vacant, or in debug builds if `key` is
    /// stale.
    #[inline]
    fn index(&self, key: Key) -> &T {
        self.entries.get(key.index as usize).map_or_else(|| stale(key), |e| e.trusted(key))
    }
}

impl<T> IndexMut<Key> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, key: Key) -> &mut T {
        self.entries.get_mut(key.index as usize).map_or_else(|| stale(key), |e| e.trusted_mut(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_reuses_indices() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((s[a], s[b], s.len()), ("a", "b", 2));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "a retired key removes nothing");
        let c = s.insert("c");
        assert_eq!(c.index(), a.index(), "the freed slot is reused");
        assert_ne!(c, a);
        assert_eq!((s.get(a), s.get(c), s.len()), (None, Some(&"c"), 2));
    }

    #[test]
    fn in_place_walk_visits_and_removes_only_live() {
        let mut s = Slab::new();
        let keys: Vec<Key> = (0..6).map(|n| s.insert(n)).collect();
        s.remove(keys[1]);
        s.values_mut().for_each(|v| *v *= 10);
        let mut removed = Vec::new();
        for i in 0..s.slot_count() {
            if let Some(k) = s.key_at(i).filter(|&k| s[k] >= 30) {
                removed.extend(s.remove(k));
            }
        }
        assert_eq!(removed, vec![30, 40, 50]);
        let left: Vec<(Key, i32)> = s.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(left, vec![(keys[0], 0), (keys[2], 20)]);
        assert_eq!(s.key_at(keys[1].index()), None, "a free slot holds no key");
        assert_eq!(s.key_at(s.slot_count()), None, "nor does one never handed out");
        // Freed slots are reused most-recent-first.
        assert_eq!(s.insert(7).index(), keys[5].index());
    }

    #[test]
    fn iter_visits_only_live() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(b, &2)]);
    }

    #[test]
    fn get2_mut_splits_in_either_order() {
        let mut s = Slab::new();
        let (a, b) = (s.insert(1), s.insert(2));
        let (x, y) = s.get2_mut(b, a);
        std::mem::swap(x, y);
        assert_eq!((s[a], s[b]), (2, 1));
    }

    #[test]
    fn drain_retires_every_key_and_keeps_the_slots() {
        let mut s = Slab::new();
        let keys: Vec<Key> = (0..3).map(|n| s.insert(n)).collect();
        assert_eq!(s.drain().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(s.is_empty() && keys.iter().all(|&k| !s.contains(k)));
        assert_eq!(s.insert(9).index(), 2, "the drained slots are reused");
    }

    #[test]
    #[should_panic(expected = "stale slab key")]
    fn indexing_by_a_stale_key_panics() {
        let mut s = Slab::new();
        let k = s.insert(0u8);
        s.remove(k);
        let _ = s[k];
    }
}
