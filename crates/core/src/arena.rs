//! A minimal slotted arena with index reuse.
//!
//! Both stack segments and continuation objects live in arenas owned by the
//! [`SegStack`](crate::SegStack); identifiers are plain indices. Freed slots
//! are kept on a free list and reused, which keeps identifiers small and
//! allocation cheap — the same role the heap allocator plays for stack
//! records in the paper's Chez Scheme implementation.

/// A slotted arena mapping `u32` indices to values of type `T`.
#[derive(Debug, Clone)]
pub(crate) struct Arena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }
}

impl<T> Arena<T> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Inserts a value, returning its index.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(value);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena index overflow");
                self.slots.push(Some(value));
                // Room on the (here empty) free list for every slot, so
                // `remove` — which a collection's sweep calls once per dead
                // entry — never allocates. Growth is paid here, beside the
                // slot vector's own.
                self.free.reserve(self.slots.len());
                idx
            }
        }
    }

    /// Removes and returns the value at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not occupied.
    pub(crate) fn remove(&mut self, idx: u32) -> T {
        let v = self.slots[idx as usize].take().expect("arena slot already free");
        self.free.push(idx);
        self.live -= 1;
        v
    }

    pub(crate) fn get(&self, idx: u32) -> &T {
        self.slots[idx as usize].as_ref().expect("arena slot is free")
    }

    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut T {
        self.slots[idx as usize].as_mut().expect("arena slot is free")
    }

    /// Like [`Arena::get`] without the bounds/occupancy checks (they become
    /// `debug_assert`s).
    ///
    /// # Safety
    ///
    /// `idx` must refer to a live (inserted, not removed) entry.
    #[allow(unsafe_code)]
    #[inline]
    pub(crate) unsafe fn get_unchecked(&self, idx: u32) -> &T {
        debug_assert!(self.contains(idx), "arena index {idx} is not live");
        // SAFETY: the caller guarantees `idx` is live, so the slot exists
        // and holds `Some`.
        unsafe { self.slots.get_unchecked(idx as usize).as_ref().unwrap_unchecked() }
    }

    /// Two distinct live entries, mutably — the split borrow behind
    /// cross-segment slot copies.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either entry is free.
    pub(crate) fn get2_mut(&mut self, a: u32, b: u32) -> (&mut T, &mut T) {
        assert_ne!(a, b, "get2_mut needs distinct indices");
        let (lo, hi, swap) = if a < b { (a, b, false) } else { (b, a, true) };
        let (left, right) = self.slots.split_at_mut(hi as usize);
        let x = left[lo as usize].as_mut().expect("arena slot is free");
        let y = right[0].as_mut().expect("arena slot is free");
        if swap {
            (y, x)
        } else {
            (x, y)
        }
    }

    pub(crate) fn contains(&self, idx: u32) -> bool {
        (idx as usize) < self.slots.len() && self.slots[idx as usize].is_some()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Iterates over `(index, value)` pairs of live entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }

    /// Calls `f` on every live entry, in index order.
    pub(crate) fn for_each_mut(&mut self, f: impl FnMut(&mut T)) {
        self.slots.iter_mut().flatten().for_each(f);
    }

    /// One past the highest index ever handed out: with
    /// [`Arena::remove_if`], the bound of an in-place walk that removes
    /// entries as it goes.
    pub(crate) fn slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Removes and returns the entry at `idx` if there is one and `doomed`
    /// says so.
    pub(crate) fn remove_if(&mut self, idx: u32, doomed: impl FnOnce(&T) -> bool) -> Option<T> {
        let live = self.slots.get(idx as usize)?.as_ref()?;
        doomed(live).then(|| self.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_reuses_indices() {
        let mut a = Arena::new();
        let i = a.insert("a");
        let j = a.insert("b");
        assert_eq!(*a.get(i), "a");
        assert_eq!(*a.get(j), "b");
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(i), "a");
        assert_eq!(a.len(), 1);
        assert!(!a.contains(i));
        let k = a.insert("c");
        assert_eq!(k, i, "freed index is reused");
        assert_eq!(*a.get(k), "c");
    }

    #[test]
    fn iter_visits_only_live() {
        let mut a = Arena::new();
        let i = a.insert(1);
        let _j = a.insert(2);
        a.remove(i);
        let seen: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn in_place_walk_visits_and_removes_only_live() {
        let mut a = Arena::new();
        let ids: Vec<u32> = (0..6).map(|n| a.insert(n)).collect();
        a.remove(ids[1]);
        a.for_each_mut(|v| *v *= 10);
        let mut removed = Vec::new();
        for idx in 0..a.slot_count() {
            removed.extend(a.remove_if(idx, |v| *v >= 30));
        }
        assert_eq!(removed, vec![30, 40, 50]);
        let left: Vec<(u32, i32)> = a.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(left, vec![(ids[0], 0), (ids[2], 20)]);
        assert_eq!(a.remove_if(ids[1], |_| true), None, "a free slot is not an entry");
        assert_eq!(a.remove_if(a.slot_count(), |_| true), None, "nor is one never handed out");
        // Freed indices are reused most-recent-first, as with `remove`.
        assert_eq!(a.insert(7), ids[5]);
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_remove_panics() {
        let mut a = Arena::new();
        let i = a.insert(0u8);
        a.remove(i);
        a.remove(i);
    }
}
