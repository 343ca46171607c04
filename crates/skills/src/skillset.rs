//! A compact bitset of skills.

use serde::{Deserialize, Serialize};

use crate::universe::SkillId;

/// A fixed-capacity set of skills stored as a bitset.
///
/// All skill sets in one problem instance share the same capacity (the size
/// of the [`crate::SkillUniverse`]); operations between sets of different
/// capacities are supported by treating missing high bits as unset.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SkillSet {
    bits: Vec<u64>,
    capacity: usize,
}

impl SkillSet {
    /// Creates an empty set able to hold skills `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        SkillSet {
            bits: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set from an iterator of skills, sized to `capacity`.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = SkillId>>(
        capacity: usize,
        iter: I,
    ) -> Self {
        let mut s = Self::new(capacity);
        for id in iter {
            s.insert(id);
        }
        s
    }

    /// The capacity (size of the universe) this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a skill. Ignores ids beyond the capacity.
    pub fn insert(&mut self, id: SkillId) {
        let i = id.index();
        if i < self.capacity {
            self.bits[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Removes every skill, keeping the capacity (and the allocation).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Removes a skill if present.
    pub fn remove(&mut self, id: SkillId) {
        let i = id.index();
        if i < self.capacity {
            self.bits[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// `true` if the set contains `id`.
    pub fn contains(&self, id: SkillId) -> bool {
        let i = id.index();
        i < self.capacity && (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of skills in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no skills.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Adds every skill of `other` to `self`.
    pub fn union_with(&mut self, other: &SkillSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Removes every skill not present in `other`.
    pub fn intersect_with(&mut self, other: &SkillSet) {
        for (i, a) in self.bits.iter_mut().enumerate() {
            *a &= other.bits.get(i).copied().unwrap_or(0);
        }
    }

    /// Removes every skill present in `other`.
    pub fn difference_with(&mut self, other: &SkillSet) {
        for (i, a) in self.bits.iter_mut().enumerate() {
            *a &= !other.bits.get(i).copied().unwrap_or(0);
        }
    }

    /// Number of skills present in both sets.
    pub fn intersection_len(&self, other: &SkillSet) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` if every skill of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &SkillSet) -> bool {
        self.bits
            .iter()
            .enumerate()
            .all(|(i, a)| a & !other.bits.get(i).copied().unwrap_or(0) == 0)
    }

    /// `true` if the two sets share at least one skill.
    pub fn intersects(&self, other: &SkillSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// Iterator over the skills in the set, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = SkillId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(SkillId::new(w * 64 + bit))
                }
            })
        })
    }

    /// Collects the contents into a vector of ids.
    pub fn to_vec(&self) -> Vec<SkillId> {
        self.iter().collect()
    }
}

impl FromIterator<SkillId> for SkillSet {
    /// Builds a set sized to the largest id seen (capacity = max id + 1).
    fn from_iter<I: IntoIterator<Item = SkillId>>(iter: I) -> Self {
        let ids: Vec<SkillId> = iter.into_iter().collect();
        let capacity = ids.iter().map(|s| s.index() + 1).max().unwrap_or(0);
        Self::from_iter_with_capacity(capacity, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(capacity: usize, ids: &[usize]) -> SkillSet {
        SkillSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| SkillId::new(i)))
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SkillSet::new(130);
        assert!(s.is_empty());
        s.insert(SkillId::new(0));
        s.insert(SkillId::new(64));
        s.insert(SkillId::new(129));
        s.insert(SkillId::new(500)); // beyond capacity: ignored
        assert_eq!(s.len(), 3);
        assert!(s.contains(SkillId::new(64)));
        assert!(!s.contains(SkillId::new(63)));
        assert!(!s.contains(SkillId::new(500)));
        s.remove(SkillId::new(64));
        assert!(!s.contains(SkillId::new(64)));
        assert_eq!(s.len(), 2);
        s.remove(SkillId::new(999)); // no-op
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn set_algebra() {
        let a = set(100, &[1, 2, 3, 70]);
        let b = set(100, &[2, 3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), set(100, &[1, 2, 3, 4, 70]).to_vec());
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), set(100, &[2, 3]).to_vec());
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), set(100, &[1, 70]).to_vec());
        assert_eq!(a.intersection_len(&b), 2);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(a.intersects(&b));
        assert!(!set(100, &[9]).intersects(&b));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = set(200, &[150, 3, 64, 65, 0]);
        let ids: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(ids, vec![0, 3, 64, 65, 150]);
    }

    #[test]
    fn from_iterator_auto_capacity() {
        let s: SkillSet = [SkillId::new(5), SkillId::new(2)].into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert_eq!(s.len(), 2);
        let empty: SkillSet = std::iter::empty().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn mixed_capacity_operations_are_safe() {
        let mut a = set(100, &[1, 80]);
        let b = set(10, &[1, 2]);
        a.intersect_with(&b);
        assert_eq!(a.to_vec(), vec![SkillId::new(1)]);
        let mut c = set(10, &[3]);
        c.union_with(&set(100, &[3, 90])); // high bits of other are ignored
        assert_eq!(c.len(), 1);
        assert!(set(10, &[3]).is_subset_of(&set(100, &[3, 90])));
    }
}
