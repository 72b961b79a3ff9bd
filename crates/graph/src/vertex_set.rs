//! Vertex subsets.
//!
//! Every expansion notion in the paper quantifies over vertex subsets
//! `S ⊆ V`: ordinary expansion looks at `Γ⁻(S)`, unique-neighbor expansion at
//! `Γ¹(S)`, and wireless expansion additionally quantifies over subsets
//! `S' ⊆ S`. [`VertexSet`] is the workhorse representation for these sets: a
//! bitset (for O(1) membership tests) paired with a sorted member list (for
//! fast iteration proportional to `|S|` rather than `n`).

use std::fmt;

/// A subset of the vertices `0..n` of a graph.
///
/// Internally a `VertexSet` stores both a bitset over the universe and a
/// sorted vector of members, so membership queries are O(1) and iteration is
/// O(|S|). The universe size is fixed at construction; all vertices passed to
/// mutating methods must lie in `0..universe`.
#[derive(Clone, PartialEq, Eq)]
pub struct VertexSet {
    universe: usize,
    words: Vec<u64>,
    members: Vec<usize>,
}

const WORD_BITS: usize = 64;

impl VertexSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn empty(universe: usize) -> Self {
        VertexSet {
            universe,
            words: vec![0u64; universe.div_ceil(WORD_BITS)],
            members: Vec::new(),
        }
    }

    /// Creates the full set `{0, 1, …, universe-1}` by filling whole words
    /// directly (O(n/64) for the bitset plus O(n) for the member list, with
    /// no per-bit insertion).
    pub fn full(universe: usize) -> Self {
        let mut words = vec![!0u64; universe.div_ceil(WORD_BITS)];
        let tail = universe % WORD_BITS;
        if tail != 0 {
            *words
                .last_mut()
                .expect("non-empty words for non-empty tail") = (1u64 << tail) - 1;
        }
        VertexSet {
            universe,
            words,
            members: (0..universe).collect(),
        }
    }

    /// Creates a set from an already sorted, duplicate-free member list,
    /// setting bits directly instead of going through [`VertexSet::insert`].
    /// This is the fast path used by the neighborhood kernels in
    /// [`crate::scratch`] when materializing witness sets.
    ///
    /// # Panics
    /// Panics if the members are not strictly increasing or any member is
    /// `>= universe`.
    pub fn from_sorted(universe: usize, members: Vec<usize>) -> Self {
        let mut words = vec![0u64; universe.div_ceil(WORD_BITS)];
        let mut prev: Option<usize> = None;
        for &v in &members {
            assert!(
                prev.is_none_or(|p| p < v),
                "members must be strictly increasing"
            );
            assert!(
                v < universe,
                "vertex {v} out of range for universe {universe}"
            );
            words[v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
            prev = Some(v);
        }
        VertexSet {
            universe,
            words,
            members,
        }
    }

    /// Creates a set from an iterator of vertices. Duplicates are ignored.
    ///
    /// # Panics
    /// Panics if any vertex is `>= universe`.
    pub fn from_iter(universe: usize, vertices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(universe);
        for v in vertices {
            s.insert(v);
        }
        s
    }

    /// The size of the underlying universe (the graph's vertex count).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The number of vertices in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the set contains no vertices.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test in O(1).
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        (self.words[v / WORD_BITS] >> (v % WORD_BITS)) & 1 == 1
    }

    /// Inserts a vertex. Returns `true` if it was newly inserted.
    ///
    /// Costs O(|S|): the member `Vec` is kept sorted, so a new member is
    /// shifted into place (appending the new maximum is the cheap case).
    /// Hot loops that move many vertices in and out of sets should keep a
    /// per-vertex state array instead and build the final sets once with
    /// [`VertexSet::from_sorted`].
    ///
    /// # Panics
    /// Panics if `v >= universe`.
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(
            v < self.universe,
            "vertex {v} out of range for universe {}",
            self.universe
        );
        if self.contains(v) {
            return false;
        }
        self.words[v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
        // keep members sorted by inserting at the right position
        let pos = self.members.partition_point(|&m| m < v);
        self.members.insert(pos, v);
        true
    }

    /// Inserts a strictly increasing run of vertices, none of them a member
    /// yet, in one linear merge: O(|S| + k) for `k` new members, where `k`
    /// calls to [`VertexSet::insert`] would cost O(k·|S|). The radio engines
    /// add each round's receivers this way.
    ///
    /// # Panics
    /// Panics if `vs` is not strictly increasing, or any vertex is
    /// `>= universe` or already a member.
    pub fn insert_sorted(&mut self, vs: &[usize]) {
        for (i, &v) in vs.iter().enumerate() {
            assert!(
                i == 0 || vs[i - 1] < v,
                "vertices must be strictly increasing"
            );
            assert!(
                v < self.universe,
                "vertex {v} out of range for universe {}",
                self.universe
            );
            assert!(!self.contains(v), "vertex {v} is already a member");
            self.words[v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
        }
        // Merge from the back so every member moves at most once.
        let old = self.members.len();
        self.members.resize(old + vs.len(), 0);
        let (mut i, mut j) = (old, vs.len());
        while j > 0 {
            let k = i + j - 1;
            if i > 0 && self.members[i - 1] > vs[j - 1] {
                self.members[k] = self.members[i - 1];
                i -= 1;
            } else {
                self.members[k] = vs[j - 1];
                j -= 1;
            }
        }
    }

    /// Removes a vertex. Returns `true` if it was present.
    ///
    /// Costs O(|S|) for the same reason as [`VertexSet::insert`]: the
    /// sorted member `Vec` closes the gap.
    pub fn remove(&mut self, v: usize) -> bool {
        if !self.contains(v) {
            return false;
        }
        self.words[v / WORD_BITS] &= !(1u64 << (v % WORD_BITS));
        if let Ok(pos) = self.members.binary_search(&v) {
            self.members.remove(pos);
        }
        true
    }

    /// Removes all vertices, keeping the allocated bitset words and member
    /// capacity for reuse (no reallocation on subsequent inserts up to the
    /// previous size). Costs O(|S|), not O(universe): only the words that
    /// actually contain members are zeroed, so clearing a sparse set reused
    /// as a per-round buffer (the radio simulator's transmitter set) stays
    /// proportional to the work already done.
    pub fn clear(&mut self) {
        for &v in &self.members {
            self.words[v / WORD_BITS] = 0;
        }
        self.members.clear();
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s existing
    /// allocations where possible (the buffer-reuse path behind
    /// allocation-free protocol loops, e.g. naive flooding transmitting the
    /// whole informed set each round).
    pub fn copy_from(&mut self, other: &VertexSet) {
        self.universe = other.universe;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.members.clear();
        self.members.extend_from_slice(&other.members);
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().copied()
    }

    /// Returns the members as a sorted slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.members
    }

    /// Returns the members as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.members.clone()
    }

    /// Returns the underlying bitset words. Bit `v % 64` of word `v / 64` is
    /// set iff vertex `v` is a member; bits at positions `>= universe` in the
    /// final word are always zero. This is the zero-copy entry point for
    /// word-parallel kernels (e.g. the bit-sliced radio engine) that combine
    /// sets with AND/OR/XOR instead of per-vertex loops.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The number of members, recomputed by popcount over the words.
    ///
    /// Always equals [`VertexSet::len`]; exists so word-level callers can
    /// cross-check a bulk update (and as the natural popcount spelling next
    /// to [`VertexSet::as_words`]).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Grants mutable word-level access to the bitset via a guard.
    ///
    /// The guard dereferences to `&mut [u64]`; callers may rewrite whole
    /// words (bulk union from a lane mask, scatter from a kernel, …). When
    /// the guard drops it restores the set's invariants: bits beyond
    /// `universe` in the final word are masked off and the sorted member
    /// list is rebuilt from the words in O(universe / 64 + |S|).
    pub fn as_words_mut(&mut self) -> WordsMut<'_> {
        WordsMut { set: self }
    }

    /// Set union (both operands must share the same universe).
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut out = self.clone();
        for v in other.iter() {
            out.insert(v);
        }
        out
    }

    /// Set intersection (both operands must share the same universe).
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        VertexSet::from_iter(self.universe, small.iter().filter(|&v| big.contains(v)))
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        VertexSet::from_iter(self.universe, self.iter().filter(|&v| !other.contains(v)))
    }

    /// Complement with respect to the universe.
    pub fn complement(&self) -> VertexSet {
        VertexSet::from_iter(
            self.universe,
            (0..self.universe).filter(|&v| !self.contains(v)),
        )
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &VertexSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.iter().all(|v| other.contains(v))
    }

    /// `true` if the two sets have no common vertex.
    pub fn is_disjoint_from(&self, other: &VertexSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.iter().all(|v| !big.contains(v))
    }

    /// Enumerates all `2^|S|` subsets of this set, invoking `f` on each.
    ///
    /// Intended for exact (small-instance) expansion computations; the caller
    /// is responsible for keeping `|S|` small (≲ 20). The empty subset is
    /// included.
    pub fn for_each_subset(&self, mut f: impl FnMut(&VertexSet)) {
        let k = self.len();
        assert!(
            k <= 25,
            "subset enumeration limited to 25 elements, got {k}"
        );
        let members = &self.members;
        for mask in 0u64..(1u64 << k) {
            let subset = VertexSet::from_iter(
                self.universe,
                (0..k).filter(|i| (mask >> i) & 1 == 1).map(|i| members[i]),
            );
            f(&subset);
        }
    }

    /// Enumerates the non-empty subsets only.
    pub fn for_each_nonempty_subset(&self, mut f: impl FnMut(&VertexSet)) {
        self.for_each_subset(|s| {
            if !s.is_empty() {
                f(s)
            }
        });
    }
}

/// Mutable word-level view of a [`VertexSet`], returned by
/// [`VertexSet::as_words_mut`].
///
/// On drop, tail bits beyond the universe are cleared and the member list is
/// rebuilt from the (possibly rewritten) words.
pub struct WordsMut<'a> {
    set: &'a mut VertexSet,
}

impl std::ops::Deref for WordsMut<'_> {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.set.words
    }
}

impl std::ops::DerefMut for WordsMut<'_> {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.set.words
    }
}

impl Drop for WordsMut<'_> {
    fn drop(&mut self) {
        let tail = self.set.universe % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.set.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.set.members.clear();
        for (wi, &w) in self.set.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.set.members.push(wi * WORD_BITS + b);
                bits &= bits - 1;
            }
        }
    }
}

impl serde::Serialize for VertexSet {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("VertexSet", 2)?;
        st.serialize_field("universe", &self.universe)?;
        st.serialize_field("members", &self.members)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for VertexSet {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Raw {
            universe: usize,
            members: Vec<usize>,
        }
        let raw = Raw::deserialize(deserializer)?;
        if let Some(&bad) = raw.members.iter().find(|&&v| v >= raw.universe) {
            return Err(serde::de::Error::custom(format!(
                "member {bad} out of range for universe {}",
                raw.universe
            )));
        }
        Ok(VertexSet::from_iter(raw.universe, raw.members))
    }
}

impl Default for VertexSet {
    /// The empty set over the empty universe. Mainly useful for
    /// `#[serde(skip)]` fields and placeholder values.
    fn default() -> Self {
        VertexSet::empty(0)
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VertexSet{{n={}, S={:?}}}", self.universe, self.members)
    }
}

impl<'a> IntoIterator for &'a VertexSet {
    type Item = usize;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = VertexSet::empty(10);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert!(!e.contains(3));

        let f = VertexSet::full(10);
        assert_eq!(f.len(), 10);
        assert!((0..10).all(|v| f.contains(v)));
    }

    #[test]
    fn insert_sorted_matches_repeated_insert() {
        let mut rng = crate::random::rng_from_seed(12);
        for universe in [1usize, 10, 64, 65, 300] {
            for _ in 0..20 {
                let base = crate::random::bernoulli_subset(&mut rng, universe, 0.3);
                let extra: Vec<usize> = crate::random::bernoulli_subset(&mut rng, universe, 0.4)
                    .iter()
                    .filter(|&v| !base.contains(v))
                    .collect();
                let mut merged = base.clone();
                merged.insert_sorted(&extra);
                let mut inserted = base.clone();
                for &v in &extra {
                    assert!(inserted.insert(v));
                }
                assert_eq!(merged, inserted, "universe {universe}");
                assert_eq!(merged.count_ones(), merged.len());
            }
        }
        // an empty run is a no-op, and an empty set takes any run
        let mut s = VertexSet::from_iter(8, [1, 5]);
        s.insert_sorted(&[]);
        assert_eq!(s.to_vec(), vec![1, 5]);
        let mut e = VertexSet::empty(8);
        e.insert_sorted(&[0, 3, 7]);
        assert_eq!(e.to_vec(), vec![0, 3, 7]);
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn insert_sorted_rejects_members() {
        let mut s = VertexSet::from_iter(8, [1, 5]);
        s.insert_sorted(&[2, 5]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn insert_sorted_rejects_unsorted_runs() {
        let mut s = VertexSet::empty(8);
        s.insert_sorted(&[4, 2]);
    }

    #[test]
    fn full_matches_per_bit_construction() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let fast = VertexSet::full(n);
            let slow = VertexSet::from_iter(n, 0..n);
            assert_eq!(fast, slow, "universe {n}");
            assert_eq!(fast.len(), n);
            assert!(!fast.contains(n));
        }
    }

    #[test]
    fn from_sorted_matches_from_iter() {
        let members = vec![0, 3, 63, 64, 99];
        let fast = VertexSet::from_sorted(100, members.clone());
        let slow = VertexSet::from_iter(100, members);
        assert_eq!(fast, slow);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_rejects_unsorted() {
        VertexSet::from_sorted(10, vec![3, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_rejects_out_of_range() {
        VertexSet::from_sorted(4, vec![1, 4]);
    }

    #[test]
    fn clear_empties_and_allows_reuse() {
        let mut s = VertexSet::from_iter(80, [1, 40, 79]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(40));
        assert!(s.insert(40));
        assert_eq!(s.to_vec(), vec![40]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = VertexSet::empty(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(90));
        assert!(s.contains(5));
        assert!(s.contains(90));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.to_vec(), vec![90]);
    }

    #[test]
    fn members_stay_sorted() {
        let mut s = VertexSet::empty(50);
        for v in [40, 3, 17, 9, 25, 1] {
            s.insert(v);
        }
        assert_eq!(s.to_vec(), vec![1, 3, 9, 17, 25, 40]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = VertexSet::empty(4);
        s.insert(4);
    }

    #[test]
    fn set_operations() {
        let a = VertexSet::from_iter(10, [1, 2, 3, 4]);
        let b = VertexSet::from_iter(10, [3, 4, 5, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert_eq!(b.difference(&a).to_vec(), vec![5, 6]);
        assert_eq!(a.complement().len(), 6);
        assert!(VertexSet::from_iter(10, [1, 2]).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_disjoint_from(&VertexSet::from_iter(10, [7, 8])));
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn subset_enumeration_counts() {
        let s = VertexSet::from_iter(10, [2, 5, 7]);
        let mut count = 0usize;
        let mut nonempty = 0usize;
        s.for_each_subset(|_| count += 1);
        s.for_each_nonempty_subset(|x| {
            nonempty += 1;
            assert!(x.is_subset_of(&s));
            assert!(!x.is_empty());
        });
        assert_eq!(count, 8);
        assert_eq!(nonempty, 7);
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = VertexSet::from_iter(4, [0, 1]);
        assert!(!s.contains(100));
    }

    #[test]
    fn from_iter_ignores_duplicates() {
        let s = VertexSet::from_iter(8, [3, 3, 3, 4]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn as_words_exposes_the_bitset() {
        let s = VertexSet::from_iter(130, [0, 63, 64, 129]);
        let words = s.as_words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], 1 | (1u64 << 63));
        assert_eq!(words[1], 1);
        assert_eq!(words[2], 1u64 << 1);
    }

    #[test]
    fn count_ones_matches_len() {
        for n in [0usize, 1, 64, 65, 200] {
            let s = VertexSet::from_iter(n.max(1), (0..n.max(1)).step_by(3));
            assert_eq!(s.count_ones(), s.len(), "universe {n}");
        }
    }

    #[test]
    fn as_words_mut_rebuilds_members() {
        let mut s = VertexSet::from_iter(100, [1, 2, 3]);
        {
            let mut words = s.as_words_mut();
            words[0] = 1u64 << 40;
            words[1] = 1u64 << 5; // vertex 69
        }
        assert_eq!(s.to_vec(), vec![40, 69]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(40));
        assert!(!s.contains(1));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn as_words_mut_masks_tail_bits() {
        let mut s = VertexSet::empty(70);
        {
            let mut words = s.as_words_mut();
            words[1] = !0u64; // bits 64..128, only 64..70 are in-universe
        }
        assert_eq!(s.to_vec(), vec![64, 65, 66, 67, 68, 69]);
        assert_eq!(s.as_words()[1], (1u64 << 6) - 1);
    }
}
