//! The engine's per-tile worklist: the set of routers that step this
//! cycle, as a two-level bitset.
//!
//! The lower level holds one bit per tile-local router index; the upper
//! level holds one summary bit per *non-empty* lower word. A visit
//! therefore skips 4 096 absent routers per summary word it reads, and
//! a sparse cycle costs O(members + routers / 4 096) instead of
//! O(routers / 64). Visits run in router-index order — ascending, or
//! descending for the visit-order test — which keeps the traversal
//! cache-linear over the tile's slice of the router array.
//!
//! A visit is a [`Cursor`] that holds no borrow of the worklist, so the
//! caller may mutate the worklist between steps. The engine relies on
//! one case only: removing the member just visited (a router retiring
//! mid-step), which never changes which members the visit reaches next.

/// A set of tile-local router indices in `0..capacity`.
#[derive(Debug)]
pub(crate) struct Worklist {
    /// Bit `i % 64` of word `i / 64` set ⇔ index `i` is a member.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` set ⇔ `words[w] != 0`.
    summary: Vec<u64>,
}

impl Worklist {
    /// An empty worklist over indices `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        Worklist {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Whether `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i` (a no-op for a member).
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1u64 << (i % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// Removes `i` (a no-op for a non-member).
    pub(crate) fn remove(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1u64 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Makes every index in `0..len` a member and every other index
    /// not.
    pub(crate) fn fill(&mut self, len: usize) {
        self.words.fill(0);
        self.summary.fill(0);
        for i in 0..len {
            self.insert(i);
        }
    }

    /// Members, counted over the non-empty words only.
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        for (s, &sum) in self.summary.iter().enumerate() {
            let mut bits = sum;
            while bits != 0 {
                n += self.words[s * 64 + bits.trailing_zeros() as usize].count_ones() as usize;
                bits &= bits - 1;
            }
        }
        n
    }

    /// Whether the worklist has no member.
    pub(crate) fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// The smallest member `≥ i`.
    fn first_from(&self, i: usize) -> Option<usize> {
        let w = i / 64;
        let word = *self.words.get(w)? & (!0u64 << (i % 64));
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        let w = self.first_word_from(w + 1)?;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// The largest member `< i`.
    fn last_before(&self, i: usize) -> Option<usize> {
        let i = i.min(self.words.len() * 64).checked_sub(1)?;
        let w = i / 64;
        let word = self.words[w] & (!0u64 >> (63 - i % 64));
        if word != 0 {
            return Some(w * 64 + 63 - word.leading_zeros() as usize);
        }
        let w = self.last_word_before(w)?;
        Some(w * 64 + 63 - self.words[w].leading_zeros() as usize)
    }

    /// The first non-empty word index `≥ w`, via the summary.
    fn first_word_from(&self, w: usize) -> Option<usize> {
        let mut s = w / 64;
        let mut bits = *self.summary.get(s)? & (!0u64 << (w % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    /// The last non-empty word index `< w`, via the summary.
    fn last_word_before(&self, w: usize) -> Option<usize> {
        let w = w.checked_sub(1)?;
        let mut s = w / 64;
        let mut bits = self.summary[s] & (!0u64 >> (63 - w % 64));
        while bits == 0 {
            s = s.checked_sub(1)?;
            bits = self.summary[s];
        }
        Some(s * 64 + 63 - bits.leading_zeros() as usize)
    }
}

/// A position in a visit of a [`Worklist`], ascending or descending.
/// Each [`Cursor::next`] returns the next member past the last one
/// returned, read from the worklist as it stands at that call.
#[derive(Debug)]
pub(crate) struct Cursor {
    /// Ascending: the next index to consider. Descending: one past it.
    at: usize,
    reversed: bool,
}

impl Cursor {
    /// A visit from the smallest member up, or with `reversed` from
    /// the largest member down.
    pub(crate) fn new(reversed: bool) -> Self {
        Cursor {
            at: if reversed { usize::MAX } else { 0 },
            reversed,
        }
    }

    /// The next member of `list` in visit order.
    pub(crate) fn next(&mut self, list: &Worklist) -> Option<usize> {
        if self.reversed {
            let i = list.last_before(self.at)?;
            self.at = i;
            Some(i)
        } else {
            let i = list.first_from(self.at)?;
            self.at = i + 1;
            Some(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Deterministic pseudo-random stream (LCG — no external entropy).
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    fn visit(list: &Worklist, reversed: bool) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = Cursor::new(reversed);
        while let Some(i) = cur.next(list) {
            out.push(i);
        }
        out
    }

    fn assert_matches(list: &Worklist, oracle: &BTreeSet<usize>, capacity: usize) {
        assert_eq!(list.len(), oracle.len());
        assert_eq!(list.is_empty(), oracle.is_empty());
        let fwd: Vec<usize> = oracle.iter().copied().collect();
        assert_eq!(visit(list, false), fwd);
        let rev: Vec<usize> = oracle.iter().rev().copied().collect();
        assert_eq!(visit(list, true), rev);
        // The summary names exactly the non-empty words.
        for (w, &word) in list.words.iter().enumerate() {
            let flagged = list.summary[w / 64] & (1u64 << (w % 64)) != 0;
            assert_eq!(flagged, word != 0, "summary bit of word {w}");
        }
        assert!(list.words.len() * 64 >= capacity);
    }

    const SIZES: [usize; 8] = [1, 63, 64, 65, 4_095, 4_096, 4_097, 70_000];

    #[test]
    fn matches_btreeset_under_random_operations() {
        for (k, &cap) in SIZES.iter().enumerate() {
            let mut next = lcg(0x9e37_79b9_7f4a_7c15 ^ k as u64);
            let mut list = Worklist::new(cap);
            let mut oracle = BTreeSet::new();
            // Some rounds cluster indices so words fill and empty out;
            // others spread them so summary bits flip.
            for round in 0..40 {
                let span = if round % 2 == 0 { cap } else { cap.min(200) };
                let lo = next() as usize % (cap - span + 1);
                for _ in 0..(span.min(300)) {
                    let i = lo + next() as usize % span;
                    match next() % 3 {
                        0 | 1 => {
                            list.insert(i);
                            oracle.insert(i);
                        }
                        _ => {
                            list.remove(i);
                            oracle.remove(&i);
                        }
                    }
                    let probe = next() as usize % cap;
                    assert_eq!(list.contains(probe), oracle.contains(&probe));
                }
                assert_matches(&list, &oracle, cap);
            }
            list.fill(cap);
            oracle = (0..cap).collect();
            assert_matches(&list, &oracle, cap);
            for i in (0..cap).step_by(3) {
                list.remove(i);
                oracle.remove(&i);
            }
            assert_matches(&list, &oracle, cap);
            list.fill(cap / 2);
            oracle = (0..cap / 2).collect();
            assert_matches(&list, &oracle, cap);
            for i in 0..cap {
                list.remove(i);
            }
            assert_matches(&list, &BTreeSet::new(), cap);
        }
    }

    #[test]
    fn a_visit_may_remove_the_member_it_is_visiting() {
        // The retire rule: removing the member just returned never
        // changes which members the rest of the visit reaches.
        for (k, &cap) in SIZES.iter().enumerate() {
            for reversed in [false, true] {
                let mut next = lcg(0x2545_f491_4f6c_dd1d ^ k as u64);
                let mut list = Worklist::new(cap);
                let mut oracle = BTreeSet::new();
                for _ in 0..cap.min(5_000) {
                    let i = next() as usize % cap;
                    list.insert(i);
                    oracle.insert(i);
                }
                let expect: Vec<usize> = if reversed {
                    oracle.iter().rev().copied().collect()
                } else {
                    oracle.iter().copied().collect()
                };
                let mut seen = Vec::new();
                let mut cur = Cursor::new(reversed);
                while let Some(i) = cur.next(&list) {
                    seen.push(i);
                    if next().is_multiple_of(2) {
                        list.remove(i);
                        oracle.remove(&i);
                    }
                }
                assert_eq!(seen, expect, "capacity {cap}, reversed {reversed}");
                assert_matches(&list, &oracle, cap);
            }
        }
    }
}
