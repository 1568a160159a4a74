//! Dense register sets.
//!
//! A [`RegSet`] is a bitset over [`Reg::dense`], the index that lays out
//! physical then virtual registers with the two classes interleaved. A
//! function's registers occupy a prefix of that index space, so
//! liveness, interference and pressure bookkeeping become word
//! operations instead of hash lookups. Iteration is in dense-index
//! order.

use crate::func::Function;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// A set of registers, stored as a bitset over [`Reg::dense`].
#[derive(Clone, Default)]
pub struct RegSet {
    pub(crate) words: Vec<u64>,
}

impl RegSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        RegSet::default()
    }

    /// Number of 64-bit words that cover every register of `func`.
    #[must_use]
    pub fn words_for(func: &Function) -> usize {
        let vregs = func
            .vreg_count(RegClass::Int)
            .max(func.vreg_count(RegClass::Float)) as usize;
        (2 * (Reg::NUM_PHYS as usize + vregs)).div_ceil(64)
    }

    /// An empty set with room for every register of `func`.
    #[must_use]
    pub fn for_function(func: &Function) -> Self {
        RegSet {
            words: vec![0; Self::words_for(func)],
        }
    }

    /// `true` if `r` is in the set.
    #[must_use]
    pub fn contains(&self, r: Reg) -> bool {
        let i = r.dense();
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds `r`; returns `true` if it was not already present.
    pub fn insert(&mut self, r: Reg) -> bool {
        let i = r.dense();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let fresh = self.words[i / 64] & bit == 0;
        self.words[i / 64] |= bit;
        fresh
    }

    /// Number of registers in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The registers in the set, in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Reg::from_dense(k * 64 + b)
                })
            })
        })
    }
}

impl PartialEq for RegSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for RegSet {}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut s = RegSet::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_iter() {
        let a = Reg::virt(RegClass::Float, 70);
        let b = Reg::phys(RegClass::Int, 3);
        let mut s = RegSet::new();
        assert!(s.is_empty() && !s.contains(a));
        assert!(s.insert(a) && !s.insert(a));
        s.insert(b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![b, a]);
        assert!(
            !s.contains(Reg::virt(RegClass::Int, 70))
                && !s.contains(Reg::virt(RegClass::Float, 999))
        );
    }

    #[test]
    fn equality_ignores_capacity() {
        let r = Reg::virt(RegClass::Int, 1);
        let mut f = Function::new("t");
        for _ in 0..200 {
            f.new_reg(RegClass::Int);
        }
        let mut big = RegSet::for_function(&f);
        assert_eq!(big, RegSet::new());
        big.insert(r);
        assert_eq!(big, [r].into_iter().collect::<RegSet>());
        assert_ne!(big, RegSet::new());
    }
}
