//! A growable bit set over small indices — the dispatch indexes (which
//! resources hold queued work, which nodes can take a task). A search or
//! count over a range reads one word per 64 indices, so a sweep over a
//! thousand nodes touches 16 words.

#[derive(Debug, Default, Clone)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// Set bit `i` to `on`, growing the set as needed.
    pub(crate) fn set(&mut self, i: usize, on: bool) {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            if !on {
                return;
            }
            self.words.resize(w + 1, 0);
        }
        if on {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Is bit `i` set?
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Word `w` restricted to the bits of `from..to`.
    fn masked(&self, w: usize, from: usize, to: usize) -> u64 {
        let mut word = self.words.get(w).copied().unwrap_or(0);
        if w == from / 64 {
            word &= !0 << (from % 64);
        }
        if w == to / 64 {
            word &= (1 << (to % 64)) - 1;
        }
        word
    }

    /// The first set bit in `from..to`.
    pub(crate) fn next(&self, from: usize, to: usize) -> Option<usize> {
        let last = to.min(self.words.len() * 64);
        if from >= last {
            return None;
        }
        (from / 64..=(last - 1) / 64).find_map(|w| {
            let word = self.masked(w, from, last);
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// Set bits in `from..to`.
    pub(crate) fn count(&self, from: usize, to: usize) -> u64 {
        let last = to.min(self.words.len() * 64);
        if from >= last {
            return 0;
        }
        (from / 64..=(last - 1) / 64).map(|w| self.masked(w, from, last).count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_and_count_respect_range_ends_across_words() {
        let mut b = Bits::default();
        for i in [3, 63, 64, 130, 191] {
            b.set(i, true);
        }
        assert_eq!(b.next(0, 200), Some(3));
        assert_eq!(b.next(4, 200), Some(63));
        assert_eq!(b.next(65, 130), None, "the end is exclusive");
        assert_eq!(b.next(65, 131), Some(130));
        assert_eq!(b.next(192, 1000), None);
        assert_eq!(b.count(0, 1000), 5);
        assert_eq!(b.count(63, 65), 2);
        assert_eq!(b.count(64, 64), 0);
        b.set(64, false);
        b.set(5000, false);
        assert_eq!(b.count(0, 192), 4);
        assert_eq!(b.next(64, 192), Some(130));
    }
}
