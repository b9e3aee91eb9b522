/// A per-column dictionary interning string values to dense `u32` codes.
///
/// Codes are assigned in first-seen order starting at `0`. The smart
/// drill-down algorithms operate exclusively on codes; strings are only
/// touched at ingest and display time.
///
/// The index is one open-addressing table beside `values`, at most half
/// full and probed linearly. A slot holds a value's key and code, so a
/// value of at most 16 bytes is found without reading `values`, and a
/// longer one is then compared with its candidate there.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Box<str>>,
    /// A power-of-two number of `(key, code)` slots, [`FREE`] for none;
    /// empty while `values` is.
    slots: Vec<(Key, u32)>,
}

/// Two words and the length of a value. The words hold all of its bytes
/// when it is at most [`SHORT`] bytes long, so two such values are equal
/// exactly when their keys are: its first and last 8 (or 4, or 1) bytes,
/// which overlap rather than pad. A longer value keeps its first and last 8.
type Key = [u64; 3];

/// The longest value a [`Key`] holds whole.
const SHORT: usize = 16;

/// The code of a free slot.
const FREE: u32 = u32::MAX;

/// The [`Key`] of `value`.
fn key(value: &[u8]) -> Key {
    let n = value.len();
    let (len, byte) = (n as u64, |i: usize| u64::from(value[i]));
    match n {
        0 => [0; 3],
        1..=3 => [byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16, 0, len],
        4..=7 => [le::<4>(value, 0) | le::<4>(value, n - 4) << 32, 0, len],
        _ => [le::<8>(value, 0), le::<8>(value, n - 8), len],
    }
}

/// The little-endian number of the `N` bytes of `value` at `at`.
fn le<const N: usize>(value: &[u8], at: usize) -> u64 {
    let bytes: [u8; N] = value[at..at + N].try_into().expect("N bytes");
    bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b))
}

/// The hash of `value`, whose key is `key`: the key's for a short value,
/// every byte's for a longer one.
fn hash(key: &Key, value: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (key[0] ^ key[1].rotate_left(32) ^ key[2] << 56).wrapping_mul(K);
    if value.len() <= SHORT {
        return h;
    }
    let mix = |h: u64, w: u64| (h.rotate_left(26) ^ w).wrapping_mul(K);
    let (words, tail) = value.as_chunks::<8>();
    let h = words.iter().fold(h, |h, w| mix(h, u64::from_le_bytes(*w)));
    tail.iter().fold(h, |h, &b| mix(h, u64::from(b)))
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its code (allocating a new one if unseen).
    #[inline]
    pub fn intern(&mut self, value: &str) -> u32 {
        if 2 * (self.values.len() + 1) > self.slots.len() {
            self.reindex(2 * self.slots.len().max(8));
        }
        let (at, key) = match self.find(value) {
            Ok(code) => return code,
            Err(free) => free,
        };
        let code = u32::try_from(self.values.len())
            .ok()
            .filter(|&code| code != FREE)
            .expect("dictionary overflow: >= u32::MAX distinct values");
        self.values.push(value.into());
        self.slots[at] = (key, code);
        code
    }

    /// The code of `value`, or the free slot it would take and its key. The
    /// probe starts at the hash's top bits, which every bit of the key moves.
    #[inline]
    fn find(&self, value: &str) -> Result<u32, (usize, Key)> {
        let key = key(value.as_bytes());
        if self.slots.is_empty() {
            return Err((0, key));
        }
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut at = (hash(&key, value.as_bytes()) >> shift) as usize;
        loop {
            let (k, code) = self.slots[at];
            if code == FREE {
                return Err((at, key));
            }
            if k == key && (value.len() <= SHORT || *self.values[code as usize] == *value) {
                return Ok(code);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// Rebuilds the index over `values` as `n_slots` slots.
    fn reindex(&mut self, n_slots: usize) {
        self.slots = vec![([0; 3], FREE); n_slots];
        for (code, value) in (0..).zip(&self.values) {
            if let Err((at, key)) = self.find(value) {
                self.slots[at] = (key, code);
            }
        }
    }

    /// Returns the code for `value` if it has been interned.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.find(value).ok()
    }

    /// Returns the string for `code`, or `None` if out of range.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(|s| &**s)
    }

    /// Number of distinct values interned. This is the `|c|` of the paper's
    /// Bits weighting function.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Discards every code `>= len`, restoring the dictionary to an earlier
    /// intern point. Supports the live-table append rollback: a failed
    /// append must not leak interned values (and thus column cardinality)
    /// into later snapshots, or a from-scratch rebuild of the same rows
    /// would diverge from the grown table.
    pub fn truncate(&mut self, len: usize) {
        if len < self.values.len() {
            self.values.truncate(len);
            self.reindex(self.slots.len());
        }
    }

    /// Iterates `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, &**v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_codes_in_first_seen_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("c"), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn lookup_roundtrips() {
        let mut d = Dictionary::new();
        let code = d.intern("Walmart");
        assert_eq!(d.value_of(code), Some("Walmart"));
        assert_eq!(d.code_of("Walmart"), Some(code));
        assert_eq!(d.code_of("Target"), None);
        assert_eq!(d.value_of(99), None);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.value_of(0), None);
    }

    #[test]
    fn iter_yields_code_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    /// Codes match a first-appearance reference map over a seeded stream of
    /// values 0–40 bytes long drawn mostly from `a`, so that many share
    /// their first and last 8 bytes and differ only in length or in the
    /// middle; `truncate` forgets exactly the codes it drops, and a clone
    /// answers like its source.
    #[test]
    fn codes_match_a_first_appearance_map() {
        use std::collections::BTreeMap;
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut stream: Vec<String> = ["", "\0", "a", "a\0"].map(String::from).to_vec();
            for _ in 0..3_000 {
                let len = (next() % 41) as usize;
                let value = (0..len)
                    .map(|_| match next() % 16 {
                        0 => '\0',
                        1 => 'b',
                        _ => 'a',
                    })
                    .collect();
                stream.push(value);
            }
            let mut d = Dictionary::new();
            let mut reference: BTreeMap<&str, u32> = BTreeMap::new();
            for v in &stream {
                let fresh = reference.len() as u32;
                let want = *reference.entry(v).or_insert(fresh);
                assert_eq!(d.intern(v), want, "seed {seed}: {v:?}");
            }
            assert_eq!(d.len(), reference.len());
            for (&v, &code) in &reference {
                assert_eq!(d.code_of(v), Some(code), "seed {seed}: {v:?}");
                assert_eq!(d.value_of(code), Some(v));
            }
            let copy = d.clone();
            let keep = d.len() / 2;
            d.truncate(keep);
            for (&v, &code) in &reference {
                let kept = (code as usize) < keep;
                assert_eq!(d.code_of(v), kept.then_some(code), "seed {seed}: {v:?}");
                assert_eq!(copy.code_of(v), Some(code));
            }
            for v in &stream {
                assert_eq!(
                    d.intern(v),
                    reference[v.as_str()],
                    "seed {seed}: re-intern {v:?}"
                );
            }
        }
    }

    #[test]
    fn distinguishes_similar_strings() {
        let mut d = Dictionary::new();
        let a = d.intern("10");
        let b = d.intern("10 ");
        let c = d.intern("010");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
