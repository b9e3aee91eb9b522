use rustc_hash::FxHashMap;

/// A per-column dictionary interning string values to dense `u32` codes.
///
/// Codes are assigned in first-seen order starting at `0`. The smart
/// drill-down algorithms operate exclusively on codes; strings are only
/// touched at ingest and display time.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Box<str>>,
    index: FxHashMap<Box<str>, u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its code (allocating a new one if unseen).
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = u32::try_from(self.values.len())
            .expect("dictionary overflow: > u32::MAX distinct values");
        let boxed: Box<str> = value.into();
        self.values.push(boxed.clone());
        self.index.insert(boxed, code);
        code
    }

    /// Returns the code for `value` if it has been interned.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
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
        for v in self.values.drain(len.min(self.values.len())..) {
            self.index.remove(&v);
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
