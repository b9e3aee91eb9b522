//! Dictionary codes at the narrowest width their dictionary fits.
//!
//! Every code column — a [`crate::Table`] column in the global code space, a
//! spilled column's packed local codes ([`crate::RawColumn`]) — is one
//! [`Codes`]: `u8` codes for up to 256 distinct values, `u16` for up to
//! 65 536, `u32` beyond. The census columns have 2–13 values, so a table of
//! them holds one byte per cell instead of four.
//!
//! A width never changes a code's value, only how many bytes hold it, so
//! every scan reads the same code sequence at any width. Loops that touch
//! every row dispatch on the width once per column ([`with_codes!`]) and
//! run one monomorphised loop per width over a plain slice of [`Code`]s.

use crate::RowId;
use std::ops::Range;

/// One code width: `u8`, `u16` or `u32`.
pub trait Code: Copy + Ord + Default + Into<u32> + Send + Sync + 'static {
    /// `code` at this width; the caller guarantees it fits.
    fn narrow(code: u32) -> Self;

    /// The code widened to `u32`.
    #[inline]
    fn wide(self) -> u32 {
        self.into()
    }

    /// The code as an index into a per-code array.
    #[inline]
    fn idx(self) -> usize {
        Into::<u32>::into(self) as usize
    }
}

impl Code for u8 {
    #[inline]
    fn narrow(code: u32) -> Self {
        debug_assert!(code <= u32::from(u8::MAX));
        code as u8
    }
}

impl Code for u16 {
    #[inline]
    fn narrow(code: u32) -> Self {
        debug_assert!(code <= u32::from(u16::MAX));
        code as u16
    }
}

impl Code for u32 {
    #[inline]
    fn narrow(code: u32) -> Self {
        code
    }
}

/// Binds `$v` to the vector inside a [`Codes`] and evaluates `$body` once
/// per width: a generic function called in `$body` is monomorphised for
/// `u8`, `u16` and `u32`, and the width is matched once, not per row.
///
/// ```
/// use sdd_table::{with_codes, Code, Codes};
/// fn sum<T: Code>(codes: &[T]) -> u64 {
///     codes.iter().map(|&c| u64::from(c.into())).sum()
/// }
/// let codes = Codes::W1(vec![1, 2, 3]);
/// assert_eq!(with_codes!(&codes, v => sum(v)), 6);
/// ```
#[macro_export]
macro_rules! with_codes {
    ($codes:expr, $v:ident => $body:expr) => {
        match $codes {
            $crate::Codes::W1($v) => $body,
            $crate::Codes::W2($v) => $body,
            $crate::Codes::W4($v) => $body,
        }
    };
}

/// A column of dictionary codes, one per row, at one of three widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codes {
    /// At most 256 distinct values: one byte per row.
    W1(Vec<u8>),
    /// At most 65 536 distinct values: two bytes per row.
    W2(Vec<u16>),
    /// Anything larger: four bytes per row.
    W4(Vec<u32>),
}

impl Codes {
    /// The narrowest byte width (1, 2 or 4) whose codes can name
    /// `cardinality` distinct values.
    pub fn width_for(cardinality: usize) -> usize {
        if cardinality <= 1 << 8 {
            1
        } else if cardinality <= 1 << 16 {
            2
        } else {
            4
        }
    }

    /// An empty column at the narrowest width for `cardinality` values.
    pub fn for_cardinality(cardinality: usize) -> Codes {
        Codes::with_capacity(cardinality, 0)
    }

    /// An empty column at the narrowest width for `cardinality` values,
    /// with room for `rows` codes.
    pub(crate) fn with_capacity(cardinality: usize, rows: usize) -> Codes {
        match Codes::width_for(cardinality) {
            1 => Codes::W1(Vec::with_capacity(rows)),
            2 => Codes::W2(Vec::with_capacity(rows)),
            _ => Codes::W4(Vec::with_capacity(rows)),
        }
    }

    /// `codes` at the narrowest width for `cardinality` values (every code
    /// must be below it).
    pub(crate) fn from_u32(cardinality: usize, codes: &[u32]) -> Codes {
        let mut out = Codes::with_capacity(cardinality, codes.len());
        with_codes!(&mut out, dst => convert_into(dst, codes));
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_codes!(self, v => v.len())
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte width (1, 2, or 4).
    pub fn width(&self) -> usize {
        match self {
            Codes::W1(_) => 1,
            Codes::W2(_) => 2,
            Codes::W4(_) => 4,
        }
    }

    /// The code at row `i`, widened to `u32`. Panics if out of range.
    #[inline]
    pub fn at(&self, i: usize) -> u32 {
        with_codes!(self, v => v[i].wide())
    }

    /// Every code in row order as a `u32` vector.
    pub fn to_u32_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        with_codes!(self, v => convert_into(&mut out, v));
        out
    }

    /// A copy of rows `range`, at this column's width. Panics if out of
    /// range.
    pub fn slice(&self, range: Range<usize>) -> Codes {
        match self {
            Codes::W1(v) => Codes::W1(v[range].to_vec()),
            Codes::W2(v) => Codes::W2(v[range].to_vec()),
            Codes::W4(v) => Codes::W4(v[range].to_vec()),
        }
    }

    /// The largest code (0 when empty), as a `fold` the compiler
    /// vectorizes — an early-exit `any` scan does not.
    pub(crate) fn max(&self) -> u32 {
        with_codes!(self, v => v.iter().fold(0, |m, &c| m.max(c)).wide())
    }

    /// Appends `code`, first widening the column (once, O(rows)) when the
    /// code does not fit its width — the moment its dictionary outgrows it.
    #[inline]
    pub(crate) fn push(&mut self, code: u32) {
        match self {
            Codes::W1(v) if code <= u32::from(u8::MAX) => v.push(code as u8),
            Codes::W2(v) if code <= u32::from(u16::MAX) => v.push(code as u16),
            Codes::W4(v) => v.push(code),
            _ => {
                self.fit(code as usize + 1);
                self.push(code);
            }
        }
    }

    /// Widens the column, in O(rows), to the narrowest width that fits
    /// `cardinality` values; a column already that wide is left as it is.
    /// Capacity is kept, so a reserved column stays reserved.
    pub(crate) fn fit(&mut self, cardinality: usize) {
        self.widen_to(Codes::width_for(cardinality));
    }

    /// Widens the column, in O(rows), to at least `width` bytes per code.
    fn widen_to(&mut self, width: usize) {
        if width <= self.width() {
            return;
        }
        let rows = with_codes!(&*self, v => v.capacity());
        let mut wide = match width {
            2 => Codes::W2(Vec::with_capacity(rows)),
            _ => Codes::W4(Vec::with_capacity(rows)),
        };
        with_codes!(&mut wide, dst => with_codes!(&*self, src => convert_into(dst, src)));
        *self = wide;
    }

    /// Reserves room for exactly `additional` more codes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        with_codes!(self, v => v.reserve_exact(additional));
    }

    /// Appends rows `range` of `src`, widening first if `src` is wider.
    pub(crate) fn extend_from(&mut self, src: &Codes, range: Range<usize>) {
        self.widen_to(src.width());
        with_codes!(self, dst => with_codes!(src, s => convert_into(dst, &s[range])));
    }

    /// Appends `src[r]` for every `r` of `rows`, in order, widening first if
    /// `src` is wider.
    pub(crate) fn extend_gather(&mut self, src: &Codes, rows: &[RowId]) {
        self.widen_to(src.width());
        with_codes!(self, dst => with_codes!(src, s => gather_into(dst, s, rows)));
    }

    /// Removes the first `n` rows and returns them, at this column's width.
    /// Taking every row of a column whose buffer holds exactly its rows
    /// moves that buffer out and leaves an empty column at the same width;
    /// any other split copies the rows into a buffer of exactly `n`.
    pub(crate) fn split_front(&mut self, n: usize) -> Codes {
        fn split<T>(v: &mut Vec<T>, n: usize) -> Vec<T> {
            if n == v.len() && n == v.capacity() {
                std::mem::take(v)
            } else {
                v.drain(..n).collect()
            }
        }
        match self {
            Codes::W1(v) => Codes::W1(split(v, n)),
            Codes::W2(v) => Codes::W2(split(v, n)),
            Codes::W4(v) => Codes::W4(split(v, n)),
        }
    }
}

/// Appends `src` to `dst`, converting each code to `dst`'s width (the caller
/// guarantees every code fits).
fn convert_into<S: Code, D: Code>(dst: &mut Vec<D>, src: &[S]) {
    dst.extend(src.iter().map(|&c| D::narrow(c.wide())));
}

/// Appends `src[r]` for every `r` of `rows` to `dst`, converting each code
/// to `dst`'s width.
fn gather_into<S: Code, D: Code>(dst: &mut Vec<D>, src: &[S], rows: &[RowId]) {
    dst.extend(rows.iter().map(|&r| D::narrow(src[r as usize].wide())));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_boundaries() {
        assert_eq!(Codes::width_for(0), 1);
        assert_eq!(Codes::width_for(256), 1);
        assert_eq!(Codes::width_for(257), 2);
        assert_eq!(Codes::width_for(65_536), 2);
        assert_eq!(Codes::width_for(65_537), 4);
    }

    #[test]
    fn push_widens_once_and_keeps_values() {
        let mut c = Codes::for_cardinality(0);
        for code in 0..300u32 {
            c.push(code);
        }
        assert_eq!(c.width(), 2);
        assert_eq!(c.to_u32_vec(), (0..300).collect::<Vec<_>>());
        c.push(70_000);
        assert_eq!(c.width(), 4);
        assert_eq!(c.at(300), 70_000);
        assert_eq!(c.at(299), 299);
    }

    #[test]
    fn extend_and_gather_convert_widths() {
        let wide = Codes::W2(vec![1, 300, 2]);
        let mut narrow = Codes::W1(vec![7]);
        narrow.extend_from(&wide, 0..3);
        assert_eq!(narrow, Codes::W2(vec![7, 1, 300, 2]));
        let mut w4 = Codes::W4(Vec::new());
        w4.extend_gather(&Codes::W1(vec![5, 6, 7]), &[2, 0]);
        assert_eq!(w4, Codes::W4(vec![7, 5]));
        assert_eq!(w4.slice(1..2), Codes::W4(vec![5]));
        let mut c = Codes::W1(vec![1, 2, 3]);
        assert_eq!(c.split_front(2), Codes::W1(vec![1, 2]));
        assert_eq!(c, Codes::W1(vec![3]));
    }

    #[test]
    fn split_front_of_every_row_moves_an_exactly_sized_buffer() {
        let mut c = Codes::W2(Vec::with_capacity(3));
        c.extend_from(&Codes::W2(vec![4, 300, 5]), 0..3);
        let Codes::W2(before) = &c else {
            panic!("width changed")
        };
        let buffer = before.as_ptr();
        let taken = c.split_front(3);
        let Codes::W2(after) = &taken else {
            panic!("width changed")
        };
        assert_eq!(after.as_ptr(), buffer, "the buffer was copied, not moved");
        assert_eq!(taken, Codes::W2(vec![4, 300, 5]));
        assert_eq!(c, Codes::W2(Vec::new()));
        // A buffer with room to spare is copied into one of exactly the
        // rows taken, so a split never hands out spare capacity.
        let mut roomy = Codes::W1(Vec::with_capacity(8));
        roomy.push(1);
        let Codes::W1(copied) = roomy.split_front(1) else {
            panic!("width changed")
        };
        assert_eq!((copied.capacity(), copied), (1, vec![1]));
        assert_eq!(roomy, Codes::W1(Vec::new()));
    }
}
