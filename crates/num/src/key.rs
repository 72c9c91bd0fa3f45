//! Canonical keys: a 128-bit FNV-1a stream over the raw bits of a value's
//! fields.
//!
//! A result memo keys a job by everything that decides its answer. A text
//! rendering such as `{:?}` spells every field out as well, but formats a
//! decimal number per float; streaming the bits themselves costs one
//! multiply per byte. Every [`KeyBits`] impl in the workspace destructures
//! its type without `..`, so a field added to a keyed type fails to
//! compile until it is hashed too. Sequences and strings are
//! length-prefixed and enum variants tagged, so two values whose fields
//! break at different places never stream the same bytes.
//!
//! ```
//! use qits_num::key::key_of;
//! use qits_num::Cplx;
//!
//! let a = key_of(&vec![Cplx::ONE, Cplx::I]);
//! assert_eq!(a, key_of(&vec![Cplx::ONE, Cplx::I]));
//! assert_ne!(a, key_of(&vec![Cplx::I, Cplx::ONE]));
//! // Floats key by their bits: 0.0 and -0.0 are different keys.
//! assert_ne!(key_of(&0.0f64), key_of(&-0.0f64));
//! ```

use crate::Cplx;

/// A 128-bit FNV-1a hasher. Not cryptographic — a memo is a cache, not a
/// security boundary — but 128 bits make an accidental collision across a
/// fleet's lifetime implausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// Folds raw bytes in, one multiply each. No length prefix: callers
    /// that stream a variable-length field prefix it themselves (the
    /// [`KeyBits`] impls of `str` and slices do).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The key of everything written so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// A value that streams every field that identifies it into a [`Fnv128`].
pub trait KeyBits {
    /// Writes the raw bits of every field, in declaration order.
    fn key_bits(&self, h: &mut Fnv128);
}

/// The key of one value.
pub fn key_of<T: KeyBits + ?Sized>(value: &T) -> u128 {
    let mut h = Fnv128::new();
    value.key_bits(&mut h);
    h.finish()
}

macro_rules! key_bits_le {
    ($($t:ty),*) => {$(
        impl KeyBits for $t {
            #[inline]
            fn key_bits(&self, h: &mut Fnv128) {
                h.write(&self.to_le_bytes());
            }
        }
    )*};
}

key_bits_le!(u8, u32, u64, u128);

impl KeyBits for usize {
    /// As a `u64`, so a key does not depend on the platform's word size.
    fn key_bits(&self, h: &mut Fnv128) {
        (*self as u64).key_bits(h);
    }
}

impl KeyBits for bool {
    fn key_bits(&self, h: &mut Fnv128) {
        u8::from(*self).key_bits(h);
    }
}

impl KeyBits for f64 {
    /// The IEEE-754 bits: two floats key equal exactly when they are
    /// bit-identical.
    fn key_bits(&self, h: &mut Fnv128) {
        self.to_bits().key_bits(h);
    }
}

impl KeyBits for str {
    fn key_bits(&self, h: &mut Fnv128) {
        self.len().key_bits(h);
        h.write(self.as_bytes());
    }
}

impl KeyBits for String {
    fn key_bits(&self, h: &mut Fnv128) {
        self.as_str().key_bits(h);
    }
}

impl<T: KeyBits> KeyBits for [T] {
    fn key_bits(&self, h: &mut Fnv128) {
        self.len().key_bits(h);
        for x in self {
            x.key_bits(h);
        }
    }
}

impl<T: KeyBits> KeyBits for Vec<T> {
    fn key_bits(&self, h: &mut Fnv128) {
        self.as_slice().key_bits(h);
    }
}

impl<T: KeyBits> KeyBits for Option<T> {
    fn key_bits(&self, h: &mut Fnv128) {
        match self {
            None => 0u8.key_bits(h),
            Some(x) => {
                1u8.key_bits(h);
                x.key_bits(h);
            }
        }
    }
}

impl<A: KeyBits, B: KeyBits> KeyBits for (A, B) {
    fn key_bits(&self, h: &mut Fnv128) {
        self.0.key_bits(h);
        self.1.key_bits(h);
    }
}

impl KeyBits for Cplx {
    fn key_bits(&self, h: &mut Fnv128) {
        let Cplx { re, im } = self;
        re.key_bits(h);
        im.key_bits(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    #[test]
    fn length_prefixes_keep_field_boundaries() {
        let ab_c = key_of(&("ab".to_string(), "c".to_string()));
        let a_bc = key_of(&("a".to_string(), "bc".to_string()));
        assert_ne!(ab_c, a_bc);
        assert_ne!(key_of(&vec![1u8, 2]), key_of(&(vec![1u8], vec![2u8])));
        assert_ne!(key_of(&None::<u8>), key_of(&Some(0u8)));
        assert_eq!(ab_c, key_of(&("ab".to_string(), "c".to_string())));
    }

    #[test]
    fn every_matrix_entry_and_the_dimension_reach_the_key() {
        let base = Mat::identity(2);
        let mut bumped = base.clone();
        bumped[(1, 0)] = Cplx::new(0.0, f64::MIN_POSITIVE);
        assert_ne!(key_of(&base), key_of(&bumped));
        assert_ne!(key_of(&Mat::zeros(2)), key_of(&Mat::zeros(4)));
        assert_eq!(key_of(&base), key_of(&Mat::identity(2)));
    }

    #[test]
    fn the_empty_stream_is_the_fnv_offset_basis() {
        assert_eq!(Fnv128::new().finish(), Fnv128::OFFSET);
        let mut h = Fnv128::new();
        h.write(b"");
        assert_eq!(h.finish(), Fnv128::OFFSET);
    }
}
