//! Word addresses.

use std::fmt;

/// A word-granular memory address.
///
/// The paper fixes the cache line size at one word (changing it "would
/// require redesign of \[the\] processor memory interface"), so the unit of
/// identity throughout this workspace is the word address. Use
/// [`Trace::block_aligned`](crate::Trace::block_aligned) to coarsen a trace to
/// multi-word lines before analysis if desired.
///
/// # Examples
///
/// ```
/// use cachedse_trace::Address;
///
/// let a = Address::new(0b1011);
/// assert_eq!(a.bit(0), true);
/// assert_eq!(a.bit(2), false);
/// assert_eq!(format!("{a:x}"), "b");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(u32);

impl Address {
    /// Creates an address from its raw word number.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw word number.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Value of address bit `i` (bit 0 is the least significant).
    ///
    /// These are the `B_i` of the paper's zero/one sets (Table 3).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    #[must_use]
    pub const fn bit(self, i: u32) -> bool {
        assert!(i < 32, "address bit index out of range");
        (self.0 >> i) & 1 == 1
    }

    /// The address shifted right by `line_bits`, i.e. the block number for a
    /// line of `2^line_bits` words. A line of `2^32` words or more holds the
    /// whole address space, so every address is in block 0.
    #[must_use]
    pub const fn block(self, line_bits: u32) -> Self {
        match self.0.checked_shr(line_bits) {
            Some(block) => Self(block),
            None => Self(0),
        }
    }

    /// Number of significant bits (at least 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_trace::Address;
    /// assert_eq!(Address::new(0).bits(), 1);
    /// assert_eq!(Address::new(0b1011).bits(), 4);
    /// ```
    #[must_use]
    pub const fn bits(self) -> u32 {
        if self.0 == 0 {
            1
        } else {
            32 - self.0.leading_zeros()
        }
    }
}

impl From<u32> for Address {
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

impl From<Address> for u32 {
    fn from(a: Address) -> Self {
        a.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_extraction() {
        let a = Address::new(0b1011);
        assert!(a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(31));
    }

    #[test]
    #[should_panic(expected = "address bit index out of range")]
    fn bit_out_of_range_panics() {
        let _ = Address::new(1).bit(32);
    }

    #[test]
    fn block_truncates_low_bits() {
        assert_eq!(Address::new(0b1011).block(2), Address::new(0b10));
        assert_eq!(Address::new(7).block(0), Address::new(7));
    }

    #[test]
    fn lines_of_the_whole_address_space_are_block_zero() {
        assert_eq!(Address::new(u32::MAX).block(31), Address::new(1));
        for line_bits in [32, 40, u32::MAX] {
            assert_eq!(Address::new(u32::MAX).block(line_bits), Address::new(0));
        }
    }

    #[test]
    fn significant_bits() {
        assert_eq!(Address::new(0).bits(), 1);
        assert_eq!(Address::new(1).bits(), 1);
        assert_eq!(Address::new(2).bits(), 2);
        assert_eq!(Address::new(u32::MAX).bits(), 32);
    }

    #[test]
    fn conversions_and_formatting() {
        let a: Address = 0xAB_u32.into();
        assert_eq!(u32::from(a), 0xAB);
        assert_eq!(a.to_string(), "0xab");
        assert_eq!(format!("{a:X}"), "AB");
        assert_eq!(format!("{a:b}"), "10101011");
        assert_eq!(format!("{a:o}"), "253");
    }
}
