//! Parsing and formatting for [`Natural`]: hexadecimal and decimal.

use std::fmt;
use std::str::FromStr;

use crate::natural::Natural;
use crate::ParseNaturalError;

impl Natural {
    /// Parses a natural from a hexadecimal string (no `0x` prefix,
    /// case-insensitive, underscores allowed as separators).
    ///
    /// ```
    /// # use leakaudit_mpi::Natural;
    /// let v = Natural::from_hex("dead_beef").unwrap();
    /// assert_eq!(v, Natural::from(0xdead_beefu32));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseNaturalError`] if the string is empty or contains a
    /// non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseNaturalError> {
        // Every byte left after validation is an ASCII hex digit or `_`,
        // so the second pass walks bytes from the least significant end
        // and fills each limb from its eight digits.
        let mut digits = 0usize;
        for c in s.chars().filter(|&c| c != '_') {
            if !c.is_ascii_hexdigit() {
                return Err(ParseNaturalError::invalid_digit(c));
            }
            digits += 1;
        }
        if digits == 0 {
            return Err(ParseNaturalError::empty());
        }
        let mut limbs = Vec::with_capacity(digits.div_ceil(8));
        let (mut limb, mut shift) = (0u32, 0);
        for b in s.bytes().rev().filter(|&b| b != b'_') {
            let d = char::from(b).to_digit(16).expect("validated hex digit");
            limb |= d << shift;
            shift += 4;
            if shift == 32 {
                limbs.push(limb);
                (limb, shift) = (0, 0);
            }
        }
        if shift > 0 {
            limbs.push(limb);
        }
        Ok(Natural::from_limbs(limbs))
    }

    /// Formats the value as lowercase hexadecimal without a prefix.
    ///
    /// ```
    /// # use leakaudit_mpi::Natural;
    /// assert_eq!(Natural::from(255u32).to_hex(), "ff");
    /// assert_eq!(Natural::zero().to_hex(), "0");
    /// ```
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        self.write_hex(&mut s);
        s
    }

    /// Appends the [`Natural::to_hex`] spelling to `out`: the top limb
    /// without leading zeros, every lower limb as eight digits.
    ///
    /// ```
    /// # use leakaudit_mpi::Natural;
    /// let mut out = String::from("0x");
    /// Natural::from(1u64 << 32).write_hex(&mut out);
    /// assert_eq!(out, "0x100000000");
    /// ```
    pub fn write_hex(&self, out: &mut String) {
        let Some((&top, rest)) = self.limbs.split_last() else {
            out.push('0');
            return;
        };
        let top_digits = (32 - top.leading_zeros() as usize).div_ceil(4);
        out.reserve(top_digits + 8 * rest.len());
        push_hex_digits(out, top, top_digits);
        for &limb in rest.iter().rev() {
            push_hex_digits(out, limb, 8);
        }
    }

    /// Formats the value in decimal.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let chunk = Natural::from(1_000_000_000u32);
        let mut v = self.clone();
        let mut groups: Vec<u32> = Vec::new();
        while !v.is_zero() {
            let (q, r) = v.div_rem(&chunk);
            groups.push(r.to_u64().unwrap_or(0) as u32);
            v = q;
        }
        let mut s = groups.last().unwrap().to_string();
        for g in groups.iter().rev().skip(1) {
            s.push_str(&format!("{g:09}"));
        }
        s
    }
}

/// Appends the low `digits` hex digits of `limb`, most significant first.
fn push_hex_digits(out: &mut String, limb: u32, digits: usize) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for i in (0..digits).rev() {
        out.push(char::from(HEX[(limb >> (4 * i)) as usize & 0xf]));
    }
}

impl FromStr for Natural {
    type Err = ParseNaturalError;

    /// Parses a decimal string (underscores allowed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits: Vec<char> = s.chars().filter(|&c| c != '_').collect();
        if digits.is_empty() {
            return Err(ParseNaturalError::empty());
        }
        let ten = Natural::from(10u32);
        let mut out = Natural::zero();
        for &c in &digits {
            let d = c
                .to_digit(10)
                .ok_or_else(|| ParseNaturalError::invalid_digit(c))?;
            out = (&out * &ten).add_ref(&Natural::from(d));
        }
        Ok(out)
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal())
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Natural({})", self.to_decimal())
    }
}

impl fmt::LowerHex for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex())
    }
}

impl fmt::Binary for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let mut s = String::with_capacity(self.bit_len());
        for i in (0..self.bit_len()).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The digit-at-a-time parser `from_hex` replaced, kept as the
    /// oracle of what it must accept and reject.
    fn from_hex_oracle(s: &str) -> Result<Natural, ParseNaturalError> {
        let digits: Vec<char> = s.chars().filter(|&c| c != '_').collect();
        if digits.is_empty() {
            return Err(ParseNaturalError::empty());
        }
        let mut out = Natural::zero();
        for &c in &digits {
            let d = c
                .to_digit(16)
                .ok_or_else(|| ParseNaturalError::invalid_digit(c))?;
            out = out.shl_bits(4).add_ref(&Natural::from(d));
        }
        Ok(out)
    }

    /// The one-`format!`-per-limb spelling `write_hex` replaced.
    fn to_hex_oracle(n: &Natural) -> String {
        if n.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in n.limbs().iter().enumerate().rev() {
            if i == n.limbs().len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Strings over `[0-9a-fA-F_]`, long enough to span many limbs,
    /// with an invalid character spliced in about half the time.
    fn hex_like() -> impl Strategy<Value = String> {
        let valid: Vec<char> = "0123456789abcdefABCDEF_".chars().collect();
        let invalid = vec!['g', 'G', 'x', ' ', '-', '+', '.', '\n', 'é', '٣', '０'];
        (
            proptest::collection::vec(proptest::sample::select(valid), 0..300),
            proptest::option::of((any::<usize>(), proptest::sample::select(invalid))),
        )
            .prop_map(|(chars, bad)| {
                let mut chars = chars;
                if let Some((at, c)) = bad {
                    chars.insert(at % (chars.len() + 1), c);
                }
                chars.into_iter().collect()
            })
    }

    /// Naturals of up to 4,096 bits, rich in zero and all-ones limbs.
    fn natural() -> impl Strategy<Value = Natural> {
        proptest::collection::vec(
            prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            0..129,
        )
        .prop_map(Natural::from_limbs)
    }

    proptest! {
        #[test]
        fn from_hex_matches_the_digit_at_a_time_parser(s in hex_like()) {
            prop_assert_eq!(Natural::from_hex(&s), from_hex_oracle(&s), "{:?}", s);
        }

        #[test]
        fn write_hex_appends_the_to_hex_spelling(n in natural(), prefix in 0usize..3) {
            let mut out = "_".repeat(prefix);
            n.write_hex(&mut out);
            prop_assert_eq!(&out[prefix..], to_hex_oracle(&n));
            prop_assert_eq!(&out[prefix..], n.to_hex());
            prop_assert_eq!(Natural::from_hex(&out), Ok(n));
        }
    }

    #[test]
    fn hex_edge_cases_match_the_oracles() {
        for s in [
            "",
            "_",
            "__",
            "0",
            "00000000",
            "000000000",
            "0_0",
            "_1_",
            "FfFf",
            "x",
            "_g",
            "1g",
            "g1",
            "100000000",
            "ffffffff",
            "1_00000000_00000000",
            "é",
            "12é",
        ] {
            assert_eq!(Natural::from_hex(s), from_hex_oracle(s), "{s:?}");
        }
        for n in [
            Natural::zero(),
            Natural::one(),
            Natural::from(u32::MAX),
            Natural::from(1u64 << 32),
            Natural::from(u64::MAX),
            Natural::from_limbs(vec![0, 0, 1]),
            Natural::from_limbs(vec![5, 0, 0, 0xf]),
        ] {
            assert_eq!(n.to_hex(), to_hex_oracle(&n));
        }
    }

    #[test]
    fn hex_round_trip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            assert_eq!(Natural::from_hex(s).unwrap().to_hex(), s);
        }
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "7",
            "4294967296",
            "340282366920938463463374607431768211456",
        ] {
            assert_eq!(s.parse::<Natural>().unwrap().to_string(), s);
        }
    }

    #[test]
    fn decimal_matches_hex() {
        let v: Natural = "1000000007".parse().unwrap();
        assert_eq!(v, Natural::from_hex("3b9aca07").unwrap());
    }

    #[test]
    fn parse_errors() {
        assert!(Natural::from_hex("").is_err());
        assert!(Natural::from_hex("xyz").is_err());
        assert!("12a".parse::<Natural>().is_err());
        assert!("".parse::<Natural>().is_err());
        let err = Natural::from_hex("g").unwrap_err();
        assert_eq!(err.to_string(), "invalid digit 'g'");
    }

    #[test]
    fn formatting_traits() {
        let v = Natural::from(0b1010u32);
        assert_eq!(format!("{v}"), "10");
        assert_eq!(format!("{v:x}"), "a");
        assert_eq!(format!("{v:#x}"), "0xa");
        assert_eq!(format!("{v:b}"), "1010");
        assert_eq!(format!("{v:?}"), "Natural(10)");
    }
}
