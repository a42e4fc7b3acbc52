//! Decimal rendering without `core::fmt`, for the per-entry text paths:
//! listing columns, generated file names and mtimes. `write!` costs a
//! `Formatter` round trip per argument, which dominated listing render;
//! these helpers write digits straight into the caller's buffer.

/// Appends `n` in decimal, right-aligned in at least `width` characters
/// with `fill` on the left. `fill == ' '` matches `{n:>width$}` (and
/// `{n:width$}`); `fill == '0'` matches `{n:0width$}`. A number wider
/// than `width` is written in full.
///
/// ```
/// use ftp_proto::decimal::push_u64;
///
/// let mut s = String::new();
/// push_u64(&mut s, 42, 4, '0');
/// s.push('|');
/// push_u64(&mut s, 1_048_576, 12, ' ');
/// assert_eq!(s, format!("{:04}|{:>12}", 42, 1_048_576));
/// ```
pub fn push_u64(out: &mut String, mut n: u64, width: usize, fill: char) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let len = digits.len() - start;
    for _ in len..width {
        out.push(fill);
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_core_fmt() {
        for n in [0u64, 7, 42, 999, 1_000, 123_456_789, u64::MAX] {
            for width in [0usize, 1, 2, 3, 4, 12, 20, 25] {
                let mut spaced = String::new();
                push_u64(&mut spaced, n, width, ' ');
                assert_eq!(spaced, format!("{n:>width$}"));
                let mut zeroed = String::from("x");
                push_u64(&mut zeroed, n, width, '0');
                assert_eq!(zeroed, format!("x{n:0width$}"));
            }
        }
    }
}
