//! Exact rational arithmetic for utilizations, densities and speedup factors.
//!
//! Schedulability tests must not be subject to floating-point rounding: a task
//! with density exactly 1 is *high-density* in the paper's classification, and
//! a partitioning test that admits a task due to a `1e-16` error is unsound.
//! [`Rational`] is a minimal exact fraction over `i128`, always stored in
//! lowest terms with a positive denominator.
//!
//! # Examples
//!
//! ```
//! use fedsched_dag::rational::Rational;
//!
//! let density = Rational::new(9, 16); // paper Example 1: δ₁ = 9/16
//! assert!(density < Rational::ONE);
//! assert_eq!(density + Rational::new(7, 16), Rational::ONE);
//! assert_eq!(density.to_f64(), 0.5625);
//! ```
//!
//! # Reduction
//!
//! Every result is in lowest terms with a positive denominator. That form
//! is unique, so which of the two paths below computed a result never
//! changes it.
//!
//! - **64-bit path.** [`Rational::new`] with both magnitudes below 2^64
//!   divides by their gcd in `u64`. `+` and `×` with all four operand
//!   magnitudes below 2^63 use Knuth's rules (TAOCP vol. 2, §4.5.1) for
//!   reduced operands `a/b` and `c/d`:
//!   - `×` cross-reduces by `g₁ = gcd(a, d)` and `g₂ = gcd(c, b)`, and
//!     `(a/g₁)(c/g₂) / ((b/g₂)(d/g₁))` is then already reduced;
//!   - `+` returns `(ad + cb)/(bd)` as it is when `g = gcd(b, d)` is 1, and
//!     otherwise reduces `t = a(d/g) + c(b/g)` over `(b/g)·d` by
//!     `gcd(t mod g, g)` alone.
//!
//!   Comparison with all four magnitudes below 2^64 compares two `u128`
//!   cross products. Every gcd on this path is Stein's binary loop on `u64`
//!   registers. Task ticks are `u64`, and the sums and products the
//!   analyses form over `fedsched-gen`'s grid-rounded periods stay on it.
//! - **`i128` path.** Past those bounds, as arbitrary client ticks can
//!   go, `new` divides by [`gcd`] in `i128`, `+` adds over the lcm of the
//!   denominators and `×` cross-reduces, both then reduced again by `new`,
//!   and comparison multiplies in 256 bits. [`gcd`] itself still runs its
//!   loop on `u64` while both magnitudes fit.
//!
//! Knuth's rules hold only for reduced operands with positive
//! denominators. The fields are private and every constructor returns the
//! reduced form, so every `Rational` is one.
//!
//! # Overflow
//!
//! The 64-bit path cannot overflow. `new` divides values below 2^64, and
//! comparison multiplies two of them, which stays below 2^128 in `u128`.
//! `+` and `×` take magnitudes below 2^63: each product of two stays below
//! 2^126 and a sum of two such products below 2^127, inside `i128`.
//!
//! Comparisons are exact for *all* representable rationals. The `i128`
//! path is unchanged: arithmetic whose result genuinely exceeds `i128`
//! panics in debug builds but wraps silently in release builds, which do
//! not enable `overflow-checks` (ROADMAP.md, "Exact arithmetic that cannot
//! wrap"). Task parameters in this workspace are `u64` ticks and generated
//! periods are grid-rounded (see `fedsched-gen`), which keeps every
//! quantity the analyses sum far inside that range.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::time::Duration;

/// An exact rational number `num / den`, always reduced, `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// The greatest common divisor of `|a|` and `|b|` (`gcd(0, 0) = 0`).
///
/// Stein's binary algorithm on the unsigned magnitudes: shifts and
/// subtractions only, where Euclid's `%` costs a 128-bit division per
/// step. When both magnitudes are below 2^64, as every reduction of `u64`
/// task ticks is until a sum's lcm denominator outgrows them, the loop
/// runs on `u64` registers; wider operands take the same loop on `u128`.
/// The one magnitude `i128` cannot hold back, `gcd(i128::MIN, 0) =
/// gcd(i128::MIN, i128::MIN) = 2^127`, wraps to `i128::MIN`.
#[must_use]
pub const fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    // A unit operand, as multiplying by an integer gives, would otherwise
    // cost one loop pass per bit of the other.
    if a == 0 || b == 1 {
        return b as i128;
    }
    if b == 0 || a == 1 {
        return a as i128;
    }
    if (a | b) >> 64 == 0 {
        return gcd_u64(a as u64, b as u64) as i128;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        // `a` is odd here; strip `b`'s factors of two and subtract the
        // smaller odd value from the larger.
        b >>= b.trailing_zeros();
        if a > b {
            let t = a;
            a = b;
            b = t;
        }
        b -= a;
        if b == 0 {
            return (a << shift) as i128;
        }
    }
}

/// [`gcd`]'s loop on `u64` magnitudes, both nonzero.
const fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            let t = a;
            a = b;
            b = t;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// [`gcd`] on `u64` magnitudes: its zero and unit shortcuts, then
/// [`gcd_u64`]'s loop. The 64-bit paths call this rather than [`gcd`],
/// whose `i128` sign handling and width test made each Fig. 4 `fits`
/// call about 10 % slower.
const fn gcd_narrow(a: u64, b: u64) -> u64 {
    if a == 0 || b == 1 {
        return b;
    }
    if b == 0 || a == 1 {
        return a;
    }
    gcd_u64(a, b)
}

/// The bitwise or of the four magnitudes of `x` and `y`: below `2^k`
/// exactly when each of them is. A denominator is read as its bits, so a
/// negative one, which only a wrap past `i128` leaves, reads as at least
/// 2^127 and keeps the operation on the `i128` path.
const fn magnitudes(x: Rational, y: Rational) -> u128 {
    x.num.unsigned_abs() | x.den as u128 | y.num.unsigned_abs() | y.den as u128
}

/// `m` with the sign that `negative` asks for.
const fn signed(m: i128, negative: bool) -> i128 {
    if negative {
        -m
    } else {
        m
    }
}

impl Rational {
    /// Exactly zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// Exactly one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub const fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        if (n | d) >> 64 == 0 {
            let (n, d) = (n as u64, d as u64);
            // gcd(0, d) = d, so 0/den normalizes to 0/1 here too.
            let g = gcd_narrow(n, d);
            return Rational {
                num: signed((n / g) as i128, (num < 0) != (den < 0)),
                den: (d / g) as i128,
            };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        // gcd(0, den) = |den|, so 0/den normalizes to 0/1.
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The ratio of two durations, `num / den`.
    ///
    /// This is the form used for utilization (`vol / T`) and density
    /// (`vol / min(D, T)`).
    ///
    /// # Panics
    ///
    /// Panics if `den` is the zero duration.
    #[must_use]
    pub fn ratio(num: Duration, den: Duration) -> Rational {
        Rational::new(num.ticks() as i128, den.ticks() as i128)
    }

    /// Creates the integer rational `n / 1`.
    #[must_use]
    pub const fn from_integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The numerator of the reduced form (sign lives here).
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the reduced form (always positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Converts to the nearest `f64`. For *reporting only* — never used in
    /// admission decisions.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `⌈self⌉` as an integer.
    ///
    /// ```
    /// use fedsched_dag::rational::Rational;
    /// assert_eq!(Rational::new(9, 4).ceil(), 3);
    /// assert_eq!(Rational::new(8, 4).ceil(), 2);
    /// assert_eq!(Rational::new(-9, 4).ceil(), -2);
    /// ```
    #[must_use]
    pub const fn ceil(self) -> i128 {
        self.num.div_euclid(self.den)
            + if self.num.rem_euclid(self.den) != 0 {
                1
            } else {
                0
            }
    }

    /// `⌊self⌋` as an integer.
    #[must_use]
    pub const fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Returns `true` if `self < 0`.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if `self == 0`.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// The reciprocal `1 / self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub const fn recip(self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        let sign = if self.num < 0 { -1 } else { 1 };
        Rational {
            num: sign * self.den,
            den: sign * self.num,
        }
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full 128×128 → 256-bit unsigned multiplication, returned as (hi, lo).
const fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (ll & MASK) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves
        // order. The products can exceed i128 for rationals with large
        // reduced denominators (e.g. long sums of utilizations), so compare
        // through a full 256-bit multiply instead of trusting i128, unless
        // all four magnitudes are below 2^64 and each product fits `u128`.
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => a.cmp(&b),
            (0, 0) => Ordering::Equal,
            (sign, _) if magnitudes(*self, *other) >> 64 == 0 => {
                let lhs = self.num.unsigned_abs() * other.den as u128;
                let rhs = other.num.unsigned_abs() * self.den as u128;
                if sign > 0 {
                    lhs.cmp(&rhs)
                } else {
                    rhs.cmp(&lhs)
                }
            }
            (sign, _) => {
                let lhs = wide_mul(self.num.unsigned_abs(), other.den.unsigned_abs());
                let rhs = wide_mul(other.num.unsigned_abs(), self.den.unsigned_abs());
                if sign > 0 {
                    lhs.cmp(&rhs)
                } else {
                    rhs.cmp(&lhs)
                }
            }
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if magnitudes(self, rhs) >> 63 == 0 {
            // Knuth, TAOCP vol. 2, §4.5.1: with g = gcd(b, d), a/b + c/d
            // has the reduced form (ad + cb)/(bd) when g = 1, and otherwise
            // t = a(d/g) + c(b/g) shares with bd/g only factors of g.
            let (b, d) = (self.den as u64, rhs.den as u64);
            let g = gcd_narrow(b, d);
            if g == 1 {
                return Rational {
                    num: self.num * d as i128 + rhs.num * b as i128,
                    den: b as i128 * d as i128,
                };
            }
            let t = self.num * (d / g) as i128 + rhs.num * (b / g) as i128;
            let g2 = gcd_narrow((t.unsigned_abs() % g as u128) as u64, g);
            return Rational {
                num: signed((t.unsigned_abs() / g2 as u128) as i128, t < 0),
                den: (b / g) as i128 * (d / g2) as i128,
            };
        }
        // Least-common-multiple addition keeps intermediates as small as
        // possible (important when summing many task utilizations).
        let g = gcd(self.den, rhs.den);
        let scale_l = rhs.den / g;
        let scale_r = self.den / g;
        Rational::new(self.num * scale_l + rhs.num * scale_r, self.den * scale_l)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        if magnitudes(self, rhs) >> 63 == 0 {
            // Both operands are reduced, so once cross-reduced the product
            // is too (Knuth, TAOCP vol. 2, §4.5.1): no final gcd.
            let (a, b) = (self.num.unsigned_abs() as u64, self.den as u64);
            let (c, d) = (rhs.num.unsigned_abs() as u64, rhs.den as u64);
            let (g1, g2) = (gcd_narrow(a, d), gcd_narrow(c, b));
            return Rational {
                num: signed(
                    ((a / g1) as u128 * (c / g2) as u128) as i128,
                    (self.num < 0) != (rhs.num < 0),
                ),
                den: ((b / g2) as u128 * (d / g1) as u128) as i128,
            };
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rational::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_integer(n)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert!(Rational::new(-1, 2).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
        // Knuth's shortcuts: a sum over a shared denominator reduces by
        // gcd(t mod g, g), and cross-reduced factors leave nothing to
        // reduce.
        let sixth = Rational::new(1, 6);
        assert_eq!(sixth + sixth, Rational::new(1, 3));
        assert_eq!(-sixth + sixth, Rational::ZERO);
        assert_eq!(Rational::new(2, 3) * Rational::new(3, 4), a);
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
        assert_eq!(
            Rational::new(1, 3).max(Rational::new(1, 2)),
            Rational::new(1, 2)
        );
        assert_eq!(
            Rational::new(1, 3).min(Rational::new(1, 2)),
            Rational::new(1, 3)
        );
    }

    #[test]
    fn ceil_floor() {
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
        assert_eq!(Rational::from_integer(5).floor(), 5);
    }

    #[test]
    fn ratio_of_durations() {
        // Paper Example 1: vol = 9, min(D, T) = 16 ⇒ δ = 9/16.
        let r = Rational::ratio(Duration::new(9), Duration::new(16));
        assert_eq!(r, Rational::new(9, 16));
        assert!(r < Rational::ONE);
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn sum_and_display() {
        let s: Rational = [
            Rational::new(1, 4),
            Rational::new(1, 4),
            Rational::new(1, 2),
        ]
        .iter()
        .sum();
        assert_eq!(s, Rational::ONE);
        assert_eq!(Rational::new(9, 16).to_string(), "9/16");
        assert_eq!(Rational::from_integer(3).to_string(), "3");
    }

    #[test]
    fn comparison_survives_huge_denominators() {
        // Cross products here exceed i128 by far; the 256-bit comparison
        // must still get the order right.
        let n: i128 = 10i128.pow(37);
        let a = Rational::new(n + 1, n); // 1 + 1/n
        let b = Rational::new(n, n - 1); // 1 + 1/(n-1)
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
        // Negative side mirrors.
        assert!(-b < -a);
    }

    #[test]
    fn lcm_addition_keeps_denominators_small() {
        // Summing k copies of 1/(2^40) must keep den = 2^40, not (2^40)^k.
        let step = Rational::new(1, 1 << 40);
        let mut acc = Rational::ZERO;
        for _ in 0..100 {
            acc += step;
        }
        assert_eq!(acc, Rational::new(100, 1 << 40));
        assert_eq!(acc.denom(), (1i128 << 40) / gcd(100, 1 << 40));
    }

    #[test]
    fn f64_is_reporting_only_but_accurate_here() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(-1, 4).to_f64(), -0.25);
    }
}
