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
//! Every result is reduced by [`gcd`], Stein's binary algorithm. Reductions
//! of `u64` task ticks have both magnitudes below 2^64, and so do those of
//! the sums and products the analyses form over `fedsched-gen`'s
//! grid-rounded periods; there the loop runs on `u64` registers. Once a
//! sum's lcm denominator or a product passes 2^64, as arbitrary client
//! ticks can make it, the same loop runs on `u128`. Both loops compute the
//! same value, so which one ran never changes a result.
//!
//! # Overflow
//!
//! Comparisons are exact for *all* representable rationals (cross products
//! are evaluated in 256 bits), and addition uses least-common-multiple
//! denominators to keep intermediates small. Arithmetic whose result
//! genuinely exceeds `i128` panics in debug builds but wraps silently in
//! release builds, which do not enable `overflow-checks`; task parameters
//! in this workspace are `u64` ticks and generated periods are
//! grid-rounded (see `fedsched-gen`), which keeps every quantity the
//! analyses sum far inside that range.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// An exact rational number `num / den`, always reduced, `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
        // through a full 256-bit multiply instead of trusting i128.
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => a.cmp(&b),
            (0, 0) => Ordering::Equal,
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
