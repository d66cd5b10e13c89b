//! Arithmetic over the Mersenne prime field GF(2⁶¹ − 1).
//!
//! Degree-(d−1) polynomials with uniform coefficients over a prime field are
//! the textbook d-wise independent hash family (cf. Vadhan, *Pseudorandomness*,
//! Cor. 3.34 — the construction the paper cites as Lemma 5.2). The Mersenne
//! prime p = 2⁶¹ − 1 admits branch-light modular reduction: one field
//! multiplication is a 64×64→128-bit product plus a shift, an add and two
//! conditional subtractions. Such decisions cost no probes, but they are
//! not free in time. A d-wise hash evaluation is about d multiply-adds, and
//! at the k2-spanner's d = 28 it costs about 55 ns on a 2-vCPU x86-64 host
//! (about 190 ns as a single Horner chain of [`mul_mod`]/[`add_mod`]; see
//! [`crate::KWiseHash::hash`]). A k2 query makes about 140 of them.

/// The Mersenne prime p = 2⁶¹ − 1 used as the hash field modulus.
pub const MERSENNE_PRIME_61: u64 = (1u64 << 61) - 1;

const P: u64 = MERSENNE_PRIME_61;

/// Reduces a 122-bit product into `[0, p)` for p = 2⁶¹ − 1.
#[inline]
fn reduce128(x: u128) -> u64 {
    // x = hi * 2^61 + lo, and 2^61 ≡ 1 (mod p).
    let lo = (x as u64) & P;
    let hi = (x >> 61) as u64;
    let mut s = lo + hi; // < 2^62, no overflow
    if s >= P {
        s -= P;
    }
    if s >= P {
        s -= P;
    }
    s
}

/// Adds two field elements. Inputs must be `< p`.
#[inline]
pub fn add_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let s = a + b; // < 2^62
    if s >= P {
        s - P
    } else {
        s
    }
}

/// Multiplies two field elements. Inputs must be `< p`.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    reduce128(a as u128 * b as u128)
}

/// Exclusive upper bound of a *lazy* field element: a representative of
/// its residue in `[0, p + 3)`, reduced by [`canonical`].
const LAZY_BOUND: u64 = P + 3;

/// Computes a lazy representative of `a·b + c`. Inputs must be below
/// [`LAZY_BOUND`]. Two Mersenne folds replace the conditional subtractions
/// of [`mul_mod`]: `a·b + c` is at most `2¹²² + 3·2⁶¹ + 2`, the first fold
/// leaves at most `2⁶² + 2`, and the second a lazy representative.
#[inline]
pub(crate) fn mul_add_lazy(a: u64, b: u64, c: u64) -> u64 {
    debug_assert!(a < LAZY_BOUND && b < LAZY_BOUND && c < LAZY_BOUND);
    let x = a as u128 * b as u128 + c as u128;
    fold((x as u64 & P) + (x >> 61) as u64)
}

/// Adds two lazy representatives into a lazy representative.
#[inline]
pub(crate) fn add_lazy(a: u64, b: u64) -> u64 {
    debug_assert!(a < LAZY_BOUND && b < LAZY_BOUND);
    fold(a + b)
}

/// One Mersenne fold, `s ≡ (s mod 2⁶¹) + ⌊s / 2⁶¹⌋ (mod p)`. For
/// `s ≤ 2⁶² + 2` the result is below [`LAZY_BOUND`].
#[inline]
fn fold(s: u64) -> u64 {
    (s & P) + (s >> 61)
}

/// The canonical field element of a lazy representative.
#[inline]
pub(crate) fn canonical(a: u64) -> u64 {
    debug_assert!(a < LAZY_BOUND);
    if a >= P {
        a - P
    } else {
        a
    }
}

/// Computes `a^e mod p` by square-and-multiply.
pub fn pow_mod(mut a: u64, mut e: u64) -> u64 {
    debug_assert!(a < P);
    let mut acc = 1u64;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, a);
        }
        a = mul_mod(a, a);
        e >>= 1;
    }
    acc
}

/// Maps an arbitrary `u64` into the field by reduction mod p.
#[inline]
pub(crate) fn into_field(x: u64) -> u64 {
    // Two conditional subtractions suffice: x < 2^64 < 8p + something small;
    // use the Mersenne identity on the 3 high bits instead.
    let lo = x & P;
    let hi = x >> 61; // < 8
    let mut s = lo + hi;
    if s >= P {
        s -= P;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(MERSENNE_PRIME_61, 2305843009213693951);
        // p is prime: spot-check with Fermat's little theorem for several bases.
        for a in [2u64, 3, 5, 7, 11, 1234567891011] {
            assert_eq!(pow_mod(a % P, P - 1), 1, "fermat failed for {a}");
        }
    }

    #[test]
    fn add_wraps_correctly() {
        assert_eq!(add_mod(P - 1, 1), 0);
        assert_eq!(add_mod(P - 1, 2), 1);
        assert_eq!(add_mod(0, 0), 0);
        assert_eq!(add_mod(5, 7), 12);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut s = crate::SplitMix64::new(314);
        for _ in 0..10_000 {
            let a = s.next_u64() % P;
            let b = s.next_u64() % P;
            let want = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(mul_mod(a, b), want);
        }
    }

    #[test]
    fn mul_edge_cases() {
        assert_eq!(mul_mod(P - 1, P - 1), 1); // (-1)^2 = 1
        assert_eq!(mul_mod(0, P - 1), 0);
        assert_eq!(mul_mod(1, P - 1), P - 1);
    }

    #[test]
    fn lazy_ops_match_u128_reference() {
        // Inputs span the whole lazy range, including its top values.
        let top = [0, 1, P - 1, P, P + 1, LAZY_BOUND - 1];
        let mut s = crate::SplitMix64::new(271);
        let mut inputs: Vec<u64> = top.to_vec();
        inputs.extend((0..200).map(|_| s.next_u64() % LAZY_BOUND));
        let modp = |x: u128| (x % P as u128) as u64;
        for &a in &inputs {
            for &b in &inputs {
                let c = inputs[(a ^ b) as usize % inputs.len()];
                let got = mul_add_lazy(a, b, c);
                assert!(got < LAZY_BOUND, "{a} * {b} + {c} -> {got}");
                assert_eq!(canonical(got), modp(a as u128 * b as u128 + c as u128));
                let sum = add_lazy(a, b);
                assert!(sum < LAZY_BOUND);
                assert_eq!(canonical(sum), modp(a as u128 + b as u128));
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = 123456789u64;
        let mut acc = 1u64;
        for e in 0..32u64 {
            assert_eq!(pow_mod(a, e), acc);
            acc = mul_mod(acc, a);
        }
    }

    #[test]
    fn into_field_is_in_range_and_preserves_small_values() {
        assert_eq!(into_field(12345), 12345);
        assert_eq!(into_field(P), 0);
        assert_eq!(into_field(P + 5), 5);
        assert!(into_field(u64::MAX) < P);
        // Reference: plain remainder.
        let mut s = crate::SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = s.next_u64();
            assert_eq!(into_field(x), x % P);
        }
    }
}
