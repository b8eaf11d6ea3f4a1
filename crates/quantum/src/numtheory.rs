//! Classical number theory supporting Shor's algorithm.
//!
//! Order finding needs modular exponentiation and continued-fraction
//! rationalization; the end-to-end factoring comparison needs a classical
//! baseline (trial division) with a cost count.
//!
//! # Example
//!
//! ```
//! use quantum::numtheory;
//!
//! assert_eq!(numtheory::gcd(48, 18), 6);
//! assert_eq!(numtheory::mod_pow(7, 4, 15), 1); // order of 7 mod 15 is 4
//! ```

/// Greatest common divisor (Euclid).
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

/// Modular exponentiation `base^exp mod modulus` (square-and-multiply).
///
/// # Panics
///
/// Panics when `modulus == 0`.
#[must_use]
pub fn mod_pow(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    assert!(modulus != 0, "modulus must be nonzero");
    if modulus == 1 {
        return 0;
    }
    let mut result: u64 = 1;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    result
}

/// Deterministic primality by trial division (fine for the ≤ 2⁶⁴ range we
/// factor here is overkill — inputs are ≤ a few thousand).
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n % 2 == 0 {
        return n == 2;
    }
    let mut d = 3u64;
    while d * d <= n {
        if n % d == 0 {
            return false;
        }
        d += 2;
    }
    true
}

/// Whether `n = b^k` for some integers `b ≥ 2, k ≥ 2` (Shor's classical
/// pre-check).
#[must_use]
pub fn is_perfect_power(n: u64) -> bool {
    if n < 4 {
        return false;
    }
    for k in 2..=n.ilog2() {
        let b = (n as f64).powf(1.0 / k as f64).round() as u64;
        for cand in b.saturating_sub(1)..=b + 1 {
            if cand >= 2 && cand.checked_pow(k) == Some(n) {
                return true;
            }
        }
    }
    false
}

/// Trial-division factorization baseline. Returns a nontrivial factor and
/// the number of division operations performed (the classical cost measure
/// for the Shor comparison).
#[must_use]
pub fn trial_division(n: u64) -> (Option<u64>, u64) {
    let mut ops = 0u64;
    if n < 4 {
        return (None, ops);
    }
    ops += 1;
    if n % 2 == 0 {
        return (Some(2), ops);
    }
    let mut d = 3u64;
    while d * d <= n {
        ops += 1;
        if n % d == 0 {
            return (Some(d), ops);
        }
        d += 2;
    }
    (None, ops)
}

/// One step of a continued-fraction expansion of `num/den`; the convergents
/// `p/q` are the rational approximations Shor uses to recover the order
/// from a measured phase.
///
/// Returns the convergents `(p, q)` of `num/den` with `q <= q_max`.
#[must_use]
pub fn convergents(mut num: u64, mut den: u64, q_max: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    // p_{-1} = 1, p_0 = a0; standard recurrence.
    let (mut p_prev, mut q_prev) = (1u64, 0u64);
    let (mut p_curr, mut q_curr);
    if den == 0 {
        return out;
    }
    let a0 = num / den;
    p_curr = a0;
    q_curr = 1;
    out.push((p_curr, q_curr));
    let mut rem = num % den;
    num = den;
    den = rem;
    while den != 0 {
        let a = num / den;
        rem = num % den;
        let p_next = a * p_curr + p_prev;
        let q_next = a * q_curr + q_prev;
        if q_next > q_max {
            break;
        }
        out.push((p_next, q_next));
        p_prev = p_curr;
        q_prev = q_curr;
        p_curr = p_next;
        q_curr = q_next;
        num = den;
        den = rem;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn mod_pow_matches_naive() {
        for base in 1..10u64 {
            for exp in 0..8u64 {
                let naive = (0..exp).fold(1u64, |acc, _| acc * base % 1009);
                assert_eq!(mod_pow(base, exp, 1009), naive);
            }
        }
        assert_eq!(mod_pow(5, 100, 1), 0);
    }

    #[test]
    fn primality() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 101];
        for p in primes {
            assert!(is_prime(p), "{p}");
        }
        for c in [0u64, 1, 4, 9, 15, 21, 91, 1001] {
            assert!(!is_prime(c), "{c}");
        }
    }

    #[test]
    fn perfect_powers() {
        for p in [4u64, 8, 9, 16, 27, 32, 121, 125] {
            assert!(is_perfect_power(p), "{p}");
        }
        for n in [2u64, 3, 6, 15, 21, 35, 143] {
            assert!(!is_perfect_power(n), "{n}");
        }
    }

    #[test]
    fn trial_division_finds_factor_and_counts() {
        let (f, ops) = trial_division(15);
        assert_eq!(f, Some(3));
        assert!(ops >= 1);
        let (f, _) = trial_division(143);
        assert_eq!(f, Some(11));
        let (f, _) = trial_division(13);
        assert_eq!(f, None);
    }

    #[test]
    fn trial_division_cost_grows_for_semiprimes() {
        let (_, small) = trial_division(15);
        let (_, big) = trial_division(101 * 103);
        assert!(big > small);
    }

    #[test]
    fn convergents_of_phase() {
        // 85/256 ≈ 1/3 → the convergent (1, 3) must appear.
        let cs = convergents(85, 256, 20);
        assert!(cs.contains(&(1, 3)), "{cs:?}");
        // 192/256 = 3/4.
        let cs = convergents(192, 256, 20);
        assert!(cs.contains(&(3, 4)), "{cs:?}");
    }

    #[test]
    fn convergents_respect_q_max() {
        let cs = convergents(355, 113, 1);
        // Only the integer part convergent (q = 1) fits.
        assert!(cs.iter().all(|&(_, q)| q <= 1));
        assert!(!cs.is_empty());
    }

    #[test]
    fn convergents_zero_denominator() {
        assert!(convergents(5, 0, 10).is_empty());
    }
}
