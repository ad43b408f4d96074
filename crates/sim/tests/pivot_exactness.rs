//! The LU ranks pivots by |z|² and tests multipliers for exact zero instead
//! of calling `hypot`; these properties pin that it still makes every
//! decision the `hypot` rule makes, bit for bit.
//!
//! * [`Complex::abs_exceeds`] and [`Scalar::is_zero`] agree with `hypot` on
//!   near-ties (a few ulps apart, swapped or negated parts), subnormals,
//!   squares that overflow (|z| > 1e154) or underflow, NaN and infinities.
//! * The LU, on random complex systems whose columns hold engineered
//!   near-ties, produces the same bits and the same `SingularMatrix { pivot }`
//!   as the `hypot`-ranked routine it replaced, kept below as a test-only
//!   reference.

use ayb_sim::linalg::{solve_in_place, Complex, DenseMatrix, Scalar};
use ayb_sim::SimError;
use proptest::prelude::*;

/// SplitMix64: a case's values all derive from the one seed proptest draws.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A float with the given biased-exponent range and a random sign and
    /// mantissa.
    fn float_in(&mut self, exponents: std::ops::Range<u64>) -> f64 {
        let bits = self.next();
        let exponent = exponents.start + bits % (exponents.end - exponents.start);
        f64::from_bits((bits & (1 << 63)) | (exponent << 52) | (self.next() & ((1 << 52) - 1)))
    }

    /// One component from a mix of ordinary, extreme and special values.
    fn component(&mut self) -> f64 {
        match self.below(10) {
            // Ordinary magnitudes, ~1e-18 ..= ~1e18.
            0..=3 => self.float_in(963..1083),
            // Squares underflow: ~1e-308 ..= ~1e-155.
            4 => self.float_in(1..509),
            // Subnormal.
            5 => f64::from_bits((self.next() & (1 << 63)) | (self.next() & ((1 << 52) - 1))),
            // Squares overflow: |x| > ~1e154.
            6 => self.float_in(1536..2047),
            7 => [0.0, -0.0][self.below(2) as usize],
            8 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize],
            // Any bit pattern at all.
            _ => f64::from_bits(self.next()),
        }
    }

    fn complex(&mut self) -> Complex {
        Complex::new(self.component(), self.component())
    }

    /// `x` moved by up to three ulps either way.
    fn nudge(&mut self, x: f64) -> f64 {
        let steps = self.below(7) as i64 - 3;
        if !x.is_finite() || x == 0.0 {
            return x;
        }
        f64::from_bits((x.to_bits() as i64 + steps) as u64)
    }

    /// A value whose magnitude ties or nearly ties `z`'s.
    fn near_tie(&mut self, z: Complex) -> Complex {
        match self.below(7) {
            0 => z,
            1 => Complex::new(z.im, z.re),
            2 => Complex::new(-z.re, z.im),
            3 => Complex::new(-z.im, -z.re),
            4 => Complex::new(self.nudge(z.re), self.nudge(z.im)),
            5 => Complex::new(self.nudge(z.im), z.re),
            _ => z * (1.0 + (self.below(2001) as f64 - 1000.0) * 1e-16),
        }
    }
}

fn hypot_exceeds(a: Complex, b: Complex) -> bool {
    a.abs() > b.abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The pivot comparison gives `hypot`'s answer on independent pairs and
    /// on near-tied pairs, in both argument orders.
    #[test]
    fn abs_exceeds_agrees_with_hypot(seed in 0u64..u64::MAX) {
        let mut mix = Mix(seed);
        let a = mix.complex();
        let b = if mix.below(2) == 0 { mix.near_tie(a) } else { mix.complex() };
        prop_assert!(
            a.abs_exceeds(a.norm_sqr(), b, b.norm_sqr()) == hypot_exceeds(a, b),
            "a = {:?}, b = {:?}", a, b
        );
        prop_assert!(
            b.abs_exceeds(b.norm_sqr(), a, a.norm_sqr()) == hypot_exceeds(b, a),
            "a = {:?}, b = {:?}", a, b
        );
        prop_assert_eq!(
            a.norm_exceeds(a.magnitude_key(), b, b.magnitude_key()),
            hypot_exceeds(a, b)
        );
    }

    /// The zero test gives `hypot(re, im) == 0` on every kind of value.
    #[test]
    fn is_zero_agrees_with_hypot(seed in 0u64..u64::MAX) {
        let mut mix = Mix(seed);
        let z = mix.complex();
        prop_assert!(z.is_zero() == (z.abs() == 0.0), "z = {:?}", z);
        prop_assert_eq!(z.re.is_zero(), z.re.abs() == 0.0);
    }
}

#[test]
fn abs_exceeds_handles_the_named_edge_cases() {
    let tiny = f64::from_bits(1);
    let big = 1e300;
    let cases = [
        (Complex::ZERO, Complex::ZERO),
        (Complex::new(-0.0, 0.0), Complex::new(0.0, -0.0)),
        (Complex::new(tiny, 0.0), Complex::ZERO),
        (Complex::new(tiny, tiny), Complex::new(0.0, tiny)),
        (Complex::new(big, big), Complex::new(big, -big)),
        (Complex::new(big, 1.0), Complex::new(1.0, big)),
        (Complex::new(f64::NAN, 1.0), Complex::ONE),
        (Complex::new(f64::NAN, f64::INFINITY), Complex::ONE),
        (
            Complex::new(f64::INFINITY, 0.0),
            Complex::new(0.0, f64::NEG_INFINITY),
        ),
        (Complex::ONE, Complex::new(f64::NAN, 0.0)),
        (Complex::ZERO, Complex::new(f64::NAN, 0.0)),
        (Complex::new(3.0, 4.0), Complex::new(4.0, 3.0)),
        (Complex::new(3.0, 4.0), Complex::new(5.0, 0.0)),
    ];
    for (a, b) in cases {
        for (x, y) in [(a, b), (b, a)] {
            assert_eq!(
                x.abs_exceeds(x.norm_sqr(), y, y.norm_sqr()),
                hypot_exceeds(x, y),
                "{x:?} vs {y:?}"
            );
        }
    }
}

/// The dense LU as it ranked pivots before: one `hypot` per candidate and
/// per multiplier, true complex division per row.
fn reference_dense(a: &mut DenseMatrix<Complex>, b: &mut [Complex]) -> Result<(), usize> {
    let n = a.rows();
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_norm = a[(k, k)].abs();
        for i in (k + 1)..n {
            let norm = a[(i, k)].abs();
            if norm > pivot_norm {
                pivot_norm = norm;
                pivot_row = i;
            }
        }
        if pivot_norm < 1e-300 || !pivot_norm.is_finite() {
            return Err(k);
        }
        if pivot_row != k {
            a.swap_rows(k, pivot_row);
            b.swap(k, pivot_row);
        }
        let pivot = a[(k, k)];
        for i in (k + 1)..n {
            let factor = a[(i, k)] / pivot;
            if factor.abs() == 0.0 {
                continue;
            }
            a[(i, k)] = factor;
            for j in (k + 1)..n {
                let akj = a[(k, j)];
                a[(i, j)] -= factor * akj;
            }
            b[i] -= factor * b[k];
        }
    }
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= a[(i, j)] * b[j];
        }
        b[i] = acc / a[(i, i)];
    }
    Ok(())
}

/// A random `n × n` complex system: each column draws a few anchor values
/// and fills its other entries with exact zeros, near-ties of an anchor,
/// fresh values, or (rarely) tiny, huge or non-finite ones, so pivot
/// searches meet ties and every fallback path.
fn near_tie_system(mix: &mut Mix, n: usize) -> (Vec<Vec<Complex>>, Vec<Complex>) {
    let ordinary = |mix: &mut Mix| {
        Complex::new(
            mix.float_in(1013..1033) * if mix.below(4) == 0 { 0.0 } else { 1.0 },
            mix.float_in(1013..1033),
        )
    };
    let mut a = vec![vec![Complex::ZERO; n]; n];
    for j in 0..n {
        let anchors: Vec<Complex> = (0..1 + mix.below(3)).map(|_| ordinary(mix)).collect();
        for row in a.iter_mut() {
            row[j] = match mix.below(20) {
                0..=5 => Complex::ZERO,
                6..=13 => {
                    let anchor = anchors[mix.below(anchors.len() as u64) as usize];
                    mix.near_tie(anchor)
                }
                14..=18 => ordinary(mix),
                _ => mix.complex(),
            };
        }
    }
    let b = (0..n).map(|_| ordinary(mix)).collect();
    (a, b)
}

fn bits(values: &[Complex]) -> Vec<(u64, u64)> {
    values
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn singular_pivot(result: ayb_sim::Result<()>) -> Result<(), usize> {
    result.map_err(|e| match e {
        SimError::SingularMatrix { pivot, .. } => pivot,
        other => panic!("unexpected error {other}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// The dense LU leaves the same factors and solution bits, or fails at
    /// the same pivot, as the `hypot`-ranked reference.
    #[test]
    fn dense_lu_matches_the_hypot_reference(seed in 0u64..u64::MAX, n in 1usize..13) {
        let mut mix = Mix(seed);
        let (rows, b) = near_tie_system(&mut mix, n);
        let mut a_new = DenseMatrix::from_rows(rows.clone());
        let mut a_ref = DenseMatrix::from_rows(rows);
        let (mut x_new, mut x_ref) = (b.clone(), b);
        let new = singular_pivot(solve_in_place(&mut a_new, &mut x_new));
        let reference = reference_dense(&mut a_ref, &mut x_ref);
        prop_assert_eq!(new, reference);
        prop_assert_eq!(bits(&x_new), bits(&x_ref));
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(a_new[(i, j)].re.to_bits(), a_ref[(i, j)].re.to_bits());
                prop_assert_eq!(a_new[(i, j)].im.to_bits(), a_ref[(i, j)].im.to_bits());
            }
        }
    }
}
