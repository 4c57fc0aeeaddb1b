//! Inputs shared by the 2-D stepper kernels' differential tests.

use crate::{Field2d, Grid2d};

/// A deterministic pseudo-random value in `[-1, 1)` per `(seed, i, j)`.
pub(crate) fn noise(seed: u64, i: usize, j: usize) -> f64 {
    let mut z = seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A drift field of mixed sign with exact `0.0` and `-0.0` entries (zero
/// face speeds also arise where neighbouring drifts cancel).
pub(crate) fn mixed_drift(grid: &Grid2d, seed: u64) -> Field2d {
    let ny = grid.y().len();
    let values = (0..grid.len())
        .map(|k| match k % 5 {
            0 => 0.0,
            3 => -0.0,
            _ => 0.8 * noise(seed, k / ny, k % ny),
        })
        .collect();
    Field2d::from_values(grid.clone(), values).unwrap()
}

/// The kernels' differential-test inputs: grids from 2×2 up to the
/// default 24×48, including 2×2, 2×5, 5×2 and 3×3, where the branch-free
/// interior is empty or one cell; each with the mixed drift pair of
/// [`mixed_drift`] and with drifts that hold only `0.0` and `-0.0`.
pub(crate) fn kernel_cases(
    grid: impl Fn(usize, usize) -> Grid2d,
) -> Vec<(Grid2d, Field2d, Field2d)> {
    let dims = [(2, 2), (2, 5), (5, 2), (3, 3), (4, 4), (5, 7), (24, 48)];
    let mut cases = Vec::new();
    for (nx, ny) in dims {
        let g = grid(nx, ny);
        cases.push((g.clone(), mixed_drift(&g, 1), mixed_drift(&g, 2)));
        let signed_zeros = |parity: usize| {
            let values = (0..g.len())
                .map(|k| if (k + parity) % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            Field2d::from_values(g.clone(), values).unwrap()
        };
        cases.push((g.clone(), signed_zeros(0), signed_zeros(1)));
    }
    cases
}
