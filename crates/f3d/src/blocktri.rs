//! 5×5 block-tridiagonal systems: the implicit-sweep substrate.
//!
//! Each implicit factor of the approximate factorization couples points
//! along exactly one grid direction, producing, per pencil, a
//! block-tridiagonal system with 5×5 blocks. The Thomas algorithm here
//! is the recurrence that makes those sweeps non-parallelizable along
//! the sweep direction — the "dependencies in one direction" the whole
//! paper is about. Includes a small dense 5×5 LU for the block inverses.
//!
//! **No lane width here.** The solve is serial along the pencil and
//! within the LU; the only independent outputs are the five columns
//! (or rows) of a block product — shorter than a useful lane group,
//! and width-chunked products never measured faster than these plain
//! loops (DESIGN §6g has the numbers). [`solve_block_tridiagonal_w`]
//! keeps a width-taking signature for callers that carry one and
//! forwards to the one solve.

use mesh::NCONS;

/// A 5×5 matrix.
pub type Block = [[f64; NCONS]; NCONS];

/// A 5-vector.
pub type Vec5 = [f64; NCONS];

/// The 5×5 identity.
#[must_use]
pub fn identity() -> Block {
    let mut m = [[0.0; NCONS]; NCONS];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// `a + b`.
#[must_use]
pub fn add(a: &Block, b: &Block) -> Block {
    let mut out = *a;
    for (ro, rb) in out.iter_mut().zip(b.iter()) {
        for (o, &v) in ro.iter_mut().zip(rb.iter()) {
            *o += v;
        }
    }
    out
}

/// `a - b`.
#[must_use]
pub fn sub(a: &Block, b: &Block) -> Block {
    let mut out = *a;
    for (ro, rb) in out.iter_mut().zip(b.iter()) {
        for (o, &v) in ro.iter_mut().zip(rb.iter()) {
            *o -= v;
        }
    }
    out
}

/// `s * a`.
#[must_use]
pub fn scale(a: &Block, s: f64) -> Block {
    let mut out = *a;
    for row in &mut out {
        for v in row {
            *v *= s;
        }
    }
    out
}

/// `a * b` (matrix product).
#[must_use]
pub fn matmul(a: &Block, b: &Block) -> Block {
    let mut out = [[0.0; NCONS]; NCONS];
    for i in 0..NCONS {
        for k in 0..NCONS {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..NCONS {
                out[i][j] += aik * b[k][j];
            }
        }
    }
    out
}

/// `a * x` (matrix–vector product).
#[must_use]
pub fn matvec(a: &Block, x: &Vec5) -> Vec5 {
    let mut y = [0.0; NCONS];
    for (yi, row) in y.iter_mut().zip(a.iter()) {
        *yi = row.iter().zip(x.iter()).map(|(m, v)| m * v).sum();
    }
    y
}

/// An LU factorization of a 5×5 block with partial pivoting.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    lu: Block,
    perm: [usize; NCONS],
}

impl Lu {
    /// Factor `a`. Returns `None` if the block is numerically singular.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // pivot swaps index two rows at once
    pub fn factor(a: &Block) -> Option<Self> {
        let mut lu = *a;
        let mut perm = [0usize; NCONS];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i;
        }
        for col in 0..NCONS {
            // partial pivot
            let mut pivot_row = col;
            let mut pivot_val = lu[col][col].abs();
            for r in col + 1..NCONS {
                if lu[r][col].abs() > pivot_val {
                    pivot_val = lu[r][col].abs();
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                lu.swap(pivot_row, col);
                perm.swap(pivot_row, col);
            }
            let inv = 1.0 / lu[col][col];
            for r in col + 1..NCONS {
                let f = lu[r][col] * inv;
                lu[r][col] = f;
                for c in col + 1..NCONS {
                    lu[r][c] -= f * lu[col][c];
                }
            }
        }
        Some(Self { lu, perm })
    }

    /// Solve `A x = b`.
    #[must_use]
    pub fn solve(&self, b: &Vec5) -> Vec5 {
        // apply permutation
        let mut y = [0.0; NCONS];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = b[self.perm[i]];
        }
        // forward substitution (unit lower)
        for i in 1..NCONS {
            for j in 0..i {
                y[i] -= self.lu[i][j] * y[j];
            }
        }
        // back substitution
        for i in (0..NCONS).rev() {
            for j in i + 1..NCONS {
                y[i] -= self.lu[i][j] * y[j];
            }
            y[i] /= self.lu[i][i];
        }
        y
    }

    /// Solve `A X = B` for a block right-hand side.
    #[must_use]
    pub fn solve_block(&self, b: &Block) -> Block {
        let mut out = [[0.0; NCONS]; NCONS];
        for col in 0..NCONS {
            let mut rhs = [0.0; NCONS];
            for (r, v) in rhs.iter_mut().enumerate() {
                *v = b[r][col];
            }
            let x = self.solve(&rhs);
            for (r, &v) in x.iter().enumerate() {
                out[r][col] = v;
            }
        }
        out
    }
}

/// Scratch for a block-tridiagonal solve of length `n`: reused across
/// pencils so the tuned solver allocates once per worker (the paper's
/// cache-resident pencil scratch).
#[derive(Debug, Clone)]
pub struct BlockTriScratch {
    /// Modified upper blocks.
    cp: Vec<Block>,
    /// Modified right-hand sides.
    dp: Vec<Vec5>,
}

impl BlockTriScratch {
    /// Scratch for pencils up to `n` points long.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            cp: vec![[[0.0; NCONS]; NCONS]; n],
            dp: vec![[0.0; NCONS]; n],
        }
    }

    /// Capacity in points.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cp.len()
    }

    /// Scratch bytes (for cache-fit assertions).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.cp.len() * std::mem::size_of::<Block>() + self.dp.len() * std::mem::size_of::<Vec5>()
    }
}

/// Solve the block-tridiagonal system
/// `lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]`
/// in place: on return `rhs` holds the solution. `lower[0]` and
/// `upper[n-1]` are ignored.
///
/// This is the Thomas algorithm — a forward recurrence followed by a
/// backward recurrence, serial along the pencil by construction.
///
/// # Panics
/// Panics on length mismatches, empty systems, scratch that is too
/// small, or a singular pivot block.
pub fn solve_block_tridiagonal(
    lower: &[Block],
    diag: &[Block],
    upper: &[Block],
    rhs: &mut [Vec5],
    scratch: &mut BlockTriScratch,
) {
    let n = diag.len();
    assert!(n > 0, "empty system");
    assert_eq!(lower.len(), n, "lower length mismatch");
    assert_eq!(upper.len(), n, "upper length mismatch");
    assert_eq!(rhs.len(), n, "rhs length mismatch");
    assert!(scratch.capacity() >= n, "scratch too small");

    // Forward elimination.
    let lu0 = Lu::factor(&diag[0]).expect("singular pivot block at 0");
    scratch.cp[0] = lu0.solve_block(&upper[0]);
    scratch.dp[0] = lu0.solve(&rhs[0]);
    for i in 1..n {
        // pivot = diag[i] - lower[i] * cp[i-1]
        let pivot = sub(&diag[i], &matmul(&lower[i], &scratch.cp[i - 1]));
        let lu = Lu::factor(&pivot).unwrap_or_else(|| panic!("singular pivot block at {i}"));
        if i + 1 < n {
            scratch.cp[i] = lu.solve_block(&upper[i]);
        }
        // d'[i] = inv(pivot) (rhs[i] - lower[i] d'[i-1])
        let ld = matvec(&lower[i], &scratch.dp[i - 1]);
        let mut r = rhs[i];
        for (rv, &lv) in r.iter_mut().zip(ld.iter()) {
            *rv -= lv;
        }
        scratch.dp[i] = lu.solve(&r);
    }

    // Back substitution.
    rhs[n - 1] = scratch.dp[n - 1];
    for i in (0..n - 1).rev() {
        let cx = matvec(&scratch.cp[i], &rhs[i + 1]);
        let mut x = scratch.dp[i];
        for (xv, &cv) in x.iter_mut().zip(cx.iter()) {
            *xv -= cv;
        }
        rhs[i] = x;
    }
}

/// [`solve_block_tridiagonal`] for callers that carry a lane width:
/// the solve does not read it (see the module docs), so every width —
/// supported or not — is the same call.
///
/// # Panics
/// As [`solve_block_tridiagonal`].
pub fn solve_block_tridiagonal_w(
    lower: &[Block],
    diag: &[Block],
    upper: &[Block],
    rhs: &mut [Vec5],
    scratch: &mut BlockTriScratch,
    _width: usize,
) {
    solve_block_tridiagonal(lower, diag, upper, rhs, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_dominant_block(seed: u64, dominance: f64) -> Block {
        // deterministic pseudo-random block with a dominant diagonal
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let mut b = [[0.0; NCONS]; NCONS];
        for (i, row) in b.iter_mut().enumerate() {
            for v in row.iter_mut() {
                *v = next();
            }
            row[i] += dominance;
        }
        b
    }

    #[test]
    fn lu_solves_identity() {
        let lu = Lu::factor(&identity()).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn lu_roundtrip_random_blocks() {
        for seed in 1..20u64 {
            let a = diag_dominant_block(seed, 3.0);
            let x = [0.5, -1.0, 2.0, 0.0, 3.5];
            let b = matvec(&a, &x);
            let lu = Lu::factor(&a).expect("factorable");
            let got = lu.solve(&b);
            for i in 0..NCONS {
                assert!((got[i] - x[i]).abs() < 1e-10, "seed {seed} comp {i}");
            }
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the diagonal, still nonsingular: permutation matrix.
        let mut a = [[0.0; NCONS]; NCONS];
        for i in 0..NCONS {
            a[i][(i + 1) % NCONS] = 1.0;
        }
        let lu = Lu::factor(&a).expect("permutation is nonsingular");
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = lu.solve(&b);
        let back = matvec(&a, &x);
        for i in 0..NCONS {
            assert!((back[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_block_rejected() {
        let a = [[0.0; NCONS]; NCONS];
        assert!(Lu::factor(&a).is_none());
    }

    #[test]
    fn solve_block_right_hand_side() {
        let a = diag_dominant_block(7, 4.0);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_block(&identity());
        // A * A^-1 = I
        let prod = matmul(&a, &x);
        for (i, row) in prod.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10, "[{i}][{j}]");
            }
        }
    }

    #[test]
    fn tridiagonal_identity_system() {
        let n = 8;
        let lower = vec![[[0.0; NCONS]; NCONS]; n];
        let diag = vec![identity(); n];
        let upper = vec![[[0.0; NCONS]; NCONS]; n];
        let mut rhs: Vec<Vec5> = (0..n).map(|i| [i as f64, 1.0, -2.0, 0.5, 3.0]).collect();
        let expect = rhs.clone();
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
        assert_eq!(rhs, expect);
    }

    #[test]
    fn tridiagonal_manufactured_solution() {
        let n = 12;
        let lower: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 1, 0.0))
            .collect();
        let upper: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 100, 0.0))
            .collect();
        let diag: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 200, 8.0))
            .collect();
        let x: Vec<Vec5> = (0..n)
            .map(|i| [(i as f64).sin(), 1.0, -0.5, i as f64, 0.1])
            .collect();
        // rhs = L x_{i-1} + D x_i + U x_{i+1}
        let mut rhs: Vec<Vec5> = Vec::with_capacity(n);
        for i in 0..n {
            let mut r = matvec(&diag[i], &x[i]);
            if i > 0 {
                let lx = matvec(&lower[i], &x[i - 1]);
                for (rv, lv) in r.iter_mut().zip(lx) {
                    *rv += lv;
                }
            }
            if i + 1 < n {
                let ux = matvec(&upper[i], &x[i + 1]);
                for (rv, uv) in r.iter_mut().zip(ux) {
                    *rv += uv;
                }
            }
            rhs.push(r);
        }
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
        for i in 0..n {
            for c in 0..NCONS {
                assert!(
                    (rhs[i][c] - x[i][c]).abs() < 1e-8,
                    "point {i} comp {c}: {} vs {}",
                    rhs[i][c],
                    x[i][c]
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_solves() {
        let mut scratch = BlockTriScratch::new(16);
        for trial in 0..3 {
            let n = 16 - trial * 4;
            let lower = vec![scale(&identity(), -0.3); n];
            let upper = vec![scale(&identity(), -0.3); n];
            let diag = vec![scale(&identity(), 2.0); n];
            let mut rhs = vec![[1.4; NCONS]; n];
            solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
            // Scalar system: 2x_i - 0.3(x_{i-1}+x_{i+1}) = 1.4; the
            // solution is component-uniform and bounded by 1.4/1.4 = 1.
            for r in &rhs {
                for &v in r {
                    assert!(v > 0.0 && v < 1.01, "{v}");
                }
            }
        }
    }

    #[test]
    fn scratch_bytes_reflect_capacity() {
        let s = BlockTriScratch::new(100);
        assert_eq!(s.capacity(), 100);
        assert_eq!(s.bytes(), 100 * (200 + 40));
    }

    #[test]
    #[should_panic(expected = "scratch too small")]
    fn undersized_scratch_panics() {
        let n = 4;
        let lower = vec![identity(); n];
        let diag = vec![identity(); n];
        let upper = vec![identity(); n];
        let mut rhs = vec![[0.0; NCONS]; n];
        let mut scratch = BlockTriScratch::new(2);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "empty system")]
    fn empty_system_panics() {
        let mut scratch = BlockTriScratch::new(1);
        solve_block_tridiagonal(&[], &[], &[], &mut [], &mut scratch);
    }

    #[test]
    fn wide_tridiagonal_solve_is_bit_exact() {
        let n = 11;
        let lower: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 1, 0.0))
            .collect();
        let upper: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 100, 0.0))
            .collect();
        let diag: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 200, 8.0))
            .collect();
        let rhs0: Vec<Vec5> = (0..n)
            .map(|i| [(i as f64).cos(), 2.0, -1.0, i as f64, 0.3])
            .collect();
        let mut scratch = BlockTriScratch::new(n);
        let mut reference = rhs0.clone();
        solve_block_tridiagonal(&lower, &diag, &upper, &mut reference, &mut scratch);
        for width in [1, 2, 4, 8, 3, 0, usize::MAX] {
            let mut rhs = rhs0.clone();
            solve_block_tridiagonal_w(&lower, &diag, &upper, &mut rhs, &mut scratch, width);
            for i in 0..n {
                assert_eq!(
                    rhs[i].map(f64::to_bits),
                    reference[i].map(f64::to_bits),
                    "width {width} point {i}"
                );
            }
        }
    }
}
