//! 5×5 block-tridiagonal systems: the implicit-sweep substrate.
//!
//! Each implicit factor of the approximate factorization couples points
//! along exactly one grid direction, producing, per pencil, a
//! block-tridiagonal system with 5×5 blocks. The Thomas algorithm here
//! is the recurrence that makes those sweeps non-parallelizable along
//! the sweep direction — the "dependencies in one direction" the whole
//! paper is about.
//!
//! **The lanes are systems, not points or columns.** Along one pencil
//! the solve is a single dependent chain — pivot search, a reciprocal,
//! the row updates, five serial divides per right-hand column, and
//! every point waiting on the previous point's result — so neither an
//! along-pencil lane width nor the five columns of a block product
//! (shorter than a useful lane group; DESIGN §6g has the numbers) give
//! it anything to overlap. Adjacent pencils do: they are independent
//! and isomorphic. `BlockTriScratch::eliminate` therefore advances
//! `W` systems one point at a time with the lane index innermost in
//! every loop, pivoting per lane, and
//! [`solve_block_tridiagonal_lanes`] is the whole solve on `W` slices;
//! the one-pencil [`solve_block_tridiagonal`] is its `::<1>`
//! instantiation, not a second elimination. A lane's result never
//! depends on `W` or on its neighbours: each element sees the same
//! operands in the same order, no reciprocal the dense `Lu` does not
//! take, nothing reassociated. The implicit kernels in
//! [`crate::solver`] stream points through `eliminate` as they
//! assemble them, so only what back substitution needs is ever stored.
//!
//! `Lu`, in the tests, is the dense statement of the same pivoted
//! factorization, one block at a time; the solve does not go through
//! it, and the tests hold the fused elimination to it bit for bit.

use mesh::NCONS;

/// A 5×5 matrix.
pub type Block = [[f64; NCONS]; NCONS];

/// A 5-vector.
pub type Vec5 = [f64; NCONS];

/// The same entry of `W` blocks side by side, lane innermost: what a
/// lockstep solve of `W` systems loads as one contiguous run.
pub type LaneBlock<const W: usize> = [[[f64; W]; NCONS]; NCONS];

/// The 5×5 identity.
#[must_use]
pub const fn identity() -> Block {
    let mut m = [[0.0; NCONS]; NCONS];
    let mut i = 0;
    while i < NCONS {
        m[i][i] = 1.0;
        i += 1;
    }
    m
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

/// Columns of the augmented matrix one point's elimination carries:
/// the pivot block, the upper block and the right-hand side.
const AUG: usize = 2 * NCONS + 1;

/// Scratch for block-tridiagonal solves: what back substitution needs
/// from the forward sweep (the modified upper blocks and right-hand
/// sides), for every point of every lane. Reused across pencils so the
/// tuned solver allocates once per worker (the paper's cache-resident
/// pencil scratch).
///
/// The layout is lane-innermost — point `i`, entry `(r, c)`, lane —
/// with the lane count of the solve in progress as the stride, so a
/// scratch sized for a bundle also serves any narrower solve.
#[derive(Debug, Clone)]
pub struct BlockTriScratch {
    /// Modified upper blocks, `cp[((i·5 + r)·5 + c)·W + lane]`.
    cp: Vec<f64>,
    /// Modified right-hand sides, `dp[(i·5 + r)·W + lane]`.
    dp: Vec<f64>,
}

impl BlockTriScratch {
    /// Scratch for one pencil of up to `n` points.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::for_lanes(n, 1)
    }

    /// Scratch for `lanes` pencils of up to `n` points each, solved in
    /// lockstep.
    #[must_use]
    pub fn for_lanes(n: usize, lanes: usize) -> Self {
        Self {
            cp: vec![0.0; n * lanes * NCONS * NCONS],
            dp: vec![0.0; n * lanes * NCONS],
        }
    }

    /// Capacity in pencil-points: a `W`-lane solve of length `n` needs
    /// `n · W`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.dp.len() / NCONS
    }

    /// Scratch bytes (for cache-fit assertions).
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.cp.len() + self.dp.len()) * std::mem::size_of::<f64>()
    }

    /// Forward-eliminate point `i` of `W` independent systems in
    /// lockstep (lane = system): form `pivot = diag − lower·cp[i−1]`
    /// and `r = rhs − lower·dp[i−1]` in one 5×6 product, then reduce
    /// the augmented matrix `[pivot | upper | r]` by Gaussian
    /// elimination with partial pivoting *per lane* and store
    /// `cp[i] = pivot⁻¹ upper`, `dp[i] = pivot⁻¹ r`. Points must be fed
    /// in order `0, 1, …`; `lower` is ignored at `i = 0`.
    ///
    /// Every loop's innermost index is the lane, so the recurrence runs
    /// `W` independent divide/multiply chains at once and the row
    /// operations are fixed-trip loops over contiguous lanes. Each
    /// lane's elements see the operation sequence of a dense LU with
    /// row pivoting applied to one system at a time — same operands,
    /// same order — so a lane's result does not depend on `W` or on its
    /// neighbours.
    ///
    /// # Panics
    /// Panics with `singular pivot block at {i}` if any lane's pivot
    /// block is numerically singular, or if the scratch is too small.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // rows, columns and lanes index several arrays at once
    pub(crate) fn eliminate<const W: usize>(
        &mut self,
        i: usize,
        lower: &LaneBlock<W>,
        diag: &LaneBlock<W>,
        upper: &LaneBlock<W>,
        rhs: &[Vec5; W],
    ) {
        const RHS: usize = AUG - 1;
        let (bw, vw) = (NCONS * NCONS * W, NCONS * W);
        let mut m = [[[0.0f64; W]; AUG]; NCONS];
        if i == 0 {
            for r in 0..NCONS {
                m[r][..NCONS].copy_from_slice(&diag[r]);
                for lane in 0..W {
                    m[r][RHS][lane] = rhs[lane][r];
                }
            }
        } else {
            let cp = &self.cp[(i - 1) * bw..][..bw];
            let dp = &self.dp[(i - 1) * vw..][..vw];
            for r in 0..NCONS {
                // Row r of lower·[cp | dp]: the block columns summed
                // from +0.0, the vector column from f64's additive
                // identity −0.0. An exact-zero multiplier adds a ±0.0
                // product, which leaves a sum that started at +0.0
                // unchanged bit for bit (for finite `cp`), so no lane
                // skips it and the lanes stay in lockstep.
                let mut acc = [[0.0f64; W]; NCONS];
                let mut ld = [-0.0f64; W];
                for k in 0..NCONS {
                    let a = lower[r][k];
                    for c in 0..NCONS {
                        for lane in 0..W {
                            acc[c][lane] += a[lane] * cp[(k * NCONS + c) * W + lane];
                        }
                    }
                    for lane in 0..W {
                        ld[lane] += a[lane] * dp[k * W + lane];
                    }
                }
                for c in 0..NCONS {
                    for lane in 0..W {
                        m[r][c][lane] = diag[r][c][lane] - acc[c][lane];
                    }
                }
                for lane in 0..W {
                    m[r][RHS][lane] = rhs[lane][r] - ld[lane];
                }
            }
        }
        for r in 0..NCONS {
            m[r][NCONS..RHS].copy_from_slice(&upper[r]);
        }

        for col in 0..NCONS {
            // Partial pivot, per lane: the first row of largest
            // magnitude in this column.
            let mut best = [0.0f64; W];
            let mut pivot_row = [col; W];
            for lane in 0..W {
                best[lane] = m[col][col][lane].abs();
            }
            for r in col + 1..NCONS {
                for lane in 0..W {
                    let v = m[r][col][lane].abs();
                    if v > best[lane] {
                        best[lane] = v;
                        pivot_row[lane] = r;
                    }
                }
            }
            let (mut singular, mut swaps) = (false, false);
            for lane in 0..W {
                singular |= best[lane] < 1e-300;
                swaps |= pivot_row[lane] != col;
            }
            assert!(!singular, "singular pivot block at {i}");
            if swaps {
                swap_pivot_rows(&mut m, col, &pivot_row);
            }
            let mut inv = [0.0f64; W];
            for lane in 0..W {
                inv[lane] = 1.0 / m[col][col][lane];
            }
            for r in col + 1..NCONS {
                let mut f = [0.0f64; W];
                for lane in 0..W {
                    f[lane] = m[r][col][lane] * inv[lane];
                }
                for c in col + 1..AUG {
                    for lane in 0..W {
                        m[r][c][lane] -= f[lane] * m[col][c][lane];
                    }
                }
            }
        }
        // Back substitution of the six right-hand columns.
        for r in (0..NCONS).rev() {
            for j in r + 1..NCONS {
                for c in NCONS..AUG {
                    for lane in 0..W {
                        m[r][c][lane] -= m[r][j][lane] * m[j][c][lane];
                    }
                }
            }
            for c in NCONS..AUG {
                for lane in 0..W {
                    m[r][c][lane] /= m[r][r][lane];
                }
            }
        }

        let cp = &mut self.cp[i * bw..][..bw];
        let dp = &mut self.dp[i * vw..][..vw];
        for r in 0..NCONS {
            for c in 0..NCONS {
                for lane in 0..W {
                    cp[(r * NCONS + c) * W + lane] = m[r][NCONS + c][lane];
                }
            }
            for lane in 0..W {
                dp[r * W + lane] = m[r][RHS][lane];
            }
        }
    }

    /// Back-substitute the `n` points [`eliminate`](Self::eliminate)
    /// was fed, last to first, handing each lane's solution at each
    /// point to `put(i, lane, x)`.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // as in `eliminate`
    pub(crate) fn back_substitute<const W: usize>(
        &self,
        n: usize,
        mut put: impl FnMut(usize, usize, Vec5),
    ) {
        let (bw, vw) = (NCONS * NCONS * W, NCONS * W);
        // x[c][lane] of the point solved last.
        let mut x = [[0.0f64; W]; NCONS];
        for i in (0..n).rev() {
            let cp = &self.cp[i * bw..][..bw];
            let dp = &self.dp[i * vw..][..vw];
            let mut cur = [[0.0f64; W]; NCONS];
            for r in 0..NCONS {
                for lane in 0..W {
                    cur[r][lane] = dp[r * W + lane];
                }
                if i + 1 < n {
                    let mut cx = [-0.0f64; W];
                    for c in 0..NCONS {
                        for lane in 0..W {
                            cx[lane] += cp[(r * NCONS + c) * W + lane] * x[c][lane];
                        }
                    }
                    for lane in 0..W {
                        cur[r][lane] -= cx[lane];
                    }
                }
            }
            x = cur;
            for lane in 0..W {
                put(i, lane, std::array::from_fn(|c| x[c][lane]));
            }
        }
    }
}

/// Bring each lane's pivot row up to row `col` of the augmented
/// matrix. Out of line: diagonally dominant factors never get here,
/// and the per-lane indexing would otherwise sit in the hot loop.
#[cold]
#[inline(never)]
fn swap_pivot_rows<const W: usize>(
    m: &mut [[[f64; W]; AUG]; NCONS],
    col: usize,
    pivot_row: &[usize; W],
) {
    for (lane, &p) in pivot_row.iter().enumerate() {
        if p != col {
            let (above, below) = m.split_at_mut(p);
            for (up, down) in above[col][col..].iter_mut().zip(&mut below[0][col..]) {
                std::mem::swap(&mut up[lane], &mut down[lane]);
            }
        }
    }
}

/// Solve `W` block-tridiagonal systems of equal length in lockstep,
/// lane = system:
/// `lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]`,
/// in place — on return each `rhs` holds its system's solution.
/// `lower[0]` and `upper[n-1]` are ignored.
///
/// This is the Thomas algorithm — a forward recurrence followed by a
/// backward recurrence, serial along the pencil by construction and
/// independent across lanes. Each lane's result is bit-identical to
/// solving that system alone.
///
/// # Panics
/// Panics on length mismatches, empty systems, scratch that is too
/// small, or a singular pivot block.
#[allow(clippy::needless_range_loop)] // `i` indexes every lane's slices, not one array
pub fn solve_block_tridiagonal_lanes<const W: usize>(
    lower: [&[Block]; W],
    diag: [&[Block]; W],
    upper: [&[Block]; W],
    mut rhs: [&mut [Vec5]; W],
    scratch: &mut BlockTriScratch,
) {
    let n = diag[0].len();
    assert!(n > 0, "empty system");
    for lane in 0..W {
        assert_eq!(lower[lane].len(), n, "lower length mismatch");
        assert_eq!(diag[lane].len(), n, "diag length mismatch");
        assert_eq!(upper[lane].len(), n, "upper length mismatch");
        assert_eq!(rhs[lane].len(), n, "rhs length mismatch");
    }
    assert!(scratch.capacity() >= n * W, "scratch too small");
    let side_by_side = |blocks: &[&[Block]; W], i: usize| {
        let mut out = [[[0.0; W]; NCONS]; NCONS];
        for (lane, system) in blocks.iter().enumerate() {
            for r in 0..NCONS {
                for c in 0..NCONS {
                    out[r][c][lane] = system[i][r][c];
                }
            }
        }
        out
    };
    for i in 0..n {
        scratch.eliminate(
            i,
            &side_by_side(&lower, i),
            &side_by_side(&diag, i),
            &side_by_side(&upper, i),
            &std::array::from_fn(|lane| rhs[lane][i]),
        );
    }
    scratch.back_substitute::<W>(n, |i, lane, x| rhs[lane][i] = x);
}

/// One system: the one-lane instantiation of
/// [`solve_block_tridiagonal_lanes`].
///
/// # Panics
/// As [`solve_block_tridiagonal_lanes`].
pub fn solve_block_tridiagonal(
    lower: &[Block],
    diag: &[Block],
    upper: &[Block],
    rhs: &mut [Vec5],
    scratch: &mut BlockTriScratch,
) {
    solve_block_tridiagonal_lanes::<1>([lower], [diag], [upper], [rhs], scratch);
}

/// [`solve_block_tridiagonal`] for callers that carry an along-pencil
/// lane width: one pencil's recurrence has nothing for that width to
/// select (see the module docs), so every width — supported or not —
/// is the same call.
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
    use proptest::prelude::*;

    /// An LU factorization of a 5×5 block with partial pivoting.
    #[derive(Debug, Clone, Copy)]
    struct Lu {
        lu: Block,
        perm: [usize; NCONS],
    }

    impl Lu {
        /// Factor `a`. Returns `None` if the block is numerically singular.
        #[must_use]
        #[allow(clippy::needless_range_loop)] // pivot swaps index two rows at once
        fn factor(a: &Block) -> Option<Self> {
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
        fn solve(&self, b: &Vec5) -> Vec5 {
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
    }

    /// `a * x` (matrix–vector product).
    fn matvec(a: &Block, x: &Vec5) -> Vec5 {
        std::array::from_fn(|i| a[i].iter().zip(x).map(|(m, v)| m * v).sum())
    }

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
    fn one_point_elimination_is_the_dense_lu() {
        // The Thomas solve carries its own fused elimination; `Lu` is
        // the dense statement of the same pivoted factorization. On a
        // one-point system the two must agree to the bit — with row
        // swaps (no dominance, and the permutation block) and without.
        let zero = [[0.0; NCONS]; NCONS];
        let mut cyclic = zero;
        for i in 0..NCONS {
            cyclic[i][(i + 1) % NCONS] = 1.0;
        }
        let blocks = (1..20u64)
            .map(|seed| diag_dominant_block(seed, if seed % 2 == 0 { 3.0 } else { 0.0 }))
            .chain([cyclic]);
        let b = [0.5, -1.0, 2.0, 0.25, 3.5];
        let mut scratch = BlockTriScratch::new(1);
        for a in blocks {
            let mut x = [b];
            solve_block_tridiagonal(&[zero], &[a], &[zero], &mut x, &mut scratch);
            let dense = Lu::factor(&a).expect("nonsingular").solve(&b);
            assert_eq!(x[0].map(f64::to_bits), dense.map(f64::to_bits), "{a:?}");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// LU solve of a well-conditioned block reproduces a known solution.
        #[test]
        fn lu_solves(
            vals in prop::array::uniform25(-1.0f64..1.0),
            x in prop::array::uniform5(-10.0f64..10.0),
        ) {
            let mut a = [[0.0; NCONS]; NCONS];
            for i in 0..NCONS {
                for j in 0..NCONS {
                    a[i][j] = vals[i * NCONS + j];
                }
                a[i][i] += 6.0;
            }
            let b = matvec(&a, &x);
            let lu = Lu::factor(&a).expect("dominant => nonsingular");
            let got = lu.solve(&b);
            for c in 0..NCONS {
                prop_assert!((got[c] - x[c]).abs() < 1e-8, "comp {c}");
            }
        }
    }
}
