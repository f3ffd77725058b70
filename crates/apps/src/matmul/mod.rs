//! Blocked single-precision matrix multiply — the paper's first
//! benchmark (§IV-A2): 12288×12288 floats in 1024×1024 tiles, computed
//! with CUBLAS `sgemm` per tile.
//!
//! The `sgemm` tile kernel below stands in for CUBLAS: all versions
//! call it, exactly as all the paper's versions call the library. The
//! four versions (serial / CUDA / MPI+CUDA SUMMA / OmpSs) live in their
//! own files; Table I counts their lines.
//!
//! The kernel is register-blocked: it holds a small block of C in
//! accumulators while it walks `k`. Each element still gets its terms
//! in ascending `k` with the zero terms of A skipped, so its bits are
//! those of the plain triple loop, which the tests keep as a reference.

pub mod cuda;
pub mod mpi;
pub mod ompss;
pub mod serial;

use std::ops::Range;

use ompss_cudasim::KernelCost;

/// Matmul workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    /// Tile grid dimension (matrix is `tiles × tiles` tiles).
    pub tiles: usize,
    /// Tile edge in elements (matrix edge = `tiles * bs`).
    pub bs: usize,
    /// Real data (validation) or phantom (paper-scale timing).
    pub real: bool,
}

impl MatmulParams {
    /// The paper's workload: 12288² floats, 1024² tiles.
    pub fn paper() -> Self {
        MatmulParams { tiles: 12, bs: 1024, real: false }
    }

    /// A small validated workload.
    pub fn validate() -> Self {
        MatmulParams { tiles: 4, bs: 16, real: true }
    }

    /// Matrix edge in elements.
    pub fn n(&self) -> usize {
        self.tiles * self.bs
    }

    /// Elements per tile.
    pub fn tile_elems(&self) -> usize {
        self.bs * self.bs
    }

    /// Elements per matrix (tile-major storage).
    pub fn matrix_elems(&self) -> usize {
        self.tiles * self.tiles * self.tile_elems()
    }

    /// Element range of tile `(i, j)` in tile-major storage.
    pub fn tile_range(&self, i: usize, j: usize) -> std::ops::Range<usize> {
        let base = (i * self.tiles + j) * self.tile_elems();
        base..base + self.tile_elems()
    }

    /// Total floating-point operations of the full multiply.
    pub fn flops(&self) -> f64 {
        2.0 * (self.n() as f64).powi(3)
    }

    /// The CUBLAS-model cost of one tile GEMM (~60 % of peak on Fermi).
    pub fn gemm_cost(&self) -> KernelCost {
        KernelCost::compute_bound(2.0 * (self.bs as f64).powi(3), 0.6)
    }
}

/// Deterministic initial values shared by every version, by global
/// element index within each matrix.
pub fn init_a(idx: usize) -> f32 {
    ((idx % 97) as f32) * 0.01
}

/// Initial value of `B[idx]`.
pub fn init_b(idx: usize) -> f32 {
    ((idx % 89) as f32) * 0.02 - 0.5
}

/// Rows of C held in accumulators by the register-blocked kernel. A
/// 2 × 16 block fills 8 of the 16 SSE registers of the default x86-64
/// target; a 4 × 16 block spilled half its accumulators to the stack
/// and ran no faster than the unblocked loop.
const ROWS: usize = 2;
/// Columns of C held in accumulators by the register-blocked kernel.
const COLS: usize = 16;

/// The tile kernel all versions call (the stand-in for CUBLAS sgemm):
/// `c += a × b` over row-major `bs × bs` tiles.
///
/// Every element `c[i][j]` gets `a[i][k] * b[k][j]` added for each `k`
/// in ascending order whose `a[i][k]` is not zero. `block` keeps that
/// sequence per element while holding a `ROWS × COLS` block of C in
/// registers; the edges that do not fill a block go through `rect`.
pub fn sgemm_tile(a: &[f32], b: &[f32], c: &mut [f32], bs: usize) {
    debug_assert_eq!(a.len(), bs * bs);
    debug_assert_eq!(b.len(), bs * bs);
    debug_assert_eq!(c.len(), bs * bs);
    let (rows, cols) = (bs / ROWS * ROWS, bs / COLS * COLS);
    for j0 in (0..cols).step_by(COLS) {
        for i0 in (0..rows).step_by(ROWS) {
            block(a, b, c, bs, i0, j0);
        }
    }
    rect(a, b, c, bs, 0..rows, cols..bs);
    rect(a, b, c, bs, rows..bs, 0..bs);
}

/// `c += a × b` on the block at row `i0`, column `j0`: a fused update
/// of all rows when every row's `a[i][k]` is nonzero, otherwise row by
/// row, skipping the zero ones. Both paths add the same terms in the
/// same order; the fused one is there for speed: at `bs = 128` on a
/// 2-vCPU Xeon (default x86-64 target) the kernel ran at ~23 GFLOP/s
/// with it and ~20 GFLOP/s with the row-by-row path alone.
fn block(a: &[f32], b: &[f32], c: &mut [f32], bs: usize, i0: usize, j0: usize) {
    let arows: [&[f32]; ROWS] = std::array::from_fn(|r| &a[(i0 + r) * bs..][..bs]);
    let mut acc = [[0.0f32; COLS]; ROWS];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * bs + j0..][..COLS]);
    }
    for (k, brow) in b.chunks_exact(bs).enumerate() {
        let brow: &[f32; COLS] = brow[j0..j0 + COLS].try_into().expect("COLS floats");
        let av: [f32; ROWS] = std::array::from_fn(|r| arows[r][k]);
        if av.iter().all(|&x| x != 0.0) {
            for (row, &ar) in acc.iter_mut().zip(&av) {
                for (cv, &bv) in row.iter_mut().zip(brow) {
                    *cv += ar * bv;
                }
            }
        } else {
            for (row, &ar) in acc.iter_mut().zip(&av) {
                if ar != 0.0 {
                    for (cv, &bv) in row.iter_mut().zip(brow) {
                        *cv += ar * bv;
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * bs + j0..][..COLS].copy_from_slice(row);
    }
}

/// `c += a × b` on the elements in `rows × cols`, one row at a time.
fn rect(a: &[f32], b: &[f32], c: &mut [f32], bs: usize, rows: Range<usize>, cols: Range<usize>) {
    for i in rows {
        for k in 0..bs {
            let aik = a[i * bs + k];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[k * bs + cols.start..k * bs + cols.end];
            let crow = &mut c[i * bs + cols.start..i * bs + cols.end];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The scalar kernel [`sgemm_tile`] replaced, kept as the reference
    /// the register-blocked one must match bit for bit.
    fn sgemm_tile_reference(a: &[f32], b: &[f32], c: &mut [f32], bs: usize) {
        for i in 0..bs {
            for k in 0..bs {
                let aik = a[i * bs + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[k * bs..(k + 1) * bs];
                let crow = &mut c[i * bs..(i + 1) * bs];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
    }

    /// Raw integers as floats; one in `zero_every` becomes `zero`.
    fn floats(raw: &[i32], zero_every: i32, zero: f32) -> Vec<f32> {
        raw.iter().map(|&v| if v % zero_every == 0 { zero } else { v as f32 * 0.01 }).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any tile edge — below, at and between block multiples — with
        /// ~10% exact zeros and one all-zero row in A (skipped, never
        /// added as `0 × b`) and `-0.0` entries in C (which an added
        /// `+0.0` would flip) gives the reference's C, bit for bit.
        #[test]
        fn sgemm_tile_is_bit_identical_to_the_scalar_reference(
            bs in 1usize..40,
            zero_row in 0usize..40,
            raw_a in proptest::collection::vec(-1000i32..1000, 40 * 40),
            raw_b in proptest::collection::vec(-1000i32..1000, 40 * 40),
            raw_c in proptest::collection::vec(-1000i32..1000, 40 * 40),
        ) {
            let n = bs * bs;
            let mut a = floats(&raw_a[..n], 10, 0.0);
            let zero_row = zero_row % bs;
            a[zero_row * bs..(zero_row + 1) * bs].fill(0.0);
            let b = floats(&raw_b[..n], 1000, 0.0);
            let mut c_new = floats(&raw_c[..n], 3, -0.0);
            let mut c_ref = c_new.clone();
            sgemm_tile(&a, &b, &mut c_new, bs);
            sgemm_tile_reference(&a, &b, &mut c_ref, bs);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&c_new), bits(&c_ref), "bs={}", bs);
        }
    }

    #[test]
    fn params_geometry() {
        let p = MatmulParams { tiles: 3, bs: 4, real: true };
        assert_eq!(p.n(), 12);
        assert_eq!(p.tile_elems(), 16);
        assert_eq!(p.matrix_elems(), 144);
        assert_eq!(p.tile_range(1, 2), 80..96);
        assert_eq!(p.flops(), 2.0 * 12f64.powi(3));
    }

    #[test]
    fn sgemm_tile_matches_naive() {
        let bs = 4;
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..16).map(|i| (i as f32) * 0.5).collect();
        let mut c = vec![1.0f32; 16];
        sgemm_tile(&a, &b, &mut c, bs);
        // Naive check of one element: c[0][0] = 1 + sum_k a[0][k]*b[k][0]
        let expect = 1.0 + (0..4).map(|k| a[k] * b[k * 4]).sum::<f32>();
        assert_eq!(c[0], expect);
    }
}
