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

use crate::isa::Isa;

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

/// Rows of C held in accumulators by the baseline variant's block. A
/// 2 × 16 block fills 8 of the 16 SSE registers of the default x86-64
/// target; a 4 × 16 block spilled half its accumulators to the stack
/// and ran no faster than the unblocked loop. Every variant also takes
/// this block for the strips of a tile its own block does not fill, so
/// a tile narrower than the widest block (`bs = 16` at validation
/// scale) still runs blocked.
const ROWS: usize = 2;
/// Columns of C held in accumulators by the baseline variant's block.
const COLS: usize = 16;

/// The tile kernel all versions call (the stand-in for CUBLAS sgemm):
/// `c += a × b` over row-major `bs × bs` tiles.
///
/// Every element `c[i][j]` gets `a[i][k] * b[k][j]` added for each `k`
/// in ascending order whose `a[i][k]` is not zero. `block` keeps that
/// sequence per element while holding a block of C in registers; the
/// edges that do not fill a block go through `rect`. The widest
/// instruction-set variant the host runs (AVX-512F, AVX2 or the
/// baseline) does the work; all of them give the same bits.
pub fn sgemm_tile(a: &[f32], b: &[f32], c: &mut [f32], bs: usize) {
    sgemm_tile_on(Isa::widest(), a, b, c, bs);
}

/// [`sgemm_tile`] in the variant `isa`; returns how many elements of C
/// the plain loop `rect` computed, outside every block.
fn sgemm_tile_on(isa: Isa, a: &[f32], b: &[f32], c: &mut [f32], bs: usize) -> usize {
    debug_assert_eq!(a.len(), bs * bs);
    debug_assert_eq!(b.len(), bs * bs);
    debug_assert_eq!(c.len(), bs * bs);
    match isa {
        // SAFETY: an `Isa::Avx512` carries a `Detected` token, made
        // only once the host reported AVX2 and AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512(_) => unsafe { sgemm_avx512(a, b, c, bs) },
        // SAFETY: an `Isa::Avx2` carries a `Detected` token, made only
        // once the host reported AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) => unsafe { sgemm_avx2(a, b, c, bs) },
        _ => sgemm_body::<ROWS, COLS>(a, b, c, bs),
    }
}

/// AVX2: a 2 × 32 block, 8 of the 16 256-bit registers. The fastest of
/// 4 × 16, 4 × 24, 6 × 16, 2 × 32 and 3 × 32.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sgemm_avx2(a: &[f32], b: &[f32], c: &mut [f32], bs: usize) -> usize {
    sgemm_body::<2, 32>(a, b, c, bs)
}

/// AVX-512F: a 4 × 64 block, 16 of the 32 512-bit registers. The 6 × 32
/// and 8 × 32 blocks spilled their accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sgemm_avx512(a: &[f32], b: &[f32], c: &mut [f32], bs: usize) -> usize {
    sgemm_body::<4, 64>(a, b, c, bs)
}

/// The one body every variant instantiates: `R × C` blocks from the
/// tile's top-left corner, then `ROWS × COLS` blocks on the strips to
/// their right and below them, then the plain loop on what is left.
/// Returns the number of elements the plain loop computed.
#[inline(always)]
fn sgemm_body<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bs: usize,
) -> usize {
    let (rows, cols) = blocks::<R, C>(a, b, c, bs, 0..bs, 0..bs);
    let mut plain = 0;
    for (strip_rows, strip_cols) in [(0..bs, cols..bs), (rows..bs, 0..cols)] {
        let (r, k) = blocks::<ROWS, COLS>(a, b, c, bs, strip_rows.clone(), strip_cols.clone());
        plain += rect(a, b, c, bs, strip_rows.start..r, k..strip_cols.end);
        plain += rect(a, b, c, bs, r..strip_rows.end, strip_cols);
    }
    plain
}

/// `c += a × b` on every `R × C` block that fits in `rows × cols` from
/// its top-left corner; returns where the covered rows and columns end.
#[inline(always)]
fn blocks<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bs: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> (usize, usize) {
    let row_end = rows.start + rows.len() / R * R;
    let col_end = cols.start + cols.len() / C * C;
    for j0 in (cols.start..col_end).step_by(C) {
        for i0 in (rows.start..row_end).step_by(R) {
            block::<R, C>(a, b, c, bs, i0, j0);
        }
    }
    (row_end, col_end)
}

/// `c += a × b` on the `R × C` block at row `i0`, column `j0`: a fused
/// update of all rows when every row's `a[i][k]` is nonzero, otherwise
/// row by row, skipping the zero ones. Both paths add the same terms in
/// the same order; the fused one is there for speed: at `bs = 128` on a
/// 2-vCPU Xeon (default x86-64 target) the kernel ran at ~23 GFLOP/s
/// with it and ~20 GFLOP/s with the row-by-row path alone.
#[inline(always)]
fn block<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bs: usize,
    i0: usize,
    j0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * bs..][..bs]);
    let mut acc = [[0.0f32; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * bs + j0..][..C]);
    }
    for (k, brow) in b.chunks_exact(bs).enumerate() {
        let brow: &[f32; C] = brow[j0..j0 + C].try_into().expect("C floats");
        let av: [f32; R] = std::array::from_fn(|r| arows[r][k]);
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
        c[(i0 + r) * bs + j0..][..C].copy_from_slice(row);
    }
}

/// `c += a × b` on the elements in `rows × cols`, one row at a time;
/// returns how many elements that is.
#[inline(always)]
fn rect(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bs: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> usize {
    let elems = rows.len() * cols.len();
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
    elems
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Largest tile edge the proptest draws: two of the widest (64
    /// columns) blocks and a ragged edge.
    const MAX_BS: usize = 2 * 64 + 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any tile edge — below, at and between block multiples of
        /// every variant — with ~10% exact zeros and one all-zero row
        /// in A (skipped, never added as `0 × b`) and `-0.0` entries in
        /// C (which an added `+0.0` would flip) gives the reference's
        /// C, bit for bit, in every variant the host runs.
        #[test]
        fn sgemm_tile_is_bit_identical_to_the_scalar_reference(
            bs in 1usize..MAX_BS + 1,
            zero_row in 0usize..MAX_BS,
            raw_a in proptest::collection::vec(-1000i32..1000, MAX_BS * MAX_BS),
            raw_b in proptest::collection::vec(-1000i32..1000, MAX_BS * MAX_BS),
            raw_c in proptest::collection::vec(-1000i32..1000, MAX_BS * MAX_BS),
        ) {
            let n = bs * bs;
            let mut a = floats(&raw_a[..n], 10, 0.0);
            let zero_row = zero_row % bs;
            a[zero_row * bs..(zero_row + 1) * bs].fill(0.0);
            let b = floats(&raw_b[..n], 1000, 0.0);
            let c = floats(&raw_c[..n], 3, -0.0);
            let mut c_ref = c.clone();
            sgemm_tile_reference(&a, &b, &mut c_ref, bs);
            for isa in Isa::detected() {
                let mut c_new = c.clone();
                sgemm_tile_on(isa, &a, &b, &mut c_new, bs);
                prop_assert_eq!(bits(&c_new), bits(&c_ref), "bs={} {:?}", bs, isa);
            }
        }
    }

    /// A `real_kernels` tile (bs = 128, the benchmark's inputs, C
    /// accumulated over three calls) in every variant the host runs.
    #[test]
    fn sgemm_tile_at_benchmark_size_is_bit_identical_to_the_reference() {
        const BS: usize = 128;
        let a: Vec<f32> = (0..BS * BS).map(init_a).collect();
        let b: Vec<f32> = (0..BS * BS).map(init_b).collect();
        let mut c_ref = vec![0.0f32; BS * BS];
        for _ in 0..3 {
            sgemm_tile_reference(&a, &b, &mut c_ref, BS);
        }
        for isa in Isa::detected() {
            let mut c = vec![0.0f32; BS * BS];
            for _ in 0..3 {
                assert_eq!(sgemm_tile_on(isa, &a, &b, &mut c, BS), 0, "{isa:?}: all blocked");
            }
            assert_eq!(bits(&c), bits(&c_ref), "{isa:?}");
        }
    }

    /// Validation-scale tiles (bs = 16) are narrower than the AVX2 and
    /// AVX-512 blocks; every variant still computes them in blocks.
    #[test]
    fn small_tiles_stay_off_the_plain_loop() {
        let bs = MatmulParams::validate().bs;
        let a: Vec<f32> = (0..bs * bs).map(init_a).collect();
        let b: Vec<f32> = (0..bs * bs).map(init_b).collect();
        for isa in Isa::detected() {
            let mut c = vec![0.0f32; bs * bs];
            assert_eq!(sgemm_tile_on(isa, &a, &b, &mut c, bs), 0, "{isa:?}");
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
