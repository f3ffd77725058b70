//! Perlin-noise image filter (§IV-A2): a 1024×1024 image repeatedly
//! filtered with lattice value-noise. The paper's two variants differ
//! in what happens between steps: **Flush** returns the image to host
//! memory after every step; **NoFlush** keeps it on the GPUs (the
//! realistic case when noise is one filter in a pipeline).
//!
//! The noise kernel uses fixed-point integer arithmetic so every
//! version produces bit-identical pixels. A block is filtered row by
//! row and lattice cell by lattice cell, hashing a cell's corners once
//! per row of 16 pixels rather than once per pixel; every pixel keeps
//! [`noise_pixel`]'s integer arithmetic.

pub mod cuda;
pub mod mpi;
pub mod ompss;
pub mod serial;

use ompss_cudasim::KernelCost;

/// Perlin workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct PerlinParams {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Filter steps applied.
    pub steps: usize,
    /// Rows per task block.
    pub rows_per_block: usize,
    /// Real data (validation) or phantom (paper scale).
    pub real: bool,
}

impl PerlinParams {
    /// The paper's workload: 1024×1024 pixels, 64-row blocks.
    pub fn paper() -> Self {
        PerlinParams { width: 1024, height: 1024, steps: 10, rows_per_block: 64, real: false }
    }

    /// A small validated workload.
    pub fn validate() -> Self {
        PerlinParams { width: 64, height: 64, steps: 2, rows_per_block: 16, real: true }
    }

    /// Pixels in the image.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Number of row blocks.
    pub fn blocks(&self) -> usize {
        assert_eq!(self.height % self.rows_per_block, 0);
        self.height / self.rows_per_block
    }

    /// Pixels per block.
    pub fn block_pixels(&self) -> usize {
        self.rows_per_block * self.width
    }

    /// Total pixels processed over all steps (the Mpixels/s numerator).
    pub fn total_pixels(&self) -> f64 {
        self.pixels() as f64 * self.steps as f64
    }

    /// Kernel cost of one block: ~60 integer ops per pixel, plus the
    /// read+write traffic.
    pub fn kernel_cost(&self) -> KernelCost {
        let px = self.block_pixels() as f64;
        KernelCost::roofline(60.0 * px, 8.0 * px, 0.5, 0.8)
    }

    /// Initial pixel value (a flat mid-grey RGBA).
    pub fn init_pixel(_i: usize) -> u32 {
        0x7F7F_7FFF
    }
}

/// Cell size of the noise lattice, in pixels (power of two).
const CELL: u32 = 16;

fn lattice_hash(cx: u32, cy: u32, step: u32) -> u32 {
    let mut h = cx
        .wrapping_mul(0x9E37_79B1)
        .wrapping_add(cy.wrapping_mul(0x85EB_CA77))
        .wrapping_add(step.wrapping_mul(0xC2B2_AE3D));
    h ^= h >> 15;
    h = h.wrapping_mul(0x2C1B_3C6D);
    h ^= h >> 12;
    h = h.wrapping_mul(0x2974_35A3);
    h ^= h >> 16;
    h
}

/// Smoothstep in 8.8 fixed point: `3t² − 2t³` over `t ∈ [0, 256]`.
fn smooth(t: u32) -> u32 {
    let t2 = t * t; // ≤ 2^16
    (3 * t2 * 256 - 2 * t2 * t) >> 16
}

/// One filtered pixel: bilinear fixed-point value noise over the cell
/// lattice, blended with the previous pixel value.
pub fn noise_pixel(x: u32, y: u32, step: u32, prev: u32) -> u32 {
    let (cx, cy) = (x / CELL, y / CELL);
    let (fx, fy) = ((x % CELL) * 256 / CELL, (y % CELL) * 256 / CELL);
    blend(corners(cx, cy, step), smooth(fx), smooth(fy), prev)
}

/// The 8-bit luminance of the four lattice corners of cell `(cx, cy)`:
/// `[v00, v10, v01, v11]`.
fn corners(cx: u32, cy: u32, step: u32) -> [u32; 4] {
    [
        lattice_hash(cx, cy, step) & 0xFF,
        lattice_hash(cx + 1, cy, step) & 0xFF,
        lattice_hash(cx, cy + 1, step) & 0xFF,
        lattice_hash(cx + 1, cy + 1, step) & 0xFF,
    ]
}

/// Interpolate the corner values `v` at smoothed offsets `(sx, sy)` and
/// average the noise into each RGB channel of `prev`.
fn blend([v00, v10, v01, v11]: [u32; 4], sx: u32, sy: u32, prev: u32) -> u32 {
    let top = v00 * (256 - sx) + v10 * sx; // 16-bit
    let bot = v01 * (256 - sx) + v11 * sx;
    let n = (top * (256 - sy) + bot * sy) >> 16; // 8-bit noise value
    let r = ((((prev >> 24) & 0xFF) + n) / 2) & 0xFF;
    let g = ((((prev >> 16) & 0xFF) + n) / 2) & 0xFF;
    let b = ((((prev >> 8) & 0xFF) + n) / 2) & 0xFF;
    let a = prev & 0xFF;
    (r << 24) | (g << 16) | (b << 8) | a
}

/// Apply one filter step to a block of rows. `row0` is the block's
/// first image row; the block buffer holds `rows × width` pixels (the
/// last row may be partial).
///
/// Every pixel gets [`noise_pixel`]'s value; the walk goes row by row,
/// then cell by cell, so the four corner hashes are computed once per
/// 16-pixel run of a row, `smooth(fy)` once per row and the 16 values
/// of `smooth(fx)` once per call.
pub fn filter_block(block: &mut [u32], row0: usize, width: usize, step: u32) {
    let sxs: [u32; CELL as usize] = std::array::from_fn(|t| smooth(t as u32 * 256 / CELL));
    for (r, row) in block.chunks_mut(width).enumerate() {
        let y = (row0 + r) as u32;
        let (cy, sy) = (y / CELL, smooth((y % CELL) * 256 / CELL));
        for (cx, cell) in row.chunks_mut(CELL as usize).enumerate() {
            let v = corners(cx as u32, cy, step);
            for (px, &sx) in cell.iter_mut().zip(&sxs) {
                *px = blend(v, sx, sy, *px);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The pixel-at-a-time kernel [`filter_block`] replaced, kept as
    /// the reference the cell-walking one must match bit for bit.
    fn filter_block_reference(block: &mut [u32], row0: usize, width: usize, step: u32) {
        for (idx, px) in block.iter_mut().enumerate() {
            let x = (idx % width) as u32;
            let y = (row0 + idx / width) as u32;
            *px = noise_pixel(x, y, step, *px);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any width (cell multiple or not), any block length (whole
        /// rows or a partial last row), any first row, over several
        /// steps, gives the reference's pixels.
        #[test]
        fn filter_block_is_bit_identical_to_the_pixelwise_reference(
            width in 1usize..70,
            row0 in 0usize..50,
            steps in 1u32..4,
            pixels in proptest::collection::vec(any::<u32>(), 0..300),
        ) {
            let (mut new, mut reference) = (pixels.clone(), pixels);
            for step in 0..steps {
                filter_block(&mut new, row0, width, step);
                filter_block_reference(&mut reference, row0, width, step);
                prop_assert_eq!(&new, &reference, "width={} row0={} step={}", width, row0, step);
            }
        }
    }

    #[test]
    fn geometry() {
        let p = PerlinParams::validate();
        assert_eq!(p.pixels(), 4096);
        assert_eq!(p.blocks(), 4);
        assert_eq!(p.block_pixels(), 1024);
        assert_eq!(p.total_pixels(), 8192.0);
    }

    #[test]
    fn noise_is_deterministic_and_step_dependent() {
        let a = noise_pixel(10, 20, 0, 0x7F7F_7FFF);
        let b = noise_pixel(10, 20, 0, 0x7F7F_7FFF);
        let c = noise_pixel(10, 20, 1, 0x7F7F_7FFF);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_varies_across_space() {
        let vals: std::collections::HashSet<u32> =
            (0..64).map(|x| noise_pixel(x * 7, x * 13, 0, 0)).collect();
        assert!(vals.len() > 16, "noise should not be constant");
    }

    #[test]
    fn filter_block_matches_pixelwise_application() {
        let width = 8;
        let mut block = vec![0x1020_3040u32; 16];
        let mut expect = block.clone();
        filter_block(&mut block, 4, width, 3);
        for (idx, px) in expect.iter_mut().enumerate() {
            *px = noise_pixel((idx % width) as u32, (4 + idx / width) as u32, 3, *px);
        }
        assert_eq!(block, expect);
    }
}
