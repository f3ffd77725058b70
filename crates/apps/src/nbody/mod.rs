//! All-pairs N-Body simulation (§IV-A2): 20 000 bodies, 10 time steps,
//! the NVIDIA-example kernel shape. Every body's force sums over *all*
//! bodies, so after each step the new positions must reach every GPU —
//! the all-to-all redistribution that dominates this benchmark's
//! communication.
//!
//! Positions are stored as interleaved `(x, y, z, mass)` float4s; the
//! kernel iterates partners in global index order so every version is
//! bit-comparable. It advances eight bodies per pass over the partners,
//! one SIMD lane each; a lane's operations are exactly those of the
//! one-body loop, which the tests keep as a reference.

pub mod cuda;
pub mod mpi;
pub mod ompss;
pub mod serial;

use ompss_cudasim::KernelCost;

use crate::isa::Isa;

/// Integration time step.
pub const DT: f32 = 0.01;
/// Softening factor ε².
pub const EPS2: f32 = 0.05;
/// Interaction cost in flops (the conventional all-pairs count).
pub const FLOPS_PER_INTERACTION: f64 = 20.0;

/// N-Body workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct NbodyParams {
    /// Number of bodies.
    pub n: usize,
    /// Number of body blocks (task granularity).
    pub blocks: usize,
    /// Simulated time steps.
    pub iters: usize,
    /// Real data (validation) or phantom (paper scale).
    pub real: bool,
}

impl NbodyParams {
    /// The paper's workload: 20 000 bodies, 10 iterations.
    pub fn paper() -> Self {
        NbodyParams { n: 20_000, blocks: 16, iters: 10, real: false }
    }

    /// A small validated workload.
    pub fn validate() -> Self {
        NbodyParams { n: 256, blocks: 4, iters: 3, real: true }
    }

    /// Bodies per block.
    pub fn block_len(&self) -> usize {
        assert_eq!(self.n % self.blocks, 0);
        self.n / self.blocks
    }

    /// Floats per block of positions (float4 per body).
    pub fn block_floats(&self) -> usize {
        self.block_len() * 4
    }

    /// Total flops over all iterations.
    pub fn flops(&self) -> f64 {
        FLOPS_PER_INTERACTION * (self.n as f64) * (self.n as f64) * self.iters as f64
    }

    /// Kernel cost of one block step: all-pairs over `block_len × n`.
    pub fn kernel_cost(&self) -> KernelCost {
        self.kernel_cost_scaled(self.block_len())
    }

    /// Kernel cost of advancing `count` bodies against all `n`.
    pub fn kernel_cost_scaled(&self, count: usize) -> KernelCost {
        KernelCost::compute_bound(FLOPS_PER_INTERACTION * count as f64 * self.n as f64, 0.5)
    }

    /// Deterministic initial position/mass of body `i`.
    pub fn init_pos(i: usize) -> [f32; 4] {
        let f = i as f32;
        [
            (f * 0.37).sin() * 10.0,
            (f * 0.71).cos() * 10.0,
            (f * 0.13).sin() * 10.0,
            1.0 + (i % 5) as f32 * 0.25,
        ]
    }

    /// Initial velocity of body `i`.
    pub fn init_vel(i: usize) -> [f32; 4] {
        let f = i as f32;
        [(f * 0.19).cos() * 0.1, (f * 0.23).sin() * 0.1, (f * 0.29).cos() * 0.1, 0.0]
    }
}

/// Bodies advanced side by side in one pass over the partners, in
/// every variant: 8 lanes fill one AVX2 register.
const LANES: usize = 8;

/// Advance one block of bodies one time step.
///
/// `pos_all` is the full float4 position array (all bodies, global
/// order); `start..start + count` is this block's body range; `vel` and
/// `pos_out` are the block's velocity and output-position float4s.
///
/// Bodies are advanced `LANES` at a time and the leftover ones one at
/// a time; each body's arithmetic is the same either way. The partner
/// loop runs in the widest instruction-set variant the host runs (AVX2
/// or the baseline); all of them give the same bits.
pub fn step_block(
    pos_all: &[f32],
    start: usize,
    count: usize,
    vel: &mut [f32],
    pos_out: &mut [f32],
) {
    step_block_on(Isa::widest(), pos_all, start, count, vel, pos_out);
}

/// [`step_block`] with the partner loop in the variant `isa`.
fn step_block_on(
    isa: Isa,
    pos_all: &[f32],
    start: usize,
    count: usize,
    vel: &mut [f32],
    pos_out: &mut [f32],
) {
    let full = count / LANES * LANES;
    for i in (0..full).step_by(LANES) {
        step_lanes::<LANES>(isa, pos_all, start + i, &mut vel[4 * i..], &mut pos_out[4 * i..]);
    }
    for i in full..count {
        step_lanes::<1>(isa, pos_all, start + i, &mut vel[4 * i..], &mut pos_out[4 * i..]);
    }
}

/// Advance the `L` bodies from global index `gi` on; `vel` and
/// `pos_out` start at the first one's float4.
fn step_lanes<const L: usize>(
    isa: Isa,
    pos_all: &[f32],
    gi: usize,
    vel: &mut [f32],
    pos_out: &mut [f32],
) {
    let own = &pos_all[4 * gi..4 * (gi + L)];
    let xi: [f32; L] = std::array::from_fn(|l| own[4 * l]);
    let yi: [f32; L] = std::array::from_fn(|l| own[4 * l + 1]);
    let zi: [f32; L] = std::array::from_fn(|l| own[4 * l + 2]);
    let [ax, ay, az] = match isa {
        // SAFETY: both variants carry a `Detected` token, made only
        // once the host reported AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(_) | Isa::Avx512(_) => unsafe { accel_avx2(pos_all, xi, yi, zi) },
        _ => accel_baseline(pos_all, xi, yi, zi),
    };
    for l in 0..L {
        vel[4 * l] += ax[l] * DT;
        vel[4 * l + 1] += ay[l] * DT;
        vel[4 * l + 2] += az[l] * DT;
        pos_out[4 * l] = xi[l] + vel[4 * l] * DT;
        pos_out[4 * l + 1] = yi[l] + vel[4 * l + 1] * DT;
        pos_out[4 * l + 2] = zi[l] + vel[4 * l + 2] * DT;
        pos_out[4 * l + 3] = own[4 * l + 3];
    }
}

/// The baseline variant of [`accel`]. Kept out of line like the wider
/// ones: returned as three arrays, the accumulators are vectorised
/// across lanes. Inlined into [`step_lanes`], whose stores write each
/// body's x, y and z side by side, the compiler paired those instead
/// and the kernel ran about twice as slowly.
#[inline(never)]
fn accel_baseline<const L: usize>(
    pos_all: &[f32],
    xi: [f32; L],
    yi: [f32; L],
    zi: [f32; L],
) -> [[f32; L]; 3] {
    accel(pos_all, xi, yi, zi)
}

/// The AVX2 variant of [`accel`], which AVX-512F hosts run too: an
/// AVX-512F variant, at 8 lanes or at 16, ran no faster. A
/// `#[target_feature]` function is never inlined into a caller without
/// the feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accel_avx2<const L: usize>(
    pos_all: &[f32],
    xi: [f32; L],
    yi: [f32; L],
    zi: [f32; L],
) -> [[f32; L]; 3] {
    accel(pos_all, xi, yi, zi)
}

/// Accelerations of `L` bodies at `(xi, yi, zi)`: the one body every
/// variant instantiates. Lane `l` evaluates the all-pairs expression in
/// the scalar order, partners in global order, so its bits do not
/// depend on `L` or the variant; the lanes are independent, which lets
/// the compiler run them in SIMD registers.
#[inline(always)]
fn accel<const L: usize>(
    pos_all: &[f32],
    xi: [f32; L],
    yi: [f32; L],
    zi: [f32; L],
) -> [[f32; L]; 3] {
    let (mut ax, mut ay, mut az) = ([0.0f32; L], [0.0f32; L], [0.0f32; L]);
    for pj in pos_all.chunks_exact(4) {
        for l in 0..L {
            let dx = pj[0] - xi[l];
            let dy = pj[1] - yi[l];
            let dz = pj[2] - zi[l];
            let d2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv = 1.0 / d2.sqrt();
            let s = pj[3] * inv * inv * inv;
            ax[l] += dx * s;
            ay[l] += dy * s;
            az[l] += dz * s;
        }
    }
    [ax, ay, az]
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The scalar kernel [`step_block`] replaced, kept as the reference
    /// the lane-blocked one must match bit for bit: one body at a time,
    /// partners in global order.
    fn step_block_reference(
        pos_all: &[f32],
        start: usize,
        count: usize,
        vel: &mut [f32],
        pos_out: &mut [f32],
    ) {
        let n = pos_all.len() / 4;
        for i in 0..count {
            let gi = start + i;
            let (xi, yi, zi) = (pos_all[4 * gi], pos_all[4 * gi + 1], pos_all[4 * gi + 2]);
            let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
            for j in 0..n {
                let dx = pos_all[4 * j] - xi;
                let dy = pos_all[4 * j + 1] - yi;
                let dz = pos_all[4 * j + 2] - zi;
                let d2 = dx * dx + dy * dy + dz * dz + EPS2;
                let inv = 1.0 / d2.sqrt();
                let s = pos_all[4 * j + 3] * inv * inv * inv;
                ax += dx * s;
                ay += dy * s;
                az += dz * s;
            }
            vel[4 * i] += ax * DT;
            vel[4 * i + 1] += ay * DT;
            vel[4 * i + 2] += az * DT;
            pos_out[4 * i] = xi + vel[4 * i] * DT;
            pos_out[4 * i + 1] = yi + vel[4 * i + 1] * DT;
            pos_out[4 * i + 2] = zi + vel[4 * i + 2] * DT;
            pos_out[4 * i + 3] = pos_all[4 * gi + 3];
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any body range of any system — fewer bodies than a lane
        /// group, a partial last group, a block not at body 0 — gets
        /// the reference's velocities and positions, bit for bit, in
        /// every variant the host runs.
        #[test]
        fn step_block_is_bit_identical_to_the_scalar_reference(
            n in 1usize..40,
            start_pick in any::<usize>(),
            count_pick in any::<usize>(),
            raw in proptest::collection::vec(-1000i32..1000, 8 * 40),
        ) {
            let start = start_pick % n;
            let count = count_pick % (n - start + 1);
            let pos: Vec<f32> = raw[..4 * n]
                .chunks_exact(4)
                .flat_map(|r| {
                    let m = 0.5 + r[3].rem_euclid(8) as f32 * 0.25;
                    [r[0] as f32 * 0.013, r[1] as f32 * 0.017, r[2] as f32 * 0.011, m]
                })
                .collect();
            let vel: Vec<f32> = raw[4 * n..4 * (n + count)].iter().map(|&v| v as f32 * 1e-3).collect();
            let mut v_ref = vel.clone();
            let mut o_ref = vec![0.0f32; 4 * count];
            step_block_reference(&pos, start, count, &mut v_ref, &mut o_ref);
            for isa in Isa::detected() {
                let mut v_new = vel.clone();
                let mut o_new = vec![0.0f32; 4 * count];
                step_block_on(isa, &pos, start, count, &mut v_new, &mut o_new);
                prop_assert_eq!(bits(&v_new), bits(&v_ref), "velocities, start={} count={} {:?}", start, count, isa);
                prop_assert_eq!(bits(&o_new), bits(&o_ref), "positions, start={} count={} {:?}", start, count, isa);
            }
        }
    }

    #[test]
    fn geometry_and_flops() {
        let p = NbodyParams { n: 64, blocks: 4, iters: 2, real: true };
        assert_eq!(p.block_len(), 16);
        assert_eq!(p.block_floats(), 64);
        assert_eq!(p.flops(), 20.0 * 64.0 * 64.0 * 2.0);
    }

    #[test]
    fn step_block_conserves_mass_and_moves_bodies() {
        let n = 8;
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        for i in 0..n {
            pos.extend_from_slice(&NbodyParams::init_pos(i));
            vel.extend_from_slice(&NbodyParams::init_vel(i));
        }
        let mut out = vec![0.0f32; 4 * n];
        let mut v = vel.clone();
        step_block(&pos, 0, n, &mut v, &mut out);
        for i in 0..n {
            assert_eq!(out[4 * i + 3], pos[4 * i + 3], "mass preserved");
            assert_ne!(out[4 * i], pos[4 * i], "x moved");
        }
    }

    #[test]
    fn blocked_equals_monolithic() {
        let n = 16;
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        for i in 0..n {
            pos.extend_from_slice(&NbodyParams::init_pos(i));
            vel.extend_from_slice(&NbodyParams::init_vel(i));
        }
        // Monolithic step.
        let mut v1 = vel.clone();
        let mut out1 = vec![0.0f32; 4 * n];
        step_block(&pos, 0, n, &mut v1, &mut out1);
        // Two half blocks.
        let mut v2 = vel.clone();
        let mut out2 = vec![0.0f32; 4 * n];
        let (va, vb) = v2.split_at_mut(4 * n / 2);
        let (oa, ob) = out2.split_at_mut(4 * n / 2);
        step_block(&pos, 0, n / 2, va, oa);
        step_block(&pos, n / 2, n / 2, vb, ob);
        assert_eq!(out1, out2);
    }
}
