//! Which instruction-set variant of a kernel body runs on this host.
//!
//! The kernels the apps run on real bytes, [`sgemm_tile`] and
//! [`step_block`], are each one generic `#[inline(always)]` body that
//! is instantiated several times: once for the build target's
//! baseline, and once inside each thin `#[target_feature]` wrapper
//! (AVX2 for both, AVX-512F for `sgemm_tile`). Each kernel call asks
//! [`Isa::widest`] once and runs that variant, so no build setting is
//! needed to use the host's vector width. Every variant performs the
//! same floating-point operations in the same order, and Rust never
//! fuses a multiply and an add on its own, so no output bit depends on
//! the host.
//!
//! [`sgemm_tile`]: crate::matmul::sgemm_tile
//! [`step_block`]: crate::nbody::step_block

/// An instruction set a kernel body has a variant for, narrowest
/// first. A wider variant carries a [`Detected`] token, which only this
/// module can make, and only after the host reported the feature:
/// holding one is what lets a kernel call its `#[target_feature]`
/// wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The build target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2: 256-bit vectors, 16 registers.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2(Detected),
    /// AVX-512F: 512-bit vectors, 32 registers.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512(Detected),
}

/// Proof that the host runs the instruction set of the variant that
/// holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Detected(());

impl Isa {
    /// The widest variant this host runs; the one every kernel call
    /// takes. Each variant needs the narrower ones' features too. The
    /// standard library caches the feature bits, so this costs a few
    /// loads.
    pub(crate) fn widest() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f") {
                return Isa::Avx512(Detected(()));
            }
            return Isa::Avx2(Detected(()));
        }
        Isa::Baseline
    }

    /// Every variant this host runs, narrowest first: the differential
    /// tests run each against the scalar reference.
    #[cfg(test)]
    pub(crate) fn detected() -> Vec<Isa> {
        let widest = Isa::widest();
        [Isa::Baseline, Isa::Avx2(Detected(())), Isa::Avx512(Detected(()))]
            .into_iter()
            .filter(|&isa| isa <= widest)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_picks_the_widest_detected_variant() {
        assert_eq!(Isa::detected().last(), Some(&Isa::widest()));
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2");
            let want = match (avx2, is_x86_feature_detected!("avx512f")) {
                (true, true) => Isa::Avx512(Detected(())),
                (true, false) => Isa::Avx2(Detected(())),
                (false, _) => Isa::Baseline,
            };
            assert_eq!(Isa::widest(), want);
        }
    }
}
