//! Device specifications and kernel cost models.
//!
//! We do not have Fermi-era GPUs; what the runtime techniques under
//! evaluation (caching, scheduling, overlap, prefetch) respond to is the
//! *ratio* between kernel time and transfer time. Kernels therefore
//! carry an analytical cost — a roofline-style `max(compute, memory)`
//! plus launch overhead — parameterised by the published specs of the
//! paper's devices (§IV-A1).

use ompss_sim::SimDuration;

/// Static description of a simulated GPU.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Device memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Effective host↔device PCIe bandwidth for page-locked (pinned)
    /// transfers, in bytes/s.
    pub pcie_bandwidth: f64,
    /// Effective bandwidth for pageable transfers (bounced through a
    /// driver staging buffer), in bytes/s.
    pub pageable_bandwidth: f64,
    /// PCIe transfer setup latency.
    pub pcie_latency: SimDuration,
    /// Number of DMA copy engines (1 on GeForce Fermi, 2 on Tesla).
    pub copy_engines: u32,
    /// Fixed kernel launch overhead.
    pub launch_overhead: SimDuration,
    /// Host-side `memcpy` bandwidth used when staging user memory into
    /// pinned buffers (bytes/s).
    pub host_memcpy_bandwidth: f64,
}

impl GpuSpec {
    /// One GPU of the Tesla S2050 quad in the paper's multi-GPU node:
    /// 1.03 TFLOP/s SP peak, 2.62 GB usable memory, 148 GB/s memory
    /// bandwidth, PCIe 2.0 x16 shared through the S2050 host link.
    pub fn tesla_s2050() -> Self {
        GpuSpec {
            name: "Tesla S2050",
            peak_gflops: 1030.0,
            mem_bandwidth: 148.0e9,
            mem_capacity: 2_620_000_000,
            pcie_bandwidth: 5.5e9,
            pageable_bandwidth: 3.3e9,
            pcie_latency: SimDuration::from_micros(15),
            copy_engines: 2,
            launch_overhead: SimDuration::from_micros(10),
            host_memcpy_bandwidth: 4.0e9,
        }
    }

    /// The GTX 480 in each node of the paper's GPU cluster: 1.35 TFLOP/s
    /// SP, 1.5 GB memory, 177.4 GB/s memory bandwidth, one copy engine.
    pub fn gtx_480() -> Self {
        GpuSpec {
            name: "GTX 480",
            peak_gflops: 1350.0,
            mem_bandwidth: 177.4e9,
            mem_capacity: 1_500_000_000,
            pcie_bandwidth: 5.5e9,
            pageable_bandwidth: 3.3e9,
            pcie_latency: SimDuration::from_micros(15),
            copy_engines: 1,
            launch_overhead: SimDuration::from_micros(10),
            host_memcpy_bandwidth: 4.0e9,
        }
    }

    /// Time for a PCIe transfer of `bytes` from/to pinned host memory.
    pub fn pcie_time(&self, bytes: u64) -> SimDuration {
        self.pcie_latency + SimDuration::from_secs_f64(bytes as f64 / self.pcie_bandwidth)
    }

    /// Time for a PCIe transfer of `bytes` from/to pageable host memory.
    pub fn pageable_time(&self, bytes: u64) -> SimDuration {
        self.pcie_latency + SimDuration::from_secs_f64(bytes as f64 / self.pageable_bandwidth)
    }

    /// Time to stage `bytes` of pageable user memory into a pinned
    /// buffer (one host memcpy).
    pub fn staging_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.host_memcpy_bandwidth)
    }
}

/// Analytical cost of one kernel invocation.
///
/// The execution time on a device is
/// `launch_overhead + fixed + max(flops / (peak · compute_eff),
/// bytes / (mem_bw · memory_eff))` — a simple roofline. Efficiencies
/// default to values typical of well-tuned Fermi kernels (CUBLAS sgemm
/// reaches ~60 % of peak; STREAM-style kernels ~80 % of bandwidth).
#[derive(Debug, Clone, Copy)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Device-memory bytes moved (reads + writes).
    pub bytes: f64,
    /// Fraction of peak FLOP/s this kernel achieves.
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth this kernel achieves.
    pub memory_efficiency: f64,
    /// Additional fixed time per invocation.
    pub fixed: SimDuration,
}

impl KernelCost {
    /// A compute-bound kernel (e.g. GEMM) at the given efficiency.
    pub fn compute_bound(flops: f64, efficiency: f64) -> Self {
        KernelCost {
            flops,
            bytes: 0.0,
            compute_efficiency: efficiency,
            memory_efficiency: 0.8,
            fixed: SimDuration::ZERO,
        }
    }

    /// A memory-bound kernel (e.g. STREAM triad) at the given bandwidth
    /// efficiency.
    pub fn memory_bound(bytes: f64, efficiency: f64) -> Self {
        KernelCost {
            flops: 0.0,
            bytes,
            compute_efficiency: 0.6,
            memory_efficiency: efficiency,
            fixed: SimDuration::ZERO,
        }
    }

    /// A roofline kernel with both compute and memory components.
    pub fn roofline(flops: f64, bytes: f64, compute_eff: f64, memory_eff: f64) -> Self {
        KernelCost {
            flops,
            bytes,
            compute_efficiency: compute_eff,
            memory_efficiency: memory_eff,
            fixed: SimDuration::ZERO,
        }
    }

    /// A fixed-duration kernel.
    pub fn fixed(d: SimDuration) -> Self {
        KernelCost {
            flops: 0.0,
            bytes: 0.0,
            compute_efficiency: 1.0,
            memory_efficiency: 1.0,
            fixed: d,
        }
    }

    /// Execution time on `spec`, excluding launch overhead.
    pub fn body_time(&self, spec: &GpuSpec) -> SimDuration {
        let compute = if self.flops > 0.0 {
            self.flops / (spec.peak_gflops * 1e9 * self.compute_efficiency)
        } else {
            0.0
        };
        let memory = if self.bytes > 0.0 {
            self.bytes / (spec.mem_bandwidth * self.memory_efficiency)
        } else {
            0.0
        };
        self.fixed + SimDuration::from_secs_f64(compute.max(memory))
    }

    /// Total time on `spec`, including launch overhead.
    pub fn time(&self, spec: &GpuSpec) -> SimDuration {
        spec.launch_overhead + self.body_time(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_tile_time_is_milliseconds_on_fermi() {
        // 1024³ sgemm tile: 2 * 1024^3 flops ≈ 2.15 GFLOP.
        let spec = GpuSpec::gtx_480();
        let cost = KernelCost::compute_bound(2.0 * 1024f64.powi(3), 0.6);
        let t = cost.time(&spec).as_secs_f64();
        // ≈ 2.15e9 / (1.35e12 * 0.6) ≈ 2.65 ms
        assert!(t > 2.0e-3 && t < 3.5e-3, "t={t}");
    }

    #[test]
    fn stream_kernel_is_bandwidth_limited() {
        // triad over 32 MB reads 2 arrays and writes 1: 96 MB traffic.
        let spec = GpuSpec::tesla_s2050();
        let cost = KernelCost::memory_bound(96.0e6, 0.8);
        let t = cost.body_time(&spec).as_secs_f64();
        assert!((t - 96.0e6 / (148.0e9 * 0.8)).abs() < 1e-9);
    }

    #[test]
    fn roofline_takes_the_max() {
        let spec = GpuSpec::gtx_480();
        let compute_heavy = KernelCost::roofline(1e12, 1.0, 1.0, 1.0);
        let memory_heavy = KernelCost::roofline(1.0, 1e12, 1.0, 1.0);
        assert!(
            compute_heavy.body_time(&spec) > KernelCost::fixed(SimDuration::ZERO).body_time(&spec)
        );
        // memory-heavy: 1e12 / 177.4e9 ≈ 5.6 s ≫ compute term
        assert!(memory_heavy.body_time(&spec).as_secs_f64() > 5.0);
    }

    #[test]
    fn fixed_cost_and_launch_overhead() {
        let spec = GpuSpec::gtx_480();
        let cost = KernelCost::fixed(SimDuration::from_micros(100));
        assert_eq!(cost.time(&spec), SimDuration::from_micros(110));
    }

    #[test]
    fn pcie_time_scales_with_bytes() {
        let spec = GpuSpec::gtx_480();
        let t1 = spec.pcie_time(1 << 20).as_secs_f64();
        let t4 = spec.pcie_time(4 << 20).as_secs_f64();
        assert!(t4 > t1 * 2.0, "dominated by bandwidth term");
        // 4 MiB at 5.5 GB/s ≈ 0.76 ms plus 15 µs latency.
        assert!(t4 > 7e-4 && t4 < 9e-4, "t4={t4}");
    }

    #[test]
    fn staging_time_uses_host_memcpy_bandwidth() {
        let spec = GpuSpec::gtx_480();
        let t = spec.staging_time(4_000_000_000).as_secs_f64();
        assert!((t - 1.0).abs() < 1e-9);
    }
}
