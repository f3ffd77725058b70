//! Building a custom machine from the substrates: a two-tier GPU
//! cluster with heterogeneous interconnect parameters, plus direct use
//! of the simulated CUDA layer.
//!
//! The runtime's presets reproduce the paper's two testbeds, but every
//! knob is open: device specs, fabric latency/bandwidth, cache policy,
//! scheduler, presend. This example sweeps interconnect bandwidth to
//! find where a communication-heavy workload stops scaling — the kind
//! of what-if study the simulated substrate makes cheap.
//!
//! Run with: `cargo run --release --example custom_machine`

use ompss::apps::matmul::{self, ompss::InitMode, MatmulParams};
use ompss::prelude::*;
use ompss::substrate::{CopyDir, GpuDevice, Sim};

fn main() {
    // Part 1: drive the simulated CUDA layer directly — the substrate
    // the runtime's GPU managers are built on.
    let sim = Sim::new();
    sim.spawn("cuda-demo", async {
        let dev = GpuDevice::new("demo", GpuSpec::gtx_480());
        let compute = dev.create_stream("compute");
        let copies = dev.create_stream("copies");
        // A 4 ms kernel and a pinned 8 MB upload, on separate streams:
        let k = compute.launch_async(KernelCost::fixed(SimDuration::from_millis(4)), None);
        let c = copies.memcpy_async(CopyDir::H2D, 8 << 20, true, None);
        c.synchronize().await;
        let copy_done = now();
        k.synchronize().await;
        println!(
            "substrate demo: pinned copy finished at {copy_done}, kernel at {} — they overlapped",
            now()
        );
    });
    sim.run().unwrap();

    // Part 2: what-if — how does the cluster matmul respond to the
    // interconnect? Sweep the fabric bandwidth on an 8-node machine.
    let p = MatmulParams::paper();
    println!("\nmatmul 12288^2 on 8 nodes vs interconnect bandwidth:");
    println!("{:<18}{:>12}", "fabric (GB/s)", "GFLOPS");
    for bw in [0.4e9, 0.8e9, 1.6e9, 3.2e9, 6.4e9] {
        let mut cfg = RuntimeConfig::gpu_cluster(8).with_backing(Backing::Phantom).with_presend(8);
        cfg.fabric.bandwidth = bw;
        let r = matmul::ompss::run(cfg, p, InitMode::Smp);
        println!("{:<18}{:>12.0}", bw / 1e9, r.metric);
    }
    println!("\nBelow ~1 GB/s the run is wire-bound; above ~3 GB/s the GPUs saturate.");
}
