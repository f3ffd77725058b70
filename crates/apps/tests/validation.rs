//! Cross-version validation: for each benchmark, the CUDA, MPI+CUDA
//! and OmpSs versions must produce the serial version's results bit
//! for bit. Every version calls the same kernel bodies in the same
//! per-element order — the float reductions of matmul and N-Body
//! included — so no tolerance is needed. This is the ground truth
//! behind every performance figure.

use ompss_apps::{matmul, nbody, perlin, stream};
use ompss_cudasim::GpuSpec;
use ompss_net::FabricConfig;
use ompss_runtime::RuntimeConfig;

fn spec() -> GpuSpec {
    GpuSpec::gtx_480()
}

fn fabric(n: u32) -> FabricConfig {
    FabricConfig::qdr_infiniband(n)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------- matmul

#[test]
fn matmul_cuda_matches_serial() {
    let p = matmul::MatmulParams::validate();
    let reference = matmul::serial::run(p);
    let got = matmul::cuda::run(spec(), p).check.unwrap();
    assert_eq!(bits(&got), bits(&reference));
}

#[test]
fn matmul_mpi_matches_serial_across_grids() {
    let p = matmul::MatmulParams::validate();
    let reference = matmul::serial::run(p);
    for nodes in [1u32, 2, 4] {
        let got = matmul::mpi::run(nodes, spec(), fabric(nodes), p).check.unwrap();
        assert_eq!(bits(&got), bits(&reference), "nodes={nodes}");
    }
}

#[test]
fn matmul_ompss_matches_serial_multi_gpu() {
    let p = matmul::MatmulParams::validate();
    let reference = matmul::serial::run(p);
    for gpus in [1u32, 2, 4] {
        let got =
            matmul::ompss::run(RuntimeConfig::multi_gpu(gpus), p, matmul::ompss::InitMode::Seq)
                .check
                .unwrap();
        assert_eq!(bits(&got), bits(&reference), "gpus={gpus}");
    }
}

#[test]
fn matmul_ompss_matches_serial_on_cluster_all_inits() {
    let p = matmul::MatmulParams::validate();
    let reference = matmul::serial::run(p);
    for init in
        [matmul::ompss::InitMode::Seq, matmul::ompss::InitMode::Smp, matmul::ompss::InitMode::Gpu]
    {
        let got = matmul::ompss::run(RuntimeConfig::gpu_cluster(2), p, init).check.unwrap();
        assert_eq!(bits(&got), bits(&reference), "init={init:?}");
    }
}

// ---------------------------------------------------------------- stream

#[test]
fn stream_versions_match_serial() {
    let p = stream::StreamParams::validate();
    let (a, b, c) = stream::serial::run(p);
    let mut reference: Vec<f32> = a.iter().map(|&x| x as f32).collect();
    reference.extend(b.iter().map(|&x| x as f32));
    reference.extend(c.iter().map(|&x| x as f32));

    let cuda = stream::cuda::run(spec(), p).check.unwrap();
    assert_eq!(cuda, reference, "cuda");

    for nodes in [1u32, 2, 4] {
        let mpi = stream::mpi::run(nodes, spec(), fabric(nodes), p).check.unwrap();
        assert_eq!(mpi, reference, "mpi nodes={nodes}");
    }

    let ompss = stream::ompss::run(RuntimeConfig::multi_gpu(2), p).check.unwrap();
    assert_eq!(ompss, reference, "ompss multi-gpu");
    let ompss_cl = stream::ompss::run(RuntimeConfig::gpu_cluster(2), p).check.unwrap();
    assert_eq!(ompss_cl, reference, "ompss cluster");
}

// ---------------------------------------------------------------- perlin

#[test]
fn perlin_versions_match_serial_bit_exact() {
    let p = perlin::PerlinParams::validate();
    let reference: Vec<u32> = perlin::serial::run(p);
    for flush in [false, true] {
        let cuda = perlin::cuda::run(spec(), p, flush).check.unwrap();
        assert_eq!(bits(&cuda), reference, "cuda flush={flush}");
        let mpi = perlin::mpi::run(2, spec(), fabric(2), p, flush).check.unwrap();
        assert_eq!(bits(&mpi), reference, "mpi flush={flush}");
        let om = perlin::ompss::run(RuntimeConfig::multi_gpu(2), p, flush).check.unwrap();
        assert_eq!(bits(&om), reference, "ompss flush={flush}");
    }
}

#[test]
fn perlin_cluster_matches_serial() {
    let p = perlin::PerlinParams::validate();
    let reference: Vec<u32> = perlin::serial::run(p);
    let om = perlin::ompss::run(RuntimeConfig::gpu_cluster(2), p, false).check.unwrap();
    assert_eq!(bits(&om), reference);
}

// ---------------------------------------------------------------- nbody

#[test]
fn nbody_versions_match_serial() {
    let p = nbody::NbodyParams::validate();
    let reference = nbody::serial::run(p);

    let cuda = nbody::cuda::run(spec(), p).check.unwrap();
    assert_eq!(bits(&cuda), bits(&reference), "cuda");

    for nodes in [1u32, 2, 4] {
        let mpi = nbody::mpi::run(nodes, spec(), fabric(nodes), p).check.unwrap();
        assert_eq!(bits(&mpi), bits(&reference), "mpi nodes={nodes}");
    }

    for gpus in [1u32, 2] {
        let om = nbody::ompss::run(RuntimeConfig::multi_gpu(gpus), p).check.unwrap();
        assert_eq!(bits(&om), bits(&reference), "ompss gpus={gpus}");
    }
    let om = nbody::ompss::run(RuntimeConfig::gpu_cluster(2), p).check.unwrap();
    assert_eq!(bits(&om), bits(&reference), "ompss cluster");
}
