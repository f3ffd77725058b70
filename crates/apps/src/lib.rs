//! # ompss-apps — the paper's evaluation applications
//!
//! The four benchmarks of §IV (Matrix Multiply, STREAM, Perlin noise,
//! N-Body), each in the four versions Table I compares:
//!
//! | version  | what it models |
//! |----------|----------------|
//! | `serial` | the reference program (validation + LoC baseline) |
//! | `cuda`   | hand-written single-GPU CUDA: explicit copies and launches |
//! | `mpi`    | MPI+CUDA across nodes (SUMMA for matmul, allgather for N-Body) |
//! | `ompss`  | the annotated task version on the OmpSs runtime |
//!
//! Every version computes real results under `real: true` parameters,
//! so cross-version validation is exact-or-tolerance checked; the
//! paper-scale parameter sets run phantom-backed for timing only.

#![warn(missing_docs)]

pub mod common;
mod isa;
pub mod matmul;
pub mod nbody;
pub mod perlin;
pub mod stream;
pub mod validation;
pub mod ws;
