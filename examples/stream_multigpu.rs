//! The STREAM benchmark on a multi-GPU node (Figure 6): why the cache
//! write policy decides everything for bandwidth-bound task graphs.
//!
//! With write-back, each array block stays resident on the device that
//! owns its kernel chain and the measured bandwidth is the aggregate of
//! the GPUs' memory systems; with write-through or no caching, every
//! task's writes cross PCIe and the run collapses to bus speed.
//!
//! Run with: `cargo run --release --example stream_multigpu`

use ompss::apps::stream::{self, StreamParams};
use ompss::prelude::*;

fn main() {
    println!("STREAM (copy/scale/add/triad), 768 MB of arrays per GPU\n");
    println!("{:<10}{:>12}{:>12}{:>12}", "GPUs", "nocache", "wt", "wb (GB/s)");
    for gpus in [1u32, 2, 4] {
        let p = StreamParams::paper(gpus as usize);
        let mut row = format!("{gpus:<10}");
        for cache in CachePolicy::ALL {
            let cfg =
                RuntimeConfig::multi_gpu(gpus).with_backing(Backing::Phantom).with_cache(cache);
            let r = stream::ompss::run(cfg, p);
            row.push_str(&format!("{:>12.1}", r.metric));
        }
        println!("{row}");
    }

    // The scheduler barely matters for STREAM's simple structure —
    // the paper's observation, reproduced.
    println!("\nwrite-back across schedulers at 4 GPUs:");
    let p = StreamParams::paper(4);
    for sched in Policy::ALL {
        let cfg = RuntimeConfig::multi_gpu(4).with_backing(Backing::Phantom).with_sched(sched);
        let r = stream::ompss::run(cfg, p);
        println!("  {:<14}{:>10.1} GB/s", sched.chart_label(), r.metric);
    }
}
