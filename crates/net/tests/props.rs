//! Property tests of the network layer: byte conservation on the
//! fabric, MPI collective correctness over arbitrary payloads and rank
//! counts.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use ompss_net::{Fabric, FabricConfig, Mpi, Source};
use ompss_sim::{Sim, SimDuration};

fn cfg(nodes: u32) -> FabricConfig {
    FabricConfig { nodes, latency: SimDuration::from_micros(1), bandwidth: 1e9 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every message injected is delivered exactly once to exactly its
    /// destination, and the stats account every byte.
    #[test]
    fn fabric_conserves_messages_and_bytes(
        msgs in proptest::collection::vec((0u32..4, 0u32..4, 1u64..10_000), 1..30)
    ) {
        let sim = Sim::new();
        let fab: Fabric<usize> = Fabric::new(cfg(4));
        let delivered = Rc::new(RefCell::new(vec![Vec::new(); 4]));
        for node in 0..4u32 {
            let f = fab.clone();
            let d = delivered.clone();
            sim.process(format!("sink{node}")).daemon().spawn(async move {
                while let Ok((src, id)) = f.recv(node).await {
                    d.borrow_mut()[node as usize].push((src, id));
                }
            });
        }
        let total: u64 = msgs.iter().map(|&(_, _, b)| b).sum();
        for (id, (src, dst, bytes)) in msgs.clone().into_iter().enumerate() {
            let f = fab.clone();
            sim.spawn(format!("tx{id}"), async move {
                f.send(src, dst, bytes, id).await.unwrap();
            });
        }
        sim.run().unwrap();
        let got = delivered.borrow();
        let mut seen: Vec<usize> = got.iter().flatten().map(|&(_, id)| id).collect();
        seen.sort();
        prop_assert_eq!(seen, (0..msgs.len()).collect::<Vec<_>>());
        for (id, &(src, dst, _)) in msgs.iter().enumerate() {
            prop_assert!(got[dst as usize].contains(&(src, id)));
        }
        let st = fab.stats();
        prop_assert_eq!(st.bytes_total, total);
        prop_assert_eq!(st.messages as usize, msgs.len());
    }

    /// `bcast` delivers the root's payload verbatim to every rank, for
    /// any world size, root and payload.
    #[test]
    fn mpi_bcast_correct_for_any_root(
        nodes in 1u32..9,
        root_sel in 0u32..8,
        payload in proptest::collection::vec(any::<u8>(), 1..64)
    ) {
        let root = root_sel % nodes;
        let mpi = Mpi::new(cfg(nodes));
        let sim = Sim::new();
        let ok = Rc::new(RefCell::new(0u32));
        for r in 0..nodes {
            let rank = mpi.rank(r);
            let payload = payload.clone();
            let ok = ok.clone();
            sim.spawn(format!("rank{r}"), async move {
                let data = (rank.rank() == root).then(|| payload.clone());
                let out = rank.bcast(root, 7, payload.len() as u64, data).await.unwrap();
                if out.as_deref() == Some(&payload[..]) {
                    *ok.borrow_mut() += 1;
                }
            });
        }
        sim.run().unwrap();
        prop_assert_eq!(*ok.borrow(), nodes);
    }

    /// `allgather` returns every rank's contribution, in rank order, at
    /// every rank.
    #[test]
    fn mpi_allgather_correct(nodes in 1u32..9, seed in any::<u8>()) {
        let mpi = Mpi::new(cfg(nodes));
        let sim = Sim::new();
        let ok = Rc::new(RefCell::new(0u32));
        for r in 0..nodes {
            let rank = mpi.rank(r);
            let ok = ok.clone();
            sim.spawn(format!("rank{r}"), async move {
                let mine = vec![seed.wrapping_add(rank.rank() as u8); 4];
                let all = rank.allgather(9, 4, Some(mine)).await.unwrap();
                let expect: Vec<Option<Vec<u8>>> = (0..rank.size())
                    .map(|q| Some(vec![seed.wrapping_add(q as u8); 4]))
                    .collect();
                if all == expect {
                    *ok.borrow_mut() += 1;
                }
            });
        }
        sim.run().unwrap();
        prop_assert_eq!(*ok.borrow(), nodes);
    }

    /// Tag matching never misdelivers: interleaved tagged streams from
    /// two senders are each received intact.
    #[test]
    fn mpi_tag_matching_is_exact(
        tags_a in proptest::collection::vec(0u32..4, 1..10),
        tags_b in proptest::collection::vec(4u32..8, 1..10),
    ) {
        let mpi = Mpi::new(cfg(3));
        let sim = Sim::new();
        {
            let rank = mpi.rank(1);
            let tags = tags_a.clone();
            sim.spawn("sender-a", async move {
                for (i, t) in tags.into_iter().enumerate() {
                    rank.send(0, t, 1, Some(vec![i as u8])).await.unwrap();
                }
            });
        }
        {
            let rank = mpi.rank(2);
            let tags = tags_b.clone();
            sim.spawn("sender-b", async move {
                for (i, t) in tags.into_iter().enumerate() {
                    rank.send(0, t, 1, Some(vec![i as u8])).await.unwrap();
                }
            });
        }
        let ok = Rc::new(RefCell::new(false));
        {
            let rank = mpi.rank(0);
            let (ta, tb) = (tags_a.clone(), tags_b.clone());
            let ok = ok.clone();
            sim.spawn("receiver", async move {
                // Receive sender B's stream first (by source), in order,
                // then sender A's by per-message tag.
                let mut fine = true;
                for (i, t) in tb.iter().enumerate() {
                    let (_, m) = rank.recv(Source::Rank(2), Some(*t)).await.unwrap();
                    fine &= m.data == Some(vec![i as u8]);
                }
                for (i, t) in ta.iter().enumerate() {
                    let (_, m) = rank.recv(Source::Rank(1), Some(*t)).await.unwrap();
                    fine &= m.data == Some(vec![i as u8]);
                }
                *ok.borrow_mut() = fine;
            });
        }
        sim.run().unwrap();
        prop_assert!(*ok.borrow());
    }
}
