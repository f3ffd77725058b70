//! The memory-space topology and transfer routing.
//!
//! Spaces form a tree: every GPU space hangs off its node's host space,
//! and host spaces talk to each other over the network. A transfer from
//! any space to any other is a sequence of *hops*, each either a PCIe
//! copy (GPU↔host) or a network message (host↔host). Data passing
//! through an intermediate space is cached there — that is the paper's
//! hierarchical behaviour ("a whole remote cluster node is a single
//! device [from the master's view], but GPUs inside that node will also
//! have their own cache", §III-C3).
//!
//! Whether host↔host traffic between two *slave* nodes goes direct
//! (`StoS`) or is relayed through the master (`MtoS`) is the cluster
//! configuration axis of Figure 9.

use ompss_mem::{FxHashMap, SpaceId};

/// The physical medium of one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// GPU↔host over PCIe.
    Pcie,
    /// host↔host over the interconnect.
    Network,
}

/// One hop of a route: move the region from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Source space.
    pub from: SpaceId,
    /// Destination space.
    pub to: SpaceId,
    /// Medium.
    pub kind: HopKind,
}

/// How inter-slave transfers are routed (Fig. 9's `MtoS` / `StoS` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaveRouting {
    /// All slave↔slave data is relayed through the master node.
    ViaMaster,
    /// Slaves exchange data directly.
    Direct,
}

/// The space tree plus routing policy.
#[derive(Debug, Clone)]
pub struct Topology {
    /// GPU space → its node's host space.
    parent: FxHashMap<SpaceId, SpaceId>,
    /// The master node's host space (the root; home copies live here).
    master_host: SpaceId,
    /// Inter-slave routing mode.
    pub routing: SlaveRouting,
}

impl Topology {
    /// Build a topology rooted at `master_host`.
    pub fn new(master_host: SpaceId, routing: SlaveRouting) -> Self {
        Topology { parent: FxHashMap::default(), master_host, routing }
    }

    /// Register a GPU space under its node host space.
    pub fn add_gpu(&mut self, gpu: SpaceId, host: SpaceId) {
        self.parent.insert(gpu, host);
    }

    /// The root (master host) space.
    pub fn root(&self) -> SpaceId {
        self.master_host
    }

    /// The host space a space belongs to (itself if it is a host).
    pub fn host_of(&self, space: SpaceId) -> SpaceId {
        *self.parent.get(&space).unwrap_or(&space)
    }

    /// Immediate parent in the cache hierarchy: a GPU's node host, a
    /// slave host's master host. The root has no parent.
    pub fn parent_of(&self, space: SpaceId) -> Option<SpaceId> {
        if let Some(&h) = self.parent.get(&space) {
            return Some(h);
        }
        if space != self.master_host {
            return Some(self.master_host);
        }
        None
    }

    /// True if `space` is a GPU space.
    pub fn is_gpu(&self, space: SpaceId) -> bool {
        self.parent.contains_key(&space)
    }

    /// The hop sequence moving data from `src` to `dst`.
    ///
    /// `src == dst` yields an empty route. Host↔host hops respect the
    /// [`SlaveRouting`] mode.
    pub fn route(&self, src: SpaceId, dst: SpaceId) -> Vec<Hop> {
        self.hops(src, dst).collect()
    }

    /// The hops of [`route`](Self::route), in order, without
    /// allocating: at most four (PCIe out, two relayed network legs,
    /// PCIe in).
    pub(crate) fn hops(&self, src: SpaceId, dst: SpaceId) -> impl Iterator<Item = Hop> {
        let mut hops = [None; 4];
        if src != dst {
            let src_host = self.host_of(src);
            let dst_host = self.host_of(dst);
            if src != src_host {
                hops[0] = Some(Hop { from: src, to: src_host, kind: HopKind::Pcie });
            }
            if src_host != dst_host {
                let relay = self.routing == SlaveRouting::ViaMaster
                    && src_host != self.master_host
                    && dst_host != self.master_host;
                let net = |from, to| Some(Hop { from, to, kind: HopKind::Network });
                if relay {
                    hops[1] = net(src_host, self.master_host);
                    hops[2] = net(self.master_host, dst_host);
                } else {
                    hops[1] = net(src_host, dst_host);
                }
            }
            if dst != dst_host {
                hops[3] = Some(Hop { from: dst_host, to: dst, kind: HopKind::Pcie });
            }
        }
        hops.into_iter().flatten()
    }

    /// Number of hops from `src` to `dst` (route-length metric used to
    /// pick the nearest source copy): `route(src, dst).len()`, counted
    /// without building the route.
    pub fn distance(&self, src: SpaceId, dst: SpaceId) -> usize {
        self.hops(src, dst).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// master host = 0, slave hosts = 1, 2; gpus: 10 under 0, 11 under 1.
    fn topo(routing: SlaveRouting) -> Topology {
        let mut t = Topology::new(SpaceId(0), routing);
        t.add_gpu(SpaceId(10), SpaceId(0));
        t.add_gpu(SpaceId(11), SpaceId(1));
        t
    }

    #[test]
    fn same_space_has_empty_route() {
        assert!(topo(SlaveRouting::Direct).route(SpaceId(1), SpaceId(1)).is_empty());
    }

    #[test]
    fn host_to_its_gpu_is_one_pcie_hop() {
        let t = topo(SlaveRouting::Direct);
        let r = t.route(SpaceId(0), SpaceId(10));
        assert_eq!(r, vec![Hop { from: SpaceId(0), to: SpaceId(10), kind: HopKind::Pcie }]);
    }

    #[test]
    fn master_to_slave_gpu_is_net_then_pcie() {
        let t = topo(SlaveRouting::Direct);
        let r = t.route(SpaceId(0), SpaceId(11));
        assert_eq!(
            r,
            vec![
                Hop { from: SpaceId(0), to: SpaceId(1), kind: HopKind::Network },
                Hop { from: SpaceId(1), to: SpaceId(11), kind: HopKind::Pcie },
            ]
        );
    }

    #[test]
    fn slave_gpu_to_other_slave_direct() {
        let t = topo(SlaveRouting::Direct);
        let r = t.route(SpaceId(11), SpaceId(2));
        assert_eq!(
            r,
            vec![
                Hop { from: SpaceId(11), to: SpaceId(1), kind: HopKind::Pcie },
                Hop { from: SpaceId(1), to: SpaceId(2), kind: HopKind::Network },
            ]
        );
    }

    #[test]
    fn slave_to_slave_via_master_relays() {
        let t = topo(SlaveRouting::ViaMaster);
        let r = t.route(SpaceId(1), SpaceId(2));
        assert_eq!(
            r,
            vec![
                Hop { from: SpaceId(1), to: SpaceId(0), kind: HopKind::Network },
                Hop { from: SpaceId(0), to: SpaceId(2), kind: HopKind::Network },
            ]
        );
    }

    #[test]
    fn master_endpoint_never_relays() {
        let t = topo(SlaveRouting::ViaMaster);
        // master→slave and slave→master stay single network hops.
        assert_eq!(t.route(SpaceId(0), SpaceId(2)).len(), 1);
        assert_eq!(t.route(SpaceId(2), SpaceId(0)).len(), 1);
    }

    #[test]
    fn parent_chain() {
        let t = topo(SlaveRouting::Direct);
        assert_eq!(t.parent_of(SpaceId(11)), Some(SpaceId(1)));
        assert_eq!(t.parent_of(SpaceId(1)), Some(SpaceId(0)));
        assert_eq!(t.parent_of(SpaceId(0)), None);
        assert!(t.is_gpu(SpaceId(10)));
        assert!(!t.is_gpu(SpaceId(1)));
        assert_eq!(t.host_of(SpaceId(11)), SpaceId(1));
        assert_eq!(t.host_of(SpaceId(2)), SpaceId(2));
    }

    #[test]
    fn distance_metric() {
        let t = topo(SlaveRouting::Direct);
        assert_eq!(t.distance(SpaceId(0), SpaceId(0)), 0);
        assert_eq!(t.distance(SpaceId(0), SpaceId(10)), 1);
        assert_eq!(t.distance(SpaceId(10), SpaceId(11)), 3); // pcie+net+pcie
        let tv = topo(SlaveRouting::ViaMaster);
        assert_eq!(tv.distance(SpaceId(11), SpaceId(2)), 3); // pcie + 2 net...
    }
}
