//! Lineage-based reconstruction of data lost with a dead node.
//!
//! When a slave node dies, regions whose latest version had copies only
//! in that node's spaces are gone from the machine. The coherence purge
//! reports each such region with the best version still held by a
//! survivor; this module rebuilds the missing versions at the master's
//! home allocation by *re-executing the retained producer subgraph*:
//! the task graph's per-region writer history (recorded only when
//! node-loss chaos is armed, see `TaskGraph::enable_lineage`) names the
//! producer of every version, and replaying the master-side-*completed*
//! writers in version order on the home bytes reproduces the lost data
//! bit-identically — task bodies are deterministic functions of their
//! declared accesses.
//!
//! Replay happens at **zero virtual time** with raw memory operations:
//! it models the master recomputing from its own retained knowledge,
//! not cluster traffic. Consequently it must not draw faults, touch the
//! verify sink, or yield to the simulator.
//!
//! Writers past the completed prefix (they were running or queued on
//! the dead node) are *not* replayed: the master has already re-homed
//! them, so the directory version is rolled back to the rebuilt point
//! and ordinary re-execution re-commits the remaining versions on top —
//! replaying them here would apply their bodies twice.
//!
//! Everything that cannot be rebuilt soundly fails **closed** with
//! [`RunError::Exhausted`]: evicted history, a missing body, an input
//! whose home bytes have advanced past what the writer originally read,
//! cyclic lineage, or a reconstruction deeper than
//! [`LINEAGE_DEPTH_BUDGET`]. Wrong bytes are never an outcome.

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use ompss_coherence::LostRegion;
use ompss_core::{TaskId, TaskState};
use ompss_mem::Region;
use ompss_sim::{now, RunError};

use crate::engine::{MasterState, RtShared};
use crate::trace::TraceEvent;

/// Most completed producer tasks reconstruction may re-run per lost
/// region, and the writers per region the task graph retains for it.
pub(crate) const LINEAGE_DEPTH_BUDGET: u32 = 64;

/// Rebuild every region in `lost` at the root home. Called with the
/// master state borrowed and no simulator yields; on error the caller aborts the
/// run (fail closed).
pub(crate) fn reconstruct(
    shared: &Rc<RtShared>,
    m: &MasterState,
    lost: &[LostRegion],
) -> Result<(), RunError> {
    let mut r = Reconstructor {
        shared,
        m,
        lost: lost.iter().map(|l| (l.region, *l)).collect(),
        repaired: HashSet::new(),
        visiting: Vec::new(),
    };
    for l in lost {
        r.reconstruct_region(&l.region, 0)?;
    }
    Ok(())
}

struct Reconstructor<'a> {
    shared: &'a Rc<RtShared>,
    m: &'a MasterState,
    /// The purge report, keyed by region.
    lost: BTreeMap<Region, LostRegion>,
    /// Regions already rebuilt this pass.
    repaired: HashSet<Region>,
    /// Recursion stack for cycle detection.
    visiting: Vec<Region>,
}

impl Reconstructor<'_> {
    fn reconstruct_region(&mut self, region: &Region, depth: u32) -> Result<(), RunError> {
        if self.repaired.contains(region) {
            return Ok(());
        }
        if self.visiting.contains(region) {
            return Err(RunError::Exhausted {
                what: format!("acyclic lineage for {region}"),
                attempts: depth,
            });
        }
        if depth > LINEAGE_DEPTH_BUDGET {
            return Err(RunError::Exhausted {
                what: format!("lineage depth budget rebuilding {region}"),
                attempts: depth,
            });
        }
        let Some(lr) = self.lost.get(region).copied() else {
            // Not lost: nothing to rebuild (inputs are checked by
            // `ensure_input` against the live home state).
            return Ok(());
        };
        self.visiting.push(*region);
        let Some((mut version, _)) = self.shared.coh.pull_best_to_root(region) else {
            // No valid copy anywhere: the root home was mid-transfer
            // when its source died, so even its bytes are of unknown
            // version — replay could compound the damage.
            return Err(RunError::Exhausted {
                what: format!("surviving copies of {region}"),
                attempts: 0,
            });
        };
        if version < lr.latest {
            let m = self.m;
            let Some((writers, dropped)) = m.graph.writer_history(region) else {
                return Err(RunError::Exhausted {
                    what: format!("lineage history for {region} (lineage disabled)"),
                    attempts: 0,
                });
            };
            let writers: Vec<TaskId> = writers.to_vec();
            for v in (version + 1)..=lr.latest {
                if v <= dropped {
                    return Err(RunError::Exhausted {
                        what: format!("retained lineage for {region} version {v} (evicted)"),
                        attempts: dropped as u32,
                    });
                }
                let Some(&w) = writers.get((v - 1 - dropped) as usize) else { break };
                if m.graph.state(w) != TaskState::Completed {
                    // The remaining writers were stranded on the dead
                    // node and have been re-homed: rolling the version
                    // back to `v - 1` lets their re-execution re-commit
                    // from here instead of applying their bodies twice.
                    break;
                }
                self.replay(w, region, depth)?;
                version = v;
            }
        }
        self.shared.coh.repair_root(region, version);
        self.shared.counters.update(|c| c.bytes_reconstructed += region.len);
        self.visiting.pop();
        self.repaired.insert(*region);
        Ok(())
    }

    /// Re-run one completed writer of `target` on the home bytes. Side
    /// outputs (regions other than `target`) are diverted to scratch
    /// allocations so the replay cannot clobber newer home data — those
    /// regions are either live (already current) or rebuilt by their
    /// own writer chains.
    fn replay(&mut self, w: TaskId, target: &Region, depth: u32) -> Result<(), RunError> {
        let Some(rec) = self.m.records.get(&w).cloned() else {
            return Err(RunError::Exhausted {
                what: format!("task record for lineage writer t{}", w.0),
                attempts: 0,
            });
        };
        let Some(body) = rec.body.clone() else {
            return Err(RunError::Exhausted {
                what: format!("replayable body for lineage writer '{}' (t{})", rec.desc.label, w.0),
                attempts: 0,
            });
        };
        let accesses = rec.copy_accesses();
        let root = self.shared.hosts[0];
        let mut requests = Vec::with_capacity(accesses.len());
        let mut scratch = Vec::new();
        for a in &accesses {
            let info = self.shared.mem.data_info(a.region.data);
            if a.region == *target {
                requests.push((info.home_space, info.home_alloc, a.region.offset, a.region.len));
                continue;
            }
            if a.kind.reads() {
                self.ensure_input(&a.region, w, depth)?;
            }
            if a.kind.writes() {
                let Ok(sa) = self.shared.mem.alloc(root, a.region.len) else {
                    for &s in &scratch {
                        self.shared.mem.free(root, s);
                    }
                    return Err(RunError::Exhausted {
                        what: format!("scratch memory replaying lineage writer t{}", w.0),
                        attempts: 0,
                    });
                };
                // Seed with the home bytes so an inout side access reads
                // what the writer originally read (verified just above).
                self.shared.mem.copy(
                    (info.home_space, info.home_alloc),
                    a.region.offset,
                    (root, sa),
                    0,
                    a.region.len,
                );
                requests.push((root, sa, 0, a.region.len));
                scratch.push(sa);
            } else {
                requests.push((info.home_space, info.home_alloc, a.region.offset, a.region.len));
            }
        }
        self.shared.mem.with_bytes_many(&requests, |views| body(views));
        for sa in scratch {
            self.shared.mem.free(root, sa);
        }
        self.shared.counters.update(|c| c.tasks_relineaged += 1);
        if let Some(tr) = &self.shared.tracer {
            tr.record(TraceEvent::Recovery { kind: "relineage", task: Some(w.0), at: now() });
        }
        Ok(())
    }

    /// A region the replayed writer `w` reads must hold, at the root
    /// home, exactly the version `w` originally read — rebuild it first
    /// if it was lost, then verify by counting `w`'s predecessors in
    /// its writer history. A home that advanced past that (a later
    /// writer of the input already committed) cannot be rewound, so the
    /// reconstruction fails closed rather than replaying on newer data.
    fn ensure_input(&mut self, input: &Region, w: TaskId, depth: u32) -> Result<(), RunError> {
        if self.lost.contains_key(input) && !self.repaired.contains(input) {
            self.reconstruct_region(input, depth + 1)?;
        }
        let read = match self.m.graph.writer_history(input) {
            None => 0,
            Some((ws, dropped)) => dropped + ws.iter().filter(|t| t.0 < w.0).count() as u64,
        };
        if !self.shared.coh.has_region(input) {
            // Never acquired by any task: the home bytes are the
            // original data, i.e. version 0.
            if read == 0 {
                return Ok(());
            }
            return Err(RunError::Exhausted {
                what: format!("directory entry for lineage input {input}"),
                attempts: 0,
            });
        }
        // Materialise the freshest surviving bytes at the home (under
        // write-back caching the latest may be dirty on a live device).
        let Some((current, _)) = self.shared.coh.pull_best_to_root(input) else {
            return Err(RunError::Exhausted {
                what: format!("surviving copies of lineage input {input}"),
                attempts: 0,
            });
        };
        if current != read {
            return Err(RunError::Exhausted {
                what: format!(
                    "rewindable input {input}: home is at version {current}, writer t{} read {read}",
                    w.0
                ),
                attempts: 0,
            });
        }
        Ok(())
    }
}
