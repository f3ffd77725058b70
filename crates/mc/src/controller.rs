//! Recording tie-break controller: the model checker's probe into the
//! executor. It replays a prescribed prefix of choices (taking the
//! default, lowest-sequence candidate beyond the prefix) while logging
//! every choice point's candidate set and every dispatched step's
//! footprint, which is exactly the information the DFS in
//! [`crate::explore()`] needs to backtrack and to maintain sleep sets.

use ompss_sim::{Pid, SimTime, StepFootprint, TieBreak};

/// One resolved choice point: the co-enabled candidate set (default
/// sequence order, so index 0 is the legacy schedule's pick) and the
/// index actually dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// Virtual time of the tie.
    pub time: SimTime,
    /// Co-enabled processes in default order.
    pub candidates: Vec<Pid>,
    /// Index into `candidates` that ran.
    pub chosen: usize,
}

/// A [`TieBreak`] that follows a prescribed choice prefix and records
/// the run.
#[derive(Default)]
pub struct RecordingController {
    prescribed: Vec<usize>,
    /// Every choice point hit, in order.
    pub choices: Vec<ChoiceRecord>,
    /// `segments[k]` holds the footprints of steps dispatched after
    /// choice `k-1` and before choice `k`; `segments[0]` precedes the
    /// first choice. Always `choices.len() + 1` entries, so
    /// `segments[k + 1]` starts with the footprint of the step chosen
    /// at choice `k`.
    pub segments: Vec<Vec<StepFootprint>>,
    /// Set when a prescribed index did not fit its candidate set — the
    /// program is not replay-deterministic (hidden nondeterminism).
    pub diverged: Option<String>,
}

impl RecordingController {
    /// A controller that replays `prescribed` and defaults beyond it.
    pub fn new(prescribed: Vec<usize>) -> Self {
        RecordingController {
            prescribed,
            choices: Vec::new(),
            segments: vec![Vec::new()],
            diverged: None,
        }
    }
}

impl TieBreak for RecordingController {
    fn choose(&mut self, now: SimTime, candidates: &[Pid]) -> usize {
        let idx = self.choices.len();
        let want = self.prescribed.get(idx).copied().unwrap_or(0);
        let pick = if want < candidates.len() {
            want
        } else {
            if self.diverged.is_none() {
                self.diverged = Some(format!(
                    "choice {idx} at t={}ns: prescribed index {want} but only {} candidates",
                    now.as_nanos(),
                    candidates.len()
                ));
            }
            0
        };
        self.choices.push(ChoiceRecord {
            time: now,
            candidates: candidates.to_vec(),
            chosen: pick,
        });
        self.segments.push(Vec::new());
        pick
    }

    fn observe(&mut self, step: StepFootprint) {
        self.segments.last_mut().expect("segments never empty").push(step);
    }
}
