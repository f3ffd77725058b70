//! Deterministic fault injection: the `ompss-chaos` fault plan.
//!
//! A [`FaultPlan`] is plain data — a seed, per-class rates and forced
//! counts — so a configuration that carries one names exactly one run,
//! however often it is cloned or replayed. Each run turns its plan into
//! a live [`FaultStream`], the seeded oracle the device layers (fabric,
//! GPU engines, SMP workers) consult at well-defined injection points.
//! Each decision is a pure function of `(seed, fault class, per-class
//! draw counter)` — no wall clock, no OS randomness — so a faulted run
//! replays *exactly*: the DES kernel serialises all processes, which
//! makes the consultation order itself deterministic, and the fault
//! stream with it.
//!
//! The stream only decides *whether* a fault fires; each layer
//! implements the fault's mechanics (dropping a message, failing a
//! kernel launch) and the runtime implements recovery (retry,
//! re-execution, migration). Layers that were handed no stream take the
//! exact legacy code path — zero cost when chaos is off.

use std::cell::Cell;
use std::rc::Rc;

/// The failure classes the injector knows how to produce, one per
/// device-dependent mechanism of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// `net`: a fabric message vanishes after occupying the wire.
    NetDrop = 0,
    /// `net`: a fabric message is delivered twice.
    NetDup = 1,
    /// `net`: a fabric message suffers bounded extra latency.
    NetDelay = 2,
    /// `cudasim`: a kernel launch fails (no effect runs).
    KernelFail = 3,
    /// `cudasim`: an async copy corrupts its payload (bytes must not be
    /// consumed; the copy reports failure instead of silently lying).
    CopyCorrupt = 4,
    /// `cudasim`: a whole device is lost (Xid-style, permanent).
    DeviceLoss = 5,
    /// `sim`: an SMP resource stalls for bounded extra virtual time.
    SimStall = 6,
    /// `sim`: an SMP task times out — its body never runs this attempt.
    SimTimeout = 7,
    /// `runtime`: a whole slave node dies — its GPUs, host space,
    /// in-flight messages and queued tasks — at a planned virtual
    /// instant. Never drawn from the rate stream: the runtime's
    /// node-loss setting names one exact `(node, instant)`, and the
    /// kill is recorded with [`FaultStream::note_injected`].
    NodeLoss = 8,
}

/// All classes, in discriminant order (report/iteration order).
pub const FAULT_CLASSES: [FaultClass; 9] = [
    FaultClass::NetDrop,
    FaultClass::NetDup,
    FaultClass::NetDelay,
    FaultClass::KernelFail,
    FaultClass::CopyCorrupt,
    FaultClass::DeviceLoss,
    FaultClass::SimStall,
    FaultClass::SimTimeout,
    FaultClass::NodeLoss,
];

impl FaultClass {
    /// Stable lowercase name (JSON report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::NetDrop => "net_drop",
            FaultClass::NetDup => "net_dup",
            FaultClass::NetDelay => "net_delay",
            FaultClass::KernelFail => "kernel_fail",
            FaultClass::CopyCorrupt => "copy_corrupt",
            FaultClass::DeviceLoss => "device_loss",
            FaultClass::SimStall => "sim_stall",
            FaultClass::SimTimeout => "sim_timeout",
            FaultClass::NodeLoss => "node_loss",
        }
    }
}

const N: usize = FAULT_CLASSES.len();

/// A seeded, deterministic fault schedule: which classes fire at what
/// rate, and how many leading draws of each are forced. Plain data —
/// building a run's [`FaultStream`] never changes it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// The headline rate [`new`](FaultPlan::new) derived `rates` from.
    rate: f64,
    rates: [f64; N],
    /// First `force[c]` draws of class `c` fire unconditionally —
    /// targeted unit tests script exact fault sequences with this.
    force: [u64; N],
}

impl FaultPlan {
    /// Derive per-class rates from one headline `rate` (the
    /// `OMPSS_FAULT_RATE` knob): message-level and kernel-level faults
    /// fire at the headline rate, duplications/corruptions at half of
    /// it, device loss and timeouts far more rarely — losing a device
    /// per message would leave nothing to recover onto.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let mut rates = [0.0; N];
        rates[FaultClass::NetDrop as usize] = rate;
        rates[FaultClass::NetDup as usize] = rate / 2.0;
        rates[FaultClass::NetDelay as usize] = rate;
        rates[FaultClass::KernelFail as usize] = rate;
        rates[FaultClass::CopyCorrupt as usize] = rate / 2.0;
        rates[FaultClass::DeviceLoss as usize] = rate / 8.0;
        rates[FaultClass::SimStall as usize] = rate;
        rates[FaultClass::SimTimeout as usize] = rate / 4.0;
        // NodeLoss stays at rate 0: whole-node kills are planned by the
        // runtime, never drawn — keeping the rate-sweep streams of the
        // other classes byte-identical to pre-node-loss plans.
        rates[FaultClass::NodeLoss as usize] = 0.0;
        Self { seed, rate, rates, force: [0; N] }
    }

    /// A plan that never fires on its own — combine with
    /// [`with_forced`](FaultPlan::with_forced) to script exact faults.
    pub fn quiet(seed: u64) -> Self {
        Self::new(seed, 0.0)
    }

    /// Override one class's rate.
    pub fn with_rate(mut self, class: FaultClass, rate: f64) -> Self {
        self.rates[class as usize] = rate.clamp(0.0, 1.0);
        self
    }

    /// Force the first `n` draws of `class` to fire.
    pub fn with_forced(mut self, class: FaultClass, n: u64) -> Self {
        self.force[class as usize] = n;
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The headline rate this plan was built from; per-class
    /// [`with_rate`](FaultPlan::with_rate) overrides do not change it.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// A fresh live stream of this plan, positioned at draw 0 of every
    /// class: one per run, shared by that run's injection points.
    pub fn stream(&self) -> FaultStream {
        FaultStream(Rc::new(Live {
            plan: self.clone(),
            draws: Default::default(),
            injected: Default::default(),
        }))
    }
}

/// One run's live fault stream: the plan plus its draw and injection
/// counts. Clones share the counts. Like the run that consults it, it
/// stays on the simulation thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// assert_send(ompss_sim::FaultPlan::quiet(1).stream());
/// ```
#[derive(Debug, Clone)]
pub struct FaultStream(Rc<Live>);

#[derive(Debug)]
struct Live {
    plan: FaultPlan,
    /// Draws consulted per class (the deterministic stream position).
    draws: [Cell<u64>; N],
    /// Faults actually injected per class.
    injected: [Cell<u64>; N],
}

impl FaultStream {
    /// Record that a planned (non-drawn) fault of `class` was injected —
    /// the node-kill daemon calls this at the kill instant so the stats
    /// count the loss without consuming a rate-stream draw.
    pub fn note_injected(&self, class: FaultClass) {
        bump(&self.0.injected[class as usize]);
    }

    /// Should the next fault of `class` fire? Pure in `(seed, class,
    /// draw index)`; each call advances that class's draw counter.
    pub fn decide(&self, class: FaultClass) -> bool {
        let (c, live) = (class as usize, &*self.0);
        let i = live.draws[c].get();
        bump(&live.draws[c]);
        let fire = i < live.plan.force[c]
            || unit(splitmix64(
                live.plan.seed
                    ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ i.wrapping_mul(2)
                    ^ 1,
            )) < live.plan.rates[c];
        if fire {
            bump(&live.injected[c]);
        }
        fire
    }

    /// A deterministic magnitude in `[0, 1)` for a bounded fault (extra
    /// delay, stall length). Its own stream, so interleaving decide and
    /// fraction calls cannot shift either.
    pub fn fraction(&self, class: FaultClass) -> f64 {
        let (c, live) = (class as usize, &*self.0);
        unit(splitmix64(
            live.plan.seed
                ^ (c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                ^ live.draws[c].get().wrapping_mul(2),
        ))
    }

    /// Per-class draw and injection counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.0.injected.each_ref().map(Cell::get),
            draws: self.0.draws.each_ref().map(Cell::get),
        }
    }
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// Frozen per-class injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected, indexed by `FaultClass as usize`.
    pub injected: [u64; N],
    /// Injection points consulted, indexed by `FaultClass as usize`.
    pub draws: [u64; N],
}

impl FaultStats {
    /// Injections of one class.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.injected[class as usize]
    }

    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// Cluster-wide guard that keeps at least one CUDA device alive: device
/// loss is only allowed while more than one survivor remains, so
/// migration always has somewhere to go and "graceful degradation"
/// cannot degrade to "no GPUs at all". Per run, so single-threaded.
#[derive(Debug)]
pub struct DeviceFuse {
    survivors: Cell<u64>,
}

impl DeviceFuse {
    /// A fuse over `devices` CUDA devices.
    pub fn new(devices: u64) -> Rc<Self> {
        Rc::new(DeviceFuse { survivors: Cell::new(devices) })
    }

    /// Try to claim one device loss. Fails (returns `false`) when it
    /// would leave fewer than one survivor.
    pub fn try_claim(&self) -> bool {
        let cur = self.survivors.get();
        if cur <= 1 {
            return false;
        }
        self.survivors.set(cur - 1);
        true
    }

    /// Devices still alive.
    pub fn survivors(&self) -> u64 {
        self.survivors.get()
    }
}

/// `splitmix64` mix step — the same generator the scheduler's tie-break
/// seeding uses, here keyed per (seed, class, draw).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a u64 to `[0, 1)` with 53-bit precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_stream_is_deterministic() {
        let plan = FaultPlan::new(42, 0.3);
        let (a, b) = (plan.stream(), plan.stream());
        let sa: Vec<bool> = (0..256).map(|_| a.decide(FaultClass::NetDrop)).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.decide(FaultClass::NetDrop)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "rate 0.3 over 256 draws must fire at least once");
        assert!(!sa.iter().all(|&f| f), "rate 0.3 must not fire every time");
    }

    #[test]
    fn classes_draw_independent_streams() {
        let p = FaultPlan::new(7, 0.5).stream();
        let drops: Vec<bool> = (0..64).map(|_| p.decide(FaultClass::NetDrop)).collect();
        let dups: Vec<bool> = (0..64).map(|_| p.decide(FaultClass::NetDup)).collect();
        assert_ne!(drops, dups);
        let q = FaultPlan::new(7, 0.5).stream();
        // Interleaved consultation must not shift either stream.
        let mut drops2 = Vec::new();
        let mut dups2 = Vec::new();
        for _ in 0..64 {
            drops2.push(q.decide(FaultClass::NetDrop));
            dups2.push(q.decide(FaultClass::NetDup));
        }
        assert_eq!(drops, drops2);
        assert_eq!(dups, dups2);
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let p = FaultPlan::new(1, 0.0).stream();
        assert!((0..128).all(|_| !p.decide(FaultClass::KernelFail)));
        let p = FaultPlan::new(1, 1.0).stream();
        assert!((0..128).all(|_| p.decide(FaultClass::KernelFail)));
        assert_eq!(p.stats().count(FaultClass::KernelFail), 128);
    }

    #[test]
    fn forced_draws_fire_then_revert_to_rate() {
        let p = FaultPlan::quiet(9).with_forced(FaultClass::NetDrop, 3).stream();
        let s: Vec<bool> = (0..8).map(|_| p.decide(FaultClass::NetDrop)).collect();
        assert_eq!(s, [true, true, true, false, false, false, false, false]);
        assert_eq!(p.stats().count(FaultClass::NetDrop), 3);
        assert_eq!(p.stats().draws[FaultClass::NetDrop as usize], 8);
    }

    #[test]
    fn fraction_is_bounded_and_deterministic() {
        let (p, q) = (FaultPlan::new(3, 0.5).stream(), FaultPlan::new(3, 0.5).stream());
        for _ in 0..32 {
            let (fp, fq) = (p.fraction(FaultClass::NetDelay), q.fraction(FaultClass::NetDelay));
            assert_eq!(fp, fq);
            assert!((0.0..1.0).contains(&fp));
            p.decide(FaultClass::NetDelay);
            q.decide(FaultClass::NetDelay);
        }
    }

    #[test]
    fn node_loss_is_never_drawn_only_noted() {
        let p = FaultPlan::new(11, 1.0).stream();
        assert!(!p.decide(FaultClass::NodeLoss), "node loss never rides the rate stream");
        assert_eq!(p.stats().count(FaultClass::NodeLoss), 0);
        p.note_injected(FaultClass::NodeLoss);
        assert_eq!(p.stats().count(FaultClass::NodeLoss), 1);
    }

    #[test]
    fn each_stream_starts_at_draw_zero() {
        let plan = FaultPlan::quiet(3).with_forced(FaultClass::KernelFail, 1);
        let first = plan.stream();
        assert!(first.decide(FaultClass::KernelFail));
        assert!(!first.decide(FaultClass::KernelFail));
        let second = plan.stream();
        assert!(second.decide(FaultClass::KernelFail), "a new run replays the forced draw");
        assert_eq!(first.stats().draws[FaultClass::KernelFail as usize], 2);
        assert_eq!(second.stats().draws[FaultClass::KernelFail as usize], 1);
    }

    #[test]
    fn fuse_keeps_one_survivor() {
        let f = DeviceFuse::new(3);
        assert!(f.try_claim());
        assert!(f.try_claim());
        assert!(!f.try_claim(), "last survivor must be protected");
        assert_eq!(f.survivors(), 1);
    }
}
