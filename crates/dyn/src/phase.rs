//! Where one batch's wall time went, for the
//! `mcm_dyn_phase_seconds{phase}` histogram family both engines export.

use std::time::Instant;

/// A stage of one batch. Not every engine has every phase: the weighted
/// engine runs no global sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Graph edits, summed over every staged run of the batch.
    Stage,
    /// Classification and the local repair searches (cardinality), or the
    /// ε-CS check and the forward/reverse auction (weighted).
    Local,
    /// Global alternating sweeps for interior inserts (cardinality).
    Sweep,
    /// The batch's certificate and accounting, plus full verification
    /// when it is on.
    Certify,
    /// Warm serial MS-BFS (cardinality) or the cold auction (weighted).
    Fallback,
}

impl Phase {
    const ALL: [Phase; 5] =
        [Phase::Stage, Phase::Local, Phase::Sweep, Phase::Certify, Phase::Fallback];

    fn label(self) -> &'static str {
        match self {
            Phase::Stage => "stage",
            Phase::Local => "local",
            Phase::Sweep => "sweep",
            Phase::Certify => "certify",
            Phase::Fallback => "fallback",
        }
    }
}

/// Lap timer over one batch's close: each [`lap`](PhaseClock::lap)
/// charges the time since the previous one to a phase.
pub(crate) struct PhaseClock {
    last: Instant,
    ns: [u64; Phase::ALL.len()],
}

impl PhaseClock {
    /// Starts timing now, with `stage_ns` already charged to
    /// [`Phase::Stage`].
    pub(crate) fn new(stage_ns: u64) -> Self {
        let mut ns = [0; Phase::ALL.len()];
        ns[Phase::Stage as usize] = stage_ns;
        Self { last: Instant::now(), ns }
    }

    /// Charges the time since the previous lap to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.ns[phase as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Staging plus every lap so far.
    pub(crate) fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// One observation per phase the engine has — zero when this batch
    /// skipped it — so each phase's mean is its share of the mean batch.
    pub(crate) fn observe(&self, sweeps: bool) {
        for phase in Phase::ALL {
            if sweeps || phase != Phase::Sweep {
                mcm_obs::observe_ns(
                    "mcm_dyn_phase_seconds",
                    &[("phase", phase.label())],
                    self.ns[phase as usize],
                );
            }
        }
    }
}
