//! The answered-property benchmark for qits.
//!
//! Model checking a quantum transition system is a chain of images that
//! ends in a verdict, so the unit a user waits on is an *answered
//! property*: a reachability fixpoint, an invariant verdict, an
//! equivalence, or a single image. Each workload answers a fixed set of
//! properties through the public API only (`qits_circuit::generators`,
//! `EngineSpec`, `run_job`, `EnginePool`), with the defaults `qits run`
//! uses, checks every answer, and times each layer from outside, at the
//! calls into it. See `README.md` for the workloads and metrics.

pub mod check;
pub mod deck;
pub mod measure;
pub mod serve;
pub mod systems;

use qits::QitsError;

use crate::deck::Deck;
use crate::measure::{Outcome, Trace};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReachEntangled,
    ImagePaper,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReachEntangled,
        Workload::ImagePaper,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReachEntangled => "reach-entangled",
            Workload::ImagePaper => "image-paper",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every generated input (serve-mixed's stream; the decks are
    /// fixed).
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// Runs one workload: what it measured, and its spans when traced.
pub fn run(workload: Workload, cfg: &RunConfig) -> Result<(Outcome, Option<Trace>), QitsError> {
    let deck = match workload {
        Workload::ReachEntangled => Deck::reach_entangled(),
        Workload::ImagePaper => Deck::image_paper(),
        Workload::ServeMixed => {
            let run = serve::run(cfg)?;
            return Ok((run.outcome(), run.trace));
        }
    };
    let run = deck::run(&deck, cfg)?;
    Ok((run.outcome(&deck), run.trace))
}
