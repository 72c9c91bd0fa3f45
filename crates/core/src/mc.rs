//! Model checking on quantum transition systems: reachability via repeated
//! image computation, and invariant checking — the application that
//! motivates image computation in the first place (Section I).
//!
//! # Semi-naive iteration
//!
//! The reachable space is the least fixpoint `S0 v T(S0) v T^2(S0) v ...`.
//! The transformer is linear on subspaces, `T(A v B) = T(A) v T(B)`, so
//! with `S_j = S_{j-1} v Δ_j`, where the frontier `Δ_j` is spanned by the
//! basis kets iteration `j` added, `T(S_j) = T(S_{j-1}) v T(Δ_j)`, and
//! `T(S_{j-1})` already lies in `S_j`. Only the frontier ever needs an
//! image: each iteration images `Δ` (initially `S0`), absorbs every image
//! vector straight into `S` by one Gram–Schmidt step, and takes the kets
//! it added as the next frontier; the fixpoint is reached when nothing
//! was added. The step's residual goes through `S`'s projector while it
//! is kept and otherwise takes two rounds of classical Gram–Schmidt
//! against `S`'s basis, each one batched float walk for the coefficients
//! and one linear combination (see [`crate::Subspace`]). This is the frontier-set trick of BDD reachability (Burch,
//! Clarke, McMillan et al., 1990). It computes the same chain `S_j` as
//! iterating `S <- S v T(S)` on the whole space, so the dimensions and
//! iteration counts are those of the whole-space iteration.
//!
//! # The chain
//!
//! Every reachability bound and every invariant asks about the same chain
//! `S0 ⊆ S1 ⊆ ... ⊆ S_L`, so the fixpoint core works on one: the furthest
//! space `S_L` computed (its basis is `S0`'s followed by the frontiers
//! `Δ_1, ..., Δ_L`, so each `S_j` is a prefix of it), `dim S_j` after each
//! iteration, and whether `S_L` is the fixpoint. A bound `b <= L` is read
//! off it — `S_b` is its first `dim S_b` kets, with the projector built on
//! demand — and a larger bound extends it semi-naively from its last
//! frontier. Either way the answer is the one a fresh run gives:
//! `min(b, L)` iterations, converged iff the chain converged at some
//! `L <= b` and `b >= 1`. [`ReachabilityResult::stats`] lists only the
//! images the call computed.
//!
//! [`crate::Engine`] keeps its system's chain for the whole session, next
//! to the compiled branches and held wherever they are held, so one
//! fixpoint answers every later [`crate::Engine::reachable_space`],
//! [`crate::Engine::check_invariant`] and pool reachability or invariant
//! job. Changing the session strategy drops it, as does a collection run
//! through [`crate::Engine::manager_mut`] that sweeps it, and so does an
//! error or cancellation during an extension, which never leaves a
//! half-absorbed frontier behind. [`try_reachable_space`],
//! [`try_check_invariant`] and [`crate::Engine::resume_reachable_space`]
//! run on a chain of their own that they drop at the end.
//!
//! # Garbage collection
//!
//! A reachability fixpoint runs many images on one manager, and every
//! dead intermediate of every iteration stays resident until a collection
//! sweeps it. Nothing here collects: the drivers poll only for
//! cancellation, inside each image and between iterations
//! ([`qits_tdd::TddManager::poll_cancel`]). A long fixpoint that must stay
//! small grows its bound in steps and collects between them:
//!
//! ```
//! use qits::EngineBuilder;
//! use qits_circuit::generators;
//!
//! let mut engine = EngineBuilder::new()
//!     .build_from_spec(&generators::qrw(4, 0.5))
//!     .unwrap();
//! let mut bound = 0;
//! let r = loop {
//!     bound += 4;
//!     let r = engine.reachable_space(bound).unwrap();
//!     // The session's chain survives the collection; the next call
//!     // extends it from where this one stopped.
//!     engine.collect(&[]);
//!     if r.converged {
//!         break r;
//!     }
//! };
//! assert_eq!(r.space.dim(), 16);
//! ```
//!
//! A run compiles each Kraus branch once, on its first image, and every
//! later iteration reuses the compiled network and operator tensors (see
//! [`crate::try_image`]); [`crate::Engine`] keeps them for the whole
//! session.

use qits_tdd::{Edge, EdgeHolder, TddManager};

use crate::error::QitsError;
use crate::image::{try_image_into, Compiled, ImageStats, Strategy};
use crate::qts::QuantumTransitionSystem;
use crate::subspace::{ensure_live, Subspace};

/// Result of a reachability analysis bounded by `max_iterations`.
#[derive(Debug, Clone)]
pub struct ReachabilityResult {
    /// The space after `iterations` iterations: the least fixpoint
    /// `S0 v T(S0) v T^2(S0) v ...` when `converged`.
    pub space: Subspace,
    /// The iterations of the answer: how many images a fresh run from `S0`
    /// computes under the same bound, whether or not this call computed
    /// them (see [`ReachabilityResult::stats`]).
    pub iterations: usize,
    /// Whether the fixpoint was reached (false: `max_iterations` hit).
    pub converged: bool,
    /// The images this call computed, one per iteration it ran; each
    /// one's `output_dim` is the size of the frontier that iteration
    /// added. Empty when the answer was read off a session's chain.
    pub stats: Vec<ImageStats>,
}

/// The image chain `S0 ⊆ S1 ⊆ ... ⊆ S_L` of one system (see the module
/// docs): the furthest space computed, the dimension after each
/// iteration, and whether the last space is the fixpoint. Every bound
/// `b <= L` is read off it, and a larger one extends it from its last
/// frontier.
#[derive(Debug, Clone)]
pub(crate) struct Chain {
    /// `S_L`. Its basis is the starting space's followed by the frontiers
    /// `Δ_1, ..., Δ_L` in order, so `S_j` is spanned by its first
    /// `dims[j]` kets.
    space: Subspace,
    /// `dims[j] = dim S_j` for `j = 0..=L`.
    dims: Vec<usize>,
    /// Whether `S_L` is the fixpoint: the start was full (`L = 0`), or
    /// iteration `L` added nothing or filled the register.
    converged: bool,
}

impl Chain {
    /// A chain that starts at `start` and has computed no image yet; its
    /// first frontier is the whole of `start`.
    pub(crate) fn new(start: Subspace) -> Chain {
        Chain {
            dims: vec![start.dim()],
            space: start,
            converged: false,
        }
    }

    /// `L`, the iterations computed so far.
    fn len(&self) -> usize {
        self.dims.len() - 1
    }

    /// The answer of a fresh run bounded by `b`, once the chain has been
    /// extended to `b` or has converged: `S_min(b, L)`, converged iff the
    /// chain converged within the bound and the bound allows an
    /// iteration (a bound of 0 never converges).
    fn answer_at(&self, m: &TddManager, b: usize) -> (Subspace, usize, bool) {
        let l = self.len();
        if b < l {
            return (self.space.prefix(m, self.dims[b]), b, false);
        }
        (self.space.clone(), l, self.converged && b >= 1)
    }
}

impl EdgeHolder for Chain {
    fn gc_edges(&self, visit: &mut dyn FnMut(Edge)) {
        self.space.gc_edges(visit);
    }
}

/// Computes the reachable subspace of `qts` by semi-naive iteration (see
/// the module docs) until an iteration adds nothing.
///
/// The dimension is bounded by `2^n`, so with enough iterations this
/// always converges; `max_iterations` guards runtime. A space that has
/// grown to the full `2^n` dimension short-circuits: the image of the full
/// space is contained in it by construction, so the final image
/// computation is skipped.
///
/// Every condition the image kernel reports as a [`QitsError`] surfaces
/// here. The run compiles the system's branches once, for all its
/// iterations, and builds a chain of its own that it drops at the end.
/// [`crate::Engine::reachable_space`] runs the same fixpoint on the
/// session's chain and compiled branches, with arena/cancel guard and
/// stats sink.
pub fn try_reachable_space(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    strategy: Strategy,
    max_iterations: usize,
) -> Result<ReachabilityResult, QitsError> {
    fixpoint_with(
        m,
        qts,
        max_iterations,
        &mut Compiled::new(strategy),
        &mut Chain::new(qts.initial().clone()),
    )
}

/// The fixpoint core behind [`try_reachable_space`],
/// [`try_check_invariant`] and every [`crate::Engine`] fixpoint: extends
/// `chain` to `max_iterations` iterations (or to its fixpoint, if that
/// comes first), then reads the answer at `max_iterations` off it.
///
/// Each iteration images the chain's last frontier and absorbs the image
/// into the chain's space by the image kernel, and each iteration that
/// does not reach the fixpoint polls for cancellation after it. The
/// branches of the system's operations are compiled into `compiled` (for
/// its strategy) by the first image that reaches them. A chain that
/// already reaches the bound computes nothing: a bound below its length
/// answers with the prefix subspace `S_b`.
///
/// An error or unwind leaves `chain` with a half-absorbed frontier: the
/// caller must drop it. A chain started at a checkpointed `S_j` instead of
/// `S0` resumes that run ([`crate::Engine::resume_reachable_space`]):
/// its first frontier is the whole of `S_j`, which is sound because the
/// closure is monotone — `S_j` already contains `S0` and lies inside the
/// fixpoint, so the first resumed iteration yields `S_j v T(S_j) =
/// S_{j+1}`, the space the uninterrupted run reached, and the rest walks
/// exactly the tail of the original chain. It only costs that one
/// whole-space image.
pub(crate) fn fixpoint_with(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    max_iterations: usize,
    compiled: &mut Compiled,
    chain: &mut Chain,
) -> Result<ReachabilityResult, QitsError> {
    let ops = qts.operations().clone();
    let mut stats = Vec::new();
    while !chain.converged && chain.len() < max_iterations {
        if chain.space.is_full() {
            // The space cannot grow further: skip the final image.
            chain.converged = true;
            break;
        }
        // The frontier: the kets the last iteration added, or the whole
        // starting space before the first.
        let from = match chain.len() {
            0 => 0,
            l => chain.dims[l - 1],
        };
        let frontier = chain.space.tail(m, from);
        let dim_before = chain.space.dim();
        let st = try_image_into(m, &ops, &frontier, &mut chain.space, compiled, &[qts])?;
        stats.push(st);
        chain.dims.push(chain.space.dim());
        // Nothing added is the fixpoint; so is a space that filled its
        // register, even on the very last permitted iteration.
        if chain.space.dim() == dim_before || chain.space.is_full() {
            chain.converged = true;
            break;
        }
        m.poll_cancel();
    }
    let (space, iterations, converged) = chain.answer_at(m, max_iterations);
    Ok(ReachabilityResult {
        space,
        iterations,
        converged,
        stats,
    })
}

/// Checks the safety property "every reachable state stays inside
/// `invariant`".
///
/// Returns the verdict plus the reachability result that witnessed it.
/// A `false` verdict with `converged = false` means the analysis was
/// truncated and the verdict is only valid for the explored prefix.
/// [`crate::Engine::check_invariant`] runs the same check on the
/// session's chain and compiled branches, with arena/cancel guard and
/// stats sink.
///
/// # Errors
///
/// [`QitsError::RegisterMismatch`] when the invariant's width differs from
/// the system's, [`QitsError::StaleHandle`] when a collection swept the
/// invariant's edges, and every condition the image kernel reports.
pub fn try_check_invariant(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    invariant: &Subspace,
    strategy: Strategy,
    max_iterations: usize,
) -> Result<(bool, ReachabilityResult), QitsError> {
    validate_invariant(m, qts, invariant)?;
    check_invariant_with(
        m,
        qts,
        invariant,
        max_iterations,
        &mut Compiled::new(strategy),
        &mut Chain::new(qts.initial().clone()),
    )
}

/// Refuses an invariant that cannot be checked against `qts`: one of
/// another width, or one a collection swept. Runs before any fixpoint
/// work, so a refusal leaves a session's chain untouched.
pub(crate) fn validate_invariant(
    m: &TddManager,
    qts: &QuantumTransitionSystem,
    invariant: &Subspace,
) -> Result<(), QitsError> {
    if invariant.n_qubits() != qts.n_qubits() {
        return Err(QitsError::RegisterMismatch {
            expected: qts.n_qubits(),
            found: invariant.n_qubits(),
            context: "the invariant subspace".to_string(),
        });
    }
    ensure_live(m, invariant, "the invariant subspace")
}

/// [`try_check_invariant`] on a given chain, with the branches compiled
/// into (or reused from) `compiled` — the session state of
/// [`crate::Engine`] — for an invariant [`validate_invariant`] accepted.
/// As with [`fixpoint_with`], an error leaves the chain unusable.
pub(crate) fn check_invariant_with(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    invariant: &Subspace,
    max_iterations: usize,
    compiled: &mut Compiled,
    chain: &mut Chain,
) -> Result<(bool, ReachabilityResult), QitsError> {
    let reach = fixpoint_with(m, qts, max_iterations, compiled, chain)?;
    let holds = reach.space.is_subspace_of(m, invariant);
    Ok((holds, reach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::try_image;
    use qits_circuit::generators;
    use qits_circuit::tensorize::states;

    #[test]
    fn grover_reaches_fixpoint_immediately() {
        // The Grover initial subspace is invariant: 1 iteration suffices.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::grover(3));
        let r =
            try_reachable_space(&mut m, &qts, Strategy::Contraction { k1: 2, k2: 2 }, 10).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        assert!(r.space.equals(&mut m, qts.initial()));
    }

    #[test]
    fn walk_reachable_space_grows_then_saturates() {
        // The noiseless+noisy walk spreads over the whole cycle; its
        // reachable space saturates at the full 2^n dimension eventually.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.5));
        let r =
            try_reachable_space(&mut m, &qts, Strategy::Contraction { k1: 2, k2: 2 }, 20).unwrap();
        assert!(r.converged);
        assert!(r.space.dim() > qts.initial().dim());
        // Fixpoint really is a fixpoint.
        let ops = qts.operations().clone();
        let (img, _) = try_image(
            &mut m,
            &ops,
            &r.space,
            Strategy::Contraction { k1: 2, k2: 2 },
        )
        .unwrap();
        assert!(img.is_subspace_of(&mut m, &r.space));
    }

    #[test]
    fn saturating_on_the_last_iteration_still_converges() {
        // The walk fills the 2^3-dimensional space; give it exactly as
        // many iterations as it needs and no spare one: fullness after
        // the final join must still report convergence.
        let mut probe = TddManager::new();
        let qts_probe = QuantumTransitionSystem::from_spec(&mut probe, &generators::qrw(3, 0.5));
        let full_run = try_reachable_space(
            &mut probe,
            &qts_probe,
            Strategy::Contraction { k1: 2, k2: 2 },
            20,
        )
        .unwrap();
        assert!(full_run.converged);
        assert_eq!(full_run.space.dim(), 8, "walk must fill the space");

        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.5));
        let tight = try_reachable_space(
            &mut m,
            &qts,
            Strategy::Contraction { k1: 2, k2: 2 },
            full_run.iterations,
        )
        .unwrap();
        assert_eq!(tight.space.dim(), 8);
        assert!(
            tight.converged,
            "saturating exactly at max_iterations proves the fixpoint"
        );
    }

    #[test]
    fn full_space_short_circuits_without_an_image() {
        // Starting from the full space, the fixpoint is immediate and no
        // image computation runs at all.
        let mut m = TddManager::new();
        let full = Subspace::full(&mut m, 2);
        let op = qits_circuit::Operation::from_circuit("id", &{
            let mut c = qits_circuit::Circuit::new(2);
            c.push(qits_circuit::Gate::h(0));
            c
        });
        let qts = QuantumTransitionSystem::new(2, vec![op], full);
        let r = try_reachable_space(&mut m, &qts, Strategy::Basic, 10).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0, "full space needs no image computation");
        assert_eq!(r.space.dim(), 4);
    }

    #[test]
    fn output_dim_counts_each_frontier() {
        // Every iteration's `output_dim` is the frontier it added to the
        // space. The walk fills its register, so every iteration added
        // kets and saturation, not an empty frontier, ended the run.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.5));
        let r =
            try_reachable_space(&mut m, &qts, Strategy::Contraction { k1: 2, k2: 2 }, 40).unwrap();
        assert!(r.converged);
        assert_eq!(r.space.dim(), 8);
        let added: usize = r.stats.iter().map(|st| st.output_dim).sum();
        assert_eq!(qts.initial().dim() + added, 8);
        assert!(r.stats.iter().all(|st| st.output_dim > 0));
    }

    #[test]
    fn ghz_goes_projector_free_and_the_walk_keeps_its_projector() {
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };
        let mut m = TddManager::new();
        let ghz = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(5));
        let r = try_reachable_space(&mut m, &ghz, strategy, 40).unwrap();
        assert!(r.converged);
        assert!(!r.space.keeps_projector());
        let walk = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(4, 0.5));
        let r = try_reachable_space(&mut m, &walk, strategy, 40).unwrap();
        assert!(r.converged);
        assert!(r.space.keeps_projector());
    }

    #[test]
    fn reachable_space_is_an_invariant() {
        // The reachable space itself always satisfies the invariant check.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
        let r = try_reachable_space(&mut m, &qts, Strategy::Basic, 20).unwrap();
        assert!(r.converged);
        let inv = r.space.clone();
        let (holds, r2) = try_check_invariant(&mut m, &qts, &inv, Strategy::Basic, 20).unwrap();
        assert!(holds);
        assert!(r2.converged);
        assert_eq!(r2.space.dim(), r.space.dim());
    }

    #[test]
    fn invariant_violated_when_too_small() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
        // The initial state alone is not invariant under GHZ preparation.
        let vars = Subspace::ket_vars(3);
        let zero_ket = m.product_ket(&vars, &[states::ZERO; 3]);
        let only_zero = Subspace::from_states(&mut m, 3, &[zero_ket]);
        let (holds, _) =
            try_check_invariant(&mut m, &qts, &only_zero, Strategy::Basic, 10).unwrap();
        assert!(!holds);
    }

    #[test]
    fn invariant_on_another_register_is_a_mismatch() {
        // An invariant on a narrower or wider register asks about another
        // system: refuse it before the fixpoint runs.
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::ghz(3));
        for width in [2, 5] {
            let inv = Subspace::full(&mut m, width);
            let err = try_check_invariant(&mut m, &qts, &inv, Strategy::Basic, 10).unwrap_err();
            assert!(
                matches!(
                    err,
                    QitsError::RegisterMismatch {
                        expected: 3,
                        found,
                        ..
                    } if found == width
                ),
                "width {width}: {err}"
            );
        }
    }

    #[test]
    fn max_iterations_truncates() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(4, 0.5));
        let r =
            try_reachable_space(&mut m, &qts, Strategy::Contraction { k1: 2, k2: 2 }, 1).unwrap();
        assert!(!r.converged);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn gc_between_iterations_matches_grow_only_run() {
        // The same fixpoint, grown one iteration at a time with a
        // collection between the steps, and in one grow-only run:
        // identical space, nodes actually reclaimed, smaller final arena.
        let spec = generators::qrw(3, 0.5);
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };

        let mut m_plain = TddManager::new();
        let qts_plain = QuantumTransitionSystem::from_spec(&mut m_plain, &spec);
        let r_plain = try_reachable_space(&mut m_plain, &qts_plain, strategy, 20).unwrap();

        let mut engine = crate::EngineBuilder::new()
            .strategy(strategy)
            .build_from_spec(&spec)
            .unwrap();
        let mut reclaimed = 0;
        let mut bound = 0;
        let r_gc = loop {
            bound += 1;
            let r = engine.reachable_space(bound).unwrap();
            reclaimed += engine.collect(&[]).reclaimed;
            if r.converged {
                break r;
            }
        };
        assert_eq!(r_gc.iterations, r_plain.iterations);
        assert_eq!(r_plain.space.dim(), r_gc.space.dim());
        assert!(reclaimed > 0, "iterations must produce garbage");
        let m_gc = engine.manager();
        assert!(
            m_gc.arena_len() < m_plain.arena_len(),
            "the stepped run must end with a smaller arena: {} vs {}",
            m_gc.arena_len(),
            m_plain.arena_len()
        );
        // The held structures are untouched by the collections: the
        // fixpoint is a fixpoint and the initial space is contained in it.
        let initial = engine.initial().clone();
        assert!(initial.is_subspace_of(engine.manager_mut(), &r_gc.space));
        let (img, _) = engine.image_of(&r_gc.space).unwrap();
        assert!(img.is_subspace_of(engine.manager_mut(), &r_gc.space));
    }

    #[test]
    fn gc_keeps_the_checked_invariant_valid() {
        let mut engine = crate::EngineBuilder::new()
            .strategy(Strategy::Contraction { k1: 2, k2: 2 })
            .build_from_spec(&generators::qrw(3, 0.3))
            .unwrap();
        let vars = Subspace::ket_vars(3);
        let m = engine.manager_mut();
        let bad_ket = m.basis_ket(&vars, &[true, false, false]);
        let bad = Subspace::from_states(m, 3, &[bad_ket]);
        let safe = bad.complement(m);
        let mut bound = 0;
        let (holds, r) = loop {
            bound += 1;
            let (holds, r) = engine.check_invariant(&safe, bound).unwrap();
            assert!(engine.collect(&[&safe]).reclaimed > 0);
            if r.converged {
                break (holds, r);
            }
        };
        assert!(r.converged);
        assert!(!holds, "the walk eventually reaches the bad state");
        // `safe` rode through every collection untouched: it still has
        // dimension 7 and still excludes the bad state.
        assert_eq!(safe.dim(), 7);
        let m = engine.manager_mut();
        let bad_again = m.basis_ket(&vars, &[true, false, false]);
        assert!(!safe.contains(m, bad_again));
    }
}
