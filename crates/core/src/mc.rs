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
//! was added. This is the frontier-set trick of BDD reachability (Burch,
//! Clarke, McMillan et al., 1990). It computes the same chain `S_j` as
//! iterating `S <- S v T(S)` on the whole space, so the dimensions and
//! iteration counts are those of the whole-space iteration.
//!
//! # Garbage collection
//!
//! A reachability fixpoint runs many images on one manager, and without
//! reclamation every dead intermediate of every iteration stays
//! resident. The drivers here are GC-aware on two levels when the manager
//! has a [`qits_tdd::GcPolicy`] installed:
//!
//! * **inside** each image call, the kernel polls its own safepoints (see
//!   [`crate::try_image`]) with the frontier and the reachable space among
//!   the mark roots; the drivers keep the transition system and any
//!   invariant under check alive across those collections by rooting them
//!   ([`qits_tdd::TddManager::protect`]) for the duration of the call;
//! * **between** iterations, the drivers poll the same safepoint entry
//!   ([`qits_tdd::TddManager::maybe_collect_at_safepoint`]) with the full
//!   live set as [`qits_tdd::EdgeHolder`]s — the system, the working
//!   space, and the kept subspaces.
//!
//! Collection never moves a node, so callers' structures are untouched by
//! a run — every edge they held going in is bit-identical coming out.
//! With no policy installed (the default), behaviour is identical to the
//! grow-only node store.

use qits_tdd::{EdgeHolder, TddManager};

use crate::error::QitsError;
use crate::image::{try_image_into, ImageStats, Strategy};
use crate::qts::QuantumTransitionSystem;
use crate::subspace::Subspace;

/// Result of a reachability analysis.
#[derive(Debug, Clone)]
pub struct ReachabilityResult {
    /// The least fixpoint `S0 v T(S0) v T^2(S0) v ...`.
    pub space: Subspace,
    /// Number of image computations performed.
    pub iterations: usize,
    /// Whether the fixpoint was reached (false: `max_iterations` hit).
    pub converged: bool,
    /// Per-iteration statistics; each one's `output_dim` is the size of
    /// the frontier that iteration added.
    pub stats: Vec<ImageStats>,
    /// Garbage collections performed by the driver: between iterations
    /// plus the in-image safepoint collections of every image call.
    pub collections: usize,
    /// Nodes reclaimed by those collections (in-image safepoint reclaim
    /// included).
    pub reclaimed_nodes: u64,
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
/// here. [`crate::Engine::reachable_space`] wraps this with the session's
/// rooting, arena/cancel guard and stats sink.
pub fn try_reachable_space(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    strategy: Strategy,
    max_iterations: usize,
) -> Result<ReachabilityResult, QitsError> {
    fixpoint_with(m, qts, strategy, max_iterations, &[], None)
}

/// The fixpoint core behind [`try_reachable_space`],
/// [`try_check_invariant`] and [`crate::Engine::resume_reachable_space`]:
/// semi-naive iteration (see the module docs) with each frontier's image
/// absorbed into the reachable space by the image kernel, rooting the
/// system and the `kept` subspaces across in-image safepoints and polling
/// the between-iteration safepoint with the full live set.
///
/// `start` overrides the starting space (default: the system's initial
/// subspace) — the resume path of [`crate::Engine::resume_reachable_space`].
/// The first frontier is the whole starting space. Resuming from a
/// checkpointed `S_j` with `Δ = S_j` is sound because the closure is
/// monotone: `S_j` already contains `S0` and lies inside the fixpoint, so
/// the first resumed iteration yields `S_j v T(S_j) = S_{j+1}` — the same
/// space the uninterrupted run reached — and the rest walks exactly the
/// tail of the original chain. It only costs that one whole-space image.
pub(crate) fn fixpoint_with(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    strategy: Strategy,
    max_iterations: usize,
    kept: &[&Subspace],
    start: Option<Subspace>,
) -> Result<ReachabilityResult, QitsError> {
    let ops = qts.operations().clone();
    let mut space = start.unwrap_or_else(|| qts.initial().clone());
    // Basis kets from this index on are the frontier.
    let mut frontier_start = 0;
    let mut stats = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let mut collections = 0usize;
    let mut reclaimed_nodes = 0u64;
    while iterations < max_iterations {
        if space.is_full() {
            // The space cannot grow further: skip the final image.
            converged = true;
            break;
        }
        let frontier = space.tail(m, frontier_start);
        let dim_before = space.dim();
        // The image call may collect at its internal safepoints, which
        // keep the frontier and the space; the system's initial subspace
        // and the kept subspaces are live but not part of the call, so
        // root them across it.
        let st = {
            let mut roots = qts.protect(m);
            for s in kept {
                roots.extend(s.protect(m));
            }
            let result = try_image_into(m, &ops, &frontier, &mut space, strategy);
            m.unprotect_all(roots);
            result?
        };
        collections += st.safepoint_collections as usize;
        reclaimed_nodes += st.reclaimed_nodes;
        iterations += 1;
        stats.push(st);
        if space.dim() == dim_before {
            converged = true;
            break;
        }
        frontier_start = dim_before;
        // Re-check fullness right after the absorb: saturating on the
        // very last permitted iteration is still a proven fixpoint.
        if space.is_full() {
            converged = true;
            break;
        }
        // Between iterations every intermediate (images, slices, residuals)
        // is garbage; only the system, the working space, and the kept
        // subspaces are live. This is a safepoint like the in-image ones:
        // poll the policy through the same entry.
        let mut holders: Vec<&dyn EdgeHolder> = vec![qts, &space];
        holders.extend(kept.iter().map(|s| *s as &dyn EdgeHolder));
        if let Some(out) = m.maybe_collect_at_safepoint(&holders) {
            collections += 1;
            reclaimed_nodes += out.reclaimed as u64;
        }
    }
    Ok(ReachabilityResult {
        space,
        iterations,
        converged,
        stats,
        collections,
        reclaimed_nodes,
    })
}

/// Checks the safety property "every reachable state stays inside
/// `invariant`", keeping the invariant rooted across the whole run.
///
/// Returns the verdict plus the reachability result that witnessed it.
/// A `false` verdict with `converged = false` means the analysis was
/// truncated and the verdict is only valid for the explored prefix.
/// [`crate::Engine::check_invariant`] wraps this with the session's
/// rooting, arena/cancel guard and stats sink.
///
/// # Errors
///
/// [`QitsError::RegisterMismatch`] when the invariant's width differs from
/// the system's, and every condition the image kernel reports.
pub fn try_check_invariant(
    m: &mut TddManager,
    qts: &QuantumTransitionSystem,
    invariant: &Subspace,
    strategy: Strategy,
    max_iterations: usize,
) -> Result<(bool, ReachabilityResult), QitsError> {
    if invariant.n_qubits() != qts.n_qubits() {
        return Err(QitsError::RegisterMismatch {
            expected: qts.n_qubits(),
            found: invariant.n_qubits(),
            context: "the invariant subspace".to_string(),
        });
    }
    let reach = fixpoint_with(m, qts, strategy, max_iterations, &[invariant], None)?;
    let holds = reach.space.is_subspace_of(m, invariant);
    Ok((holds, reach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::try_image;
    use qits_circuit::generators;
    use qits_circuit::tensorize::states;
    use qits_tdd::GcPolicy;

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
        // The same fixpoint, with and without an aggressive GC policy:
        // identical space, nodes actually reclaimed, smaller final arena.
        let spec = generators::qrw(3, 0.5);
        let strategy = Strategy::Contraction { k1: 2, k2: 2 };

        let mut m_plain = TddManager::new();
        let qts_plain = QuantumTransitionSystem::from_spec(&mut m_plain, &spec);
        let r_plain = try_reachable_space(&mut m_plain, &qts_plain, strategy, 20).unwrap();

        let mut m_gc = TddManager::new();
        let qts_gc = QuantumTransitionSystem::from_spec(&mut m_gc, &spec);
        m_gc.set_gc_policy(Some(GcPolicy::aggressive()));
        let r_gc = try_reachable_space(&mut m_gc, &qts_gc, strategy, 20).unwrap();

        assert!(r_gc.converged);
        assert_eq!(r_plain.space.dim(), r_gc.space.dim());
        assert!(r_gc.collections > 0, "aggressive policy must collect");
        assert!(r_gc.reclaimed_nodes > 0, "iterations must produce garbage");
        assert!(
            m_gc.arena_len() < m_plain.arena_len(),
            "GC run must end with a smaller arena: {} vs {}",
            m_gc.arena_len(),
            m_plain.arena_len()
        );
        // The held structures are untouched by the collections: the
        // fixpoint is a fixpoint and the initial space is contained in it.
        assert!(qts_gc
            .initial()
            .clone()
            .is_subspace_of(&mut m_gc, &r_gc.space));
        let ops = qts_gc.operations().clone();
        let (img, _) = try_image(&mut m_gc, &ops, &r_gc.space, strategy).unwrap();
        assert!(img.is_subspace_of(&mut m_gc, &r_gc.space));
    }

    #[test]
    fn gc_keeps_the_checked_invariant_valid() {
        let mut m = TddManager::new();
        let qts = QuantumTransitionSystem::from_spec(&mut m, &generators::qrw(3, 0.3));
        m.set_gc_policy(Some(GcPolicy::aggressive()));
        let vars = Subspace::ket_vars(3);
        let bad_ket = m.basis_ket(&vars, &[true, false, false]);
        let bad = Subspace::from_states(&mut m, 3, &[bad_ket]);
        let safe = bad.complement(&mut m);
        let (holds, r) = try_check_invariant(
            &mut m,
            &qts,
            &safe,
            Strategy::Contraction { k1: 2, k2: 2 },
            20,
        )
        .unwrap();
        assert!(r.converged);
        assert!(!holds, "the walk eventually reaches the bad state");
        assert!(r.collections > 0);
        // `safe` rode through every collection untouched: it still has
        // dimension 7 and still excludes the bad state.
        assert_eq!(safe.dim(), 7);
        let bad_again = m.basis_ket(&vars, &[true, false, false]);
        assert!(!safe.contains(&mut m, bad_again));
    }
}
