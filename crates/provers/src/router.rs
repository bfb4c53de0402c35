//! Feature-directed prover routing (§5.2).
//!
//! The dispatcher's global prover order is one fixed bet: cheap and specialised first.
//! But the *right* order is a property of the sequent, not of the run — the paper's own
//! premise is that each specialised logic (MONA, BAPA, SMT, FOL) has a syntactically
//! recognisable fragment. This module scores a sequent's [`SequentFeatures`] per prover
//! and produces a per-obligation cascade order:
//!
//! * provers whose fragment the sequent matches are promoted (highest score first,
//!   global order breaking ties);
//! * provers scored *hopeless* for the sequent (e.g. MONA on a cardinality sequent —
//!   WS1S has no `card`) are demoted behind everything else, **not dropped**: they
//!   still run, in global order, if every promoted prover fails.
//!
//! A fragment counts only where the prover's translator keeps it. Reachability is
//! MONA's in the paper, but this MONA's translator approximates `rtrancl_pt` away, so
//! nothing promotes MONA on it: the step lambda leaves MONA in the fallback tail,
//! behind FOL, which proves such sequents.
//!
//! Because [`route`] always returns a permutation of the global order, routing can
//! change which prover is credited and how many attempts are spent, but never which
//! sequents end up proved — the routing differential test pins this.

use crate::ProverId;
use jahob_logic::SequentFeatures;

/// Score of one prover for one sequent: `None` marks the prover hopeless for the
/// sequent's fragment (demoted to the fallback tail); `Some(s)` promotes it, higher
/// `s` earlier. The constants only encode a relative order; ties fall back to the
/// global order.
fn score(prover: ProverId, f: &SequentFeatures) -> Option<u32> {
    match prover {
        // The syntactic prover costs microseconds and discharges the bulk of all
        // sequents; it is always worth running first.
        ProverId::Syntactic => Some(1000),
        // The lemma-library lookup is cheap but should not steal credit from the
        // automatic provers; keep it at the end of the promoted cascade, as in the
        // global order.
        ProverId::Interactive => Some(1),
        ProverId::Bapa => {
            if f.card_atoms > 0 {
                // Cardinality is BAPA's signature atom — nothing else decides it.
                Some(95)
            } else if f.set_atoms > 0 && f.is_ground() {
                Some(55)
            } else if f.set_atoms > 0 {
                // Quantified set structure: the polarity approximation may still leave
                // a useful BAPA core.
                Some(35)
            } else {
                // No set vocabulary at all: the Venn-region reduction has nothing to
                // work on (pure arithmetic is the SMT prover's job).
                None
            }
        }
        ProverId::Mona => {
            if f.card_atoms > 0 || f.arith_atoms > 0 || f.tuples > 0 || f.lambdas > 0 {
                // Outside WS1S: no cardinality, no arithmetic beyond successor, no
                // relational (tuple) state, no higher-order binders. MONA's translator
                // approximates these atoms away, so it can only fail on what rests on
                // them. Reachability lands here too, through `rtrancl_pt`'s step
                // lambda, which the translator approximates away (see the module doc).
                None
            } else if f.memberships > 0 {
                // Monadic membership shape is *decidable* by MONA, but SMT and FOL
                // prove such sequents too, and MONA's attempts mostly fail: on
                // `reject_mutants` at seed 1 none of its 33 attempts a pass proves
                // anything, at 0.2–1.1 ms each (median 0.5 ms), while a proof of a
                // small monadic sequent takes 17–62 µs (2-core box, release build).
                // Keep MONA behind the bounded provers.
                Some(45)
            } else {
                None
            }
        }
        ProverId::Smt => {
            if f.is_ground() && (f.arith_atoms > 0 || f.equalities > 0) {
                Some(85)
            } else if f.arith_atoms > 0 || f.equalities > 0 || f.field_ops > 0 {
                // Quantified but with ground vocabulary: instantiation may find the
                // ground core.
                Some(60)
            } else {
                // General-purpose fallback (DPLL on the propositional skeleton).
                Some(30)
            }
        }
        ProverId::Fol => {
            if f.quantifiers > 0 {
                Some(50)
            } else if f.field_ops > 0 {
                Some(45)
            } else {
                // Resolution is the most expensive reasoner; on ground sequents it
                // only duplicates what the SMT prover decides faster.
                Some(15)
            }
        }
    }
}

/// Routes one sequent: returns a **permutation** of `global` — promoted provers first
/// (score descending, global position breaking ties), then the provers scored hopeless
/// for this sequent, in global order, as the fallback tail. No prover is ever dropped,
/// so a router miss degrades to the global cascade instead of losing a proof.
pub fn route(features: &SequentFeatures, global: &[ProverId]) -> Vec<ProverId> {
    let mut promoted: Vec<(u32, usize, ProverId)> = Vec::with_capacity(global.len());
    let mut fallback: Vec<ProverId> = Vec::new();
    for (position, prover) in global.iter().enumerate() {
        match score(*prover, features) {
            Some(s) => promoted.push((s, position, *prover)),
            None => fallback.push(*prover),
        }
    }
    // Sort by score descending; equal scores keep their global relative order.
    promoted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut order: Vec<ProverId> = promoted.into_iter().map(|(_, _, p)| p).collect();
    order.extend(fallback);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dispatcher, DispatcherConfig, ProverContext};
    use jahob_logic::{parse_form, Sequent};
    use jahob_vcgen::ProofObligation;

    fn features(assumptions: &[&str], goal: &str) -> SequentFeatures {
        SequentFeatures::of(&Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        ))
    }

    fn position(order: &[ProverId], p: ProverId) -> usize {
        order.iter().position(|q| *q == p).expect("prover present")
    }

    #[test]
    fn routing_is_always_a_permutation_of_the_global_order() {
        let global = ProverId::default_order();
        for f in [
            features(&[], "p"),
            features(&["size = card content"], "size + 1 = card (content Un {x})"),
            features(
                &["ALL x. x : nodes --> x : alloc", "n : nodes"],
                "n : alloc",
            ),
            features(&["x = y + 1"], "1 <= x"),
            features(&["(k, v) : content"], "EX w. (k, w) : content"),
        ] {
            let mut routed = route(&f, &global);
            assert_eq!(routed.len(), global.len());
            routed.sort();
            let mut sorted = global.clone();
            sorted.sort();
            assert_eq!(routed, sorted, "route dropped or duplicated a prover");
        }
    }

    #[test]
    fn cardinality_sequents_promote_bapa_and_demote_mona() {
        let f = features(
            &["size = card content", "x ~: content"],
            "size + 1 = card (content Un {x})",
        );
        let order = route(&f, &ProverId::default_order());
        assert_eq!(order[0], ProverId::Syntactic);
        assert_eq!(
            order[1],
            ProverId::Bapa,
            "card atoms promote BAPA: {order:?}"
        );
        assert!(
            position(&order, ProverId::Mona) > position(&order, ProverId::Fol),
            "MONA is hopeless on cardinality sequents and must trail the cascade: {order:?}"
        );
    }

    #[test]
    fn ground_arithmetic_promotes_smt_before_bapa_and_fol() {
        let f = features(&["x = y + 1", "0 <= y"], "1 <= x");
        let order = route(&f, &ProverId::default_order());
        assert_eq!(order[0], ProverId::Syntactic);
        assert_eq!(order[1], ProverId::Smt);
        assert!(position(&order, ProverId::Smt) < position(&order, ProverId::Fol));
        assert!(
            position(&order, ProverId::Mona) > position(&order, ProverId::Interactive),
            "arithmetic prunes MONA into the fallback tail: {order:?}"
        );
    }

    #[test]
    fn monadic_membership_keeps_mona_promoted_but_behind_bounded_provers() {
        let f = features(
            &["ALL x. x : nodes --> x : alloc", "n : nodes"],
            "n : alloc",
        );
        let order = route(&f, &ProverId::default_order());
        // Decidable by MONA, so it stays in the promoted cascade (ahead of the
        // general-purpose SMT fallback) — but behind FOL: MONA's attempts on wrong
        // programs fail (none of 33 a `reject_mutants` pass proves anything), at a
        // median 0.5 ms each.
        assert!(position(&order, ProverId::Mona) < position(&order, ProverId::Smt));
        assert!(position(&order, ProverId::Fol) < position(&order, ProverId::Mona));
    }

    #[test]
    fn reachability_ranks_fol_before_mona() {
        // MONA's translator approximates `rtrancl_pt` away, so reachability earns it
        // no promotion: the step lambda demotes MONA to the fallback tail, and FOL,
        // ranked ahead of it, is the prover that proves the sequent.
        let obligation = ProofObligation {
            sequent: Sequent::new(
                Vec::new(),
                parse_form("rtrancl_pt (% u v. u..next = v) root root").expect("parse"),
            ),
            hints: Vec::new(),
        };
        let order = route(
            &SequentFeatures::of(&obligation.sequent),
            &ProverId::default_order(),
        );
        assert!(
            position(&order, ProverId::Fol) < position(&order, ProverId::Mona),
            "{order:?}"
        );
        let report = Dispatcher::with_config(DispatcherConfig::builder().build())
            .prove_one(&obligation, &ProverContext::default());
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(report.per_prover[&ProverId::Fol].proved, 1, "{report:?}");
    }

    #[test]
    fn relational_tuples_prune_mona() {
        let f = features(&["(k, v) : content"], "EX w. (k, w) : content");
        let order = route(&f, &ProverId::default_order());
        assert!(
            position(&order, ProverId::Mona) > position(&order, ProverId::Interactive),
            "tuple state is not monadic: {order:?}"
        );
    }

    #[test]
    fn routing_respects_a_custom_global_order() {
        // Pure arithmetic scores both MONA and BAPA hopeless; the fallback tail keeps
        // the caller's global order.
        let f = features(&["0 <= x"], "0 <= x + 1");
        let order = route(&f, &[ProverId::Mona, ProverId::Bapa]);
        assert_eq!(order, vec![ProverId::Mona, ProverId::Bapa]);
    }
}
