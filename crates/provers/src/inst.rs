//! The quantifier-instantiation pass behind `by inst x := "w"` hints (§3.5).
//!
//! Universally quantified assumptions are the classic automation cliff of linked-data-
//! structure proofs: the resolution prover must find the instantiation by unification
//! within its budget, the SMT interface only tries ground candidate terms already
//! occurring in the sequent, and BAPA/MONA approximate quantified assumptions away
//! entirely. When the needed witness is a *compound* term (`content Int bucket`,
//! `old content Un {x}`), none of them find it, and the spec has to be hand-weakened.
//!
//! An [`Hint::Inst`](jahob_vcgen::Hint) hint closes that gap: for every assumption of
//! the hinted sequent whose (comment-stripped) top level is `ALL ... x ... . body` with
//! `x` the hinted variable, [`apply_inst_hints`] appends the specialised assumption
//! `ALL rest. body[x := w]` — tagged `comment ''inst:x''` so its provenance stays
//! visible. Universal instantiation is sound unconditionally, and the original
//! assumption is kept, so the pass only ever *adds* logically implied assumptions.
//!
//! Because the dispatcher applies this pass **before** feature extraction, routing,
//! and cache keying, the instantiated sequent is what
//! [`SequentFeatures`](jahob_logic::SequentFeatures), the router,
//! and [`SequentKey`](crate::SequentKey) all see:
//! two obligations differing only in their witness can never alias to one cache
//! entry, and a hint that turns a quantified sequent into a ground BAPA one also
//! re-routes it accordingly.
//!
//! The witness is typechecked before substitution: the specialised assumption must
//! infer consistently as a boolean (so `inst s := "3"` against a set-quantified
//! assumption adds nothing instead of producing an ill-typed formula no prover can
//! translate). Hints are advice — an unknown variable, or a witness that fits no
//! universal assumption, simply leaves the sequent unchanged, and the dispatcher's
//! full-sequent retry keeps completeness.

use jahob_logic::form::{Binder, Const, Form, Ident};
use jahob_logic::subst::{free_vars, fresh_name, substitute, substitute_one, Subst};
use jahob_logic::typecheck::{infer, TypeEnv};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use jahob_vcgen::Hint;

/// Prefix of the comment label tagging an assumption produced by instantiation
/// (`comment ''inst:x'' ...`) — the same tag the hint encoding uses, re-exported so
/// the two can never drift apart.
pub use jahob_vcgen::INST_HINT_PREFIX as INST_COMMENT_PREFIX;

/// Specialises the universally quantified assumptions of `sequent` according to the
/// [`Hint::Inst`] hints in `hints`. For every universal assumption, **all** hinted
/// variables bound by its binder are substituted simultaneously (so
/// `by inst s := "a", inst t := "b"` on `ALL s t. F` yields the fully ground
/// `F[s := a, t := b]`, not two partially instantiated universals), and one instance
/// is appended per matching assumption. Non-instantiation hints are ignored; a
/// sequent without matching universal assumptions is returned unchanged (hints are
/// advice, never a restriction).
///
/// Run this on the sequent returned by
/// [`ProofObligation::hinted_sequent_with_lemmas`](jahob_vcgen::ProofObligation::hinted_sequent_with_lemmas),
/// so lemma assumptions injected by `by lemma Name` are specialised too.
pub fn apply_inst_hints(sequent: &Sequent, hints: &[Hint]) -> Sequent {
    let insts: Vec<(&str, &Form)> = hints
        .iter()
        .filter_map(|h| match h {
            Hint::Inst { var, witness } => Some((var.as_str(), witness)),
            _ => None,
        })
        .collect();
    if insts.is_empty() {
        return sequent.clone();
    }
    let mut out = sequent.clone();
    for assumption in &sequent.assumptions {
        let mut universals = Vec::new();
        collect_universals(assumption, &mut universals);
        for universal in universals {
            let Form::Binder(Binder::Forall, vars, body) = universal else {
                continue;
            };
            if let Some(instance) = instantiate(vars, body, &insts) {
                out.assumptions.push(instance);
            } else {
                // The joint instance did not typecheck (one witness is ill-fitting):
                // fall back to the individually valid hints so one bad witness does
                // not discard the others.
                for inst in &insts {
                    if let Some(instance) = instantiate(vars, body, std::slice::from_ref(inst)) {
                        out.assumptions.push(instance);
                    }
                }
            }
        }
    }
    out
}

/// Builds the instance of one universal (`ALL vars. body`): every hinted variable
/// bound by the binder is substituted simultaneously, the remaining variables stay
/// quantified (renamed if a witness mentions their name, so re-binding them cannot
/// capture witness variables). Returns `None` when no hint applies or the
/// specialised assumption does not typecheck.
fn instantiate(vars: &[(Ident, Type)], body: &Form, insts: &[(&str, &Form)]) -> Option<Form> {
    let applicable: Vec<(&str, &Form)> = insts
        .iter()
        .filter(|(var, _)| vars.iter().any(|(v, _)| v == var))
        .copied()
        .collect();
    if applicable.is_empty() {
        return None;
    }
    let witness_fvs: std::collections::BTreeSet<Ident> =
        applicable.iter().flat_map(|(_, w)| free_vars(w)).collect();
    let mut body = body.clone();
    let mut rest: Vec<(Ident, Type)> = Vec::new();
    for (name, ty) in vars {
        if applicable.iter().any(|(var, _)| var == name) {
            continue;
        }
        if witness_fvs.contains(name) {
            // A remaining binder variable shares its name with a free variable of a
            // witness: rename it, or re-binding it below would capture the witness.
            let mut avoid = witness_fvs.clone();
            avoid.extend(free_vars(&body));
            let fresh = fresh_name(name, &avoid);
            body = substitute_one(&body, name, &Form::var(fresh.clone()));
            rest.push((fresh, ty.clone()));
        } else {
            rest.push((name.clone(), ty.clone()));
        }
    }
    let substitution: Subst = applicable
        .iter()
        .map(|(var, witness)| (var.to_string(), (*witness).clone()))
        .collect();
    let instance = Form::forall_many(rest, substitute(&body, &substitution));
    // The witnesses are "typechecked" in context: the specialised assumption must
    // still infer as a consistent boolean. (The binder's declared type alone is not
    // reliable — unannotated binders carry parser type variables — but an ill-fitting
    // witness always breaks inference of the substituted body.)
    if infer(&instance, &TypeEnv::standard()).is_err() {
        return None;
    }
    let vars_tag: Vec<&str> = applicable.iter().map(|(var, _)| *var).collect();
    Some(Form::comment(
        format!("{INST_COMMENT_PREFIX}{}", vars_tag.join(",")),
        instance,
    ))
}

/// Collects the universally quantified formulas sitting at assumption positions of
/// `form`: the form itself, or any conjunct reachable through comment labels and
/// conjunctions. A `requires` clause arrives as one labelled conjunction
/// (`comment ''pre'' (comment ''cap'' (ALL ...) & 0 <= used)`), so matching only the
/// comment-stripped top level would miss every universal written alongside another
/// conjunct. Each collected formula is an assumption-position conjunct, so
/// instantiating it is still plain universal instantiation.
fn collect_universals<'a>(form: &'a Form, out: &mut Vec<&'a Form>) {
    let (_, inner) = form.strip_comments();
    if matches!(inner, Form::Binder(Binder::Forall, _, _)) {
        out.push(inner);
    } else if let Some(conjuncts) = inner.as_app_of(&Const::And) {
        for conjunct in conjuncts {
            collect_universals(conjunct, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(assumptions.iter().map(|a| p(a)).collect(), p(goal))
    }

    #[test]
    fn instantiates_matching_universal_assumptions() {
        let s = seq(
            &[
                "comment ''capBound'' (ALL s. s subseteq content --> card s <= used)",
                "ground = True",
            ],
            "card (content Int m) <= used",
        );
        let hinted = apply_inst_hints(&s, &[Hint::inst("s", p("content Int m"))]);
        assert_eq!(hinted.assumptions.len(), 3);
        assert_eq!(
            hinted.assumptions[2],
            Form::comment(
                "inst:s",
                p("(content Int m) subseteq content --> card (content Int m) <= used")
            )
        );
        // The original universal assumption is kept — instantiation only adds.
        assert_eq!(hinted.assumptions[0], s.assumptions[0]);
    }

    #[test]
    fn instantiates_one_variable_of_a_multi_binder_and_keeps_the_rest() {
        let s = seq(&["ALL x y. x : a --> (x, y) : r"], "q");
        let hinted = apply_inst_hints(&s, &[Hint::inst("x", p("elem"))]);
        assert_eq!(hinted.assumptions.len(), 2);
        // Compare printed forms: parser type-variable ids differ between parses.
        assert_eq!(
            hinted.assumptions[1].to_string(),
            Form::comment("inst:x", p("ALL y. elem : a --> (elem, y) : r")).to_string()
        );
    }

    #[test]
    fn unknown_variables_and_non_universal_assumptions_are_ignored() {
        let s = seq(&["ALL x. x : a", "ground = True"], "q");
        let unknown = apply_inst_hints(&s, &[Hint::inst("zz", p("elem"))]);
        assert_eq!(unknown, s, "no universal binds `zz`: the hint is inert");
        let labels_only = apply_inst_hints(&s, &[Hint::label("ground")]);
        assert_eq!(labels_only, s, "non-inst hints never touch the sequent");
    }

    #[test]
    fn ill_typed_witnesses_are_rejected_not_substituted() {
        let s = seq(
            &["ALL s. s subseteq content --> card s <= used"],
            "card content <= used",
        );
        // An integer witness for a set-quantified variable would produce
        // `3 subseteq content`, which cannot be consistently typed.
        let hinted = apply_inst_hints(&s, &[Hint::inst("s", p("3"))]);
        assert_eq!(hinted, s, "ill-typed witness must not be substituted");
    }

    #[test]
    fn hints_for_several_variables_of_one_binder_substitute_jointly() {
        let s = seq(&["ALL x y. (x, y) : r --> x : a"], "q");
        let hinted = apply_inst_hints(&s, &[Hint::inst("x", p("u")), Hint::inst("y", p("v"))]);
        assert_eq!(hinted.assumptions.len(), 2);
        assert_eq!(
            hinted.assumptions[1],
            Form::comment("inst:x,y", p("(u, v) : r --> u : a")),
            "both witnesses must land in one fully ground instance"
        );
    }

    #[test]
    fn an_ill_typed_witness_does_not_discard_the_valid_ones() {
        let s = seq(&["ALL s n. card (content Int s) <= n"], "q");
        // `s := 3` is ill-fitting (int where a set is used); `n := used` is fine.
        // The joint instance fails to typecheck, but the valid hint still applies.
        let hinted = apply_inst_hints(&s, &[Hint::inst("s", p("3")), Hint::inst("n", p("used"))]);
        assert_eq!(hinted.assumptions.len(), 2);
        assert_eq!(
            hinted.assumptions[1].to_string(),
            Form::comment("inst:n", p("ALL s. card (content Int s) <= used")).to_string()
        );
    }

    #[test]
    fn every_matching_assumption_is_instantiated() {
        let s = seq(
            &["ALL x. x : a --> x : b", "ALL x. x : b --> x : c"],
            "elem : c",
        );
        let hinted = apply_inst_hints(&s, &[Hint::inst("x", p("elem"))]);
        assert_eq!(hinted.assumptions.len(), 4);
    }

    #[test]
    fn capture_is_avoided_when_the_witness_mentions_inner_binders() {
        // Witness `y` must not be captured by the inner `EX y`.
        let s = seq(&["ALL x. EX y. x ~= y"], "q");
        let hinted = apply_inst_hints(&s, &[Hint::inst("x", p("y"))]);
        assert_eq!(hinted.assumptions.len(), 2);
        let (_, inner) = hinted.assumptions[1].strip_comments();
        // The inner existential was renamed away from `y`.
        let Form::Binder(Binder::Exists, vars, _) = inner else {
            panic!("expected an existential, got {inner}");
        };
        assert_ne!(vars[0].0, "y");
    }
}
