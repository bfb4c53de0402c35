//! Weakest preconditions (Figure 10) and splitting into sequents (Figure 13).

use crate::command::{DesugarEnv, Simple};
use jahob_logic::form::{Binder, Const, Form, Ident};
use jahob_logic::simplify::simplify;
use jahob_logic::subst::{fresh_name, substitute_one};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use std::collections::{BTreeMap, BTreeSet};

/// Prefix used internally to carry `by` hints through the weakest-precondition formula.
const HINT_LABEL_PREFIX: &str = "hint:";

/// Prefix marking a `by` hint that names a lemma from the interactive lemma library
/// rather than an assumption label (the frontend's `by lemma Name` syntax). The named
/// formula is injected as an extra assumption of the hinted sequent.
pub const LEMMA_HINT_PREFIX: &str = "lemma:";

/// Prefix marking a `by` hint that supplies a quantifier instantiation (the frontend's
/// `by inst x := "witness"` syntax). The payload is `var:=witness-text`; the witness
/// text is the printed form of the typechecked witness formula, re-parsed when the
/// splitter decodes the hint back out of the verification condition.
pub const INST_HINT_PREFIX: &str = "inst:";

/// One `by` hint attached to an `assert`/`note` goal (§3.5).
///
/// The paper's proof-hint language has three forms, and this enum replaces the earlier
/// stringly encoding (`Vec<String>` with `lemma:` prefixes) with one variant per form:
///
/// * [`Hint::Label`] — select the assumptions carrying this comment label;
/// * [`Hint::Lemma`] — inject a named lemma from the interactive library as an extra
///   assumption;
/// * [`Hint::Inst`] — specialise universally quantified assumptions (and injected
///   lemmas) that bind `var` by substituting `witness` for it, so a prover that cannot
///   guess the instantiation sees the ground instance it needs. The instantiation pass
///   itself lives in `jahob_provers::inst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hint {
    /// `by l`: keep the assumptions labelled `l`.
    Label(String),
    /// `by lemma Name`: inject the named library lemma as an assumption.
    Lemma(String),
    /// `by inst x := "w"`: instantiate universal assumptions binding `x` at `w`.
    Inst {
        /// The universally quantified variable to instantiate.
        var: String,
        /// The witness term substituted for `var`.
        witness: Form,
    },
}

impl Hint {
    /// Convenience constructor for a label hint.
    pub fn label(l: impl Into<String>) -> Hint {
        Hint::Label(l.into())
    }

    /// Convenience constructor for a lemma hint.
    pub fn lemma(name: impl Into<String>) -> Hint {
        Hint::Lemma(name.into())
    }

    /// Convenience constructor for an instantiation hint.
    pub fn inst(var: impl Into<String>, witness: Form) -> Hint {
        Hint::Inst {
            var: var.into(),
            witness,
        }
    }

    /// Returns `true` for instantiation hints.
    pub fn is_inst(&self) -> bool {
        matches!(self, Hint::Inst { .. })
    }

    /// The comment-payload token carrying this hint through the weakest-precondition
    /// formula (see [`Hint::decode`] for the inverse).
    pub fn encode(&self) -> String {
        match self {
            Hint::Label(l) => l.clone(),
            Hint::Lemma(name) => format!("{LEMMA_HINT_PREFIX}{name}"),
            Hint::Inst { var, witness } => format!("{INST_HINT_PREFIX}{var}:={witness}"),
        }
    }

    /// Decodes one comment-payload token back into a hint. Malformed `inst` payloads
    /// (no `:=`, or a witness that no longer parses) degrade to an inert label hint —
    /// hints are advice, so the dispatcher's full-sequent retry keeps completeness.
    pub fn decode(token: &str) -> Hint {
        if let Some(payload) = token.strip_prefix(INST_HINT_PREFIX) {
            if let Some((var, witness)) = payload.split_once(":=") {
                if let Ok(witness) = jahob_logic::parse_form(witness.trim()) {
                    return Hint::Inst {
                        var: var.trim().to_string(),
                        witness,
                    };
                }
            }
            return Hint::Label(token.to_string());
        }
        if let Some(name) = token.strip_prefix(LEMMA_HINT_PREFIX) {
            return Hint::Lemma(name.to_string());
        }
        Hint::Label(token.to_string())
    }
}

/// A proof obligation: a sequent plus the `by` hints attached to its goal (§3.5). An
/// empty hint list means "use all assumptions".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofObligation {
    /// The sequent to prove.
    pub sequent: Sequent,
    /// Hints attached to the goal: assumption labels the developer asked to use, names
    /// of library lemmas to inject, and quantifier instantiations (see [`Hint`]).
    pub hints: Vec<Hint>,
}

impl ProofObligation {
    /// The sequent restricted to the hinted assumptions (or the full sequent when no
    /// hints were given). Lemma hints are ignored here; use
    /// [`ProofObligation::hinted_sequent_with_lemmas`] to resolve them.
    pub fn hinted_sequent(&self) -> Sequent {
        self.hinted_sequent_with_lemmas(&BTreeMap::new())
    }

    /// The hinted sequent with lemma hints resolved against `lemmas` (name → formula).
    ///
    /// Each hint is interpreted in order: a [`Hint::Lemma`] injects the named formula
    /// as an extra assumption (wrapped in a `comment ''lemma:Name''` marker so its
    /// provenance stays visible); a [`Hint::Label`] selects labelled assumptions as
    /// before, falling back to the lemma library only when it matches **no** assumption
    /// label of the sequent — so registering a lemma can never silently change the
    /// meaning of an existing label hint. When no hint selects a label, the full
    /// assumption set is kept — hints are advice, never a restriction that silently
    /// drops the whole context. Unknown names are ignored (the full-sequent retry in
    /// the dispatcher keeps completeness). [`Hint::Inst`] hints are inert here: the
    /// instantiation pass (`jahob_provers::inst`) runs on the sequent this method
    /// returns, so it also specialises the lemma assumptions injected here.
    pub fn hinted_sequent_with_lemmas(&self, lemmas: &BTreeMap<String, Form>) -> Sequent {
        if self.hints.is_empty() {
            return self.sequent.clone();
        }
        let assumption_labels: BTreeSet<&str> = self
            .sequent
            .assumptions
            .iter()
            .flat_map(|a| a.strip_comments().0)
            .collect();
        let mut label_hints: Vec<String> = Vec::new();
        let mut lemma_hints: Vec<String> = Vec::new();
        for hint in &self.hints {
            match hint {
                Hint::Lemma(name) => lemma_hints.push(name.clone()),
                Hint::Label(l) => {
                    if !assumption_labels.contains(l.as_str()) && lemmas.contains_key(l) {
                        lemma_hints.push(l.clone());
                    } else {
                        label_hints.push(l.clone());
                    }
                }
                Hint::Inst { .. } => {}
            }
        }
        let mut sequent = if label_hints.is_empty() {
            self.sequent.clone()
        } else {
            self.sequent.filter_by_labels(&label_hints)
        };
        for name in &lemma_hints {
            if let Some(formula) = lemmas.get(name) {
                sequent.assumptions.push(Form::comment(
                    format!("{LEMMA_HINT_PREFIX}{name}"),
                    formula.clone(),
                ));
            }
        }
        sequent
    }
}

/// Computes the weakest precondition of a sequence of simple guarded commands with
/// respect to `post` (Figure 10).
pub fn wlp(commands: &[Simple], post: Form, env: &DesugarEnv) -> Form {
    let mut current = post;
    for c in commands.iter().rev() {
        current = wlp_one(c, current, env);
    }
    current
}

fn wlp_one(command: &Simple, post: Form, env: &DesugarEnv) -> Form {
    match command {
        Simple::Assume { label, form } => {
            let f = match label {
                Some(l) => Form::comment(l.clone(), form.clone()),
                None => form.clone(),
            };
            Form::implies(f, post)
        }
        Simple::Assert { label, form, hints } => {
            let mut f = form.clone();
            // Each hint rides in its own comment layer (innermost = last hint), so the
            // splitter recovers them one per comment, whatever text a witness holds.
            for hint in hints.iter().rev() {
                f = Form::comment(format!("{HINT_LABEL_PREFIX}{}", hint.encode()), f);
            }
            if let Some(l) = label {
                f = Form::comment(l.clone(), f);
            }
            Form::and(vec![f, post])
        }
        Simple::Havoc { vars } => {
            let typed: Vec<(Ident, Type)> =
                vars.iter().map(|v| (v.clone(), env.var_type(v))).collect();
            Form::forall_many(typed, post)
        }
        Simple::Choice(branches) => {
            Form::and(branches.iter().map(|b| wlp(b, post.clone(), env)).collect())
        }
    }
}

/// Generates the proof obligations of a command sequence with postcondition `post`:
/// weakest precondition followed by splitting.
pub fn verification_conditions(
    commands: &[Simple],
    post: Form,
    env: &DesugarEnv,
) -> Vec<ProofObligation> {
    let vc = wlp(commands, post, env);
    split(&vc)
}

/// Splits a verification condition into a list of implications whose conjunction is
/// equivalent to it (Figure 13). Labels on goals become sequent labels; labels on
/// assumptions are preserved for `by`-hint selection.
pub fn split(vc: &Form) -> Vec<ProofObligation> {
    let mut out = Vec::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    split_rec(
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        vc,
        &mut out,
        &mut used,
    );
    out
}

fn split_rec(
    assumptions: &mut Vec<Form>,
    labels: &mut Vec<String>,
    hints: &mut Vec<Hint>,
    goal: &Form,
    out: &mut Vec<ProofObligation>,
    used_names: &mut BTreeSet<String>,
) {
    match goal {
        Form::Const(Const::BoolLit(true)) => {}
        Form::App(head, args) => {
            if let Form::Const(c) = head.as_ref() {
                match c {
                    Const::Comment(l) if args.len() == 1 => {
                        if let Some(h) = l.strip_prefix(HINT_LABEL_PREFIX) {
                            // One hint per comment layer (see `wlp_one`).
                            hints.push(Hint::decode(h));
                            split_rec(assumptions, labels, hints, &args[0], out, used_names);
                            hints.pop();
                        } else {
                            labels.push(l.clone());
                            split_rec(assumptions, labels, hints, &args[0], out, used_names);
                            labels.pop();
                        }
                        return;
                    }
                    Const::And => {
                        for a in args {
                            split_rec(assumptions, labels, hints, a, out, used_names);
                        }
                        return;
                    }
                    Const::Impl if args.len() == 2 => {
                        // The assumption itself may be a conjunction; keep its conjuncts
                        // separate so `by` hints and provers can select them.
                        let new_assumptions: Vec<Form> =
                            args[0].conjuncts().into_iter().cloned().collect();
                        let n = new_assumptions.len();
                        assumptions.extend(new_assumptions);
                        split_rec(assumptions, labels, hints, &args[1], out, used_names);
                        assumptions.truncate(assumptions.len() - n);
                        return;
                    }
                    _ => {}
                }
            }
            emit(assumptions, labels, hints, goal, out);
        }
        Form::Binder(Binder::Forall, vars, body) => {
            // Fig. 13: A --> ALL x. G  ~~>  A --> G[x := fresh].
            let mut avoid: BTreeSet<String> = used_names.clone();
            for a in assumptions.iter() {
                avoid.extend(jahob_logic::subst::free_vars(a));
            }
            avoid.extend(jahob_logic::subst::free_vars(body));
            let mut current = body.as_ref().clone();
            for (v, _) in vars {
                let fresh = fresh_name(v, &avoid);
                avoid.insert(fresh.clone());
                used_names.insert(fresh.clone());
                current = substitute_one(&current, v, &Form::var(fresh));
            }
            split_rec(assumptions, labels, hints, &current, out, used_names);
        }
        _ => emit(assumptions, labels, hints, goal, out),
    }
}

fn emit(
    assumptions: &[Form],
    labels: &[String],
    hints: &[Hint],
    goal: &Form,
    out: &mut Vec<ProofObligation>,
) {
    let goal = simplify(goal);
    if goal.is_true() {
        return;
    }
    let mut sequent = Sequent::new(assumptions.to_vec(), goal);
    sequent.labels = labels.to_vec();
    out.push(ProofObligation {
        sequent,
        hints: hints.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{desugar, Command, DesugarEnv};
    use jahob_logic::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    #[test]
    fn wlp_of_assume_is_implication() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Assume {
            label: None,
            form: p("x = 1"),
        }];
        assert_eq!(wlp(&cmds, p("x = 1"), &env).to_string(), "x = 1 --> x = 1");
    }

    #[test]
    fn wlp_of_assert_conjoins() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Assert {
            label: Some("check".into()),
            form: p("x ~= null"),
            hints: vec![],
        }];
        let vc = wlp(&cmds, p("q"), &env);
        assert!(vc.to_string().contains("comment ''check''"));
        assert!(vc.as_app_of(&Const::And).is_some());
    }

    #[test]
    fn wlp_of_havoc_quantifies() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Havoc {
            vars: vec!["x".into()],
        }];
        assert_eq!(wlp(&cmds, p("x = x"), &env).to_string(), "ALL x. x = x");
    }

    #[test]
    fn splitting_separates_conjuncts_and_branches() {
        let vc = p("(a --> g1 & g2) & (b --> g3)");
        let obligations = split(&vc);
        assert_eq!(obligations.len(), 3);
        assert_eq!(obligations[0].sequent.assumptions, vec![p("a")]);
        assert_eq!(obligations[2].sequent.goal, p("g3"));
    }

    #[test]
    fn splitting_instantiates_universal_goals() {
        let vc = p("a --> (ALL x. x : s --> x : t)");
        let obligations = split(&vc);
        assert_eq!(obligations.len(), 1);
        // The universal variable became a fresh free variable and the inner implication
        // contributed an assumption.
        assert_eq!(obligations[0].sequent.assumptions.len(), 2);
        assert!(!obligations[0].sequent.goal.contains_binder(Binder::Forall));
    }

    #[test]
    fn splitting_collects_labels_and_hints() {
        let vc = Form::and(vec![Form::comment(
            "postcondition",
            Form::comment("hint:sizeInv", Form::comment("hint:xFresh", p("g"))),
        )]);
        let obligations = split(&vc);
        assert_eq!(obligations.len(), 1);
        assert_eq!(
            obligations[0].sequent.labels,
            vec!["postcondition".to_string()]
        );
        assert_eq!(
            obligations[0].hints,
            vec![Hint::label("sizeInv"), Hint::label("xFresh")]
        );
    }

    #[test]
    fn hinted_sequent_filters_assumptions() {
        let vc = p("comment ''a'' (x = 1) --> comment ''b'' (y = 2) --> x = 1");
        let mut obligations = split(&vc);
        assert_eq!(obligations.len(), 1);
        let mut ob = obligations.remove(0);
        ob.hints = vec![Hint::label("a")];
        assert_eq!(ob.hinted_sequent().assumptions.len(), 1);
        ob.hints.clear();
        assert_eq!(ob.hinted_sequent().assumptions.len(), 2);
    }

    #[test]
    fn lemma_hints_inject_library_formulas_as_assumptions() {
        let vc = p("comment ''a'' (x = 1) --> x = 1");
        let mut obligations = split(&vc);
        let mut ob = obligations.remove(0);
        let mut lemmas = BTreeMap::new();
        lemmas.insert("nullFresh".to_string(), p("null ~: alloc"));
        // An explicit lemma hint injects the formula alongside the kept labels.
        ob.hints = vec![Hint::label("a"), Hint::lemma("nullFresh")];
        let hinted = ob.hinted_sequent_with_lemmas(&lemmas);
        assert_eq!(hinted.assumptions.len(), 2);
        assert_eq!(
            hinted.assumptions[1],
            Form::comment("lemma:nullFresh", p("null ~: alloc"))
        );
        // A plain hint that matches no assumption label falls back to the library —
        // and with no label hints left, the full assumption set is kept.
        ob.hints = vec![Hint::label("nullFresh")];
        let hinted = ob.hinted_sequent_with_lemmas(&lemmas);
        assert_eq!(hinted.assumptions.len(), 2);
        // Assumption labels take precedence: registering a lemma under an existing
        // label never changes what a plain label hint selects.
        lemmas.insert("a".to_string(), p("captured = True"));
        ob.hints = vec![Hint::label("a")];
        let hinted = ob.hinted_sequent_with_lemmas(&lemmas);
        assert_eq!(hinted.assumptions.len(), 1);
        assert_eq!(hinted.assumptions[0], Form::comment("a", p("x = 1")));
        // Unknown lemma names are ignored rather than dropping assumptions.
        ob.hints = vec![Hint::lemma("unknown")];
        let hinted = ob.hinted_sequent_with_lemmas(&lemmas);
        assert_eq!(hinted.assumptions.len(), 1);
        // Without a library, `hinted_sequent` treats lemma hints as inert.
        assert_eq!(ob.hinted_sequent().assumptions.len(), 1);
    }

    #[test]
    fn inst_hints_survive_the_wlp_round_trip() {
        // An instantiation hint rides through the weakest-precondition formula as a
        // comment payload and is decoded back structurally — including a witness with
        // commas, which must stay one hint.
        let env = DesugarEnv::default();
        let witness = p("content Int {(k0, v0)}");
        let cmds = vec![Command::Assert {
            label: Some("step".into()),
            form: p("card s <= n"),
            hints: vec![Hint::label("bound"), Hint::inst("s", witness.clone())],
        }];
        let simple = desugar(&cmds, &env);
        let obligations = verification_conditions(&simple, Form::tt(), &env);
        assert_eq!(obligations.len(), 1);
        assert_eq!(obligations[0].sequent.labels, vec!["step".to_string()]);
        assert_eq!(
            obligations[0].hints,
            vec![Hint::label("bound"), Hint::inst("s", witness)]
        );
    }

    #[test]
    fn hint_tokens_encode_and_decode() {
        let cases = vec![
            Hint::label("sizeInv"),
            Hint::lemma("cardNonNeg"),
            Hint::inst("s", p("content Un {x}")),
            Hint::inst("s", p("{(a, b)} Int rel")),
        ];
        for hint in cases {
            assert_eq!(Hint::decode(&hint.encode()), hint, "{hint:?}");
        }
        // A malformed inst payload degrades to an inert label, never a panic.
        assert_eq!(
            Hint::decode("inst:x:=((("),
            Hint::Label("inst:x:=(((".to_string())
        );
        assert_eq!(
            Hint::decode("inst:orphan"),
            Hint::Label("inst:orphan".into())
        );
    }

    #[test]
    fn number_of_obligations_is_linear_in_branches() {
        // Two branches each asserting one condition: exactly the asserts plus nothing
        // exponential.
        let env = DesugarEnv::default();
        let cmds = vec![Command::If {
            cond: p("c"),
            then_branch: vec![Command::Assert {
                label: Some("t".into()),
                form: p("p1"),
                hints: vec![],
            }],
            else_branch: vec![Command::Assert {
                label: Some("e".into()),
                form: p("p2"),
                hints: vec![],
            }],
        }];
        let simple = desugar(&cmds, &env);
        let obligations = verification_conditions(&simple, p("post"), &env);
        // One obligation per assert per branch plus one post obligation per branch.
        assert_eq!(obligations.len(), 4);
    }

    #[test]
    fn end_to_end_increment_example() {
        // x := x + 1 with precondition x = 0 establishes x = 1.
        let env = DesugarEnv::default();
        let cmds = vec![
            Command::Assume {
                label: Some("pre".into()),
                form: p("x = 0"),
            },
            Command::Assign {
                var: "x".into(),
                value: p("x + 1"),
            },
        ];
        let simple = desugar(&cmds, &env);
        let obligations = verification_conditions(&simple, p("comment ''post'' (x = 1)"), &env);
        assert_eq!(obligations.len(), 1);
        let ob = &obligations[0];
        assert_eq!(ob.sequent.labels, vec!["post".to_string()]);
        // The obligation should be provable by simple equational reasoning; check its
        // shape: assumptions mention the fresh assignment variable.
        assert!(ob.sequent.assumptions.len() >= 3);
    }
}
