//! Weakest preconditions (Figure 10) and splitting into sequents (Figure 13).
//!
//! Both run on a formula bank ([`jahob_logic::bank::Bank`]), through its constructors
//! that mirror [`Form`]'s smart constructors case for case. A formula the VC repeats
//! is built once: a class invariant or background fact assumed on every path, and the
//! postcondition [`wlp`] puts into every branch of a choice. [`split`] reads each
//! node's cached free variables to pick fresh names, renames with the bank's memoised
//! capture-avoiding substitution, and emits each obligation as a list of node ids.
//! [`obligations_in`] generates straight into a bank the dispatcher then proves on;
//! [`verification_conditions`] generates on a fresh bank and rebuilds the obligations
//! as formulas.

use crate::command::{DesugarEnv, Simple};
use jahob_logic::bank::{Bank, InternedSequent, Node, NodeId, Sym};
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::subst::fresh_name_by;
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Prefix used internally to carry `by` hints through the weakest-precondition formula.
const HINT_LABEL_PREFIX: &str = "hint:";

/// Prefix marking a `by` hint that names a lemma from the interactive lemma library
/// rather than an assumption label (the frontend's `by lemma Name` syntax). The named
/// formula is injected as an extra assumption of the hinted sequent.
pub const LEMMA_HINT_PREFIX: &str = "lemma:";

/// Prefix marking a `by` hint that supplies a quantifier instantiation (the frontend's
/// `by inst x := "witness"` syntax). The token is `inst:var`; the witness rides through
/// the verification condition as a formula beside the goal (see [`Hint::encode`]).
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The token naming this hint in its layer of the weakest-precondition formula:
    /// the label, `lemma:Name` or `inst:var` (see [`Hint::decode`] for the inverse).
    ///
    /// The layer is `comment ''hint:<token>'' F`. An `inst` layer carries its witness as
    /// a second argument, `comment ''hint:inst:var'' F w`, so the splitter renames a
    /// havocked variable in the witness exactly as in the goal: the witness denotes the
    /// values at its assertion.
    pub fn encode(&self) -> String {
        match self {
            Hint::Label(l) => l.clone(),
            Hint::Lemma(name) => format!("{LEMMA_HINT_PREFIX}{name}"),
            Hint::Inst { var, .. } => format!("{INST_HINT_PREFIX}{var}"),
        }
    }

    /// Decodes a hint layer's token, with the witness the layer carries if any. An
    /// `inst` token without a witness degrades to an inert label hint — hints are
    /// advice, so the dispatcher's full-sequent retry keeps completeness.
    pub fn decode(token: &str, witness: Option<Form>) -> Hint {
        if let Some(var) = token.strip_prefix(INST_HINT_PREFIX) {
            return match witness {
                Some(witness) => Hint::inst(var, witness),
                None => Hint::Label(token.to_string()),
            };
        }
        match token.strip_prefix(LEMMA_HINT_PREFIX) {
            Some(name) => Hint::Lemma(name.to_string()),
            None => Hint::Label(token.to_string()),
        }
    }
}

/// A proof obligation: a sequent plus the `by` hints attached to its goal (§3.5). An
/// empty hint list means "use all assumptions".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// A proof obligation whose sequent lives in a [`Bank`]: what [`obligations_in`]
/// generates and the dispatcher proves. An `inst` hint's witness is a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedObligation {
    /// The sequent, as node ids.
    pub sequent: InternedSequent,
    /// The hints attached to the goal, as in [`ProofObligation::hints`].
    pub hints: Vec<Hint>,
}

impl InternedObligation {
    /// Interns an obligation's formulas into `bank`.
    pub fn intern(bank: &mut Bank, obligation: &ProofObligation) -> InternedObligation {
        InternedObligation {
            sequent: bank.intern_sequent(&obligation.sequent),
            hints: obligation.hints.clone(),
        }
    }

    /// Rebuilds the obligation as formulas.
    pub fn materialise(&self, bank: &Bank) -> ProofObligation {
        ProofObligation {
            sequent: bank.materialise_sequent(&self.sequent),
            hints: self.hints.clone(),
        }
    }
}

/// Computes the weakest precondition of a sequence of simple guarded commands with
/// respect to `post` (Figure 10), in `bank`.
pub fn wlp(bank: &mut Bank, commands: &[Simple], post: NodeId, env: &DesugarEnv) -> NodeId {
    let mut current = post;
    for c in commands.iter().rev() {
        current = wlp_one(bank, c, current, env);
    }
    current
}

fn wlp_one(bank: &mut Bank, command: &Simple, post: NodeId, env: &DesugarEnv) -> NodeId {
    match command {
        Simple::Assume { label, form } => {
            let mut f = bank.intern(form);
            if let Some(l) = label {
                f = bank.comment(l, f);
            }
            bank.implies(f, post)
        }
        Simple::Assert { label, form, hints } => {
            let mut f = bank.intern(form);
            // Each hint rides in its own layer (innermost = last hint), so the splitter
            // recovers them one per layer, whatever a witness holds.
            for hint in hints.iter().rev() {
                f = hint_layer(bank, hint, f);
            }
            if let Some(l) = label {
                f = bank.comment(l, f);
            }
            bank.and(vec![f, post])
        }
        Simple::Havoc { vars } => {
            let typed: Vec<(Sym, Type)> = vars
                .iter()
                .map(|v| (bank.symbol(v), env.var_type(v)))
                .collect();
            bank.forall(&typed, post)
        }
        Simple::Choice(branches) => {
            let parts = branches.iter().map(|b| wlp(bank, b, post, env)).collect();
            bank.and(parts)
        }
    }
}

/// `f` inside the layer of `hint` (see [`Hint::encode`]).
fn hint_layer(bank: &mut Bank, hint: &Hint, f: NodeId) -> NodeId {
    let label = format!("{HINT_LABEL_PREFIX}{}", hint.encode());
    match hint {
        Hint::Inst { witness, .. } => {
            let witness = bank.intern(witness);
            bank.app_of(Const::Comment(label), vec![f, witness])
        }
        _ => bank.comment(&label, f),
    }
}

/// Generates the proof obligations of a command sequence with postcondition `post`:
/// weakest precondition followed by splitting, on a fresh bank, rebuilt as formulas.
pub fn verification_conditions(
    commands: &[Simple],
    post: Form,
    env: &DesugarEnv,
) -> Vec<ProofObligation> {
    let mut bank = Bank::new();
    let post = bank.intern(&post);
    obligations_in(&mut bank, commands, post, env)
        .iter()
        .map(|o| o.materialise(&bank))
        .collect()
}

/// [`verification_conditions`] into `bank`: the obligations' formulas are the bank's
/// nodes, shared with everything else it holds.
pub fn obligations_in(
    bank: &mut Bank,
    commands: &[Simple],
    post: NodeId,
    env: &DesugarEnv,
) -> Vec<InternedObligation> {
    let vc = wlp(bank, commands, post, env);
    split(bank, vc)
}

/// Splits a verification condition into a list of implications whose conjunction is
/// equivalent to it (Figure 13). Labels on goals become sequent labels; labels on
/// assumptions are preserved for `by`-hint selection.
pub fn split(bank: &mut Bank, vc: NodeId) -> Vec<InternedObligation> {
    let mut splitter = Splitter {
        bank,
        assumptions: Vec::new(),
        labels: Vec::new(),
        hints: Vec::new(),
        used: HashSet::new(),
        out: Vec::new(),
    };
    splitter.split(vc);
    splitter.out
}

/// The state of one [`split`]: the path to the current goal and what it has emitted.
struct Splitter<'b> {
    bank: &'b mut Bank,
    /// The assumptions on the path, in path order.
    assumptions: Vec<NodeId>,
    labels: Vec<String>,
    hints: Vec<Hint>,
    /// The fresh names chosen so far in this VC.
    used: HashSet<Sym>,
    out: Vec<InternedObligation>,
}

impl Splitter<'_> {
    fn split(&mut self, goal: NodeId) {
        match self.bank.node(goal).clone() {
            Node::Const(Const::BoolLit(true)) => {}
            Node::App(head, args) => {
                let Node::Const(c) = self.bank.node(head) else {
                    return self.emit(goal);
                };
                match (c.clone(), &args[..]) {
                    (Const::Comment(label), &[body]) => match label.strip_prefix(HINT_LABEL_PREFIX)
                    {
                        // One hint per layer (see `wlp_one`).
                        Some(token) => self.split_under(Hint::decode(token, None), body),
                        None => {
                            self.labels.push(label);
                            self.split(body);
                            self.labels.pop();
                        }
                    },
                    (Const::Comment(label), &[body, witness]) => {
                        match label.strip_prefix(HINT_LABEL_PREFIX) {
                            Some(token) if token.starts_with(INST_HINT_PREFIX) => {
                                let witness = self.bank.materialise(witness);
                                self.split_under(Hint::decode(token, Some(witness)), body);
                            }
                            _ => self.emit(goal),
                        }
                    }
                    (Const::And, conjuncts) => {
                        for c in conjuncts {
                            self.split(*c);
                        }
                    }
                    (Const::Impl, &[lhs, rhs]) => {
                        // The assumption itself may be a conjunction; keep its conjuncts
                        // separate so `by` hints and provers can select them.
                        let depth = self.assumptions.len();
                        let conjuncts = self.bank.conjuncts(lhs);
                        self.assumptions.extend(conjuncts);
                        self.split(rhs);
                        self.assumptions.truncate(depth);
                    }
                    _ => self.emit(goal),
                }
            }
            Node::Binder(Binder::Forall, vars, body) => self.split_universal(&vars, body),
            _ => self.emit(goal),
        }
    }

    fn split_under(&mut self, hint: Hint, body: NodeId) {
        self.hints.push(hint);
        self.split(body);
        self.hints.pop();
    }

    /// Fig. 13: `A --> ALL x. G` becomes `A --> G[x := fresh]`. Each variable, in binder
    /// order, takes the name [`fresh_name_by`] picks away from the names used so far
    /// in this VC, the free variables of the assumptions on the path and the free
    /// variables of the body. Each candidate is looked up in the nodes' cached free
    /// variables, so no set of names is built.
    fn split_universal(&mut self, vars: &[(Sym, Type)], body: NodeId) {
        let mut current = body;
        for (v, _) in vars {
            let bank = &*self.bank;
            let fresh = fresh_name_by(bank.name(*v), |name| {
                bank.find_symbol(name).is_some_and(|sym| {
                    self.used.contains(&sym)
                        || bank.is_free_in(sym, body)
                        || self.assumptions.iter().any(|a| bank.is_free_in(sym, *a))
                })
            });
            let fresh = self.bank.symbol(&fresh);
            self.used.insert(fresh);
            if fresh != *v {
                let renamed = self.bank.var(fresh);
                current = self.bank.substitute_one(current, *v, renamed);
            }
        }
        self.split(current);
    }

    /// Emits the current path with `goal`, simplified, unless it simplifies to `True`.
    fn emit(&mut self, goal: NodeId) {
        let goal = self.bank.simplify(goal);
        if self.bank.is_true(goal) {
            return;
        }
        self.out.push(InternedObligation {
            sequent: InternedSequent {
                assumptions: self.assumptions.clone(),
                goal,
                labels: self.labels.clone(),
            },
            hints: self.hints.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{desugar, Command, DesugarEnv};
    use jahob_logic::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    /// The weakest precondition of `commands` with respect to `post`, as a formula.
    fn wlp_form(commands: &[Simple], post: &str, env: &DesugarEnv) -> Form {
        let mut bank = Bank::new();
        let post = bank.intern(&p(post));
        let vc = wlp(&mut bank, commands, post, env);
        bank.materialise(vc)
    }

    /// The obligations of splitting `vc`, as formulas.
    fn split_form(vc: &Form) -> Vec<ProofObligation> {
        let mut bank = Bank::new();
        let vc = bank.intern(vc);
        split(&mut bank, vc)
            .iter()
            .map(|o| o.materialise(&bank))
            .collect()
    }

    #[test]
    fn wlp_of_assume_is_implication() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Assume {
            label: None,
            form: p("x = 1"),
        }];
        assert_eq!(
            wlp_form(&cmds, "x = 1", &env).to_string(),
            "x = 1 --> x = 1"
        );
    }

    #[test]
    fn wlp_of_assert_conjoins() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Assert {
            label: Some("check".into()),
            form: p("x ~= null"),
            hints: vec![],
        }];
        let vc = wlp_form(&cmds, "q", &env);
        assert!(vc.to_string().contains("comment ''check''"));
        assert!(vc.as_app_of(&Const::And).is_some());
    }

    #[test]
    fn wlp_of_havoc_quantifies() {
        let env = DesugarEnv::default();
        let cmds = vec![Simple::Havoc {
            vars: vec!["x".into()],
        }];
        assert_eq!(wlp_form(&cmds, "x = x", &env).to_string(), "ALL x. x = x");
    }

    #[test]
    fn splitting_separates_conjuncts_and_branches() {
        let vc = p("(a --> g1 & g2) & (b --> g3)");
        let obligations = split_form(&vc);
        assert_eq!(obligations.len(), 3);
        assert_eq!(obligations[0].sequent.assumptions, vec![p("a")]);
        assert_eq!(obligations[2].sequent.goal, p("g3"));
    }

    #[test]
    fn splitting_instantiates_universal_goals() {
        let vc = p("a --> (ALL x. x : s --> x : t)");
        let obligations = split_form(&vc);
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
        let obligations = split_form(&vc);
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
        let mut obligations = split_form(&vc);
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
        let mut obligations = split_form(&vc);
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
            let witness = match &hint {
                Hint::Inst { witness, .. } => Some(witness.clone()),
                _ => None,
            };
            assert_eq!(Hint::decode(&hint.encode(), witness), hint, "{hint:?}");
        }
        // The witness rides beside the token, never inside it.
        assert_eq!(Hint::inst("s", p("a Un b")).encode(), "inst:s");
        // An inst token without its witness degrades to an inert label, never a panic.
        assert_eq!(
            Hint::decode("inst:orphan", None),
            Hint::Label("inst:orphan".into())
        );
    }

    #[test]
    fn inst_witnesses_are_renamed_with_the_goal() {
        // `x := y` havocs `x`, and splitting renames it `x_1` in the goal. The witness
        // names the value at the assertion, so it must be renamed too.
        let env = DesugarEnv::default();
        let cmds = vec![
            Command::Assign {
                var: "x".into(),
                value: p("y"),
            },
            Command::Assert {
                label: Some("step".into()),
                form: p("x = y"),
                hints: vec![Hint::inst("k", p("x"))],
            },
        ];
        let simple = desugar(&cmds, &env);
        let obligations = verification_conditions(&simple, Form::tt(), &env);
        assert_eq!(obligations.len(), 1);
        assert_eq!(obligations[0].sequent.goal, p("x_1 = y"));
        assert_eq!(obligations[0].hints, vec![Hint::inst("k", p("x_1"))]);
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
