//! Guarded commands: Jahob's intermediate representation (§4, Figures 8 and 9).
//!
//! The frontend translates annotated Java methods into *extended* guarded commands,
//! which contain executable constructs (assignment, conditionals, loops) and proof
//! constructs (`note`, `assuming`, `pickAny`, `havoc ... suchThat`). Desugaring
//! ([`desugar`]) lowers them to *simple* guarded commands — `assume`, `assert`, `havoc`,
//! sequencing and nondeterministic choice — from which weakest preconditions are
//! generated (Figure 10).

use crate::wlp::Hint;
use jahob_logic::form::{Form, Ident};
use jahob_logic::rewrite::unfold_definitions;
use jahob_logic::subst::free_vars;
use jahob_logic::types::Type;
use std::collections::{BTreeMap, BTreeSet};

/// An extended guarded command (Figure 8).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Command {
    /// `assume l: F`.
    Assume {
        /// Optional label.
        label: Option<String>,
        /// The assumed formula.
        form: Form,
    },
    /// `assert l: F by h1, ..., hn`.
    Assert {
        /// Optional label.
        label: Option<String>,
        /// The asserted formula.
        form: Form,
        /// Hints for the proof: assumption labels to use, lemmas to inject, and
        /// quantifier instantiations (empty = use everything).
        hints: Vec<Hint>,
    },
    /// `x := F` (also used for field updates, whose right-hand side is a `fieldWrite`).
    Assign {
        /// The assigned variable (a program variable, field, or specification variable).
        var: Ident,
        /// The new value.
        value: Form,
    },
    /// `havoc x1, ..., xn suchThat F`.
    Havoc {
        /// The variables whose values change.
        vars: Vec<Ident>,
        /// Optional constraint on the new values.
        such_that: Option<Form>,
    },
    /// `note l: F by h`: prove F here, then use it as an assumption.
    Note {
        /// Optional label.
        label: Option<String>,
        /// The noted formula.
        form: Form,
        /// Proof hints (labels, lemmas, instantiations).
        hints: Vec<Hint>,
    },
    /// `assuming l: F in (c ; note G)` (hypothetical reasoning, §3.5).
    Assuming {
        /// The hypothesis.
        hypothesis: Form,
        /// Pure proof commands carried out under the hypothesis.
        body: Vec<Command>,
        /// The conclusion established under the hypothesis.
        conclusion: Form,
    },
    /// `pickAny x in (c ; note G)` (universal introduction, §3.5).
    PickAny {
        /// The fixed-but-arbitrary variables.
        vars: Vec<(Ident, Type)>,
        /// Commands (may contain executable code).
        body: Vec<Command>,
        /// The conclusion, universally quantified over `vars` after the block.
        conclusion: Form,
    },
    /// Nondeterministic choice between branches (each branch is a sequence).
    Choice(Vec<Vec<Command>>),
    /// `if (F) c1 else c2`.
    If {
        /// The branch condition.
        cond: Form,
        /// The then-branch.
        then_branch: Vec<Command>,
        /// The else-branch.
        else_branch: Vec<Command>,
    },
    /// `loop inv(I) { c1 } while (F) { c2 }`: `c1` runs before the test on every
    /// iteration, `c2` after it (a standard `while (F) { body }` has empty `c1`).
    Loop {
        /// The loop invariant.
        invariant: Form,
        /// Commands executed before the loop test.
        pre_test: Vec<Command>,
        /// The loop condition.
        cond: Form,
        /// Commands executed after the loop test (the loop body).
        post_test: Vec<Command>,
    },
}

/// A simple guarded command (Figure 9).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Simple {
    /// `assume l: F`.
    Assume {
        /// Optional label.
        label: Option<String>,
        /// The assumed formula.
        form: Form,
    },
    /// `assert l: F by h`.
    Assert {
        /// Optional label.
        label: Option<String>,
        /// The asserted formula.
        form: Form,
        /// Proof hints (labels, lemmas, instantiations).
        hints: Vec<Hint>,
    },
    /// `havoc x`.
    Havoc {
        /// The variables receiving arbitrary new values.
        vars: Vec<Ident>,
    },
    /// Nondeterministic choice between sequences.
    Choice(Vec<Vec<Simple>>),
}

/// The environment desugaring needs: definitions of *defined* specification variables
/// (for dependency tracking, §4.4) and the types of havocked variables (used when the
/// weakest precondition quantifies over them).
#[derive(Debug, Clone, Default, Hash)]
pub struct DesugarEnv {
    /// Definitions of defined specification variables.
    pub definitions: BTreeMap<Ident, Form>,
    /// Declared types of program and specification variables.
    pub var_types: BTreeMap<Ident, Type>,
}

impl DesugarEnv {
    /// Variables that (transitively) depend on any of `vars` through the definitions
    /// (§4.4: `deps`).
    pub fn dependents(&self, vars: &[Ident]) -> BTreeSet<Ident> {
        let mut out: BTreeSet<Ident> = vars.iter().cloned().collect();
        loop {
            let mut changed = false;
            for (defined, body) in &self.definitions {
                if out.contains(defined) {
                    continue;
                }
                if free_vars(body).iter().any(|v| out.contains(v)) {
                    out.insert(defined.clone());
                    changed = true;
                }
            }
            if !changed {
                return out;
            }
        }
    }

    /// The constraints re-establishing the definitions of the dependent variables
    /// (§4.4: `defs`).
    pub fn definition_constraints(&self, dependents: &BTreeSet<Ident>) -> Vec<Form> {
        self.definitions
            .iter()
            .filter(|(v, _)| dependents.contains(*v))
            .map(|(v, body)| {
                // Definitions may themselves mention defined variables; unfold so the
                // constraint is in terms of base variables.
                Form::eq(
                    Form::var(v.clone()),
                    unfold_definitions(body, &self.definitions),
                )
            })
            .collect()
    }

    /// The declared type of a variable (defaults to `obj`).
    pub fn var_type(&self, v: &str) -> Type {
        self.var_types.get(v).cloned().unwrap_or(Type::Obj)
    }
}

/// Desugars a sequence of extended guarded commands into simple guarded commands
/// (Figures 11 and 12).
pub fn desugar(commands: &[Command], env: &DesugarEnv) -> Vec<Simple> {
    let mut cx = Desugarer { env, fresh: 0 };
    cx.sequence(commands)
}

struct Desugarer<'a> {
    env: &'a DesugarEnv,
    fresh: u32,
}

impl Desugarer<'_> {
    fn fresh_var(&mut self, base: &str) -> Ident {
        self.fresh += 1;
        format!("{base}${}", self.fresh)
    }

    fn sequence(&mut self, commands: &[Command]) -> Vec<Simple> {
        commands.iter().flat_map(|c| self.command(c)).collect()
    }

    /// `havoc ~x` expanded with dependency tracking: havoc the variables and everything
    /// defined in terms of them, then re-assume the definitions (§4.4).
    fn havoc_with_deps(&mut self, vars: &[Ident]) -> Vec<Simple> {
        let deps = self.env.dependents(vars);
        let mut out = vec![Simple::Havoc {
            vars: deps.iter().cloned().collect(),
        }];
        for constraint in self.env.definition_constraints(&deps) {
            out.push(Simple::Assume {
                label: None,
                form: constraint,
            });
        }
        out
    }

    fn command(&mut self, command: &Command) -> Vec<Simple> {
        match command {
            Command::Assume { label, form } => vec![Simple::Assume {
                label: label.clone(),
                form: form.clone(),
            }],
            Command::Assert { label, form, hints } => vec![Simple::Assert {
                label: label.clone(),
                form: form.clone(),
                hints: hints.clone(),
            }],
            Command::Assign { var, value } => {
                // Figure 11: x := F  ~~>  assume v = F ; havoc x ; assume x = v.
                let v = self.fresh_var("asg");
                let mut out = vec![Simple::Assume {
                    label: None,
                    form: Form::eq(Form::var(v.clone()), value.clone()),
                }];
                out.extend(self.havoc_with_deps(std::slice::from_ref(var)));
                out.push(Simple::Assume {
                    label: None,
                    form: Form::eq(Form::var(var.clone()), Form::var(v)),
                });
                out
            }
            Command::Havoc { vars, such_that } => {
                // Figure 12: havoc x suchThat F ~~> assert EX x. F ; havoc x ; assume F.
                let mut out = Vec::new();
                if let Some(f) = such_that {
                    let typed: Vec<(Ident, Type)> = vars
                        .iter()
                        .map(|v| (v.clone(), self.env.var_type(v)))
                        .collect();
                    out.push(Simple::Assert {
                        label: Some("havoc_feasible".to_string()),
                        form: Form::exists_many(typed, f.clone()),
                        hints: Vec::new(),
                    });
                }
                out.extend(self.havoc_with_deps(vars));
                if let Some(f) = such_that {
                    out.push(Simple::Assume {
                        label: None,
                        form: f.clone(),
                    });
                }
                out
            }
            Command::Note { label, form, hints } => vec![
                Simple::Assert {
                    label: label.clone(),
                    form: form.clone(),
                    hints: hints.clone(),
                },
                Simple::Assume {
                    label: label.clone(),
                    form: form.clone(),
                },
            ],
            Command::Assuming {
                hypothesis,
                body,
                conclusion,
            } => {
                // Figure 12.
                let mut branch = vec![Simple::Assume {
                    label: None,
                    form: hypothesis.clone(),
                }];
                branch.extend(self.sequence(body));
                branch.push(Simple::Assert {
                    label: None,
                    form: conclusion.clone(),
                    hints: Vec::new(),
                });
                branch.push(Simple::Assume {
                    label: None,
                    form: Form::ff(),
                });
                vec![
                    Simple::Choice(vec![Vec::new(), branch]),
                    Simple::Assume {
                        label: None,
                        form: Form::implies(hypothesis.clone(), conclusion.clone()),
                    },
                ]
            }
            Command::PickAny {
                vars,
                body,
                conclusion,
            } => {
                let mut branch = vec![Simple::Havoc {
                    vars: vars.iter().map(|(v, _)| v.clone()).collect(),
                }];
                branch.extend(self.sequence(body));
                branch.push(Simple::Assert {
                    label: None,
                    form: conclusion.clone(),
                    hints: Vec::new(),
                });
                branch.push(Simple::Assume {
                    label: None,
                    form: Form::ff(),
                });
                vec![
                    Simple::Choice(vec![Vec::new(), branch]),
                    Simple::Assume {
                        label: None,
                        form: Form::forall_many(vars.clone(), conclusion.clone()),
                    },
                ]
            }
            Command::Choice(branches) => vec![Simple::Choice(
                branches.iter().map(|b| self.sequence(b)).collect(),
            )],
            Command::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut then_cmds = vec![Simple::Assume {
                    label: None,
                    form: cond.clone(),
                }];
                then_cmds.extend(self.sequence(then_branch));
                let mut else_cmds = vec![Simple::Assume {
                    label: None,
                    form: Form::not(cond.clone()),
                }];
                else_cmds.extend(self.sequence(else_branch));
                vec![Simple::Choice(vec![then_cmds, else_cmds])]
            }
            Command::Loop {
                invariant,
                pre_test,
                cond,
                post_test,
            } => {
                // Figure 11. The havocked variables are those modified anywhere in the
                // loop.
                let mut modified: BTreeSet<Ident> = BTreeSet::new();
                collect_modified(pre_test, &mut modified);
                collect_modified(post_test, &mut modified);
                let mut out = vec![Simple::Assert {
                    label: Some("loop_inv_initial".to_string()),
                    form: invariant.clone(),
                    hints: Vec::new(),
                }];
                out.extend(self.havoc_with_deps(&modified.into_iter().collect::<Vec<_>>()));
                out.push(Simple::Assume {
                    label: None,
                    form: invariant.clone(),
                });
                out.extend(self.sequence(pre_test));
                let exit = vec![Simple::Assume {
                    label: None,
                    form: Form::not(cond.clone()),
                }];
                let mut iterate = vec![Simple::Assume {
                    label: None,
                    form: cond.clone(),
                }];
                iterate.extend(self.sequence(post_test));
                iterate.push(Simple::Assert {
                    label: Some("loop_inv_preserved".to_string()),
                    form: invariant.clone(),
                    hints: Vec::new(),
                });
                iterate.push(Simple::Assume {
                    label: None,
                    form: Form::ff(),
                });
                out.push(Simple::Choice(vec![exit, iterate]));
                out
            }
        }
    }
}

/// Collects the variables assigned or havocked anywhere in the commands.
pub fn collect_modified(commands: &[Command], out: &mut BTreeSet<Ident>) {
    for c in commands {
        match c {
            Command::Assign { var, .. } => {
                out.insert(var.clone());
            }
            Command::Havoc { vars, .. } => out.extend(vars.iter().cloned()),
            Command::Choice(branches) => {
                for b in branches {
                    collect_modified(b, out);
                }
            }
            Command::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_modified(then_branch, out);
                collect_modified(else_branch, out);
            }
            Command::Loop {
                pre_test,
                post_test,
                ..
            } => {
                collect_modified(pre_test, out);
                collect_modified(post_test, out);
            }
            Command::PickAny { body, .. } => collect_modified(body, out),
            _ => {}
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

    #[test]
    fn assignment_desugars_to_havoc_between_assumes() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::Assign {
                var: "x".into(),
                value: p("x + 1"),
            }],
            &env,
        );
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[1], Simple::Havoc { vars } if vars == &vec!["x".to_string()]));
    }

    #[test]
    fn assignment_havocs_dependent_defined_variables() {
        let mut env = DesugarEnv::default();
        env.definitions.insert("content".into(), p("cnt first"));
        let out = desugar(
            &[Command::Assign {
                var: "first".into(),
                value: p("n1"),
            }],
            &env,
        );
        // The havoc must include both `first` and the dependent `content`, and the
        // definition of `content` must be re-assumed.
        let havoc_vars = out
            .iter()
            .find_map(|s| match s {
                Simple::Havoc { vars } => Some(vars.clone()),
                _ => None,
            })
            .expect("havoc present");
        assert!(havoc_vars.contains(&"content".to_string()));
        assert!(havoc_vars.contains(&"first".to_string()));
        assert!(out.iter().any(|s| matches!(
            s,
            Simple::Assume { form, .. } if form == &p("content = cnt first")
        )));
    }

    #[test]
    fn if_desugars_to_choice_with_assumed_conditions() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::If {
                cond: p("x = null"),
                then_branch: vec![Command::Assign {
                    var: "r".into(),
                    value: p("null"),
                }],
                else_branch: vec![],
            }],
            &env,
        );
        let Simple::Choice(branches) = &out[0] else {
            panic!("expected choice");
        };
        assert_eq!(branches.len(), 2);
        assert!(
            matches!(&branches[1][0], Simple::Assume { form, .. } if *form == p("~(x = null)"))
        );
    }

    #[test]
    fn loop_desugars_to_invariant_checks() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::Loop {
                invariant: p("0 <= i"),
                pre_test: vec![],
                cond: p("i < n"),
                post_test: vec![Command::Assign {
                    var: "i".into(),
                    value: p("i + 1"),
                }],
            }],
            &env,
        );
        // Initial assert, havoc of i, assume invariant, choice(exit, iterate).
        assert!(
            matches!(&out[0], Simple::Assert { label: Some(l), .. } if l == "loop_inv_initial")
        );
        assert!(out
            .iter()
            .any(|s| matches!(s, Simple::Havoc { vars } if vars.contains(&"i".to_string()))));
        let Some(Simple::Choice(branches)) = out.last() else {
            panic!("expected trailing choice");
        };
        assert_eq!(branches.len(), 2);
        assert!(branches[1].iter().any(
            |s| matches!(s, Simple::Assert { label: Some(l), .. } if l == "loop_inv_preserved")
        ));
    }

    #[test]
    fn note_asserts_then_assumes() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::Note {
                label: Some("lemma1".into()),
                form: p("a = b"),
                hints: vec![Hint::label("h1")],
            }],
            &env,
        );
        assert!(
            matches!(&out[0], Simple::Assert { hints, .. } if hints == &vec![Hint::label("h1")])
        );
        assert!(matches!(&out[1], Simple::Assume { label: Some(l), .. } if l == "lemma1"));
    }

    #[test]
    fn havoc_such_that_checks_feasibility() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::Havoc {
                vars: vec!["x".into()],
                such_that: Some(p("0 <= x")),
            }],
            &env,
        );
        assert!(
            matches!(&out[0], Simple::Assert { form, .. } if form.to_string() == "EX x. 0 <= x")
        );
        assert!(matches!(out.last(), Some(Simple::Assume { form, .. }) if *form == p("0 <= x")));
    }

    #[test]
    fn pickany_introduces_universal_assumption() {
        let env = DesugarEnv::default();
        let out = desugar(
            &[Command::PickAny {
                vars: vec![("k".into(), Type::Obj)],
                body: vec![],
                conclusion: p("k : s --> k : t"),
            }],
            &env,
        );
        assert!(matches!(out.last(), Some(Simple::Assume { form, .. })
            if form.to_string() == "ALL k. k : s --> k : t"));
    }

    #[test]
    fn collect_modified_sees_nested_assignments() {
        let cmds = vec![Command::If {
            cond: p("c"),
            then_branch: vec![Command::Assign {
                var: "a".into(),
                value: p("1"),
            }],
            else_branch: vec![Command::Loop {
                invariant: p("True"),
                pre_test: vec![],
                cond: p("c"),
                post_test: vec![Command::Havoc {
                    vars: vec!["b".into()],
                    such_that: None,
                }],
            }],
        }];
        let mut out = BTreeSet::new();
        collect_modified(&cmds, &mut out);
        assert!(out.contains("a") && out.contains("b"));
    }
}
