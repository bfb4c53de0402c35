//! The VC generator on the formula bank against the `Form`-recursive reference
//! (`tests/reference`), on generated guarded commands and on named cases.
//!
//! The generated commands assign and havoc a pool of three names, so a name is
//! havocked again and again and its fresh names reach `_1` and `_2`; their formulas
//! bind names like those fresh names, which forces capture-avoiding renaming. Several
//! generated methods share one bank, in both orders, since a bank that already holds
//! another method's nodes must not change what a method generates.

mod reference;

use jahob_logic::bank::{Bank, Node, NodeId};
use jahob_logic::form::Const;
use jahob_logic::{parse_form, Form, Type};
use jahob_vcgen::{
    desugar, obligations_in, split, verification_conditions, wlp, Command, DesugarEnv, Hint,
    ProofObligation,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The program variables the commands assign and havoc.
const POOL: [&str; 3] = ["x", "y", "z"];

/// Names that occur in formulas: the pool, and names like the fresh names the
/// splitter picks for them.
const OBJECTS: [&str; 6] = ["x", "y", "z", "x_1", "x_2", "y_1"];

/// Names the formulas bind: some of the pool, and names like fresh names.
const BOUND: [&str; 4] = ["x", "x_1", "x_2", "y_1"];

fn p(s: &str) -> Form {
    parse_form(s).expect("parse")
}

/// The environment: `d` is defined in terms of `x`, so havocking `x` havocks `d` too,
/// and one binder quantifies two variables.
fn env() -> DesugarEnv {
    let mut env = DesugarEnv::default();
    env.definitions.insert("d".into(), p("f x"));
    env
}

/// Object terms: names, `null`, field reads, and tuples and finite sets, whose
/// printed forms hold commas.
fn arb_term() -> BoxedStrategy<Form> {
    let leaf = prop_oneof![
        (0..OBJECTS.len()).prop_map(|i| Form::var(OBJECTS[i])),
        Just(Form::null()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner
                .clone()
                .prop_map(|t| Form::app(Form::var("f"), vec![t])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::tuple(vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Form::finite_set(vec![a, b])),
        ]
    })
    .boxed()
}

/// Formulas over the terms: equalities (some of them trivial, so simplification
/// decides whether an obligation is emitted), predicates, membership and the
/// literals, under negation, conjunction, implication, comments and quantifiers
/// that bind pool names and names like fresh names.
fn arb_form() -> BoxedStrategy<Form> {
    let atom = prop_oneof![
        (arb_term(), arb_term()).prop_map(|(a, b)| Form::eq(a, b)),
        arb_term().prop_map(|t| Form::eq(t.clone(), t)),
        arb_term().prop_map(|t| Form::app(Form::var("p"), vec![t])),
        arb_term().prop_map(|t| Form::elem(t, Form::var("s"))),
        Just(Form::tt()),
        Just(Form::ff()),
    ];
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Form::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
            (0..BOUND.len(), inner.clone()).prop_map(|(i, f)| Form::forall(BOUND[i], Type::Obj, f)),
            (0..BOUND.len(), inner.clone()).prop_map(|(i, f)| Form::exists(BOUND[i], Type::Obj, f)),
            inner.prop_map(|f| Form::comment("c", f)),
        ]
    })
    .boxed()
}

fn arb_label() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("a".to_string())),
        Just(Some("l".to_string()))
    ]
    .boxed()
}

/// Label, lemma and `inst` hints; a witness may mention havocked names.
fn arb_hints(max: usize) -> BoxedStrategy<Vec<Hint>> {
    let hint = prop_oneof![
        Just(Hint::label("a")),
        Just(Hint::label("b")),
        Just(Hint::lemma("L")),
        (0..2usize, arb_term()).prop_map(|(i, w)| Hint::inst(["k", "x"][i], w)),
    ];
    vec(hint, 0..max + 1).boxed()
}

/// Assignments, havocs (with and without `suchThat`), assumptions, assertions and
/// notes, under `if`, choice, loops, `assuming` and `pickAny`.
fn arb_command() -> BoxedStrategy<Command> {
    let such_that = prop_oneof![Just(None), arb_form().prop_map(Some)];
    let havocked = vec((0..POOL.len()).prop_map(|i| POOL[i].to_string()), 1..3);
    let simple =
        prop_oneof![
            (0..POOL.len(), arb_term()).prop_map(|(i, value)| Command::Assign {
                var: POOL[i].into(),
                value,
            }),
            (havocked, such_that).prop_map(|(vars, such_that)| Command::Havoc { vars, such_that }),
            (arb_label(), arb_form()).prop_map(|(label, form)| Command::Assume { label, form }),
            (arb_label(), arb_form(), arb_hints(2))
                .prop_map(|(label, form, hints)| Command::Assert { label, form, hints }),
            (arb_label(), arb_form(), arb_hints(1))
                .prop_map(|(label, form, hints)| Command::Note { label, form, hints }),
        ];
    simple
        .prop_recursive(2, 24, 3, |inner| {
            let block = vec(inner, 0..3);
            prop_oneof![
                (arb_form(), block.clone(), block.clone()).prop_map(
                    |(cond, then_branch, else_branch)| Command::If {
                        cond,
                        then_branch,
                        else_branch,
                    }
                ),
                (block.clone(), block.clone()).prop_map(|(a, b)| Command::Choice(vec![a, b])),
                (arb_form(), block.clone(), arb_form(), block.clone()).prop_map(
                    |(invariant, pre_test, cond, post_test)| Command::Loop {
                        invariant,
                        pre_test,
                        cond,
                        post_test,
                    }
                ),
                (arb_form(), block.clone(), arb_form()).prop_map(
                    |(hypothesis, body, conclusion)| Command::Assuming {
                        hypothesis,
                        body,
                        conclusion,
                    }
                ),
                (0..BOUND.len(), block, arb_form()).prop_map(|(i, body, conclusion)| {
                    Command::PickAny {
                        vars: vec![(BOUND[i].into(), Type::Obj)],
                        body,
                        conclusion,
                    }
                }),
            ]
        })
        .boxed()
}

/// A method: its commands and its postcondition.
fn arb_method() -> BoxedStrategy<(Vec<Command>, Form)> {
    (vec(arb_command(), 1..5), arb_form()).boxed()
}

/// Generates every method into one shared bank, first in order and then (in a fresh
/// bank) in reverse, and checks each method's obligations against the reference,
/// which generates it alone.
fn shared_bank_matches_the_reference(
    methods: &[(Vec<Command>, Form)],
) -> Result<(), TestCaseError> {
    let env = env();
    let expected: Vec<Vec<ProofObligation>> = methods
        .iter()
        .map(|(commands, post)| {
            reference::verification_conditions(&desugar(commands, &env), post.clone(), &env)
        })
        .collect();
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..methods.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut bank = Bank::new();
        for i in order {
            let (commands, post) = &methods[i];
            let post = bank.intern(post);
            let generated: Vec<ProofObligation> =
                obligations_in(&mut bank, &desugar(commands, &env), post, &env)
                    .iter()
                    .map(|o| o.materialise(&bank))
                    .collect();
            prop_assert_eq!(&generated, &expected[i]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn generated_methods_match_the_reference_in_one_shared_bank(
        methods in vec(arb_method(), 1..4)
    ) {
        shared_bank_matches_the_reference(&methods)?;
    }
}

/// The obligations of one method, generated on a fresh bank, after checking them
/// against the reference.
fn checked(commands: &[Command], post: &str) -> Vec<ProofObligation> {
    let env = env();
    let simple = desugar(commands, &env);
    let generated = verification_conditions(&simple, p(post), &env);
    assert_eq!(
        generated,
        reference::verification_conditions(&simple, p(post), &env)
    );
    generated
}

#[test]
fn a_havoc_of_a_variable_that_does_not_occur_keeps_its_name() {
    let commands = vec![
        Command::Havoc {
            vars: vec!["z".into()],
            such_that: None,
        },
        Command::Assert {
            label: None,
            form: p("p y"),
            hints: vec![],
        },
    ];
    let obligations = checked(&commands, "True");
    assert_eq!(obligations.len(), 1);
    assert_eq!(obligations[0].sequent.goal, p("p y"));
    // The kept name still counts as used: the second `z` becomes `z_1` though it does
    // not occur either, so the third, which occurs, becomes `z_2`.
    let vc = p("(ALL z. p y) & (ALL z. q y) & (ALL z. r z)");
    let mut bank = Bank::new();
    let id = bank.intern(&vc);
    let goals: Vec<Form> = split(&mut bank, id)
        .iter()
        .map(|o| bank.materialise(o.sequent.goal))
        .collect();
    assert_eq!(goals, vec![p("p y"), p("q y"), p("r z_2")]);
    let expected: Vec<Form> = reference::split(&vc)
        .into_iter()
        .map(|o| o.sequent.goal)
        .collect();
    assert_eq!(goals, expected);
}

#[test]
fn a_choice_puts_one_post_node_into_both_branches() {
    let env = env();
    let post = "comment ''post'' (y ~= null & (ALL x_1. p x_1 --> x_1 = y))";
    let commands = vec![Command::If {
        cond: p("p x"),
        then_branch: vec![Command::Assign {
            var: "y".into(),
            value: p("x"),
        }],
        else_branch: vec![],
    }];
    let mut bank = Bank::new();
    let post_id = bank.intern(&p(post));
    let vc = wlp(&mut bank, &desugar(&commands, &env), post_id, &env);
    let branches = bank
        .as_app_of(vc, &Const::And)
        .expect("two branches")
        .to_vec();
    assert_eq!(branches.len(), 2);
    // then: `p x --> asg$1 = x --> (ALL y. y = asg$1 --> post)`.
    let (_, rhs) = implication(&bank, branches[0]);
    let (_, universal) = implication(&bank, rhs);
    let Node::Binder(_, _, body) = bank.node(universal) else {
        panic!("not a binder: {}", bank.materialise(universal));
    };
    assert_eq!(implication(&bank, *body).1, post_id);
    // else: `~(p x) --> post`.
    assert_eq!(implication(&bank, branches[1]).1, post_id);
    let obligations = checked(&commands, post);
    assert_eq!(obligations.len(), 4);
    assert!(obligations.iter().all(|o| o.sequent.labels == ["post"]));
}

/// Both sides of an implication node.
fn implication(bank: &Bank, id: NodeId) -> (NodeId, NodeId) {
    match bank.as_app_of(id, &Const::Impl) {
        Some(&[l, r]) => (l, r),
        _ => panic!("not an implication: {}", bank.materialise(id)),
    }
}

#[test]
fn a_witness_with_commas_stays_one_hint() {
    let witness = p("{(k0, v0), (k1, v1)} Un content");
    let commands = vec![Command::Assert {
        label: Some("step".into()),
        form: p("card s <= n"),
        hints: vec![
            Hint::label("bound"),
            Hint::inst("s", witness.clone()),
            Hint::lemma("L"),
        ],
    }];
    let obligations = checked(&commands, "True");
    assert_eq!(obligations.len(), 1);
    assert_eq!(
        obligations[0].hints,
        vec![
            Hint::label("bound"),
            Hint::inst("s", witness),
            Hint::lemma("L")
        ]
    );
}

#[test]
fn a_witness_is_renamed_with_the_goal() {
    // `x := y` havocs `x`; the goal and the witness both name the value `x` has at
    // the assertion, `x_1`.
    let commands = vec![
        Command::Assign {
            var: "x".into(),
            value: p("y"),
        },
        Command::Assert {
            label: None,
            form: p("x = y"),
            hints: vec![Hint::inst("k", p("{x, z}"))],
        },
    ];
    let obligations = checked(&commands, "True");
    assert_eq!(obligations.len(), 1);
    assert_eq!(obligations[0].sequent.goal, p("x_1 = y"));
    assert_eq!(obligations[0].hints, vec![Hint::inst("k", p("{x_1, z}"))]);
}
