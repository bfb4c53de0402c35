//! Integration tests for the MiniJava+spec text frontend: source text → parser →
//! translation → verification-condition generation → integrated reasoning.

use jahob_repro::frontend::parse_program;
use jahob_repro::jahob::{verify_program, DispatcherConfig, Verifier, VerifyOptions};

/// A small stack with a set-valued abstract state and a cardinality invariant, written in
/// the paper's surface syntax (specifications inside `/*: ... */` and `//: ...` comments).
const STACK: &str = r#"
    public class TextStack {
        private static TextNode top;
        private static int depth;

        /*: public static ghost specvar content :: "obj set" = "{}";
            private static ghost specvar nodes :: "obj set" = "{}";
            invariant depthNonNeg: "0 <= depth";
            invariant depthCard: "depth = card content";
        */

        public static void push(Object x)
        /*: requires "x ~= null & x ~: content"
            modifies content
            ensures "content = old content Un {x}" */
        {
            TextNode n = new TextNode();
            n.data = x;
            n.below = top;
            top = n;
            depth = depth + 1;
            //: nodes := "{n} Un nodes";
            //: content := "{x} Un content";
        }

        public static void clear()
        /*: modifies content ensures "content = {}" */
        {
            top = null;
            depth = 0;
            //: nodes := "{}";
            //: content := "{}";
        }
    }

    public /*: claimedby TextStack */ class TextNode {
        public Object data;
        public TextNode below;
    }
"#;

#[test]
fn text_sources_verify_end_to_end() {
    let program = parse_program(STACK).expect("parse");
    assert_eq!(program.classes.len(), 2);
    let results = verify_program(&program, &VerifyOptions::default());
    assert_eq!(results.len(), 2);
    for result in &results {
        assert!(
            result.verified(),
            "{} not fully verified:\n{}",
            result.method,
            result.render()
        );
    }
}

/// A table whose bucket-slice lemma needs a quantifier instantiation: the universal
/// `cap` bound must be specialised at the compound witness `live - dead`, which no
/// prover finds on its own (see `docs/SPEC_LANGUAGE.md`).
const SLICE_LEMMA: &str = r#"
    public class SliceTable {
        private static int used;

        /*: public static ghost specvar content :: "(obj * obj) set" = "{}";
            private static ghost specvar live :: "(obj * obj) set" = "{}";
            private static ghost specvar dead :: "(obj * obj) set" = "{}";
        */

        public static void sliceBound()
        /*: requires "comment ''cap'' (ALL b. card (content Int b) <= used) & 0 <= used"
            ensures "True" */
        {
            //: assert residue: "card (content Int (live - dead)) <= used + 1" by inst b := "live - dead";
        }
    }
"#;

#[test]
fn inst_hints_work_from_source_text_end_to_end() {
    // The full surface-syntax path for quantifier-instantiation hints: the `by inst`
    // grammar parses, the witness survives translation and the WLP round trip, the
    // dispatcher's instantiation pass specialises the universal `cap` assumption, and
    // the ground instance is proved. Dropping the hint (same source minus the `by`
    // clause) leaves exactly that assertion unproved.
    let program = parse_program(SLICE_LEMMA).expect("parse");
    for result in verify_program(&program, &VerifyOptions::default()) {
        assert!(
            result.verified(),
            "{} not fully verified:\n{}",
            result.method,
            result.render()
        );
    }

    let unhinted_src = SLICE_LEMMA.replace(" by inst b := \"live - dead\"", "");
    assert_ne!(unhinted_src, SLICE_LEMMA);
    let unhinted = parse_program(&unhinted_src).expect("parse");
    let options = VerifyOptions::default();
    let unproved: Vec<String> = verify_program(&unhinted, &options)
        .iter()
        .flat_map(|r| r.report.unproved.clone())
        .collect();
    // With fuel budgets on (unless JAHOB_BUDGETS=off), FOL's search for the missing
    // witness runs out of fuel, and the line says so.
    let expected = if options.dispatcher.budgets {
        "residue [out of fuel: fol]"
    } else {
        "residue"
    };
    assert_eq!(unproved, vec![expected.to_string()]);
}

#[test]
fn inst_witnesses_name_the_values_at_their_assertion() {
    // `live := content` havocs `live` before the assertion, which the splitter renames
    // `live_1` in the goal. The witness `live - dead` names the value at the
    // assertion, so it must be renamed with the goal; instantiating the `cap` bound at
    // the stale pre-assignment `live` proves nothing.
    let src = SLICE_LEMMA.replace(
        "//: assert residue:",
        "//: live := \"content\";\n            //: assert residue:",
    );
    assert_ne!(src, SLICE_LEMMA);
    let program = parse_program(&src).expect("parse");
    for result in verify_program(&program, &VerifyOptions::default()) {
        assert!(
            result.verified(),
            "{} not fully verified:\n{}",
            result.method,
            result.render()
        );
    }
}

/// A method whose one assertion prints as a goal longer than 60 bytes, with byte 57
/// inside a two-byte character.
const ACCENTED_GOAL: &str = r#"
    public class Accent {
        public static int x;

        public static void check()
        /*: requires "True" ensures "True" */
        {
            //: assert "~(comment ''éééééééééééééééééééééééééé'' (x = 1))";
        }
    }
"#;

#[test]
fn an_unproved_goal_with_multibyte_text_is_reported_not_fatal() {
    // The unproved line shortens an unlabelled goal's text; cutting inside a
    // character must not panic outside the containment boundary.
    let program = parse_program(ACCENTED_GOAL).expect("parse");
    let results = verify_program(&program, &VerifyOptions::default());
    assert_eq!(results.len(), 1);
    assert!(!results[0].verified());
    let unproved = &results[0].report.unproved;
    assert_eq!(unproved.len(), 1, "{unproved:?}");
    assert!(
        unproved[0].starts_with("~(comment ''ééé") && unproved[0].contains("é..."),
        "{unproved:?}"
    );
}

/// A class and a field named with non-ASCII letters, which the MiniJava lexer accepts.
/// The translator writes each name into the background axioms (`null ~: Café`, the
/// field's typing axiom), which once panicked the verifier.
const ACCENTED_CLASS: &str =
    r#"public class Café { public static void m() /*: ensures "True" */ { } }"#;

const ACCENTED_FIELD: &str = r#"
    public class Holder {
        public Item café;

        public void m() /*: ensures "True" */ { }
    }

    public class Item { }
"#;

#[test]
fn non_ascii_class_and_field_names_verify() {
    for source in [ACCENTED_CLASS, ACCENTED_FIELD] {
        let report = Verifier::new().verify_source(source).expect("parses");
        assert!(report.verified(), "{source}");
    }
}

#[test]
fn missing_ghost_update_is_caught() {
    // Forgetting the `content := ...` specification assignment makes the postcondition
    // (and the cardinality invariant) unprovable — the verifier must report unproved
    // sequents rather than silently succeeding.
    let buggy = STACK.replace("//: content := \"{x} Un content\";", "");
    let program = parse_program(&buggy).expect("parse");
    let push = verify_program(&program, &VerifyOptions::default())
        .into_iter()
        .find(|r| r.method == "TextStack.push")
        .expect("push present");
    assert!(
        !push.verified(),
        "buggy push must not verify:\n{}",
        push.render()
    );
    assert!(push
        .report
        .unproved
        .iter()
        .any(|d| d.contains("post") || d.contains("depthCard")));
}

#[test]
fn wrong_postcondition_is_caught() {
    // A postcondition that claims the wrong abstract effect (removing instead of adding)
    // must leave an unproved `post` sequent.
    let wrong = STACK.replace(
        "ensures \"content = old content Un {x}\"",
        "ensures \"content = old content - {x}\"",
    );
    let program = parse_program(&wrong).expect("parse");
    let push = verify_program(&program, &VerifyOptions::default())
        .into_iter()
        .find(|r| r.method == "TextStack.push")
        .expect("push present");
    assert!(!push.verified());
}

#[test]
fn parse_errors_carry_line_numbers() {
    let err = parse_program("class Broken {\n  int x\n}").unwrap_err();
    assert!(
        err.line >= 2,
        "error should point into the class body: {err}"
    );
}

/// `Surj.absurd` requires `ALL x. EX y. y..next = x` and `a ~= b` and ensures `False`.
/// The precondition has a model (a `next` that cycles through `null`, `a` and `b`), so
/// the postcondition must stay unproved. Naming the witness of `EX y` by one constant
/// for every `x` would make `next` constant and prove it; with a Skolem function of
/// `x`, SMT and FOL both run out of fuel. The dispatcher runs with the builder's
/// defaults (fuel budgets on), whatever `JAHOB_*` knobs are set.
#[test]
fn a_satisfiable_precondition_does_not_prove_false() {
    let program = parse_program(include_str!("fixtures/surj.java")).expect("parse");
    let options = VerifyOptions {
        dispatcher: DispatcherConfig::builder().build(),
        ..VerifyOptions::default()
    };
    let results = verify_program(&program, &options);
    let absurd = results
        .iter()
        .find(|r| r.method == "Surj.absurd")
        .expect("Surj.absurd is verified");
    assert!(!absurd.verified(), "{}", absurd.render());
    assert_eq!(
        absurd.report.unproved,
        vec!["post [out of fuel: smt, fol]".to_string()],
        "{}",
        absurd.render()
    );
}
