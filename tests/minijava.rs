//! Integration tests for the MiniJava+spec text frontend: source text → parser →
//! translation → verification-condition generation → integrated reasoning.

use jahob_repro::frontend::parse_program;
use jahob_repro::jahob::{verify_program, VerifyOptions};

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
