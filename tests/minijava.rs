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
/// `x`, SMT runs out of fuel, and the refuter then finds such a model, so the line
/// reads `invalid` (the goal `False` has no variables to show). The dispatcher runs
/// with the builder's defaults (fuel budgets on), whatever `JAHOB_*` knobs are set.
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
    assert!(absurd.invalid(), "{}", absurd.render());
    assert_eq!(
        absurd.report.unproved,
        vec!["post [invalid]".to_string()],
        "{}",
        absurd.render()
    );
}

/// `ensures` clauses whose integer arithmetic leaves `i64`. `int` is unbounded, so
/// neither holds; folding them with wrapping arithmetic made both `True`.
const OVERFLOWING_ENSURES: [&str; 2] = [
    "9223372036854775807 + 1 < 0",
    "0 - 9223372036854775807 - 2 > 0",
];

#[test]
fn integer_arithmetic_beyond_i64_neither_verifies_nor_panics() {
    let verifier = Verifier::with_config(DispatcherConfig::builder().build());
    for ensures in OVERFLOWING_ENSURES {
        let source = format!(
            r#"public class C {{ public static void m() /*: ensures "{ensures}" */ {{ }} }}"#
        );
        let report = verifier.verify_source(&source).expect("parses");
        let m = report.method("C.m").expect("C.m is verified");
        assert!(!m.verified(), "{source}");
        assert_eq!(
            m.report.unproved,
            vec!["post [out of fuel: fol]".to_string()]
        );
    }
}

#[test]
fn an_integer_literal_beyond_i64_is_a_source_error() {
    let source = r#"
        public class C {
            private static int x;
            public static void m() /*: ensures "True" */ { x = 99999999999999999999; }
        }
    "#;
    let error = Verifier::new().verify_source(source).unwrap_err();
    assert!(
        error.to_string().contains("does not fit in 64 bits"),
        "{error}"
    );
}

/// No input kills the process: seeded mutants of every MiniJava source of the tests
/// and examples, and generated formula text.
mod robustness {
    use super::*;
    use jahob_repro::jahob::ProgramReport;
    use jahob_repro::logic::parse_form;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A splitmix64 generator: fixed seeds give fixed mutants.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A number below `n` (which must be positive).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Java and specification tokens the insertion operator draws from.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "(",
        ")",
        ";",
        "=",
        "+",
        "-",
        "*",
        "/",
        ".",
        ",",
        "<",
        ">",
        "==",
        "!=",
        "&&",
        "||",
        "!",
        "null",
        "new",
        "if",
        "else",
        "while",
        "return",
        "int",
        "boolean",
        "Object",
        "static",
        "public",
        "private",
        "class",
        "this",
        "true",
        "false",
        "0",
        "1",
        "x",
        "n",
        "/*:",
        "*/",
        "//:",
        "\"",
        "requires",
        "ensures",
        "modifies",
        "invariant",
        "specvar",
        "ghost",
        ":=",
        "ALL",
        "EX",
        "card",
        "Un",
        "Int",
        ":",
        "~:",
        "-->",
        "<->",
        "&",
        "|",
        "~",
        "''",
        "{}",
        "old",
        "comment",
        "..",
        "%",
        "::",
        "\n",
        "é",
    ];

    /// Every MiniJava source of the repo's tests and examples.
    fn sources() -> Vec<String> {
        let example = include_str!("../examples/minijava_source.rs");
        let start = example.find("r#\"").expect("the example's source") + 3;
        let end = start + example[start..].find("\"#").expect("its end");
        let mut out = vec![example[start..end].to_string()];
        out.extend(
            [
                STACK,
                SLICE_LEMMA,
                ACCENTED_GOAL,
                ACCENTED_CLASS,
                ACCENTED_FIELD,
                include_str!("fixtures/surj.java"),
            ]
            .map(str::to_string),
        );
        out
    }

    /// A random span of `chars`: a start and a length of 1 to 16.
    fn span(rng: &mut Rng, chars: &[char]) -> (usize, usize) {
        let start = rng.below(chars.len());
        (start, (1 + rng.below(16)).min(chars.len() - start))
    }

    /// One mutant of `source`, by one of six operators.
    fn mutate(rng: &mut Rng, source: &str) -> String {
        let mut chars: Vec<char> = source.chars().collect();
        let at = rng.below(chars.len() + 1);
        match rng.below(6) {
            0 => {
                let (start, len) = span(rng, &chars);
                chars.drain(start..start + len);
            }
            1 => {
                let token = format!(" {} ", rng.pick(TOKENS));
                chars.splice(at..at, token.chars());
            }
            2 => {
                let (start, len) = span(rng, &chars);
                let copy: Vec<char> = chars[start..start + len].to_vec();
                chars.splice(at..at, copy);
            }
            3 => {
                let (first, second) = (at.min(chars.len() - 1), rng.below(chars.len()));
                chars.swap(first, second);
            }
            4 => {
                let literal = rng.pick(&[" 99999999999999999999 ", " 9223372036854775808 "]);
                chars.splice(at..at, literal.chars());
            }
            _ => {
                // Overflowing arithmetic at the start of a random specification
                // formula.
                let text: String = chars.iter().collect();
                let starts: Vec<usize> = ["requires \"", "ensures \"", ": \""]
                    .iter()
                    .flat_map(|k| text.match_indices(k).map(|(i, m)| i + m.len()))
                    .collect();
                if starts.is_empty() {
                    return text;
                }
                let byte = starts[rng.below(starts.len())];
                let clause = format!("{} & ", rng.pick(&OVERFLOWING_ENSURES));
                return format!("{}{clause}{}", &text[..byte], &text[byte..]);
            }
        }
        chars.into_iter().collect()
    }

    /// What a verification of a source ended in, without times: the error, or each
    /// method's name, verdict and unproved lines.
    fn outcome(result: &Result<ProgramReport, jahob_repro::frontend::SourceError>) -> String {
        match result {
            Err(error) => format!("error: {error}"),
            Ok(report) => report
                .methods
                .iter()
                .map(|m| format!("{} {} {:?}\n", m.method, m.verified(), m.report.unproved))
                .collect(),
        }
    }

    /// Verifies `count` mutants per seed on fresh verifiers; every one must end in
    /// `Ok` or `Err`, the same on a second fresh verifier. Returns how many parsed.
    /// The verifiers take the builder's baseline configuration, whatever `JAHOB_*`
    /// knobs are set: under fuel budgets every verdict repeats, while with budgets off
    /// FOL keeps only a wall-clock limit, whose stops differ from run to run.
    fn mutants_end_in_ok_or_err(seed: u64, count: usize) -> usize {
        let sources = sources();
        let mut rng = Rng(seed);
        let mut parsed = 0;
        for i in 0..count {
            let source = &sources[i % sources.len()];
            let mutant = mutate(&mut rng, source);
            let run = || {
                let verifier = Verifier::with_config(DispatcherConfig::builder().build());
                catch_unwind(AssertUnwindSafe(|| verifier.verify_source(&mutant)))
            };
            let first = run().unwrap_or_else(|_| panic!("mutant {i} panicked:\n{mutant}"));
            let second = run().unwrap_or_else(|_| panic!("mutant {i} panicked:\n{mutant}"));
            assert_eq!(outcome(&first), outcome(&second), "mutant {i}:\n{mutant}");
            parsed += usize::from(first.is_ok());
        }
        parsed
    }

    /// Generated formula text: formula tokens, names and stray characters.
    fn formula_text(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "x",
            "s",
            "null",
            "0",
            "1",
            "99999999999999999999",
            "True",
            "False",
            "(",
            ")",
            "{",
            "}",
            "[",
            "]",
            ",",
            ".",
            "..",
            ":",
            "~:",
            "=",
            "~=",
            "<",
            "<=",
            "+",
            "-",
            "*",
            "&",
            "|",
            "~",
            "-->",
            "<->",
            "ALL",
            "EX",
            "%",
            "card",
            "Un",
            "Int",
            "\\",
            "''",
            "comment",
            "ite",
            "old",
            "rtrancl_pt",
            "tree",
            "::",
            "obj",
            "set",
            "int",
            "é",
            "λ",
            "$",
            "?",
            "\"",
            " ",
        ];
        (0..rng.below(24))
            .map(|_| rng.pick(PIECES))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn formulas_parse_or_fail_cleanly(seed: u64, count: usize) {
        let mut rng = Rng(seed);
        for _ in 0..count {
            let text = formula_text(&mut rng);
            if catch_unwind(|| parse_form(&text)).is_err() {
                panic!("parse_form panicked on {text:?}");
            }
        }
    }

    #[test]
    fn mutated_sources_end_in_ok_or_err() {
        let parsed = mutants_end_in_ok_or_err(27, 300);
        assert!(parsed > 50, "{parsed} mutants parsed");
    }

    #[test]
    fn generated_formulas_parse_or_fail_cleanly() {
        formulas_parse_or_fail_cleanly(27, 3_000);
    }

    /// The longer run: `cargo test --release --test minijava -- --ignored`.
    #[test]
    #[ignore]
    fn many_mutated_sources_end_in_ok_or_err() {
        mutants_end_in_ok_or_err(1, 20_000);
        formulas_parse_or_fail_cleanly(1, 200_000);
    }
}
