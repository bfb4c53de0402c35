//! Property-based tests of the automata algebra.

use jahob_automata::Dfa;
use proptest::prelude::*;

/// A random complete DFA over `tracks` tracks with up to `max_states` states.
fn arb_dfa(tracks: usize, max_states: usize) -> impl Strategy<Value = Dfa> {
    let symbols = 1usize << tracks;
    (1..=max_states).prop_flat_map(move |n| {
        (
            proptest::collection::vec(prop::bool::ANY, n),
            proptest::collection::vec(proptest::collection::vec(0..n, symbols), n),
        )
            .prop_map(move |(accepting, trans)| Dfa::new(tracks, 0, accepting, trans))
    })
}

/// `d` over one more track, which it never reads.
fn widen(d: &Dfa) -> Dfa {
    let symbols = d.num_symbols();
    let trans = (0..d.num_states())
        .map(|s| (0..2 * symbols).map(|a| d.step(s, a % symbols)).collect())
        .collect();
    let accepting = (0..d.num_states()).map(|s| d.is_accepting(s)).collect();
    Dfa::new(d.num_tracks() + 1, d.initial(), accepting, trans)
}

fn arb_word(tracks: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..(1usize << tracks), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complement flips acceptance pointwise.
    #[test]
    fn complement_is_pointwise_negation(d in arb_dfa(2, 5), w in arb_word(2)) {
        prop_assert_eq!(d.accepts(&w), !d.complement().accepts(&w));
    }

    /// Product constructions agree with the boolean combination of acceptance.
    #[test]
    fn products_match_boolean_semantics(a in arb_dfa(2, 4), b in arb_dfa(2, 4), w in arb_word(2)) {
        prop_assert_eq!(a.intersect(&b).accepts(&w), a.accepts(&w) && b.accepts(&w));
        prop_assert_eq!(a.union(&b).accepts(&w), a.accepts(&w) || b.accepts(&w));
    }

    /// Minimisation preserves the language.
    #[test]
    fn minimization_preserves_language(d in arb_dfa(1, 6), w in arb_word(1)) {
        let m = d.minimize();
        prop_assert!(m.num_states() <= d.num_states());
        prop_assert_eq!(d.accepts(&w), m.accepts(&w));
        prop_assert!(d.equivalent(&m));
    }

    /// Projecting a track the automaton never reads gives back the same language, and
    /// emptiness agrees with witness extraction.
    #[test]
    fn determinize_roundtrip_and_emptiness(d in arb_dfa(2, 5), w in arb_word(2)) {
        let back = widen(&d).project(2, usize::MAX).expect("unbounded");
        prop_assert!(back.equivalent(&widen(&d)));
        prop_assert_eq!(d.accepts(&w), back.accepts(&w));
        match d.shortest_accepted() {
            Some(witness) => prop_assert!(d.accepts(&witness)),
            None => prop_assert!(d.is_empty()),
        }
    }

    /// A language is always a subset of its projection (existential quantification can
    /// only add words).
    #[test]
    fn projection_only_grows_languages(d in arb_dfa(2, 4), w in arb_word(2)) {
        let projected = d.project(0, usize::MAX).expect("unbounded");
        if d.accepts(&w) {
            prop_assert!(projected.accepts(&w));
        }
    }
}
