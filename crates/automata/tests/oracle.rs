//! The kernel against a reference kernel.
//!
//! The reference keeps the straightforward constructions over every symbol of the
//! alphabet: a `BTreeMap`-indexed product, Moore minimisation over `BTreeMap`
//! signatures, a subset construction over an explicit NFA with a `BTreeSet` per cell,
//! the zero-extension closure and a breadth-first witness search. The kernel keeps a
//! column per class of alike symbols instead, but both number states in breadth-first
//! discovery order, so they must build the same automata; a budgeted construction must
//! give up exactly when the reference's automaton has more states than the budget. The
//! MONA decider charges fuel by state counts and reports the witness word, so this
//! agreement is what keeps its charges, verdicts and counterexamples unchanged.
//!
//! Besides random tables over 1–3 tracks, the properties draw automata shaped like
//! MONA's: over 4–8 tracks, reading only 1–3 of them, built through
//! [`Dfa::reading`] and checked against the same table spelled out per symbol.

use jahob_automata::{Dfa, State};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The nested transition table of `d`.
fn rows(d: &Dfa) -> Vec<Vec<State>> {
    (0..d.num_states())
        .map(|s| (0..d.num_symbols()).map(|a| d.step(s, a)).collect())
        .collect()
}

fn accepting(d: &Dfa) -> Vec<bool> {
    (0..d.num_states()).map(|s| d.is_accepting(s)).collect()
}

/// Product construction; `None` once more than `max_states` pairs are reachable.
fn product(
    a: &Dfa,
    b: &Dfa,
    accept: impl Fn(bool, bool) -> bool,
    max_states: usize,
) -> Option<Dfa> {
    let mut index: BTreeMap<(State, State), State> = BTreeMap::new();
    let mut order = vec![(a.initial(), b.initial())];
    let mut queue = VecDeque::from([(a.initial(), b.initial())]);
    index.insert((a.initial(), b.initial()), 0);
    let mut trans = Vec::new();
    while let Some((p, q)) = queue.pop_front() {
        let mut row = Vec::new();
        for sym in 0..a.num_symbols() {
            let succ = (a.step(p, sym), b.step(q, sym));
            let id = *index.entry(succ).or_insert_with(|| {
                order.push(succ);
                queue.push_back(succ);
                order.len() - 1
            });
            row.push(id);
        }
        if order.len() > max_states {
            return None;
        }
        trans.push(row);
    }
    let acc = order
        .iter()
        .map(|&(p, q)| accept(a.is_accepting(p), b.is_accepting(q)))
        .collect();
    Some(Dfa::new(a.num_tracks(), 0, acc, trans))
}

/// Moore's partition refinement over the reachable states.
fn minimize(d: &Dfa) -> Dfa {
    let mut reachable = vec![false; d.num_states()];
    let mut queue = VecDeque::from([d.initial()]);
    reachable[d.initial()] = true;
    while let Some(s) = queue.pop_front() {
        for sym in 0..d.num_symbols() {
            let t = d.step(s, sym);
            if !reachable[t] {
                reachable[t] = true;
                queue.push_back(t);
            }
        }
    }
    let states: Vec<State> = (0..d.num_states()).filter(|&s| reachable[s]).collect();
    let mut class: BTreeMap<State, usize> = states
        .iter()
        .map(|&s| (s, usize::from(d.is_accepting(s))))
        .collect();
    loop {
        let mut signatures: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
        let mut next_class: BTreeMap<State, usize> = BTreeMap::new();
        for &s in &states {
            let sig = (
                class[&s],
                (0..d.num_symbols())
                    .map(|sym| class[&d.step(s, sym)])
                    .collect::<Vec<_>>(),
            );
            let n = signatures.len();
            next_class.insert(s, *signatures.entry(sig).or_insert(n));
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }
    let num_classes = class.values().copied().collect::<BTreeSet<_>>().len();
    let mut representatives: Vec<Option<State>> = vec![None; num_classes];
    for &s in &states {
        representatives[class[&s]].get_or_insert(s);
    }
    let mut acc = vec![false; num_classes];
    let mut trans = vec![vec![0; d.num_symbols()]; num_classes];
    for (c, rep) in representatives.iter().enumerate() {
        let rep = rep.expect("every class has a representative");
        acc[c] = d.is_accepting(rep);
        for (sym, t) in trans[c].iter_mut().enumerate() {
            *t = class[&d.step(rep, sym)];
        }
    }
    Dfa::new(d.num_tracks(), class[&d.initial()], acc, trans)
}

/// Extends acceptance to the states from which all-zero symbols reach acceptance.
fn accept_zero_extensions(d: &Dfa) -> Dfa {
    let accepting = (0..d.num_states())
        .map(|s| {
            let mut seen = BTreeSet::new();
            let mut s = s;
            while seen.insert(s) {
                if d.is_accepting(s) {
                    return true;
                }
                s = d.step(s, 0);
            }
            false
        })
        .collect();
    Dfa::new(d.num_tracks(), d.initial(), accepting, rows(d))
}

/// Breadth-first search for an accepted word, trying the symbols in increasing order.
fn shortest_accepted(d: &Dfa) -> Option<Vec<usize>> {
    let mut parent: BTreeMap<State, (State, usize)> = BTreeMap::new();
    let mut seen = BTreeSet::from([d.initial()]);
    let mut queue = VecDeque::from([d.initial()]);
    let mut found = d.is_accepting(d.initial()).then_some(d.initial());
    'search: while found.is_none() {
        let Some(s) = queue.pop_front() else { break };
        for sym in 0..d.num_symbols() {
            let t = d.step(s, sym);
            if seen.insert(t) {
                parent.insert(t, (s, sym));
                if d.is_accepting(t) {
                    found = Some(t);
                    break 'search;
                }
                queue.push_back(t);
            }
        }
    }
    let mut state = found?;
    let mut word = Vec::new();
    while let Some(&(prev, sym)) = parent.get(&state) {
        word.push(sym);
        state = prev;
    }
    word.reverse();
    Some(word)
}

/// An NFA without epsilon transitions: `trans[state][symbol]` is a successor set.
struct Nfa {
    num_tracks: usize,
    initial: BTreeSet<State>,
    accepting: Vec<bool>,
    trans: Vec<Vec<BTreeSet<State>>>,
}

impl Nfa {
    fn from_dfa(d: &Dfa) -> Nfa {
        Nfa {
            num_tracks: d.num_tracks(),
            initial: BTreeSet::from([d.initial()]),
            accepting: accepting(d),
            trans: rows(d)
                .into_iter()
                .map(|row| row.into_iter().map(|t| BTreeSet::from([t])).collect())
                .collect(),
        }
    }

    fn accepts(&self, word: &[usize]) -> bool {
        let mut current = self.initial.clone();
        for &sym in word {
            current = current
                .iter()
                .flat_map(|&s| self.trans[s][sym].iter().copied())
                .collect();
        }
        current.iter().any(|&s| self.accepting[s])
    }

    /// Leaves `track` unconstrained: a successor on one value of the track becomes a
    /// successor on both.
    fn project(&self, track: usize) -> Nfa {
        let bit = 1usize << track;
        let mut trans = vec![vec![BTreeSet::new(); 1 << self.num_tracks]; self.accepting.len()];
        for (s, row) in self.trans.iter().enumerate() {
            for (sym, succ) in row.iter().enumerate() {
                trans[s][sym & !bit].extend(succ.iter().copied());
                trans[s][sym | bit].extend(succ.iter().copied());
            }
        }
        Nfa {
            num_tracks: self.num_tracks,
            initial: self.initial.clone(),
            accepting: self.accepting.clone(),
            trans,
        }
    }

    /// Subset construction; `None` once more than `max_states` subsets are reachable.
    fn determinize_bounded(&self, max_states: usize) -> Option<Dfa> {
        let mut index: BTreeMap<BTreeSet<State>, State> = BTreeMap::new();
        let mut order = vec![self.initial.clone()];
        let mut queue = VecDeque::from([self.initial.clone()]);
        index.insert(self.initial.clone(), 0);
        let mut trans = Vec::new();
        while let Some(current) = queue.pop_front() {
            let mut row = Vec::new();
            for sym in 0..1usize << self.num_tracks {
                let next: BTreeSet<State> = current
                    .iter()
                    .flat_map(|&s| self.trans[s][sym].iter().copied())
                    .collect();
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        index.insert(next.clone(), order.len());
                        order.push(next.clone());
                        queue.push_back(next);
                        order.len() - 1
                    }
                };
                row.push(id);
            }
            if order.len() > max_states {
                return None;
            }
            trans.push(row);
        }
        let acc = order
            .iter()
            .map(|set| set.iter().any(|&s| self.accepting[s]))
            .collect();
        Some(Dfa::new(self.num_tracks, 0, acc, trans))
    }
}

/// A random complete DFA over 1–3 tracks with up to 6 states.
fn arb_dfa() -> impl Strategy<Value = Dfa> {
    (1usize..=3).prop_flat_map(|tracks| arb_dfa_over(tracks, 6))
}

fn arb_dfa_over(tracks: usize, max_states: usize) -> impl Strategy<Value = Dfa> {
    arb_table(1 << tracks, max_states).prop_map(move |(acc, trans)| Dfa::new(tracks, 0, acc, trans))
}

/// Acceptance and a transition table of `width` entries per state, for up to
/// `max_states` states.
fn arb_table(
    width: usize,
    max_states: usize,
) -> impl Strategy<Value = (Vec<bool>, Vec<Vec<State>>)> {
    (1..=max_states).prop_flat_map(move |n| {
        (
            proptest::collection::vec(prop::bool::ANY, n),
            proptest::collection::vec(proptest::collection::vec(0..n, width), n),
        )
    })
}

/// `table` spelled out for every symbol over `tracks` tracks, for a DFA that reads the
/// tracks `read`.
fn spelled_out(table: &[Vec<State>], tracks: usize, read: &[usize]) -> Vec<Vec<State>> {
    table
        .iter()
        .map(|row| (0..1 << tracks).map(|a| row[bits_on(a, read)]).collect())
        .collect()
}

/// Two random DFAs over the same 1–3 tracks.
fn arb_dfa_pair() -> impl Strategy<Value = (Dfa, Dfa)> {
    (1usize..=3).prop_flat_map(|tracks| (arb_dfa_over(tracks, 6), arb_dfa_over(tracks, 6)))
}

/// The bits of `symbol` on the tracks `read`, bit `i` for `read[i]`.
fn bits_on(symbol: usize, read: &[usize]) -> usize {
    read.iter()
        .enumerate()
        .map(|(i, &t)| ((symbol >> t) & 1) << i)
        .sum()
}

/// A random DFA over `tracks` tracks with up to `max_states` states that reads only the
/// tracks `read`, built through [`Dfa::reading`], and the same table spelled out for
/// every symbol through [`Dfa::new`].
fn arb_reading(
    tracks: usize,
    read: Vec<usize>,
    max_states: usize,
) -> impl Strategy<Value = (Dfa, Dfa)> {
    arb_table(1 << read.len(), max_states).prop_map(move |(acc, table)| {
        let full = spelled_out(&table, tracks, &read);
        (
            Dfa::reading(tracks, &read, 0, acc.clone(), table),
            Dfa::new(tracks, 0, acc, full),
        )
    })
}

/// A track count in 4–8 and two disjoint lists of 1–3 tracks below it, in random order.
fn arb_disjoint_tracks() -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>)> {
    (
        4usize..=8,
        proptest::collection::vec(0u64..1 << 32, 8),
        1usize..=3,
        1usize..=3,
    )
        .prop_map(|(tracks, keys, left, right)| {
            let mut order: Vec<usize> = (0..tracks).collect();
            order.sort_by_key(|&t| keys[t]);
            let right = right.min(tracks - left);
            (
                tracks,
                order[..left].to_vec(),
                order[left..left + right].to_vec(),
            )
        })
}

/// A DFA like MONA's: over 4–8 tracks, reading 1–3 of them, with up to 5 states. The
/// second list holds tracks it does not read.
fn arb_sparse() -> impl Strategy<Value = ((Dfa, Dfa), Vec<usize>, Vec<usize>)> {
    arb_disjoint_tracks().prop_flat_map(|(tracks, read, unread)| {
        (
            arb_reading(tracks, read.clone(), 5),
            Just(read),
            Just(unread),
        )
    })
}

/// Two DFAs like MONA's over the same 4–8 tracks that read disjoint sets of tracks.
fn arb_sparse_pair() -> impl Strategy<Value = ((Dfa, Dfa), (Dfa, Dfa))> {
    arb_disjoint_tracks().prop_flat_map(|(tracks, left, right)| {
        (arb_reading(tracks, left, 5), arb_reading(tracks, right, 5))
    })
}

/// The state budgets each bounded construction is tried with, around `states`.
fn caps(states: usize) -> [usize; 5] {
    [1, states.saturating_sub(1).max(1), states, states + 1, 40]
}

/// The kernel's bounded result agrees with the reference's unbounded one under `cap`.
fn agrees_under_cap(kernel: Option<Dfa>, reference: &Dfa, cap: usize) -> Result<(), TestCaseError> {
    match kernel {
        Some(d) => {
            prop_assert!(reference.num_states() <= cap);
            prop_assert_eq!(&d, reference);
        }
        None => prop_assert!(reference.num_states() > cap),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A DFA keeps the table it is built from, step for step, however its symbols share
    /// columns. The references above build their results through `Dfa::new` too, so
    /// the comparisons rest on this.
    #[test]
    fn building_keeps_the_table(
        (tracks, read, (acc, table)) in (1usize..=5, 1usize..=3).prop_flat_map(|(tracks, len)| {
            (Just(tracks), proptest::collection::vec(0..tracks, len), arb_table(1 << len, 6))
        })
    ) {
        let full = spelled_out(&table, tracks, &read);
        let d = Dfa::reading(tracks, &read, 0, acc.clone(), table);
        prop_assert_eq!(rows(&d), full.clone());
        prop_assert_eq!(accepting(&d), acc.clone());
        let d = Dfa::new(tracks, 0, acc.clone(), full.clone());
        prop_assert_eq!(rows(&d), full);
        prop_assert_eq!(accepting(&d), acc);
    }

    /// Intersection and union build the reference's product under every budget.
    #[test]
    fn products_match_the_reference((a, b) in arb_dfa_pair()) {
        for (accept, bounded) in [
            (
                (|x, y| x && y) as fn(bool, bool) -> bool,
                Dfa::intersect_bounded as fn(&Dfa, &Dfa, usize) -> Option<Dfa>,
            ),
            (|x, y| x || y, Dfa::union_bounded),
        ] {
            let reference = product(&a, &b, accept, usize::MAX).expect("unbounded");
            let unbounded = bounded(&a, &b, usize::MAX).expect("unbounded");
            prop_assert_eq!(unbounded.num_states(), reference.num_states());
            prop_assert!(unbounded.equivalent(&reference));
            prop_assert_eq!(&unbounded, &reference);
            for cap in caps(reference.num_states()) {
                prop_assert_eq!(product(&a, &b, accept, cap).is_none(), reference.num_states() > cap);
                agrees_under_cap(bounded(&a, &b, cap), &reference, cap)?;
            }
        }
    }

    /// Minimisation finds the reference's partition and numbers it the same way.
    #[test]
    fn minimization_matches_the_reference(d in arb_dfa()) {
        let reference = minimize(&d);
        let min = d.minimize();
        prop_assert_eq!(min.num_states(), reference.num_states());
        prop_assert!(min.equivalent(&reference));
        prop_assert_eq!(&min, &reference);
    }

    /// Projection is the reference's NFA projection followed by its subset
    /// construction, under every budget.
    #[test]
    fn projection_matches_the_reference(d in arb_dfa(), track in 0usize..3, w in proptest::collection::vec(0usize..8, 0..6)) {
        let track = track % d.num_tracks();
        let nfa = Nfa::from_dfa(&d).project(track);
        let reference = nfa.determinize_bounded(usize::MAX).expect("unbounded");
        let projected = d.project(track, usize::MAX).expect("unbounded");
        prop_assert_eq!(projected.num_states(), reference.num_states());
        prop_assert!(projected.equivalent(&reference));
        prop_assert_eq!(&projected, &reference);
        let w: Vec<usize> = w.iter().map(|&a| a % d.num_symbols()).collect();
        prop_assert_eq!(projected.accepts(&w), nfa.accepts(&w));
        for cap in caps(reference.num_states()) {
            prop_assert_eq!(nfa.determinize_bounded(cap).is_none(), reference.num_states() > cap);
            agrees_under_cap(d.project(track, cap), &reference, cap)?;
        }
    }

    /// The zero-extension closure and the witness search match the reference, and the
    /// witness is the word the reference's search finds.
    #[test]
    fn zero_extension_and_witness_match_the_reference(d in arb_dfa()) {
        prop_assert_eq!(d.accept_zero_extensions(), accept_zero_extensions(&d));
        prop_assert_eq!(d.shortest_accepted(), shortest_accepted(&d));
        prop_assert_eq!(d.is_empty(), shortest_accepted(&d).is_none());
    }

    /// A DFA built through `Dfa::reading` is the one its table spells out per symbol,
    /// and the kernel's constructions on it match the reference's.
    #[test]
    fn sparse_automata_match_the_reference(((d, full), read, unread) in arb_sparse()) {
        prop_assert_eq!(d.num_states(), full.num_states());
        prop_assert_eq!(&d, &full);
        let reference = minimize(&d);
        prop_assert_eq!(d.minimize(), reference);
        prop_assert_eq!(d.accept_zero_extensions(), accept_zero_extensions(&d));
        prop_assert_eq!(d.shortest_accepted(), shortest_accepted(&d));
        // Projecting a track the automaton reads, and one it does not read.
        for track in [read[0]].into_iter().chain(unread.first().copied()) {
            let nfa = Nfa::from_dfa(&d).project(track);
            let reference = nfa.determinize_bounded(usize::MAX).expect("unbounded");
            let projected = d.project(track, usize::MAX).expect("unbounded");
            prop_assert_eq!(&projected, &reference);
            prop_assert_eq!(projected.shortest_accepted(), shortest_accepted(&reference));
            for cap in caps(reference.num_states()) {
                agrees_under_cap(d.project(track, cap), &reference, cap)?;
            }
        }
    }

    /// Products of DFAs that read disjoint tracks match the reference under every
    /// budget, and so do their minimisation, zero-extension closure and witness.
    #[test]
    fn products_of_disjoint_readers_match_the_reference(((a, a_full), (b, b_full)) in arb_sparse_pair()) {
        prop_assert_eq!(&a, &a_full);
        prop_assert_eq!(&b, &b_full);
        for (accept, bounded) in [
            (
                (|x, y| x && y) as fn(bool, bool) -> bool,
                Dfa::intersect_bounded as fn(&Dfa, &Dfa, usize) -> Option<Dfa>,
            ),
            (|x, y| x || y, Dfa::union_bounded),
        ] {
            let reference = product(&a_full, &b_full, accept, usize::MAX).expect("unbounded");
            let unbounded = bounded(&a, &b, usize::MAX).expect("unbounded");
            prop_assert_eq!(&unbounded, &reference);
            for cap in caps(reference.num_states()) {
                agrees_under_cap(bounded(&a, &b, cap), &reference, cap)?;
            }
            prop_assert_eq!(unbounded.minimize(), minimize(&reference));
            prop_assert_eq!(unbounded.accept_zero_extensions(), accept_zero_extensions(&reference));
            prop_assert_eq!(unbounded.shortest_accepted(), shortest_accepted(&reference));
        }
    }

    /// The reference's NFA view of a DFA accepts the same words, so the projection
    /// comparison above starts from the same language.
    #[test]
    fn the_reference_nfa_view_preserves_language(d in arb_dfa(), w in proptest::collection::vec(0usize..8, 0..6)) {
        let w: Vec<usize> = w.iter().map(|&a| a % d.num_symbols()).collect();
        prop_assert_eq!(Nfa::from_dfa(&d).accepts(&w), d.accepts(&w));
    }
}
