//! Deterministic finite automata over multi-track binary alphabets.
//!
//! A word over `k` tracks assigns, at each position, a bit to every track. A symbol is
//! therefore an integer in `0..2^k` whose `i`-th bit is the value of track `i`. This is
//! exactly the representation used by MONA for WS1S: each free variable of a formula owns
//! one track (first-order variables are encoded as singleton sets by the caller).
//!
//! The transition function is one row-major table of `u32` entries, `2^k` per state.
//! Products and projections number their states in the order a breadth-first search
//! discovers them, and minimisation numbers its classes by their lowest-numbered state,
//! so the same inputs always give the same automaton, state for state.

use crate::hash::FastMap;

/// A state index.
pub type State = usize;

/// A complete deterministic finite automaton over a `2^num_tracks` symbol alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    num_tracks: usize,
    initial: State,
    accepting: Vec<bool>,
    /// `trans[state * num_symbols + symbol]` is the successor state; every state has
    /// `num_symbols` entries, so the automaton is complete.
    trans: Vec<u32>,
}

impl Dfa {
    /// Creates a DFA. `trans[s][a]` must be defined for every state `s` and symbol
    /// `a < 2^num_tracks`.
    ///
    /// # Panics
    ///
    /// Panics if the transition table is not complete or refers to unknown states.
    pub fn new(
        num_tracks: usize,
        initial: State,
        accepting: Vec<bool>,
        trans: Vec<Vec<State>>,
    ) -> Self {
        let n = accepting.len();
        let symbols = 1usize << num_tracks;
        assert_eq!(trans.len(), n, "transition table must cover every state");
        assert!(initial < n, "initial state out of range");
        let mut table = Vec::with_capacity(n * symbols);
        for row in &trans {
            assert_eq!(row.len(), symbols, "transition row must cover every symbol");
            for &t in row {
                assert!(t < n, "transition target out of range");
                table.push(state_id(t));
            }
        }
        Dfa::from_table(num_tracks, initial, accepting, table)
    }

    /// Wraps a flat table built by one of the constructions below.
    fn from_table(num_tracks: usize, initial: State, accepting: Vec<bool>, trans: Vec<u32>) -> Dfa {
        debug_assert_eq!(trans.len(), accepting.len() << num_tracks);
        Dfa {
            num_tracks,
            initial,
            accepting,
            trans,
        }
    }

    /// The number of tracks.
    pub fn num_tracks(&self) -> usize {
        self.num_tracks
    }

    /// The number of states.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// The number of symbols (`2^num_tracks`).
    pub fn num_symbols(&self) -> usize {
        1usize << self.num_tracks
    }

    /// The size of this automaton in the state×symbol work units cooperative fuel
    /// budgets are charged in: every transition-table entry a construction touches
    /// costs one unit, so charging `work_cost()` per intermediate automaton bounds
    /// the total construction effort a budgeted caller can spend.
    pub fn work_cost(&self) -> u64 {
        self.num_states() as u64 * self.num_symbols() as u64
    }

    /// The initial state.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: State) -> bool {
        self.accepting[state]
    }

    /// The successor of `state` on `symbol`.
    pub fn step(&self, state: State, symbol: usize) -> State {
        self.row(state)[symbol] as State
    }

    /// The successors of `state`, indexed by symbol.
    fn row(&self, state: State) -> &[u32] {
        let symbols = self.num_symbols();
        &self.trans[state * symbols..(state + 1) * symbols]
    }

    /// A DFA over `num_tracks` tracks accepting every word.
    pub fn all(num_tracks: usize) -> Self {
        Dfa::from_table(num_tracks, 0, vec![true], vec![0; 1 << num_tracks])
    }

    /// A DFA over `num_tracks` tracks accepting no word.
    pub fn none(num_tracks: usize) -> Self {
        Dfa::from_table(num_tracks, 0, vec![false], vec![0; 1 << num_tracks])
    }

    /// Runs the automaton on a word (a sequence of symbols) and reports acceptance.
    pub fn accepts(&self, word: &[usize]) -> bool {
        let s = word.iter().fold(self.initial, |s, &a| self.step(s, a));
        self.accepting[s]
    }

    /// The complement automaton (accepting exactly the rejected words).
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        for a in &mut out.accepting {
            *a = !*a;
        }
        out
    }

    /// Product construction. `accept(a, b)` decides acceptance of a product state from
    /// the acceptance of its components (e.g. `&&` for intersection, `||` for union).
    pub fn product(&self, other: &Dfa, accept: impl Fn(bool, bool) -> bool) -> Dfa {
        self.product_bounded(other, accept, usize::MAX)
            .expect("unbounded product cannot exceed its limit")
    }

    /// Product construction with a state budget: returns `None` if the reachable part of
    /// the product has more than `max_states` states. Used by clients (such as the WS1S
    /// decision procedure) that must bail out gracefully instead of building enormous
    /// intermediate automata.
    pub fn product_bounded(
        &self,
        other: &Dfa,
        accept: impl Fn(bool, bool) -> bool,
        max_states: usize,
    ) -> Option<Dfa> {
        assert_eq!(
            self.num_tracks, other.num_tracks,
            "product requires identical track counts"
        );
        let pair = |p: u32, q: u32| (u64::from(p) << 32) | u64::from(q);
        let mut pairs = vec![(self.initial as u32, other.initial as u32)];
        let mut index: FastMap<u64, u32> = FastMap::default();
        index.insert(pair(pairs[0].0, pairs[0].1), 0);
        let mut trans = Vec::new();
        // `pairs` doubles as the breadth-first queue: pair `next` is expanded next.
        let mut next = 0;
        while let Some(&(p, q)) = pairs.get(next) {
            next += 1;
            for (&p2, &q2) in self.row(p as State).iter().zip(other.row(q as State)) {
                let id = *index.entry(pair(p2, q2)).or_insert_with(|| {
                    pairs.push((p2, q2));
                    state_id(pairs.len() - 1)
                });
                trans.push(id);
            }
            if pairs.len() > max_states {
                return None;
            }
        }
        let accepting = pairs
            .iter()
            .map(|&(p, q)| accept(self.accepting[p as State], other.accepting[q as State]))
            .collect();
        Some(Dfa::from_table(self.num_tracks, 0, accepting, trans))
    }

    /// Intersection of the two languages.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Intersection with a state budget (see [`Dfa::product_bounded`]).
    pub fn intersect_bounded(&self, other: &Dfa, max_states: usize) -> Option<Dfa> {
        self.product_bounded(other, |a, b| a && b, max_states)
    }

    /// Union of the two languages.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// Union with a state budget (see [`Dfa::product_bounded`]).
    pub fn union_bounded(&self, other: &Dfa, max_states: usize) -> Option<Dfa> {
        self.product_bounded(other, |a, b| a || b, max_states)
    }

    /// Projects away `track` (existential quantification over the track's value at every
    /// position) and determinises the result, with a state budget: returns `None` if the
    /// subset construction reaches more than `max_states` states. The track count is
    /// preserved; the projected track simply becomes unconstrained.
    ///
    /// The subset construction runs on this automaton directly: a subset's successor on
    /// `a` and on `a ^ bit` is `{δ(s, a & !bit), δ(s, a | bit)}`, so it is computed once
    /// per such pair of symbols.
    ///
    /// # Panics
    ///
    /// Panics if `track >= num_tracks`.
    pub fn project(&self, track: usize, max_states: usize) -> Option<Dfa> {
        assert!(track < self.num_tracks, "track out of range");
        let bit = 1usize << track;
        let symbols = self.num_symbols();
        // A subset of states is a bitset of `words` words; subset `i` is
        // `subsets[i * words..(i + 1) * words]`.
        let words = self.num_states().div_ceil(64);
        let mut subsets = vec![0u64; words];
        subsets[self.initial / 64] |= 1 << (self.initial % 64);
        let mut index: FastMap<Box<[u64]>, u32> = FastMap::default();
        index.insert(subsets.clone().into_boxed_slice(), 0);
        let mut accepting = Vec::new();
        let mut trans = Vec::new();
        let mut members = Vec::new();
        let mut succ = vec![0u64; words];
        let mut next = 0;
        while next < index.len() {
            members.clear();
            for (w, &bits) in subsets[next * words..(next + 1) * words].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    members.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            next += 1;
            accepting.push(members.iter().any(|&s| self.accepting[s]));
            let row = trans.len();
            trans.resize(row + symbols, 0);
            for a in (0..symbols).filter(|a| a & bit == 0) {
                succ.fill(0);
                for &s in &members {
                    let targets = self.row(s);
                    for t in [targets[a], targets[a | bit]] {
                        succ[t as usize / 64] |= 1 << (t % 64);
                    }
                }
                let id = match index.get(succ.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = state_id(index.len());
                        index.insert(succ.clone().into_boxed_slice(), id);
                        subsets.extend_from_slice(&succ);
                        id
                    }
                };
                trans[row + a] = id;
                trans[row + (a | bit)] = id;
            }
            if index.len() > max_states {
                return None;
            }
        }
        Some(Dfa::from_table(self.num_tracks, 0, accepting, trans))
    }

    /// Returns `true` if the language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// Returns a shortest accepted word, if any (breadth-first search).
    pub fn shortest_accepted(&self) -> Option<Vec<usize>> {
        let mut visited = vec![false; self.num_states()];
        let mut parent: Vec<Option<(State, usize)>> = vec![None; self.num_states()];
        let mut queue = std::collections::VecDeque::new();
        visited[self.initial] = true;
        queue.push_back(self.initial);
        let mut found = None;
        if self.accepting[self.initial] {
            found = Some(self.initial);
        }
        while found.is_none() {
            let Some(s) = queue.pop_front() else { break };
            for (a, &t) in self.row(s).iter().enumerate() {
                let t = t as State;
                if !visited[t] {
                    visited[t] = true;
                    parent[t] = Some((s, a));
                    if self.accepting[t] {
                        found = Some(t);
                        break;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut state = found?;
        let mut word = Vec::new();
        while let Some((prev, sym)) = parent[state] {
            word.push(sym);
            state = prev;
        }
        word.reverse();
        Some(word)
    }

    /// Extends acceptance to words that reach an accepting state after appending some
    /// number of all-zero symbols. This is the standard WS1S adjustment after projecting
    /// an existentially quantified track: the witness set may mention positions beyond
    /// the original word, which appear as trailing zero columns for the free variables.
    pub fn accept_zero_extensions(&self) -> Dfa {
        let mut out = self.clone();
        // A state is accepting if some accepting state is reachable by zero symbols only.
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..out.num_states() {
                if !out.accepting[s] && out.accepting[out.step(s, 0)] {
                    out.accepting[s] = true;
                    changed = true;
                }
            }
        }
        out
    }

    /// Minimises the automaton (Moore's partition refinement) after removing unreachable
    /// states. The classes are numbered in the order of their lowest-numbered state.
    pub fn minimize(&self) -> Dfa {
        let symbols = self.num_symbols();
        // The reachable states, in increasing order.
        let mut reachable = vec![false; self.num_states()];
        let mut stack = vec![self.initial];
        reachable[self.initial] = true;
        while let Some(s) = stack.pop() {
            for &t in self.row(s) {
                if !std::mem::replace(&mut reachable[t as State], true) {
                    stack.push(t as State);
                }
            }
        }
        let states: Vec<State> = (0..self.num_states()).filter(|&s| reachable[s]).collect();
        // Initial partition: accepting vs rejecting.
        let mut class = vec![0u32; self.num_states()];
        for &s in &states {
            class[s] = u32::from(self.accepting[s]);
        }
        let mut num_classes = 1 + usize::from(
            states
                .iter()
                .any(|&s| self.accepting[s] != self.accepting[states[0]]),
        );
        // Each round splits the classes by signature: a state's class followed by the
        // classes of its successors. A round that splits no class ends the refinement.
        let width = 1 + symbols;
        let mut signatures = vec![0u32; states.len() * width];
        loop {
            for (&s, signature) in states.iter().zip(signatures.chunks_exact_mut(width)) {
                signature[0] = class[s];
                for (slot, &t) in signature[1..].iter_mut().zip(self.row(s)) {
                    *slot = class[t as State];
                }
            }
            let mut ids: FastMap<&[u32], u32> = FastMap::default();
            ids.reserve(num_classes);
            for (&s, signature) in states.iter().zip(signatures.chunks_exact(width)) {
                let fresh = ids.len() as u32;
                class[s] = *ids.entry(signature).or_insert(fresh);
            }
            let refined = ids.len();
            if std::mem::replace(&mut num_classes, refined) == refined {
                break;
            }
        }
        // The lowest-numbered state of each class represents it.
        let mut representatives = Vec::with_capacity(num_classes);
        for &s in &states {
            if class[s] as usize == representatives.len() {
                representatives.push(s);
            }
        }
        let accepting = representatives.iter().map(|&s| self.accepting[s]).collect();
        let trans = representatives
            .iter()
            .flat_map(|&s| self.row(s).iter().map(|&t| class[t as State]))
            .collect();
        Dfa::from_table(
            self.num_tracks,
            class[self.initial] as State,
            accepting,
            trans,
        )
    }

    /// Returns `true` if the two automata accept the same language.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.product(other, |a, b| a != b).is_empty()
    }
}

/// A state number as a table entry.
fn state_id(state: State) -> u32 {
    u32::try_from(state).expect("automata have fewer than 2^32 states")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA over one track accepting words with an even number of 1s.
    fn even_ones() -> Dfa {
        Dfa::new(1, 0, vec![true, false], vec![vec![0, 1], vec![1, 0]])
    }

    /// DFA over one track accepting words containing at least one 1.
    fn contains_one() -> Dfa {
        Dfa::new(1, 0, vec![false, true], vec![vec![0, 1], vec![1, 1]])
    }

    #[test]
    fn accepts_runs_the_automaton() {
        let d = even_ones();
        assert!(d.accepts(&[]));
        assert!(d.accepts(&[1, 1]));
        assert!(!d.accepts(&[1, 0]));
    }

    #[test]
    fn complement_flips_acceptance() {
        let d = even_ones().complement();
        assert!(!d.accepts(&[]));
        assert!(d.accepts(&[1]));
    }

    #[test]
    fn intersection_and_union() {
        let both = even_ones().intersect(&contains_one());
        assert!(both.accepts(&[1, 1]));
        assert!(!both.accepts(&[]));
        assert!(!both.accepts(&[1]));
        let either = even_ones().union(&contains_one());
        assert!(either.accepts(&[]));
        assert!(either.accepts(&[1]));
        assert!(!either.accepts(&[0]) || either.accepts(&[0])); // total function sanity
    }

    #[test]
    fn emptiness_and_witness() {
        assert!(Dfa::none(1).is_empty());
        assert!(!Dfa::all(2).is_empty());
        let d = even_ones().intersect(&contains_one());
        let w = d.shortest_accepted().expect("non-empty");
        assert!(d.accepts(&w));
        assert_eq!(w.len(), 2);
        // Intersecting a language with its complement is empty.
        assert!(even_ones().intersect(&even_ones().complement()).is_empty());
    }

    #[test]
    fn zero_extension_acceptance() {
        // Accepts exactly words of length >= 2 (regardless of bits).
        let d = Dfa::new(
            1,
            0,
            vec![false, false, true],
            vec![vec![1, 1], vec![2, 2], vec![2, 2]],
        );
        let z = d.accept_zero_extensions();
        // The empty word extends with two zero symbols to an accepted word.
        assert!(z.accepts(&[]));
        assert!(z.accepts(&[1]));
    }

    #[test]
    fn minimization_preserves_language() {
        // A redundant automaton for "even number of ones" with duplicated states.
        let redundant = Dfa::new(
            1,
            0,
            vec![true, false, true, false],
            vec![vec![2, 1], vec![3, 0], vec![0, 3], vec![1, 2]],
        );
        let min = redundant.minimize();
        assert_eq!(min.num_states(), 2);
        assert!(min.equivalent(&even_ones()));
    }

    #[test]
    fn equivalence_check() {
        assert!(even_ones().equivalent(&even_ones().minimize()));
        assert!(!even_ones().equivalent(&contains_one()));
    }

    #[test]
    #[should_panic(expected = "transition row must cover every symbol")]
    fn incomplete_table_is_rejected() {
        let _ = Dfa::new(1, 0, vec![true], vec![vec![0]]);
    }

    /// Two-track DFA accepting words where track 0 and track 1 carry equal bits at every
    /// position (i.e. the sets they denote are equal).
    fn tracks_equal() -> Dfa {
        // Symbols: bit0 = track0, bit1 = track1. Equal iff symbol is 0b00 or 0b11.
        Dfa::new(
            2,
            0,
            vec![true, false],
            vec![vec![0, 1, 1, 0], vec![1, 1, 1, 1]],
        )
    }

    #[test]
    fn projecting_an_unread_track_gives_back_the_automaton() {
        // Track 1 of `even_ones` widened to two tracks is never read, so every subset
        // is a singleton and the construction rebuilds the automaton.
        let even_bit0 = Dfa::new(
            2,
            0,
            vec![true, false],
            vec![vec![0, 1, 0, 1], vec![1, 0, 1, 0]],
        );
        assert_eq!(even_bit0.project(1, usize::MAX), Some(even_bit0));
    }

    #[test]
    fn projection_makes_track_unconstrained() {
        // Projecting track 1 out of "track0 = track1" leaves the full language over
        // track 0 (for every choice of track 0 there is a matching track 1).
        let projected = tracks_equal().project(1, usize::MAX).expect("unbounded");
        assert!(projected.accepts(&[0b00, 0b01]));
        assert!(projected.accepts(&[0b01, 0b00]));
        assert!(projected.equivalent(&Dfa::all(2)));
    }

    #[test]
    fn projection_of_unsatisfiable_constraint_stays_empty() {
        // "track0 differs from track1 at every position AND track0 equals track1 at every
        // position" is empty for non-empty words; projection cannot create words.
        let neq_everywhere = Dfa::new(
            2,
            0,
            vec![true, false],
            vec![vec![1, 0, 0, 1], vec![1, 1, 1, 1]],
        );
        let conj = tracks_equal().intersect(&neq_everywhere);
        let projected = conj.project(0, usize::MAX).expect("unbounded");
        // Only the empty word survives.
        assert!(projected.accepts(&[]));
        assert!(!projected.accepts(&[0b00]));
        assert!(!projected.accepts(&[0b01]));
    }

    #[test]
    fn determinization_handles_genuine_nondeterminism() {
        // Over two tracks: track 1 marks exactly one position, the last, and track 0 is
        // set there. Projecting track 1 must guess the last position, so the subset
        // construction sees genuine nondeterminism; the result accepts the words whose
        // last symbol sets track 0.
        let marked_last = Dfa::new(
            2,
            0,
            vec![false, true, false],
            vec![vec![0, 0, 2, 1], vec![2, 2, 2, 2], vec![2, 2, 2, 2]],
        );
        let d = marked_last.project(1, usize::MAX).expect("unbounded");
        assert!(d.accepts(&[0b00, 0b01]));
        assert!(!d.accepts(&[0b01, 0b00]));
        assert!(!d.accepts(&[]));
        assert_eq!(d.num_tracks(), 2);
        assert_eq!(d.minimize().num_states(), 2);
    }

    #[test]
    #[should_panic(expected = "track out of range")]
    fn projecting_missing_track_panics() {
        let _ = tracks_equal().project(5, usize::MAX);
    }
}
