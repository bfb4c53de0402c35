//! Congruence closure for ground equality reasoning (EUF).
//!
//! The theory solver of the SMT-style prover: given ground equalities and disequalities
//! over uninterpreted functions, decides consistency and answers equality queries.
//!
//! Terms are interned once into a graph of curried applications. The term `f(a, b)` is
//! the node `(f/2 · a) · b`, where the leaf `f/2` stands for the symbol at that arity,
//! so two terms are congruent exactly when their curried parts are pairwise equal, and
//! a symbol at two arities names two unrelated functions. Equalities merge classes,
//! the smaller into the larger; each merge looks up the new signature (the two parts'
//! representatives) of every application that uses a moved member and merges it with
//! any application of the same signature. [`CongruenceClosure::clear`] forgets the
//! asserted facts and keeps the graph, so a search checks each assignment over the
//! terms of its problem without interning them again.

use jahob_logic::bank::FastMap;

/// A term handle: a node of the graph.
pub type TermId = u32;

/// A congruence closure engine over interned ground terms.
#[derive(Debug, Clone, Default)]
pub struct CongruenceClosure {
    /// The function part and argument of each application node; `None` for a leaf.
    parts: Vec<Option<(TermId, TermId)>>,
    /// Leaves by `(symbol, arity)`.
    leaves: FastMap<(u32, u32), TermId>,
    /// Application nodes by their parts.
    applications: FastMap<(TermId, TermId), TermId>,
    /// The applications that have each node as a part.
    uses: Vec<Vec<TermId>>,
    /// The representative of each node's class.
    repr: Vec<TermId>,
    /// The next member of each node's class, a ring.
    next: Vec<TermId>,
    /// The size of each representative's class.
    size: Vec<u32>,
    /// Signatures that arose from merges since the last clear. The signature of an
    /// application is the representatives of its parts; an entry whose key still
    /// holds two representatives names an application with that signature. The
    /// graph's own `applications` hold every signature no merge has changed.
    signatures: FastMap<(TermId, TermId), TermId>,
    /// Disequalities asserted since the last clear.
    disequalities: Vec<(TermId, TermId)>,
    /// Merges waiting to be made.
    pending: Vec<(TermId, TermId)>,
    /// Whether a merge has joined two classes since the last clear.
    merged: bool,
}

impl CongruenceClosure {
    /// Creates an empty engine.
    pub fn new() -> Self {
        CongruenceClosure::default()
    }

    /// Interns `symbol` applied to `args` (a constant when `args` is empty) and returns
    /// its id. Equal terms always receive the same id; a term whose arguments are
    /// already equal to another application's is merged with it.
    pub fn intern(&mut self, symbol: u32, args: &[TermId]) -> TermId {
        let key = (symbol, args.len() as u32);
        let mut node = match self.leaves.get(&key) {
            Some(&leaf) => leaf,
            None => {
                let leaf = self.push_node(None);
                self.leaves.insert(key, leaf);
                leaf
            }
        };
        for &arg in args {
            node = self.apply(node, arg);
        }
        node
    }

    fn push_node(&mut self, parts: Option<(TermId, TermId)>) -> TermId {
        let id = TermId::try_from(self.parts.len()).expect("fewer than 2^32 nodes");
        self.parts.push(parts);
        self.uses.push(Vec::new());
        self.repr.push(id);
        self.next.push(id);
        self.size.push(1);
        id
    }

    fn apply(&mut self, fun: TermId, arg: TermId) -> TermId {
        if let Some(&node) = self.applications.get(&(fun, arg)) {
            return node;
        }
        let node = self.push_node(Some((fun, arg)));
        self.applications.insert((fun, arg), node);
        self.uses[fun as usize].push(node);
        self.uses[arg as usize].push(node);
        if !self.merged {
            return node;
        }
        // An application that merges made congruent to the new one may exist, and
        // parts merged before the node existed give it a signature of its own.
        let signature = (self.repr[fun as usize], self.repr[arg as usize]);
        match self.lookup(signature) {
            Some(other) if other != node => self.merge(node, other),
            Some(_) => {}
            None => {
                self.signatures.insert(signature, node);
            }
        }
        node
    }

    /// The application with this signature, if any.
    fn lookup(&self, signature: (TermId, TermId)) -> Option<TermId> {
        self.signatures
            .get(&signature)
            .or_else(|| self.applications.get(&signature))
            .copied()
    }

    /// Forgets every asserted equality and disequality; the interned terms stay.
    pub fn clear(&mut self) {
        for (i, ((repr, next), size)) in self
            .repr
            .iter_mut()
            .zip(self.next.iter_mut())
            .zip(self.size.iter_mut())
            .enumerate()
        {
            *repr = i as TermId;
            *next = i as TermId;
            *size = 1;
        }
        self.signatures.clear();
        self.disequalities.clear();
        self.merged = false;
    }

    /// Returns `true` if the two terms are currently known to be equal.
    pub fn equal(&self, a: TermId, b: TermId) -> bool {
        self.repr[a as usize] == self.repr[b as usize]
    }

    /// Asserts a disequality; [`CongruenceClosure::consistent`] checks it.
    pub fn separate(&mut self, a: TermId, b: TermId) {
        self.disequalities.push((a, b));
    }

    /// Returns `true` if no asserted disequality is violated.
    pub fn consistent(&self) -> bool {
        self.disequalities.iter().all(|&(a, b)| !self.equal(a, b))
    }

    /// Asserts an equality: merges the classes of two terms and every pair of
    /// applications the merge makes congruent.
    pub fn merge(&mut self, a: TermId, b: TermId) {
        self.pending.push((a, b));
        while let Some((a, b)) = self.pending.pop() {
            let (mut from, mut into) = (self.repr[a as usize], self.repr[b as usize]);
            if from == into {
                continue;
            }
            self.merged = true;
            if self.size[from as usize] > self.size[into as usize] {
                std::mem::swap(&mut from, &mut into);
            }
            let mut member = from;
            loop {
                self.repr[member as usize] = into;
                member = self.next[member as usize];
                if member == from {
                    break;
                }
            }
            loop {
                for i in 0..self.uses[member as usize].len() {
                    let user = self.uses[member as usize][i];
                    let (fun, arg) = self.parts[user as usize].expect("a user is an application");
                    let signature = (self.repr[fun as usize], self.repr[arg as usize]);
                    match self.lookup(signature) {
                        Some(other) if !self.equal(user, other) => self.pending.push((user, other)),
                        Some(_) => {}
                        None => {
                            self.signatures.insert(signature, user);
                        }
                    }
                }
                member = self.next[member as usize];
                if member == from {
                    break;
                }
            }
            self.next.swap(from as usize, into as usize);
            self.size[into as usize] += self.size[from as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    const F: u32 = 3;

    #[test]
    fn asserted_equalities_are_transitive() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        let c = cc.intern(C, &[]);
        cc.merge(a, b);
        cc.merge(b, c);
        assert!(cc.equal(a, c));
    }

    #[test]
    fn congruence_propagates_through_functions() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        let fa = cc.intern(F, &[a]);
        let fb = cc.intern(F, &[b]);
        assert!(!cc.equal(fa, fb));
        cc.merge(a, b);
        assert!(cc.equal(fa, fb));
    }

    #[test]
    fn congruence_detected_for_terms_interned_after_merge() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        cc.merge(a, b);
        let fa = cc.intern(F, &[a]);
        let fb = cc.intern(F, &[b]);
        assert!(cc.equal(fa, fb));
    }

    #[test]
    fn disequalities_cause_conflicts() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        let fa = cc.intern(F, &[a]);
        let fb = cc.intern(F, &[b]);
        cc.separate(fa, fb);
        assert!(cc.consistent());
        cc.merge(a, b);
        assert!(!cc.consistent(), "merging a and b forces f(a) = f(b)");
    }

    #[test]
    fn nested_congruence() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let fa = cc.intern(F, &[a]);
        let ffa = cc.intern(F, &[fa]);
        let fffa = cc.intern(F, &[ffa]);
        // f(a) = a implies f(f(f(a))) = a.
        cc.merge(fa, a);
        assert!(cc.equal(fffa, a));
    }

    #[test]
    fn interning_is_hash_consing() {
        let mut cc = CongruenceClosure::new();
        let a1 = cc.intern(A, &[]);
        let a2 = cc.intern(A, &[]);
        assert_eq!(a1, a2);
        let f1 = cc.intern(F, &[a1]);
        let f2 = cc.intern(F, &[a2]);
        assert_eq!(f1, f2);
        assert_ne!(a1, f1);
    }

    #[test]
    fn one_symbol_at_two_arities_names_two_functions() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        let c = cc.intern(C, &[]);
        let fab = cc.intern(F, &[a, b]);
        let fcb = cc.intern(F, &[c, b]);
        let fa = cc.intern(F, &[a]);
        let fc = cc.intern(F, &[c]);
        // `f(a)` is not the curried part of `f(a, b)`: equating it with `c` says
        // nothing about `f(a, b)`.
        cc.merge(fa, c);
        assert!(!cc.equal(fab, fcb));
        cc.merge(a, c);
        assert!(cc.equal(fab, fcb) && cc.equal(fa, fc));
    }

    #[test]
    fn clearing_forgets_facts_but_keeps_terms() {
        let mut cc = CongruenceClosure::new();
        let a = cc.intern(A, &[]);
        let b = cc.intern(B, &[]);
        let fa = cc.intern(F, &[a]);
        let fb = cc.intern(F, &[b]);
        cc.separate(fa, fb);
        cc.merge(a, b);
        assert!(!cc.consistent());
        cc.clear();
        assert!(cc.consistent() && !cc.equal(fa, fb));
        cc.merge(b, a);
        assert!(cc.consistent() && cc.equal(fb, fa));
        assert_eq!(cc.intern(F, &[b]), fb);
    }
}
