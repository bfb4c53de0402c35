//! A hash-consed formula bank: every structurally distinct node is stored once, under
//! one `u32` id, and the normalisation the dispatcher runs before any prover is
//! memoised per node.
//!
//! The VC generator (`jahob_vcgen`) builds its verification conditions in a bank through
//! the constructors that mirror [`Form`]'s smart constructors ([`Bank::and`],
//! [`Bank::implies`], [`Bank::forall`], [`Bank::comment`]) and splits them with the
//! bank's cached free variables ([`Bank::is_free_in`]) and capture-avoiding
//! substitution ([`Bank::substitute_one`]). A batch of obligations keeps that bank, so
//! the dispatcher normalises and proves them without interning them again.
//!
//! The verification conditions of one program share most of their formulas: every
//! sequent of a method repeats the class invariants and the background facts, and
//! every method repeats the invariants of its class. Rewriting each sequent on owned
//! [`Form`] trees repeats the same work for every copy. A bank interns each formula
//! once ([`Bank::intern`]); from then on a recurring formula costs a table lookup:
//!
//! * per node: free variables, bound variables (so whether it holds a binder), size
//!   and whether it holds a beta redex, computed when the node is interned;
//! * per node: comment stripping ([`Bank::strip_comments`]), simplification with beta
//!   reduction ([`Bank::simplify`]), one pass of membership expansion, AC sorting
//!   ([`Bank::sort_commutative`]), alpha-renaming from the root
//!   ([`Bank::alpha_normalize`]), the canonical form the syntactic prover compares
//!   ([`Bank::canonical`]) and the form the cache key prints ([`Bank::key_form`]);
//! * per node, polarity and prover fragment: the polarity approximation every prover
//!   but the syntactic one reads ([`Bank::approximate`]); per node, polarity and
//!   set/function classification, the first-order rewriting before it that SMT and
//!   FOL read ([`Bank::first_order_implication`]); and per node the negation normal
//!   form ([`Bank::nnf`]) and the routing features ([`Bank::sequent_features`]);
//! * per assumption list: the definitional substitution ([`Bank::definitions`]);
//! * per node and substitution: capture-avoiding substitution. A node whose binders
//!   cannot be renamed by the substitution is keyed by the substitution restricted to
//!   its free variables, which is what lets two sequents with different definitions
//!   share the rewriting of a formula they both contain.
//!
//! Each operation mirrors a `Form`-recursive function exactly (simplification, comment
//! stripping as [`crate::simplify::strip_comments_deep`], substitution as
//! [`crate::subst::substitute`], membership expansion, the approximation and the
//! definition inlining of [`crate::norm::inline_definitions`]), so [`Bank::materialise`]
//! of a result equals the tree the `Form` function builds. The `Form` functions the
//! library no longer runs are kept as test oracles in `crates/logic/tests/reference`.
//! Sorting compares nodes as [`Form`]'s derived `Ord` compares formulas
//! ([`Bank::order`]): names by their text, never by symbol id.
//!
//! Ids are private to one bank: the same formula gets different ids in different banks,
//! so an id must never reach a printed key, a report or an ordering. A node gets its id
//! by exact structural equality (a map from node contents to id), never by hash alone:
//! two distinct formulas sharing an id would let a cache hit answer the wrong sequent.

mod approx;
mod first_order;

pub use approx::Fragment;
pub use first_order::FirstOrderVars;

use crate::features::SequentFeatures;
use crate::form::{Binder, Const, Form, Ident};
use crate::norm::is_generated_name;
use crate::sequent::Sequent;
use crate::subst::{fresh_name_by, Subst};
use crate::types::Type;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// A `HashMap` keyed through [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A multiplicative word hasher: each 64-bit word is mixed in by a rotate, an xor and a
/// multiply by an odd constant. The bank hashes a node per interned subtree and a key
/// per memo probe; std's SipHash made interning about twice as slow. Keys hashed this
/// way are ids the bank (or a prover's own table) assigns itself, with binders and
/// types. Names and constants, which come from the verified program's text, stay on
/// std's hasher, which resists keys crafted to collide. No map is iterated where its
/// order could reach a result.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table indexes buckets by
    /// the low bits, so rotate the top bits down.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Compares two lists as slices compare: by the first unequal element's ordering
/// among `pairs`, the elements' pairwise orderings, else by length.
fn lexicographic(mut pairs: impl Iterator<Item = Ordering>, left: usize, right: usize) -> Ordering {
    pairs.find(|o| o.is_ne()).unwrap_or(left.cmp(&right))
}

/// The id of a node in one [`Bank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id as an index: a bank numbers its nodes densely from 0, so a caller can
    /// keep a per-node table beside it. The numbering is private to the bank, like
    /// the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An identifier interned in one [`Bank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// One node: a [`Form`] whose children are node ids and whose names are symbols.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A variable.
    Var(Sym),
    /// A built-in constant.
    Const(Const),
    /// An application of a function to its arguments.
    App(NodeId, Args),
    /// A binder with its typed bound variables and its body.
    Binder(Binder, Box<[(Sym, Type)]>, NodeId),
    /// A type ascription.
    Typed(NodeId, Type),
}

/// The arguments of an application: up to three held inline, more on the heap, so
/// probing the bank for a binary operator allocates nothing. Unused inline slots hold
/// a fixed filler, so equal argument lists are equal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Args {
    /// At most three arguments: the count and the slots.
    Inline(u8, [NodeId; 3]),
    /// More than three arguments.
    Heap(Box<[NodeId]>),
}

const FILLER: NodeId = NodeId(u32::MAX);

impl Args {
    fn from_iter(len: usize, ids: impl Iterator<Item = NodeId>) -> Args {
        if len <= 3 {
            let mut slots = [FILLER; 3];
            for (slot, id) in slots.iter_mut().zip(ids) {
                *slot = id;
            }
            Args::Inline(len as u8, slots)
        } else {
            Args::Heap(ids.collect())
        }
    }
}

impl std::ops::Deref for Args {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Args::Inline(len, slots) => &slots[..*len as usize],
            Args::Heap(ids) => ids,
        }
    }
}

/// An interned set of symbols (sorted by symbol id, which is bank-internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SetId(u32);

/// An interned substitution (sorted by symbol id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SubstId(u32);

const EMPTY_SET: SetId = SetId(0);
const EMPTY_SUBST: SubstId = SubstId(0);

/// The substitution-memo key of a node whose binders the substitution cannot rename:
/// the result then depends on the substitution restricted to the node's free
/// variables alone, whatever the replacement variables are.
const NO_RENAMING: SetId = SetId(u32::MAX);

/// What a node caches about itself, computed once when it is interned.
#[derive(Debug, Clone, Copy)]
struct Info {
    free: SetId,
    bound: SetId,
    size: u32,
    redex: bool,
}

/// The definitional substitution of one assumption list: the resolved bindings and the
/// free variables of their replacements, which capture avoidance needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Definitions {
    subst: SubstId,
    replacement_vars: SetId,
}

impl Definitions {
    /// Whether the assumptions define no generated variable.
    pub fn is_empty(&self) -> bool {
        self.subst == EMPTY_SUBST
    }
}

/// A sequent whose formulas live in a [`Bank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedSequent {
    /// The assumptions.
    pub assumptions: Vec<NodeId>,
    /// The goal.
    pub goal: NodeId,
    /// The sequent's labels, as in [`Sequent::labels`].
    pub labels: Vec<String>,
}

/// The bindings of one definition resolution, sorted by symbol id: each binding's
/// current value, its free variables as written, and whether it is resolved (`None`
/// until it is entered).
struct Links {
    bindings: Vec<(Sym, NodeId)>,
    raw: Vec<SetId>,
    state: Vec<Option<bool>>,
}

impl Links {
    fn index(&self, v: Sym) -> Option<usize> {
        self.bindings.binary_search_by_key(&v.0, |(w, _)| w.0).ok()
    }
}

/// A per-node memo: one slot per node id.
#[derive(Debug, Default, Clone)]
struct NodeMemo(Vec<u32>);

impl NodeMemo {
    fn get(&self, id: NodeId) -> Option<NodeId> {
        match self.0.get(id.0 as usize) {
            Some(&v) if v != u32::MAX => Some(NodeId(v)),
            _ => None,
        }
    }

    fn set(&mut self, id: NodeId, value: NodeId) {
        let i = id.0 as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, u32::MAX);
        }
        self.0[i] = value.0;
    }
}

/// A hash-consed store of formulas with memoised normalisation (see the module docs).
///
/// A bank only grows, so an id stays valid in the bank and in every copy of it. A batch
/// of obligations owns one: the VC generator builds the obligations in it, the
/// dispatcher's calling thread proves on it, and each helper thread on a copy.
#[derive(Debug, Clone)]
pub struct Bank {
    names: Vec<Box<str>>,
    generated: Vec<bool>,
    symbols: HashMap<Box<str>, Sym>,
    nodes: Vec<Node>,
    infos: Vec<Info>,
    index: FastMap<Node, NodeId>,
    /// The node of each constant and of each symbol's variable, looked up without
    /// building a node. Constant nodes are found only here, never in `index`.
    consts: HashMap<Const, NodeId>,
    vars: Vec<Option<NodeId>>,
    sets: Vec<Box<[Sym]>>,
    set_index: FastMap<Box<[Sym]>, SetId>,
    substs: Vec<Box<[(Sym, NodeId)]>>,
    subst_index: FastMap<Box<[(Sym, NodeId)]>, SubstId>,
    unions: FastMap<(SetId, SetId), SetId>,
    restricted: FastMap<(SubstId, SetId), SubstId>,
    substituted: FastMap<(NodeId, SubstId, SetId), NodeId>,
    stripped: NodeMemo,
    beta_stepped: NodeMemo,
    simped: NodeMemo,
    simplified: NodeMemo,
    sorted: NodeMemo,
    canonical: NodeMemo,
    alpha: NodeMemo,
    keyed: NodeMemo,
    /// The symbol `?b<depth>` alpha-renaming gives a variable bound at each depth.
    depth_names: Vec<Sym>,
    links: FastMap<NodeId, Range<usize>>,
    link_arena: Vec<(NodeId, NodeId)>,
    definitions: FastMap<Box<[NodeId]>, Definitions>,
    approx: approx::ApproxMemo,
    first_order: first_order::FirstOrderMemo,
    features: FastMap<NodeId, (SequentFeatures, SetId)>,
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

impl Bank {
    /// An empty bank.
    pub fn new() -> Bank {
        let mut bank = Bank {
            names: Vec::new(),
            generated: Vec::new(),
            symbols: HashMap::new(),
            nodes: Vec::new(),
            infos: Vec::new(),
            index: FastMap::default(),
            consts: HashMap::new(),
            vars: Vec::new(),
            sets: Vec::new(),
            set_index: FastMap::default(),
            substs: Vec::new(),
            subst_index: FastMap::default(),
            unions: FastMap::default(),
            restricted: FastMap::default(),
            substituted: FastMap::default(),
            stripped: NodeMemo::default(),
            beta_stepped: NodeMemo::default(),
            simped: NodeMemo::default(),
            simplified: NodeMemo::default(),
            sorted: NodeMemo::default(),
            canonical: NodeMemo::default(),
            alpha: NodeMemo::default(),
            keyed: NodeMemo::default(),
            depth_names: Vec::new(),
            links: FastMap::default(),
            link_arena: Vec::new(),
            definitions: FastMap::default(),
            approx: approx::ApproxMemo::default(),
            first_order: first_order::FirstOrderMemo::default(),
            features: FastMap::default(),
        };
        let empty = bank.set(Vec::new());
        debug_assert_eq!(empty, EMPTY_SET);
        let empty = bank.subst(Vec::new());
        debug_assert_eq!(empty, EMPTY_SUBST);
        bank
    }

    // ------------------------------------------------------------ symbols and sets

    /// Interns an identifier.
    pub fn symbol(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.symbols.get(name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(name.into());
        self.generated.push(is_generated_name(name));
        self.symbols.insert(name.into(), sym);
        sym
    }

    /// The name of a symbol.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    /// The symbol of an identifier the bank has interned, without interning it.
    pub fn find_symbol(&self, name: &str) -> Option<Sym> {
        self.symbols.get(name).copied()
    }

    fn set(&mut self, mut members: Vec<Sym>) -> SetId {
        members.sort_unstable_by_key(|s| s.0);
        members.dedup();
        if let Some(&id) = self.set_index.get(members.as_slice()) {
            return id;
        }
        let id = SetId(self.sets.len() as u32);
        let members: Box<[Sym]> = members.into();
        self.sets.push(members.clone());
        self.set_index.insert(members, id);
        id
    }

    fn members(&self, set: SetId) -> &[Sym] {
        &self.sets[set.0 as usize]
    }

    fn contains(&self, set: SetId, sym: Sym) -> bool {
        self.members(set)
            .binary_search_by_key(&sym.0, |s| s.0)
            .is_ok()
    }

    /// The union of two sets, memoised per pair: interning a node unions the
    /// variable sets of its children, and the same pairs recur.
    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b || b == EMPTY_SET {
            return a;
        }
        if a == EMPTY_SET {
            return b;
        }
        if let Some(&done) = self.unions.get(&(a, b)) {
            return done;
        }
        let mut members = self.members(a).to_vec();
        members.extend_from_slice(self.members(b));
        let out = self.set(members);
        self.unions.insert((a, b), out);
        out
    }

    fn meets(&self, a: SetId, b: SetId) -> bool {
        let (small, large) = if self.members(a).len() <= self.members(b).len() {
            (a, b)
        } else {
            (b, a)
        };
        self.members(small).iter().any(|s| self.contains(large, *s))
    }

    /// Interns a substitution given as bindings in insertion order; a later binding of
    /// the same variable replaces an earlier one, as in a [`Subst`] map.
    fn subst(&mut self, bindings: Vec<(Sym, NodeId)>) -> SubstId {
        let mut sorted: Vec<(Sym, NodeId)> = Vec::with_capacity(bindings.len());
        for (v, t) in bindings {
            match sorted.iter_mut().find(|(w, _)| *w == v) {
                Some(slot) => slot.1 = t,
                None => sorted.push((v, t)),
            }
        }
        sorted.sort_unstable_by_key(|(v, _)| v.0);
        self.subst_sorted(sorted)
    }

    /// Interns a substitution whose bindings are sorted by symbol id, one per variable.
    fn subst_sorted(&mut self, sorted: Vec<(Sym, NodeId)>) -> SubstId {
        if let Some(&id) = self.subst_index.get(sorted.as_slice()) {
            return id;
        }
        let id = SubstId(self.substs.len() as u32);
        let sorted: Box<[(Sym, NodeId)]> = sorted.into();
        self.substs.push(sorted.clone());
        self.subst_index.insert(sorted, id);
        id
    }

    fn bindings(&self, subst: SubstId) -> &[(Sym, NodeId)] {
        &self.substs[subst.0 as usize]
    }

    fn lookup(&self, subst: SubstId, v: Sym) -> Option<NodeId> {
        let bindings = self.bindings(subst);
        bindings
            .binary_search_by_key(&v.0, |(w, _)| w.0)
            .ok()
            .map(|i| bindings[i].1)
    }

    /// `subst` restricted to the variables of `vars`.
    fn restrict(&mut self, subst: SubstId, vars: SetId) -> SubstId {
        if subst == EMPTY_SUBST || vars == EMPTY_SET {
            return EMPTY_SUBST;
        }
        if let Some(&id) = self.restricted.get(&(subst, vars)) {
            return id;
        }
        let kept: Vec<(Sym, NodeId)> = self
            .bindings(subst)
            .iter()
            .filter(|(v, _)| self.contains(vars, *v))
            .copied()
            .collect();
        let id = self.subst(kept);
        self.restricted.insert((subst, vars), id);
        id
    }

    // ------------------------------------------------------------------- nodes

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn info(&self, id: NodeId) -> Info {
        self.infos[id.0 as usize]
    }

    /// The id of a node other than a constant, interning it on first sight.
    fn add(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = self.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// Stores a new node with what it caches about itself.
    fn push(&mut self, node: Node) -> NodeId {
        let info = match &node {
            Node::Var(v) => Info {
                free: self.set(vec![*v]),
                bound: EMPTY_SET,
                size: 1,
                redex: false,
            },
            Node::Const(_) => Info {
                free: EMPTY_SET,
                bound: EMPTY_SET,
                size: 1,
                redex: false,
            },
            Node::App(f, args) => {
                let head = self.info(*f);
                let mut info = Info {
                    size: 1 + head.size,
                    redex: args.is_empty()
                        || head.redex
                        || matches!(
                            self.node(*f),
                            Node::App(..) | Node::Binder(Binder::Lambda, ..)
                        )
                        || (matches!(self.node(*f), Node::Const(Const::Elem))
                            && matches!(
                                args.get(1).map(|a| self.node(*a)),
                                Some(Node::Binder(Binder::Comprehension, ..))
                            )),
                    ..head
                };
                for a in args.iter() {
                    let arg = self.info(*a);
                    info.free = self.union(info.free, arg.free);
                    info.bound = self.union(info.bound, arg.bound);
                    info.size += arg.size;
                    info.redex |= arg.redex;
                }
                info
            }
            Node::Binder(_, vars, body) => {
                let body = self.info(*body);
                let vars_set = self.set(vars.iter().map(|(v, _)| *v).collect());
                let free: Vec<Sym> = self
                    .members(body.free)
                    .iter()
                    .filter(|v| !self.contains(vars_set, **v))
                    .copied()
                    .collect();
                Info {
                    free: self.set(free),
                    bound: self.union(body.bound, vars_set),
                    size: 1 + vars.len() as u32 + body.size,
                    redex: body.redex,
                }
            }
            Node::Typed(f, _) => self.info(*f),
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.infos.push(info);
        id
    }

    /// Interns a formula, returning the id of its root.
    pub fn intern(&mut self, form: &Form) -> NodeId {
        let node = match form {
            Form::Var(v) => {
                let sym = self.symbol(v);
                return self.var(sym);
            }
            Form::Const(c) => return self.konst_ref(c),
            Form::App(f, args) => {
                let f = self.intern(f);
                let mut ids = [FILLER; 3];
                let args = if args.len() <= 3 {
                    for (slot, a) in ids.iter_mut().zip(args) {
                        *slot = self.intern(a);
                    }
                    Args::Inline(args.len() as u8, ids)
                } else {
                    Args::Heap(args.iter().map(|a| self.intern(a)).collect())
                };
                Node::App(f, args)
            }
            Form::Binder(b, vars, body) => {
                let vars = vars
                    .iter()
                    .map(|(v, t)| (self.symbol(v), t.clone()))
                    .collect();
                Node::Binder(*b, vars, self.intern(body))
            }
            Form::Typed(f, t) => Node::Typed(self.intern(f), t.clone()),
        };
        self.add(node)
    }

    /// Interns every formula of a sequent.
    pub fn intern_sequent(&mut self, sequent: &Sequent) -> InternedSequent {
        InternedSequent {
            assumptions: sequent.assumptions.iter().map(|a| self.intern(a)).collect(),
            goal: self.intern(&sequent.goal),
            labels: sequent.labels.clone(),
        }
    }

    /// Rebuilds the formula of a node.
    pub fn materialise(&self, id: NodeId) -> Form {
        match self.node(id) {
            Node::Var(v) => Form::Var(self.name(*v).to_string()),
            Node::Const(c) => Form::Const(c.clone()),
            Node::App(f, args) => Form::App(
                Box::new(self.materialise(*f)),
                args.iter().map(|a| self.materialise(*a)).collect(),
            ),
            Node::Binder(b, vars, body) => Form::Binder(
                *b,
                vars.iter()
                    .map(|(v, t)| (self.name(*v).to_string(), t.clone()))
                    .collect(),
                Box::new(self.materialise(*body)),
            ),
            Node::Typed(f, t) => Form::Typed(Box::new(self.materialise(*f)), t.clone()),
        }
    }

    /// Rebuilds a sequent.
    pub fn materialise_sequent(&self, sequent: &InternedSequent) -> Sequent {
        Sequent {
            assumptions: sequent
                .assumptions
                .iter()
                .map(|a| self.materialise(*a))
                .collect(),
            goal: self.materialise(sequent.goal),
            labels: sequent.labels.clone(),
        }
    }

    /// [`Sequent::describe`] of an interned sequent: the goal is rebuilt and printed
    /// only when the sequent has no labels.
    pub fn describe(&self, sequent: &InternedSequent) -> String {
        crate::sequent::describe(&sequent.labels, || {
            self.materialise(sequent.goal).to_string()
        })
    }

    /// The free variables of a node, in no particular order.
    pub fn free_vars(&self, id: NodeId) -> impl Iterator<Item = &str> + '_ {
        self.members(self.info(id).free)
            .iter()
            .map(|s| self.name(*s))
    }

    /// Whether `sym` is a free variable of a node, read from the node's cached set.
    pub fn is_free_in(&self, sym: Sym, id: NodeId) -> bool {
        self.contains(self.info(id).free, sym)
    }

    /// The free variables of a sequent, ordered by name (as [`Sequent::free_vars`]).
    pub fn sequent_free_vars(&self, sequent: &InternedSequent) -> BTreeSet<&str> {
        sequent
            .assumptions
            .iter()
            .chain(std::iter::once(&sequent.goal))
            .flat_map(|f| self.free_vars(*f))
            .collect()
    }

    /// The node count of a formula, as [`Form::size`].
    pub fn size(&self, id: NodeId) -> usize {
        self.info(id).size as usize
    }

    /// Whether the node is the literal `True`.
    pub fn is_true(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Const(Const::BoolLit(true)))
    }

    /// Whether the node is the literal `False`.
    pub fn is_false(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Const(Const::BoolLit(false)))
    }

    /// The arguments of an application of `c`, as [`Form::as_app_of`].
    pub fn as_app_of(&self, id: NodeId, c: &Const) -> Option<&[NodeId]> {
        match self.node(id) {
            Node::App(f, args) if matches!(self.node(*f), Node::Const(k) if k == c) => {
                Some(&args[..])
            }
            _ => None,
        }
    }

    /// Both sides of an equality, as [`Form::as_eq`].
    pub fn as_eq(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        match self.as_app_of(id, &Const::Eq) {
            Some(&[l, r]) => Some((l, r)),
            _ => None,
        }
    }

    /// The conjuncts of a formula, as [`Form::conjuncts`].
    pub fn conjuncts(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.push_operands(&Const::And, id, &mut out);
        out
    }

    /// Pushes the operands of nested applications of `op` (the conjuncts of `&`, the
    /// disjuncts of `|`), as [`Form::conjuncts`] and [`Form::disjuncts`] collect them.
    fn push_operands(&self, op: &Const, id: NodeId, out: &mut Vec<NodeId>) {
        match self.as_app_of(id, op) {
            Some(args) => {
                for a in args {
                    self.push_operands(op, *a, out);
                }
            }
            None => out.push(id),
        }
    }

    // ------------------------------------------- constructors mirroring `Form`'s

    fn konst(&mut self, c: Const) -> NodeId {
        self.konst_ref(&c)
    }

    fn konst_ref(&mut self, c: &Const) -> NodeId {
        if let Some(&id) = self.consts.get(c) {
            return id;
        }
        let id = self.push(Node::Const(c.clone()));
        self.consts.insert(c.clone(), id);
        id
    }

    /// The variable of a symbol, as [`Form::var`].
    pub fn var(&mut self, sym: Sym) -> NodeId {
        if let Some(Some(id)) = self.vars.get(sym.0 as usize) {
            return *id;
        }
        let id = self.add(Node::Var(sym));
        if self.vars.len() <= sym.0 as usize {
            self.vars.resize(sym.0 as usize + 1, None);
        }
        self.vars[sym.0 as usize] = Some(id);
        id
    }

    fn bool_lit(&mut self, b: bool) -> NodeId {
        self.konst(Const::BoolLit(b))
    }

    fn raw_app(&mut self, f: NodeId, args: Vec<NodeId>) -> NodeId {
        self.add(Node::App(f, Args::from_iter(args.len(), args.into_iter())))
    }

    /// [`Form::app`]: `f` applied to `args`, flattening an application in `f` and
    /// returning `f` for no arguments.
    pub fn app(&mut self, f: NodeId, args: Vec<NodeId>) -> NodeId {
        if args.is_empty() {
            return f;
        }
        match self.node(f) {
            Node::App(g, prev) => {
                let g = *g;
                let mut all = prev.to_vec();
                all.extend(args);
                self.raw_app(g, all)
            }
            _ => self.raw_app(f, args),
        }
    }

    /// A constant applied to arguments, as [`Form::app`] builds it.
    pub fn app_of(&mut self, c: Const, args: Vec<NodeId>) -> NodeId {
        let f = self.konst(c);
        self.app(f, args)
    }

    /// [`Form::comment`].
    pub fn comment(&mut self, label: &str, f: NodeId) -> NodeId {
        self.app_of(Const::Comment(label.to_string()), vec![f])
    }

    /// Equality, as [`Form::eq`].
    pub fn eq(&mut self, l: NodeId, r: NodeId) -> NodeId {
        self.app_of(Const::Eq, vec![l, r])
    }

    /// [`Form::not`].
    pub fn not(&mut self, f: NodeId) -> NodeId {
        match self.node(f) {
            Node::Const(Const::BoolLit(b)) => {
                let b = *b;
                self.bool_lit(!b)
            }
            _ => match self.as_app_of(f, &Const::Not) {
                Some(&[inner]) => inner,
                _ => self.app_of(Const::Not, vec![f]),
            },
        }
    }

    /// [`Form::and`] (`conjunction`) and [`Form::or`] (otherwise).
    fn junction(&mut self, conjunction: bool, parts: Vec<NodeId>) -> NodeId {
        let (op, unit) = if conjunction {
            (Const::And, true)
        } else {
            (Const::Or, false)
        };
        let mut flat = Vec::new();
        for p in parts {
            match self.node(p) {
                Node::Const(Const::BoolLit(b)) if *b == unit => {}
                Node::Const(Const::BoolLit(_)) => return self.bool_lit(!unit),
                _ => match self.as_app_of(p, &op) {
                    Some(args) => flat.extend_from_slice(args),
                    None => flat.push(p),
                },
            }
        }
        match flat.len() {
            0 => self.bool_lit(unit),
            1 => flat[0],
            _ => {
                let f = self.konst(op);
                self.raw_app(f, flat)
            }
        }
    }

    /// [`Form::and`].
    pub fn and(&mut self, parts: Vec<NodeId>) -> NodeId {
        self.junction(true, parts)
    }

    /// [`Form::or`].
    pub fn or(&mut self, parts: Vec<NodeId>) -> NodeId {
        self.junction(false, parts)
    }

    /// The node of a constant, as [`Form::Const`].
    pub fn constant(&mut self, c: Const) -> NodeId {
        self.konst(c)
    }

    /// The id of `node`, built as it is, without a smart constructor: a constant or a
    /// variable is looked up as [`Bank::constant`] and [`Bank::var`] do.
    pub fn make(&mut self, node: Node) -> NodeId {
        match node {
            Node::Const(c) => self.konst(c),
            Node::Var(v) => self.var(v),
            node => self.add(node),
        }
    }

    /// [`Form::implies`].
    pub fn implies(&mut self, l: NodeId, r: NodeId) -> NodeId {
        if self.is_true(l) {
            return r;
        }
        if self.is_false(l) || self.is_true(r) {
            return self.bool_lit(true);
        }
        self.app_of(Const::Impl, vec![l, r])
    }

    /// [`Form::forall_many`].
    pub fn forall(&mut self, vars: &[(Sym, Type)], body: NodeId) -> NodeId {
        self.quantify(Binder::Forall, vars, body)
    }

    /// [`Form::forall_many`] and [`Form::exists_many`] (`Binder::Exists`).
    fn quantify(&mut self, b: Binder, vars: &[(Sym, Type)], body: NodeId) -> NodeId {
        if vars.is_empty() {
            return body;
        }
        if b == Binder::Forall && matches!(self.node(body), Node::Const(Const::BoolLit(_))) {
            return body;
        }
        match self.node(body) {
            Node::Binder(inner_b, inner, inner_body) if *inner_b == b => {
                let inner_body = *inner_body;
                let all: Vec<(Sym, Type)> = vars.iter().chain(inner.iter()).cloned().collect();
                self.add(Node::Binder(b, all.into(), inner_body))
            }
            _ => self.add(Node::Binder(b, vars.into(), body)),
        }
    }

    // ------------------------------------------------------- comment stripping

    /// [`crate::simplify::strip_comments_deep`], memoised per node.
    pub fn strip_comments(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.stripped.get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.strip_comments(f);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.strip_comments(body);
                self.add(Node::Binder(b, vars, body))
            }
            Node::App(f, args) => {
                if matches!(self.node(f), Node::Const(Const::Comment(_))) && args.len() == 1 {
                    self.strip_comments(args[0])
                } else {
                    let f = self.strip_comments(f);
                    let args = args.iter().map(|a| self.strip_comments(*a)).collect();
                    self.raw_app(f, args)
                }
            }
        };
        self.stripped.set(id, out);
        out
    }

    // ------------------------------------------------------------- substitution

    /// `subst_rec` of [`crate::subst`] on the bank: applies `subst` to `id`, renaming
    /// a binder whose variable occurs in `replacement_vars` (the free variables of the
    /// replacements) away from capture.
    ///
    /// Memoised per node and substitution. When no binder of the node binds a
    /// variable of `replacement_vars`, nothing is renamed and the result depends only
    /// on the bindings of the node's free variables, so the memo is keyed by the
    /// substitution restricted to them. Otherwise a renamed binder's fresh name depends
    /// on every key and replacement variable, and the memo is keyed by the whole
    /// substitution and `replacement_vars`.
    fn substitute(&mut self, id: NodeId, subst: SubstId, replacement_vars: SetId) -> NodeId {
        let info = self.info(id);
        let (subst, key) = if self.meets(info.bound, replacement_vars) {
            (subst, (id, subst, replacement_vars))
        } else {
            let restricted = self.restrict(subst, info.free);
            if restricted == EMPTY_SUBST {
                return id;
            }
            (restricted, (id, restricted, NO_RENAMING))
        };
        if let Some(&done) = self.substituted.get(&key) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Var(v) => self.lookup(subst, v).unwrap_or(id),
            Node::Const(_) => id,
            Node::App(f, args) => {
                let f = self.substitute(f, subst, replacement_vars);
                let args = args
                    .iter()
                    .map(|a| self.substitute(*a, subst, replacement_vars))
                    .collect();
                self.raw_app(f, args)
            }
            Node::Typed(f, t) => {
                let f = self.substitute(f, subst, replacement_vars);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                self.substitute_binder(id, b, &vars, body, subst, replacement_vars)
            }
        };
        self.substituted.insert(key, out);
        out
    }

    fn substitute_binder(
        &mut self,
        id: NodeId,
        b: Binder,
        vars: &[(Sym, Type)],
        body: NodeId,
        subst: SubstId,
        replacement_vars: SetId,
    ) -> NodeId {
        // Remove bindings shadowed by the binder.
        let inner = if vars.iter().any(|(v, _)| self.lookup(subst, *v).is_some()) {
            let kept: Vec<(Sym, NodeId)> = self
                .bindings(subst)
                .iter()
                .filter(|(k, _)| !vars.iter().any(|(v, _)| v == k))
                .copied()
                .collect();
            self.subst(kept)
        } else {
            subst
        };
        if inner == EMPTY_SUBST {
            return id;
        }
        if !vars
            .iter()
            .any(|(v, _)| self.contains(replacement_vars, *v))
        {
            let body = self.substitute(body, inner, replacement_vars);
            return self.add(Node::Binder(b, vars.into(), body));
        }
        // Rename bound variables that would capture free variables of replacements,
        // away from the replacements' variables, the body's free variables, the
        // substitution's keys and the binder's other variables.
        let mut avoid: HashSet<Sym> = self.members(replacement_vars).iter().copied().collect();
        avoid.extend(self.members(self.info(body).free).iter().copied());
        avoid.extend(self.bindings(subst).iter().map(|(k, _)| *k));
        avoid.extend(vars.iter().map(|(v, _)| *v));
        let mut new_vars = Vec::with_capacity(vars.len());
        let mut body = body;
        for (v, t) in vars {
            if self.contains(replacement_vars, *v) {
                let fresh = self.fresh_name(*v, &avoid);
                avoid.insert(fresh);
                let fresh_var = self.var(fresh);
                let one = self.subst(vec![(*v, fresh_var)]);
                let fresh_set = self.set(vec![fresh]);
                body = self.substitute(body, one, fresh_set);
                new_vars.push((fresh, t.clone()));
            } else {
                new_vars.push((*v, t.clone()));
            }
        }
        let body = self.substitute(body, inner, replacement_vars);
        self.add(Node::Binder(b, new_vars.into(), body))
    }

    /// [`crate::subst::fresh_name`] over symbols.
    fn fresh_name(&mut self, base: Sym, avoid: &HashSet<Sym>) -> Sym {
        let fresh = fresh_name_by(self.name(base), |name| {
            self.find_symbol(name)
                .is_some_and(|sym| avoid.contains(&sym))
        });
        self.symbol(&fresh)
    }

    /// [`crate::subst::substitute_one`]: `replacement` for the free occurrences of `v`,
    /// renaming binders that would capture its free variables.
    pub fn substitute_one(&mut self, id: NodeId, v: Sym, replacement: NodeId) -> NodeId {
        let subst = self.subst(vec![(v, replacement)]);
        self.substitute_all(id, subst)
    }

    /// [`crate::subst::substitute`] of the `bindings`, given in insertion order (a
    /// later binding of a variable replaces an earlier one, as in a [`Subst`] map).
    pub fn substitute_many(&mut self, id: NodeId, bindings: Vec<(Sym, NodeId)>) -> NodeId {
        let subst = self.subst(bindings);
        self.substitute_all(id, subst)
    }

    /// [`crate::subst::substitute`]: the replacement variables are those of `subst`'s
    /// replacements.
    fn substitute_all(&mut self, id: NodeId, subst: SubstId) -> NodeId {
        if subst == EMPTY_SUBST {
            return id;
        }
        let replacements: Vec<NodeId> = self.bindings(subst).iter().map(|(_, t)| *t).collect();
        let mut vars = EMPTY_SET;
        for t in replacements {
            vars = self.union(vars, self.info(t).free);
        }
        self.substitute(id, subst, vars)
    }

    // ---------------------------------------------------------- beta reduction

    /// One bottom-up pass of beta reduction (`beta_step` of [`crate::subst`]),
    /// memoised per node.
    fn beta_step(&mut self, id: NodeId) -> NodeId {
        if !self.info(id).redex {
            return id;
        }
        if let Some(done) = self.beta_stepped.get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.beta_step(f);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.beta_step(body);
                self.add(Node::Binder(b, vars, body))
            }
            Node::App(f, args) => {
                let f = self.beta_step(f);
                let args: Vec<NodeId> = args.iter().map(|a| self.beta_step(*a)).collect();
                self.beta_app(f, args)
            }
        };
        self.beta_stepped.set(id, out);
        out
    }

    fn beta_app(&mut self, f: NodeId, args: Vec<NodeId>) -> NodeId {
        // Membership in a comprehension.
        if matches!(self.node(f), Node::Const(Const::Elem)) && args.len() == 2 {
            if let Node::Binder(Binder::Comprehension, vars, body) = self.node(args[1]).clone() {
                if let Some(reduced) = self.reduce_comprehension_elem(args[0], &vars, body) {
                    return reduced;
                }
            }
        }
        // Lambda application.
        if let Node::Binder(Binder::Lambda, vars, body) = self.node(f).clone() {
            let n = vars.len().min(args.len());
            let bindings: Vec<(Sym, NodeId)> = vars
                .iter()
                .zip(args.iter())
                .take(n)
                .map(|((v, _), a)| (*v, *a))
                .collect();
            let subst = self.subst(bindings);
            let body = self.substitute_all(body, subst);
            let reduced = if vars.len() > n {
                self.add(Node::Binder(Binder::Lambda, vars[n..].into(), body))
            } else {
                body
            };
            return self.app(reduced, args[n..].to_vec());
        }
        self.app(f, args)
    }

    fn reduce_comprehension_elem(
        &mut self,
        elem: NodeId,
        vars: &[(Sym, Type)],
        body: NodeId,
    ) -> Option<NodeId> {
        let bindings: Vec<(Sym, NodeId)> = if vars.len() == 1 {
            vec![(vars[0].0, elem)]
        } else {
            let components = self.as_app_of(elem, &Const::Tuple)?;
            if components.len() != vars.len() {
                return None;
            }
            vars.iter()
                .zip(components.iter())
                .map(|((v, _), c)| (*v, *c))
                .collect()
        };
        let subst = self.subst(bindings);
        Some(self.substitute_all(body, subst))
    }

    /// [`crate::subst::beta_reduce`]: beta steps to a fixpoint, at most 64.
    fn beta_normal(&mut self, id: NodeId) -> NodeId {
        let mut current = id;
        for _ in 0..64 {
            let next = self.beta_step(current);
            if next == current {
                return next;
            }
            current = next;
        }
        current
    }

    // ----------------------------------------------------------- simplification

    /// Simplifies a formula, memoised per node: beta reduction, then bottom-up folding
    /// of boolean constants, double negations, trivial equalities and comparisons,
    /// integer sums and differences of literals (when they fit in `i64`), `ite` with a
    /// constant condition, and set operations with neutral elements. The result is
    /// logically equivalent to the input.
    pub fn simplify(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.simplified.get(id) {
            return done;
        }
        let normal = self.beta_normal(id);
        let out = self.simp(normal);
        self.simplified.set(id, out);
        out
    }

    fn simp(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.simped.get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.simp(f);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.simp(body);
                match b {
                    Binder::Forall | Binder::Exists => self.quantify(b, &vars, body),
                    _ => self.add(Node::Binder(b, vars, body)),
                }
            }
            Node::App(f, args) => {
                let f = self.simp(f);
                let args = args.iter().map(|a| self.simp(*a)).collect();
                self.simp_app(f, args)
            }
        };
        self.simped.set(id, out);
        out
    }

    fn int_lit(&self, id: NodeId) -> Option<i64> {
        match self.node(id) {
            Node::Const(Const::IntLit(i)) => Some(*i),
            _ => None,
        }
    }

    fn is_const(&self, id: NodeId, c: &Const) -> bool {
        matches!(self.node(id), Node::Const(k) if k == c)
    }

    /// One application's simplification, the rules tried in order.
    fn simp_app(&mut self, fun: NodeId, args: Vec<NodeId>) -> NodeId {
        let Node::Const(c) = self.node(fun).clone() else {
            return self.app(fun, args);
        };
        let lits = match args.as_slice() {
            [l, r] => self.int_lit(*l).zip(self.int_lit(*r)),
            _ => None,
        };
        match (&c, args.as_slice()) {
            (Const::And, _) => return self.junction(true, args),
            (Const::Or, _) => return self.junction(false, args),
            (Const::Not, &[f]) => return self.not(f),
            (Const::Impl, &[l, r]) => return self.implies(l, r),
            (Const::Iff, &[l, r]) => {
                if l == r {
                    return self.bool_lit(true);
                }
                if self.is_true(l) {
                    return r;
                }
                if self.is_true(r) {
                    return l;
                }
                if self.is_false(l) {
                    return self.not(r);
                }
                if self.is_false(r) {
                    return self.not(l);
                }
            }
            (Const::Eq, &[l, r]) if l == r => return self.bool_lit(true),
            (Const::Eq, _) if lits.is_some() => {
                let (a, b) = lits.expect("checked");
                return self.bool_lit(a == b);
            }
            (Const::Eq, &[f, t]) if self.is_true(t) => return f,
            (Const::Eq, &[t, f]) if self.is_true(t) => return f,
            (Const::Eq, &[f, t]) if self.is_false(t) => return self.not(f),
            (Const::Eq, &[t, f]) if self.is_false(t) => return self.not(f),
            (Const::Eq, &[l, r]) if self.is_formula_shaped(l) || self.is_formula_shaped(r) => {
                let iff = self.konst(Const::Iff);
                return self.simp_app(iff, vec![l, r]);
            }
            (Const::Eq, &[l, r])
                if self.is_const(l, &Const::Null) && self.is_const(r, &Const::Null) =>
            {
                return self.bool_lit(true);
            }
            (Const::Lt | Const::LtEq | Const::Gt | Const::GtEq, _) if lits.is_some() => {
                let (a, b) = lits.expect("checked");
                let holds = match c {
                    Const::Lt => a < b,
                    Const::LtEq => a <= b,
                    Const::Gt => a > b,
                    _ => a >= b,
                };
                return self.bool_lit(holds);
            }
            // `int` is unbounded, so a sum or difference outside `i64` stays unfolded.
            (Const::Plus, _) if lits.and_then(|(a, b)| a.checked_add(b)).is_some() => {
                let (a, b) = lits.expect("checked");
                return self.konst(Const::IntLit(a + b));
            }
            (Const::Minus, _) if lits.and_then(|(a, b)| a.checked_sub(b)).is_some() => {
                let (a, b) = lits.expect("checked");
                return self.konst(Const::IntLit(a - b));
            }
            (Const::Plus, &[x, z]) if self.int_lit(z) == Some(0) => return x,
            (Const::Plus, &[z, x]) if self.int_lit(z) == Some(0) => return x,
            (Const::Minus, &[x, z]) if self.int_lit(z) == Some(0) => return x,
            (Const::Ite, &[c, t, e]) => {
                if self.is_true(c) {
                    return t;
                }
                if self.is_false(c) {
                    return e;
                }
                if t == e {
                    return t;
                }
            }
            (Const::Elem, &[_, s]) if self.is_const(s, &Const::EmptySet) => {
                return self.bool_lit(false)
            }
            (Const::Elem, &[_, s]) if self.is_const(s, &Const::UnivSet) => {
                return self.bool_lit(true)
            }
            (Const::Elem, &[x, s]) => {
                if let Some(elems) = self.as_app_of(s, &Const::FiniteSet) {
                    // x : {a} simplifies to x = a (and similarly for larger displays).
                    let elems = elems.to_vec();
                    let eqs = elems.into_iter().map(|e| self.eq(x, e)).collect();
                    return self.junction(false, eqs);
                }
            }
            (Const::Union, &[e, x]) if self.is_const(e, &Const::EmptySet) => return x,
            (Const::Union, &[x, e]) if self.is_const(e, &Const::EmptySet) => return x,
            (Const::Inter, &[e, _]) if self.is_const(e, &Const::EmptySet) => return e,
            (Const::Inter, &[_, e]) if self.is_const(e, &Const::EmptySet) => return e,
            (Const::Diff, &[x, e]) if self.is_const(e, &Const::EmptySet) => return x,
            (Const::Union | Const::Inter, &[x, y]) if x == y => return x,
            (Const::SubsetEq, &[e, _]) if self.is_const(e, &Const::EmptySet) => {
                return self.bool_lit(true)
            }
            (Const::SubsetEq, &[x, y]) if x == y => return self.bool_lit(true),
            (Const::Comment(_), &[f]) if self.is_true(f) => return self.bool_lit(true),
            _ => {}
        }
        self.app(fun, args)
    }

    /// Whether a node is syntactically a boolean formula: a connective, comparison,
    /// membership or subset atom, equality, quantified formula, boolean literal,
    /// `rtrancl_pt` or `tree` atom, or a `bool` ascription.
    fn is_formula_shaped(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Const(Const::BoolLit(_)) => true,
            Node::Binder(Binder::Forall | Binder::Exists, _, _) => true,
            Node::Typed(inner, t) => *t == Type::Bool || self.is_formula_shaped(*inner),
            Node::App(head, _) => matches!(
                self.node(*head),
                Node::Const(
                    Const::And
                        | Const::Or
                        | Const::Not
                        | Const::Impl
                        | Const::Iff
                        | Const::Eq
                        | Const::Lt
                        | Const::LtEq
                        | Const::Gt
                        | Const::GtEq
                        | Const::Elem
                        | Const::Subset
                        | Const::SubsetEq
                        | Const::Rtrancl
                        | Const::Tree
                )
            ),
            _ => false,
        }
    }

    // ------------------------------------------------------------ node order

    /// Compares the formulas of two nodes as [`Form`]'s derived `Ord` does: variants in
    /// declaration order (`Var`, `Const`, `App`, `Binder`, `Typed`), names by their
    /// text, constants, binder kinds and types by their own `Ord`, and argument and
    /// bound-variable lists element by element, then by length. Equal ids are equal
    /// formulas, so they compare equal without descending.
    pub fn order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let rank = |node: &Node| match node {
            Node::Var(_) => 0,
            Node::Const(_) => 1,
            Node::App(..) => 2,
            Node::Binder(..) => 3,
            Node::Typed(..) => 4,
        };
        match (self.node(a), self.node(b)) {
            (Node::Var(x), Node::Var(y)) => self.name(*x).cmp(self.name(*y)),
            (Node::Const(x), Node::Const(y)) => x.cmp(y),
            (Node::App(f, xs), Node::App(g, ys)) => self.order(*f, *g).then_with(|| {
                let pairs = xs.iter().zip(ys.iter());
                lexicographic(pairs.map(|(x, y)| self.order(*x, *y)), xs.len(), ys.len())
            }),
            (Node::Binder(b, xs, x), Node::Binder(c, ys, y)) => b
                .cmp(c)
                .then_with(|| {
                    let pairs = xs.iter().zip(ys.iter());
                    let vars = pairs.map(|((v, t), (w, u))| {
                        self.name(*v).cmp(self.name(*w)).then_with(|| t.cmp(u))
                    });
                    lexicographic(vars, xs.len(), ys.len())
                })
                .then_with(|| self.order(*x, *y)),
            (Node::Typed(f, t), Node::Typed(g, u)) => self.order(*f, *g).then_with(|| t.cmp(u)),
            (x, y) => rank(x).cmp(&rank(y)),
        }
    }

    // -------------------------------------------------------- canonicalisation

    /// Expands membership in set expressions into propositional structure: `x : A Un B`
    /// becomes `x : A | x : B`, `x : A Int B` becomes `x : A & x : B`, `x : A \ B` and
    /// `x : A - B` become `x : A & ~(x : B)`, `x : {a, b}` becomes `x = a | x = b`, and
    /// `x : {}` and `x : UNIV` become `False` and `True`. A comprehension is entered by
    /// beta normalisation first; then one bottom-up rewriting pass runs at a time until
    /// a pass changes nothing (at most 64), each pass memoised per node.
    pub fn expand_membership(&mut self, id: NodeId) -> NodeId {
        let normal = self.beta_normal(id);
        self.rewrite_fixpoint(normal, first_order::Rule::Membership)
    }

    /// The rule of [`Bank::expand_membership`] at one node, case for case in order:
    /// membership in a union, an intersection, a two-argument difference, a finite
    /// set, the empty set or the universal set.
    fn expand_membership_rule(&mut self, id: NodeId) -> Option<NodeId> {
        let Some(&[x, s]) = self.as_app_of(id, &Const::Elem) else {
            return None;
        };
        for (op, conjunction) in [(Const::Union, false), (Const::Inter, true)] {
            if let Some(parts) = self.as_app_of(s, &op) {
                let parts = parts.to_vec();
                let members = parts.into_iter().map(|p| self.elem(x, p)).collect();
                return Some(self.junction(conjunction, members));
            }
        }
        let difference = self
            .as_app_of(s, &Const::Diff)
            .or_else(|| self.as_app_of(s, &Const::Minus));
        if let Some(&[a, b]) = difference {
            let inside = self.elem(x, a);
            let outside = self.elem(x, b);
            let outside = self.not(outside);
            return Some(self.junction(true, vec![inside, outside]));
        }
        if let Some(elems) = self.as_app_of(s, &Const::FiniteSet) {
            let elems = elems.to_vec();
            let eqs = elems.into_iter().map(|e| self.eq(x, e)).collect();
            return Some(self.junction(false, eqs));
        }
        match self.node(s) {
            Node::Const(Const::EmptySet) => Some(self.bool_lit(false)),
            Node::Const(Const::UnivSet) => Some(self.bool_lit(true)),
            _ => None,
        }
    }

    /// Membership, as [`Form::elem`].
    fn elem(&mut self, x: NodeId, s: NodeId) -> NodeId {
        self.app_of(Const::Elem, vec![x, s])
    }

    /// [`crate::norm::sort_commutative`], memoised per node.
    pub fn sort_commutative(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.sorted.get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.sort_commutative(f);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.sort_commutative(body);
                self.add(Node::Binder(b, vars, body))
            }
            Node::App(f, args) => {
                let f = self.sort_commutative(f);
                let args = args.iter().map(|a| self.sort_commutative(*a)).collect();
                self.sort_app(f, args)
            }
        };
        self.sorted.set(id, out);
        out
    }

    /// Rebuilds an application whose function and arguments are sorted: `&` and `|`
    /// are flattened into their operands, sorted, deduplicated and rebuilt through the
    /// junction constructor; `=` and `<->` order their two operands; binary `Un`,
    /// `Int`, `+` and `*` collect the leaves of the chain through binary applications,
    /// sort them (deduplicating only `Un` and `Int`, which are idempotent) and rebuild
    /// them left-nested. Any other application is rebuilt as it is.
    fn sort_app(&mut self, f: NodeId, mut args: Vec<NodeId>) -> NodeId {
        let Node::Const(c) = self.node(f).clone() else {
            return self.raw_app(f, args);
        };
        match c {
            Const::And | Const::Or => {
                let mut parts = Vec::new();
                for a in args {
                    self.push_operands(&c, a, &mut parts);
                }
                parts.sort_unstable_by(|a, b| self.order(*a, *b));
                parts.dedup();
                self.junction(c == Const::And, parts)
            }
            Const::Eq | Const::Iff if args.len() == 2 => {
                if self.order(args[0], args[1]) == Ordering::Greater {
                    args.swap(0, 1);
                }
                self.raw_app(f, args)
            }
            Const::Union | Const::Inter | Const::Plus | Const::Times if args.len() == 2 => {
                let mut leaves = Vec::new();
                for a in args {
                    self.push_ac_leaves(&c, a, &mut leaves);
                }
                leaves.sort_unstable_by(|a, b| self.order(*a, *b));
                // The simplifier collapses `t Un t` only when the copies are siblings;
                // deduplicating the idempotent operators here makes AC-equal chains
                // canonicalise identically whatever their association. `+` and `*`
                // are not idempotent, so their repeated leaves stay.
                if matches!(c, Const::Union | Const::Inter) {
                    leaves.dedup();
                }
                let mut leaves = leaves.into_iter();
                let first = leaves.next().expect("binary operator has arguments");
                leaves.fold(first, |acc, next| self.raw_app(f, vec![acc, next]))
            }
            _ => self.raw_app(f, args),
        }
    }

    /// Pushes the leaves of a chain of binary applications of `op`.
    fn push_ac_leaves(&self, op: &Const, id: NodeId, out: &mut Vec<NodeId>) {
        match self.as_app_of(id, op) {
            Some(&[l, r]) => {
                self.push_ac_leaves(op, l, out);
                self.push_ac_leaves(op, r, out);
            }
            _ => out.push(id),
        }
    }

    /// [`crate::norm::canonicalize`], memoised per node: comments stripped, membership
    /// expanded, simplified, AC-sorted and simplified again.
    pub fn canonical(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.canonical.get(id) {
            return done;
        }
        let stripped = self.strip_comments(id);
        let expanded = self.expand_membership(stripped);
        let simplified = self.simplify(expanded);
        let sorted = self.sort_commutative(simplified);
        let out = self.simplify(sorted);
        self.canonical.set(id, out);
        out
    }

    /// [`crate::norm::alpha_normalize`], memoised per node: every bound variable is
    /// renamed `?b<depth>`, the number of variables bound around it.
    pub fn alpha_normalize(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.alpha.get(id) {
            return done;
        }
        let out = self.alpha_under(id, &mut Vec::new());
        self.alpha.set(id, out);
        out
    }

    /// Alpha-renames `id` under the enclosing binders' renamings `env` (innermost last).
    /// Applications and binders are rebuilt as they are, without smart constructors. A
    /// node that holds no binder and no free variable `env` renames is returned as it
    /// is.
    fn alpha_under(&mut self, id: NodeId, env: &mut Vec<(Sym, Sym)>) -> NodeId {
        let info = self.info(id);
        if info.bound == EMPTY_SET && !env.iter().any(|(from, _)| self.contains(info.free, *from)) {
            return id;
        }
        match self.node(id).clone() {
            Node::Var(v) => match env.iter().rev().find(|(from, _)| *from == v) {
                Some(&(_, to)) => self.var(to),
                None => id,
            },
            Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.alpha_under(f, env);
                self.add(Node::Typed(f, t))
            }
            Node::App(f, args) => {
                let f = self.alpha_under(f, env);
                let args = args.iter().map(|a| self.alpha_under(*a, env)).collect();
                self.raw_app(f, args)
            }
            Node::Binder(b, vars, body) => {
                let depth = env.len();
                let mut renamed = Vec::with_capacity(vars.len());
                for (v, t) in vars.iter() {
                    let fresh = self.depth_name(env.len());
                    env.push((*v, fresh));
                    renamed.push((fresh, t.clone()));
                }
                let body = self.alpha_under(body, env);
                env.truncate(depth);
                self.add(Node::Binder(b, renamed.into(), body))
            }
        }
    }

    /// The symbol `?b<depth>`.
    fn depth_name(&mut self, depth: usize) -> Sym {
        while self.depth_names.len() <= depth {
            let name = format!("?b{}", self.depth_names.len());
            let sym = self.symbol(&name);
            self.depth_names.push(sym);
        }
        self.depth_names[depth]
    }

    /// The form the cache key prints for a formula, memoised per node:
    /// [`Bank::alpha_normalize`] then [`Bank::canonical`], repeated until the id stops
    /// changing, for at most five rounds.
    ///
    /// Alpha-renaming names every binder by its depth, so sibling binders share names
    /// and AC sorting cannot change how any binder is named: one round normally reaches
    /// the fixpoint, and a second round confirms it, comparing ids, not trees. The loop
    /// guards the cases where `canonical` itself reshapes binders. Its beta reduction
    /// (of a lambda application, or of membership in a comprehension) removes a binder,
    /// or renames one beneath it to avoid capture, which leaves names that are no
    /// longer depth-canonical until the next round: `x : {y. EX z. p y z}` keys as
    /// `EX ?b0. p x ?b0` only in round two. On a one-second seed-1 run of each
    /// benchmark workload, no second round changed any of the 7,240 (`suite_cold`),
    /// 8,043 (`edit_warm`) and 3,680 (`reject_mutants`) key forms computed; the bound
    /// keeps a pathological input from looping.
    pub fn key_form(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.keyed.get(id) {
            return done;
        }
        let mut current = self.key_round(id);
        for _ in 0..4 {
            let next = self.key_round(current);
            if next == current {
                break;
            }
            current = next;
        }
        self.keyed.set(id, current);
        current
    }

    fn key_round(&mut self, id: NodeId) -> NodeId {
        let renamed = self.alpha_normalize(id);
        self.canonical(renamed)
    }

    // ---------------------------------------------------------------- features

    /// [`SequentFeatures::of`] of an interned sequent: the features of its formulas,
    /// added up.
    pub fn sequent_features(&mut self, sequent: &InternedSequent) -> SequentFeatures {
        let mut out = SequentFeatures::default();
        for f in sequent.assumptions.iter().chain([&sequent.goal]) {
            out.add(&self.features(*f).0);
        }
        out
    }

    /// The features of one formula, memoised per node, with the free variables it
    /// uses as the set of a membership `x : s`. A quantifier binds a set when one of
    /// its variables is typed as a set or is such a variable of its body; a binder
    /// shadows the names it binds, so a membership marks only the innermost binder of
    /// its set's name.
    fn features(&mut self, id: NodeId) -> (SequentFeatures, SetId) {
        if let Some(done) = self.features.get(&id) {
            return *done;
        }
        let mut out = SequentFeatures::default();
        let mut sets = EMPTY_SET;
        match self.node(id).clone() {
            Node::Var(_) => {}
            Node::Const(c) => out.visit_const(&c),
            Node::App(f, args) => {
                if let (Node::Const(Const::Elem), &[_, set]) = (self.node(f), &args[..]) {
                    if let Node::Var(s) = self.node(set) {
                        sets = self.set(vec![*s]);
                    }
                }
                for part in std::iter::once(f).chain(args.iter().copied()) {
                    let (features, used) = self.features(part);
                    out.add(&features);
                    sets = self.union(sets, used);
                }
            }
            Node::Binder(b, vars, body) => {
                let (features, used) = self.features(body);
                out = features;
                if matches!(b, Binder::Forall | Binder::Exists) {
                    out.quantifiers += 1;
                    let binds_set = vars
                        .iter()
                        .any(|(v, ty)| matches!(ty, Type::Set(_)) || self.contains(used, *v));
                    out.set_binders += binds_set as usize;
                } else {
                    out.lambdas += 1;
                }
                let outside: Vec<Sym> = self
                    .members(used)
                    .iter()
                    .filter(|s| !vars.iter().any(|(v, _)| v == *s))
                    .copied()
                    .collect();
                sets = self.set(outside);
            }
            Node::Typed(f, _) => (out, sets) = self.features(f),
        }
        self.features.insert(id, (out, sets));
        (out, sets)
    }

    // ------------------------------------------------------- definition inlining

    /// The definitional substitution of an assumption list, memoised per list.
    ///
    /// Every (comment-stripped) conjunct `v = t`, `t = v`, `v <-> t` or `t <-> v` with
    /// `v` a generated variable ([`is_generated_name`]) not free in `t` contributes a
    /// binding, the first one per variable winning. Chains are then resolved in one
    /// depth-first pass, in name order: each binding is rewritten once, by the already
    /// resolved bindings it mentions, so no resolved replacement mentions a variable
    /// the substitution binds. Bindings on a cycle of definitions, and those that
    /// depend on one, are left as written; no binding mentions its own variable.
    pub fn definitions(&mut self, assumptions: &[NodeId]) -> Definitions {
        if let Some(&done) = self.definitions.get(assumptions) {
            return done;
        }
        let mut links: FastMap<Sym, NodeId> = FastMap::default();
        for &a in assumptions {
            let span = self.links(a);
            for &(l, r) in &self.link_arena[span] {
                for (lhs, rhs) in [(l, r), (r, l)] {
                    let Node::Var(v) = *self.node(lhs) else {
                        continue;
                    };
                    if !self.generated[v.0 as usize]
                        || links.contains_key(&v)
                        || self.contains(self.info(rhs).free, v)
                    {
                        continue;
                    }
                    links.insert(v, rhs);
                    break;
                }
            }
        }
        let mut bindings: Vec<(Sym, NodeId)> = links.into_iter().collect();
        bindings.sort_unstable_by_key(|(v, _)| v.0);
        let done = self.resolve_definitions(bindings);
        self.definitions.insert(assumptions.into(), done);
        done
    }

    /// The equalities and bi-implications among the conjuncts of an assumption with its
    /// comments stripped, in order: the definitional links it can contribute, as a
    /// range of the link arena.
    fn links(&mut self, assumption: NodeId) -> Range<usize> {
        if let Some(done) = self.links.get(&assumption) {
            return done.clone();
        }
        let stripped = self.strip_comments(assumption);
        let start = self.link_arena.len();
        for c in self.conjuncts(stripped) {
            let link = self
                .as_eq(c)
                .or_else(|| match self.as_app_of(c, &Const::Iff) {
                    Some(&[l, r]) => Some((l, r)),
                    _ => None,
                });
            self.link_arena.extend(link);
        }
        let span = start..self.link_arena.len();
        self.links.insert(assumption, span.clone());
        span
    }

    /// Resolves the definitional `bindings` (sorted by symbol id) in name order.
    fn resolve_definitions(&mut self, bindings: Vec<(Sym, NodeId)>) -> Definitions {
        let raw: Vec<SetId> = bindings.iter().map(|(_, t)| self.info(*t).free).collect();
        // Binders in the values are renamed against the free variables of every value
        // as written, as a whole-map substitution of the values would.
        let mut renaming = EMPTY_SET;
        for vars in &raw {
            renaming = self.union(renaming, *vars);
        }
        let mut links = Links {
            state: vec![None; bindings.len()],
            bindings,
            raw,
        };
        let mut order: Vec<usize> = (0..links.bindings.len()).collect();
        order.sort_by(|a, b| {
            self.name(links.bindings[*a].0)
                .cmp(self.name(links.bindings[*b].0))
        });
        for i in order {
            self.resolve(i, &mut links, renaming);
        }
        // A resolved value mentions no variable the map binds; one left as written
        // keeps those it mentions.
        let mut replacement_vars = Vec::new();
        for (i, vars) in links.raw.iter().enumerate() {
            let keeps_keys = links.state[i] != Some(true);
            replacement_vars.extend(
                self.members(*vars)
                    .iter()
                    .filter(|u| keeps_keys || links.index(**u).is_none())
                    .copied(),
            );
        }
        Definitions {
            subst: self.subst_sorted(links.bindings),
            replacement_vars: self.set(replacement_vars),
        }
    }

    /// Resolves binding `i` after the bindings it mentions, each at most once, and
    /// returns whether it was resolved. Every binding entered is marked unresolved
    /// until it is resolved, so reaching a binding still on the current path closes a
    /// cycle, and everything on that path is left as written.
    fn resolve(&mut self, i: usize, links: &mut Links, renaming: SetId) -> bool {
        if let Some(known) = links.state[i] {
            return known;
        }
        links.state[i] = Some(false);
        let mut deps: Vec<usize> = self
            .members(links.raw[i])
            .iter()
            .filter_map(|u| links.index(*u))
            .collect();
        deps.sort_by(|a, b| {
            self.name(links.bindings[*a].0)
                .cmp(self.name(links.bindings[*b].0))
        });
        let mut resolvable = true;
        for j in deps {
            resolvable &= self.resolve(j, links, renaming);
        }
        if resolvable {
            // The value is rewritten by the whole current map; unless one of its binders
            // can be renamed, only the bindings of its free variables matter.
            let value = links.bindings[i].1;
            let info = self.info(value);
            let current = if self.meets(info.bound, renaming) {
                links.bindings.clone()
            } else {
                links
                    .bindings
                    .iter()
                    .filter(|(k, _)| self.contains(info.free, *k))
                    .copied()
                    .collect()
            };
            let current = self.subst_sorted(current);
            links.bindings[i].1 = self.substitute(value, current, renaming);
            links.state[i] = Some(true);
        }
        resolvable
    }

    /// The substitution of [`Bank::definitions`], rebuilt as formulas.
    pub fn substitution(&self, definitions: Definitions) -> Subst {
        self.bindings(definitions.subst)
            .iter()
            .map(|(v, t)| (Ident::from(self.name(*v)), self.materialise(*t)))
            .collect()
    }

    /// One formula with `definitions` substituted and the result simplified.
    fn inline(&mut self, id: NodeId, definitions: Definitions) -> NodeId {
        let substituted = self.substitute(id, definitions.subst, definitions.replacement_vars);
        self.simplify(substituted)
    }

    /// [`crate::norm::inline_definitions`] on the bank: substitutes the definitions of
    /// the sequent's assumptions into every formula and simplifies it, dropping
    /// assumptions that become `True`. A sequent that defines nothing is returned as
    /// it is, unsimplified.
    pub fn inline_definitions(&mut self, sequent: &InternedSequent) -> InternedSequent {
        let definitions = self.definitions(&sequent.assumptions);
        if definitions.is_empty() {
            return sequent.clone();
        }
        let mut assumptions = Vec::with_capacity(sequent.assumptions.len());
        for a in &sequent.assumptions {
            let inlined = self.inline(*a, definitions);
            if !self.is_true(inlined) {
                assumptions.push(inlined);
            }
        }
        InternedSequent {
            assumptions,
            goal: self.inline(sequent.goal, definitions),
            labels: sequent.labels.clone(),
        }
    }
}

/// The `Form`-recursive functions the bank must match.
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference;
    use super::*;
    use crate::parser::parse_form;
    use crate::simplify::strip_comments_deep;
    use crate::subst::{beta_reduce, substitute};

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    #[test]
    fn structurally_equal_formulas_share_one_id() {
        let mut bank = Bank::new();
        let a = bank.intern(&p("ALL x. x : content --> x ~= null"));
        let b = bank.intern(&p("ALL x. x : content --> x ~= null"));
        let c = bank.intern(&p("ALL y. y : content --> y ~= null"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(bank.materialise(a), p("ALL x. x : content --> x ~= null"));
        assert_eq!(bank.size(a), p("ALL x. x : content --> x ~= null").size());
        let free: BTreeSet<&str> = bank.free_vars(a).collect();
        assert_eq!(free, BTreeSet::from(["content"]));
    }

    #[test]
    fn normal_forms_match_the_form_functions() {
        let forms = [
            "comment ''inv'' (size = card content) & (p = True)",
            "(% x. x + 0) 5 = 5",
            "z : {n. n ~= null} | (a, b) : {(u, v). next u = v}",
            "x : {a, b} & ~~(s Un {} = s) --> (q <-> False)",
            "ALL x. ALL y. EX z. (x = y) = (z : s)",
            "ite True x y = ite p x x",
        ];
        let mut bank = Bank::new();
        for f in forms {
            let form = p(f);
            let id = bank.intern(&form);
            let simplified = bank.simplify(id);
            assert_eq!(
                bank.materialise(simplified),
                reference::simplify::simplify(&form),
                "{f}"
            );
            let stripped = bank.strip_comments(id);
            assert_eq!(
                bank.materialise(stripped),
                strip_comments_deep(&form),
                "{f}"
            );
            let reduced = bank.beta_normal(id);
            assert_eq!(bank.materialise(reduced), beta_reduce(&form), "{f}");
        }
    }

    #[test]
    fn substitution_renames_binders_as_substitute_does() {
        let mut bank = Bank::new();
        let form = p("ALL y. p x y & (EX y_1. q y_1 x)");
        let id = bank.intern(&form);
        let y = bank.intern(&p("y"));
        let c = bank.intern(&p("c"));
        let (x_sym, y1_sym) = (bank.symbol("x"), bank.symbol("y_1"));
        let subst = bank.subst(vec![(x_sym, y), (y1_sym, c)]);
        let mut expected = Subst::new();
        expected.insert("x".into(), p("y"));
        expected.insert("y_1".into(), p("c"));
        let out = bank.substitute_all(id, subst);
        assert_eq!(bank.materialise(out), substitute(&form, &expected));
    }
}
