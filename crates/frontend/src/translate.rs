//! Translation from the program model to extended guarded commands (§4.2).
//!
//! For every method the translator produces a command sequence that
//!
//! 1. assumes the background class axioms (typing of parameters, receivers and fields,
//!    allocation facts),
//! 2. assumes the method precondition and the class invariants (assume/guarantee, §3.3),
//! 3. snapshots the pre-state so `old` expressions in the postcondition can be resolved,
//! 4. translates the body, inserting null-dereference and array-bounds assertions and
//!    modelling field updates with `fieldWrite`, and
//! 5. at every exit point asserts the postcondition, the class invariants and the frame
//!    condition for public state not listed in the `modifies` clause.
//!
//! The resulting commands are desugared and turned into proof obligations by
//! `jahob-vcgen`.

use crate::ast::{ClassDef, Expr, Hint, JavaType, Lvalue, MethodDef, Program, SpecVarKind, Stmt};
use jahob_logic::bank::Bank;
use jahob_logic::form::{Const, Form, Ident};
use jahob_logic::rewrite::resolve_old;
use jahob_logic::types::Type;
use jahob_logic::TypeEnv;
use jahob_provers::{LemmaLibrary, ProverContext};
use jahob_vcgen::{
    desugar, obligations_in, verification_conditions, Command, DesugarEnv, InternedObligation,
    ProofObligation,
};
use std::collections::{BTreeMap, BTreeSet};

/// Everything needed to verify one method.
#[derive(Debug, Clone, Hash)]
pub struct MethodTask {
    /// The class name.
    pub class: String,
    /// The method name.
    pub method: String,
    /// The extended guarded commands of the verification task.
    pub commands: Vec<Command>,
    /// The desugaring environment (definitions of defined specification variables and
    /// variable types).
    pub env: DesugarEnv,
    /// The logical types of all global variables (used by prover interfaces).
    pub type_env: TypeEnv,
}

impl MethodTask {
    /// The proof obligations of this method (desugar, weakest precondition, split).
    pub fn obligations(&self) -> Vec<ProofObligation> {
        let simple = desugar(&self.commands, &self.env);
        verification_conditions(&simple, Form::tt(), &self.env)
    }

    /// [`MethodTask::obligations`] generated into `bank`, as the dispatcher proves them.
    pub fn obligations_in(&self, bank: &mut Bank) -> Vec<InternedObligation> {
        let simple = desugar(&self.commands, &self.env);
        let post = bank.intern(&Form::tt());
        obligations_in(bank, &simple, post, &self.env)
    }

    /// Names of set-typed global variables (for prover approximation options).
    pub fn set_vars(&self) -> BTreeSet<String> {
        self.type_env
            .iter()
            .filter(|(_, t)| t.is_set() || matches!(t, Type::Fun(_, b) if b.is_set()))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Names of function-typed (field-like) global variables.
    pub fn fun_vars(&self) -> BTreeSet<String> {
        self.type_env
            .iter()
            .filter(|(_, t)| matches!(t, Type::Fun(_, b) if !b.is_set()))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// A display name `Class.method`.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.class, self.method)
    }

    /// The prover context of this method: the set/function classification of its global
    /// variables plus the (shared) lemma library — everything the prover interfaces
    /// need alongside each obligation. This is the single construction point batching
    /// layers and tools build their per-method contexts from.
    pub fn prover_context(&self, lemmas: &LemmaLibrary) -> ProverContext {
        ProverContext {
            set_vars: self.set_vars(),
            fun_vars: self.fun_vars(),
            lemmas: lemmas.clone(),
        }
    }
}

/// Builds the verification task for `class.method`.
///
/// # Panics
///
/// Panics if the method does not exist in the class.
pub fn method_task(program: &Program, class: &ClassDef, method: &MethodDef) -> MethodTask {
    let mut tx = Translator::new(program, class, method);
    let commands = tx.build();
    MethodTask {
        class: class.name.clone(),
        method: method.name.clone(),
        commands,
        env: tx.env,
        type_env: tx.type_env,
    }
}

/// Builds verification tasks for every method of every class in the program.
pub fn program_tasks(program: &Program) -> Vec<MethodTask> {
    program
        .methods()
        .map(|(c, m)| method_task(program, c, m))
        .collect()
}

/// The fixed facts the translation assumes (the background axioms, and the facts of an
/// allocation), built from the names the translator holds. Names reach a formula only
/// as variables, never as text to parse, so any identifier the MiniJava lexer accepts
/// is safe here. Each builds the formula `parse_form` reads from the text in its
/// comment.
mod facts {
    use jahob_logic::form::Form;
    use jahob_logic::parser::FIRST_FRESH_TYVAR;
    use jahob_logic::types::Type;

    /// `x..field`.
    fn read(field: &str, x: Form) -> Form {
        Form::field_read(Form::var(field), x)
    }

    /// `null ~: set`.
    pub(super) fn null_not_in(set: &str) -> Form {
        Form::not_elem(Form::null(), Form::var(set))
    }

    /// `ALL x. x : class & x : alloc --> x..field = null | (x..field : target & x..field : alloc)`.
    pub(super) fn field_type(class: &str, field: &str, target: &str) -> Form {
        let x = || Form::var("x");
        let value = || read(field, x());
        // The binder's type is left open, as the parser leaves it.
        Form::forall(
            "x",
            Type::Var(FIRST_FRESH_TYVAR),
            Form::implies(
                Form::and(vec![
                    Form::elem(x(), Form::var(class)),
                    Form::elem(x(), Form::var("alloc")),
                ]),
                Form::or(vec![
                    Form::eq(value(), Form::null()),
                    Form::and(vec![
                        Form::elem(value(), Form::var(target)),
                        Form::elem(value(), Form::var("alloc")),
                    ]),
                ]),
            ),
        )
    }

    /// `this ~= null & this : class & this : alloc`.
    pub(super) fn receiver(class: &str) -> Form {
        Form::and(vec![
            Form::neq(Form::var("this"), Form::null()),
            Form::elem(Form::var("this"), Form::var(class)),
            Form::elem(Form::var("this"), Form::var("alloc")),
        ])
    }

    /// `param = null | param : class Int alloc`, or `param = null | param : alloc`
    /// without a class.
    pub(super) fn parameter(param: &str, class: Option<&str>) -> Form {
        let domain = match class {
            Some(class) => Form::inter(Form::var(class), Form::var("alloc")),
            None => Form::var("alloc"),
        };
        Form::or(vec![
            Form::eq(Form::var(param), Form::null()),
            Form::elem(Form::var(param), domain),
        ])
    }

    /// `fresh ~= null & fresh ~: old$alloc & fresh : class`.
    pub(super) fn allocated(fresh: &str, class: &str) -> Form {
        Form::and(vec![
            Form::neq(Form::var(fresh), Form::null()),
            Form::not_elem(Form::var(fresh), Form::var("old$alloc")),
            Form::elem(Form::var(fresh), Form::var(class)),
        ])
    }

    /// `fresh..field = value`.
    pub(super) fn initial_value(fresh: &str, field: &str, value: Form) -> Form {
        Form::eq(read(field, Form::var(fresh)), value)
    }
}

struct Translator<'a> {
    program: &'a Program,
    class: &'a ClassDef,
    method: &'a MethodDef,
    env: DesugarEnv,
    type_env: TypeEnv,
    fresh: u32,
    /// Commands asserted at every exit point (postcondition, invariants, frame).
    exit_checks: Vec<Command>,
    /// Pre-state snapshot names (`v ↦ old$v`), used to resolve `old` expressions both in
    /// the postcondition and in specification constructs inside the body.
    snapshot: BTreeMap<Ident, Ident>,
}

impl<'a> Translator<'a> {
    fn new(program: &'a Program, class: &'a ClassDef, method: &'a MethodDef) -> Self {
        let mut type_env = TypeEnv::standard();
        let mut env = DesugarEnv::default();
        // Declare classes, fields and specification variables of the whole program.
        for c in &program.classes {
            type_env.insert(c.name.clone(), Type::obj_set());
            for f in &c.fields {
                let ty = if f.is_static {
                    f.ty.logical()
                } else {
                    Type::fun(Type::Obj, f.ty.logical())
                };
                type_env.insert(f.name.clone(), ty.clone());
                env.var_types.insert(f.name.clone(), ty);
            }
            for sv in &c.spec_vars {
                type_env.insert(sv.name.clone(), sv.ty.clone());
                env.var_types.insert(sv.name.clone(), sv.ty.clone());
                if let SpecVarKind::Defined(def) = &sv.kind {
                    env.definitions.insert(sv.name.clone(), def.clone());
                }
            }
        }
        env.var_types.insert("alloc".into(), Type::obj_set());
        env.var_types
            .insert("arrayState".into(), Type::obj_array_state());
        // Parameters and receiver.
        for (p, ty) in &method.params {
            type_env.insert(p.clone(), ty.logical());
            env.var_types.insert(p.clone(), ty.logical());
        }
        if !method.is_static {
            type_env.insert("this", Type::Obj);
            env.var_types.insert("this".into(), Type::Obj);
        }
        if let Some(rt) = &method.return_type {
            type_env.insert("result", rt.logical());
            env.var_types.insert("result".into(), rt.logical());
        }
        Translator {
            program,
            class,
            method,
            env,
            type_env,
            fresh: 0,
            exit_checks: Vec::new(),
            snapshot: BTreeMap::new(),
        }
    }

    /// Resolves `old e` expressions in a body specification formula against the pre-state
    /// snapshot taken at method entry.
    fn resolve_spec_old(&self, form: &Form) -> Form {
        resolve_old(form, &self.snapshot)
    }

    /// Resolves `old` inside instantiation witnesses: `by inst s := "old content"` must
    /// substitute the pre-state snapshot variable, exactly like the spec formula the
    /// hint is attached to. Label and lemma hints carry no formulas and pass through.
    fn resolve_spec_hints(&self, hints: &[Hint]) -> Vec<Hint> {
        hints
            .iter()
            .map(|h| match h {
                Hint::Inst { var, witness } => Hint::Inst {
                    var: var.clone(),
                    witness: self.resolve_spec_old(witness),
                },
                other => other.clone(),
            })
            .collect()
    }

    fn fresh_var(&mut self, base: &str, ty: Type) -> Ident {
        self.fresh += 1;
        let name = format!("{base}${}", self.fresh);
        self.env.var_types.insert(name.clone(), ty);
        name
    }

    /// All class-level state variables (fields, static fields, specification variables)
    /// of the whole program, used for pre-state snapshots and frame conditions.
    fn global_state_vars(&self) -> Vec<(Ident, Type)> {
        let mut out: Vec<(Ident, Type)> = Vec::new();
        for c in &self.program.classes {
            for f in &c.fields {
                let ty = if f.is_static {
                    f.ty.logical()
                } else {
                    Type::fun(Type::Obj, f.ty.logical())
                };
                out.push((f.name.clone(), ty));
            }
            for sv in &c.spec_vars {
                out.push((sv.name.clone(), sv.ty.clone()));
            }
        }
        out.push(("alloc".into(), Type::obj_set()));
        out.push(("arrayState".into(), Type::obj_array_state()));
        out
    }

    fn build(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        self.background_assumptions(&mut out);
        // Precondition and invariants.
        out.push(Command::Assume {
            label: Some("pre".into()),
            form: self.method.contract.requires.clone(),
        });
        if self.method.is_public {
            for inv in &self.class.invariants {
                out.push(Command::Assume {
                    label: Some(inv.name.clone()),
                    form: inv.form.clone(),
                });
            }
        }
        // Pre-state snapshot for `old`.
        let mut snapshot: BTreeMap<Ident, Ident> = BTreeMap::new();
        for (v, ty) in self.global_state_vars() {
            let pre = format!("old${v}");
            self.env.var_types.insert(pre.clone(), ty.clone());
            self.type_env.insert(pre.clone(), ty);
            out.push(Command::Assume {
                label: None,
                form: Form::eq(Form::var(pre.clone()), Form::var(v.clone())),
            });
            snapshot.insert(v, pre);
        }
        self.snapshot = snapshot;
        // Exit checks: postcondition (with `old` resolved), invariants, frame condition.
        let ensures = resolve_old(&self.method.contract.ensures, &self.snapshot);
        let mut exit = vec![Command::Assert {
            label: Some("post".into()),
            form: ensures,
            hints: Vec::new(),
        }];
        if self.method.is_public {
            for inv in &self.class.invariants {
                exit.push(Command::Assert {
                    label: Some(format!("theinv_{}", inv.name)),
                    form: inv.form.clone(),
                    hints: Vec::new(),
                });
            }
            // Frame: public specification variables not in the modifies clause are
            // unchanged (§3.3; private representation changes are not exposed).
            for c in &self.program.classes {
                for sv in &c.spec_vars {
                    if sv.is_public && !self.method.contract.modifies.contains(&sv.name) {
                        exit.push(Command::Assert {
                            label: Some(format!("frame_{}", sv.name)),
                            form: Form::eq(
                                Form::var(sv.name.clone()),
                                Form::var(format!("old${}", sv.name)),
                            ),
                            hints: Vec::new(),
                        });
                    }
                }
            }
        }
        self.exit_checks = exit;

        // The body, followed by the exit checks for the fall-through path.
        let body = self.method.body.clone();
        let mut body_cmds = self.statements(&body);
        out.append(&mut body_cmds);
        out.extend(self.exit_checks.clone());
        out
    }

    /// Class axioms: parameter/receiver typing, field typing, null is unallocated.
    fn background_assumptions(&mut self, out: &mut Vec<Command>) {
        // null is never an element of a class or of alloc.
        for c in &self.program.classes {
            out.push(Command::Assume {
                label: Some(format!("axiom_nullNotIn{}", c.name)),
                form: facts::null_not_in(&c.name),
            });
        }
        out.push(Command::Assume {
            label: Some("axiom_nullNotAlloc".into()),
            form: facts::null_not_in("alloc"),
        });
        // Field typing: reference fields of allocated objects point to allocated objects
        // of the right class (or null).
        for c in &self.program.classes {
            for f in &c.fields {
                if f.is_static {
                    continue;
                }
                if let JavaType::Ref(target) = &f.ty {
                    out.push(Command::Assume {
                        label: Some(format!("axiom_fieldType_{}", f.name)),
                        form: facts::field_type(&c.name, &f.name, target),
                    });
                }
            }
        }
        // Receiver and parameters.
        if !self.method.is_static {
            out.push(Command::Assume {
                label: Some("axiom_this".into()),
                form: facts::receiver(&self.class.name),
            });
        }
        for (p, ty) in &self.method.params {
            if let JavaType::Ref(cls) = ty {
                if self.program.class(cls).is_some() || cls == "Object" {
                    let class = (cls != "Object").then_some(cls.as_str());
                    out.push(Command::Assume {
                        label: Some(format!("axiom_param_{p}")),
                        form: facts::parameter(p, class),
                    });
                }
            }
        }
    }

    fn statements(&mut self, stmts: &[Stmt]) -> Vec<Command> {
        let mut out = Vec::new();
        for (i, s) in stmts.iter().enumerate() {
            match s {
                Stmt::Return(value) => {
                    if let Some(e) = value {
                        let (mut pre, form) = self.expr(e);
                        out.append(&mut pre);
                        out.push(Command::Assign {
                            var: "result".into(),
                            value: form,
                        });
                    }
                    out.extend(self.exit_checks.clone());
                    // Cut this path; statements after a return are unreachable.
                    out.push(Command::Assume {
                        label: None,
                        form: Form::ff(),
                    });
                    if i + 1 < stmts.len() {
                        // Unreachable trailing statements are still translated so their
                        // proof text is checked, but behind `assume False` they cannot
                        // contribute obligations.
                        continue;
                    }
                }
                other => out.extend(self.statement(other)),
            }
        }
        out
    }

    fn statement(&mut self, stmt: &Stmt) -> Vec<Command> {
        match stmt {
            Stmt::Local { name, ty, init } => {
                self.env.var_types.insert(name.clone(), ty.logical());
                self.type_env.insert(name.clone(), ty.logical());
                match init {
                    Some(e) => {
                        let (mut pre, form) = self.expr(e);
                        pre.push(Command::Assign {
                            var: name.clone(),
                            value: form,
                        });
                        pre
                    }
                    None => vec![Command::Havoc {
                        vars: vec![name.clone()],
                        such_that: None,
                    }],
                }
            }
            Stmt::Assign(lhs, rhs) => {
                let (mut pre, value) = self.expr(rhs);
                pre.extend(self.assign(lhs, value));
                pre
            }
            Stmt::New { target, class } => {
                let tmp = self.fresh_var("fresh", Type::Obj);
                let mut out = vec![
                    Command::Havoc {
                        vars: vec![tmp.clone()],
                        such_that: None,
                    },
                    // Allocation always succeeds (§1.7): the fresh object is new,
                    // non-null, of the right class, and its fields start out null/zero.
                    Command::Assume {
                        label: Some("alloc_fresh".into()),
                        form: facts::allocated(&tmp, class),
                    },
                ];
                if let Some(cd) = self.program.class(class) {
                    for f in &cd.fields {
                        if f.is_static {
                            continue;
                        }
                        let default = match f.ty {
                            JavaType::Int => Form::int(0),
                            JavaType::Bool => Form::ff(),
                            _ => Form::null(),
                        };
                        out.push(Command::Assume {
                            label: None,
                            form: facts::initial_value(&tmp, &f.name, default),
                        });
                    }
                    for sv in &cd.spec_vars {
                        if !sv.is_static {
                            if let SpecVarKind::Ghost = sv.kind {
                                // Per-object ghost variables start out empty/default; the
                                // suite's specifications initialise them explicitly when
                                // needed, so only record set-typed defaults.
                                if matches!(&sv.ty, Type::Fun(_, b) if b.is_set()) {
                                    out.push(Command::Assume {
                                        label: None,
                                        form: facts::initial_value(
                                            &tmp,
                                            &sv.name,
                                            Form::empty_set(),
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
                out.push(Command::Assign {
                    var: "alloc".into(),
                    value: Form::union(Form::var("alloc"), Form::singleton(Form::var(tmp.clone()))),
                });
                out.extend(self.assign(target, Form::var(tmp)));
                out
            }
            Stmt::NewArray { target, length } => {
                let (mut out, len) = self.expr(length);
                let tmp = self.fresh_var("freshArray", Type::Obj);
                out.push(Command::Havoc {
                    vars: vec![tmp.clone()],
                    such_that: None,
                });
                out.push(Command::Assume {
                    label: Some("alloc_fresh_array".into()),
                    form: Form::and(vec![
                        Form::neq(Form::var(tmp.clone()), Form::null()),
                        Form::not_elem(Form::var(tmp.clone()), Form::var("old$alloc")),
                        Form::eq(
                            Form::app(Form::var("Array.length"), vec![Form::var(tmp.clone())]),
                            len,
                        ),
                        Form::forall(
                            "i",
                            Type::Int,
                            Form::eq(
                                Form::array_read(
                                    Form::var("arrayState"),
                                    Form::var(tmp.clone()),
                                    Form::var("i"),
                                ),
                                Form::null(),
                            ),
                        ),
                    ]),
                });
                out.push(Command::Assign {
                    var: "alloc".into(),
                    value: Form::union(Form::var("alloc"), Form::singleton(Form::var(tmp.clone()))),
                });
                out.extend(self.assign(target, Form::var(tmp)));
                out
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (mut pre, c) = self.expr(cond);
                let t = self.statements(then_branch);
                let e = self.statements(else_branch);
                pre.push(Command::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e,
                });
                pre
            }
            Stmt::While {
                invariant,
                cond,
                body,
            } => {
                let (pre, c) = self.expr(cond);
                let b = self.statements(body);
                vec![Command::Loop {
                    invariant: self.resolve_spec_old(invariant),
                    pre_test: pre,
                    cond: c,
                    post_test: b,
                }]
            }
            Stmt::Return(_) => unreachable!("handled in statements()"),
            Stmt::GhostAssign {
                target,
                receiver,
                value,
            } => {
                let value = self.resolve_spec_old(value);
                match receiver {
                    None => vec![Command::Assign {
                        var: target.clone(),
                        value,
                    }],
                    Some(recv) => {
                        let (mut pre, r) = self.expr(recv);
                        pre.push(Command::Assign {
                            var: target.clone(),
                            value: Form::field_write(Form::var(target.clone()), r, value),
                        });
                        pre
                    }
                }
            }
            Stmt::SpecAssert { label, form, hints } => vec![Command::Assert {
                label: label.clone(),
                form: self.resolve_spec_old(form),
                hints: self.resolve_spec_hints(hints),
            }],
            Stmt::SpecAssume { label, form } => vec![Command::Assume {
                label: label.clone(),
                form: self.resolve_spec_old(form),
            }],
            Stmt::SpecNote { label, form, hints } => vec![Command::Note {
                label: label.clone(),
                form: self.resolve_spec_old(form),
                hints: self.resolve_spec_hints(hints),
            }],
            Stmt::SpecHavoc { vars, such_that } => vec![Command::Havoc {
                vars: vars.clone(),
                such_that: such_that.as_ref().map(|f| self.resolve_spec_old(f)),
            }],
        }
    }

    fn assign(&mut self, lhs: &Lvalue, value: Form) -> Vec<Command> {
        match lhs {
            Lvalue::Local(x) | Lvalue::Static(x) => vec![Command::Assign {
                var: x.clone(),
                value,
            }],
            Lvalue::Field(obj, field) => {
                let (mut pre, o) = self.expr(obj);
                pre.push(Command::Assert {
                    label: Some("null_check".into()),
                    form: Form::neq(o.clone(), Form::null()),
                    hints: Vec::new(),
                });
                pre.push(Command::Assign {
                    var: field.clone(),
                    value: Form::field_write(Form::var(field.clone()), o, value),
                });
                pre
            }
            Lvalue::ArrayElem(array, index) => {
                let (mut pre, a) = self.expr(array);
                let (pre2, i) = self.expr(index);
                pre.extend(pre2);
                pre.push(Command::Assert {
                    label: Some("null_check".into()),
                    form: Form::neq(a.clone(), Form::null()),
                    hints: Vec::new(),
                });
                pre.push(Command::Assert {
                    label: Some("bounds_check".into()),
                    form: Form::and(vec![
                        Form::cmp(Const::LtEq, Form::int(0), i.clone()),
                        Form::cmp(
                            Const::Lt,
                            i.clone(),
                            Form::app(Form::var("Array.length"), vec![a.clone()]),
                        ),
                    ]),
                    hints: Vec::new(),
                });
                pre.push(Command::Assign {
                    var: "arrayState".into(),
                    value: Form::array_write(Form::var("arrayState"), a, i, value),
                });
                pre
            }
        }
    }

    /// Translates an expression, returning the assertions its evaluation requires
    /// (null-dereference and array-bounds checks) and its value as a formula.
    fn expr(&mut self, e: &Expr) -> (Vec<Command>, Form) {
        match e {
            Expr::Local(x) => (Vec::new(), Form::var(x.clone())),
            Expr::Static(x) => (Vec::new(), Form::var(x.clone())),
            Expr::Null => (Vec::new(), Form::null()),
            Expr::IntLit(n) => (Vec::new(), Form::int(*n)),
            Expr::BoolLit(b) => (Vec::new(), Form::Const(Const::BoolLit(*b))),
            Expr::Field(obj, field) => {
                let (mut pre, o) = self.expr(obj);
                pre.push(Command::Assert {
                    label: Some("null_check".into()),
                    form: Form::neq(o.clone(), Form::null()),
                    hints: Vec::new(),
                });
                (pre, Form::field_read(Form::var(field.clone()), o))
            }
            Expr::ArrayElem(array, index) => {
                let (mut pre, a) = self.expr(array);
                let (pre2, i) = self.expr(index);
                pre.extend(pre2);
                pre.push(Command::Assert {
                    label: Some("null_check".into()),
                    form: Form::neq(a.clone(), Form::null()),
                    hints: Vec::new(),
                });
                pre.push(Command::Assert {
                    label: Some("bounds_check".into()),
                    form: Form::and(vec![
                        Form::cmp(Const::LtEq, Form::int(0), i.clone()),
                        Form::cmp(
                            Const::Lt,
                            i.clone(),
                            Form::app(Form::var("Array.length"), vec![a.clone()]),
                        ),
                    ]),
                    hints: Vec::new(),
                });
                (pre, Form::array_read(Form::var("arrayState"), a, i))
            }
            Expr::ArrayLength(array) => {
                let (mut pre, a) = self.expr(array);
                pre.push(Command::Assert {
                    label: Some("null_check".into()),
                    form: Form::neq(a.clone(), Form::null()),
                    hints: Vec::new(),
                });
                (pre, Form::app(Form::var("Array.length"), vec![a]))
            }
            Expr::Eq(l, r) => self.binary(l, r, Form::eq),
            Expr::Neq(l, r) => self.binary(l, r, Form::neq),
            Expr::Lt(l, r) => self.binary(l, r, |a, b| Form::cmp(Const::Lt, a, b)),
            Expr::Le(l, r) => self.binary(l, r, |a, b| Form::cmp(Const::LtEq, a, b)),
            Expr::Plus(l, r) => self.binary(l, r, Form::plus),
            Expr::Minus(l, r) => self.binary(l, r, Form::minus),
            Expr::Times(l, r) => self.binary(l, r, |a, b| {
                Form::app(Form::Const(Const::Times), vec![a, b])
            }),
            Expr::Div(l, r) => {
                self.binary(l, r, |a, b| Form::app(Form::Const(Const::Div), vec![a, b]))
            }
            Expr::Mod(l, r) => {
                self.binary(l, r, |a, b| Form::app(Form::Const(Const::Mod), vec![a, b]))
            }
            Expr::Not(a) => {
                let (pre, f) = self.expr(a);
                (pre, Form::not(f))
            }
            Expr::And(l, r) => self.binary(l, r, |a, b| Form::and(vec![a, b])),
            Expr::Or(l, r) => self.binary(l, r, |a, b| Form::or(vec![a, b])),
        }
    }

    fn binary(
        &mut self,
        l: &Expr,
        r: &Expr,
        combine: impl Fn(Form, Form) -> Form,
    ) -> (Vec<Command>, Form) {
        let (mut pre, lf) = self.expr(l);
        let (pre2, rf) = self.expr(r);
        pre.extend(pre2);
        (pre, combine(lf, rf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ClassDef, MethodBuilder};

    /// The Figure 6 sized list, reduced to its `addNew` method.
    fn sized_list_program() -> Program {
        let list = ClassDef::new("List")
            .field("next", JavaType::Ref("List".into()))
            .field("data", JavaType::Ref("Object".into()))
            .static_field("root", JavaType::Ref("List".into()))
            .static_field("size", JavaType::Int)
            .ghost_var("nodes", "obj set", false)
            .ghost_var("content", "obj set", true)
            .invariant("contentDef", "content = {x. EX n. x = n..data & n : nodes}")
            .invariant("sizeInv", "size = card content")
            .method(
                MethodBuilder::public("addNew")
                    .static_method()
                    .param("x", JavaType::Ref("Object".into()))
                    .requires("comment ''xFresh'' (x ~: content)")
                    .modifies(&["content"])
                    .ensures("content = old content Un {x}")
                    .body(vec![
                        Stmt::Local {
                            name: "n1".into(),
                            ty: JavaType::Ref("List".into()),
                            init: None,
                        },
                        Stmt::New {
                            target: Lvalue::Local("n1".into()),
                            class: "List".into(),
                        },
                        Stmt::Assign(
                            Lvalue::Field(Expr::local("n1"), "next".into()),
                            Expr::Static("root".into()),
                        ),
                        Stmt::Assign(
                            Lvalue::Field(Expr::local("n1"), "data".into()),
                            Expr::local("x"),
                        ),
                        Stmt::Assign(Lvalue::Static("root".into()), Expr::local("n1")),
                        Stmt::Assign(
                            Lvalue::Static("size".into()),
                            Expr::Plus(
                                Box::new(Expr::Static("size".into())),
                                Box::new(Expr::IntLit(1)),
                            ),
                        ),
                        Stmt::GhostAssign {
                            target: "nodes".into(),
                            receiver: None,
                            value: jahob_logic::parse_form("{n1} Un nodes").expect("ghost"),
                        },
                        Stmt::GhostAssign {
                            target: "content".into(),
                            receiver: None,
                            value: jahob_logic::parse_form("{x} Un content").expect("ghost"),
                        },
                    ])
                    .build(),
            );
        Program::new(vec![list])
    }

    #[test]
    fn fixed_facts_are_the_formulas_of_their_text() {
        let parsed = |text: &str| jahob_logic::parse_form(text).expect("parses");
        assert_eq!(facts::null_not_in("Node"), parsed("null ~: Node"));
        assert_eq!(
            facts::field_type("Node", "next", "Elem"),
            parsed("ALL x. x : Node & x : alloc --> x..next = null | (x..next : Elem & x..next : alloc)")
        );
        assert_eq!(
            facts::receiver("List"),
            parsed("this ~= null & this : List & this : alloc")
        );
        assert_eq!(
            facts::parameter("p", Some("Node")),
            parsed("p = null | p : Node Int alloc")
        );
        assert_eq!(facts::parameter("p", None), parsed("p = null | p : alloc"));
        assert_eq!(
            facts::allocated("fresh$1", "Node"),
            parsed("fresh$1 ~= null & fresh$1 ~: old$alloc & fresh$1 : Node")
        );
        let values = [
            (Form::int(0), "0"),
            (Form::ff(), "False"),
            (Form::null(), "null"),
            (Form::empty_set(), "{}"),
        ];
        for (value, text) in values {
            assert_eq!(
                facts::initial_value("fresh$1", "next", value),
                parsed(&format!("fresh$1..next = {text}"))
            );
        }
    }

    #[test]
    fn task_collects_types_and_definitions() {
        let program = sized_list_program();
        let class = program.class("List").expect("class");
        let task = method_task(&program, class, &class.methods[0]);
        assert_eq!(task.qualified_name(), "List.addNew");
        assert_eq!(task.type_env.get("next"), Some(&Type::obj_field()));
        assert_eq!(task.type_env.get("size"), Some(&Type::Int));
        assert!(task.set_vars().contains("content"));
        assert!(task.fun_vars().contains("next"));
    }

    #[test]
    fn obligations_cover_nullchecks_postcondition_and_invariants() {
        let program = sized_list_program();
        let class = program.class("List").expect("class");
        let task = method_task(&program, class, &class.methods[0]);
        let obligations = task.obligations();
        // Two field-update null checks, the postcondition, and the two class invariants.
        assert!(
            obligations.len() >= 5,
            "expected several obligations, got {}",
            obligations.len()
        );
        let labels: Vec<String> = obligations
            .iter()
            .flat_map(|o| o.sequent.labels.clone())
            .collect();
        assert!(labels.iter().any(|l| l == "null_check"));
        assert!(labels.iter().any(|l| l == "post"));
        assert!(labels.iter().any(|l| l.starts_with("theinv_")));
    }

    #[test]
    fn field_updates_use_field_write() {
        let program = sized_list_program();
        let class = program.class("List").expect("class");
        let task = method_task(&program, class, &class.methods[0]);
        let text = format!("{:?}", task.commands);
        assert!(text.contains("FieldWrite"));
    }

    #[test]
    fn returns_check_the_postcondition_and_cut_the_path() {
        let class = ClassDef::new("C").method(
            MethodBuilder::public("id")
                .static_method()
                .param("x", JavaType::Int)
                .returns(JavaType::Int)
                .ensures("result = x")
                .body(vec![Stmt::Return(Some(Expr::local("x")))])
                .build(),
        );
        let program = Program::new(vec![class]);
        let c = program.class("C").expect("class");
        let task = method_task(&program, c, &c.methods[0]);
        let obligations = task.obligations();
        // There must be a `post` obligation with goal `result = x` reachable from the
        // return path, and the fall-through `post` is unreachable (assume False).
        assert!(obligations
            .iter()
            .any(|o| o.sequent.labels.contains(&"post".to_string())));
    }

    #[test]
    fn loops_produce_invariant_obligations() {
        let class = ClassDef::new("Counter")
            .static_field("n", JavaType::Int)
            .method(
                MethodBuilder::public("countdown")
                    .static_method()
                    .requires("0 <= n")
                    .modifies(&[])
                    .ensures("n = 0")
                    .body(vec![Stmt::While {
                        invariant: jahob_logic::parse_form("0 <= n").expect("inv"),
                        cond: Expr::Lt(
                            Box::new(Expr::IntLit(0)),
                            Box::new(Expr::Static("n".into())),
                        ),
                        body: vec![Stmt::Assign(
                            Lvalue::Static("n".into()),
                            Expr::Minus(
                                Box::new(Expr::Static("n".into())),
                                Box::new(Expr::IntLit(1)),
                            ),
                        )],
                    }])
                    .build(),
            );
        let program = Program::new(vec![class]);
        let c = program.class("Counter").expect("class");
        let task = method_task(&program, c, &c.methods[0]);
        let labels: Vec<String> = task
            .obligations()
            .iter()
            .flat_map(|o| o.sequent.labels.clone())
            .collect();
        assert!(labels.iter().any(|l| l == "loop_inv_initial"));
        assert!(labels.iter().any(|l| l == "loop_inv_preserved"));
        assert!(labels.iter().any(|l| l == "post"));
    }
}
