//! The three workloads and their seeded request streams.
//!
//! A request is one program handed to the verifier together with its known answer.
//! Requests are generated pass by pass: pass `p` of seed `s` depends on `(s, p)` only,
//! so a run's stream does not depend on how long earlier passes took.

use crate::expected::Expected;
use crate::mutate;
use crate::rng::Rng;
use jahob_frontend::Program;
use jahob_logic::Form;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole §7 suite on a fresh in-memory verifier per pass, at up to two threads.
    SuiteCold,
    /// The edit–verify loop: one long-lived verifier warm-started from a seeded proof
    /// store; each request adds a fresh-variable fact to some preconditions.
    EditWarm,
    /// Known-wrong programs, each on a fresh in-memory verifier.
    RejectMutants,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::EditWarm,
        Workload::RejectMutants,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite_cold",
            Workload::EditWarm => "edit_warm",
            Workload::RejectMutants => "reject_mutants",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The known answer a request's verdict is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Every method verifies, and the program has exactly this many obligations.
    Verified {
        /// Expected obligation count.
        obligations: usize,
    },
    /// This method (`Class.method`) fails to verify and every other method verifies.
    Rejected {
        /// The mutated method.
        method: String,
    },
}

/// One request: a program and its known answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What the request is: the structure name, plus the edits or the mutant id.
    pub label: String,
    /// The program handed to the verifier.
    pub program: Program,
    /// The known answer.
    pub check: Check,
}

/// The fixed inputs every pass draws from: the suite programs with their expected
/// obligation counts, and the mutated programs of the known-answer file.
#[derive(Debug, Clone)]
pub struct Inputs {
    suite: Vec<(String, Program, usize)>,
    mutants: Vec<Request>,
}

/// Prefix of the fresh variables `edit_warm` conjoins to preconditions. No
/// identifier of the suite starts with it (checked in [`Inputs::build`]).
pub const EDIT_PREFIX: &str = "editk";

impl Inputs {
    /// Builds the suite programs and applies every mutant of `expected`. Fails if the
    /// known-answer file and the suite disagree on a structure, or a mutant matches
    /// nothing.
    pub fn build(expected: &Expected) -> Result<Inputs, String> {
        let mut suite = Vec::new();
        for entry in jahob::suite::full_suite() {
            let obligations = expected
                .obligations(entry.name)
                .ok_or_else(|| format!("no known answer for structure {:?}", entry.name))?;
            if format!("{:?}", entry.program).contains(EDIT_PREFIX) {
                return Err(format!("{:?} already uses {EDIT_PREFIX}", entry.name));
            }
            suite.push((entry.name.to_string(), entry.program, obligations));
        }
        if suite.len() != expected.structures.len() {
            return Err("known-answer file lists structures the suite lacks".into());
        }
        let mutants = expected
            .mutants
            .iter()
            .map(|m| {
                let (_, base, _) = suite
                    .iter()
                    .find(|(name, _, _)| *name == m.structure)
                    .ok_or_else(|| format!("mutant {}: no structure {:?}", m.id, m.structure))?;
                Ok(Request {
                    label: format!("{} [{}]", m.structure, m.id),
                    program: mutate::apply(base, &m.method, &m.mutation)
                        .map_err(|e| format!("mutant {}: {e}", m.id))?,
                    check: Check::Rejected {
                        method: m.method.clone(),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Inputs { suite, mutants })
    }

    /// The unedited suite: `(name, program)` pairs in Figure 15 order.
    pub fn suite(&self) -> impl Iterator<Item = (&str, &Program)> {
        self.suite.iter().map(|(n, p, _)| (n.as_str(), p))
    }

    /// The requests of pass `pass` of `workload` under `seed`.
    pub fn pass(&self, workload: Workload, seed: u64, pass: u64) -> Vec<Request> {
        let mut rng = Rng::new(seed, pass);
        match workload {
            Workload::SuiteCold => {
                let mut order: Vec<usize> = (0..self.suite.len()).collect();
                rng.shuffle(&mut order);
                order.into_iter().map(|i| self.suite_request(i)).collect()
            }
            Workload::EditWarm => {
                let mut order: Vec<usize> = (0..self.suite.len()).collect();
                rng.shuffle(&mut order);
                order
                    .into_iter()
                    .enumerate()
                    .map(|(slot, i)| {
                        // Unique within a run, so every edit is a fresh variable and
                        // every edited sequent a new cache key.
                        let first = (pass * 100 + slot as u64) * 100;
                        self.edited_request(i, &mut rng, first)
                    })
                    .collect()
            }
            Workload::RejectMutants => {
                let mut requests = self.mutants.clone();
                rng.shuffle(&mut requests);
                requests
            }
        }
    }

    fn suite_request(&self, i: usize) -> Request {
        let (name, program, obligations) = &self.suite[i];
        Request {
            label: name.clone(),
            program: program.clone(),
            check: Check::Verified {
                obligations: *obligations,
            },
        }
    }

    /// Structure `i` with a seeded quarter of its methods (rounded up) given the extra
    /// precondition conjunct `editk<n> = <n>`.
    fn edited_request(&self, i: usize, rng: &mut Rng, first: u64) -> Request {
        let mut request = self.suite_request(i);
        let methods: usize = request
            .program
            .classes
            .iter()
            .map(|c| c.methods.len())
            .sum();
        // A fixed share of the methods, so every request of a structure has the same
        // number of edits and only which methods are edited varies with the seed.
        let mut order: Vec<usize> = (0..methods).collect();
        rng.shuffle(&mut order);
        let mut chosen = vec![false; methods];
        for &m in &order[..methods.div_ceil(4)] {
            chosen[m] = true;
        }
        let mut edits = Vec::new();
        let all = request
            .program
            .classes
            .iter_mut()
            .flat_map(|c| c.methods.iter_mut());
        for (k, (method, edit)) in all.zip(chosen).enumerate() {
            if edit {
                let n = first + k as u64;
                let fact = Form::eq(Form::var(format!("{EDIT_PREFIX}{n}")), Form::int(n as i64));
                method.contract.requires = Form::and(vec![method.contract.requires.clone(), fact]);
                edits.push(format!("{}+{EDIT_PREFIX}{n}", method.name));
            }
        }
        request.label = format!("{} [{}]", request.label, edits.join(" "));
        request
    }
}
