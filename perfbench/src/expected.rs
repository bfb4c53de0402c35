//! The hand-written known answers (`perfbench/expected.tsv`).
//!
//! Nothing here is derived from a verifier run: the suite's obligation counts are the
//! Figure 15 totals recorded in `EXPERIMENTS.md`, and every mutant line says in words
//! why the mutated method is wrong. Lines are tab-separated; `#` starts a comment.

use crate::mutate::Mutation;

/// One suite structure and the number of obligations its program produces. The
/// known verdict of every structure is "verified".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Structure {
    /// The Figure 15 name (as in `jahob::suite::full_suite`).
    pub name: String,
    /// Obligations of the whole program.
    pub obligations: usize,
}

/// One mutant: a suite method with one mutation applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Short unique identifier.
    pub id: String,
    /// The structure whose program is mutated.
    pub structure: String,
    /// The mutated method, `Class.method`.
    pub method: String,
    /// The mutation.
    pub mutation: Mutation,
    /// Why the mutant is wrong (for `mutant` lines) or why it is equivalent to the
    /// original (for `excluded` lines).
    pub reason: String,
}

/// The parsed known-answer file.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// Every suite structure, in file order.
    pub structures: Vec<Structure>,
    /// Known-wrong programs: the verifier must reject each one.
    pub mutants: Vec<Mutant>,
    /// Mutants left out of the workload, each with the reason it is equivalent.
    pub excluded: Vec<Mutant>,
}

impl Expected {
    /// Parses the known-answer file.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut expected = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("line {}: malformed {:?}", n + 1, fields[0]);
            match fields[0] {
                "structure" if fields.len() == 3 => expected.structures.push(Structure {
                    name: fields[1].to_string(),
                    obligations: fields[2].parse().map_err(|_| bad())?,
                }),
                kind @ ("mutant" | "excluded") if fields.len() == 7 => {
                    let mutant = Mutant {
                        id: fields[1].to_string(),
                        structure: fields[2].to_string(),
                        method: fields[3].to_string(),
                        mutation: Mutation::parse(fields[4], fields[5])
                            .map_err(|e| format!("line {}: {e}", n + 1))?,
                        reason: fields[6].to_string(),
                    };
                    if kind == "mutant" {
                        expected.mutants.push(mutant);
                    } else {
                        expected.excluded.push(mutant);
                    }
                }
                _ => return Err(bad()),
            }
        }
        let mut ids: Vec<&str> = expected
            .mutants
            .iter()
            .chain(&expected.excluded)
            .map(|m| m.id.as_str())
            .collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("mutant id {:?} is used twice", w[0]));
        }
        Ok(expected)
    }

    /// The expected obligation count of `structure`.
    pub fn obligations(&self, structure: &str) -> Option<usize> {
        self.structures
            .iter()
            .find(|s| s.name == structure)
            .map(|s| s.obligations)
    }
}
