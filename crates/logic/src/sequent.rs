//! Sequents: the unit of work of the integrated reasoning system.
//!
//! After splitting (§5.1), every verification condition becomes a list of sequents
//! (implications) `A1, ..., An ==> G`. Each sequent is proved independently, possibly by a
//! different prover (§5.2), and each carries the label trail accumulated by the splitter so
//! failures can be explained.

use crate::form::{Form, Ident};
use crate::subst::free_vars;
use std::collections::BTreeSet;
use std::fmt;

/// An implication `assumptions ==> goal` produced by splitting a verification condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sequent {
    /// The assumptions (conjunctively).
    pub assumptions: Vec<Form>,
    /// The goal to be established.
    pub goal: Form,
    /// Labels accumulated by splitting (`comment` annotations on the path to the goal),
    /// used for error messages and `by`-hint assumption selection.
    pub labels: Vec<String>,
}

impl Sequent {
    /// Creates a sequent with no labels.
    pub fn new(assumptions: Vec<Form>, goal: Form) -> Self {
        Sequent {
            assumptions,
            goal,
            labels: Vec::new(),
        }
    }

    /// Creates a sequent that simply asserts `goal` with no assumptions.
    pub fn goal_only(goal: Form) -> Self {
        Sequent::new(Vec::new(), goal)
    }

    /// The sequent as a single implication formula.
    pub fn to_form(&self) -> Form {
        Form::implies(Form::and(self.assumptions.clone()), self.goal.clone())
    }

    /// Total size (node count) of the sequent; used for statistics and resource limits.
    pub fn size(&self) -> usize {
        self.assumptions.iter().map(Form::size).sum::<usize>() + self.goal.size()
    }

    /// All free variables of the sequent.
    pub fn free_vars(&self) -> BTreeSet<Ident> {
        let mut fv = free_vars(&self.goal);
        for a in &self.assumptions {
            fv.extend(free_vars(a));
        }
        fv
    }

    /// Returns the labels attached to each assumption (the outermost `comment` of each).
    pub fn assumption_labels(&self) -> Vec<Option<String>> {
        self.assumptions
            .iter()
            .map(|a| a.strip_comments().0.first().map(|s| s.to_string()))
            .collect()
    }

    /// Keeps only assumptions whose label is in `wanted` (assumptions without labels are
    /// dropped). This implements the `by l1, ..., ln` hint mechanism of §3.5.
    pub fn filter_by_labels(&self, wanted: &[String]) -> Sequent {
        let keep: Vec<Form> = self
            .assumptions
            .iter()
            .filter(|a| {
                let (labels, _) = a.strip_comments();
                labels.iter().any(|l| wanted.iter().any(|w| w == l))
            })
            .cloned()
            .collect();
        Sequent {
            assumptions: keep,
            goal: self.goal.clone(),
            labels: self.labels.clone(),
        }
    }

    /// A short human-readable description of the goal for progress reports.
    pub fn describe(&self) -> String {
        describe(&self.labels, || self.goal.to_string())
    }
}

/// The description of a sequent with these labels: the labels joined by `.`, or, when
/// there are none, the printed goal, which `goal` prints only then. A goal printed
/// longer than 60 bytes is cut to at most 57, at a character boundary, and ends `...`.
pub(crate) fn describe(labels: &[String], goal: impl FnOnce() -> String) -> String {
    if !labels.is_empty() {
        return labels.join(".");
    }
    let mut s = goal();
    if s.len() > 60 {
        let mut cut = 57;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push_str("...");
    }
    s
}

impl fmt::Display for Sequent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.assumptions {
            writeln!(f, "    {a}")?;
        }
        write!(f, "==> {}", self.goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    #[test]
    fn to_form_builds_implication() {
        let s = Sequent::new(vec![p("p"), p("q")], p("r"));
        assert_eq!(s.to_form().to_string(), "p & q --> r");
        let t = Sequent::goal_only(p("r"));
        assert_eq!(t.to_form(), p("r"));
    }

    #[test]
    fn free_vars_spans_assumptions_and_goal() {
        let s = Sequent::new(vec![p("x : alloc")], p("y ~= null"));
        let fv = s.free_vars();
        assert!(fv.contains("x") && fv.contains("y") && fv.contains("alloc"));
    }

    #[test]
    fn filter_by_labels_keeps_hinted_assumptions() {
        let s = Sequent::new(
            vec![
                p("comment ''sizeInv'' (size = card content)"),
                p("comment ''xFresh'' (x ~: content)"),
                p("unlabelled = True"),
            ],
            p("size + 1 = card (content Un {x})"),
        );
        let filtered = s.filter_by_labels(&["sizeInv".to_string(), "xFresh".to_string()]);
        assert_eq!(filtered.assumptions.len(), 2);
    }

    #[test]
    fn describe_prefers_labels() {
        let mut s = Sequent::goal_only(p("p"));
        s.labels = vec!["AssocList.put".to_string(), "postcondition".to_string()];
        assert_eq!(s.describe(), "AssocList.put.postcondition");
    }

    #[test]
    fn describe_cuts_a_long_goal_at_a_character_boundary() {
        // Byte 57 of the printed goal falls inside an `é`, so the cut moves back to 56.
        let s = Sequent::goal_only(p("~(comment ''éééééééééééééééééééééééééé'' (x = 1))"));
        let printed = s.goal.to_string();
        assert!(printed.len() > 60 && !printed.is_char_boundary(57));
        assert_eq!(s.describe(), format!("{}...", &printed[..56]));
    }

    #[test]
    fn display_shows_assumptions_then_goal() {
        let s = Sequent::new(vec![p("p")], p("q"));
        let text = s.to_string();
        assert!(text.contains("p\n") && text.ends_with("==> q"));
    }
}
