//! Worker answers.

use crate::ids::{TaskId, WorkerId};

/// Which side of a pairwise comparison the worker preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preference {
    /// The left item ranks higher.
    Left,
    /// The right item ranks higher.
    Right,
}

impl Preference {
    /// The opposite preference.
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            Preference::Left => Preference::Right,
            Preference::Right => Preference::Left,
        }
    }
}

/// The payload of an answer; the valid variant depends on the task kind.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerValue {
    /// Label index for a single-choice task.
    Choice(u32),
    /// Value for a numeric task.
    Number(f64),
    /// Free text for open-text / fill tasks.
    Text(String),
    /// Preference for a pairwise comparison task.
    Prefer(Preference),
    /// Items contributed to a collection task.
    Items(Vec<String>),
}

impl AnswerValue {
    /// Short name of the variant, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            AnswerValue::Choice(_) => "choice",
            AnswerValue::Number(_) => "number",
            AnswerValue::Text(_) => "text",
            AnswerValue::Prefer(_) => "preference",
            AnswerValue::Items(_) => "items",
        }
    }

    /// The label index, if this is a `Choice`.
    pub fn as_choice(&self) -> Option<u32> {
        match self {
            AnswerValue::Choice(c) => Some(*c),
            _ => None,
        }
    }

    /// The number, if this is a `Number`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AnswerValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The text, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AnswerValue::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The preference, if this is a `Prefer`.
    pub fn as_preference(&self) -> Option<Preference> {
        match self {
            AnswerValue::Prefer(p) => Some(*p),
            _ => None,
        }
    }

    /// The item list, if this is an `Items`.
    pub fn as_items(&self) -> Option<&[String]> {
        match self {
            AnswerValue::Items(v) => Some(v),
            _ => None,
        }
    }

    /// Semantic equality for scoring: numbers compare with a small epsilon,
    /// texts compare case-insensitively after trimming, items compare as
    /// sets (order-insensitive, deduplicated).
    pub fn matches(&self, other: &AnswerValue) -> bool {
        match (self, other) {
            (AnswerValue::Choice(a), AnswerValue::Choice(b)) => a == b,
            (AnswerValue::Number(a), AnswerValue::Number(b)) => (a - b).abs() < 1e-9,
            (AnswerValue::Text(a), AnswerValue::Text(b)) => a.trim().eq_ignore_ascii_case(b.trim()),
            (AnswerValue::Prefer(a), AnswerValue::Prefer(b)) => a == b,
            (AnswerValue::Items(a), AnswerValue::Items(b)) => {
                let norm = |v: &[String]| {
                    let mut s: Vec<String> =
                        v.iter().map(|x| x.trim().to_ascii_lowercase()).collect();
                    s.sort();
                    s.dedup();
                    s
                };
                norm(a) == norm(b)
            }
            _ => false,
        }
    }
}

/// One worker's response to one task.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The task answered.
    pub task: TaskId,
    /// The worker who answered.
    pub worker: WorkerId,
    /// The answer payload.
    pub value: AnswerValue,
    /// Simulation time at which the answer arrived (seconds).
    pub submitted_at: f64,
    /// What this answer cost, in budget units.
    pub cost: f64,
}

impl Answer {
    /// Creates an answer with zero timestamp and cost (useful in tests and
    /// offline datasets where economics don't matter).
    pub fn bare(task: TaskId, worker: WorkerId, value: AnswerValue) -> Self {
        Self {
            task,
            worker,
            value,
            submitted_at: 0.0,
            cost: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_flip_is_involutive() {
        assert_eq!(Preference::Left.flip(), Preference::Right);
        assert_eq!(Preference::Left.flip().flip(), Preference::Left);
    }

    #[test]
    fn accessors_return_only_matching_variant() {
        let c = AnswerValue::Choice(2);
        assert_eq!(c.as_choice(), Some(2));
        assert_eq!(c.as_number(), None);
        assert_eq!(c.as_text(), None);

        let t = AnswerValue::Text("hello".into());
        assert_eq!(t.as_text(), Some("hello"));
        assert_eq!(t.as_choice(), None);
    }

    #[test]
    fn matches_is_tolerant_for_numbers_and_text() {
        assert!(AnswerValue::Number(1.0).matches(&AnswerValue::Number(1.0 + 1e-12)));
        assert!(!AnswerValue::Number(1.0).matches(&AnswerValue::Number(1.001)));
        assert!(AnswerValue::Text(" Paris ".into()).matches(&AnswerValue::Text("paris".into())));
        assert!(!AnswerValue::Text("Paris".into()).matches(&AnswerValue::Text("Lyon".into())));
    }

    #[test]
    fn matches_items_as_sets() {
        let a = AnswerValue::Items(vec!["b".into(), "A".into(), "a".into()]);
        let b = AnswerValue::Items(vec!["a".into(), "B".into()]);
        assert!(a.matches(&b));
        let c = AnswerValue::Items(vec!["a".into()]);
        assert!(!a.matches(&c));
    }

    #[test]
    fn matches_rejects_cross_variant() {
        assert!(!AnswerValue::Choice(1).matches(&AnswerValue::Number(1.0)));
        assert!(!AnswerValue::Text("1".into()).matches(&AnswerValue::Choice(1)));
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(AnswerValue::Choice(0).type_name(), "choice");
        assert_eq!(
            AnswerValue::Prefer(Preference::Left).type_name(),
            "preference"
        );
    }

    #[test]
    fn bare_answer_has_zero_economics() {
        let a = Answer::bare(TaskId::new(1), WorkerId::new(2), AnswerValue::Choice(0));
        assert_eq!(a.cost, 0.0);
        assert_eq!(a.submitted_at, 0.0);
    }
}
