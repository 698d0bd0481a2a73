//! The task model.
//!
//! A [`Task`] is one question posed to the crowd. Its [`TaskKind`] dictates
//! the shape of valid answers and how simulated workers generate them.
//!
//! ## Ground truth
//!
//! For *simulation and evaluation*, a task may carry its latent ground truth
//! in [`Task::truth`]. Algorithms must never read it (they receive tasks
//! through interfaces that do not expose it); the platform simulator uses it
//! to generate realistic worker answers, and the experiment harness uses it
//! to score results. This is the standard device for reproducing published
//! crowdsourcing evaluations without live workers.

use crate::answer::AnswerValue;
use crate::ids::{ItemId, TaskId};
use crate::label::LabelSpace;

/// The kind of question a task asks, which constrains answer values.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Pick one label from a categorical space ("is this spam?", "which
    /// category?"). Answers are [`AnswerValue::Choice`].
    SingleChoice {
        /// The labels to choose from.
        labels: LabelSpace,
    },
    /// Provide a number within `[min, max]` ("how many people are in this
    /// photo?"). Answers are [`AnswerValue::Number`].
    Numeric {
        /// Smallest admissible value.
        min: f64,
        /// Largest admissible value.
        max: f64,
    },
    /// Provide free text ("what is the CEO's name?"). Answers are
    /// [`AnswerValue::Text`].
    OpenText,
    /// Compare two items and say which ranks higher ("which photo is
    /// clearer?"). Answers are [`AnswerValue::Prefer`].
    Pairwise {
        /// Left item under comparison.
        left: ItemId,
        /// Right item under comparison.
        right: ItemId,
    },
    /// Enumerate items from an open world ("name US states"). Answers are
    /// [`AnswerValue::Items`].
    Collection,
    /// Fill one missing cell of a record ("the capital of France is ___").
    /// Answers are [`AnswerValue::Text`].
    Fill {
        /// The attribute (column) being filled.
        attribute: String,
    },
}

impl TaskKind {
    /// Short, stable name used in cost models and logs.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::SingleChoice { .. } => "single_choice",
            TaskKind::Numeric { .. } => "numeric",
            TaskKind::OpenText => "open_text",
            TaskKind::Pairwise { .. } => "pairwise",
            TaskKind::Collection => "collection",
            TaskKind::Fill { .. } => "fill",
        }
    }

    /// True if `value` is a structurally valid answer for this kind
    /// (variant matches and any range/label constraints hold).
    pub fn accepts(&self, value: &AnswerValue) -> bool {
        match (self, value) {
            (TaskKind::SingleChoice { labels }, AnswerValue::Choice(c)) => labels.contains(*c),
            (TaskKind::Numeric { min, max }, AnswerValue::Number(x)) => {
                x.is_finite() && *x >= *min && *x <= *max
            }
            (TaskKind::OpenText, AnswerValue::Text(_)) => true,
            (TaskKind::Pairwise { .. }, AnswerValue::Prefer(_)) => true,
            (TaskKind::Collection, AnswerValue::Items(_)) => true,
            (TaskKind::Fill { .. }, AnswerValue::Text(_)) => true,
            _ => false,
        }
    }
}

/// One question posed to the crowd.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique identifier.
    pub id: TaskId,
    /// What is being asked.
    pub kind: TaskKind,
    /// Human-readable prompt shown to workers (and useful in logs).
    pub prompt: String,
    /// Intrinsic difficulty in `[0, 1]`; `0` = trivially easy, `1` = very
    /// hard. Difficulty-sensitive worker models (GLAD-style) use this; flat
    /// models ignore it.
    pub difficulty: f64,
    /// Latent ground truth for simulation/evaluation; see module docs.
    pub truth: Option<AnswerValue>,
}

impl Task {
    /// Creates a task with default difficulty (0.5) and no ground truth.
    pub fn new(id: TaskId, kind: TaskKind, prompt: impl Into<String>) -> Self {
        Self {
            id,
            kind,
            prompt: prompt.into(),
            difficulty: 0.5,
            truth: None,
        }
    }

    /// Sets the latent ground truth (builder style).
    ///
    /// # Panics
    /// Panics in debug builds if `truth` is not a valid answer for the
    /// task's kind; a simulation seeded with ill-typed truth would produce
    /// ill-typed answers everywhere downstream.
    pub fn with_truth(mut self, truth: AnswerValue) -> Self {
        debug_assert!(
            self.kind.accepts(&truth),
            "ground truth {truth:?} is not a valid answer for task kind {}",
            self.kind.name()
        );
        self.truth = Some(truth);
        self
    }

    /// Sets the difficulty (builder style), clamped to `[0, 1]`.
    pub fn with_difficulty(mut self, difficulty: f64) -> Self {
        self.difficulty = difficulty.clamp(0.0, 1.0);
        self
    }

    /// Number of labels if this is a single-choice task, else `None`.
    pub fn num_labels(&self) -> Option<usize> {
        match &self.kind {
            TaskKind::SingleChoice { labels } => Some(labels.len()),
            _ => None,
        }
    }
}

/// Convenience constructors for the common task shapes.
impl Task {
    /// A binary yes/no task.
    pub fn binary(id: TaskId, prompt: impl Into<String>) -> Self {
        Task::new(
            id,
            TaskKind::SingleChoice {
                labels: LabelSpace::binary(),
            },
            prompt,
        )
    }

    /// A k-way classification task over an anonymous label space.
    pub fn multiclass(id: TaskId, k: usize, prompt: impl Into<String>) -> Self {
        Task::new(
            id,
            TaskKind::SingleChoice {
                labels: LabelSpace::anonymous(k),
            },
            prompt,
        )
    }

    /// A pairwise comparison task between two items.
    pub fn pairwise(id: TaskId, left: ItemId, right: ItemId) -> Self {
        Task::new(
            id,
            TaskKind::Pairwise { left, right },
            format!("compare {left} vs {right}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Preference;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            TaskKind::SingleChoice {
                labels: LabelSpace::binary()
            }
            .name(),
            "single_choice"
        );
        assert_eq!(TaskKind::OpenText.name(), "open_text");
        assert_eq!(TaskKind::Collection.name(), "collection");
    }

    #[test]
    fn accepts_checks_variant_and_constraints() {
        let sc = TaskKind::SingleChoice {
            labels: LabelSpace::binary(),
        };
        assert!(sc.accepts(&AnswerValue::Choice(1)));
        assert!(!sc.accepts(&AnswerValue::Choice(2)), "out-of-range label");
        assert!(!sc.accepts(&AnswerValue::Number(1.0)), "wrong variant");

        let num = TaskKind::Numeric {
            min: 0.0,
            max: 10.0,
        };
        assert!(num.accepts(&AnswerValue::Number(5.0)));
        assert!(!num.accepts(&AnswerValue::Number(11.0)));
        assert!(!num.accepts(&AnswerValue::Number(f64::NAN)));

        let pw = TaskKind::Pairwise {
            left: ItemId::new(0),
            right: ItemId::new(1),
        };
        assert!(pw.accepts(&AnswerValue::Prefer(Preference::Left)));
        assert!(!pw.accepts(&AnswerValue::Text("left".into())));
    }

    #[test]
    fn builder_clamps_difficulty() {
        let t = Task::binary(TaskId::new(0), "spam?").with_difficulty(1.7);
        assert_eq!(t.difficulty, 1.0);
        let t = t.with_difficulty(-0.3);
        assert_eq!(t.difficulty, 0.0);
    }

    #[test]
    fn with_truth_stores_value() {
        let t = Task::binary(TaskId::new(0), "spam?").with_truth(AnswerValue::Choice(1));
        assert_eq!(t.truth, Some(AnswerValue::Choice(1)));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn with_truth_rejects_ill_typed_value() {
        let _ = Task::binary(TaskId::new(0), "spam?").with_truth(AnswerValue::Number(3.0));
    }

    #[test]
    fn num_labels_only_for_single_choice() {
        assert_eq!(
            Task::multiclass(TaskId::new(0), 4, "which?").num_labels(),
            Some(4)
        );
        assert_eq!(
            Task::pairwise(TaskId::new(1), ItemId::new(0), ItemId::new(1)).num_labels(),
            None
        );
    }
}
