//! Answer reconciliation: the one place where a request's crowd answers
//! become a verdict.
//!
//! Every operator in this crate, the CrowdSQL Volcano executor and the
//! crowd-Datalog resolver reconcile through these functions, so a change
//! to how answers are combined is made once:
//!
//! * [`normalize`] — the text normal form (trimmed, lowercased) used to
//!   compare free-text answers;
//! * [`plurality`] — normalized plurality over open-text answers, with
//!   ties left undecided rather than guessed (fill, Datalog fetches);
//! * [`yes_majority`] — the yes/no vote over binary answers, ties "no"
//!   (entity verification, COUNT sampling, `CROWDEQUAL`).
//!
//! What to do when a request came back short is not a reconciliation
//! question; that policy lives in [`AskOutcome::check`](crowdkit_core::ask::AskOutcome::check).

use std::collections::BTreeMap;

use crowdkit_core::answer::Answer;

/// The normal form free-text answers are compared in: trimmed and
/// lowercased.
pub fn normalize(text: &str) -> String {
    text.trim().to_lowercase()
}

/// A strict plurality winner over open-text answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Plurality {
    /// The winning value, normalized.
    pub key: String,
    /// The winner as the first worker who gave it typed it, trimmed.
    pub surface: String,
    /// Fraction of the counted answers that agree with the winner.
    pub support: f64,
    /// Every normalized value with its count, by count descending, then
    /// value ascending.
    pub tallies: Vec<(String, u32)>,
}

/// Reconciles open-text answers by normalized plurality.
///
/// Blank and non-text answers are skipped. Returns `None` when nothing
/// usable arrived or the top two values tie.
pub fn plurality(answers: &[Answer]) -> Option<Plurality> {
    // Key-ordered: the tallies are built by iterating this map, and that
    // order must never depend on hashing (determinism contract).
    let mut counts: BTreeMap<String, (u32, &str)> = BTreeMap::new();
    let mut counted = 0u32;
    for text in answers.iter().filter_map(|a| a.value.as_text()) {
        let key = normalize(text);
        if key.is_empty() {
            continue;
        }
        counts.entry(key).or_insert((0, text.trim())).0 += 1;
        counted += 1;
    }
    let mut tallies: Vec<(String, u32)> =
        counts.iter().map(|(k, &(c, _))| (k.clone(), c)).collect();
    // Stable over the key-ascending map order, so equal counts stay by key.
    tallies.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let (key, votes) = match tallies.as_slice() {
        [] => return None,
        [(_, c1), (_, c2), ..] if c1 == c2 => return None,
        [(top, c), ..] => (top.clone(), *c),
    };
    Some(Plurality {
        surface: counts[&key].1.to_owned(),
        key,
        support: f64::from(votes) / f64::from(counted),
        tallies,
    })
}

/// Majority over yes/no answers: `Choice(1)` counts as yes, anything else
/// as no, and a tie is "no" (the conservative call).
pub fn yes_majority(answers: &[Answer]) -> bool {
    let yes = answers
        .iter()
        .filter(|a| a.value.as_choice() == Some(1))
        .count();
    yes > answers.len() - yes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::ids::{TaskId, WorkerId};

    fn answers(values: Vec<AnswerValue>) -> Vec<Answer> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Answer::bare(TaskId::new(0), WorkerId::new(i as u64), v))
            .collect()
    }

    fn texts(texts: &[&str]) -> Vec<Answer> {
        answers(
            texts
                .iter()
                .map(|t| AnswerValue::Text((*t).to_owned()))
                .collect(),
        )
    }

    #[test]
    fn normalize_trims_and_lowercases() {
        assert_eq!(normalize("  Paris \t"), "paris");
        assert_eq!(normalize("   "), "");
    }

    #[test]
    fn plurality_wins_over_noise_and_case() {
        let p = plurality(&texts(&["  PARIS ", "paris", "Lyon"])).unwrap();
        assert_eq!(p.key, "paris");
        assert_eq!(
            p.surface, "PARIS",
            "first seen surface form of the winner, trimmed"
        );
        assert!((p.support - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            p.tallies,
            vec![("paris".to_owned(), 2), ("lyon".to_owned(), 1)]
        );
    }

    #[test]
    fn ties_are_undecided_not_guessed() {
        assert_eq!(plurality(&texts(&["a", "b"])), None);
        assert_eq!(plurality(&texts(&["a", "B", "b", "A", "c"])), None);
    }

    #[test]
    fn nothing_usable_is_undecided() {
        assert_eq!(plurality(&[]), None);
        assert_eq!(plurality(&texts(&["", "  "])), None);
        assert_eq!(plurality(&answers(vec![AnswerValue::Choice(1)])), None);
    }

    #[test]
    fn blank_and_non_text_answers_are_not_counted() {
        let mut mixed = texts(&["Tokyo", " ", "tokyo", "Osaka"]);
        mixed.extend(answers(vec![AnswerValue::Choice(0)]));
        let p = plurality(&mixed).unwrap();
        assert_eq!(p.surface, "Tokyo");
        assert!(
            (p.support - 2.0 / 3.0).abs() < 1e-12,
            "3 counted answers, not 5"
        );
    }

    #[test]
    fn equal_counts_below_the_winner_are_listed_by_key() {
        let p = plurality(&texts(&["z", "b", "a", "z"])).unwrap();
        let keys: Vec<&str> = p.tallies.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "b"]);
    }

    #[test]
    fn yes_majority_is_strict_and_counts_other_values_as_no() {
        let yes = AnswerValue::Choice(1);
        let no = AnswerValue::Choice(0);
        assert!(yes_majority(&answers(vec![
            yes.clone(),
            yes.clone(),
            no.clone()
        ])));
        assert!(
            !yes_majority(&answers(vec![yes.clone(), no.clone()])),
            "ties are no"
        );
        assert!(!yes_majority(&answers(vec![
            yes.clone(),
            AnswerValue::Choice(2),
            AnswerValue::Text("yes".into()),
        ])));
        assert!(!yes_majority(&[]));
    }
}
