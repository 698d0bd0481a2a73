//! How crowd-predicate fetches reach people.
//!
//! The engine calls [`CrowdResolver::resolve`] when a rule needs tuples of
//! a crowd predicate for a specific binding of its bound arguments — e.g.
//! `city_of("joe's diner", C)` asks for the value of `C`. Three
//! implementations:
//!
//! * [`NullResolver`] — answers nothing; evaluation is machine-only.
//! * [`TableResolver`] — answers from a ground-truth table; the
//!   deterministic test/benchmark resolver.
//! * [`OracleResolver`] — buys `votes` open-text answers per fetch from a
//!   [`CrowdOracle`] and reconciles them with the FILL operator's own
//!   [`crowdkit_ops::reconcile::plurality`]; a short delivery is judged by
//!   [`AskOutcome::check`](crowdkit_core::ask::AskOutcome::check).

use std::collections::HashMap;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::error::Result;
use crowdkit_core::ids::IdGen;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::{self as obs, Event};
use crowdkit_ops::reconcile::plurality;

use crate::ast::Const;

/// Supplies values for the single free position of a crowd-predicate
/// fetch.
pub trait CrowdResolver {
    /// Returns candidate constants for position `free_pos` of
    /// `predicate/arity`, given the other positions' values in `bound`
    /// (sorted by position).
    ///
    /// An empty vector means the crowd produced no (reconcilable) answer;
    /// the engine caches that result and will not re-ask.
    fn resolve(
        &mut self,
        predicate: &str,
        bound: &[(usize, Const)],
        free_pos: usize,
        arity: usize,
    ) -> Result<Vec<Const>>;

    /// Crowd answers purchased so far (0 for offline resolvers).
    fn questions_asked(&self) -> u64;
}

/// A resolver that never returns tuples.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullResolver;

impl CrowdResolver for NullResolver {
    fn resolve(
        &mut self,
        _predicate: &str,
        _bound: &[(usize, Const)],
        _free_pos: usize,
        _arity: usize,
    ) -> Result<Vec<Const>> {
        Ok(Vec::new())
    }

    fn questions_asked(&self) -> u64 {
        0
    }
}

/// Answers fetches from an in-memory ground-truth table.
#[derive(Debug, Default, Clone)]
pub struct TableResolver {
    tables: HashMap<String, Vec<Vec<Const>>>,
    fetches: u64,
}

impl TableResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a ground tuple for `predicate`.
    pub fn insert(&mut self, predicate: impl Into<String>, tuple: Vec<Const>) {
        self.tables.entry(predicate.into()).or_default().push(tuple);
    }

    /// Number of resolve calls served.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }
}

impl CrowdResolver for TableResolver {
    fn resolve(
        &mut self,
        predicate: &str,
        bound: &[(usize, Const)],
        free_pos: usize,
        _arity: usize,
    ) -> Result<Vec<Const>> {
        self.fetches += 1;
        let Some(rows) = self.tables.get(predicate) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for row in rows {
            if bound.iter().all(|(i, v)| row.get(*i) == Some(v)) {
                if let Some(v) = row.get(free_pos) {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    fn questions_asked(&self) -> u64 {
        // Table lookups are free; this resolver models a perfect crowd and
        // is counted by `fetches()` instead.
        0
    }
}

/// Buys answers from a [`CrowdOracle`], `votes` per fetch, reconciled by
/// normalized plurality. Ties and empty answers resolve to nothing.
///
/// `make_task` renders the worker-facing question for a fetch; in
/// simulation it attaches the latent truth. The normalized (trimmed,
/// lowercased) winner that parses as an integer becomes [`Const::Int`],
/// otherwise [`Const::Str`].
pub struct OracleResolver<'a, O: CrowdOracle + ?Sized, F> {
    oracle: &'a O,
    votes: u32,
    make_task: F,
    ids: IdGen,
    questions: u64,
}

impl<'a, O, F> OracleResolver<'a, O, F>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(crowdkit_core::ids::TaskId, &str, &[(usize, Const)], usize) -> Task,
{
    /// Creates a resolver over `oracle` buying `votes` answers per fetch.
    pub fn new(oracle: &'a O, votes: u32, make_task: F) -> Self {
        Self {
            oracle,
            votes,
            make_task,
            ids: IdGen::new(),
            questions: 0,
        }
    }
}

impl<'a, O, F> CrowdResolver for OracleResolver<'a, O, F>
where
    O: CrowdOracle + ?Sized,
    F: FnMut(crowdkit_core::ids::TaskId, &str, &[(usize, Const)], usize) -> Task,
{
    fn resolve(
        &mut self,
        predicate: &str,
        bound: &[(usize, Const)],
        free_pos: usize,
        _arity: usize,
    ) -> Result<Vec<Const>> {
        let task = (self.make_task)(self.ids.next_task(), predicate, bound, free_pos);
        let out = self
            .oracle
            .ask(&AskRequest::new(&task).with_redundancy(self.votes.max(1) as usize))?;
        out.check()?;
        self.questions += out.answers.len() as u64;
        // The normalized winner, so facts compare case-insensitively.
        let resolved: Vec<Const> = plurality(&out.answers)
            .map(|p| match p.key.parse::<i64>() {
                Ok(i) => Const::Int(i),
                Err(_) => Const::Str(p.key),
            })
            .into_iter()
            .collect();
        let rec = obs::scope().recorder;
        if rec.enabled() {
            rec.record(
                Event::new("datalog.fetch")
                    .str("predicate", predicate)
                    .u64("answers", out.answers.len() as u64)
                    .u64("resolved", u64::from(!resolved.is_empty())),
            );
        }
        Ok(resolved)
    }

    fn questions_asked(&self) -> u64 {
        self.questions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::{Answer, AnswerValue};
    use crowdkit_core::ids::{TaskId, WorkerId};
    use crowdkit_core::task::TaskKind;

    #[test]
    fn null_resolver_returns_nothing() {
        let mut r = NullResolver;
        assert_eq!(
            r.resolve("p", &[(0, Const::Int(1))], 1, 2).unwrap(),
            Vec::<Const>::new()
        );
        assert_eq!(r.questions_asked(), 0);
    }

    #[test]
    fn table_resolver_filters_by_bound_positions() {
        let mut r = TableResolver::new();
        r.insert(
            "city_of",
            vec![Const::Str("joes".into()), Const::Str("tokyo".into())],
        );
        r.insert(
            "city_of",
            vec![Const::Str("moes".into()), Const::Str("osaka".into())],
        );
        let vals = r
            .resolve("city_of", &[(0, Const::Str("joes".into()))], 1, 2)
            .unwrap();
        assert_eq!(vals, vec![Const::Str("tokyo".into())]);
        assert_eq!(r.fetches(), 1);
        // Unknown binding → empty.
        assert!(r
            .resolve("city_of", &[(0, Const::Str("zoes".into()))], 1, 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn table_resolver_dedups_values() {
        let mut r = TableResolver::new();
        r.insert("p", vec![Const::Int(1), Const::Int(9)]);
        r.insert("p", vec![Const::Int(2), Const::Int(9)]);
        // Free position 1 with nothing bound: value 9 appears once.
        let vals = r.resolve("p", &[], 1, 2).unwrap();
        assert_eq!(vals, vec![Const::Int(9)]);
    }

    /// Oracle scripting a fixed sequence of text answers.
    struct ScriptOracle {
        script: Vec<String>,
        i: std::cell::Cell<usize>,
    }

    impl ScriptOracle {
        fn new(script: Vec<String>) -> Self {
            Self {
                script,
                i: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for ScriptOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            let i = self.i.get();
            let text = self.script[i % self.script.len()].clone();
            self.i.set(i + 1);
            Ok(Answer::bare(
                task.id,
                WorkerId::new((i + 1) as u64),
                AnswerValue::Text(text),
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            self.i.get() as u64
        }
    }

    fn make_task(id: TaskId, pred: &str, bound: &[(usize, Const)], _free: usize) -> Task {
        let desc: Vec<String> = bound.iter().map(|(i, c)| format!("{i}={c}")).collect();
        Task::new(
            id,
            TaskKind::OpenText,
            format!("{pred}({})", desc.join(",")),
        )
    }

    #[test]
    fn oracle_resolver_reconciles_by_plurality() {
        let oracle = ScriptOracle::new(vec!["Tokyo".into(), "tokyo ".into(), "Osaka".into()]);
        let mut r = OracleResolver::new(&oracle, 3, make_task);
        let vals = r
            .resolve("city_of", &[(0, Const::Str("joes".into()))], 1, 2)
            .unwrap();
        assert_eq!(vals, vec![Const::Str("tokyo".into())]);
        assert_eq!(r.questions_asked(), 3);
    }

    #[test]
    fn oracle_resolver_parses_integers() {
        let oracle = ScriptOracle::new(vec!["4".into()]);
        let mut r = OracleResolver::new(&oracle, 1, make_task);
        let vals = r.resolve("rating", &[], 1, 2).unwrap();
        assert_eq!(vals, vec![Const::Int(4)]);
    }

    #[test]
    fn oracle_resolver_ties_resolve_to_nothing() {
        let oracle = ScriptOracle::new(vec!["a".into(), "b".into()]);
        let mut r = OracleResolver::new(&oracle, 2, make_task);
        assert!(r.resolve("p", &[], 0, 1).unwrap().is_empty());
    }
}
