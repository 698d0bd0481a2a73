//! Stratified bottom-up evaluation with on-demand crowd fetches.
//!
//! Evaluation follows the textbook pipeline — safety validation,
//! stratification over negation, per-stratum semi-naive fixpoint — with
//! one crowd-specific twist: when a rule's body reaches a *crowd
//! predicate* atom whose arguments are bound except for exactly one
//! position, and the stored relation has no matching tuple, the engine
//! issues a *fetch* through the [`CrowdResolver`]. Fetches are cached per
//! `(predicate, bound-values)` key and capped by
//! [`EngineConfig::max_fetches`] — Deco's resolution-limit discipline, so
//! a recursive program cannot spend unboundedly.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crowdkit_core::error::{CrowdError, Result};

use crate::ast::{AggFunc, Clause, Const, Literal, Program, Rule, Term};
use crate::resolver::CrowdResolver;

/// The evaluated instance: one tuple set per predicate.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: HashMap<String, HashSet<Vec<Const>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a tuple; returns true if it was new.
    pub fn insert(&mut self, predicate: &str, tuple: Vec<Const>) -> bool {
        self.relations
            .entry(predicate.to_owned())
            .or_default()
            .insert(tuple)
    }

    /// Whether a ground tuple is present.
    pub fn contains(&self, predicate: &str, tuple: &[Const]) -> bool {
        self.relations
            .get(predicate)
            .map(|r| r.contains(tuple))
            .unwrap_or(false)
    }

    /// All tuples of a relation, sorted for deterministic output.
    pub fn relation(&self, predicate: &str) -> Vec<Vec<Const>> {
        let mut rows: Vec<Vec<Const>> = self
            .relations
            .get(predicate)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default();
        rows.sort();
        rows
    }

    /// Number of tuples in a relation.
    pub fn len(&self, predicate: &str) -> usize {
        self.relations.get(predicate).map(HashSet::len).unwrap_or(0)
    }

    /// True when the database holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(HashSet::is_empty)
    }

    fn rows(&self, predicate: &str) -> Option<&HashSet<Vec<Const>>> {
        self.relations.get(predicate)
    }
}

/// Engine limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Maximum crowd fetches per run (Deco resolution limit).
    pub max_fetches: usize,
    /// Cap on fixpoint iterations per stratum (guards buggy programs).
    pub max_iterations: usize,
    /// Use semi-naive evaluation (delta-restricted rule re-evaluation)
    /// instead of re-running every rule against the full database each
    /// round. Semantics are identical; semi-naive avoids re-deriving the
    /// whole relation per round and is the production setting. Naive mode
    /// is the reference the property tests hold semi-naive evaluation to.
    pub semi_naive: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_fetches: 10_000,
            max_iterations: 10_000,
            semi_naive: true,
        }
    }
}

/// Statistics from one evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Crowd fetches issued (cache misses that reached the resolver).
    pub fetches: usize,
    /// Fetches suppressed by the per-binding cache.
    pub fetch_cache_hits: usize,
    /// Tuples added to crowd relations by fetches.
    pub crowd_tuples: usize,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Crowd answers purchased by the resolver.
    pub questions_asked: u64,
}

/// The crowd-Datalog evaluator.
#[derive(Debug, Clone)]
pub struct Engine {
    program: Program,
    crowd_preds: BTreeMap<String, usize>,
    config: EngineConfig,
}

impl Engine {
    /// Validates `program` and builds an engine.
    ///
    /// Rejects: unsafe rules (head/negation/comparison variables not bound
    /// by a positive body atom), crowd predicates appearing as rule heads,
    /// crowd-predicate facts whose arity clashes with the `@crowd`
    /// declaration, and unstratifiable negation. A crowd atom in a rule
    /// body with the wrong arity is rejected when [`Engine::run`] reaches
    /// it.
    pub fn new(program: Program) -> Result<Self> {
        let mut crowd_preds = BTreeMap::new();
        for c in &program.clauses {
            if let Clause::CrowdDecl { predicate, arity } = c {
                if crowd_preds.insert(predicate.clone(), *arity).is_some() {
                    return Err(CrowdError::Semantic(format!(
                        "duplicate @crowd declaration for '{predicate}'"
                    )));
                }
            }
        }

        for rule in program.rules() {
            validate_rule(rule, &crowd_preds)?;
        }
        stratify(&program)?; // fail fast on unstratifiable programs

        Ok(Self {
            program,
            crowd_preds,
            config: EngineConfig::default(),
        })
    }

    /// Overrides the engine limits (builder style).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// The declared crowd predicates.
    pub fn crowd_predicates(&self) -> impl Iterator<Item = (&str, usize)> {
        self.crowd_preds.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Evaluates the program to fixpoint, pulling crowd tuples through
    /// `resolver` as needed.
    pub fn run<R: CrowdResolver + ?Sized>(
        &self,
        resolver: &mut R,
    ) -> Result<(Database, EvalStats)> {
        let mut db = Database::new();
        let mut stats = EvalStats::default();
        let mut fetched: HashSet<(String, Vec<(usize, Const)>)> = HashSet::new();

        // Facts first.
        for rule in self.program.rules() {
            if rule.body.is_empty() {
                let tuple: Vec<Const> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => Ok(c.clone()),
                        _ => Err(CrowdError::Semantic(format!(
                            "fact {} has non-ground head",
                            rule.head
                        ))),
                    })
                    .collect::<Result<_>>()?;
                db.insert(&rule.head.predicate, tuple);
            }
        }

        let strata = stratify(&self.program)?;
        let mut by_stratum: BTreeMap<usize, Vec<&Rule>> = BTreeMap::new();
        for rule in self.program.rules() {
            if rule.body.is_empty() {
                continue;
            }
            let s = strata.get(&rule.head.predicate).copied().unwrap_or(0);
            by_stratum.entry(s).or_default().push(rule);
        }

        for rules in by_stratum.values() {
            // Aggregate rules run first: stratification guarantees their
            // inputs are complete, so one pass suffices (after fetching).
            let (agg_rules, normal): (Vec<&Rule>, Vec<&Rule>) =
                rules.iter().partition(|r| !r.aggregates.is_empty());
            for rule in agg_rules {
                let fetched_tuples =
                    self.fetch_pass(rule, &db, resolver, &mut fetched, &mut stats)?;
                for (pred, tuple) in fetched_tuples {
                    if db.insert(&pred, tuple) {
                        stats.crowd_tuples += 1;
                    }
                }
                for tuple in self.eval_aggregate(rule, &db)? {
                    db.insert(&rule.head.predicate, tuple);
                }
            }
            if self.config.semi_naive {
                self.eval_stratum_semi_naive(&normal, &mut db, resolver, &mut fetched, &mut stats)?;
            } else {
                self.eval_stratum_naive(&normal, &mut db, resolver, &mut fetched, &mut stats)?;
            }
        }

        stats.questions_asked = resolver.questions_asked();
        Ok((db, stats))
    }

    /// Naive fixpoint: every round re-evaluates every rule against the
    /// full database.
    fn eval_stratum_naive<R: CrowdResolver + ?Sized>(
        &self,
        rules: &[&Rule],
        db: &mut Database,
        resolver: &mut R,
        fetched: &mut HashSet<(String, Vec<(usize, Const)>)>,
        stats: &mut EvalStats,
    ) -> Result<()> {
        loop {
            stats.iterations += 1;
            if stats.iterations > self.config.max_iterations {
                return Err(CrowdError::Execution(
                    "fixpoint iteration limit exceeded".into(),
                ));
            }
            let mut changed = false;
            for rule in rules {
                // Fetch pass first so this evaluation sees its own crowd
                // tuples.
                let fetched_tuples = self.fetch_pass(rule, db, resolver, fetched, stats)?;
                for (pred, tuple) in fetched_tuples {
                    if db.insert(&pred, tuple) {
                        stats.crowd_tuples += 1;
                        changed = true;
                    }
                }
                let derived = self.eval_rule(rule, db, None)?;
                for tuple in derived {
                    if db.insert(&rule.head.predicate, tuple) {
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Semi-naive fixpoint: after the first full round, a rule is
    /// re-evaluated only with one positive body atom restricted to the
    /// previous round's newly derived tuples (its *delta*), so unchanged
    /// portions of the database are never re-joined.
    fn eval_stratum_semi_naive<R: CrowdResolver + ?Sized>(
        &self,
        rules: &[&Rule],
        db: &mut Database,
        resolver: &mut R,
        fetched: &mut HashSet<(String, Vec<(usize, Const)>)>,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let mut delta: HashMap<String, HashSet<Vec<Const>>> = HashMap::new();
        let record_delta =
            |delta: &mut HashMap<String, HashSet<Vec<Const>>>, pred: &str, tuple: Vec<Const>| {
                delta.entry(pred.to_owned()).or_default().insert(tuple);
            };

        // Round 0: full evaluation seeds the deltas.
        stats.iterations += 1;
        for rule in rules {
            let fetched_tuples = self.fetch_pass(rule, db, resolver, fetched, stats)?;
            for (pred, tuple) in fetched_tuples {
                if db.insert(&pred, tuple.clone()) {
                    stats.crowd_tuples += 1;
                    record_delta(&mut delta, &pred, tuple);
                }
            }
            for tuple in self.eval_rule(rule, db, None)? {
                if db.insert(&rule.head.predicate, tuple.clone()) {
                    record_delta(&mut delta, &rule.head.predicate, tuple);
                }
            }
        }

        while !delta.is_empty() {
            stats.iterations += 1;
            if stats.iterations > self.config.max_iterations {
                return Err(CrowdError::Execution(
                    "fixpoint iteration limit exceeded".into(),
                ));
            }
            let mut next: HashMap<String, HashSet<Vec<Const>>> = HashMap::new();
            for rule in rules {
                // Crowd fetches can be enabled by new bindings from the
                // delta; the fetch pass is cheap thanks to its cache.
                let fetched_tuples = self.fetch_pass(rule, db, resolver, fetched, stats)?;
                for (pred, tuple) in fetched_tuples {
                    if db.insert(&pred, tuple.clone()) {
                        stats.crowd_tuples += 1;
                        record_delta(&mut next, &pred, tuple);
                    }
                }
                // One delta-restricted evaluation per positive atom whose
                // predicate changed last round.
                for (i, lit) in rule.body.iter().enumerate() {
                    let Literal::Pos(atom) = lit else { continue };
                    let Some(d) = delta.get(&atom.predicate) else {
                        continue;
                    };
                    if d.is_empty() {
                        continue;
                    }
                    for tuple in self.eval_rule(rule, db, Some((i, d)))? {
                        if db.insert(&rule.head.predicate, tuple.clone()) {
                            record_delta(&mut next, &rule.head.predicate, tuple);
                        }
                    }
                }
            }
            delta = next;
        }
        Ok(())
    }

    /// Evaluates one rule against the database, returning derived head
    /// tuples. When `restrict` is given, the positive atom at that body
    /// index matches only the supplied delta tuples.
    fn eval_rule(
        &self,
        rule: &Rule,
        db: &Database,
        restrict: Option<(usize, &HashSet<Vec<Const>>)>,
    ) -> Result<Vec<Vec<Const>>> {
        let mut results = Vec::new();
        for_each_binding(&rule.body, db, restrict, |binding| {
            let tuple = rule
                .head
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Ok(c.clone()),
                    Term::Var(v) => binding.get(v).cloned().ok_or_else(|| {
                        CrowdError::Semantic(format!("unbound head variable {v} in rule {rule}"))
                    }),
                    Term::Wildcard => Err(CrowdError::Semantic(format!(
                        "wildcard in rule head: {rule}"
                    ))),
                })
                .collect::<Result<_>>()?;
            results.push(tuple);
            Ok(())
        })?;
        Ok(results)
    }

    /// Evaluates one aggregate rule: enumerates all body bindings, groups
    /// them by the head's non-aggregate arguments, and computes each
    /// aggregate over the *set* of distinct values of its variable within
    /// the group (Datalog set semantics).
    fn eval_aggregate(&self, rule: &Rule, db: &Database) -> Result<Vec<Vec<Const>>> {
        // Group key: resolved non-aggregate head arguments.
        let mut groups: BTreeMap<Vec<Const>, Vec<BTreeSet<Const>>> = BTreeMap::new();
        for_each_binding(&rule.body, db, None, |binding| {
            let mut key = Vec::new();
            for (i, t) in rule.head.args.iter().enumerate() {
                if rule.aggregates.iter().any(|s| s.pos == i) {
                    continue;
                }
                let v = match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => binding.get(v).cloned().ok_or_else(|| {
                        CrowdError::Semantic(format!("unbound head variable {v} in {rule}"))
                    })?,
                    Term::Wildcard => unreachable!("validated: no stray head wildcards"),
                };
                key.push(v);
            }
            let sets = groups
                .entry(key)
                .or_insert_with(|| vec![BTreeSet::new(); rule.aggregates.len()]);
            for (slot_idx, slot) in rule.aggregates.iter().enumerate() {
                let v = binding.get(&slot.var).cloned().ok_or_else(|| {
                    CrowdError::Semantic(format!(
                        "unbound aggregate variable {} in {rule}",
                        slot.var
                    ))
                })?;
                sets[slot_idx].insert(v);
            }
            Ok(())
        })?;

        let mut out = Vec::with_capacity(groups.len());
        for (key, sets) in groups {
            let mut tuple = Vec::with_capacity(rule.head.args.len());
            let mut key_iter = key.into_iter();
            for i in 0..rule.head.args.len() {
                match rule.aggregates.iter().position(|s| s.pos == i) {
                    Some(slot_idx) => {
                        tuple.push(apply_aggregate(
                            rule.aggregates[slot_idx].func,
                            &sets[slot_idx],
                            rule,
                        )?);
                    }
                    None => tuple.push(key_iter.next().expect("key arity matches")), // crowdkit-lint: allow(PANIC001) — key tuple was built with one entry per non-aggregate position
                }
            }
            out.push(tuple);
        }
        Ok(out)
    }

    /// Issues fetches for crowd atoms in `rule`: for each positive crowd
    /// atom, enumerates the bindings of the rule's prefix literals under
    /// the current database, and for every binding with exactly one free
    /// position in the crowd atom (and no stored match) asks the resolver.
    /// Returns the fetched tuples for the caller to insert.
    fn fetch_pass<R: CrowdResolver + ?Sized>(
        &self,
        rule: &Rule,
        db: &Database,
        resolver: &mut R,
        fetched: &mut HashSet<(String, Vec<(usize, Const)>)>,
        stats: &mut EvalStats,
    ) -> Result<Vec<(String, Vec<Const>)>> {
        let mut pending: Vec<(String, Vec<Const>)> = Vec::new();
        // Identify crowd atoms and evaluate the rule prefix before each to
        // enumerate candidate bindings.
        for (idx, lit) in rule.body.iter().enumerate() {
            let Literal::Pos(atom) = lit else { continue };
            let Some(&arity) = self.crowd_preds.get(&atom.predicate) else {
                continue;
            };
            if atom.arity() != arity {
                return Err(CrowdError::Semantic(format!(
                    "crowd predicate '{}' used with arity {} but declared /{arity}",
                    atom.predicate,
                    atom.arity()
                )));
            }

            // Over the bindings of the prefix literals [0, idx), determine
            // the bound/free positions of the crowd atom; fetch only
            // single-free-position patterns.
            let mut requests: Vec<(Vec<(usize, Const)>, usize)> = Vec::new();
            for_each_binding(&rule.body[..idx], db, None, |binding| {
                let mut bound: Vec<(usize, Const)> = Vec::new();
                let mut free: Vec<usize> = Vec::new();
                for (pos, term) in atom.args.iter().enumerate() {
                    match term {
                        Term::Const(c) => bound.push((pos, c.clone())),
                        Term::Var(v) => match binding.get(v) {
                            Some(c) => bound.push((pos, c.clone())),
                            None => free.push(pos),
                        },
                        Term::Wildcard => free.push(pos),
                    }
                }
                if let [free_pos] = free[..] {
                    requests.push((bound, free_pos));
                }
                Ok(())
            })?;
            // Bindings come out of hash sets; fetching in sorted order keeps
            // the resolver's call sequence (its task ids, and which fetches
            // a `max_fetches` cap keeps) the same on every run.
            requests.sort();

            for (bound, free_pos) in requests {
                let key = (atom.predicate.clone(), bound.clone());
                if fetched.contains(&key) {
                    stats.fetch_cache_hits += 1;
                    continue;
                }
                // If matching tuples already exist, no fetch is needed.
                let have_match = db
                    .rows(&atom.predicate)
                    .map(|rows| {
                        rows.iter()
                            .any(|row| bound.iter().all(|(i, v)| &row[*i] == v))
                    })
                    .unwrap_or(false);
                if have_match {
                    fetched.insert(key);
                    continue;
                }
                if stats.fetches >= self.config.max_fetches {
                    continue; // budget spent: evaluate with what we have
                }
                stats.fetches += 1;
                fetched.insert(key);
                let values = resolver.resolve(&atom.predicate, &bound, free_pos, arity)?;
                for v in values {
                    let mut tuple = vec![Const::Int(0); arity];
                    for (i, c) in &bound {
                        tuple[*i] = c.clone();
                    }
                    tuple[free_pos] = v;
                    pending.push((atom.predicate.clone(), tuple));
                }
            }
        }
        Ok(pending)
    }
}

/// Hands every complete binding of `body` under `db` to `emit`, joining
/// left to right. A positive atom whose index matches `restrict` iterates
/// only the delta tuples.
fn for_each_binding<F>(
    body: &[Literal],
    db: &Database,
    restrict: Option<(usize, &HashSet<Vec<Const>>)>,
    mut emit: F,
) -> Result<()>
where
    F: FnMut(&HashMap<String, Const>) -> Result<()>,
{
    extend(body, 0, db, restrict, &mut HashMap::new(), &mut emit)
}

/// The recursion behind [`for_each_binding`]: extends `binding` over
/// `body[lit_idx..]`.
fn extend<F>(
    body: &[Literal],
    lit_idx: usize,
    db: &Database,
    restrict: Option<(usize, &HashSet<Vec<Const>>)>,
    binding: &mut HashMap<String, Const>,
    emit: &mut F,
) -> Result<()>
where
    F: FnMut(&HashMap<String, Const>) -> Result<()>,
{
    let Some(lit) = body.get(lit_idx) else {
        return emit(binding);
    };
    match lit {
        Literal::Pos(atom) => {
            let rows: &HashSet<Vec<Const>> = match restrict {
                Some((i, delta)) if i == lit_idx => delta,
                _ => match db.rows(&atom.predicate) {
                    Some(rows) => rows,
                    None => return Ok(()),
                },
            };
            for row in rows {
                if row.len() != atom.arity() {
                    continue;
                }
                let mut added: Vec<String> = Vec::new();
                let mut ok = true;
                for (term, value) in atom.args.iter().zip(row) {
                    match term {
                        Term::Const(c) => {
                            if c != value {
                                ok = false;
                                break;
                            }
                        }
                        Term::Wildcard => {}
                        Term::Var(v) => match binding.get(v) {
                            Some(existing) => {
                                if existing != value {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                binding.insert(v.clone(), value.clone());
                                added.push(v.clone());
                            }
                        },
                    }
                }
                if ok {
                    extend(body, lit_idx + 1, db, restrict, binding, emit)?;
                }
                for v in added {
                    binding.remove(&v);
                }
            }
            Ok(())
        }
        Literal::Neg(atom) => {
            // All non-wildcard terms must be ground here (validated).
            let exists = db
                .rows(&atom.predicate)
                .map(|rows| {
                    rows.iter().any(|row| {
                        row.len() == atom.arity()
                            && atom.args.iter().zip(row).all(|(t, v)| match t {
                                Term::Const(c) => c == v,
                                Term::Var(name) => binding.get(name) == Some(v),
                                Term::Wildcard => true,
                            })
                    })
                })
                .unwrap_or(false);
            if !exists {
                extend(body, lit_idx + 1, db, restrict, binding, emit)?;
            }
            Ok(())
        }
        Literal::Cmp(l, op, r) => {
            let lv = resolve_term(l, binding)?;
            let rv = resolve_term(r, binding)?;
            if op.eval(&lv, &rv) {
                extend(body, lit_idx + 1, db, restrict, binding, emit)?;
            }
            Ok(())
        }
    }
}

/// Computes one aggregate over a non-empty set of distinct values.
fn apply_aggregate(func: AggFunc, values: &BTreeSet<Const>, rule: &Rule) -> Result<Const> {
    debug_assert!(!values.is_empty(), "groups exist only for matched bindings");
    match func {
        AggFunc::Count => Ok(Const::Int(values.len() as i64)),
        AggFunc::Sum => {
            let mut total = 0i64;
            for v in values {
                match v {
                    Const::Int(i) => total += i,
                    Const::Str(s) => {
                        return Err(CrowdError::Semantic(format!(
                            "sum over non-integer value \"{s}\" in {rule}"
                        )))
                    }
                }
            }
            Ok(Const::Int(total))
        }
        AggFunc::Min => Ok(values.iter().min().expect("non-empty").clone()), // crowdkit-lint: allow(PANIC001) — aggregate groups exist only for matched (non-empty) bindings
        AggFunc::Max => Ok(values.iter().max().expect("non-empty").clone()), // crowdkit-lint: allow(PANIC001) — aggregate groups exist only for matched (non-empty) bindings
    }
}

fn resolve_term(t: &Term, binding: &HashMap<String, Const>) -> Result<Const> {
    match t {
        Term::Const(c) => Ok(c.clone()),
        Term::Var(v) => binding
            .get(v)
            .cloned()
            .ok_or_else(|| CrowdError::Semantic(format!("unbound variable {v} in comparison"))),
        Term::Wildcard => Err(CrowdError::Semantic(
            "wildcard not allowed in comparison".into(),
        )),
    }
}

/// Safety validation of one rule.
fn validate_rule(rule: &Rule, crowd_preds: &BTreeMap<String, usize>) -> Result<()> {
    if rule.body.is_empty() {
        if !rule.head.args.iter().all(|t| matches!(t, Term::Const(_))) {
            return Err(CrowdError::Semantic(format!(
                "fact {} must be ground",
                rule.head
            )));
        }
        if let Some(&arity) = crowd_preds.get(&rule.head.predicate) {
            if rule.head.arity() != arity {
                return Err(CrowdError::Semantic(format!(
                    "fact {} has arity {} but crowd predicate '{}' is declared /{arity}",
                    rule.head,
                    rule.head.arity(),
                    rule.head.predicate
                )));
            }
        }
        return Ok(());
    }
    if crowd_preds.contains_key(&rule.head.predicate) {
        return Err(CrowdError::Semantic(format!(
            "crowd predicate '{}' may not be derived by rules",
            rule.head.predicate
        )));
    }

    // Variables bound by positive atoms.
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for lit in &rule.body {
        if let Literal::Pos(a) = lit {
            for v in a.variables() {
                bound.insert(v);
            }
        }
    }
    for v in rule.head.variables() {
        if !bound.contains(v) {
            return Err(CrowdError::Semantic(format!(
                "unsafe rule: head variable {v} not bound by a positive body atom in {rule}"
            )));
        }
    }
    for slot in &rule.aggregates {
        if !bound.contains(slot.var.as_str()) {
            return Err(CrowdError::Semantic(format!(
                "unsafe aggregate: variable {} not bound by a positive body atom in {rule}",
                slot.var
            )));
        }
        if rule.head.variables().contains(&slot.var.as_str()) {
            return Err(CrowdError::Semantic(format!(
                "aggregate variable {} may not also be a group-by variable in {rule}",
                slot.var
            )));
        }
    }
    if rule.aggregates.is_empty() && rule.head.args.iter().any(|t| matches!(t, Term::Wildcard)) {
        return Err(CrowdError::Semantic(format!(
            "wildcard in rule head: {rule}"
        )));
    }
    for lit in &rule.body {
        match lit {
            Literal::Neg(a) => {
                for v in a.variables() {
                    if !bound.contains(v) {
                        return Err(CrowdError::Semantic(format!(
                            "unsafe negation: variable {v} not bound by a positive atom in {rule}"
                        )));
                    }
                }
            }
            Literal::Cmp(l, _, r) => {
                for t in [l, r] {
                    if let Term::Var(v) = t {
                        if !bound.contains(v.as_str()) {
                            return Err(CrowdError::Semantic(format!(
                                "unsafe comparison: variable {v} not bound by a positive atom in {rule}"
                            )));
                        }
                    }
                    if matches!(t, Term::Wildcard) {
                        return Err(CrowdError::Semantic(format!(
                            "wildcard not allowed in comparison in {rule}"
                        )));
                    }
                }
            }
            Literal::Pos(_) => {}
        }
    }
    Ok(())
}

/// Computes the stratum of each IDB predicate; errors if negation occurs
/// through a cycle.
fn stratify(program: &Program) -> Result<HashMap<String, usize>> {
    let mut preds: BTreeSet<&str> = BTreeSet::new();
    for rule in program.rules() {
        preds.insert(&rule.head.predicate);
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => {
                    preds.insert(&a.predicate);
                }
                Literal::Cmp(..) => {}
            }
        }
    }
    let mut stratum: HashMap<String, usize> = preds.iter().map(|p| ((*p).to_owned(), 0)).collect();
    let n = preds.len().max(1);

    for round in 0..=(n * n) {
        let mut changed = false;
        for rule in program.rules() {
            let head_s = stratum[&rule.head.predicate];
            let mut need = head_s;
            // Aggregation, like negation, must see its inputs complete:
            // every body predicate of an aggregate rule sits strictly below.
            let agg_bump = usize::from(!rule.aggregates.is_empty());
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => need = need.max(stratum[&a.predicate] + agg_bump),
                    Literal::Neg(a) => need = need.max(stratum[&a.predicate] + 1),
                    Literal::Cmp(..) => {}
                }
            }
            if need > head_s {
                stratum.insert(rule.head.predicate.clone(), need);
                changed = true;
            }
        }
        if !changed {
            return Ok(stratum);
        }
        if round == n * n {
            break;
        }
    }
    Err(CrowdError::Semantic(
        "program is not stratifiable: negation through recursion".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::resolver::{NullResolver, TableResolver};

    fn run(src: &str) -> Database {
        let program = parse_program(src).unwrap();
        let engine = Engine::new(program).unwrap();
        let (db, _) = engine.run(&mut NullResolver).unwrap();
        db
    }

    fn s(x: &str) -> Const {
        Const::Str(x.into())
    }

    #[test]
    fn transitive_closure() {
        let db = run(r#"
            edge("a", "b"). edge("b", "c"). edge("c", "d").
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
        "#);
        assert_eq!(db.len("path"), 6);
        assert!(db.contains("path", &[s("a"), s("d")]));
        assert!(!db.contains("path", &[s("d"), s("a")]));
    }

    #[test]
    fn stratified_negation() {
        let db = run(r#"
            node("a"). node("b"). node("c").
            edge("a", "b").
            has_out(X) :- edge(X, _).
            sink(X) :- node(X), not has_out(X).
        "#);
        assert_eq!(db.relation("sink"), vec![vec![s("b")], vec![s("c")]]);
    }

    #[test]
    fn comparisons_filter() {
        let db = run(r#"
            score("x", 10). score("y", 3). score("z", 10).
            high(N) :- score(N, S), S >= 10.
            pairs(A, B) :- score(A, S), score(B, S), A < B.
        "#);
        assert_eq!(db.relation("high"), vec![vec![s("x")], vec![s("z")]]);
        assert_eq!(db.relation("pairs"), vec![vec![s("x"), s("z")]]);
    }

    #[test]
    fn unstratifiable_program_rejected() {
        let program = parse_program(
            r#"
            p(X) :- q(X), not r(X).
            r(X) :- q(X), not p(X).
            q("a").
        "#,
        )
        .unwrap();
        assert!(matches!(Engine::new(program), Err(CrowdError::Semantic(_))));
    }

    #[test]
    fn unsafe_rules_rejected() {
        for src in [
            r#"p(X) :- q(Y)."#,           // head var unbound
            r#"p(X) :- q(X), not r(Y)."#, // negated var unbound
            r#"p(X) :- q(X), Y > 1."#,    // comparison var unbound
            r#"p(X)."#,                   // non-ground fact
        ] {
            let program = parse_program(src).unwrap();
            assert!(Engine::new(program).is_err(), "should reject: {src}");
        }
    }

    #[test]
    fn crowd_head_rejected() {
        let program = parse_program(
            r#"
            @crowd c/1.
            c(X) :- p(X).
        "#,
        )
        .unwrap();
        assert!(Engine::new(program).is_err());
    }

    #[test]
    fn crowd_fetch_fills_missing_values() {
        let program = parse_program(
            r#"
            restaurant("joes"). restaurant("moes").
            @crowd city_of/2.
            located(R, C) :- restaurant(R), city_of(R, C).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let mut resolver = TableResolver::new();
        resolver.insert("city_of", vec![s("joes"), s("tokyo")]);
        resolver.insert("city_of", vec![s("moes"), s("osaka")]);
        let (db, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(db.len("located"), 2);
        assert!(db.contains("located", &[s("joes"), s("tokyo")]));
        assert_eq!(stats.fetches, 2, "one fetch per restaurant");
        assert_eq!(stats.crowd_tuples, 2);
        // Cache prevents refetching across fixpoint iterations.
        assert!(stats.fetch_cache_hits > 0 || stats.fetches == 2);
    }

    #[test]
    fn fetch_cache_prevents_duplicate_asks() {
        let program = parse_program(
            r#"
            r("a"). r("b").
            @crowd v/2.
            out1(X, V) :- r(X), v(X, V).
            out2(X, V) :- r(X), v(X, V), V != "none".
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let mut resolver = TableResolver::new();
        resolver.insert("v", vec![s("a"), s("x")]);
        resolver.insert("v", vec![s("b"), s("y")]);
        let (_, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(
            stats.fetches, 2,
            "two bindings, each fetched once across both rules"
        );
    }

    #[test]
    fn fetch_budget_caps_crowd_spend() {
        let program = parse_program(
            r#"
            r("a"). r("b"). r("c"). r("d").
            @crowd v/2.
            out(X, V) :- r(X), v(X, V).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap().with_config(EngineConfig {
            max_fetches: 2,
            max_iterations: 100,
            semi_naive: true,
        });
        let mut resolver = TableResolver::new();
        for x in ["a", "b", "c", "d"] {
            resolver.insert("v", vec![s(x), s("val")]);
        }
        let (db, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(stats.fetches, 2);
        assert_eq!(db.len("out"), 2, "only fetched bindings produce output");
    }

    /// Records every fetch in call order and answers nothing.
    #[derive(Default)]
    struct RecordingResolver {
        calls: Vec<(String, Vec<(usize, Const)>)>,
    }

    impl CrowdResolver for RecordingResolver {
        fn resolve(
            &mut self,
            predicate: &str,
            bound: &[(usize, Const)],
            _free_pos: usize,
            _arity: usize,
        ) -> Result<Vec<Const>> {
            self.calls.push((predicate.to_owned(), bound.to_vec()));
            Ok(Vec::new())
        }

        fn questions_asked(&self) -> u64 {
            0
        }
    }

    #[test]
    fn fetches_are_issued_in_sorted_binding_order() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("item({i}). label(\"l{i}\").\n"));
        }
        src.push_str("@crowd v/2. @crowd w/2.\n");
        src.push_str("a(X, V) :- item(X), v(X, V).\nb(L, V) :- label(L), w(L, V).\n");
        let fetch_order = |max_fetches: usize| {
            let engine = Engine::new(parse_program(&src).unwrap())
                .unwrap()
                .with_config(EngineConfig {
                    max_fetches,
                    ..EngineConfig::default()
                });
            let mut resolver = RecordingResolver::default();
            engine.run(&mut resolver).unwrap();
            resolver.calls
        };
        // Two engines, two databases, two sets of hash seeds.
        let first = fetch_order(1000);
        assert_eq!(first, fetch_order(1000));
        assert_eq!(first.len(), 100);
        let v: Vec<_> = first
            .iter()
            .filter(|(p, _)| p == "v")
            .map(|(_, b)| b.clone())
            .collect();
        let want: Vec<_> = (0..50).map(|i| vec![(0, Const::Int(i))]).collect();
        assert_eq!(v, want, "ascending bound order");
        // A fetch cap keeps the same (smallest) bindings every run.
        let capped = fetch_order(5);
        assert_eq!(capped, fetch_order(5));
        assert_eq!(capped, first[..5]);
    }

    #[test]
    fn crowd_predicate_facts_preempt_fetches() {
        let program = parse_program(
            r#"
            r("a").
            @crowd v/2.
            v("a", "known").
            out(X, V) :- r(X), v(X, V).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let mut resolver = TableResolver::new();
        resolver.insert("v", vec![s("a"), s("crowdval")]);
        let (db, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(stats.fetches, 0, "stored tuple suppresses the fetch");
        assert!(db.contains("out", &[s("a"), s("known")]));
    }

    #[test]
    fn fetch_with_selection_after_join() {
        // Only tokyo restaurants surface, but every restaurant is fetched
        // (the filter runs after the fetch — machine-first ordering is the
        // optimizer's job, tested in crowdkit-sql).
        let program = parse_program(
            r#"
            restaurant("joes"). restaurant("moes").
            @crowd city_of/2.
            in_tokyo(R) :- restaurant(R), city_of(R, C), C = "tokyo".
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let mut resolver = TableResolver::new();
        resolver.insert("city_of", vec![s("joes"), s("tokyo")]);
        resolver.insert("city_of", vec![s("moes"), s("osaka")]);
        let (db, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(db.relation("in_tokyo"), vec![vec![s("joes")]]);
        assert_eq!(stats.fetches, 2);
    }

    #[test]
    fn recursion_with_crowd_predicate_is_bounded_by_cache() {
        // The crowd supplies successor edges; recursion walks them. The
        // fetch cache (plus budget) keeps evaluation finite.
        let program = parse_program(
            r#"
            start("n0").
            @crowd next/2.
            reach(X) :- start(X).
            reach(Y) :- reach(X), next(X, Y).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap().with_config(EngineConfig {
            max_fetches: 10,
            max_iterations: 1000,
            semi_naive: true,
        });
        let mut resolver = TableResolver::new();
        for i in 0..3 {
            resolver.insert("next", vec![s(&format!("n{i}")), s(&format!("n{}", i + 1))]);
        }
        let (db, stats) = engine.run(&mut resolver).unwrap();
        // n0..n3 reachable; fetch for n3 returns nothing and is cached.
        assert_eq!(db.len("reach"), 4);
        assert_eq!(stats.fetches, 4);
    }

    #[test]
    fn empty_relation_queries_are_empty() {
        let db = run(r#"p("a")."#);
        assert!(db.relation("missing").is_empty());
        assert_eq!(db.len("missing"), 0);
    }

    #[test]
    fn duplicate_crowd_decl_rejected() {
        let program = parse_program("@crowd v/2.\n@crowd v/2.").unwrap();
        assert!(Engine::new(program).is_err());
    }

    #[test]
    fn crowd_arity_mismatch_rejected_at_run() {
        let program = parse_program(
            r#"
            r("a").
            @crowd v/3.
            out(X, V) :- r(X), v(X, V).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let err = engine.run(&mut NullResolver).unwrap_err();
        assert!(matches!(err, CrowdError::Semantic(_)));
    }

    #[test]
    fn crowd_fact_arity_mismatch_rejected_at_new() {
        // Were it stored, the one-column `v` fact would reach the fetch's
        // stored-match check, which reads the bound second column.
        let program = parse_program(
            r#"
            r("a").
            @crowd v/2.
            v("a").
            out(X, V) :- r(V), v(X, V).
        "#,
        )
        .unwrap();
        let err = Engine::new(program).unwrap_err();
        assert!(matches!(err, CrowdError::Semantic(_)), "{err:?}");
    }

    #[test]
    fn same_generation_classic() {
        let db = run(r#"
            flat("a", "b"). flat("c", "d").
            up("x", "a"). up("y", "c").
            down("b", "p"). down("d", "q").
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).
        "#);
        assert!(db.contains("sg", &[s("x"), s("p")]));
        assert!(db.contains("sg", &[s("y"), s("q")]));
        assert!(!db.contains("sg", &[s("x"), s("q")]));
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::resolver::{NullResolver, TableResolver};

    fn run(src: &str) -> Database {
        let engine = Engine::new(parse_program(src).unwrap()).unwrap();
        engine.run(&mut NullResolver).unwrap().0
    }

    fn s(x: &str) -> Const {
        Const::Str(x.into())
    }
    fn i(x: i64) -> Const {
        Const::Int(x)
    }

    #[test]
    fn count_groups_by_head_variables_with_set_semantics() {
        let db = run(r#"
            order("ada", 1). order("ada", 2). order("ada", 2). order("bob", 9).
            total(C, count<O>) :- order(C, O).
        "#);
        // Duplicate fact order("ada", 2) collapses under set semantics.
        assert_eq!(
            db.relation("total"),
            vec![vec![s("ada"), i(2)], vec![s("bob"), i(1)]]
        );
    }

    #[test]
    fn sum_min_max_over_distinct_values() {
        let db = run(r#"
            score("t1", 10). score("t1", 30). score("t2", 5).
            stats(T, sum<S>, min<S>, max<S>) :- score(T, S).
        "#);
        assert_eq!(
            db.relation("stats"),
            vec![
                vec![s("t1"), i(40), i(10), i(30)],
                vec![s("t2"), i(5), i(5), i(5)],
            ]
        );
    }

    #[test]
    fn aggregates_marginalize_non_grouped_body_variables() {
        // Count distinct cities per person, ignoring the year variable.
        let db = run(r#"
            visit("ada", "tokyo", 2019). visit("ada", "tokyo", 2021).
            visit("ada", "osaka", 2020).
            cities(P, count<C>) :- visit(P, C, _).
        "#);
        assert_eq!(db.relation("cities"), vec![vec![s("ada"), i(2)]]);
    }

    #[test]
    fn downstream_rules_consume_aggregates() {
        let db = run(r#"
            edge("a", "b"). edge("a", "c"). edge("b", "c").
            degree(X, count<Y>) :- edge(X, Y).
            hub(X) :- degree(X, D), D >= 2.
        "#);
        assert_eq!(db.relation("hub"), vec![vec![s("a")]]);
    }

    #[test]
    fn aggregate_over_crowd_fetched_tuples() {
        let program = parse_program(
            r#"
            item("x"). item("y").
            @crowd rating/2.
            rated(I, R) :- item(I), rating(I, R).
            n_rated(count<I>) :- rated(I, _).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        let mut resolver = TableResolver::new();
        resolver.insert("rating", vec![s("x"), i(4)]);
        resolver.insert("rating", vec![s("y"), i(5)]);
        let (db, stats) = engine.run(&mut resolver).unwrap();
        assert_eq!(db.relation("n_rated"), vec![vec![i(2)]]);
        assert_eq!(stats.fetches, 2);
    }

    #[test]
    fn empty_groups_produce_no_tuples() {
        let db = run(r#"
            p("a").
            c(count<X>) :- q(X).
        "#);
        assert!(
            db.relation("c").is_empty(),
            "no matching bindings → no groups"
        );
    }

    #[test]
    fn sum_over_strings_is_rejected() {
        let program = parse_program(
            r#"
            p("a", "oops").
            t(X, sum<Y>) :- p(X, Y).
        "#,
        )
        .unwrap();
        let engine = Engine::new(program).unwrap();
        assert!(matches!(
            engine.run(&mut NullResolver).unwrap_err(),
            CrowdError::Semantic(_)
        ));
    }

    #[test]
    fn recursion_through_aggregation_is_rejected() {
        let program = parse_program(
            r#"
            base("a", 1).
            p(X, Y) :- base(X, Y).
            p(X, C) :- t(X, C).
            t(X, count<Y>) :- p(X, Y).
        "#,
        )
        .unwrap();
        assert!(matches!(Engine::new(program), Err(CrowdError::Semantic(_))));
    }

    #[test]
    fn aggregate_variable_must_be_bound() {
        let program = parse_program(
            r#"
            p("a").
            t(X, count<Y>) :- p(X).
        "#,
        )
        .unwrap();
        assert!(Engine::new(program).is_err());
    }

    #[test]
    fn aggregate_variable_cannot_be_grouped() {
        let program = parse_program(
            r#"
            p("a", 1).
            t(Y, count<Y>) :- p(_, Y).
        "#,
        )
        .unwrap();
        assert!(Engine::new(program).is_err());
    }

    #[test]
    fn aggregate_fact_is_rejected_at_parse() {
        assert!(parse_program("t(count<Y>).").is_err());
    }

    #[test]
    fn aggregate_rules_pretty_print_and_reparse() {
        let src = "stats(T, sum<S>, min<S>, max<S>) :- score(T, S).\n";
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "printed:\n{printed}");
    }

    #[test]
    fn semi_naive_and_naive_agree_on_aggregates() {
        let src = r#"
            edge("a", "b"). edge("b", "c"). edge("a", "c"). edge("c", "d").
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            reach(X, count<Y>) :- path(X, Y).
        "#;
        let program = parse_program(src).unwrap();
        let run_mode = |semi_naive: bool| {
            let engine = Engine::new(program.clone())
                .unwrap()
                .with_config(EngineConfig {
                    semi_naive,
                    ..EngineConfig::default()
                });
            engine.run(&mut NullResolver).unwrap().0.relation("reach")
        };
        let semi = run_mode(true);
        assert_eq!(semi, run_mode(false));
        assert_eq!(
            semi,
            vec![vec![s("a"), i(3)], vec![s("b"), i(2)], vec![s("c"), i(1)],]
        );
    }
}
