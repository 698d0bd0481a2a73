//! Abstract syntax for crowd-Datalog programs.

use std::fmt;

/// A constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(String),
}

impl Const {
    /// String form without quoting (for prompts).
    pub fn display_raw(&self) -> String {
        match self {
            Const::Int(i) => i.to_string(),
            Const::Str(s) => s.clone(),
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(i) => write!(f, "{i}"),
            Const::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

/// A term: a variable, a constant, or the anonymous wildcard `_`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named variable (`X`, `City`).
    Var(String),
    /// A constant.
    Const(Const),
    /// The wildcard `_`: matches anything, binds nothing.
    Wildcard,
}

impl Term {
    /// Shorthand for a string constant term.
    pub fn str(s: impl Into<String>) -> Self {
        Term::Const(Const::Str(s.into()))
    }

    /// Shorthand for an integer constant term.
    pub fn int(i: i64) -> Self {
        Term::Const(Const::Int(i))
    }

    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// True if this term is a variable or wildcard.
    pub fn is_free(&self) -> bool {
        matches!(self, Term::Var(_) | Term::Wildcard)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Wildcard => write!(f, "_"),
        }
    }
}

/// A predicate applied to terms: `parent(X, "bob")`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate name.
    pub predicate: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(predicate: impl Into<String>, args: Vec<Term>) -> Self {
        Self {
            predicate: predicate.into(),
            args,
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Variables appearing in the atom, in order of first appearance.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = Vec::new();
        for t in &self.args {
            if let Term::Var(v) = t {
                if !vars.contains(&v.as_str()) {
                    vars.push(v.as_str());
                }
            }
        }
        vars
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators usable in rule bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on two constants. Ordering comparisons
    /// require both sides to be the same variant; mixed types are false
    /// except for (in)equality, which compares structurally.
    pub fn eval(self, a: &Const, b: &Const) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match (a, b) {
                (Const::Int(x), Const::Int(y)) => match self {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    _ => unreachable!(),
                },
                (Const::Str(x), Const::Str(y)) => match self {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    _ => unreachable!(),
                },
                _ => false,
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A body literal: a (possibly negated) atom, or a comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom (`not p(X)`).
    Neg(Atom),
    /// A comparison between two terms.
    Cmp(Term, CmpOp, Term),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

/// Aggregate functions usable in rule heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of distinct values.
    Count,
    /// Sum of distinct integer values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// One aggregated head position: `total(X, count<Y>)` has an `AggSlot`
/// at position 1 aggregating variable `Y`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSlot {
    /// Index in the head's argument list (the corresponding `head.args`
    /// entry is a placeholder wildcard).
    pub pos: usize,
    /// The aggregate function.
    pub func: AggFunc,
    /// The body variable being aggregated.
    pub var: String,
}

/// A rule `head :- body` (facts are rules with an empty body and ground
/// head). Aggregate rules additionally carry [`AggSlot`]s; aggregation is
/// over the *set* of distinct bindings (Datalog set semantics), grouped by
/// the head's non-aggregate arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The derived atom. Aggregated positions hold [`Term::Wildcard`]
    /// placeholders; see [`Rule::aggregates`].
    pub head: Atom,
    /// The conditions; empty for facts.
    pub body: Vec<Literal>,
    /// Aggregated head positions (empty for ordinary rules).
    pub aggregates: Vec<AggSlot>,
}

impl Rule {
    /// True if this rule is a ground fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.head.args.iter().all(|t| matches!(t, Term::Const(_)))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head.predicate)?;
        for (i, a) in self.head.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match self.aggregates.iter().find(|s| s.pos == i) {
                Some(slot) => write!(f, "{}<{}>", slot.func, slot.var)?,
                None => write!(f, "{a}")?,
            }
        }
        write!(f, ")")?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A top-level program item.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// A fact or rule.
    Rule(Rule),
    /// A crowd-predicate declaration `@crowd name/arity.`.
    CrowdDecl {
        /// Declared predicate name.
        predicate: String,
        /// Declared arity.
        arity: usize,
    },
}

/// A parsed program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Items in source order.
    pub clauses: Vec<Clause>,
}

impl Program {
    /// All rules (including facts), in source order.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.clauses.iter().filter_map(|c| match c {
            Clause::Rule(r) => Some(r),
            _ => None,
        })
    }

    /// Declared crowd predicates as `(name, arity)`.
    pub fn crowd_predicates(&self) -> Vec<(&str, usize)> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::CrowdDecl { predicate, arity } => Some((predicate.as_str(), *arity)),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.clauses {
            match c {
                Clause::Rule(r) => writeln!(f, "{r}")?,
                Clause::CrowdDecl { predicate, arity } => {
                    writeln!(f, "@crowd {predicate}/{arity}.")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_display_quotes_strings() {
        assert_eq!(Const::Int(42).to_string(), "42");
        assert_eq!(Const::Str("bob".into()).to_string(), "\"bob\"");
        assert_eq!(
            Const::Str("say \"hi\"".into()).to_string(),
            "\"say \\\"hi\\\"\""
        );
    }

    #[test]
    fn atom_variables_dedup_in_order() {
        let a = Atom::new(
            "p",
            vec![
                Term::var("X"),
                Term::str("c"),
                Term::var("Y"),
                Term::var("X"),
            ],
        );
        assert_eq!(a.variables(), vec!["X", "Y"]);
        assert_eq!(a.arity(), 4);
    }

    #[test]
    fn cmp_eval_semantics() {
        let i = |x| Const::Int(x);
        assert!(CmpOp::Lt.eval(&i(1), &i(2)));
        assert!(!CmpOp::Lt.eval(&i(2), &i(1)));
        assert!(CmpOp::Ne.eval(&i(1), &Const::Str("1".into())));
        assert!(!CmpOp::Eq.eval(&i(1), &Const::Str("1".into())));
        // Ordering across types is false.
        assert!(!CmpOp::Lt.eval(&i(1), &Const::Str("z".into())));
        let s = |x: &str| Const::Str(x.into());
        assert!(CmpOp::Le.eval(&s("a"), &s("b")));
        assert!(CmpOp::Ge.eval(&s("b"), &s("b")));
    }

    #[test]
    fn rule_display_round_shape() {
        let r = Rule {
            head: Atom::new("ancestor", vec![Term::var("X"), Term::var("Z")]),
            body: vec![
                Literal::Pos(Atom::new("parent", vec![Term::var("X"), Term::var("Y")])),
                Literal::Pos(Atom::new("ancestor", vec![Term::var("Y"), Term::var("Z")])),
            ],
            aggregates: vec![],
        };
        assert_eq!(
            r.to_string(),
            "ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z)."
        );
    }

    #[test]
    fn fact_detection() {
        let fact = Rule {
            head: Atom::new("p", vec![Term::str("a")]),
            body: vec![],
            aggregates: vec![],
        };
        assert!(fact.is_fact());
        let open_head = Rule {
            head: Atom::new("p", vec![Term::var("X")]),
            body: vec![],
            aggregates: vec![],
        };
        assert!(!open_head.is_fact());
    }

    #[test]
    fn program_accessors() {
        let p = Program {
            clauses: vec![
                Clause::CrowdDecl {
                    predicate: "city_of".into(),
                    arity: 2,
                },
                Clause::Rule(Rule {
                    head: Atom::new("p", vec![Term::str("a")]),
                    body: vec![],
                    aggregates: vec![],
                }),
            ],
        };
        assert_eq!(p.crowd_predicates(), vec![("city_of", 2)]);
        assert_eq!(p.rules().count(), 1);
    }
}
