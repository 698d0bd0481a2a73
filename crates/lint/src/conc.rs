//! The CONC rule family: concurrency hazards around locks and atomics.
//!
//! The `SimulatedCrowd` state `Mutex` and the `Session` `RwLock` are
//! exactly the surfaces the planned `crowdkitd` service front-end will
//! multiply. Three rules, all best-effort over guard *scopes* (a guard's
//! scope runs from its acquisition to the end of its enclosing block, an
//! explicit `drop(guard)`, or — for un-bound temporaries — the end of the
//! statement):
//!
//! * **CONC001** — lock-ordering cycle detection. Every "guard of A held
//!   while B is acquired" (directly, or through a resolved call into a
//!   lock-acquiring function) is an edge A→B in a workspace-wide
//!   acquisition graph; any strongly-connected component is a potential
//!   deadlock and is reported with the acquisition sites of every edge.
//! * **CONC002** — atomic `Ordering` audit: `SeqCst` mixed with weaker
//!   orderings on the same field without a reasoned `// ORDERING:`
//!   comment.
//! * **CONC003** — a guard held across a call into `&dyn CrowdOracle`
//!   (`ask`/`ask_one`/`ask_batch`/`ask_many` — crowd I/O under a lock) or
//!   into a function that (transitively) acquires a lock itself.
//!
//! Lock identity is `crate::receiver-name` — syntactic, not aliased; two
//! fields with one name in one crate collapse, distinct names never
//! match. Good enough to order-check real codebases, cheap enough to run
//! per commit.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::rules::Finding;
use crate::symbols::{FileUnit, Resolution, SymbolTable};

/// CrowdOracle's blocking crowd-I/O surface (method-call names).
const ORACLE_METHODS: [&str; 4] = ["ask", "ask_one", "ask_batch", "ask_many"];

/// Zero-argument guard constructors.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Atomic read-modify-write / load / store method names.
const ATOMIC_METHODS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// The five memory orderings.
const MEM_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn punct_is(t: &Token, c: char) -> bool {
    matches!(&t.tok, Tok::Punct(p) if *p == c)
}

fn ident_of(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(w) => Some(w),
        _ => None,
    }
}

/// One lock acquisition and the token range its guard is live for.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Workspace-wide lock identity: `crate::receiver-name`.
    pub key: String,
    /// Receiver name as written (`core`, `shard_for()`, …).
    pub name: String,
    /// `lock`/`read`/`write`.
    pub method: String,
    /// Token index of the method name.
    pub tok: usize,
    /// Acquisition line.
    pub line: u32,
    /// Last token index at which the guard is (conservatively) live.
    pub scope_end: usize,
    /// True when bound with `let` (scope = enclosing block), false for
    /// statement-scoped temporaries.
    pub let_bound: bool,
}

/// Per-function lock facts for the workspace pass.
#[derive(Debug, Default, Clone)]
pub struct FnLocks {
    /// Acquisitions in token order.
    pub acqs: Vec<Acquisition>,
}

/// Extracts the receiver name for a method call at `dot` (the `.` token):
/// the identifier immediately before, or `name()` for call results
/// (`self.shard_for(task).lock()` → `shard_for()`), or `name` behind an
/// index (`self.shards[i]` → `shards`), descending through tuple-field
/// digits (`s.0.fetch_add` → `s`).
fn receiver_name(tokens: &[Token], dot: usize) -> String {
    let mut i = dot;
    loop {
        if i == 0 {
            return "<expr>".to_owned();
        }
        let prev = i - 1;
        match &tokens[prev].tok {
            Tok::Ident(w) => return w.clone(),
            Tok::Num(_) => {
                // Tuple field: step over `0` and the `.` before it.
                if prev >= 2 && punct_is(&tokens[prev - 1], '.') {
                    i = prev - 1;
                    continue;
                }
                return "<expr>".to_owned();
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                let (open, close) = if punct_is(&tokens[prev], ')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0i32;
                let mut j = prev;
                loop {
                    if punct_is(&tokens[j], close) {
                        depth += 1;
                    } else if punct_is(&tokens[j], open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return "<expr>".to_owned();
                    }
                    j -= 1;
                }
                if j >= 1 {
                    if let Some(w) = ident_of(&tokens[j - 1]) {
                        return if close == ')' {
                            format!("{w}()")
                        } else {
                            w.to_owned()
                        };
                    }
                }
                return "<expr>".to_owned();
            }
            _ => return "<expr>".to_owned(),
        }
    }
}

/// Token index where the statement containing `at` begins (one past the
/// previous `;`/`{`/`}`, searching backwards without depth tracking —
/// good enough to see a leading `let`).
fn statement_start(tokens: &[Token], at: usize) -> usize {
    let mut i = at;
    while i > 0 {
        let prev = &tokens[i - 1];
        if punct_is(prev, ';') || punct_is(prev, '{') || punct_is(prev, '}') {
            break;
        }
        i -= 1;
    }
    i
}

/// Innermost `{` enclosing each token, via a running stack.
fn enclosing_opens(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        out[i] = stack.last().copied();
        if punct_is(t, '{') {
            stack.push(i);
        } else if punct_is(t, '}') {
            stack.pop();
        }
    }
    out
}

/// Extracts every guard acquisition in one file, attributed to functions
/// by the caller.
pub fn file_acquisitions(unit: &FileUnit, crate_name: &str) -> Vec<Acquisition> {
    let tokens = &unit.lexed.tokens;
    let enclosing = enclosing_opens(tokens);
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // `. lock ( )` / `. read ( )` / `. write ( )` — zero-arg only, so
        // `file.write(buf)` and `reader.read(n)` never match.
        if !punct_is(&tokens[i], '.') {
            continue;
        }
        let Some(method) = tokens.get(i + 1).and_then(ident_of) else {
            continue;
        };
        if !LOCK_METHODS.contains(&method) {
            continue;
        }
        if !(tokens.get(i + 2).is_some_and(|t| punct_is(t, '('))
            && tokens.get(i + 3).is_some_and(|t| punct_is(t, ')')))
        {
            continue;
        }
        let name = receiver_name(tokens, i);
        let key = format!("{crate_name}::{name}");
        let mtok = i + 1;
        // `let`-bound? The statement opens with `let` (or `if let` /
        // `while let`, whose guard lives for the following block — treat
        // as let-bound with the block that follows).
        let stmt = statement_start(tokens, i);
        let let_bound = tokens
            .get(stmt)
            .and_then(ident_of)
            .is_some_and(|w| w == "let")
            || tokens
                .get(stmt)
                .and_then(ident_of)
                .is_some_and(|w| w == "if" || w == "while")
                && tokens
                    .get(stmt + 1)
                    .and_then(ident_of)
                    .is_some_and(|w| w == "let");
        let mut scope_end = if let_bound {
            match enclosing[i].and_then(|open| unit.analysis.brace_match[open]) {
                Some(close) => close,
                None => tokens.len().saturating_sub(1),
            }
        } else {
            // Temporary: held to the end of the statement.
            let mut j = i;
            let mut depth = 0i32;
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    Tok::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            j.min(tokens.len().saturating_sub(1))
        };
        // Explicit `drop ( guard )` shortens a let-bound scope. The guard
        // name is the identifier after `let [mut]`.
        if let_bound {
            let mut g = stmt + 1;
            while tokens
                .get(g)
                .and_then(ident_of)
                .is_some_and(|w| w == "let" || w == "mut" || w == "if" || w == "while")
            {
                g += 1;
            }
            if let Some(guard) = tokens.get(g).and_then(ident_of) {
                let mut j = i;
                while j + 3 <= scope_end {
                    if tokens.get(j).and_then(ident_of) == Some("drop")
                        && tokens.get(j + 1).is_some_and(|t| punct_is(t, '('))
                        && tokens.get(j + 2).and_then(ident_of) == Some(guard)
                        && tokens.get(j + 3).is_some_and(|t| punct_is(t, ')'))
                    {
                        scope_end = j;
                        break;
                    }
                    j += 1;
                }
            }
        }
        out.push(Acquisition {
            key,
            name,
            method: method.to_owned(),
            tok: mtok,
            line: tokens[mtok].line,
            scope_end,
            let_bound,
        });
    }
    out
}

/// A lock-acquisition site for reporting: `file:line`.
type Site = (String, u32);

/// Workspace lock model: per-fn acquisitions plus the transitive
/// may-acquire set per function.
pub struct LockModel {
    /// Acquisitions per function id, token-ordered.
    pub per_fn: Vec<FnLocks>,
    /// Transitive may-acquire per function id: lock key → first site.
    pub may_acquire: Vec<BTreeMap<String, Site>>,
}

impl LockModel {
    /// Builds the model: attributes file acquisitions to functions, then
    /// closes may-acquire over the resolved call graph to a fixpoint.
    pub fn build(units: &[FileUnit], table: &SymbolTable) -> Self {
        let mut per_fn = vec![FnLocks::default(); table.fns.len()];
        for (u, unit) in units.iter().enumerate() {
            let crate_name = unit.crate_name.clone();
            for acq in file_acquisitions(unit, &crate_name) {
                if let Some(fid) = table.fn_at(u, acq.tok) {
                    per_fn[fid].acqs.push(acq);
                }
            }
        }
        let mut may_acquire: Vec<BTreeMap<String, Site>> = table
            .fns
            .iter()
            .map(|f| {
                per_fn[f.id]
                    .acqs
                    .iter()
                    .map(|a| (a.key.clone(), (f.file.clone(), a.line)))
                    .collect()
            })
            .collect();
        // Fixpoint: caller inherits callee's may-acquire set.
        let mut changed = true;
        let mut rounds = 0usize;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for c in &table.calls {
                let Resolution::Resolved(callee) = c.resolution else {
                    continue;
                };
                if callee == c.caller {
                    continue;
                }
                let inherited: Vec<(String, Site)> = may_acquire[callee]
                    .iter()
                    .filter(|(k, _)| !may_acquire[c.caller].contains_key(*k))
                    .map(|(k, s)| (k.clone(), s.clone()))
                    .collect();
                if !inherited.is_empty() {
                    changed = true;
                    may_acquire[c.caller].extend(inherited);
                }
            }
        }
        LockModel {
            per_fn,
            may_acquire,
        }
    }
}

/// Runs the CONC rules; `want` filters by rule id.
pub fn run(
    units: &[FileUnit],
    table: &SymbolTable,
    want: impl Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    let model = LockModel::build(units, table);
    if want("CONC001") {
        conc001(units, table, &model, out);
    }
    if want("CONC002") {
        conc002(units, out);
    }
    if want("CONC003") {
        conc003(units, table, &model, out);
    }
}

// ---------------------------------------------------------------- CONC001

/// Builds the acquisition-order edge set: `(A, B) → (site of A, site of
/// B)`, first witness wins.
fn order_edges(
    units: &[FileUnit],
    table: &SymbolTable,
    model: &LockModel,
) -> BTreeMap<(String, String), (Site, Site)> {
    let mut edges: BTreeMap<(String, String), (Site, Site)> = BTreeMap::new();
    for f in &table.fns {
        let file = &f.file;
        let acqs = &model.per_fn[f.id].acqs;
        // Direct: A then B inside A's guard scope.
        for a in acqs {
            for b in acqs {
                if b.tok > a.tok && b.tok <= a.scope_end && a.key != b.key {
                    edges
                        .entry((a.key.clone(), b.key.clone()))
                        .or_insert(((file.clone(), a.line), (file.clone(), b.line)));
                }
            }
            // Via calls: a resolved callee that may acquire B while A is
            // held.
            for c in table.calls.iter().filter(|c| c.caller == f.id) {
                if c.tok <= a.tok || c.tok > a.scope_end {
                    continue;
                }
                if units[f.unit].analysis.is_test[c.tok] {
                    continue;
                }
                let Resolution::Resolved(callee) = c.resolution else {
                    continue;
                };
                for (bkey, bsite) in &model.may_acquire[callee] {
                    if *bkey != a.key {
                        edges
                            .entry((a.key.clone(), bkey.clone()))
                            .or_insert(((file.clone(), a.line), bsite.clone()));
                    }
                }
            }
        }
    }
    edges
}

/// Tarjan-free SCC via Kosaraju on the (small) lock graph; deterministic
/// because all containers are ordered.
fn sccs(nodes: &BTreeSet<String>, adj: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let radj: BTreeMap<String, BTreeSet<String>> = {
        let mut r: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (from, tos) in adj {
            for to in tos {
                r.entry(to.clone()).or_default().insert(from.clone());
            }
        }
        r
    };
    // First pass: finish order.
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut order: Vec<String> = Vec::new();
    for n in nodes {
        if visited.contains(n) {
            continue;
        }
        // Iterative DFS with an explicit done-marker.
        let mut stack: Vec<(String, bool)> = vec![(n.clone(), false)];
        while let Some((cur, done)) = stack.pop() {
            if done {
                order.push(cur);
                continue;
            }
            if !visited.insert(cur.clone()) {
                continue;
            }
            stack.push((cur.clone(), true));
            if let Some(nexts) = adj.get(&cur) {
                for nx in nexts.iter().rev() {
                    if !visited.contains(nx) {
                        stack.push((nx.clone(), false));
                    }
                }
            }
        }
    }
    // Second pass over the reverse graph in reverse finish order.
    let mut assigned: BTreeSet<String> = BTreeSet::new();
    let mut comps: Vec<Vec<String>> = Vec::new();
    for n in order.iter().rev() {
        if assigned.contains(n) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![n.clone()];
        while let Some(cur) = stack.pop() {
            if !assigned.insert(cur.clone()) {
                continue;
            }
            comp.push(cur.clone());
            if let Some(prevs) = radj.get(&cur) {
                for p in prevs {
                    if !assigned.contains(p) {
                        stack.push(p.clone());
                    }
                }
            }
        }
        comp.sort();
        comps.push(comp);
    }
    comps
}

fn conc001(units: &[FileUnit], table: &SymbolTable, model: &LockModel, out: &mut Vec<Finding>) {
    let edges = order_edges(units, table, model);
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        nodes.insert(a.clone());
        nodes.insert(b.clone());
        adj.entry(a.clone()).or_default().insert(b.clone());
    }
    for comp in sccs(&nodes, &adj) {
        if comp.len() < 2 {
            continue;
        }
        let members: BTreeSet<&String> = comp.iter().collect();
        let mut parts: Vec<String> = Vec::new();
        let mut first_site: Option<Site> = None;
        for ((a, b), (sa, sb)) in &edges {
            if members.contains(a) && members.contains(b) {
                if first_site.is_none() {
                    first_site = Some(sa.clone());
                }
                parts.push(format!(
                    "{a} acquired at {}:{} then {b} at {}:{}",
                    sa.0, sa.1, sb.0, sb.1
                ));
            }
        }
        let (file, line) = match first_site {
            Some(s) => s,
            None => continue,
        };
        out.push(Finding {
            rule: "CONC001",
            file,
            line,
            message: format!(
                "lock-ordering cycle between {{{}}}: {}",
                comp.join(", "),
                parts.join("; ")
            ),
            hint: "impose one global acquisition order for these locks (document it where \
they are declared) or collapse them into a single lock; a cycle here is a latent \
deadlock once the service front-end drives these paths concurrently",
            key: format!("cycle:{}", comp.join("+")),
            ..Finding::default()
        });
    }
}

// ---------------------------------------------------------------- CONC002

/// One atomic-access site.
struct AtomicSite {
    file: String,
    field: String,
    ordering: String,
    line: u32,
    justified: bool,
    is_test: bool,
    crate_name: String,
}

fn atomic_sites(units: &[FileUnit]) -> Vec<AtomicSite> {
    let mut sites = Vec::new();
    for unit in units {
        let tokens = &unit.lexed.tokens;
        for i in 0..tokens.len() {
            // `Ordering :: <X>` with X a memory ordering.
            let Some(w) = ident_of(&tokens[i]) else {
                continue;
            };
            if w != "Ordering" {
                continue;
            }
            if !(tokens.get(i + 1).is_some_and(|t| punct_is(t, ':'))
                && tokens.get(i + 2).is_some_and(|t| punct_is(t, ':')))
            {
                continue;
            }
            let Some(ord) = tokens.get(i + 3).and_then(ident_of) else {
                continue;
            };
            if !MEM_ORDERINGS.contains(&ord) {
                continue;
            }
            // Find the atomic method this ordering parameterizes: the
            // nearest preceding `. <atomic-method> (` within a short
            // window.
            let mut field = None;
            let mut j = i;
            let lo = i.saturating_sub(24);
            while j > lo {
                j -= 1;
                if punct_is(&tokens[j], '.')
                    && tokens
                        .get(j + 1)
                        .and_then(ident_of)
                        .is_some_and(|m| ATOMIC_METHODS.contains(&m))
                    && tokens.get(j + 2).is_some_and(|t| punct_is(t, '('))
                {
                    field = Some(receiver_name(tokens, j));
                    break;
                }
            }
            let Some(field) = field else {
                continue;
            };
            let line = tokens[i].line;
            // A reasoned `// ORDERING:` comment on the line or within the
            // two lines above justifies deliberate mixing.
            let justified = unit
                .lexed
                .comments
                .iter()
                .any(|c| c.text.contains("ORDERING:") && c.line + 2 >= line && c.line <= line);
            sites.push(AtomicSite {
                file: unit.rel.clone(),
                field,
                ordering: ord.to_owned(),
                line,
                justified,
                is_test: unit.analysis.is_test[i],
                crate_name: unit.crate_name.clone(),
            });
        }
    }
    sites
}

fn conc002(units: &[FileUnit], out: &mut Vec<Finding>) {
    let sites = atomic_sites(units);
    // Group by (crate, field): the same logical atomic accessed from
    // several files of one crate still forms one policy domain.
    let mut groups: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        if s.is_test {
            continue;
        }
        groups
            .entry((s.crate_name.clone(), s.field.clone()))
            .or_default()
            .push(i);
    }
    for ((_, field), idxs) in &groups {
        let orderings: BTreeSet<&str> = idxs.iter().map(|&i| sites[i].ordering.as_str()).collect();
        if !orderings.contains("SeqCst") || orderings.len() == 1 {
            continue;
        }
        let weaker: Vec<&str> = orderings
            .iter()
            .copied()
            .filter(|o| *o != "SeqCst")
            .collect();
        for &i in idxs {
            let s = &sites[i];
            if s.ordering != "SeqCst" || s.justified {
                continue;
            }
            out.push(Finding {
                rule: "CONC002",
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "mixed atomic orderings on `{field}`: SeqCst here but {} elsewhere \
in the crate",
                    weaker.join("/")
                ),
                hint: "pick one ordering discipline per field; if the escalation is \
deliberate, say why in an `// ORDERING: <reason>` comment at the site",
                key: format!("mixed:{field}"),
                ..Finding::default()
            });
        }
    }
}

// ---------------------------------------------------------------- CONC003

fn conc003(units: &[FileUnit], table: &SymbolTable, model: &LockModel, out: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(usize, String, String)> = BTreeSet::new();
    for f in &table.fns {
        if f.is_test {
            continue;
        }
        let unit = &units[f.unit];
        for a in &model.per_fn[f.id].acqs {
            if !a.let_bound {
                continue; // statement temporaries cannot span a later call
            }
            for c in table.calls.iter().filter(|c| c.caller == f.id) {
                if c.tok <= a.tok || c.tok > a.scope_end {
                    continue;
                }
                if unit.analysis.is_test[c.tok] {
                    continue;
                }
                if c.is_method && ORACLE_METHODS.contains(&c.callee.as_str()) {
                    if seen.insert((f.id, a.key.clone(), c.callee.clone())) {
                        out.push(Finding {
                            rule: "CONC003",
                            file: f.file.clone(),
                            line: c.line,
                            message: format!(
                                "guard on `{}` (acquired {}:{}) held across CrowdOracle \
call `{}`",
                                a.key, f.file, a.line, c.callee
                            ),
                            hint: "crowd I/O can block for whole simulated rounds; drop the \
guard (or clone what it protects) before asking the crowd, or a concurrent caller \
needing the same lock stalls behind the crowd's latency",
                            key: format!("held-oracle:{}:{}", a.name, c.callee),
                            ..Finding::default()
                        });
                    }
                    continue;
                }
                let Resolution::Resolved(callee) = c.resolution else {
                    continue;
                };
                if callee == f.id {
                    continue;
                }
                // Only cross-lock hazards: callee re-acquiring the same
                // striped map is CONC001's (cycle) business.
                let acquires: Vec<(&String, &(String, u32))> = model.may_acquire[callee]
                    .iter()
                    .filter(|(k, _)| **k != a.key)
                    .collect();
                let Some((bkey, bsite)) = acquires.first() else {
                    continue;
                };
                if seen.insert((f.id, a.key.clone(), c.callee.clone())) {
                    out.push(Finding {
                        rule: "CONC003",
                        file: f.file.clone(),
                        line: c.line,
                        message: format!(
                            "guard on `{}` (acquired {}:{}) held across call to `{}`, \
which may acquire `{}` ({}:{})",
                            a.key, f.file, a.line, c.callee, bkey, bsite.0, bsite.1
                        ),
                        hint: "nested acquisition through a call is invisible at the outer \
site and is how lock-order cycles are born; shrink the guard scope or document the \
one global order and suppress with a reason",
                        key: format!("held:{}:{}", a.name, c.callee),
                        ..Finding::default()
                    });
                }
            }
        }
    }
}
