//! Interprocedural determinism taint: the call-graph extension of DET001
//! and DET002.
//!
//! The PR 4 rules are per-site: they see `Instant::now()` where it is
//! written and `m.iter()` where it is iterated. A helper that *launders*
//! either through one function call is invisible to them:
//!
//! ```text
//! fn stamp() -> u64 { Instant::now()… }     // DET002 fires here
//! fn jitter() -> u64 { stamp() / 3 }        // …but this propagates it
//! fn schedule() -> u64 { jitter() + 1 }     // …and this consumes it
//! ```
//!
//! This pass seeds taint at the intrinsic sources (direct wall-clock
//! reads; hash-ordered iteration in value-returning functions), propagates
//! it callee→caller through *value-returning* functions only (a function
//! returning `()` consumes the value — reachability alone is not a leak),
//! and reports every call edge from non-test code into a tainted
//! function. Each finding carries the witness chain down to the seed.
//! DET001 findings additionally require the caller to accumulate floats
//! or serialize output — the same "order can leak" contexts as the
//! per-site rule.

use std::collections::BTreeSet;

use crate::callgraph::{witness_chain, CallGraph, TaintMap};
use crate::lexer::Tok;
use crate::rules::{fold_profile, hash_iter_sites, hash_named_bindings, Finding, DET002_ALLOWLIST};
use crate::symbols::{FileUnit, FnDef, SymbolTable};

/// Runs both taint analyses; `want` filters by rule id.
pub fn run(
    units: &[FileUnit],
    table: &SymbolTable,
    graph: &CallGraph,
    want: impl Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    if want("DET002") {
        det002_taint(units, table, graph, out);
    }
    if want("DET001") {
        det001_taint(units, table, graph, out);
    }
}

/// Direct wall-clock read inside the fn body (non-test tokens), if any:
/// `(line, label)`.
fn wall_clock_seed(unit: &FileUnit, f: &FnDef) -> Option<(u32, String)> {
    if DET002_ALLOWLIST.contains(&f.file.as_str()) {
        return None;
    }
    let tokens = &unit.lexed.tokens;
    for i in f.body_open..=f.body_close {
        if unit.analysis.is_test[i] {
            continue;
        }
        match &tokens[i].tok {
            Tok::Ident(w) if w == "Instant" => {
                let now = tokens
                    .get(i + 1)
                    .is_some_and(|t| matches!(&t.tok, Tok::Punct(':')))
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| matches!(&t.tok, Tok::Punct(':')))
                    && tokens
                        .get(i + 3)
                        .is_some_and(|t| matches!(&t.tok, Tok::Ident(n) if n == "now"));
                if now {
                    return Some((
                        tokens[i].line,
                        format!("Instant::now() ({}:{})", f.file, tokens[i].line),
                    ));
                }
            }
            Tok::Ident(w) if w == "SystemTime" => {
                return Some((
                    tokens[i].line,
                    format!("SystemTime ({}:{})", f.file, tokens[i].line),
                ));
            }
            _ => {}
        }
    }
    None
}

fn det002_taint(
    units: &[FileUnit],
    table: &SymbolTable,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let seeds: Vec<(usize, String)> = table
        .fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| wall_clock_seed(&units[f.unit], f).map(|(_, label)| (f.id, label)))
        .collect();
    if seeds.is_empty() {
        return;
    }
    let taint = crate::callgraph::propagate(table, graph, seeds, |id| {
        let f = &table.fns[id];
        f.has_return && !DET002_ALLOWLIST.contains(&f.file.as_str())
    });
    report_edges_into_taint(
        units,
        table,
        graph,
        &taint,
        |_caller| true,
        "DET002",
        |callee, chain_tail| {
            format!("wall-clock value reaches here through `{callee}` (chain: {chain_tail})")
        },
        "taint-wall",
        "the callee transitively reads the host clock; route the timing through \
crowdkit-obs wall fields or make the callee deterministic. Suppress with \
`// crowdkit-lint: allow(DET002) — <reason>` where wall time is the point",
        out,
    );
}

fn det001_taint(
    units: &[FileUnit],
    table: &SymbolTable,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    // Seeds: value-returning fns with hash-ordered iteration.
    let mut seeds: Vec<(usize, String)> = Vec::new();
    for f in &table.fns {
        if f.is_test || !f.has_return {
            continue;
        }
        let unit = &units[f.unit];
        let names = hash_named_bindings(&unit.lexed.tokens);
        if names.is_empty() {
            continue;
        }
        let span = match unit.analysis.fns.iter().find(|s| s.kw == f.kw) {
            Some(s) => s,
            None => continue,
        };
        let sites = hash_iter_sites(span, &unit.lexed.tokens, &unit.analysis, &names);
        if let Some((line, desc)) = sites.first() {
            seeds.push((
                f.id,
                format!("hash-ordered iteration `{desc}` ({}:{line})", f.file),
            ));
        }
    }
    if seeds.is_empty() {
        return;
    }
    let taint = crate::callgraph::propagate(table, graph, seeds, |id| table.fns[id].has_return);
    // Callers must be order-sensitive consumers: float accumulation or
    // serialized output in the caller's own body.
    let consumer: Vec<bool> = table
        .fns
        .iter()
        .map(|f| {
            let unit = &units[f.unit];
            fold_profile(&unit.lexed.tokens[f.body_open..=f.body_close]).is_some()
        })
        .collect();
    report_edges_into_taint(
        units,
        table,
        graph,
        &taint,
        |caller| consumer[caller],
        "DET001",
        |callee, chain_tail| {
            format!(
                "`{callee}` propagates hash-ordered iteration into a function that \
accumulates floats or serializes (chain: {chain_tail})"
            )
        },
        "taint-hash",
        "the callee's result depends on HashMap/HashSet iteration order; sort in \
the callee or switch it to BTreeMap. Suppress with \
`// crowdkit-lint: allow(DET001) — <reason>` if order provably cannot reach output",
        out,
    );
}

/// Shared reporter: one finding per (caller, tainted callee) edge from
/// non-test code, at the first such call site.
#[allow(clippy::too_many_arguments)]
fn report_edges_into_taint(
    units: &[FileUnit],
    table: &SymbolTable,
    graph: &CallGraph,
    taint: &TaintMap,
    caller_filter: impl Fn(usize) -> bool,
    rule: &'static str,
    message: impl Fn(&str, &str) -> String,
    key_prefix: &str,
    hint: &'static str,
    out: &mut Vec<Finding>,
) {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for edges in &graph.out_edges {
        for e in edges {
            if taint[e.callee].is_none() {
                continue;
            }
            let caller = &table.fns[e.caller];
            let callee = &table.fns[e.callee];
            if caller.is_test || e.caller == e.callee || !caller_filter(e.caller) {
                continue;
            }
            if DET002_ALLOWLIST.contains(&caller.file.as_str()) {
                continue;
            }
            let call = &table.calls[e.call];
            if units[caller.unit].analysis.is_test[call.tok] {
                continue;
            }
            if !seen.insert((e.caller, e.callee)) {
                continue;
            }
            let chain = witness_chain(table, taint, e.caller, e.callee, call.line);
            let chain_tail = chain.join(" -> ");
            out.push(Finding {
                rule,
                file: caller.file.clone(),
                line: call.line,
                message: message(&callee.name, &chain_tail),
                hint,
                key: format!("{key_prefix}:{}", callee.name),
                chain,
                ..Finding::default()
            });
        }
    }
}
