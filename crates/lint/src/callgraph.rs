//! The workspace call graph and deterministic taint propagation over it.
//!
//! Edges come from uniquely-resolved call sites only (see
//! [`crate::symbols`]); ambiguous and unresolved calls contribute no
//! edges, which keeps taint precise at the cost of (measured) recall.
//! Propagation is a plain BFS from the seed set with parent pointers, so
//! every tainted function can print a *witness chain* down to the seed —
//! `a -> b -> Instant::now()` — in its findings. Seeds and edges are
//! processed in stable (id, token) order, making chains byte-deterministic
//! across runs.

use crate::symbols::{Resolution, SymbolTable};

/// One call edge: caller → callee via a specific call site.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Caller [`crate::symbols::FnDef`] id.
    pub caller: usize,
    /// Callee [`crate::symbols::FnDef`] id.
    pub callee: usize,
    /// Index into [`SymbolTable::calls`].
    pub call: usize,
}

/// Adjacency over the symbol table.
pub struct CallGraph {
    /// Outgoing edges per function id, in call-site order.
    pub out_edges: Vec<Vec<Edge>>,
    /// Incoming edges per function id, in call-site order.
    pub in_edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds both adjacency directions from the resolved call sites.
    pub fn build(table: &SymbolTable) -> Self {
        let n = table.fns.len();
        let mut out_edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut in_edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (ci, c) in table.calls.iter().enumerate() {
            if let Resolution::Resolved(callee) = c.resolution {
                let e = Edge {
                    caller: c.caller,
                    callee,
                    call: ci,
                };
                out_edges[c.caller].push(e);
                in_edges[callee].push(e);
            }
        }
        CallGraph {
            out_edges,
            in_edges,
        }
    }
}

/// Why a function is tainted.
#[derive(Debug, Clone)]
pub enum TaintCause {
    /// The function is a seed; the string describes the intrinsic source
    /// (e.g. `Instant::now() at crates/x/src/a.rs:12`).
    Seed(String),
    /// Taint arrived through a call: (callee id, call-site line).
    Call(usize, u32),
}

/// Per-function taint state after [`propagate`]: `None` = clean.
pub type TaintMap = Vec<Option<TaintCause>>;

/// Propagates taint from `seeds` up the call graph (callee → caller).
/// A caller only becomes tainted when `gate(caller_id)` holds — the
/// determinism rules gate on "returns a value" so taint models *values
/// flowing out*, not mere reachability (otherwise every `main` would be
/// tainted by its transitive leaves).
pub fn propagate(
    table: &SymbolTable,
    graph: &CallGraph,
    seeds: Vec<(usize, String)>,
    gate: impl Fn(usize) -> bool,
) -> TaintMap {
    let mut taint: TaintMap = vec![None; graph.in_edges.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (id, label) in seeds {
        if taint[id].is_none() {
            taint[id] = Some(TaintCause::Seed(label));
            queue.push_back(id);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for e in &graph.in_edges[cur] {
            if taint[e.caller].is_none() && gate(e.caller) {
                taint[e.caller] = Some(TaintCause::Call(cur, table.calls[e.call].line));
                queue.push_back(e.caller);
            }
        }
    }
    taint
}

/// Renders the witness chain from `start` down to the seed:
/// `["start (file:line)", …, "<seed label>"]`. `first_line` is the call
/// line at which `start` reached the tainted callee (the finding site).
pub fn witness_chain(
    table: &SymbolTable,
    taint: &TaintMap,
    start: usize,
    first_callee: usize,
    first_line: u32,
) -> Vec<String> {
    let mut chain = Vec::new();
    let f = &table.fns[start];
    chain.push(format!("{} ({}:{})", f.name, f.file, first_line));
    let mut cur = first_callee;
    let mut hops = 0usize;
    loop {
        hops += 1;
        if hops > 64 {
            chain.push("… (chain truncated)".to_owned());
            break;
        }
        let fd = &table.fns[cur];
        match &taint[cur] {
            Some(TaintCause::Seed(label)) => {
                chain.push(format!("{} ({}:{})", fd.name, fd.file, fd.start_line));
                chain.push(label.clone());
                break;
            }
            Some(TaintCause::Call(next, line)) => {
                chain.push(format!("{} ({}:{})", fd.name, fd.file, line));
                cur = *next;
            }
            None => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{parse_unit, SymbolTable};

    #[test]
    fn taint_propagates_through_returning_fns_only() {
        let units = vec![parse_unit(
            "crates/a/src/lib.rs",
            "fn seed() -> u64 { 1 }\n\
             fn relay() -> u64 { seed() }\n\
             fn sink() { let _ = relay(); }\n\
             fn caller_of_sink() { sink(); }",
        )];
        let t = SymbolTable::build(&units);
        let g = CallGraph::build(&t);
        let seed_id = t.fns.iter().find(|f| f.name == "seed").map(|f| f.id);
        let seed_id = match seed_id {
            Some(id) => id,
            None => unreachable!("seed fn present"),
        };
        let taint = propagate(&t, &g, vec![(seed_id, "the-source".into())], |id| {
            t.fns[id].has_return
        });
        let by = |n: &str| t.fns.iter().find(|f| f.name == n).map(|f| f.id);
        assert!(taint[by("relay").into_iter().next().unwrap_or(usize::MAX)].is_some());
        // `sink` returns nothing: not tainted, and its caller cannot be.
        assert!(taint[by("sink").into_iter().next().unwrap_or(usize::MAX)].is_none());
        assert!(taint[by("caller_of_sink")
            .into_iter()
            .next()
            .unwrap_or(usize::MAX)]
        .is_none());
    }
}
