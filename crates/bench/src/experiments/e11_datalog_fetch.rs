// crowdkit-lint: allow-file(PANIC001) — experiment harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! E11 — Crowd-Datalog fetch minimization by body ordering.
//!
//! Emulates the Deco ('12) fetch-rule cost results: the number of crowd
//! fetches issued by a program that filters *before* reaching the crowd
//! predicate vs one that fetches first. The engine enumerates bindings of
//! the literals preceding a crowd atom, so body order is the Datalog
//! analogue of CrowdSQL's machine-first rule. Expected shape: fetch count
//! scales with the filtered binding set, not the full relation.

use crowdkit_datalog::{parse_program, Const, Engine, TableResolver};
use crowdkit_obs as obs;

use crate::table::Table;

const N_ITEMS: usize = 40;

/// A program where the machine filter precedes the crowd atom.
fn filtered_first(n: usize, cutoff: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("item(\"x{i}\", {i}).\n"));
    }
    src.push_str("@crowd label_of/2.\n");
    src.push_str(&format!(
        "out(X, L) :- item(X, I), I >= {cutoff}, label_of(X, L).\n"
    ));
    src
}

/// The same query with the crowd atom before the filter.
fn fetch_first(n: usize, cutoff: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("item(\"x{i}\", {i}).\n"));
    }
    src.push_str("@crowd label_of/2.\n");
    src.push_str(&format!(
        "out(X, L) :- item(X, I), label_of(X, L), I >= {cutoff}.\n"
    ));
    src
}

fn resolver(n: usize) -> TableResolver {
    let mut r = TableResolver::new();
    for i in 0..n {
        r.insert(
            "label_of",
            vec![Const::Str(format!("x{i}")), Const::Str("good".into())],
        );
    }
    r
}

fn fetches(src: &str, n: usize) -> (usize, usize) {
    let engine = Engine::new(parse_program(src).expect("parses")).expect("validates");
    let mut res = resolver(n);
    let (db, stats) = engine.run(&mut res).expect("evaluates");
    (stats.fetches, db.len("out"))
}

/// Runs E11.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        format!("E11: crowd-Datalog fetches by body order ({N_ITEMS} items)"),
        &[
            "selectivity",
            "filter-first fetches",
            "fetch-first fetches",
            "answers",
        ],
    );
    for cutoff in [36usize, 30, 20, 0] {
        let selectivity = (N_ITEMS - cutoff) as f64 / N_ITEMS as f64;
        let (f1, out1) = fetches(&filtered_first(N_ITEMS, cutoff), N_ITEMS);
        let (f2, out2) = fetches(&fetch_first(N_ITEMS, cutoff), N_ITEMS);
        assert_eq!(out1, out2, "both orderings compute the same answer");
        if f2 > 0 {
            obs::quality("fetch_saving", (f2 - f1) as f64 / f2 as f64);
        }
        t.row(vec![
            format!("{selectivity:.2}"),
            f1.to_string(),
            f2.to_string(),
            out1.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_shape_filter_first_fetches_only_surviving_bindings() {
        let (filtered, out) = fetches(&filtered_first(N_ITEMS, 30), N_ITEMS);
        let (eager, out2) = fetches(&fetch_first(N_ITEMS, 30), N_ITEMS);
        assert_eq!(out, 10);
        assert_eq!(out2, 10);
        assert_eq!(filtered, 10, "filter-first fetches exactly the survivors");
        assert_eq!(eager, N_ITEMS, "fetch-first pays for every item");
    }

    #[test]
    fn e11_shape_zero_selectivity_converges() {
        let (f1, _) = fetches(&filtered_first(N_ITEMS, 0), N_ITEMS);
        let (f2, _) = fetches(&fetch_first(N_ITEMS, 0), N_ITEMS);
        assert_eq!(f1, f2, "with no filter both orders fetch everything");
    }
}
