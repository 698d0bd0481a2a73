//! `crowdtrace top`: per-subsystem totals folded from the event stream.
//!
//! Every layer already records what it did as ordinary events —
//! `platform.batch` carries the answers delivered and the spend,
//! `truth.run` the iterations, `sql.query` the questions asked — so the
//! rollup needs no schema of its own. [`collect`] folds a loaded stream
//! into one [`KeyTotals`] row per event key, split by the `algo` field
//! where the event has one: the event count, the total of every numeric
//! deterministic field, and every value of each `*_ns` wall field, which
//! [`TopView::render`] shows as quantiles when the stream kept them (a
//! deterministic `--log` capture strips them).
//!
//! The fold holds no table of keys or field names: what a layer reports
//! is decided only by the code that builds its events. Rows group by
//! subsystem, the key prefix before the first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stream::{is_wall_field, LoadedStream};

/// The folded events of one key (and one `algo`, where present).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyTotals {
    /// Events folded into this row.
    pub events: u64,
    /// The total of each numeric deterministic field, in the order the
    /// fields first appeared.
    pub totals: Vec<(String, f64)>,
    /// Every value of each `*_ns` wall field, in stream order.
    pub wall: Vec<(String, Vec<u64>)>,
}

/// The folded view of a stream.
#[derive(Debug, Clone, Default)]
pub struct TopView {
    /// One row per `(key, algo)`; `None` for events without an `algo`.
    /// Key order keeps each subsystem's rows together.
    pub rows: BTreeMap<(String, Option<String>), KeyTotals>,
}

/// The entry for `name` in an insertion-ordered field list.
fn slot<'a, T: Default>(list: &'a mut Vec<(String, T)>, name: &str) -> &'a mut T {
    let i = match list.iter().position(|(n, _)| n == name) {
        Some(i) => i,
        None => {
            list.push((name.to_owned(), T::default()));
            list.len() - 1
        }
    };
    &mut list[i].1
}

/// Folds every event of `stream` into a [`TopView`]. Non-numeric fields
/// other than `algo` are skipped.
pub fn collect(stream: &LoadedStream) -> TopView {
    let mut view = TopView::default();
    for e in &stream.events {
        let algo = e.field_str("algo").map(str::to_owned);
        let row = view.rows.entry((e.key.clone(), algo)).or_default();
        row.events += 1;
        for (name, value) in &e.fields {
            if is_wall_field(name) {
                if let Some(ns) = value.as_u64() {
                    slot(&mut row.wall, name).push(ns);
                }
            } else if let Some(v) = value.as_f64() {
                *slot(&mut row.totals, name) += v;
            }
        }
    }
    view
}

/// A total as printed: whole numbers without a fraction, others to four
/// decimals with trailing zeros trimmed.
fn fmt_total(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    let s = format!("{v:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}

/// The nearest-rank `q`-quantile of sorted, non-empty `values`.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl TopView {
    /// Renders one table per subsystem: each row's label, event count and
    /// field totals, then a line of wall quantiles when it has any.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "crowdtrace top — {} events, {} rows (count, then Σ of each numeric field)",
            self.rows.values().map(|r| r.events).sum::<u64>(),
            self.rows.len()
        );
        if self.rows.is_empty() {
            out.push_str("(no events in this stream)\n");
            return out;
        }
        let label = |(key, algo): &(String, Option<String>)| match algo {
            Some(a) => format!("{key} [{a}]"),
            None => key.clone(),
        };
        let width = self.rows.keys().map(|k| label(k).len()).max().unwrap_or(0);
        let mut last_subsystem = "";
        for (k, row) in &self.rows {
            let subsystem = k.0.split('.').next().unwrap_or(&k.0);
            if subsystem != last_subsystem {
                let _ = writeln!(out, "\n[{subsystem}]");
                last_subsystem = subsystem;
            }
            let _ = write!(out, "  {:<width$} {:>8}", label(k), row.events);
            for (name, total) in &row.totals {
                let _ = write!(out, "  {name}={}", fmt_total(*total));
            }
            out.push('\n');
            if row.wall.is_empty() {
                continue;
            }
            let _ = write!(out, "  {:<width$} {:>8}", "", "");
            for (name, values) in &row.wall {
                let mut sorted = values.clone();
                sorted.sort_unstable();
                let _ = write!(
                    out,
                    "  {name} p50={} p95={} max={}",
                    quantile(&sorted, 0.5),
                    quantile(&sorted, 0.95),
                    sorted[sorted.len() - 1]
                );
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    fn stream_of(lines: &[&str]) -> LoadedStream {
        parse_stream(&lines.join("\n")).expect("valid stream")
    }

    fn row<'a>(v: &'a TopView, key: &str, algo: Option<&str>) -> &'a KeyTotals {
        v.rows
            .get(&(key.to_owned(), algo.map(str::to_owned)))
            .expect("row present")
    }

    #[test]
    fn numeric_fields_sum_per_key_in_first_seen_order() {
        let s = stream_of(&[
            r#"{"key":"platform.batch","sim":1.5,"requests":3,"delivered":5,"spend":2.5}"#,
            r#"{"key":"platform.batch","requests":4,"delivered":7,"spend":0.25,"budget_stopped":1}"#,
            r#"{"key":"exp.begin","id":"e1"}"#,
        ]);
        let v = collect(&s);
        let b = row(&v, "platform.batch", None);
        assert_eq!(b.events, 2);
        let names: Vec<&str> = b.totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["requests", "delivered", "spend", "budget_stopped"]);
        assert_eq!(b.totals[1].1, 12.0);
        assert_eq!(b.totals[2].1, 2.75);
        // String fields other than `algo` neither split nor total.
        assert!(row(&v, "exp.begin", None).totals.is_empty());
        let text = v.render();
        assert!(text.contains("[platform]"), "{text}");
        assert!(
            text.contains("requests=7  delivered=12  spend=2.75  budget_stopped=1"),
            "{text}"
        );
    }

    #[test]
    fn events_with_an_algo_split_into_rows() {
        let s = stream_of(&[
            r#"{"key":"truth.run","algo":"ds","iters":10}"#,
            r#"{"key":"truth.run","algo":"glad","iters":4}"#,
            r#"{"key":"truth.run","algo":"ds","iters":7}"#,
        ]);
        let v = collect(&s);
        let ds = row(&v, "truth.run", Some("ds"));
        assert_eq!((ds.events, ds.totals[0].1), (2, 17.0));
        assert_eq!(row(&v, "truth.run", Some("glad")).events, 1);
        let text = v.render();
        assert!(text.contains("truth.run [ds]"), "{text}");
        assert!(text.contains("iters=17"), "{text}");
    }

    #[test]
    fn wall_fields_render_as_quantiles_only_when_kept() {
        let with_wall = stream_of(&[
            r#"{"key":"truth.iter","wall_ns":1,"algo":"ds","iter":0,"m_ns":10}"#,
            r#"{"key":"truth.iter","wall_ns":2,"algo":"ds","iter":1,"m_ns":30}"#,
            r#"{"key":"truth.iter","wall_ns":3,"algo":"ds","iter":2,"m_ns":20}"#,
        ]);
        let v = collect(&with_wall);
        let it = row(&v, "truth.iter", Some("ds"));
        assert_eq!(it.wall, vec![("m_ns".to_owned(), vec![10, 30, 20])]);
        assert_eq!(
            it.totals,
            vec![("iter".to_owned(), 3.0)],
            "wall fields never total"
        );
        assert!(v.render().contains("m_ns p50=20 p95=30 max=30"));

        let without = stream_of(&[r#"{"key":"truth.iter","algo":"ds","iter":0}"#]);
        assert!(!collect(&without).render().contains("_ns"));
    }

    #[test]
    fn totals_print_whole_numbers_without_a_fraction() {
        assert_eq!(fmt_total(734_444.0), "734444");
        assert_eq!(fmt_total(0.1 + 0.2), "0.3");
        assert_eq!(fmt_total(12.5), "12.5");
        assert_eq!(fmt_total(-3.0), "-3");
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        let s = stream_of(&[]);
        let v = collect(&s);
        assert!(v.rows.is_empty());
        assert!(v.render().contains("0 events, 0 rows"));
        assert!(v.render().contains("no events in this stream"));
    }
}
