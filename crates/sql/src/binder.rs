//! Name and type resolution: AST → logical plan IR.
//!
//! The binder resolves every column reference in a [`Select`] against the
//! catalog, checks predicate types, and lowers the statement into the
//! canonical (naive) [`Plan`]: scans joined bottom-up, an eager
//! [`Plan::CrowdFill`] of *every* crowd column in the FROM tables, the
//! WHERE conjuncts in source order, then ordering, limit, and projection.
//! That canonical tree is both the baseline the optimizer must beat and
//! the reference semantics rewrites must preserve.
//!
//! All resolution failures are [`CrowdError::Bind`] diagnostics carrying
//! the 1-based line/column of the offending token.

use crowdkit_core::error::{CrowdError, Result};

use crate::ast::{ColumnRef, Expr, OrderBy, Predicate, Select, Span};
use crate::catalog::{Catalog, ColumnType};
use crate::ir::{BoundExpr, BoundPredicate, FillSlot, Plan, SlotRef};

/// One column of the bound query's input schema (the concatenation of the
/// FROM tables' columns, in FROM order).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCol {
    /// Owning base table.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Column index within the base table.
    pub base_index: usize,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether the crowd fills this column on demand.
    pub crowd: bool,
}

/// A fully resolved query: its input schema and the canonical naive plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Tables in FROM order.
    pub from: Vec<String>,
    /// Concatenated schema of the FROM tables.
    pub schema: Vec<BoundCol>,
    /// The canonical (naive) logical plan.
    pub plan: Plan,
}

fn ty_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Text => "TEXT",
    }
}

/// Line/column for a diagnostic, falling back to 1:1 for synthesized
/// nodes that carry no source position.
fn pos(span: Span) -> (usize, usize) {
    if span == Span::default() {
        (1, 1)
    } else {
        (span.line, span.col)
    }
}

struct Binder<'a> {
    catalog: &'a Catalog,
    from: Vec<String>,
    schema: Vec<BoundCol>,
}

impl<'a> Binder<'a> {
    fn new(select: &Select, catalog: &'a Catalog) -> Result<Self> {
        let mut schema = Vec::new();
        for (i, table) in select.from.iter().enumerate() {
            let def = catalog.table(table).map_err(|_| {
                let span = select.from_spans.get(i).copied().unwrap_or_default();
                let (line, col) = pos(span);
                CrowdError::bind(line, col, format!("unknown table `{table}`"))
            })?;
            for (idx, c) in def.columns.iter().enumerate() {
                schema.push(BoundCol {
                    table: table.clone(),
                    column: c.name.clone(),
                    base_index: idx,
                    ty: c.ty,
                    crowd: c.crowd,
                });
            }
        }
        Ok(Self {
            catalog,
            from: select.from.clone(),
            schema,
        })
    }

    /// Resolves a column reference to a slot in the concatenated schema.
    fn resolve(&self, cref: &ColumnRef) -> Result<usize> {
        let (line, col) = pos(cref.span);
        if let Some(table) = &cref.table {
            if !self.from.iter().any(|t| t == table) {
                return Err(CrowdError::bind(
                    line,
                    col,
                    format!("table `{table}` is not in the FROM clause"),
                ));
            }
            return self
                .schema
                .iter()
                .position(|b| &b.table == table && b.column == cref.column)
                .ok_or_else(|| {
                    CrowdError::bind(
                        line,
                        col,
                        format!("table `{table}` has no column `{}`", cref.column),
                    )
                });
        }
        let mut hits = self
            .schema
            .iter()
            .enumerate()
            .filter(|(_, b)| b.column == cref.column);
        match (hits.next(), hits.next()) {
            (Some((slot, _)), None) => Ok(slot),
            (Some(_), Some(_)) => Err(CrowdError::bind(
                line,
                col,
                format!(
                    "ambiguous column `{}` (qualify it with a table name)",
                    cref.column
                ),
            )),
            _ => Err(CrowdError::bind(
                line,
                col,
                format!("unknown column `{}`", cref.column),
            )),
        }
    }

    fn bind_expr(&self, expr: &Expr) -> Result<BoundExpr> {
        match expr {
            Expr::Column(c) => {
                let slot = self.resolve(c)?;
                Ok(BoundExpr::Slot(SlotRef {
                    slot,
                    name: c.to_string(),
                }))
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        }
    }

    /// The static type of a bound expression, when known (NULL literals
    /// are compatible with every type).
    fn expr_type(&self, e: &BoundExpr) -> Option<ColumnType> {
        match e {
            BoundExpr::Slot(s) => Some(self.schema[s.slot].ty),
            BoundExpr::Literal(crate::value::Value::Int(_)) => Some(ColumnType::Int),
            BoundExpr::Literal(crate::value::Value::Text(_)) => Some(ColumnType::Text),
            BoundExpr::Literal(crate::value::Value::Null) => None,
        }
    }

    fn bind_predicate(&self, pred: &Predicate) -> Result<BoundPredicate> {
        match pred {
            Predicate::Compare { left, op, right } => {
                let l = self.bind_expr(left)?;
                let r = self.bind_expr(right)?;
                if let (Some(lt), Some(rt)) = (self.expr_type(&l), self.expr_type(&r)) {
                    if lt != rt {
                        let span = left.span().or_else(|| right.span()).unwrap_or_default();
                        let (line, col) = pos(span);
                        return Err(CrowdError::bind(
                            line,
                            col,
                            format!(
                                "type mismatch: cannot compare `{l}` ({}) to `{r}` ({})",
                                ty_name(lt),
                                ty_name(rt)
                            ),
                        ));
                    }
                }
                Ok(BoundPredicate::Compare {
                    left: l,
                    op: *op,
                    right: r,
                })
            }
            Predicate::CrowdEqual { left, right } => Ok(BoundPredicate::CrowdEqual {
                left: self.bind_expr(left)?,
                right: self.bind_expr(right)?,
            }),
        }
    }

    /// Every crowd column of the FROM tables, in FROM-then-declaration
    /// order — the eager fill set of the canonical plan.
    fn all_crowd_slots(&self) -> Vec<FillSlot> {
        self.schema
            .iter()
            .enumerate()
            .filter(|(_, b)| b.crowd)
            .map(|(slot, b)| FillSlot {
                slot,
                table: b.table.clone(),
                column: b.column.clone(),
                base_index: b.base_index,
                ty: b.ty,
            })
            .collect()
    }

    fn canonical_plan(&self, select: &Select, votes: u32) -> Result<Plan> {
        // Base scans: one table or a cross join of two.
        let mut widths = Vec::new();
        for t in &self.from {
            widths.push(self.catalog.table(t)?.columns.len());
        }
        let mut plan = Plan::Scan {
            table: self.from[0].clone(),
            width: widths[0],
        };
        if self.from.len() == 2 {
            plan = Plan::CrossJoin {
                left: Box::new(plan),
                right: Box::new(Plan::Scan {
                    table: self.from[1].clone(),
                    width: widths[1],
                }),
            };
        }

        // Eagerly fill every crowd column before anything looks at rows.
        let fill_slots = self.all_crowd_slots();
        if !fill_slots.is_empty() {
            plan = Plan::CrowdFill {
                input: Box::new(plan),
                slots: fill_slots,
                redundancy: votes,
                batch: 0,
            };
        }

        // WHERE conjuncts in source order, one operator per predicate.
        for pred in &select.predicates {
            let bound = self.bind_predicate(pred)?;
            plan = match bound {
                p @ BoundPredicate::Compare { .. } => Plan::Filter {
                    input: Box::new(plan),
                    predicates: vec![p],
                },
                p @ BoundPredicate::CrowdEqual { .. } => Plan::CrowdCompare {
                    input: Box::new(plan),
                    predicates: vec![p],
                    redundancy: votes,
                },
            };
        }

        // Ordering.
        if let Some(order) = &select.order_by {
            plan = match order {
                OrderBy::Machine { column, asc } => {
                    let slot = self.resolve(column)?;
                    Plan::Sort {
                        input: Box::new(plan),
                        slot: SlotRef {
                            slot,
                            name: column.to_string(),
                        },
                        asc: *asc,
                    }
                }
                OrderBy::Crowd { column } => {
                    let slot = self.resolve(column)?;
                    Plan::CrowdSort {
                        input: Box::new(plan),
                        slot: SlotRef {
                            slot,
                            name: column.to_string(),
                        },
                        top_k: None,
                        redundancy: votes,
                    }
                }
            };
        }

        // COUNT(*) collapses the result; otherwise limit then project.
        if select.count {
            return Ok(Plan::CountStar {
                input: Box::new(plan),
            });
        }
        if let Some(n) = select.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        let mut proj = Vec::new();
        for c in &select.projection {
            let slot = self.resolve(c)?;
            proj.push(SlotRef {
                slot,
                name: c.to_string(),
            });
        }
        Ok(Plan::Project {
            input: Box::new(plan),
            slots: proj,
        })
    }
}

/// Resolves a SELECT against the catalog and lowers it to the canonical
/// naive plan, with `votes` as the redundancy knob on every crowd node.
pub fn bind(select: &Select, catalog: &Catalog, votes: u32) -> Result<BoundQuery> {
    if select.from.is_empty() {
        return Err(CrowdError::bind(1, 1, "FROM clause is empty"));
    }
    let binder = Binder::new(select, catalog)?;
    let plan = binder.canonical_plan(select, votes)?;
    Ok(BoundQuery {
        from: binder.from,
        schema: binder.schema,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for ddl in [
            "CREATE TABLE products (id INT, name TEXT, category CROWD TEXT, rating CROWD INT)",
            "CREATE TABLE brands (bid INT, bname TEXT, country CROWD TEXT)",
        ] {
            match parse_statement(ddl).unwrap() {
                Statement::CreateTable {
                    name,
                    columns,
                    crowd,
                } => c.create_table(&name, &columns, crowd).unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        }
        c
    }

    fn bind_sql(sql: &str) -> Result<BoundQuery> {
        match parse_statement(sql).unwrap() {
            Statement::Select(sel) => bind(&sel, &catalog(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canonical_plan_fills_eagerly_in_source_order() {
        let q = bind_sql("SELECT name FROM products WHERE category = 'phone'").unwrap();
        let text = q.plan.to_string();
        let fill = text.find("CrowdFill [products.category, products.rating]");
        let filt = text.find("MachineFilter [category = 'phone']");
        assert!(fill.is_some(), "eager fill of all crowd columns:\n{text}");
        assert!(
            filt.unwrap() < fill.unwrap(),
            "filter sits above the fill in the naive plan:\n{text}"
        );
        assert_eq!(q.schema.len(), 4);
        assert_eq!(q.from, vec!["products"]);
    }

    #[test]
    fn join_schema_concatenates_and_crowdequal_binds() {
        let q = bind_sql(
            "SELECT * FROM products, brands \
             WHERE CROWDEQUAL(name, bname) AND id >= 2",
        )
        .unwrap();
        assert_eq!(q.schema.len(), 7);
        assert_eq!(q.schema[4].table, "brands");
        let text = q.plan.to_string();
        assert!(text.contains("Join (cross)"));
        assert!(text.contains("CrowdFilter [CROWDEQUAL(name, bname)]"));
        assert!(text.contains("CrowdFill [products.category, products.rating, brands.country]"));
    }

    #[test]
    fn unknown_names_yield_bind_diagnostics_with_positions() {
        let err = bind_sql("SELECT price FROM products").unwrap_err();
        match err {
            CrowdError::Bind {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (1, 8));
                assert!(message.contains("unknown column `price`"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }

        let err = bind_sql("SELECT name\nFROM warehouse").unwrap_err();
        match err {
            CrowdError::Bind {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (2, 6));
                assert!(message.contains("unknown table `warehouse`"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }

        let err = bind_sql("SELECT brands.name FROM products, brands").unwrap_err();
        match err {
            CrowdError::Bind { message, .. } => {
                assert!(message.contains("has no column `name`"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }

        let err = bind_sql("SELECT other.id FROM products").unwrap_err();
        match err {
            CrowdError::Bind { message, .. } => {
                assert!(message.contains("not in the FROM clause"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ambiguity_requires_qualification() {
        let mut c = catalog();
        match parse_statement("CREATE TABLE dupes (id INT, name TEXT)").unwrap() {
            Statement::CreateTable {
                name,
                columns,
                crowd,
            } => c.create_table(&name, &columns, crowd).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        let sel = match parse_statement("SELECT name FROM products, dupes").unwrap() {
            Statement::Select(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let err = bind(&sel, &c, 3).unwrap_err();
        match err {
            CrowdError::Bind {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (1, 8));
                assert!(message.contains("ambiguous column `name`"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn predicate_type_mismatch_is_a_bind_error() {
        let err = bind_sql("SELECT name FROM products WHERE id = 'three'").unwrap_err();
        match err {
            CrowdError::Bind {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (1, 33));
                assert!(message.contains("type mismatch"), "{message}");
                assert!(
                    message.contains("INT") && message.contains("TEXT"),
                    "{message}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // NULL literals are compatible with any column type.
        assert!(bind_sql("SELECT name FROM products WHERE name != NULL").is_ok());
        // Same-type comparisons are fine.
        assert!(bind_sql("SELECT name FROM products WHERE id >= 2").is_ok());
    }

    #[test]
    fn count_and_limit_shapes() {
        let q = bind_sql("SELECT COUNT(*) FROM products").unwrap();
        let text = q.plan.to_string();
        assert!(text.starts_with("CountStar"), "{text}");

        let q = bind_sql("SELECT name FROM products ORDER BY CROWDORDER(name) LIMIT 2").unwrap();
        let text = q.plan.to_string();
        // The canonical plan never fuses the limit into the sort.
        assert!(text.contains("CrowdSort name (full pairwise)"), "{text}");
        assert!(text.contains("Limit 2"), "{text}");
    }

    #[test]
    fn binding_is_deterministic() {
        let a = bind_sql("SELECT name FROM products WHERE category = 'x'").unwrap();
        let b = bind_sql("SELECT name FROM products WHERE category = 'x'").unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.plan.to_string(), b.plan.to_string());
    }
}
