//! The query corpus each workload draws from, and the oracle rows every
//! timed result is checked against.

use crate::oracle::{self, Expected};
use aqe_engine::exec::{ExecOptions, ParamValue, Report, ResultRows};
use aqe_engine::plan::{DictTable, FieldTy, PExpr, PlanNode};
use aqe_engine::session::{PreparedQuery, Session};
use aqe_queries::{synthetic, tpcds, tpch};
use aqe_storage::Catalog;
use std::collections::BTreeMap;

/// The SQL texts the frontend already plans elsewhere in the repo: the
/// Fig. 1 stage-timing Q1, the quickstart query, and the cross-engine
/// supplier/nation join.
pub const SQL_TEXTS: [(&str, &str); 3] = [
    (
        "sql-fig01-q1",
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
         avg(l_quantity), count(*) FROM lineitem WHERE l_shipdate <= date '1998-09-02' \
         GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    ),
    (
        "sql-quickstart",
        "SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS revenue \
         FROM lineitem WHERE l_shipdate <= date '1998-09-02' \
         GROUP BY l_returnflag ORDER BY revenue DESC",
    ),
    (
        "sql-supplier-nation",
        "SELECT n_name, count(*) AS cnt FROM supplier JOIN nation ON s_nationkey = n_nationkey \
         GROUP BY n_name ORDER BY cnt DESC, n_name LIMIT 3",
    ),
];

/// Where a corpus entry comes from.
pub enum Source {
    /// A hand-built plan tree from `aqe_queries`.
    Plan { root: PlanNode, dicts: Vec<DictTable> },
    /// SQL text, planned by `aqe_sql` on every preparation.
    Sql(&'static str),
    /// A plan tree with one `I64` bind slot (`l_quantity` in cents).
    ParamPlan(PlanNode),
}

/// Expected rows: fixed, or per bind-value class for parameterized entries.
pub enum Oracle {
    Fixed(Expected),
    ByQty(BTreeMap<i64, Expected>),
}

impl Oracle {
    pub fn expected(&self, param: Option<i64>) -> Option<&Expected> {
        match (self, param) {
            (Oracle::Fixed(e), _) => Some(e),
            (Oracle::ByQty(m), Some(v)) => m.get(&qty_class(v)),
            (Oracle::ByQty(_), None) => None,
        }
    }
}

/// `l_quantity` is stored in cents of whole units, so `l_quantity < v`
/// selects the same rows as `l_quantity < 100 * qty_class(v)`.
pub fn qty_class(v: i64) -> i64 {
    (v + 99).div_euclid(100)
}

pub struct Entry {
    pub name: String,
    pub source: Source,
}

impl Entry {
    fn plan(q: aqe_queries::Query) -> Entry {
        Entry { name: q.name, source: Source::Plan { root: q.root, dicts: q.dicts } }
    }

    /// Whether executions bind one `I64` value.
    pub fn takes_param(&self) -> bool {
        match &self.source {
            Source::Plan { .. } => false,
            Source::Sql(sql) => sql.contains('?'),
            Source::ParamPlan(_) => true,
        }
    }

    /// Prepare the entry on `session` (for SQL: plan the text first).
    pub fn prepare(&self, session: &Session) -> Result<PreparedQuery, String> {
        match &self.source {
            Source::Plan { root, dicts } => Ok(session.prepare(root, dicts.clone())),
            Source::Sql(sql) => aqe_sql::prepare(session, sql)
                .map(|s| s.query)
                .map_err(|e| format!("{}: {e}", self.name)),
            Source::ParamPlan(root) => Ok(session.prepare(root, vec![])),
        }
    }

    /// Execute a prepared instance of this entry.
    pub fn execute(
        &self,
        session: &Session,
        prepared: &PreparedQuery,
        param: Option<i64>,
        opts: &ExecOptions,
    ) -> Result<(ResultRows, Report), String> {
        let r = match param {
            Some(v) => session.execute_bound_with(prepared, &[ParamValue::I64(v)], opts),
            None => session.execute_with(prepared, opts),
        };
        r.map_err(|e| format!("{}: {e}", self.name))
    }

    /// The plan tree and dictionaries (SQL entries are planned here).
    pub fn tree(&self, cat: &Catalog) -> Result<(PlanNode, Vec<DictTable>), String> {
        match &self.source {
            Source::Plan { root, dicts } => Ok((root.clone(), dicts.clone())),
            Source::Sql(sql) => aqe_sql::plan_sql(cat, sql)
                .map(|b| (b.root, b.dicts))
                .map_err(|e| format!("{}: {e}", self.name)),
            Source::ParamPlan(root) => Ok((root.clone(), vec![])),
        }
    }

    /// Oracle rows from the Volcano baseline. Parameterized entries get
    /// one expected result per bind-value class in `qty_range`.
    pub fn oracle(&self, cat: &Catalog, qty_range: (i64, i64)) -> Result<Oracle, String> {
        let classes = qty_class(qty_range.0)..=qty_class(qty_range.1 - 1);
        match &self.source {
            Source::Plan { root, dicts } => oracle::volcano(cat, root, dicts).map(Oracle::Fixed),
            // A bound `l_quantity < ?` takes cents; the literal `c` is
            // scaled to cents by the binder.
            Source::Sql(sql) if self.takes_param() => classes
                .map(|c| Ok((c, oracle::volcano_sql(cat, &sql.replace('?', &c.to_string()))?)))
                .collect::<Result<_, String>>()
                .map(Oracle::ByQty),
            Source::Sql(sql) => oracle::volcano_sql(cat, sql).map(Oracle::Fixed),
            Source::ParamPlan(_) => classes
                .map(|c| {
                    let root = aqe_bench::q6_qty_plan(PExpr::ConstI(100 * c));
                    Ok((c, oracle::volcano(cat, &root, &[])?))
                })
                .collect::<Result<_, String>>()
                .map(Oracle::ByQty),
        }
        .map_err(|e| format!("{} oracle: {e}", self.name))
    }
}

/// The TPC-H tables plus the TPC-DS-shaped star schema in one catalog.
pub fn tpch_tpcds(sf: f64) -> Catalog {
    let mut cat = aqe_storage::tpch::generate(sf);
    let ds = aqe_storage::tpcds::generate(sf);
    for name in ds.table_names() {
        cat.add((**ds.get(name).expect("listed table")).clone());
    }
    cat
}

/// `adhoc-cold`: all 22 TPC-H queries, the 8 TPC-DS-shaped queries, the
/// Fig. 15 wide aggregation at three widths, and the SQL texts.
pub fn adhoc(cat: &Catalog) -> Vec<Entry> {
    let mut out: Vec<Entry> = tpch::all(cat).into_iter().map(Entry::plan).collect();
    out.extend(tpcds::all(cat).into_iter().map(Entry::plan));
    out.extend([10, 100, 400].map(|n| Entry::plan(synthetic::wide_agg(n))));
    out.extend(
        SQL_TEXTS
            .iter()
            .map(|(name, sql)| Entry { name: name.to_string(), source: Source::Sql(sql) }),
    );
    out
}

/// `warm-exec`: the 22 TPC-H queries, one wide aggregation, and the
/// parameterized Q6 (its bind value is the last entry's parameter).
pub fn warm(cat: &Catalog) -> Vec<Entry> {
    let mut out: Vec<Entry> = tpch::all(cat).into_iter().map(Entry::plan).collect();
    out.push(Entry::plan(synthetic::wide_agg(100)));
    out.push(Entry {
        name: "q6-param".to_string(),
        source: Source::ParamPlan(aqe_bench::q6_qty_plan(PExpr::Param {
            idx: 0,
            ty: FieldTy::I64,
        })),
    });
    out
}
