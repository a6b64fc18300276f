//! Expected rows, computed once at setup by an independent engine, and
//! the comparison every timed result goes through.

use aqe_engine::plan::{decompose, DictTable, PlanNode};
use aqe_storage::Catalog;

/// The rows a query must return, in comparable form: one `Vec<u64>` per
/// row, sorted unless the query's output order is defined.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    width: usize,
    sorted_output: bool,
    rows: Vec<Vec<u64>>,
}

impl Expected {
    pub fn new(flat: &[u64], width: usize, sorted_output: bool) -> Expected {
        Expected { width, sorted_output, rows: normalize(flat, width, sorted_output) }
    }

    /// Whether a flat result equals the expected rows.
    pub fn matches(&self, flat: &[u64]) -> bool {
        if self.width == 0 {
            return flat.is_empty();
        }
        flat.len() == self.rows.len() * self.width
            && normalize(flat, self.width, self.sorted_output) == self.rows
    }
}

fn normalize(flat: &[u64], width: usize, sorted_output: bool) -> Vec<Vec<u64>> {
    if width == 0 {
        return Vec::new();
    }
    let mut rows: Vec<Vec<u64>> = flat.chunks_exact(width).map(<[u64]>::to_vec).collect();
    if !sorted_output {
        rows.sort();
    }
    rows
}

/// Rows of a plan tree from the tuple-at-a-time Volcano baseline, which
/// shares no execution code with the compiling engine.
pub fn volcano(cat: &Catalog, root: &PlanNode, dicts: &[DictTable]) -> Result<Expected, String> {
    let phys = decompose(cat, root, dicts.to_vec());
    let flat = aqe_baselines::execute_volcano(cat, root, &phys).map_err(|e| e.to_string())?;
    Ok(Expected::new(&flat, phys.output_tys.len(), phys.sorted_output))
}

/// Rows of a SQL text (literals only, no placeholders) from Volcano.
pub fn volcano_sql(cat: &Catalog, sql: &str) -> Result<Expected, String> {
    let bound = aqe_sql::plan_sql(cat, sql).map_err(|e| e.to_string())?;
    volcano(cat, &bound.root, &bound.dicts)
}
