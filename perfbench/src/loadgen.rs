//! The seeded load generator. One seed fixes the whole operation
//! sequence of a run: which queries run in which order, their bind
//! values, and (open loop) when each request and each catalog write is
//! due. The generator is pure, so `tests/loadgen.rs` can check that.

use crate::rng::Rng;
use std::time::Duration;

/// One generated operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Run corpus entry `entry`, binding `param` if the entry takes one.
    Query { entry: usize, param: Option<i64> },
    /// Re-add a table through `Engine::with_catalog_mut`: bumps the
    /// catalog version, invalidates cached results and compiled state.
    Write,
}

/// The seed of a run's `k`-th engine or server instance.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x100).wrapping_add(k)
}

/// Closed-loop draws: back-to-back seeded permutations of the corpus, so
/// every entry is drawn equally often and per-query medians stay
/// comparable. Entry `param_entry`, if any, gets a fresh bind value from
/// `param_range` on every draw.
pub struct ClosedLoop {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
    param_entry: Option<usize>,
    param_range: (i64, i64),
}

pub fn closed_loop(
    seed: u64,
    entries: usize,
    param_entry: Option<usize>,
    param_range: (i64, i64),
) -> ClosedLoop {
    assert!(entries > 0, "empty corpus");
    ClosedLoop {
        rng: Rng::new(seed),
        order: (0..entries).collect(),
        pos: entries,
        param_entry,
        param_range,
    }
}

impl Iterator for ClosedLoop {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        let entry = self.order[self.pos];
        self.pos += 1;
        let param = (Some(entry) == self.param_entry)
            .then(|| self.rng.range(self.param_range.0, self.param_range.1));
        Some(Op::Query { entry, param })
    }
}

/// The open-loop request mix of `served-mixed`. Entry 0 is the light
/// parameterized scan-aggregate, entry 1 the group-by statement.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Share of requests that are the group-by statement.
    pub group_share: f64,
    /// Share of light requests that bind a value from the hot set.
    pub hot_share: f64,
    /// Mean number of requests between catalog writes (each gap is drawn
    /// from 0.5×..1.5× of it), so the share of writes does not depend on
    /// the offered rate.
    pub write_every: u32,
    /// Bind values are drawn from this range (cents of `l_quantity`).
    pub param_range: (i64, i64),
    /// Size of the hot set of bind values.
    pub hot_values: usize,
}

pub const LIGHT: usize = 0;
pub const GROUP: usize = 1;

/// The endless operation sequence of `mix`, without due times: queries,
/// with a catalog write before every `write_every`-th of them on average.
pub fn mix_ops(seed: u64, mix: &Mix) -> impl Iterator<Item = Op> {
    let mix = mix.clone();
    let mut rng = Rng::new(seed);
    let (lo, hi) = mix.param_range;
    let hot: Vec<i64> = (0..mix.hot_values.max(1)).map(|_| rng.range(lo, hi)).collect();
    let gap = move |rng: &mut Rng| (mix.write_every as f64 * (0.5 + rng.unit())) as u64;
    let mut until_write = gap(&mut rng);
    std::iter::from_fn(move || {
        if until_write == 0 {
            until_write = gap(&mut rng);
            return Some(Op::Write);
        }
        until_write -= 1;
        let op = if rng.unit() < mix.group_share {
            Op::Query { entry: GROUP, param: Some(rng.range(lo, hi)) }
        } else if rng.unit() < mix.hot_share {
            Op::Query { entry: LIGHT, param: Some(hot[rng.below(hot.len() as u64) as usize]) }
        } else {
            Op::Query { entry: LIGHT, param: Some(rng.range(lo, hi)) }
        };
        Some(op)
    })
}

/// An operation and the time it is due, relative to the start of the
/// measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheduled {
    pub due: Duration,
    pub op: Op,
}

/// The open-loop schedule of `mix` over `horizon`, in due order: requests
/// at a fixed interval of `1 / rate_qps`, each write due with the request
/// it precedes.
pub fn open_loop(seed: u64, mix: &Mix, rate_qps: f64, horizon: Duration) -> Vec<Scheduled> {
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let mut due = Duration::ZERO;
    let mut out = Vec::new();
    for op in mix_ops(seed, mix) {
        if due >= horizon {
            break;
        }
        let query = matches!(op, Op::Query { .. });
        out.push(Scheduled { due, op });
        if query {
            due += interval;
        }
    }
    out
}
