//! The load generator is a pure function of its seed: the same seed
//! yields the same operation sequence (queries, bind values, write
//! points), and a different seed a different one.

use aqe_perfbench::loadgen::{closed_loop, open_loop, Op};
use aqe_perfbench::{served, warm};
use std::time::Duration;

const RATE_QPS: f64 = 400.0;

fn closed(seed: u64) -> Vec<Op> {
    closed_loop(seed, 24, Some(23), warm::Q6_RANGE).take(500).collect()
}

fn open(seed: u64) -> Vec<(Duration, Op)> {
    open_loop(seed, &served::MIX, RATE_QPS, Duration::from_secs(3))
        .into_iter()
        .map(|s| (s.due, s.op))
        .collect()
}

#[test]
fn closed_loop_is_a_function_of_the_seed() {
    assert_eq!(closed(7), closed(7));
    assert_ne!(closed(7), closed(8));
}

#[test]
fn closed_loop_draws_every_entry_equally_often() {
    let ops = closed(3);
    let mut counts = [0usize; 24];
    for op in &ops[..480] {
        let Op::Query { entry, param } = op else { panic!("closed loops do not write") };
        counts[*entry] += 1;
        assert_eq!(param.is_some(), *entry == 23, "only the parameterized entry binds");
        if let Some(v) = param {
            assert!((warm::Q6_RANGE.0..warm::Q6_RANGE.1).contains(v));
        }
    }
    assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
}

#[test]
fn open_loop_is_a_function_of_the_seed() {
    let a = open(7);
    assert_eq!(a, open(7));
    let b = open(8);
    assert_ne!(a, b);
    // Different seeds move the write points, not just the bind values.
    let writes = |ops: &[(Duration, Op)]| -> Vec<Duration> {
        ops.iter().filter(|(_, op)| *op == Op::Write).map(|(d, _)| *d).collect()
    };
    assert_ne!(writes(&a), writes(&b));
}

#[test]
fn open_loop_offers_the_rate_with_writes_and_both_statements() {
    let ops = open(1);
    let queries = ops.iter().filter(|(_, op)| matches!(op, Op::Query { .. })).count();
    let expected = (RATE_QPS * 3.0) as usize;
    assert!(queries.abs_diff(expected) <= 1, "{queries} vs {expected}");
    assert!(ops.windows(2).all(|w| w[0].0 <= w[1].0), "schedule is in due order");
    // One write per `write_every` requests on average, whatever the rate.
    let writes = ops.iter().filter(|(_, op)| *op == Op::Write).count();
    let mean = queries / served::MIX.write_every as usize;
    assert!((mean * 2 / 3..=mean * 2).contains(&writes), "{writes} writes, {queries} requests");
    for entry in [0, 1] {
        assert!(ops.iter().any(|(_, op)| matches!(op, Op::Query { entry: e, .. } if *e == entry)));
    }
}
