//! Closed-loop accounting. A closed-loop operation that fails fails the
//! run: it leaves no latency sample, so it must not silently drop out of
//! the metrics.

use aqe_perfbench::closed::{drive, LoopResult, OpRecord};
use aqe_perfbench::loadgen::closed_loop;
use aqe_perfbench::Outcome;

#[test]
fn failed_operations_make_the_run_incorrect() {
    let res = drive(
        &[],
        closed_loop(1, 3, None, (0, 1)),
        0.01,
        false,
        |entry, _, _| Err(format!("entry {entry} failed")),
        |_| None,
    );
    assert!(res.attempted > 0);
    let mut out = Outcome::default();
    res.summarize(3, &mut out, false);
    assert_eq!(out.failed, out.attempted);
    assert_eq!(out.errors, out.attempted);
    assert_eq!(out.wrong, 0);
    assert!(!out.correct());
}

/// Throughput is taken over whole passes only, and the passes of a later
/// instance stay apart from the earlier instance's last one.
#[test]
fn pass_throughput_counts_whole_passes_of_each_instance() {
    let rec = |pass, at_s, ms| OpRecord {
        entry: 0,
        pass,
        at_s,
        ms,
        traced: false,
        ok: true,
        cold_build: false,
    };
    let mut first = LoopResult {
        records: vec![rec(0, 0.0, 100.0), rec(0, 0.1, 100.0), rec(1, 0.2, 100.0)],
        ..Default::default()
    };
    let second =
        LoopResult { records: vec![rec(0, 0.0, 50.0), rec(0, 0.05, 50.0)], ..Default::default() };
    first.append(second);
    let qps = first.pass_throughput(2);
    assert_eq!(qps.len(), 2, "{qps:?}");
    assert!((qps[0] - 10.0).abs() < 1e-9 && (qps[1] - 20.0).abs() < 1e-9, "{qps:?}");
}
