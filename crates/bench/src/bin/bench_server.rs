//! Front-door server benchmark (DESIGN.md §13): the serving path end to
//! end over real loopback sockets — framed protocol, epoll event loop,
//! admission control, executor pool, cooperative cancellation.
//!
//! Scenarios:
//!
//! * `capacity` — closed-loop saturation: M connections hammering a warm
//!   parameterized statement as fast as replies come back. The measured
//!   qps calibrates every open-loop scenario below.
//! * `open_loop` — clients send on a fixed schedule (open loop, so
//!   latency includes any queueing the server builds up — no coordinated
//!   omission) at a fraction of capacity, while one background
//!   connection runs a heavy 24-aggregate query in a closed loop.
//!   Reports sustained qps and scheduled-send-to-reply p50/p99.
//! * `cancel_latency` — against a bytecode-pinned server where the heavy
//!   query runs for whole seconds: submit, let it get deep into the
//!   scan, send `CANCEL`, and measure frame-to-error-frame latency — the
//!   distribution of how fast the morsel loop observes poison. Also
//!   reports deadline overshoot (actual stop time past a 100 ms
//!   deadline) for the deadline path.
//! * `shed_rate` — offered load swept past capacity against a tiny
//!   admission queue, half the traffic low-priority and half high.
//!   Reports shed fraction per tier and goodput per offered point: the
//!   low tier should absorb nearly all of the shedding.
//!
//! Knobs: `AQE_SF` (scale factor, default 0.05), `AQE_SERVER_SECS`
//! (seconds per measurement point, default 2.0), `AQE_BENCH_OUT`
//! (output path, default `BENCH_PR8.json`). `--smoke` shrinks everything
//! for CI and defaults the output to a temp path.

use aqe_bench::env_sf;
use aqe_engine::exec::{ExecMode, ExecOptions, ParamValue};
use aqe_engine::session::Engine;
use aqe_server::{Client, ClientError, ErrorCode, Server, ServerConfig, ServerHandle};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The light statement: parameterized single-pipeline aggregation, the
/// OLTP-ish unit of serving traffic.
const LIGHT_SQL: &str =
    "SELECT count(*) AS n, sum(l_extendedprice) AS v FROM lineitem WHERE l_quantity < ?";

/// The heavy statement: 24 checked aggregate expressions over the scan —
/// seconds of work on the interpreter, a solid background load when
/// compiled.
fn heavy_sql() -> String {
    let aggs: Vec<String> =
        (0..24).map(|k| format!("sum(l_quantity * {} + l_extendedprice) as s{k}", k + 1)).collect();
    format!("select {} from lineitem", aggs.join(", "))
}

fn spawn_server(
    engine: &Arc<Engine>,
    workers: usize,
    queue_capacity: usize,
    mode: ExecMode,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = ServerConfig {
        workers,
        queue_capacity,
        exec: ExecOptions { mode, threads: 1, cache_results: false, ..Default::default() },
        ..Default::default()
    };
    Server::spawn(engine.clone(), config).expect("spawn server")
}

/// Deterministic per-thread LCG (no rand dependency in the hot path).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// A bind value in cents, spread over the quantity domain.
    fn qty_param(&mut self) -> ParamValue {
        ParamValue::I64(((self.next_u64() % 45) as i64 + 3) * 100)
    }
}

// ---------------------------------------------------------------------------
// Closed-loop capacity
// ---------------------------------------------------------------------------

struct Capacity {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    executions: u64,
    /// Requests the server answered with an error frame (a shed, when the
    /// queue holds fewer requests than there are connections).
    rejected: u64,
}

/// Closed-loop throughput of row replies over `conns` connections. Error
/// replies are counted, not fatal, the way `open_loop` counts them: a
/// warm-up against a queue smaller than `conns` is shed by design.
fn measure_capacity(addr: std::net::SocketAddr, conns: usize, secs: f64) -> Capacity {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let mut lat: Vec<Vec<f64>> = Vec::new();
    let mut rejected = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|tid| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let stmt = client.prepare(LIGHT_SQL).expect("prepare");
                    let mut rng = Lcg::new(tid as u64);
                    let (mut lats, mut rejected) = (Vec::new(), 0u64);
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        match client.execute(&stmt, &[rng.qty_param()]) {
                            Ok(_) => lats.push(ms(t.elapsed())),
                            Err(ClientError::Server { .. }) => rejected += 1,
                            Err(e) => panic!("capacity execute failed: {e}"),
                        }
                    }
                    (lats, rejected)
                })
            })
            .collect();
        for h in handles {
            let (lats, r) = h.join().expect("capacity conn");
            lat.push(lats);
            rejected += r;
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all: Vec<f64> = lat.into_iter().flatten().collect();
    all.sort_by(|a, b| a.total_cmp(b));
    Capacity {
        qps: all.len() as f64 / wall,
        p50_ms: percentile(&all, 0.50),
        p99_ms: percentile(&all, 0.99),
        executions: all.len() as u64,
        rejected,
    }
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OpenLoopPoint {
    offered_qps: f64,
    sent: u64,
    rows: u64,
    shed_low: u64,
    shed_high: u64,
    other_errors: u64,
    /// Scheduled-send → reply, in ms (includes server queueing *and*
    /// any client-side send slip: open loop, no coordinated omission).
    latencies: Vec<f64>,
}

/// Drive one connection open-loop at `rate` requests/second for `secs`.
/// `priorities` alternate per request when `split_priority` is set
/// (even → low tier 0, odd → high tier 2); otherwise everything is
/// normal priority.
fn open_loop_conn(
    addr: std::net::SocketAddr,
    rate: f64,
    secs: f64,
    seed: u64,
    split_priority: bool,
) -> OpenLoopPoint {
    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_millis(1))).expect("timeout");
    let stmt = client.prepare(LIGHT_SQL).expect("prepare");
    let mut rng = Lcg::new(seed);
    let mut point = OpenLoopPoint { offered_qps: rate, ..Default::default() };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let horizon = Duration::from_secs_f64(secs);
    // request id -> (scheduled send time, priority)
    let mut outstanding: std::collections::HashMap<u64, (Instant, u8)> =
        std::collections::HashMap::new();

    let absorb = |resp: Result<aqe_server::Response, ClientError>,
                  outstanding: &mut std::collections::HashMap<u64, (Instant, u8)>,
                  point: &mut OpenLoopPoint|
     -> bool {
        match resp {
            Ok(aqe_server::Response::Rows { request_id, .. }) => {
                if let Some((sched, _)) = outstanding.remove(&request_id) {
                    point.rows += 1;
                    point.latencies.push(ms(sched.elapsed()));
                }
                true
            }
            Ok(aqe_server::Response::Error { request_id, code, .. }) => {
                if let Some((_, prio)) = outstanding.remove(&request_id) {
                    if code == ErrorCode::Shed {
                        if prio == 0 {
                            point.shed_low += 1;
                        } else {
                            point.shed_high += 1;
                        }
                    } else {
                        point.other_errors += 1;
                    }
                }
                true
            }
            Ok(_) => true,
            Err(ClientError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                false
            }
            Err(e) => panic!("open-loop receive failed: {e}"),
        }
    };

    let mut i: u64 = 0;
    loop {
        let sched = start + interval.mul_f64(i as f64);
        if sched.duration_since(start) >= horizon {
            break;
        }
        // Drain replies while waiting for the next scheduled send.
        while Instant::now() < sched {
            if !absorb(client.recv(), &mut outstanding, &mut point) {
                // Nothing ready: the 1 ms read timeout already slept.
            }
        }
        let priority = if split_priority {
            if i.is_multiple_of(2) {
                0
            } else {
                2
            }
        } else {
            1
        };
        let req = client.submit(&stmt, &[rng.qty_param()], priority, 0).expect("open-loop submit");
        outstanding.insert(req, (sched, priority));
        point.sent += 1;
        i += 1;
    }
    // Drain the tail.
    client.set_read_timeout(Some(Duration::from_millis(200))).expect("timeout");
    let drain_deadline = Instant::now() + Duration::from_secs(20);
    while !outstanding.is_empty() && Instant::now() < drain_deadline {
        let _ = absorb(client.recv(), &mut outstanding, &mut point);
    }
    point
}

fn merge(points: Vec<OpenLoopPoint>) -> OpenLoopPoint {
    let mut out = OpenLoopPoint::default();
    for p in points {
        out.offered_qps += p.offered_qps;
        out.sent += p.sent;
        out.rows += p.rows;
        out.shed_low += p.shed_low;
        out.shed_high += p.shed_high;
        out.other_errors += p.other_errors;
        out.latencies.extend(p.latencies);
    }
    out.latencies.sort_by(|a, b| a.total_cmp(b));
    out
}

fn open_loop(
    addr: std::net::SocketAddr,
    conns: usize,
    total_rate: f64,
    secs: f64,
    split_priority: bool,
) -> OpenLoopPoint {
    let per_conn = total_rate / conns as f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|tid| {
                scope.spawn(move || {
                    open_loop_conn(addr, per_conn, secs, 0xC0FFEE + tid as u64, split_priority)
                })
            })
            .collect();
        merge(handles.into_iter().map(|h| h.join().expect("open-loop conn")).collect())
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sf = env_sf(if smoke { 0.01 } else { 0.05 });
    let secs: f64 = std::env::var("AQE_SERVER_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 0.3 } else { 2.0 });
    let out_path = std::env::var("AQE_BENCH_OUT").unwrap_or_else(|_| {
        if smoke {
            "/tmp/bench_server_smoke.json".to_string()
        } else {
            "BENCH_PR8.json".into()
        }
    });
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = cpus.clamp(1, 4);
    let conns = (cpus * 2).clamp(2, 8);

    eprintln!("generating TPC-H SF {sf}… ({cpus} cpus, {workers} workers, {conns} conns)");
    let cat = aqe_storage::tpch::generate(sf);

    // ---- scenario: closed-loop capacity -----------------------------------
    let engine = Arc::new(Engine::new(cat.clone()));
    let (handle, join) = spawn_server(&engine, workers, 64, ExecMode::Adaptive);
    let addr = handle.addr();
    // Warm the serving path before measuring.
    let _ = measure_capacity(addr, conns, secs.min(0.5));
    let capacity = measure_capacity(addr, conns, secs);
    assert_eq!(capacity.rejected, 0, "the capacity queue holds every connection");
    eprintln!(
        "capacity:    {:>8.0} qps closed-loop  p50 {:>7.3} ms  p99 {:>7.3} ms  ({} executions)",
        capacity.qps, capacity.p50_ms, capacity.p99_ms, capacity.executions
    );

    // ---- scenario: open-loop sustained load with heavy background ---------
    // One background connection runs the heavy query in a closed loop the
    // whole time; the open-loop clients share the remaining capacity.
    let stop_bg = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let heavy_done = {
        let stop = stop_bg.clone();
        let heavy = heavy_sql();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("bg connect");
            let stmt = client.prepare(&heavy).expect("bg prepare");
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                client.execute(&stmt, &[]).expect("bg execute");
                n += 1;
            }
            n
        })
    };
    let sustained_rate = (capacity.qps * 0.5).max(4.0);
    let sustained = open_loop(addr, conns, sustained_rate, secs, false);
    stop_bg.store(true, std::sync::atomic::Ordering::Release);
    let heavy_runs = heavy_done.join().expect("background thread");
    let achieved = sustained.rows as f64 / secs;
    eprintln!(
        "open-loop:   offered {:>7.0} qps  answered {:>7.0} qps  p50 {:>7.3} ms  \
         p99 {:>7.3} ms  ({} heavy queries in background)",
        sustained.offered_qps,
        achieved,
        percentile(&sustained.latencies, 0.50),
        percentile(&sustained.latencies, 0.99),
        heavy_runs,
    );
    handle.shutdown();
    join.join().unwrap().unwrap();

    // ---- scenario: cancel latency -----------------------------------------
    // A bytecode-pinned server makes the heavy query run long enough that
    // every cancel lands mid-scan.
    let engine2 = Arc::new(Engine::new(cat.clone()));
    let (handle, join) = spawn_server(&engine2, 2, 16, ExecMode::Bytecode);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let stmt = client.prepare(&heavy_sql()).expect("prepare heavy");
    let t_full = Instant::now();
    client.execute(&stmt, &[]).expect("calibrate heavy");
    let full = t_full.elapsed();
    let iters = if smoke { 5 } else { 30 };
    let mut cancel_lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let req = client.submit(&stmt, &[], 1, 0).expect("submit");
        std::thread::sleep(full / 4);
        let t0 = Instant::now();
        client.cancel(req).expect("cancel");
        match client.wait(req) {
            Err(ClientError::Server { code: ErrorCode::Cancelled, .. }) => {
                cancel_lat.push(ms(t0.elapsed()));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }
    cancel_lat.sort_by(|a, b| a.total_cmp(b));
    // Deadline path: how far past the deadline the error actually lands.
    // The deadline is a quarter of the measured runtime so it always
    // expires mid-scan regardless of scale factor.
    let deadline_ms = ((ms(full) / 4.0).max(1.0)).round() as u32;
    let mut overshoot = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        match client.execute_with(&stmt, &[], 1, deadline_ms) {
            Err(ClientError::Server { code: ErrorCode::DeadlineExceeded, .. }) => {
                overshoot.push(ms(t0.elapsed()) - deadline_ms as f64);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    overshoot.sort_by(|a, b| a.total_cmp(b));
    eprintln!(
        "cancel:      heavy query runs {:.0} ms; cancel→error p50 {:>7.3} ms  p99 {:>7.3} ms  \
         max {:>7.3} ms ({} cancels); deadline overshoot p50 {:>7.3} ms  p99 {:>7.3} ms",
        ms(full),
        percentile(&cancel_lat, 0.50),
        percentile(&cancel_lat, 0.99),
        cancel_lat.last().copied().unwrap_or(0.0),
        cancel_lat.len(),
        percentile(&overshoot, 0.50),
        percentile(&overshoot, 0.99),
    );
    let cancel_stats = engine2.server_stats();
    handle.shutdown();
    join.join().unwrap().unwrap();

    // ---- scenario: shed rate vs offered load ------------------------------
    // Tiny queue, priority-split traffic: the shed curve should rise past
    // capacity and land almost entirely on the low tier.
    let engine3 = Arc::new(Engine::new(cat));
    let (handle, join) = spawn_server(&engine3, workers, 2, ExecMode::Adaptive);
    let addr = handle.addr();
    let _ = measure_capacity(addr, conns, secs.min(0.5)); // warm
    let mut shed_points = Vec::new();
    for factor in [0.5, 1.0, 1.5, 2.0] {
        let rate = (capacity.qps * factor).max(4.0);
        let p = open_loop(addr, conns, rate, secs, true);
        let answered = p.rows + p.shed_low + p.shed_high + p.other_errors;
        let shed_rate =
            if answered > 0 { (p.shed_low + p.shed_high) as f64 / answered as f64 } else { 0.0 };
        eprintln!(
            "shed:        offered {:>7.0} qps ({factor:>3.1}x)  goodput {:>7.0} qps  \
             shed {:>5.1}% (low {:>4}, high {:>4})",
            p.offered_qps,
            p.rows as f64 / secs,
            shed_rate * 100.0,
            p.shed_low,
            p.shed_high,
        );
        shed_points.push((factor, p));
    }
    let shed_stats = engine3.server_stats();
    handle.shutdown();
    join.join().unwrap().unwrap();

    // ---- JSON -------------------------------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"bench_server\": {{\n    \"config\": {{\"sf\": {sf}, \"secs\": {secs}, \
         \"cpus\": {cpus}, \"workers\": {workers}, \"conns\": {conns}, \"smoke\": {smoke}}},"
    );
    let _ = writeln!(
        j,
        "    \"capacity\": {{\"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"executions\": {}}},",
        capacity.qps, capacity.p50_ms, capacity.p99_ms, capacity.executions
    );
    let _ = writeln!(
        j,
        "    \"open_loop\": {{\"offered_qps\": {:.1}, \"answered_qps\": {:.1}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"sent\": {}, \"rows\": {}, \
         \"heavy_background_runs\": {}}},",
        sustained.offered_qps,
        achieved,
        percentile(&sustained.latencies, 0.50),
        percentile(&sustained.latencies, 0.99),
        sustained.sent,
        sustained.rows,
        heavy_runs
    );
    let _ = writeln!(
        j,
        "    \"cancel_latency\": {{\"heavy_full_ms\": {:.1}, \"cancels\": {}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}, \
         \"deadline_ms\": {deadline_ms}, \
         \"deadline_overshoot_p50_ms\": {:.3}, \"deadline_overshoot_p99_ms\": {:.3}, \
         \"engine_cancelled\": {}, \"engine_deadline_expired\": {}}},",
        ms(full),
        cancel_lat.len(),
        percentile(&cancel_lat, 0.50),
        percentile(&cancel_lat, 0.99),
        cancel_lat.last().copied().unwrap_or(0.0),
        percentile(&overshoot, 0.50),
        percentile(&overshoot, 0.99),
        cancel_stats.cancelled,
        cancel_stats.deadline_expired
    );
    let shed_json: Vec<String> = shed_points
        .iter()
        .map(|(factor, p)| {
            let answered = p.rows + p.shed_low + p.shed_high + p.other_errors;
            format!(
                "{{\"offered_factor\": {factor}, \"offered_qps\": {:.1}, \
                 \"goodput_qps\": {:.1}, \"shed_rate\": {:.4}, \"shed_low\": {}, \
                 \"shed_high\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                p.offered_qps,
                p.rows as f64 / secs,
                if answered > 0 {
                    (p.shed_low + p.shed_high) as f64 / answered as f64
                } else {
                    0.0
                },
                p.shed_low,
                p.shed_high,
                percentile(&p.latencies, 0.50),
                percentile(&p.latencies, 0.99),
            )
        })
        .collect();
    let _ = writeln!(j, "    \"shed_rate\": [{}],", shed_json.join(", "));
    let _ = writeln!(
        j,
        "    \"shed_server_stats\": {{\"accepted\": {}, \"shed\": {}, \"cancelled\": {}}}",
        shed_stats.accepted, shed_stats.shed, shed_stats.cancelled
    );
    let _ = writeln!(j, "  }}\n}}");

    std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(j.as_bytes()))
        .expect("write benchmark output");
    eprintln!("\nwrote {out_path}");
}
