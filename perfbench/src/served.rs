//! `served-mixed`: the serving path. An in-process `aqe_server::Server`
//! on loopback (SF 0.01, result cache on) is driven open loop over one
//! connection at a fixed offered rate. Most requests are a light
//! parameterized scan-aggregate whose bind values come from a small hot
//! set (result-cache hits) or a wide range (warm-code misses); a share
//! are a group-by; and catalog writes between them invalidate cached
//! results and force cold rebuilds. Each request is timed from when it
//! was due, so queueing shows (no coordinated omission).
//!
//! The generator speaks `aqe_server::protocol` over a socket split
//! between two threads (this one sends each request when it is due, a
//! reader thread timestamps replies) rather than through
//! `aqe_server::Client`: the client waits for replies with `SO_RCVTIMEO`,
//! whose timer-tick granularity made the generator send up to 10 ms late.

use crate::corpus::{Entry, Oracle, Source};
use crate::layers::{self, Counters};
use crate::loadgen::{instance_seed, mix_ops, open_loop, Mix, Op, Scheduled};
use crate::stats::{geomean_of_quantiles, latched_frac, median, quantile, sorted, LATCH_FACTOR};
use crate::{peak_rss_mb, rss_mb, us, Outcome, RunConfig, THREADS};
use aqe_bench::ms;
use aqe_engine::exec::{ExecOptions, ParamValue};
use aqe_engine::session::Engine;
use aqe_server::protocol::{FrameBuf, HEADER};
use aqe_server::{ErrorCode, Request, Response, Server, ServerConfig, ServerHandle};
use aqe_storage::Catalog;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SF: f64 = 0.01;

pub const LIGHT_SQL: &str =
    "SELECT count(*) AS n, sum(l_extendedprice) AS v FROM lineitem WHERE l_quantity < ?";
pub const GROUP_SQL: &str = "SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS q \
     FROM lineitem WHERE l_quantity < ? GROUP BY l_returnflag ORDER BY l_returnflag";

/// The request mix. Its bind range follows from the data: TPC-H draws
/// `l_quantity` uniformly from 1..=50 (spec §4.2.3) and the generator
/// stores it in cents, so `l_quantity < v` for `v` in 1.00..51.00 spans
/// selectivities from 0 to 100 %. The shares are illustrative: no trace
/// or published workload gives them for an engine like this one. They
/// are chosen so that every serving path carries traffic: 30 % of light
/// requests bind one of 4 hot values (result-cache hits between writes),
/// 15 % of requests are the group-by, and one catalog write per 100
/// requests (1 %) invalidates both statements, so about 2 % of requests
/// pay a cold rebuild.
pub const MIX: Mix = Mix {
    group_share: 0.15,
    hot_share: 0.3,
    write_every: 100,
    param_range: (100, 5100),
    hot_values: 4,
};

/// The nominal offered rate the end-to-end metrics are taken at. It is
/// fixed, so that runs compare at equal offered load, and set to a
/// quarter of the lowest closed-loop capacity of the mix seen on the
/// reference host (2 vCPUs; ten probes like the traced run's
/// `server.capacity_qps` ranged 1087–1907 qps, the low end under host
/// CPU steal): half load, as `bench_server` offers, even when host steal
/// halves the capacity again.
pub const NOMINAL_QPS: f64 = 270.0;
/// Admission queue capacity. Deep enough to hold every request due in
/// the [`DRAIN`] window at the nominal rate, so that a host stall shows
/// as queueing latency rather than as shed requests; shedding is not
/// what this workload measures.
const QUEUE_CAPACITY: usize = 2048;
/// How long the capacity probe runs.
const CAPACITY_PROBE: Duration = Duration::from_millis(500);
/// Requests the capacity probe keeps in flight: one running on each
/// executor and one queued behind it, so no executor waits on the client.
const WINDOW: usize = 2 * THREADS;
/// The workload's latency limit for `max_qps_at_slo` (p99); illustrative,
/// about 20× the light statement's served p50 at nominal load.
pub const SLO_MS: f64 = 20.0;
/// Offered rates of the capacity ladder, as shares of the capacity
/// measured in the traced run: from about the nominal share up to the
/// capacity itself.
const LADDER: [f64; 6] = [0.25, 0.4, 0.55, 0.7, 0.85, 1.0];
/// Each statement's latency quantile that `latency_ms` takes: the
/// median. Unlike the closed loops' back-to-back operations, served
/// requests spend much of their time waiting for thread wake-ups: their
/// fastest tenth (result-cache hits of the light statement, a tenth of a
/// millisecond) varies with how the scheduler places threads more than
/// with the engine, and the host-speed kernel does not track them (see
/// `closed`). The median over instances of each instance's median is the
/// steadier figure, and it is not scaled.
const STATEMENT_QUANTILE: f64 = 0.5;
/// Replies still missing this long after the last request was due count
/// as failed.
const DRAIN: Duration = Duration::from_secs(5);

fn entries() -> Vec<Entry> {
    [("light", LIGHT_SQL), ("group", GROUP_SQL)]
        .map(|(name, sql)| Entry { name: name.to_string(), source: Source::Sql(sql) })
        .into()
}

/// One engine thread per execution: the server's two executors already
/// use both CPUs, and two threads per execution on top of them made the
/// latency tail a measure of CPU oversubscription.
fn server_options() -> ExecOptions {
    ExecOptions { threads: 1, ..Default::default() }
}

/// A reply and when it arrived.
type Reply = (Instant, Response);

/// A running server plus one connection to it: the send half stays on
/// this thread, a reader thread forwards timestamped replies.
struct Running {
    engine: Arc<Engine>,
    handle: ServerHandle,
    join: Option<JoinHandle<io::Result<()>>>,
    stream: Option<TcpStream>,
    reader: Option<JoinHandle<()>>,
    replies: Option<Receiver<Reply>>,
    next_id: u64,
}

impl Running {
    fn start(engine: Arc<Engine>) -> Result<Running, String> {
        let config = ServerConfig {
            workers: THREADS,
            queue_capacity: QUEUE_CAPACITY,
            exec: server_options(),
            ..Default::default()
        };
        let (handle, join) =
            Server::spawn(engine.clone(), config).map_err(|e| format!("server: {e}"))?;
        let mut run = Running {
            engine,
            handle,
            join: Some(join),
            stream: None,
            reader: None,
            replies: None,
            next_id: 1,
        };
        let stream = TcpStream::connect(run.handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        // Non-blocking (for both halves: they share one file description),
        // so neither load thread ever blocks; see `drive`.
        stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        let mut read_half = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let (tx, rx) = channel();
        run.stream = Some(stream);
        run.replies = Some(rx);
        run.reader = Some(std::thread::spawn(move || {
            let mut buf = FrameBuf::new();
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                loop {
                    match buf.next_body() {
                        Ok(Some(body)) => {
                            let Ok(resp) = Response::decode(body) else { return };
                            if tx.send((Instant::now(), resp)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
                match read_half.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => buf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }));
        Ok(run)
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let stream = self.stream.as_mut().ok_or("not connected")?;
        let frame = req.encode();
        let mut sent = 0;
        while sent < frame.len() {
            match stream.write(&frame[sent..]) {
                Ok(0) => return Err("send: connection closed".into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    fn reply(&self, timeout: Duration) -> Result<Option<Reply>, String> {
        match self.replies.as_ref().ok_or("not connected")?.recv_timeout(timeout) {
            Ok(r) => Ok(Some(r)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("connection closed".into()),
        }
    }

    fn try_reply(&self) -> Result<Option<Reply>, String> {
        match self.replies.as_ref().ok_or("not connected")?.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err("connection closed".into()),
        }
    }

    fn prepare(&mut self, stmt_id: u64, sql: &str) -> Result<(), String> {
        self.send(&Request::Prepare { stmt_id, sql: sql.to_string() })?;
        match self.reply(Duration::from_secs(10))? {
            Some((_, Response::Prepared { .. })) => Ok(()),
            other => Err(format!("prepare {sql}: {other:?}")),
        }
    }

    /// Execute synchronously (set-up only).
    fn execute(&mut self, stmt_id: u64, v: i64) -> Result<(), String> {
        let request_id = self.next_id;
        self.next_id += 1;
        let params = vec![ParamValue::I64(v)];
        self.send(&Request::Execute { stmt_id, request_id, priority: 1, deadline_ms: 0, params })?;
        match self.reply(Duration::from_secs(10))? {
            Some((_, Response::Rows { .. })) => Ok(()),
            other => Err(format!("execute: {other:?}")),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Statement ids on the connection, by corpus entry.
const STMT_IDS: [u64; 2] = [1, 2];

/// Data generation, server start-up, connection, statement preparation,
/// and a warm-up round of both statements.
fn setup() -> Result<(Catalog, Running), String> {
    let data = aqe_storage::tpch::generate(SF);
    let engine = Arc::new(Engine::with_defaults(data.clone(), server_options()));
    let mut run = Running::start(engine)?;
    for (id, sql) in STMT_IDS.iter().zip([LIGHT_SQL, GROUP_SQL]) {
        run.prepare(*id, sql)?;
    }
    for k in 0..20 {
        for id in STMT_IDS {
            run.execute(id, 300 + 250 * k)?;
        }
    }
    Ok((data, run))
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    /// Scheduled-send → reply latency of correct replies, per statement.
    latency: Vec<Vec<f64>>,
    /// How late each request was sent.
    lag: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Requests refused or dropped under load: shed, backpressure and
    /// deadline replies, and replies missing after the drain window.
    overload: u64,
    /// Requests that failed otherwise: engine errors, broken connection.
    errors: u64,
    good: u64,
    elapsed_s: f64,
    /// Requests still unanswered when the last one was sent.
    backlog: usize,
    queued_peak: i64,
    /// The first few failures, for the log.
    messages: Vec<String>,
    /// A sample of (statement, bind value, latency) for the in-process
    /// comparison, and of the frames exchanged.
    pairs: Vec<(usize, i64, f64)>,
    requests: Vec<Request>,
    responses: Vec<Response>,
}

impl Phase {
    fn new() -> Phase {
        Phase { latency: vec![Vec::new(); STMT_IDS.len()], ..Default::default() }
    }

    fn all_latencies(&self) -> Vec<f64> {
        sorted(self.latency.iter().flatten().copied().collect())
    }

    fn message(&mut self, e: String) {
        if self.messages.len() < 5 {
            self.messages.push(e);
        }
    }
}

const RECORD: usize = 400;

/// Requests sent and not yet answered: request id → (due, statement,
/// bind value).
type Outstanding = HashMap<u64, (Instant, usize, i64)>;

/// Account one reply against the request it answers.
fn absorb(
    ph: &mut Phase,
    oracles: &[Oracle],
    outstanding: &mut Outstanding,
    (at, resp): Reply,
    record: bool,
) {
    let rid = match &resp {
        Response::Rows { request_id, .. } | Response::Error { request_id, .. } => *request_id,
        _ => return,
    };
    let Some((due, entry, v)) = outstanding.remove(&rid) else { return };
    match &resp {
        Response::Rows { rows, .. } => {
            if oracles[entry].expected(Some(v)).is_some_and(|w| w.matches(rows)) {
                let lat = ms(at.saturating_duration_since(due));
                ph.good += 1;
                ph.latency[entry].push(lat);
                if record && ph.pairs.len() < RECORD {
                    ph.pairs.push((entry, v, lat));
                }
            } else {
                ph.failed += 1;
                ph.wrong += 1;
                ph.message(format!("statement {entry} value {v}: rows differ from the oracle"));
            }
        }
        Response::Error { code, message, .. } => {
            ph.failed += 1;
            match code {
                ErrorCode::Shed | ErrorCode::Backpressure | ErrorCode::DeadlineExceeded => {
                    ph.overload += 1
                }
                _ => ph.errors += 1,
            }
            ph.message(format!("statement {entry}: {code:?}: {message}"));
        }
        _ => {}
    }
    if record && ph.responses.len() < RECORD {
        ph.responses.push(resp);
    }
}

/// Send one operation due at `due`: a request over the connection, or a
/// catalog write straight to the engine.
fn issue(
    run: &mut Running,
    ph: &mut Phase,
    out: &mut Outstanding,
    op: &Op,
    due: Instant,
    record: bool,
) {
    ph.attempted += 1;
    match *op {
        Op::Write => run.engine.with_catalog_mut(|c| {
            if let Some(t) = c.get("region").cloned() {
                c.add((*t).clone());
            }
        }),
        Op::Query { entry, param } => {
            let v = param.unwrap_or(0);
            let request_id = run.next_id;
            run.next_id += 1;
            let req = Request::Execute {
                stmt_id: STMT_IDS[entry],
                request_id,
                priority: 1,
                deadline_ms: 0,
                params: vec![ParamValue::I64(v)],
            };
            ph.lag.push(ms(due.elapsed()));
            match run.send(&req) {
                Ok(()) => {
                    out.insert(request_id, (due, entry, v));
                }
                Err(e) => {
                    ph.failed += 1;
                    ph.errors += 1;
                    ph.message(e);
                }
            }
            if record && ph.requests.len() < RECORD {
                ph.requests.push(req);
            }
        }
    }
}

/// Wait up to [`DRAIN`] for the replies still outstanding. Those that
/// do not come count as failed: under load if the connection is intact,
/// as errors if it broke.
fn drain(run: &Running, ph: &mut Phase, oracles: &[Oracle], out: &mut Outstanding, record: bool) {
    let drain_until = Instant::now() + DRAIN;
    let mut broken = false;
    while !out.is_empty() {
        let now = Instant::now();
        if now >= drain_until {
            break;
        }
        match run.reply(drain_until - now) {
            Ok(Some(r)) => absorb(ph, oracles, out, r, record),
            Ok(None) => {}
            Err(e) => {
                ph.message(e);
                broken = true;
                break;
            }
        }
    }
    if !out.is_empty() {
        let missing = out.len() as u64;
        ph.failed += missing;
        if broken {
            ph.errors += missing;
        } else {
            ph.overload += missing;
        }
        ph.message(format!("{missing} replies missing after the drain window"));
    }
}

fn drive(run: &mut Running, oracles: &[Oracle], schedule: &[Scheduled], record: bool) -> Phase {
    let mut ph = Phase::new();
    let mut outstanding = Outstanding::new();
    let start = Instant::now();
    for s in schedule {
        let due = start + s.due;
        // Poll until due, yielding between polls, taking replies that
        // arrive meanwhile. Both load threads poll rather than block:
        // a blocked thread lets its vCPU halt, and on a virtual machine
        // waking it again costs up to milliseconds of host scheduling
        // latency, which would show up as server latency. Yielding hands
        // the CPU to any runnable server thread at once.
        while Instant::now() < due {
            match run.try_reply() {
                Ok(Some(r)) => absorb(&mut ph, oracles, &mut outstanding, r, record),
                Ok(None) => std::thread::yield_now(),
                Err(e) => {
                    ph.message(e);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
            }
        }
        issue(run, &mut ph, &mut outstanding, &s.op, due, record);
        ph.queued_peak = ph.queued_peak.max(run.engine.server_stats().queued as i64);
    }
    ph.backlog = outstanding.len();
    drain(run, &mut ph, oracles, &mut outstanding, record);
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph
}

/// The mix's closed-loop capacity in correct replies per second: its
/// operations (writes included) sent back to back for
/// [`CAPACITY_PROBE`], [`WINDOW`] requests in flight.
fn capacity(run: &mut Running, oracles: &[Oracle], seed: u64) -> Phase {
    let mut ph = Phase::new();
    let mut outstanding = Outstanding::new();
    let mut ops = mix_ops(seed, &MIX);
    let start = Instant::now();
    while start.elapsed() < CAPACITY_PROBE {
        if outstanding.len() < WINDOW {
            let op = ops.next().expect("the mix is endless");
            issue(run, &mut ph, &mut outstanding, &op, Instant::now(), false);
            continue;
        }
        match run.try_reply() {
            Ok(Some(r)) => absorb(&mut ph, oracles, &mut outstanding, r, false),
            Ok(None) => std::thread::yield_now(),
            Err(e) => {
                ph.message(e);
                break;
            }
        }
    }
    drain(run, &mut ph, oracles, &mut outstanding, false);
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph
}

/// Independent server instances per run, each on a fresh engine and
/// each measured at the nominal rate for an equal share of the run. The
/// engine's calibration store can latch into a model under which nothing
/// is worth compiling (one compile slowed by a preempted CPU is enough),
/// and then that instance serves from bytecode for the rest of its life.
/// The end-to-end metrics take each figure's median over instances, so
/// one such instance does not decide the run; how often instances latch
/// is the traced run's `instances.latched_frac`.
const INSTANCES: u64 = 10;

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        traced(cfg)
    } else {
        untraced(cfg)
    }
}

/// Account a phase at the nominal rate. A wrong row or an error fails
/// the run; a request refused or dropped under load counts as failed
/// only (a host stall can shed at any rate).
fn note_phase(out: &mut Outcome, label: &str, entries: &[Entry], ph: &Phase) {
    out.attempted += ph.attempted;
    out.failed += ph.failed;
    out.wrong += ph.wrong;
    out.errors += ph.errors;
    for e in &ph.messages {
        out.note(format!("error: {e}"));
    }
    out.note(format!(
        "{label}: {} ops in {:.2} s, failed {} (under load {}, errors {}), wrong {}, backlog at end {}",
        ph.attempted, ph.elapsed_s, ph.failed, ph.overload, ph.errors, ph.wrong, ph.backlog
    ));
    for (e, lat) in entries.iter().zip(&ph.latency) {
        let lat = sorted(lat.clone());
        out.note(format!(
            "  {}: {} replies, p10 {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            e.name,
            lat.len(),
            quantile(&lat, 0.1),
            quantile(&lat, 0.5),
            quantile(&lat, 0.95),
            quantile(&lat, 0.99)
        ));
    }
}

/// The [`INSTANCES`] server instances at the nominal rate.
struct Nominal {
    cat: Catalog,
    oracles: Vec<Oracle>,
    setups: Vec<f64>,
    phases: Vec<Phase>,
    /// The resident set at the end of each instance's phase, in MiB.
    rss_mb: Vec<f64>,
    /// Session counters before and after each instance's phase.
    spans: Vec<(Counters, Counters)>,
    shed: u64,
    /// The last instance, still serving (the traced run probes it).
    last: Running,
}

impl Nominal {
    /// Share of instances whose p50 is latched (see [`latched_frac`]).
    fn latched_frac(&self) -> f64 {
        latched_frac(
            &self.phases.iter().map(|p| quantile(&p.all_latencies(), 0.5)).collect::<Vec<_>>(),
        )
    }
}

/// Run [`INSTANCES`] fresh instances at [`NOMINAL_QPS`] for an equal share
/// of `span` each. `record` keeps frames and bindings of the last
/// instance for the layer probes.
fn nominal(
    cfg: &RunConfig,
    span: Duration,
    record: bool,
    out: &mut Outcome,
) -> Result<Nominal, String> {
    let entries = entries();
    let slice = span / INSTANCES as u32;
    let mut oracles: Option<Vec<Oracle>> = None;
    let (mut setups, mut phases, mut spans, mut shed, mut last) =
        (Vec::new(), Vec::new(), Vec::new(), 0, None);
    let mut cat = None;
    let mut rss = Vec::new();
    for k in 1..=INSTANCES {
        drop(last.take());
        let t = Instant::now();
        let (data, mut run) = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        if oracles.is_none() {
            oracles = Some(
                entries
                    .iter()
                    .map(|e| e.oracle(&data, MIX.param_range))
                    .collect::<Result<_, _>>()?,
            );
            cat = Some(data);
        }
        let oracles = oracles.as_deref().expect("oracles");
        let seed = instance_seed(cfg.seed, k);
        let schedule = open_loop(seed, &MIX, NOMINAL_QPS, slice);
        let before = layers::counters(&run.engine);
        let shed_before = run.engine.server_stats().shed;
        let ph = drive(&mut run, oracles, &schedule, record && k == INSTANCES);
        spans.push((before, layers::counters(&run.engine)));
        rss.push(rss_mb());
        shed += run.engine.server_stats().shed - shed_before;
        note_phase(out, &format!("instance {k} at {NOMINAL_QPS} qps"), &entries, &ph);
        phases.push(ph);
        last = Some(run);
    }
    Ok(Nominal {
        cat: cat.expect("INSTANCES > 0"),
        oracles: oracles.expect("INSTANCES > 0"),
        setups,
        phases,
        rss_mb: rss,
        spans,
        shed,
        last: last.expect("INSTANCES > 0"),
    })
}

fn untraced(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nom = nominal(cfg, Duration::from_secs_f64(cfg.seconds), false, &mut out)?;
    out.note(format!(
        "latched instances (p50 over {LATCH_FACTOR}x the median instance's): {:.0} %",
        100.0 * nom.latched_frac()
    ));
    let col = |f: &dyn Fn(&Phase) -> f64| median(&nom.phases.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<String> = nom.setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!("set-ups (s): {}", setups.join(" ")));
    out.push("setup_s", median(&nom.setups), "s");
    out.push("latency_ms", col(&|p| geomean_of_quantiles(&p.latency, STATEMENT_QUANTILE)), "ms");
    out.push("throughput_qps", col(&|p| p.good as f64 / p.elapsed_s), "1/s");
    out.push("rss_mb", median(&nom.rss_mb), "MiB");
    Ok(out)
}

/// The traced run: the capacity probe on an instance of its own, then
/// half the time on the [`INSTANCES`] instances at the nominal rate (the
/// last one recording frames and bindings for the layer probes), half on
/// the capacity ladder on the last instance.
fn traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let entries = entries();
    let capacity_qps = {
        let (cat, mut probe) = setup()?;
        let oracles: Vec<Oracle> =
            entries.iter().map(|e| e.oracle(&cat, MIX.param_range)).collect::<Result<_, _>>()?;
        let cap = capacity(&mut probe, &oracles, instance_seed(cfg.seed, 0));
        out.wrong += cap.wrong;
        out.errors += cap.errors;
        for e in &cap.messages {
            out.note(format!("error: capacity probe: {e}"));
        }
        out.note(format!(
            "capacity: {} correct replies in {:.2} s, {WINDOW} in flight",
            cap.good, cap.elapsed_s
        ));
        cap.good as f64 / cap.elapsed_s
    };
    out.push("server.capacity_qps", capacity_qps, "1/s");
    let nom = nominal(cfg, Duration::from_secs_f64(cfg.seconds / 2.0), true, &mut out)?;
    out.push("instances.latched_frac", nom.latched_frac(), "fraction");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    let Nominal { cat, oracles, phases, spans, shed, last: mut run, .. } = nom;
    let medians: Vec<f64> =
        phases.iter().map(|p| geomean_of_quantiles(&p.latency, STATEMENT_QUANTILE)).collect();
    out.push("raw_latency_ms", median(&medians), "ms");
    let goodput: Vec<f64> = phases.iter().map(|p| p.good as f64 / p.elapsed_s).collect();
    out.push("raw_throughput_qps", median(&goodput), "1/s");
    out.push("geomean_ms", median(&medians), "ms");
    let all = sorted(phases.iter().flat_map(Phase::all_latencies).collect());
    out.push("latency_p50_ms", quantile(&all, 0.50), "ms");
    out.push("latency_p95_ms", quantile(&all, 0.95), "ms");
    out.push("latency_p99_ms", quantile(&all, 0.99), "ms");

    layers::push_session_layers(&mut out, &spans);
    let cold: u64 = spans.iter().map(|(b, a)| a.1.cold_builds - b.1.cold_builds).sum();
    out.push("server.shed", shed as f64, "count");
    let queued_peak = phases.iter().map(|p| p.queued_peak).max().unwrap_or(0);
    out.push("server.queued_peak", queued_peak as f64, "count");
    let lag = sorted(phases.iter().flat_map(|p| p.lag.iter().copied()).collect());
    out.push("loadgen.lag_p99_ms", quantile(&lag, 0.99), "ms");

    // Capacity ladder: the highest offered rate whose p99 meets the SLO
    // with nothing shed and no growing backlog. The ladder stops at the
    // first rate that misses; its operations are a probe, so only wrong
    // rows count against the run.
    let step = Duration::from_secs_f64(cfg.seconds / 2.0 / LADDER.len() as f64);
    let mut best = 0.0;
    for (k, share) in LADDER.iter().enumerate() {
        let rate = share * capacity_qps;
        let seed = instance_seed(cfg.seed, INSTANCES + 1 + k as u64);
        let schedule = open_loop(seed, &MIX, rate, step);
        let p = drive(&mut run, &oracles, &schedule, false);
        out.wrong += p.wrong;
        let p99 = quantile(&p.all_latencies(), 0.99);
        let backlog_ok = (p.backlog as f64) <= rate * SLO_MS / 1e3;
        out.note(format!(
            "ladder {rate:.1} qps: p99 {p99:.2} ms, failed {}, backlog {}",
            p.failed, p.backlog
        ));
        if p99 > SLO_MS || !backlog_ok || p.failed > 0 {
            break;
        }
        best = rate;
    }
    out.push("max_qps_at_slo", best, "1/s");

    // The in-process probes run on the last instance's engine with the
    // server and the polling load threads stopped.
    let engine = run.engine.clone();
    drop(run);
    let recorded = phases.last().expect("INSTANCES > 0");
    let (enc, dec) = frame_costs(&recorded.requests, &recorded.responses);
    out.push("server.frame_encode_us", enc, "us");
    out.push("server.frame_decode_us", dec, "us");
    let overhead = in_process_overhead(&engine, &entries, &oracles, &recorded.pairs, &mut out)?;
    out.push("server.overhead_ms", overhead, "ms");
    // Reports do not cross the protocol: scheduler and tier metrics come
    // from traced in-process executions of the recorded bindings (result
    // cache off, so every one runs its morsels).
    let reports = traced_in_process(&engine, &entries, &recorded.pairs)?;
    layers::push_report_layers(&mut out, &reports);

    // Cold builds on the served path happen after writes, one per
    // statement; spread them evenly. SQL is planned once, at prepare.
    let costs: Vec<_> =
        entries.iter().map(|e| layers::module_cost(&cat, e, 3)).collect::<Result<_, _>>()?;
    let share = vec![cold as f64 / entries.len() as f64; entries.len()];
    let drawn: Vec<f64> = (0..entries.len())
        .map(|i| phases.iter().map(|p| p.latency[i].len() as f64).sum())
        .collect();
    layers::push_build_layers(&mut out, &costs, &vec![0.0; entries.len()], &share, &drawn);

    let check = |i: usize, p: Option<i64>, rows: &[u64]| {
        oracles[i].expected(p).is_some_and(|want| want.matches(rows))
    };
    let param = MIX.param_range.0 + 1000;
    layers::tier_sweep(&engine, &entries, param, &check, &mut out)?;
    let session = engine.session();
    let prepared: Vec<_> = entries.iter().map(|e| e.prepare(&session)).collect::<Result<_, _>>()?;
    let speedup = layers::thread_speedup(&engine, &entries, &prepared, param)?;
    out.push("sched.speedup_2t_over_1t", speedup, "ratio");
    layers::floors(&cat, &mut out)?;
    Ok(out)
}

/// Median time to encode, and to decode, one recorded frame (requests
/// and responses together), in µs.
fn frame_costs(requests: &[Request], responses: &[Response]) -> (f64, f64) {
    const REPS: usize = 20;
    let n = (requests.len() + responses.len()).max(1) as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let req_frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let resp_frames: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    for _ in 0..REPS {
        let t = Instant::now();
        for r in requests {
            std::hint::black_box(r.encode());
        }
        for r in responses {
            std::hint::black_box(r.encode());
        }
        enc.push(us(t.elapsed()) / n);
        let t = Instant::now();
        for f in &req_frames {
            let _ = std::hint::black_box(Request::decode(&f[HEADER..]));
        }
        for f in &resp_frames {
            let _ = std::hint::black_box(Response::decode(&f[HEADER..]));
        }
        dec.push(us(t.elapsed()) / n);
    }
    (median(&enc), median(&dec))
}

/// Served latency minus the in-process latency of the same statement
/// and binding (median of the paired differences), executed on the
/// server's engine with the server's options; the in-process rows are
/// checked against the oracle too.
fn in_process_overhead(
    engine: &Engine,
    entries: &[Entry],
    oracles: &[Oracle],
    pairs: &[(usize, i64, f64)],
    out: &mut Outcome,
) -> Result<f64, String> {
    let session = engine.session();
    let prepared: Vec<_> = entries.iter().map(|e| e.prepare(&session)).collect::<Result<_, _>>()?;
    let opts = server_options();
    let mut diffs = Vec::new();
    for &(i, v, served) in pairs {
        let t = Instant::now();
        let (rows, _) = entries[i].execute(&session, &prepared[i], Some(v), &opts)?;
        diffs.push(served - ms(t.elapsed()));
        if !oracles[i].expected(Some(v)).is_some_and(|w| w.matches(&rows.rows)) {
            out.violations += 1;
            out.note(format!(
                "error: in-process {} value {v} differs from the oracle",
                entries[i].name
            ));
        }
    }
    Ok(median(&diffs))
}

fn traced_in_process(
    engine: &Engine,
    entries: &[Entry],
    pairs: &[(usize, i64, f64)],
) -> Result<Vec<aqe_engine::exec::Report>, String> {
    let session = engine.session();
    let prepared: Vec<_> = entries.iter().map(|e| e.prepare(&session)).collect::<Result<_, _>>()?;
    let opts = ExecOptions { trace: true, cache_results: false, ..server_options() };
    pairs
        .iter()
        .map(|&(i, v, _)| entries[i].execute(&session, &prepared[i], Some(v), &opts).map(|r| r.1))
        .collect()
}
