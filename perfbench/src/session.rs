//! `session_mix`: open-loop client sessions against a [`Server`] over
//! [`loopback_pair`] connections, with the WAL on.
//!
//! [`WORKERS`] client threads each drive one session on a fixed
//! schedule (together [`RATE`] transactions per second, with a seeded
//! phase). Three of four transactions insert one `delta` tuple with a
//! Zipf-distributed key, which the accumulator rule folds into its
//! `acc` tuple; one of four reads every `acc` tuple. A transaction's
//! latency runs from its scheduled send time to its commit ack, so a
//! stall also delays, and is charged to, the transactions behind it. A
//! shed, aborted or failed attempt is retried (each failed attempt
//! counts against `ok_share`) up to [`MAX_ATTEMPTS`] times.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use dps_core::semantics::validate_trace;
use dps_core::{DurabilityConfig, ParallelConfig, ParallelReport};
use dps_rules::RuleSet;
use dps_server::{
    loopback_pair, read_frame, write_frame, LoopbackConn, Request, Response, Server, ServerConfig,
    ServerStats,
};
use dps_wm::rng::SmallRng;
use dps_wm::{Value, WmeData, WorkingMemory};

use crate::replay::{put_layers, replay};
use crate::stats::{beyond, median, percentile, self_time, Span, Tally};
use crate::{cpu_s, note, peak_rss_mb, scratch_dir, Args, Output, SETUP_SAMPLES, WORKERS};

/// Offered load, transactions per second over all sessions (below the
/// default admission rate of 2 000 tokens per second).
pub const RATE: f64 = 600.0;
/// Accumulator keys (the Zipf domain).
const KEYS: i64 = 256;
/// Zipf exponent of the keys.
const ZIPF_S: f64 = 1.0;
/// Share of read-only transactions.
const READ_SHARE: f64 = 0.25;
/// Attempts per transaction before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 20;
/// Legs of a `--trace 0` run; its metrics are medians over legs.
const LEGS: u32 = 5;

const RULES: &str = "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
                       --> (remove 1) (modify 2 ^total (+ <t> <v>)))";

/// Zipf sampler over `0..keys` (CDF table walk).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(keys: i64, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=keys).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights.iter().map(|w| {
            acc += w / total;
            acc
        });
        Zipf { cdf: cdf.collect() }
    }

    fn draw(&self, rng: &mut SmallRng) -> i64 {
        let u = rng.random_f64();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1) as i64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rpc {
    Begin,
    Insert,
    Query,
    Commit,
}

/// One client transaction, times in ns from the run's origin.
struct Txn {
    read: bool,
    key: i64,
    due: u64,
    /// First request sent.
    sent: u64,
    /// Commit acked (or the last attempt failed).
    done: u64,
    ok: bool,
    attempts: Tally,
    rpcs: Vec<(Rpc, Span)>,
    /// Commit sequence minus the WAL's durable sequence at ack time.
    ack_lag: u64,
    rows: usize,
}

/// Everything one measured server run produced.
struct Leg {
    txns: Vec<Txn>,
    report: ParallelReport,
    stats: ServerStats,
    final_wm: WorkingMemory,
    obs: Option<dps_obs::ObsReport>,
    insert_bytes: u64,
    /// Process CPU seconds from the first send until the server had
    /// drained and stopped (client threads included).
    cpu_s: f64,
}

impl Leg {
    /// Seconds from the schedule's origin to the last transaction's
    /// end: the offered window, stretched when the server falls behind.
    fn busy_s(&self) -> f64 {
        self.txns.iter().map(|t| t.done).max().unwrap_or(1) as f64 / 1e9
    }

    fn latencies_us(&self, read: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .txns
            .iter()
            .filter(|t| t.ok && t.read == read)
            .map(|t| t.done.saturating_sub(t.due) as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Transactions attempted and failed (after every retry).
    fn outcomes(&self) -> Tally {
        Tally {
            attempted: self.txns.len() as u64,
            failed: self.txns.iter().filter(|t| !t.ok).count() as u64,
        }
    }

    /// Attempts made and failed, retries included.
    fn attempts(&self) -> Tally {
        let mut t = Tally::default();
        for x in &self.txns {
            t.add(x.attempts);
        }
        t
    }

    fn rpc_us(&self, kind: Rpc) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .txns
            .iter()
            .flat_map(|t| &t.rpcs)
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s.len() as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn late_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .txns
            .iter()
            .map(|t| t.sent.saturating_sub(t.due) as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

fn initial_wm(seed: u64) -> WorkingMemory {
    let mut keys: Vec<i64> = (0..KEYS).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.index(i + 1));
    }
    let mut wm = WorkingMemory::new();
    for k in keys {
        wm.insert(WmeData::new("acc").with("key", k).with("total", 0i64));
    }
    wm
}

/// Parses the rules and builds the server (engine, Rete and, with
/// `wal`, the WAL's first checkpoint): the set-up a deployment pays
/// before serving.
fn setup(
    initial: &WorkingMemory,
    wal: Option<&Path>,
    observe: bool,
) -> Result<(RuleSet, Server, f64, f64), String> {
    let wm = initial.clone();
    let t0 = Instant::now();
    let rules = RuleSet::parse(RULES).map_err(|e| format!("rules: {e:?}"))?;
    let parse_s = t0.elapsed().as_secs_f64();
    let config = ParallelConfig {
        workers: WORKERS,
        max_commits: usize::MAX,
        observe,
        durability: wal.map(DurabilityConfig::at),
        ..ParallelConfig::default()
    };
    let server = Server::new(&rules, wm, config, ServerConfig::default());
    Ok((rules, server, parse_s, t0.elapsed().as_secs_f64()))
}

fn rpc(conn: &mut LoopbackConn, req: &Request) -> io::Result<Response> {
    write_frame(conn, &req.encode())?;
    let body = read_frame(conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    Response::decode(&body)
}

/// Drives one session until `end`; returns its transactions.
fn client(
    server: &Server,
    mut conn: LoopbackConn,
    mut rng: SmallRng,
    origin: Instant,
    end: Duration,
) -> io::Result<Vec<Txn>> {
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    match rpc(&mut conn, &Request::Hello)? {
        Response::Granted { .. } => {}
        r => return Err(io::Error::other(format!("hello refused: {r:?}"))),
    }
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let period = Duration::from_secs_f64(WORKERS as f64 / RATE);
    let phase = period.mul_f64(rng.random_f64());
    let wal = server
        .engine()
        .durable()
        .expect("durability is on")
        .writer();
    let mut txns = Vec::new();
    for j in 0u32.. {
        let due = phase + period * j;
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_sub(origin.elapsed()) {
            std::thread::sleep(wait);
        }
        let read = rng.random_bool(READ_SHARE);
        let key = zipf.draw(&mut rng);
        let mut t = Txn {
            read,
            key,
            due: due.as_nanos() as u64,
            sent: ns(Instant::now()),
            done: 0,
            ok: false,
            attempts: Tally::default(),
            rpcs: Vec::new(),
            ack_lag: 0,
            rows: 0,
        };
        while !t.ok && t.attempts.attempted < MAX_ATTEMPTS as u64 {
            let ok = attempt(&mut conn, &mut t, wal, &ns)?;
            t.attempts.record(ok);
            t.ok = ok;
        }
        t.done = ns(Instant::now());
        txns.push(t);
    }
    rpc(&mut conn, &Request::Bye)?;
    Ok(txns)
}

/// One attempt at `t`: begin, insert or query, commit.
fn attempt(
    conn: &mut LoopbackConn,
    t: &mut Txn,
    wal: &dps_wm::WalWriter,
    ns: &impl Fn(Instant) -> u64,
) -> io::Result<bool> {
    let mut call = |kind: Rpc, req: Request| -> io::Result<Response> {
        let start = ns(Instant::now());
        let resp = rpc(conn, &req)?;
        t.rpcs.push((
            kind,
            Span {
                start,
                end: ns(Instant::now()),
            },
        ));
        Ok(resp)
    };
    match call(Rpc::Begin, Request::Begin)? {
        Response::Ok { .. } => {}
        Response::Overloaded { retry_after_ms } => {
            std::thread::sleep(Duration::from_millis(retry_after_ms.min(5)));
            return Ok(false);
        }
        _ => return Ok(false),
    }
    let body = if t.read {
        match call(
            Rpc::Query,
            Request::Query {
                class: "acc".into(),
            },
        )? {
            Response::Rows { rows } => {
                t.rows = rows.len();
                true
            }
            _ => false,
        }
    } else {
        matches!(
            call(Rpc::Insert, insert_request(t.key))?,
            Response::Ok { .. }
        )
    };
    if !body {
        // The server already aborted the transaction.
        return Ok(false);
    }
    match call(Rpc::Commit, Request::Commit)? {
        Response::Ok { seq } => {
            t.ack_lag = seq.saturating_sub(wal.durable_seq());
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Serves [`WORKERS`] open-loop sessions for `window`, drains, and
/// checks the outcome.
fn leg(
    rules: &RuleSet,
    server: Server,
    initial: &WorkingMemory,
    seed: u64,
    window: Duration,
) -> Result<(Leg, f64), String> {
    let mut server_ends = Vec::new();
    let mut client_ends = Vec::new();
    for _ in 0..WORKERS {
        let (c, s) = loopback_pair();
        client_ends.push(c);
        server_ends.push(s);
    }
    let cpu0 = cpu_s()?;
    let origin = Instant::now();
    let (served, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = client_ends
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let rng = SmallRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 + 1),
                );
                let server = &server;
                scope.spawn(move || client(server, conn, rng, origin, window))
            })
            .collect();
        let served = server.run(server_ends);
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        (served, clients)
    });
    let cpu_s = cpu_s()? - cpu0;
    let (report, stats) = served;
    let mut txns = Vec::new();
    for c in clients {
        txns.extend(c.map_err(|e| format!("client transport error: {e}"))?);
    }
    let engine = server.engine();
    let final_wm = engine.final_wm();

    // Checks.
    let writes = txns.iter().filter(|t| t.ok && !t.read).count() as i64;
    let acked = txns.iter().filter(|t| t.ok).count() as u64;
    let total: i64 = final_wm
        .class_iter("acc")
        .map(|w| match w.get("total") {
            Some(Value::Int(n)) => *n,
            _ => 0,
        })
        .sum();
    if total != writes {
        return Err(format!(
            "sum of acc.total is {total}, but {writes} write txns were acked"
        ));
    }
    if final_wm.class_iter("delta").next().is_some() {
        return Err("unfolded delta tuples remain after drain".into());
    }
    if stats.commits != acked || engine.external_commit_count() != acked {
        return Err(format!(
            "server counted {} commits, engine {}, clients {acked} acks",
            stats.commits,
            engine.external_commit_count()
        ));
    }
    if let Some(t) = txns
        .iter()
        .find(|t| t.ok && t.read && t.rows != KEYS as usize)
    {
        return Err(format!(
            "a read returned {} acc rows, expected {KEYS}",
            t.rows
        ));
    }
    if engine.held_locks() != 0 || engine.snapshot_pins() != 0 {
        return Err(format!(
            "{} locks and {} snapshot pins held after drain",
            engine.held_locks(),
            engine.snapshot_pins()
        ));
    }
    let t = Instant::now();
    validate_trace(rules, initial, &report.trace).map_err(|v| format!("oracle: {v}"))?;
    let validate_s = t.elapsed().as_secs_f64();
    let insert_bytes = txns
        .iter()
        .filter(|t| t.ok && !t.read)
        .map(|t| insert_request(t.key).encode().len() as u64)
        .sum();
    let obs = engine.observer().map(|r| r.report());
    Ok((
        Leg {
            txns,
            report,
            stats,
            final_wm,
            obs,
            insert_bytes,
            cpu_s,
        },
        validate_s,
    ))
}

fn insert_request(key: i64) -> Request {
    Request::Insert {
        class: "delta".into(),
        attrs: vec![
            ("key".to_string(), Value::Int(key)),
            ("v".to_string(), Value::Int(1)),
        ],
    }
}

fn describe(leg: &Leg) {
    for (kind, read) in [("write", false), ("read", true)] {
        let v = leg.latencies_us(read);
        if v.is_empty() {
            continue;
        }
        note(format!(
            "{kind} latency (scheduled send -> commit ack): p50 {:.1} us, p99 {:.1} us, {} samples, {} beyond p99",
            percentile(&v, 0.5),
            percentile(&v, 0.99),
            v.len(),
            beyond(&v, 0.99)
        ));
    }
    let late = leg.late_us();
    // Behind: most sends went out a whole period late (a backlog).
    let behind = percentile(&late, 0.5) > WORKERS as f64 / RATE * 1e6;
    note(format!(
        "generator lateness: p99 {:.1} us, max {:.1} us{}",
        percentile(&late, 0.99),
        percentile(&late, 1.0),
        if behind {
            " -- FELL BEHIND: the median send was over one period late"
        } else {
            ""
        }
    ));
    let a = leg.attempts();
    note(format!(
        "attempts {} failed {} (shed {}, server aborts {}); txns {} failed after {MAX_ATTEMPTS} attempts {}",
        a.attempted,
        a.failed,
        leg.stats.admission.shed_total(),
        leg.stats.aborts,
        leg.txns.len(),
        leg.txns.iter().filter(|t| !t.ok).count()
    ));
}

fn p(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, q)
    }
}

/// Runs `session_mix` (see the module docs).
pub fn run(args: &Args) -> Result<Output, String> {
    let start = Instant::now();
    let initial = initial_wm(args.seed);
    let wal = scratch_dir("wal");
    note(format!(
        "open loop: {WORKERS} sessions on {WORKERS} client threads, {RATE} txn/s total, {}% reads, Zipf(s={ZIPF_S}) over {KEYS} keys",
        READ_SHARE * 100.0
    ));
    note(format!(
        "WAL in {} (inside the working directory); commit acks follow the engine's non-blocking group commit (request_sync), not an fsync",
        wal.display()
    ));
    let result = measure(args, start, &initial, &wal);
    let _ = std::fs::remove_dir_all(&wal);
    result
}

fn measure(
    args: &Args,
    start: Instant,
    initial: &WorkingMemory,
    wal: &Path,
) -> Result<Output, String> {
    let mut out = Output::default();
    // Leave room after the window for the drain and the oracle replay.
    let budget = args.seconds.mul_f64(0.85);
    if !args.trace {
        // [`LEGS`] equal legs on fresh servers, each after a batch of
        // set-ups, so that legs and set-ups both spread over the run
        // (set-up time on a shared host moved between two levels, 1.6x
        // apart, for seconds at a time). The timed set-ups leave the
        // WAL out: its first checkpoint is one fsync, which took
        // 0.7-1.5 ms with a median that moved by half between runs,
        // against 0.2-0.3 ms for the rest of the set-up.
        let window = (budget.saturating_sub(start.elapsed()).mul_f64(0.95) / LEGS)
            .max(Duration::from_secs(1));
        let mut setups = Vec::new();
        let (mut rates, mut cpu) = (Vec::new(), Vec::new());
        let mut attempts = Tally::default();
        for i in 0..LEGS {
            for _ in 0..SETUP_SAMPLES {
                setups.push(setup(initial, None, false)?.3);
            }
            let (rules, server, _, _) = setup(initial, Some(wal), false)?;
            let seed = args.seed ^ (u64::from(i) << 48);
            let (leg, _) = leg(&rules, server, initial, seed, window)?;
            describe(&leg);
            let commits = leg.report.trace.len() as f64;
            rates.push(commits / leg.busy_s());
            cpu.push(leg.cpu_s * 1e6 / commits);
            attempts.add(leg.attempts());
            out.ops.add(leg.outcomes());
        }
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        note(format!(
            "per leg: commits/s {}; CPU us per commit {}",
            list(&rates),
            list(&cpu)
        ));
        out.put("setup_s", median(&setups));
        out.put("peak_rss_mb", peak_rss_mb()?);
        out.put("commits_per_s", median(&rates));
        out.put("ok_share", 1.0 - attempts.failed_share());
        out.put("cpu_us_per_commit", median(&cpu));
        return Ok(out);
    }

    // Traced run: an untraced leg (the client latencies and the
    // overhead baseline; two thirds of the budget, so that reads leave
    // ten samples beyond p99), then a traced leg on a fresh server.
    let left = budget.saturating_sub(start.elapsed());
    let (rules, server, _, _) = setup(initial, Some(wal), false)?;
    let (plain, _) = leg(&rules, server, initial, args.seed, left.mul_f64(2.0 / 3.0))?;
    let (rules, server, parse_s, _) = setup(initial, Some(wal), true)?;
    let (traced, validate_s) = leg(&rules, server, initial, args.seed, left / 3)?;
    describe(&plain);
    describe(&traced);
    out.ops = plain.outcomes();
    out.ops.add(traced.outcomes());
    let dir = scratch_dir("replay");
    let layers = replay(&rules, initial, &traced.report.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let layers = layers?;
    let obs = traced
        .obs
        .as_ref()
        .expect("traced leg carries a recorder report");
    put_layers(&mut out, &traced.report, obs, &layers, true);

    let (w, r) = (plain.latencies_us(false), plain.latencies_us(true));
    out.put("write_p50_us", p(&w, 0.5));
    out.put("write_p99_us", p(&w, 0.99));
    out.put("read_p50_us", p(&r, 0.5));
    out.put("read_p99_us", p(&r, 0.99));
    let traced_w = traced.latencies_us(false);
    out.put("obs.trace_overhead", p(&traced_w, 0.5) / p(&w, 0.5) - 1.0);

    let wal_stats = traced.report.wal.unwrap_or_default();
    out.put(
        "wal.write_amp",
        wal_stats.bytes_written as f64 / traced.insert_bytes.max(1) as f64,
    );
    let mut lag: Vec<f64> = traced
        .txns
        .iter()
        .filter(|t| t.ok)
        .map(|t| t.ack_lag as f64)
        .collect();
    lag.sort_by(f64::total_cmp);
    out.put("wal.ack_lag_p99", p(&lag, 0.99));

    out.put("server.begin_p50_us", p(&traced.rpc_us(Rpc::Begin), 0.5));
    out.put("server.insert_p50_us", p(&traced.rpc_us(Rpc::Insert), 0.5));
    out.put("server.query_p50_us", p(&traced.rpc_us(Rpc::Query), 0.5));
    let commit = traced.rpc_us(Rpc::Commit);
    out.put("server.commit_p50_us", p(&commit, 0.5));
    out.put("server.commit_p99_us", p(&commit, 0.99));
    out.put("server.codec_ns_per_txn", codec_ns_per_txn(&traced));
    out.put("server.admitted", traced.stats.admission.admitted as f64);
    out.put("server.shed", traced.stats.admission.shed_total() as f64);
    out.put("server.aborts", traced.stats.aborts as f64);
    let reads: Vec<f64> = traced
        .txns
        .iter()
        .filter(|t| t.ok && t.read)
        .map(|t| t.rows as f64)
        .collect();
    out.put("server.query_rows", crate::stats::mean(&reads));

    out.put("rules.parse_s", parse_s);
    out.put("semantics.replay_s", validate_s);
    let late = traced.late_us();
    out.put("loadgen.late_p99_us", p(&late, 0.99));
    out.put("loadgen.late_max_us", p(&late, 1.0));
    let mut self_us: Vec<f64> = traced
        .txns
        .iter()
        .filter(|t| t.ok)
        .map(|t| {
            let spans: Vec<Span> = t.rpcs.iter().map(|(_, s)| *s).collect();
            self_time(
                Span {
                    start: t.sent,
                    end: t.done,
                },
                &spans,
            ) as f64
                / 1e3
        })
        .collect();
    self_us.sort_by(f64::total_cmp);
    out.put("loadgen.txn_self_p50_us", p(&self_us, 0.5));
    Ok(out)
}

/// Wire codec replay: each committed transaction's requests and
/// responses encoded and decoded once, timed per call.
fn codec_ns_per_txn(leg: &Leg) -> f64 {
    let rows: Vec<(u64, WmeData)> = leg
        .final_wm
        .class_iter("acc")
        .map(|w| (w.id.0, w.data.clone()))
        .collect();
    let mut total = 0u128;
    let mut n = 0u64;
    for t in leg.txns.iter().filter(|t| t.ok) {
        let (body_req, body_resp) = if t.read {
            (
                Request::Query {
                    class: "acc".into(),
                },
                Response::Rows { rows: rows.clone() },
            )
        } else {
            (insert_request(t.key), Response::Ok { seq: 0 })
        };
        let reqs = [Request::Begin, body_req, Request::Commit];
        let resps = [Response::Ok { seq: 0 }, body_resp, Response::Ok { seq: 1 }];
        let t0 = Instant::now();
        for r in &reqs {
            std::hint::black_box(Request::decode(&r.encode()).expect("request round-trips"));
        }
        for r in &resps {
            std::hint::black_box(Response::decode(&r.encode()).expect("response round-trips"));
        }
        total += t0.elapsed().as_nanos();
        n += 1;
    }
    total as f64 / n.max(1) as f64
}
