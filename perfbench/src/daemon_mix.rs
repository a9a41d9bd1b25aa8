//! `daemon-mix`: one in-process `imc-service` daemon with 2 workers,
//! cold-started from a 40,000-sample format-v3 snapshot of the Wiki-Vote
//! analog at scale 0.3. Connection 1 sends 8-seed `estimate` requests
//! open-loop at a fixed rate; connection 2 sends `solve greedy k=25` on a
//! fixed schedule. Then the estimate rate is searched upward, with solves
//! running back to back, for the highest rate that meets the latency limit.
//! Protocol, JSON, the worker pool and the store's read path dominate;
//! nothing is sampled on the request path. The refresher stays off: its
//! timing-dependent generations would make answers uncheckable.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use imc_core::snapshot::{self, SnapshotBytes};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveRequest};
use imc_graph::NodeId;
use imc_service::json::{self, Value};
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::imcaf_ubg::flip_first_seed;
use crate::load::{Conn, Outcome};
use crate::util::{
    build_instance, median, quantile, ratio, show_samples, MemorySink, Registry, Report, Tracer,
};
use crate::Opts;

/// The estimate latency limit (at [`LIMIT_QUANTILE`], from the due time)
/// a rate must meet to count as sustained. The repository sets no latency
/// target; this is
/// half of the 0.1 s within which a reply feels instantaneous to a person
/// (Nielsen, "Response Times: The 3 Important Limits"), the other half
/// left to the network and client between that person and the daemon.
const LIMIT_MS: f64 = 50.0;
/// The latency quantile held to [`LIMIT_MS`]: p90, the quantile `op2_ms`
/// reports. A rate-search step holds a few hundred estimates, so its p99
/// would rest on the two or three that met a solve's busiest moment.
const LIMIT_QUANTILE: f64 = 0.9;
/// A rate-search step stops sending once a reply is this late: the
/// backlog has run away.
const ABORT_MS: f64 = 20.0 * LIMIT_MS;
/// A fixed-rate estimate still unanswered this long after its due time
/// has timed out: the phase stops sending, and that estimate and every
/// one not yet sent fail the run.
const TIMEOUT_MS: f64 = 5_000.0;
/// Seeds per estimate request.
const SEEDS_PER_REQUEST: usize = 8;
/// Distinct estimate requests per run (cycled); each answer is precomputed.
const POOL: usize = 128;
/// Budget of each solve.
const SOLVE_K: usize = 25;

struct Params {
    scale: f64,
    samples: usize,
    setups: usize,
    /// Fixed offered estimate rate (requests per second): about 2/5 of the
    /// `capacity_per_s` this workload measures (a median of 234 req/s over
    /// ten seeds on a 2-vCPU VM), so the daemon is loaded but far from
    /// saturation.
    rate: f64,
    /// Length of the fixed-rate phase, seconds.
    fixed_s: f64,
    /// Solve schedule period in the fixed-rate phase, seconds.
    solve_period_s: f64,
    /// Length of one step of the rate search, seconds.
    step_s: f64,
    /// Most steps of the rate search.
    max_steps: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            scale: 0.05,
            samples: 2_000,
            setups: 2,
            rate: 50.0,
            fixed_s: 1.0,
            solve_period_s: 0.5,
            step_s: 0.4,
            max_steps: 2,
        }
    } else {
        Params {
            scale: 0.3,
            samples: 40_000,
            setups: 3,
            rate: 100.0,
            fixed_s: 20.0,
            solve_period_s: 2.8,
            step_s: 4.0,
            max_steps: 8,
        }
    }
}

/// One estimate request and the answer `RicStore` gives in-process.
struct Query {
    line: String,
    estimate: f64,
    nu_estimate: f64,
    influenced: u64,
}

/// Draws the run's estimate requests from `seed` and answers each
/// in-process on the store the snapshot was written from.
fn queries(store: &RicStore, node_count: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE571_A7E5);
    (0..POOL)
        .map(|_| {
            let mut seeds: Vec<NodeId> = Vec::with_capacity(SEEDS_PER_REQUEST);
            while seeds.len() < SEEDS_PER_REQUEST {
                let v = NodeId::new(rng.random_range(0..node_count as u32));
                if !seeds.contains(&v) {
                    seeds.push(v);
                }
            }
            let raw: Vec<u64> = seeds.iter().map(|v| u64::from(v.raw())).collect();
            Query {
                line: format!(
                    "{{\"op\":\"estimate\",\"seeds\":{}}}",
                    json::to_string(&Value::from(raw))
                ),
                estimate: store.estimate(&seeds),
                nu_estimate: store.nu_estimate(&seeds),
                influenced: store.influenced_count(&seeds) as u64,
            }
        })
        .collect()
}

/// Parses a reply; `Some` only for an `ok: true` JSON object.
fn ok_reply(text: &str) -> Option<Value> {
    json::parse(text)
        .ok()
        .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
}

/// Whether an estimate reply equals the in-process answer, bit for bit.
fn estimate_matches(reply: &Value, q: &Query, samples: usize) -> bool {
    reply.get("estimate").and_then(Value::as_f64) == Some(q.estimate)
        && reply.get("nu_estimate").and_then(Value::as_f64) == Some(q.nu_estimate)
        && reply.get("influenced_samples").and_then(Value::as_u64) == Some(q.influenced)
        && reply.get("samples").and_then(Value::as_u64) == Some(samples as u64)
}

/// A solve sent on connection 2.
struct SolveRec {
    due: Instant,
    done: Instant,
    reply: Option<String>,
}

/// Connection 2's thread: solves due every `period` until `fixed_until`,
/// then back to back until `stop` is raised.
fn solve_loop(
    addr: SocketAddr,
    line: &str,
    start: Instant,
    period: Duration,
    fixed_until: Instant,
    stop: &AtomicBool,
) -> Vec<SolveRec> {
    let mut out = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return out;
    };
    let mut due = start;
    while !stop.load(Ordering::SeqCst) {
        if due < fixed_until {
            while Instant::now() < due && !stop.load(Ordering::SeqCst) {
                thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
            }
        } else {
            due = Instant::now();
        }
        let reply = conn.call(line, Duration::from_secs(60)).ok();
        let failed = reply.is_none();
        out.push(SolveRec {
            due,
            done: Instant::now(),
            reply,
        });
        if failed {
            break;
        }
        due += period;
    }
    out
}

/// Set-up as a user pays it: build the instance, load the snapshot, bind.
fn start_daemon(scale: f64, path: &Path, tracer: &mut Tracer) -> Result<ServerHandle, String> {
    let (built, _) = tracer.time("instance.build", || build_instance(scale));
    let (state, _) = tracer.time("snapshot.load", || {
        ServiceState::from_snapshot_path(built.instance, path)
    });
    let state = state.map_err(|e| format!("snapshot load: {e}"))?;
    let config = ServeConfig {
        workers: 2,
        refresh: None,
        max_solve_threads: 1,
        ..ServeConfig::default()
    };
    let (handle, _) = tracer.time("service.bind", || Server::start(Arc::new(state), config));
    handle.map_err(|e| format!("bind: {e}"))
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let p = params(opts.tiny);
    // Preparation, outside the timed set-up: the snapshot file the daemon
    // cold-starts from, and the in-process answers to check replies with.
    let prep = build_instance(p.scale);
    let sampler = prep.instance.sampler();
    let mut store = RicStore::for_sampler(&sampler);
    store.extend_parallel_with_workers(&sampler, p.samples, opts.seed, 2);
    let fingerprint =
        snapshot::instance_fingerprint(prep.instance.graph(), prep.instance.communities());
    let path: PathBuf = opts.work_dir.join(format!("daemon-mix-{}.snap", opts.seed));
    if let Err(e) = snapshot::save(&path, &store, fingerprint, 0) {
        report.op(false, || format!("snapshot save: {e}"));
        return;
    }
    let pool = queries(&store, prep.instance.node_count(), opts.seed);
    let solve_seed = opts.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7);
    let solve_line =
        format!("{{\"op\":\"solve\",\"k\":{SOLVE_K},\"algo\":\"greedy\",\"seed\":{solve_seed}}}");
    // The answer every solve reply must equal: the same greedy request
    // in-process over the store the snapshot was written from.
    let solve_req = SolveRequest::new(SOLVE_K).with_seed(solve_seed);
    let (reference, _) = tracer.time("maxr.solve", || {
        MaxrAlgorithm::Greedy.solve(&prep.instance, &store, &solve_req)
    });
    let reference = reference.ok().map(|r| (r.seeds, r.evaluations));
    // Every answer is in hand: drop this copy so the daemon's own store
    // sets the peak resident set.
    let samples = store.len();
    drop(store);

    let mut setups = Vec::new();
    let mut daemon: Option<ServerHandle> = None;
    for _ in 0..p.setups {
        if let Some(old) = daemon.take() {
            old.stop_and_join();
        }
        let started = Instant::now();
        match start_daemon(p.scale, &path, tracer) {
            Ok(d) => {
                setups.push(started.elapsed().as_secs_f64());
                daemon = Some(d);
            }
            Err(e) => {
                report.op(false, || e);
                break;
            }
        }
    }
    let Some(daemon) = daemon else {
        let _ = std::fs::remove_file(&path);
        return;
    };
    report.metric("setup_s", median(&setups), "s");
    report.metric("instance.build_s", prep.build_s, "s");
    report.metric("instance.louvain_s", prep.louvain_s, "s");
    report.metric("instance.nodes", prep.instance.node_count() as f64, "count");
    report.metric(
        "instance.edges",
        prep.instance.graph().edge_count() as f64,
        "count",
    );
    report.metric(
        "instance.communities",
        prep.instance.community_count() as f64,
        "count",
    );

    let addr = daemon.addr();
    let before = Registry::read();
    let mut mix = Mix {
        p: &p,
        addr,
        pool: &pool,
        samples,
        solve_line: &solve_line,
        report,
        tracer,
    };
    let solves = if opts.trace {
        mix.traced()
    } else {
        mix.timed()
    };
    let after = Registry::read();
    daemon.stop_and_join();

    let mut quality = 0.0;
    let (mut solve_ms, mut solve_server_s) = (Vec::new(), Vec::new());
    for (i, rec) in solves.iter().enumerate() {
        let reply = rec.reply.as_deref().and_then(ok_reply);
        let mut seeds: Vec<NodeId> = reply
            .as_ref()
            .and_then(|r| r.get("seeds"))
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_u64)
                    .map(|v| NodeId::new(v as u32))
                    .collect()
            })
            .unwrap_or_default();
        if opts.corrupt && i == 0 {
            flip_first_seed(&mut seeds, prep.instance.node_count());
        }
        let evaluations = reply
            .as_ref()
            .and_then(|r| r.get("evaluations"))
            .and_then(Value::as_u64);
        let ok = reference
            .as_ref()
            .is_some_and(|(s, e)| *s == seeds && Some(*e) == evaluations);
        report.op(ok, || {
            format!("solve {i}: the daemon's reply differs from the in-process solve")
        });
        if let Some(r) = &reply {
            quality = r.get("estimate").and_then(Value::as_f64).unwrap_or(0.0);
            solve_server_s.push(r.get("elapsed_us").and_then(Value::as_f64).unwrap_or(0.0) / 1e6);
        }
        solve_ms.push(rec.done.duration_since(rec.due).as_secs_f64() * 1e3);
    }
    show_samples("solve_ms", &solve_ms);
    if opts.trace {
        match snapshot_paths(&path, &prep.instance) {
            Ok((bytes, load_s, view_s)) => {
                report.metric("snapshot.bytes", bytes as f64, "bytes");
                report.metric("snapshot.load_s", load_s, "s");
                report.metric("snapshot.view_open_s", view_s, "s");
            }
            Err(e) => {
                report.op(false, || format!("snapshot open: {e}"));
            }
        }
    }
    let _ = std::fs::remove_file(&path);

    if opts.trace {
        let evaluations = after.delta(&before, "imc_engine_evaluations_total");
        let wasted = after.delta(&before, "imc_engine_wasted_evaluations_total");
        let solve_s = after.delta(&before, "imc_maxr_solve_duration_seconds_sum");
        report.metric("maxr.solve_s", solve_s, "s");
        report.metric("maxr.evaluations", evaluations, "count");
        report.metric("maxr.evals_per_s", ratio(evaluations, solve_s), "1/s");
        report.metric("maxr.wasted_evaluations", wasted, "count");
        report.metric(
            "maxr.stale_rechecks",
            after.delta(&before, "imc_engine_stale_rechecks_total"),
            "count",
        );
        report.metric(
            "maxr.useful_ratio",
            ratio(evaluations - wasted, evaluations),
            "ratio",
        );
        report.metric("service.solve_server_s", median(&solve_server_s), "s");
        report.metric(
            "service.deadline_misses",
            after.delta(&before, "imc_deadline_misses_total"),
            "count",
        );
    } else {
        report.metric("quality", quality, "benefit");
    }
}

/// The two load phases, sharing the daemon and the request pool.
struct Mix<'a> {
    p: &'a Params,
    addr: SocketAddr,
    pool: &'a [Query],
    samples: usize,
    solve_line: &'a str,
    report: &'a mut Report,
    tracer: &'a mut Tracer,
}

/// What one open-loop estimate phase saw.
struct Phase {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    server_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    failed: usize,
}

impl Phase {
    /// A latency quantile; infinite when any request failed (which, in a
    /// fixed-rate phase, has already failed the run).
    fn quantile(&self, q: f64) -> f64 {
        if self.failed > 0 {
            f64::INFINITY
        } else {
            quantile(&self.latencies_ms, q)
        }
    }

    fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Mix<'_> {
    /// Runs estimates at `rate` for `seconds` on `conn` and checks every
    /// reply that was sent; a missing or wrong one fails the run. Requests
    /// cycle through the pool starting at `offset`. A `fixed` phase stops
    /// sending only when a reply times out ([`TIMEOUT_MS`]), and every
    /// estimate it did not send fails the run too; a rate-search step
    /// stops at [`ABORT_MS`], which ends the search rather than the run.
    fn estimates(
        &mut self,
        conn: &mut Conn,
        rate: f64,
        seconds: f64,
        offset: usize,
        fixed: bool,
    ) -> Phase {
        let count = ((rate * seconds).round() as usize).max(1);
        let pool = self.pool;
        let start = Instant::now() + Duration::from_millis(2);
        let abort_ms = if fixed { TIMEOUT_MS } else { ABORT_MS };
        let outcomes: Vec<Outcome> = conn.open_loop(
            start,
            rate,
            count,
            |i| pool[(offset + i) % pool.len()].line.clone(),
            Duration::from_secs_f64(abort_ms / 1e3),
            Duration::from_secs(3),
        );
        let unsent = count - outcomes.len();
        if fixed && unsent > 0 {
            self.report.fail_many(unsent, || {
                format!("{unsent} estimates at {rate} req/s never sent: a reply timed out")
            });
        }
        let mut phase = Phase {
            latencies_ms: Vec::with_capacity(count),
            late_ms: Vec::with_capacity(count),
            server_ms: Vec::with_capacity(count),
            transport_ms: Vec::with_capacity(count),
            failed: unsent,
        };
        for o in &outcomes {
            let q = &pool[(offset + o.index) % pool.len()];
            let reply = o.reply.as_ref().and_then(|(_, text)| ok_reply(text));
            let ok = reply
                .as_ref()
                .is_some_and(|r| estimate_matches(r, q, self.samples));
            if !self.report.op(ok, || {
                format!("estimate {}: wrong or missing reply", o.index)
            }) {
                phase.failed += 1;
                continue;
            }
            let (at, _) = o.reply.as_ref().expect("checked above");
            let latency = o.latency_ms().expect("replied");
            let server = reply
                .and_then(|r| r.get("elapsed_us").and_then(Value::as_f64))
                .unwrap_or(0.0)
                / 1e3;
            phase.latencies_ms.push(latency);
            phase.late_ms.push(o.late_ms());
            phase.server_ms.push(server);
            phase
                .transport_ms
                .push(at.duration_since(o.sent).as_secs_f64() * 1e3 - server);
            self.tracer.record("estimate", o.due, *at);
        }
        phase
    }

    /// Connection 2's solve thread around `body`, which drives connection 1.
    fn with_solves<T>(
        &mut self,
        fixed_s: f64,
        body: impl FnOnce(&mut Self) -> T,
    ) -> (T, Vec<SolveRec>) {
        let stop = AtomicBool::new(false);
        let start = Instant::now() + Duration::from_millis(500);
        let fixed_until = start + Duration::from_secs_f64(fixed_s);
        let period = Duration::from_secs_f64(self.p.solve_period_s);
        let (addr, line) = (self.addr, self.solve_line.to_string());
        thread::scope(|scope| {
            let solver = scope.spawn(|| solve_loop(addr, &line, start, period, fixed_until, &stop));
            let value = body(self);
            stop.store(true, Ordering::SeqCst);
            let solves = solver.join().unwrap_or_default();
            (value, solves)
        })
    }

    fn timed(&mut self) -> Vec<SolveRec> {
        let Ok(mut conn) = Conn::connect(self.addr) else {
            self.report
                .op(false, || "estimate connection refused".to_string());
            return Vec::new();
        };
        let p = self.p;
        let ((fixed, max_rate), solves) = self.with_solves(p.fixed_s, |mix| {
            let open = mix.tracer.open("load.fixed_rate");
            let fixed = mix.estimates(&mut conn, p.rate, p.fixed_s, 0, true);
            mix.tracer.close(open);
            let open = mix.tracer.open("load.rate_search");
            let max_rate = mix.rate_search(&mut conn, fixed.quantile(LIMIT_QUANTILE));
            mix.tracer.close(open);
            (fixed, max_rate)
        });
        self.report
            .metric("op_p50_ms", median(&fixed.latencies_ms), "ms");
        // The tail end-to-end: p90, which one host stall (tens of
        // requests late) cannot move the way it moves p99; p99 is the
        // per-layer `service.estimate_p99_ms`.
        self.report.metric("op2_ms", fixed.quantile(0.9), "ms");
        self.report.metric("capacity_per_s", max_rate, "1/s");
        eprintln!(
            "perfbench: estimates at {} req/s: {} replies, p50 {:.3} ms, p99 {:.3} ms, generator late p99 {:.3} ms",
            p.rate,
            fixed.latencies_ms.len(),
            median(&fixed.latencies_ms),
            fixed.p99(),
            quantile(&fixed.late_ms, 0.99),
        );
        solves
    }

    /// Highest offered estimate rate whose p90 (from the due time) meets
    /// [`LIMIT_MS`] with every reply in. Rates climb a ladder from twice
    /// the fixed rate in steps of half the fixed rate until one misses the
    /// limit; the capacity is where p90 crosses the limit, interpolated in
    /// log latency between the last rate that met it (at first the fixed
    /// phase) and the first that did not. A rate misses only when two
    /// attempts both miss, so one stall of the host does not end the
    /// search.
    fn rate_search(&mut self, conn: &mut Conn, fixed_tail: f64) -> f64 {
        let p = self.p;
        if fixed_tail > LIMIT_MS {
            // Even the fixed rate misses the limit.
            return p.rate * LIMIT_MS / fixed_tail.min(ABORT_MS);
        }
        let (mut r1, mut t1) = (p.rate, fixed_tail);
        for step in 0..p.max_steps {
            let rate = p.rate * (2.0 + 0.5 * step as f64);
            let mut tail = f64::INFINITY;
            for attempt in 0..2 {
                let offset = 31 * step + 17 * attempt;
                let phase = self.estimates(conn, rate, p.step_s, offset, false);
                tail = tail.min(phase.quantile(LIMIT_QUANTILE));
                if tail <= LIMIT_MS {
                    break;
                }
            }
            eprintln!("perfbench: {rate:.0} req/s: p90 {tail:.3} ms");
            if tail > LIMIT_MS {
                let (l1, l2) = (t1.max(0.01).ln(), tail.min(ABORT_MS).ln());
                return r1 + (rate - r1) * (LIMIT_MS.ln() - l1) / (l2 - l1);
            }
            (r1, t1) = (rate, tail);
        }
        r1
    }

    fn traced(&mut self) -> Vec<SolveRec> {
        let Ok(mut conn) = Conn::connect(self.addr) else {
            self.report
                .op(false, || "estimate connection refused".to_string());
            return Vec::new();
        };
        let p = self.p;
        let half = p.fixed_s / 2.0;
        let sink = MemorySink::default();
        let ((plain, traced), solves) = self.with_solves(p.fixed_s, |mix| {
            let plain = mix.estimates(&mut conn, p.rate, half, 0, true);
            sink.install();
            let traced = mix.estimates(&mut conn, p.rate, half, 0, true);
            imc_obs::trace::clear_sink();
            (plain, traced)
        });
        let events = sink.contents();
        self.report.sink_bytes += events.len() as u64;
        self.report.sink_events += events.iter().filter(|&&b| b == b'\n').count() as u64;
        let r = &mut *self.report;
        r.metric("service.estimate_p99_ms", plain.p99(), "ms");
        r.metric("service.estimate_server_ms", median(&plain.server_ms), "ms");
        r.metric(
            "service.estimate_transport_ms",
            median(&plain.transport_ms),
            "ms",
        );
        r.metric(
            "service.refused",
            (plain.failed + traced.failed) as f64,
            "count",
        );
        r.metric("load.late_p99_ms", quantile(&plain.late_ms, 0.99), "ms");
        r.metric(
            "obs.trace_overhead",
            ratio(median(&traced.latencies_ms), median(&plain.latencies_ms)) - 1.0,
            "ratio",
        );
        solves
    }
}

/// Times the snapshot's two open paths: the decode the daemon uses and
/// the zero-copy view.
/// Returns the file's bytes and both times, or the first error.
fn snapshot_paths(path: &Path, instance: &ImcInstance) -> Result<(u64, f64, f64), String> {
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let started = Instant::now();
    snapshot::load_for_instance(path, instance).map_err(|e| e.to_string())?;
    let load_s = started.elapsed().as_secs_f64();
    let raw = SnapshotBytes::read_from(path).map_err(|e| e.to_string())?;
    let started = Instant::now();
    raw.view().map_err(|e| e.to_string())?;
    Ok((bytes, load_s, started.elapsed().as_secs_f64()))
}
