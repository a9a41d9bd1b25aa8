//! `cluster-solve`: the committed `data/topology.toml` plan in one process.
//! Two shard daemons (2 workers each) serve their partitions of one
//! 40,000-sample plan of the Wiki-Vote analog at scale 0.3, whose base
//! seed is the workload seed; a coordinator fronts them. `solve greedy`
//! and `solve ubg` (k = 25) go through the coordinator, and the same two
//! solves run on a single node over the same plan. ĉ gains are integers
//! summed across shards; UBG adds the ν carry chain, run shard to shard.
//! The only workload with scatter/gather; the single-node twin skips it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_cluster::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use imc_core::{ImcInstance, MaxrAlgorithm, RicStore, SolveReport, SolveRequest};
use imc_graph::NodeId;
use imc_obs::timeline::TraceSet;
use imc_service::json::{self, Value};
use imc_service::{ServeConfig, Server, ServerHandle, ServiceState};

use crate::imcaf_ubg::flip_first_seed;
use crate::load::Conn;
use crate::util::{
    build_instance, median, quantile, ratio, show_samples, MemorySink, Registry, Report, Tracer,
};
use crate::Opts;

struct Params {
    scale: f64,
    samples: usize,
    k: usize,
    setups: usize,
}

const SHARDS: usize = 2;
const WORKERS: usize = 2;

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            scale: 0.05,
            samples: 2_000,
            k: 5,
            setups: 2,
        }
    } else {
        Params {
            scale: 0.3,
            samples: 40_000,
            k: 25,
            setups: 3,
        }
    }
}

/// A running topology: shard daemons plus the coordinator.
struct Cluster {
    shards: Vec<ServerHandle>,
    coordinator: CoordinatorHandle,
    instance: Arc<ImcInstance>,
    build_s: f64,
    louvain_s: f64,
    /// Sampling seconds, samples, arena bytes and index entries summed
    /// over the shard stores.
    gen_s: f64,
    samples: usize,
    arena_bytes: usize,
    index_entries: usize,
}

impl Cluster {
    /// Set-up as a user pays it: build the instance, draw each shard's
    /// partition of the plan, start the shard daemons and the coordinator.
    fn start(p: &Params, base_seed: u64, tracer: &mut Tracer) -> Result<Cluster, String> {
        let (built, _) = tracer.time("instance.build", || build_instance(p.scale));
        let instance = Arc::new(built.instance);
        let sampler = instance.sampler();
        let mut cluster_gen_s = 0.0;
        let (mut samples, mut arena_bytes, mut index_entries) = (0, 0, 0);
        let mut shards = Vec::with_capacity(SHARDS);
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(SHARDS);
        for partition in 0..SHARDS {
            let mut store = RicStore::for_sampler(&sampler);
            let ((), gen_s) = tracer.time("ric.extend_partition", || {
                store.extend_partition(&sampler, p.samples, base_seed, partition, SHARDS, WORKERS)
            });
            cluster_gen_s += gen_s;
            samples += store.len();
            arena_bytes += store.arena_bytes();
            index_entries += store.index_entries();
            let state = Arc::new(ServiceState::new((*instance).clone(), store, 0));
            let config = ServeConfig {
                workers: WORKERS,
                refresh: None,
                ..ServeConfig::default()
            };
            let (handle, _) = tracer.time("service.bind", || Server::start(state, config));
            let handle = handle.map_err(|e| format!("shard bind: {e}"))?;
            addrs.push(handle.addr());
            shards.push(handle);
        }
        let config = CoordinatorConfig {
            shards: addrs,
            ..CoordinatorConfig::default()
        };
        let (coordinator, _) = tracer.time("cluster.start", || {
            Coordinator::start(Arc::clone(&instance), config)
        });
        let coordinator = coordinator.map_err(|e| format!("coordinator bind: {e}"))?;
        Ok(Cluster {
            shards,
            coordinator,
            instance,
            build_s: built.build_s,
            louvain_s: built.louvain_s,
            gen_s: cluster_gen_s,
            samples,
            arena_bytes,
            index_entries,
        })
    }

    fn stop(self) {
        self.coordinator.stop_and_join();
        for shard in self.shards {
            shard.stop_and_join();
        }
    }
}

/// A coordinator solve's answer.
struct Answer {
    seeds: Vec<NodeId>,
    evaluations: u64,
    estimate: f64,
}

fn parse_answer(reply: &str) -> Option<Answer> {
    let v = json::parse(reply).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    Some(Answer {
        seeds: v
            .get("seeds")?
            .as_array()?
            .iter()
            .filter_map(Value::as_u64)
            .map(|s| NodeId::new(s as u32))
            .collect(),
        evaluations: v.get("evaluations")?.as_u64()?,
        estimate: v.get("estimate")?.as_f64()?,
    })
}

/// The single-node twin: the same plan drawn un-partitioned into one
/// store and solved in-process, once per algorithm. Its answers are the
/// references every coordinator answer must equal.
struct Twin {
    /// Answers by algorithm (see [`slot`]).
    reference: [SolveReport; 2],
    /// Wall seconds of each solve, by algorithm.
    secs: [f64; 2],
    /// The engine's counters over both solves.
    evaluations: f64,
    wasted: f64,
    stale_rechecks: f64,
}

fn slot(algo: MaxrAlgorithm) -> usize {
    usize::from(algo == MaxrAlgorithm::Ubg)
}

impl Twin {
    /// Solves greedy and UBG on one node. The store is dropped on return,
    /// before the cluster starts, so the shard stores set the peak
    /// resident set.
    fn solve(p: &Params, seed: u64, tracer: &mut Tracer) -> Result<Twin, String> {
        let built = build_instance(p.scale);
        let sampler = built.instance.sampler();
        let mut local = RicStore::for_sampler(&sampler);
        local.extend_parallel_with_workers(&sampler, p.samples, seed, WORKERS);
        let req = SolveRequest::new(p.k).with_seed(seed);
        let before = Registry::read();
        let mut solve = |algo: MaxrAlgorithm| {
            let (report, secs) =
                tracer.time("maxr.solve", || algo.solve(&built.instance, &local, &req));
            report
                .map(|r| (r, secs))
                .map_err(|e| format!("{} single-node solve: {e}", algo.name()))
        };
        let (greedy, greedy_s) = solve(MaxrAlgorithm::Greedy)?;
        let (ubg, ubg_s) = solve(MaxrAlgorithm::Ubg)?;
        let after = Registry::read();
        Ok(Twin {
            reference: [greedy, ubg],
            secs: [greedy_s, ubg_s],
            evaluations: after.delta(&before, "imc_engine_evaluations_total"),
            wasted: after.delta(&before, "imc_engine_wasted_evaluations_total"),
            stale_rechecks: after.delta(&before, "imc_engine_stale_rechecks_total"),
        })
    }
}

/// Coordinator solves, each checked against the single-node twin.
struct Bench<'a> {
    p: &'a Params,
    seed: u64,
    corrupt: bool,
    conn: Conn,
    node_count: usize,
    twin: &'a Twin,
    report: &'a mut Report,
    tracer: &'a mut Tracer,
}

impl Bench<'_> {
    /// One coordinator solve, checked against the single-node answer;
    /// returns its wall seconds and ĉ.
    fn remote(&mut self, algo: MaxrAlgorithm) -> (f64, f64) {
        let line = format!(
            "{{\"op\":\"solve\",\"k\":{},\"algo\":\"{}\",\"seed\":{}}}",
            self.p.k,
            algo.name().to_lowercase(),
            self.seed
        );
        let conn = &mut self.conn;
        let (reply, secs) = self.tracer.time("cluster.solve", || {
            conn.call(&line, Duration::from_secs(120))
        });
        let mut answer = reply.ok().as_deref().and_then(parse_answer);
        if self.corrupt {
            self.corrupt = false;
            if let Some(a) = answer.as_mut() {
                flip_first_seed(&mut a.seeds, self.node_count);
            }
        }
        let reference = &self.twin.reference[slot(algo)];
        let ok = answer
            .as_ref()
            .is_some_and(|a| a.seeds == reference.seeds && a.evaluations == reference.evaluations);
        self.report.op(ok, || {
            format!(
                "cluster {} answer differs from the single-node solve",
                algo.name()
            )
        });
        (secs, answer.map_or(0.0, |a| a.estimate))
    }
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let started = Instant::now();
    let p = params(opts.tiny);
    let base_seed = opts.seed;
    let twin = match Twin::solve(&p, base_seed, tracer) {
        Ok(twin) => twin,
        Err(e) => {
            report.op(false, || e);
            return;
        }
    };
    let mut setups = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..p.setups {
        if let Some(old) = cluster.take() {
            old.stop();
        }
        let started = Instant::now();
        match Cluster::start(&p, base_seed, tracer) {
            Ok(c) => {
                setups.push(started.elapsed().as_secs_f64());
                cluster = Some(c);
            }
            Err(e) => {
                report.op(false, || e);
                break;
            }
        }
    }
    let Some(cluster) = cluster else { return };
    report.metric("setup_s", median(&setups), "s");
    let inst = Arc::clone(&cluster.instance);
    report.metric("instance.build_s", cluster.build_s, "s");
    report.metric("instance.louvain_s", cluster.louvain_s, "s");
    report.metric("instance.nodes", inst.node_count() as f64, "count");
    report.metric("instance.edges", inst.graph().edge_count() as f64, "count");
    report.metric(
        "instance.communities",
        inst.community_count() as f64,
        "count",
    );

    let conn = match Conn::connect(cluster.coordinator.addr()) {
        Ok(conn) => conn,
        Err(e) => {
            report.op(false, || format!("coordinator connect: {e}"));
            cluster.stop();
            return;
        }
    };
    let mut bench = Bench {
        p: &p,
        seed: base_seed,
        corrupt: opts.corrupt,
        conn,
        node_count: inst.node_count(),
        twin: &twin,
        report,
        tracer,
    };
    if opts.trace {
        traced(&mut bench, &cluster);
    } else {
        timed(&mut bench, started, opts.seconds);
    }
    drop(bench);
    cluster.stop();
}

fn timed(bench: &mut Bench<'_>, started: Instant, seconds: f64) {
    let loop_started = Instant::now();
    let (mut greedy, mut ubg) = (Vec::new(), Vec::new());
    let mut quality = 0.0;
    // Alternate the two solves in pairs so both medians span the run and
    // the loop holds as many of each; after the first pair, stop before a
    // pair that would overrun the run's budget.
    while greedy.is_empty()
        || started.elapsed().as_secs_f64() + median(&greedy) + median(&ubg) <= seconds
    {
        let (secs, estimate) = bench.remote(MaxrAlgorithm::Greedy);
        greedy.push(secs);
        quality = estimate;
        ubg.push(bench.remote(MaxrAlgorithm::Ubg).0);
    }
    // Solves completed per second of the loop, answer checks included.
    let solves = (greedy.len() + ubg.len()) as f64;
    let capacity = ratio(solves, loop_started.elapsed().as_secs_f64());
    show_samples("cluster_greedy_s", &greedy);
    show_samples("cluster_ubg_s", &ubg);
    let r = &mut *bench.report;
    r.metric("op_p50_ms", median(&greedy) * 1e3, "ms");
    r.metric("op2_ms", median(&ubg) * 1e3, "ms");
    r.metric("capacity_per_s", capacity, "1/s");
    r.metric("quality", quality, "benefit");
}

fn traced(bench: &mut Bench<'_>, cluster: &Cluster) {
    let r = &mut *bench.report;
    r.metric("ric.gen_s", cluster.gen_s, "s");
    r.metric("ric.samples", cluster.samples as f64, "count");
    r.metric(
        "ric.samples_per_s",
        ratio(cluster.samples as f64, cluster.gen_s),
        "1/s",
    );
    r.metric("ric.arena_bytes", cluster.arena_bytes as f64, "bytes");
    r.metric("ric.index_entries", cluster.index_entries as f64, "count");

    // Single-node layer: the engine's counters around the twin's solves.
    let twin = bench.twin;
    let [local_greedy, local_ubg] = twin.secs;
    let solve_s = local_greedy + local_ubg;
    let (evaluations, wasted) = (twin.evaluations, twin.wasted);

    // Scatter layer: one plain greedy solve, one with the program's trace
    // sink installed (stitched into the round timeline), one plain UBG.
    let before = Registry::read();
    let (plain, _) = bench.remote(MaxrAlgorithm::Greedy);
    let sink = MemorySink::default();
    sink.install();
    let (traced, _) = bench.remote(MaxrAlgorithm::Greedy);
    imc_obs::trace::clear_sink();
    let (ubg, _) = bench.remote(MaxrAlgorithm::Ubg);
    let after = Registry::read();
    let events = sink.contents();

    let r = &mut *bench.report;
    r.sink_bytes += events.len() as u64;
    r.sink_events += events.iter().filter(|&&b| b == b'\n').count() as u64;
    r.metric("maxr.solve_s", solve_s, "s");
    r.metric("maxr.evaluations", evaluations, "count");
    r.metric("maxr.evals_per_s", ratio(evaluations, solve_s), "1/s");
    r.metric("maxr.wasted_evaluations", wasted, "count");
    r.metric("maxr.stale_rechecks", twin.stale_rechecks, "count");
    r.metric(
        "maxr.useful_ratio",
        ratio(evaluations - wasted, evaluations),
        "ratio",
    );
    r.metric(
        "cluster.retries",
        after.delta(&before, "imc_cluster_retries_total"),
        "count",
    );
    r.metric("cluster.local_greedy_s", local_greedy, "s");
    r.metric(
        "cluster.overhead_ratio",
        ratio(plain, local_greedy),
        "ratio",
    );
    r.metric("cluster.ubg_overhead_ratio", ratio(ubg, local_ubg), "ratio");
    r.metric("obs.trace_overhead", ratio(traced, plain) - 1.0, "ratio");
    scatter_metrics(r, &events);
}

/// Stitches the traced solve's events into its round timeline and
/// attributes the scatter layer's time: shard compute (the slowest shard's
/// server span per round), the coordinator's wait beyond it, and reduce.
fn scatter_metrics(r: &mut Report, events: &[u8]) {
    let text = String::from_utf8_lossy(events).into_owned();
    let set = TraceSet::parse(&[("cluster".to_string(), text)]);
    let Some(timeline) = set.solve_timeline() else {
        r.op(false, || {
            "traced cluster solve left no timeline".to_string()
        });
        return;
    };
    let rounds = timeline.rounds();
    let scatter_s: f64 = rounds.iter().map(|x| x.scatter_s).sum();
    let reduce_s: f64 = rounds.iter().map(|x| x.reduce_s).sum();
    let batch: f64 = rounds.iter().map(|x| x.batch as f64).sum();

    // Per scatter round, the slowest shard's server-side span.
    let by_id: std::collections::HashMap<&str, usize> = timeline
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span_id.as_str(), i))
        .collect();
    let mut slowest: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let mut rpc_us = Vec::new();
    for span in &timeline.spans {
        if span.name == "rpc_client" {
            rpc_us.push((span.end_us - span.start_us) as f64);
        }
        if span.name != "rpc_server" {
            continue;
        }
        let mut at = span
            .parent_span_id
            .as_deref()
            .and_then(|id| by_id.get(id))
            .copied();
        while let Some(i) = at {
            if timeline.spans[i].name == "scatter_round" {
                let worst = slowest.entry(i).or_insert(0.0);
                *worst = worst.max(span.seconds());
                break;
            }
            at = timeline.spans[i]
                .parent_span_id
                .as_deref()
                .and_then(|id| by_id.get(id))
                .copied();
        }
    }
    let compute_s: f64 = slowest.values().sum();
    r.metric("cluster.scatter_rounds", rounds.len() as f64, "count");
    r.metric(
        "cluster.batch_mean",
        ratio(batch, rounds.len() as f64),
        "count",
    );
    r.metric("cluster.rpc_p50_us", quantile(&rpc_us, 0.5), "us");
    r.metric("cluster.rpc_p99_us", quantile(&rpc_us, 0.99), "us");
    r.metric("cluster.compute_s", compute_s, "s");
    r.metric("cluster.scatter_wait_s", scatter_s - compute_s, "s");
    r.metric("cluster.reduce_s", reduce_s, "s");
}
