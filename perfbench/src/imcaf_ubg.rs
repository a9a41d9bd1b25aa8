//! `imcaf-ubg`: the paper's pipeline (Alg. 5). IMCAF with the UBG solver
//! on the Wiki-Vote analog at scale 1.0, k = 50, ε = δ = 0.2, the paper's
//! engine defaults (Lazy strategy, one thread). RIC generation, the
//! growing collection and the Dagum Estimate all sit on the blocking path;
//! no socket is opened.

use std::time::Instant;

use imc_core::bounds::{lambda, psi, BoundParams};
use imc_core::estimate::estimate_c;
use imc_core::{
    imcaf, imcaf_with_trace, ImcInstance, ImcafConfig, ImcafResult, MaxrAlgorithm, RicStore,
    SolveRequest, StopReason,
};
use imc_diffusion::dagum::dagum_benefit;
use imc_diffusion::IndependentCascade;
use imc_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::util::{
    build_instance, median, ratio, show_samples, MemorySink, Registry, Report, Tracer,
};
use crate::Opts;

/// Grader seed of the forward-IC benefit check: fixed, so one seed set
/// always gets the same grade.
const GRADER_SEED: u64 = 0x6A7D_E5EE;
/// Grader sample cap; the stopping rule ends far earlier on this instance.
const GRADER_CAP: u64 = 10_000_000;

struct Params {
    scale: f64,
    k: usize,
    /// Instance builds before the first IMCAF call; a timed run adds one
    /// per round, so `setup_s` samples the whole run.
    setups: usize,
    min_calls: usize,
    /// Benefit grades per round.
    grades: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            scale: 0.05,
            k: 5,
            setups: 2,
            min_calls: 2,
            grades: 2,
        }
    } else {
        Params {
            scale: 1.0,
            k: 50,
            setups: 3,
            min_calls: 3,
            grades: 5,
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let p = params(opts.tiny);
    let mut setups = Vec::new();
    let mut louvains = Vec::new();
    let mut built = None;
    for _ in 0..p.setups {
        let (b, _) = tracer.time("instance.build", || build_instance(p.scale));
        setups.push(b.build_s);
        louvains.push(b.louvain_s);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let inst = &built.instance;
    let cfg = ImcafConfig::paper_defaults(p.k);
    report.metric("instance.louvain_s", median(&louvains), "s");
    report.metric("instance.nodes", inst.node_count() as f64, "count");
    report.metric("instance.edges", inst.graph().edge_count() as f64, "count");
    report.metric(
        "instance.communities",
        inst.community_count() as f64,
        "count",
    );

    if tracer.is_on() {
        traced(opts, &p, inst, &cfg, report, tracer);
    } else {
        timed(opts, &p, inst, &cfg, report, tracer, &mut setups);
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("instance.build_s", median(&setups), "s");
}

/// Checks one IMCAF answer: `k` distinct seeds, converged, and equal to
/// the `reference` answer of the same seed.
fn check_answer(
    report: &mut Report,
    result: &imc_core::Result<ImcafResult>,
    k: usize,
    reference: &mut Option<Vec<NodeId>>,
) {
    let Ok(result) = result else {
        report.op(false, || {
            format!("imcaf failed: {:?}", result.as_ref().err())
        });
        return;
    };
    let mut distinct = result.seeds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let reference = reference.get_or_insert_with(|| result.seeds.clone());
    let ok = result.seeds.len() == k
        && distinct.len() == k
        && result.stop_reason == StopReason::Converged
        && result.seeds == *reference;
    report.op(ok, || {
        format!(
            "imcaf answer: {} seeds ({} distinct), stop {:?}, same as first call: {}",
            result.seeds.len(),
            distinct.len(),
            result.stop_reason,
            result.seeds == *reference
        )
    });
}

/// Replaces the first seed with its neighbour id: the smoke test's
/// corrupted answer, which every answer check must catch.
pub fn flip_first_seed(seeds: &mut [NodeId], node_count: usize) {
    if let Some(first) = seeds.first_mut() {
        *first = NodeId::new(((first.index() + 1) % node_count) as u32);
    }
}

fn timed(
    opts: &Opts,
    p: &Params,
    inst: &ImcInstance,
    cfg: &ImcafConfig,
    report: &mut Report,
    tracer: &mut Tracer,
    setups: &mut Vec<f64>,
) {
    let started = Instant::now();
    let mut reference: Option<Vec<NodeId>> = None;
    let mut answer: Option<ImcafResult> = None;
    let (mut call_s, mut grade_s, mut grades) = (Vec::new(), Vec::new(), Vec::new());
    // Each round runs one IMCAF call, a few gradings and one instance
    // build, so every median spans the whole run rather than one stretch.
    loop {
        let round_started = Instant::now();
        let (mut result, secs) =
            tracer.time("imcaf", || imcaf(inst, MaxrAlgorithm::Ubg, cfg, opts.seed));
        call_s.push(secs);
        if opts.corrupt && call_s.len() == 1 {
            if let Ok(r) = result.as_mut() {
                flip_first_seed(&mut r.seeds, inst.node_count());
            }
        }
        check_answer(report, &result, p.k, &mut reference);
        if let Ok(r) = result {
            answer = Some(r);
        }
        let Some(seeds) = reference.clone() else {
            return;
        };

        // Grade the answer by forward IC simulation (Dagum stopping rule).
        for _ in 0..p.grades {
            let (grade, secs) = tracer.time("grade", || {
                dagum_benefit(
                    inst.graph(),
                    inst.communities(),
                    &IndependentCascade,
                    &seeds,
                    cfg.epsilon,
                    cfg.delta,
                    GRADER_CAP,
                    GRADER_SEED,
                )
            });
            grade_s.push(secs);
            match grade {
                Ok(g) => grades.push(g),
                Err(e) => {
                    report.op(false, || format!("benefit grading failed: {e}"));
                }
            }
        }
        let (rebuilt, _) = tracer.time("instance.build", || build_instance(p.scale));
        setups.push(rebuilt.build_s);
        drop(rebuilt);
        let round_s = round_started.elapsed().as_secs_f64();
        if call_s.len() >= p.min_calls && started.elapsed().as_secs_f64() + round_s > opts.seconds {
            break;
        }
    }
    // IMCAF calls completed per second of the loop, grading, instance
    // builds and answer checks included.
    let capacity = ratio(call_s.len() as f64, started.elapsed().as_secs_f64());
    let Some(answer) = answer else {
        return;
    };
    let benefit = grades.first().copied().unwrap_or(0.0);
    let c_hat = answer.estimate;
    report.op(
        grades.iter().all(|&g| g == benefit) && (benefit - c_hat).abs() <= cfg.epsilon * c_hat,
        || format!("benefit {benefit} vs ĉ {c_hat}: outside ε·ĉ or not repeatable"),
    );

    show_samples("imcaf_s", &call_s);
    show_samples("grade_s", &grade_s);
    report.metric("op_p50_ms", median(&call_s) * 1e3, "ms");
    report.metric("op2_ms", median(&grade_s) * 1e3, "ms");
    report.metric("capacity_per_s", capacity, "1/s");
    report.metric("quality", benefit, "benefit");
}

fn traced(
    opts: &Opts,
    p: &Params,
    inst: &ImcInstance,
    cfg: &ImcafConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let runs = if opts.tiny { 1 } else { 2 };
    let mut reference: Option<Vec<NodeId>> = None;
    let mut plain_s = Vec::new();
    let mut rounds = 0;
    for _ in 0..runs {
        let (result, secs) = tracer.time("imcaf", || {
            imcaf_with_trace(inst, MaxrAlgorithm::Ubg, cfg, opts.seed)
        });
        plain_s.push(secs);
        let (result, records) = match result {
            Ok((r, records)) => (Ok(r), records),
            Err(e) => (Err(e), Vec::new()),
        };
        rounds = records.len();
        check_answer(report, &result, p.k, &mut reference);
    }
    // The same call with the program's own trace sink installed.
    let sink = MemorySink::default();
    let mut traced_s = Vec::new();
    for _ in 0..runs {
        sink.install();
        let (result, secs) = tracer.time("imcaf.traced", || {
            imcaf(inst, MaxrAlgorithm::Ubg, cfg, opts.seed)
        });
        imc_obs::trace::clear_sink();
        traced_s.push(secs);
        check_answer(report, &result, p.k, &mut reference);
    }
    let events = sink.contents();
    report.sink_bytes += events.len() as u64;
    report.sink_events += events.iter().filter(|&&b| b == b'\n').count() as u64;

    // Each layer timed on its own, at the round sizes IMCAF used.
    let before = Registry::read();
    let replayed = replay(inst, cfg, opts.seed, tracer);
    let after = Registry::read();
    report.op(
        Some(&replayed.seeds) == reference.as_ref() && replayed.rounds == rounds,
        || "replayed layers disagree with the IMCAF answer".to_string(),
    );
    let solve_s: f64 = replayed.solve_s.iter().sum();
    let wasted = after.delta(&before, "imc_engine_wasted_evaluations_total");
    let evaluations = replayed.evaluations as f64;
    let attributed = replayed.gen_s + solve_s + replayed.estimate_s;
    let imcaf_s = median(&plain_s);

    report.metric("ric.gen_s", replayed.gen_s, "s");
    report.metric("ric.samples", replayed.store.len() as f64, "count");
    report.metric(
        "ric.samples_per_s",
        ratio(replayed.store.len() as f64, replayed.gen_s),
        "1/s",
    );
    report.metric(
        "ric.arena_bytes",
        replayed.store.arena_bytes() as f64,
        "bytes",
    );
    report.metric(
        "ric.index_entries",
        replayed.store.index_entries() as f64,
        "count",
    );
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
    report.metric("estimate.calls", replayed.estimate_calls as f64, "count");
    report.metric(
        "estimate.samples_drawn",
        replayed.estimate_samples as f64,
        "count",
    );
    report.metric("estimate.s", replayed.estimate_s, "s");
    report.metric("imcaf.rounds", rounds as f64, "count");
    report.metric(
        "imcaf.unattributed_share",
        1.0 - ratio(attributed, imcaf_s),
        "ratio",
    );
    report.metric(
        "obs.trace_overhead",
        ratio(median(&traced_s), imcaf_s) - 1.0,
        "ratio",
    );
}

/// IMCAF's loop replayed step by step through the public layer calls, so
/// each layer can be timed on its own: the same RNG stream, the same
/// round sizes, the same solver requests and Estimate calls.
struct Replay {
    seeds: Vec<NodeId>,
    rounds: usize,
    store: RicStore,
    gen_s: f64,
    solve_s: Vec<f64>,
    evaluations: u64,
    estimate_calls: u64,
    estimate_samples: u64,
    estimate_s: f64,
}

fn replay(inst: &ImcInstance, cfg: &ImcafConfig, seed: u64, tracer: &mut Tracer) -> Replay {
    let k = cfg.k;
    let algorithm = MaxrAlgorithm::Ubg;
    let alpha = algorithm.approximation_ratio(inst.community_count(), inst.max_threshold(), k);
    let bounds = BoundParams {
        total_benefit: inst.total_benefit(),
        min_benefit: inst.min_benefit(),
        max_threshold: inst.max_threshold(),
        node_count: inst.node_count(),
        k,
    };
    let (e2, d2) = (cfg.epsilon / 2.0, cfg.delta / 2.0);
    let psi_capped = psi(&bounds, e2, e2, d2, d2, alpha)
        .min(cfg.max_samples as f64)
        .max(1.0) as usize;
    let es = cfg.epsilon / 4.0;
    let check_lambda = lambda(es, es, es, cfg.delta);

    let open = tracer.open("imcaf.replay");
    let sampler = inst.sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = RicStore::for_sampler(&sampler);
    let initial = (check_lambda.ceil() as usize).min(psi_capped).max(1);
    let ((), mut gen_s) = tracer.time("ric.extend", || {
        store.extend_with(&sampler, initial, &mut rng)
    });
    let mut out = Replay {
        seeds: Vec::new(),
        rounds: 0,
        store: RicStore::for_sampler(&sampler),
        gen_s: 0.0,
        solve_s: Vec::new(),
        evaluations: 0,
        estimate_calls: 0,
        estimate_samples: 0,
        estimate_s: 0.0,
    };
    loop {
        out.rounds += 1;
        let req = SolveRequest::new(k)
            .with_seed(seed ^ out.rounds as u64)
            .with_strategy(cfg.strategy);
        let (solution, secs) = tracer.time("maxr.solve", || algorithm.solve(inst, &store, &req));
        out.solve_s.push(secs);
        let Ok(solution) = solution else { break };
        out.evaluations += solution.evaluations;
        out.seeds = solution.seeds.clone();
        if solution.influenced_samples as f64 >= check_lambda {
            let log_rounds = (psi_capped as f64 / check_lambda).log2().max(1.0);
            let delta_est = (cfg.delta / (3.0 * log_rounds)).clamp(1e-9, 0.999);
            let t_max = (store.len() as f64 * (1.0 + es) / (1.0 - es)).ceil() as u64;
            let (graded, secs) = tracer.time("estimate", || {
                estimate_c(&sampler, &solution.seeds, es, delta_est, t_max, &mut rng)
            });
            out.estimate_calls += 1;
            out.estimate_s += secs;
            out.estimate_samples += graded.map_or(t_max, |g| g.samples_used);
            if graded.is_some_and(|g| solution.estimate <= (1.0 + es) * g.estimate) {
                break;
            }
        }
        if store.len() >= psi_capped {
            break;
        }
        let grow = store.len().min(psi_capped - store.len()).max(1);
        let ((), secs) = tracer.time("ric.extend", || store.extend_with(&sampler, grow, &mut rng));
        gen_s += secs;
    }
    tracer.close(open);
    out.gen_s = gen_s;
    out.store = store;
    out
}
