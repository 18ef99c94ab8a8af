//! `churn-1m`: a million flows bulk-loaded into the online engine, then
//! 50/50 arrival/departure churn in batches under local-only repair —
//! the flow index, lazy queue and local repair with no drift oracle, no
//! static solve and no daemon.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_graph::generators::erdos_renyi_connected;
use tdmd_graph::DiGraph;
use tdmd_online::{Event, HopPricer, OnlineEngine, RepairPolicy};
use tdmd_traffic::{Flow, GatewayWorkload};

use crate::common::{
    median, percentile, secs, status_mb, tail, Opts, Outcome, Rounds, Tracer, TOPOLOGY_SEED,
};
use crate::eval::{evaluate, membership, same};

/// Input make-up of the churn workload.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Vertices of the Erdős–Rényi graph (average degree ≈ 8).
    pub nodes: usize,
    /// Gateway (destination) vertices.
    pub gateways: usize,
    /// Flows bulk-loaded before the churn.
    pub flows: usize,
    /// Events per `apply_batch` call.
    pub batch: usize,
    /// Middlebox budget.
    pub k: usize,
    /// Traffic-changing ratio.
    pub lambda: f64,
    /// Rates are uniform in `1..=max_rate`.
    pub max_rate: u64,
    /// Churn batches in the block every round applies after the load.
    pub block_batches: usize,
    /// Rounds a run makes however short `--seconds` is.
    pub min_rounds: usize,
}

impl ChurnParams {
    /// `churn-1m`.
    pub fn full() -> Self {
        Self {
            nodes: 1024,
            gateways: 8,
            flows: 1_000_000,
            batch: 1024,
            k: 32,
            lambda: 0.5,
            max_rate: 10,
            block_batches: 1000,
            min_rounds: 3,
        }
    }

    /// Debug-build size, for the smoke test.
    pub fn smoke() -> Self {
        Self {
            nodes: 96,
            gateways: 4,
            flows: 5_000,
            batch: 64,
            k: 8,
            block_batches: 40,
            min_rounds: 2,
            ..Self::full()
        }
    }
}

struct Input {
    graph: DiGraph,
    /// The flows of the bulk load, dense ids from 0.
    flows: Vec<Flow>,
    /// The churn block: `block_batches` batches of `batch` events.
    churn: Vec<Vec<Event>>,
    /// The benchmark's own active set after the churn block.
    active: Vec<Flow>,
}

/// Generates the load and the churn block of seed `seed` over the
/// workload's fixed topology and gateways: each churn event departs a
/// uniformly chosen active flow or mints a new one, with equal odds.
fn generate(p: &ChurnParams, seed: u64) -> Input {
    let mut topo = StdRng::seed_from_u64(TOPOLOGY_SEED ^ 0xC4_0124);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0124);
    let edge_p = (8.0 / (p.nodes - 1) as f64).min(1.0);
    let graph = erdos_renyi_connected(p.nodes, edge_p, &mut topo);
    let gateways = GatewayWorkload::pick_gateways(p.nodes, p.gateways, &mut topo);
    let workload = GatewayWorkload::new(&graph, gateways, p.max_rate);
    let flows = workload.flows(&graph, 0, p.flows, &mut rng);
    let mut active = flows.clone();
    let mut next_id = flows.len() as u32;
    let mut churn = Vec::with_capacity(p.block_batches);
    for _ in 0..p.block_batches {
        let mut batch = Vec::with_capacity(p.batch);
        for _ in 0..p.batch {
            if rng.gen_bool(0.5) && !active.is_empty() {
                let gone = active.swap_remove(rng.gen_range(0..active.len()));
                batch.push(Event::FlowDeparted {
                    key: u64::from(gone.id),
                });
            } else {
                let f = workload.flow(&graph, next_id, &mut rng);
                next_id += 1;
                batch.push(arrival(&f));
                active.push(f);
            }
        }
        churn.push(batch);
    }
    Input {
        graph,
        flows,
        churn,
        active,
    }
}

fn arrival(f: &Flow) -> Event {
    Event::FlowArrived {
        key: u64::from(f.id),
        rate: f.rate,
        path: f.path.clone(),
    }
}

type Engine = OnlineEngine<HopPricer>;

fn engine(p: &ChurnParams, input: &Input) -> Result<Engine, String> {
    OnlineEngine::new(
        input.graph.clone(),
        p.lambda,
        p.k,
        HopPricer::default(),
        RepairPolicy::local_only(4),
    )
    .map_err(|e| format!("OnlineEngine::new: {e}"))
}

/// Checks the engine's objectives and flow count against the evaluator
/// over `active`; returns the objective.
fn check(p: &ChurnParams, engine: &Engine, active: &[Flow]) -> Result<f64, String> {
    let deployed = membership(p.nodes, engine.deployment().vertices());
    let e = evaluate(
        active.iter().map(|f| (f.rate, f.path.as_slice())),
        p.lambda,
        &deployed,
    );
    if engine.active_count() as u64 != e.flows {
        return Err(format!(
            "engine holds {} active flows, the benchmark {}",
            engine.active_count(),
            e.flows
        ));
    }
    if engine.deployment().len() > p.k {
        return Err(format!(
            "{} middleboxes exceed k = {}",
            engine.deployment().len(),
            p.k
        ));
    }
    same("exact_objective()", engine.exact_objective(), e.bandwidth)?;
    same("objective()", engine.objective(), e.bandwidth)?;
    Ok(e.bandwidth)
}

/// What one round measured; times in µs.
struct Round {
    load_us: f64,
    /// Each churn batch.
    batches_us: Vec<f64>,
    bandwidth: f64,
}

/// One round: a fresh engine, the bulk load (only the `apply_batch`
/// calls are timed; building the event vectors is the benchmark's
/// work), the churn block with each batch timed, and the checks.
fn round(p: &ChurnParams, input: &Input) -> Result<Round, String> {
    let mut engine = engine(p, input)?;
    let mut load_us = 0.0;
    for chunk in input.flows.chunks(p.batch) {
        let batch: Vec<Event> = chunk.iter().map(arrival).collect();
        let t = Instant::now();
        engine
            .apply_batch(&batch)
            .map_err(|e| format!("bulk load apply_batch: {e}"))?;
        load_us += secs(t) * 1e6;
    }
    check(p, &engine, &input.flows)?;
    let mut batches_us = Vec::with_capacity(input.churn.len());
    for batch in &input.churn {
        let t = Instant::now();
        engine
            .apply_batch(batch)
            .map_err(|e| format!("churn apply_batch: {e}"))?;
        batches_us.push(secs(t) * 1e6);
    }
    let bandwidth = check(p, &engine, &input.active)?;
    Ok(Round {
        load_us,
        batches_us,
        bandwidth,
    })
}

/// Runs `churn-1m` (or its smoke size).
pub fn run(p: &ChurnParams, opts: &Opts) -> Result<Outcome, String> {
    let input = generate(p, opts.seed);
    if opts.trace {
        return traced(p, &input);
    }
    // Every round repeats the same load and churn block on a fresh
    // engine, so set-up samples are spread over the run like the rest,
    // and one disturbed stretch moves one round's figures only.
    let mut rounds: Vec<Round> = Vec::new();
    let mut go = Rounds::new(opts.seconds, p.min_rounds);
    while go.another() {
        let r = round(p, &input)?;
        if let Some(first) = rounds.first() {
            same(
                "churn bandwidth of two rounds",
                r.bandwidth,
                first.bandwidth,
            )?;
        }
        rounds.push(r);
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let block_s = |r: &Round| r.batches_us.iter().sum::<f64>() / 1e6;
    let events = (input.churn.len() * p.batch) as f64;
    // Batch percentiles pool every batch of the run: a tail read from one
    // round would rest on its ten slowest batches only.
    let mut pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.batches_us.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let p50 = percentile(&pooled, 50.0);
    let p99 = tail(&pooled, 99.0);

    let calls = (input.flows.len().div_ceil(p.batch) + input.churn.len()) as u64;
    let mut out = Outcome {
        attempted: rounds.len() as u64 * calls,
        ..Outcome::default()
    };
    out.put("setup_s", per_round(&|r| r.load_us / 1e6), "s");
    out.put("solve_s", per_round(&block_s), "s");
    out.put("events_per_s", per_round(&|r| events / block_s(r)), "1/s");
    // An event is done when the batch carrying it returns, and every
    // batch carries the same number of events, so event percentiles are
    // batch percentiles. Batches are the independent samples, and a
    // round of a thousand supports p99 at most: the event tail reported
    // is the batch p99.
    out.put("event_p50_us", p50, "us");
    out.put("event_p9999_us", p99, "us");
    out.put("batch_p50_us", p50, "us");
    out.put("batch_p99_us", p99, "us");
    out.put("bandwidth", rounds[0].bandwidth, "rate.hop");
    out.put("peak_rss_mb", status_mb("VmHWM"), "MB");
    Ok(out)
}

/// One untraced round (the overhead reference), then a traced one with
/// a span around every `apply_batch`.
fn traced(p: &ChurnParams, input: &Input) -> Result<Outcome, String> {
    let t = Instant::now();
    round(p, input)?;
    let untraced_us = secs(t) * 1e6;

    let mut engine = engine(p, input)?;
    let mut tr = Tracer::new();
    let root = tr.enter("churn.round");
    for chunk in input.flows.chunks(p.batch) {
        let batch: Vec<Event> = tr.time("bench.make_batch", || chunk.iter().map(arrival).collect());
        tr.time("online.apply_batch", || engine.apply_batch(&batch))
            .map_err(|e| format!("bulk load apply_batch: {e}"))?;
    }
    tr.time("bench.check", || check(p, &engine, &input.flows))?;
    let before = *engine.stats();
    for batch in &input.churn {
        tr.time("online.apply_batch", || engine.apply_batch(batch))
            .map_err(|e| format!("churn apply_batch: {e}"))?;
    }
    let after = *engine.stats();
    tr.time("bench.check", || check(p, &engine, &input.active))?;
    tr.exit(root);

    let mut out = Outcome {
        attempted: 2 * (input.flows.len().div_ceil(p.batch) + input.churn.len()) as u64,
        ..Outcome::default()
    };
    for (name, n) in [
        ("online.adds", after.adds - before.adds),
        ("online.drops", after.drops - before.drops),
        ("online.swaps", after.swaps - before.swaps),
        (
            "online.drift_samples",
            after.drift_samples - before.drift_samples,
        ),
        (
            "online.oracle_failures",
            after.oracle_failures - before.oracle_failures,
        ),
        ("online.replans", after.replans - before.replans),
    ] {
        out.put(name, n as f64, "count");
    }
    out.put("online.active_flows", engine.active_count() as f64, "count");
    out.put("trace.coverage", tr.coverage(root), "ratio");
    out.put("trace.overhead", tr.us(root) / untraced_us, "ratio");
    out.spans = Some(tr);
    Ok(out)
}
