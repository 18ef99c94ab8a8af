//! `cold-tight` and `cold-slack`: one `Instance::new` and one
//! `gtp_budgeted` from scratch, repeated in whole rounds.
//!
//! Both use gateway traffic over a connected Erdős–Rényi graph. With
//! 8 gateways and k = 32 the budget turns tight in the last rounds and
//! the feasibility guard does nearly all the work; with 2 gateways and
//! k = 64 the guard never activates and gain scoring does the work.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::feasibility::greedy_cover_size;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Deployment, Instance};
use tdmd_graph::generators::erdos_renyi_connected;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::{Flow, GatewayWorkload};

use crate::common::{median, secs, status_mb, Opts, Outcome, Rounds, Tracer, TOPOLOGY_SEED};
use crate::eval::check_cold;

/// Input make-up of a cold workload.
#[derive(Debug, Clone, Copy)]
pub struct ColdParams {
    /// Vertices of the Erdős–Rényi graph (average degree ≈ 8).
    pub nodes: usize,
    /// Gateway (destination) vertices.
    pub gateways: usize,
    /// Gateways are extra vertices with one uplink each, instead of
    /// graph vertices drawn at random.
    pub single_homed: bool,
    /// Flows.
    pub flows: usize,
    /// Middlebox budget.
    pub k: usize,
    /// Traffic-changing ratio.
    pub lambda: f64,
    /// Rates are uniform in `1..=max_rate`.
    pub max_rate: u64,
    /// Rounds a run makes however short `--seconds` is.
    pub min_rounds: usize,
    /// `Instance::new` calls per round; `setup_s` is their median.
    pub builds: usize,
}

impl ColdParams {
    /// `cold-tight`: the guard-bound solve.
    pub fn tight() -> Self {
        Self {
            nodes: 1024,
            gateways: 8,
            single_homed: false,
            flows: 15_000,
            k: 32,
            lambda: 0.5,
            max_rate: 10,
            min_rounds: 3,
            builds: 15,
        }
    }

    /// `cold-slack`: the scoring-bound solve.
    pub fn slack() -> Self {
        Self {
            gateways: 2,
            single_homed: true,
            flows: 300_000,
            k: 64,
            builds: 3,
            ..Self::tight()
        }
    }

    /// Debug-build size of `cold-tight`, for the smoke test.
    pub fn tight_smoke() -> Self {
        Self {
            nodes: 96,
            flows: 600,
            k: 12,
            min_rounds: 1,
            ..Self::tight()
        }
    }

    /// Debug-build size of `cold-slack`, for the smoke test. On the
    /// 96-vertex network a budget of 24 or less (32 on some seeds)
    /// leaves one flow unserved until the last round, where the guard
    /// fires: half the vertices keep the budget slack, as 64 of 1,024
    /// do at full size.
    pub fn slack_smoke() -> Self {
        Self {
            nodes: 96,
            flows: 3_000,
            k: 48,
            min_rounds: 1,
            ..Self::slack()
        }
    }
}

/// A generated cold input.
struct ColdInput {
    graph: DiGraph,
    /// The flows, dense ids from 0.
    flows: Vec<Flow>,
}

impl ColdInput {
    /// Fresh owned copies for `Instance::new`, made outside the timed
    /// region.
    fn parts(&self) -> (DiGraph, Vec<Flow>) {
        (self.graph.clone(), self.flows.clone())
    }
}

/// Generates the input of seed `seed`: the seed draws the flows over
/// the workload's fixed topology and gateways.
///
/// Random gateways leave, on some networks, a gateway neighbour that
/// relays only its own flows; gain scoring never picks it, so its
/// one-hop flows stay unserved until the guard forces a box in the last
/// round. A single-homed gateway's uplink relays all of its traffic and
/// is picked early, so full-size `cold-slack` does not reach the guard.
fn generate(p: &ColdParams, seed: u64) -> ColdInput {
    let mut topo = StdRng::seed_from_u64(TOPOLOGY_SEED ^ 0xC01D);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let core = p.nodes - if p.single_homed { p.gateways } else { 0 };
    let edge_p = (8.0 / (core - 1) as f64).min(1.0);
    let mut graph = erdos_renyi_connected(core, edge_p, &mut topo);
    let gateways = if p.single_homed {
        let mut edges = graph.to_edge_list();
        let stubs: Vec<NodeId> = (core..p.nodes).map(|g| g as NodeId).collect();
        for &g in &stubs {
            let uplink = topo.gen_range(0..core) as NodeId;
            edges.extend([(g, uplink, 1), (uplink, g, 1)]);
        }
        graph = DiGraph::from_edges(p.nodes, &edges);
        stubs
    } else {
        GatewayWorkload::pick_gateways(p.nodes, p.gateways, &mut topo)
    };
    let workload = GatewayWorkload::new(&graph, gateways, p.max_rate);
    let flows = workload.flows(&graph, 0, p.flows, &mut rng);
    ColdInput { graph, flows }
}

fn check(p: &ColdParams, input: &ColdInput, dep: &Deployment, reported: f64) -> Result<(), String> {
    let flows = input.flows.iter().map(|f| (f.rate, f.path.as_slice()));
    check_cold(flows, p.lambda, p.nodes, p.k, dep.vertices(), reported).map(|_| ())
}

/// Runs one cold workload.
pub fn run(p: &ColdParams, opts: &Opts) -> Result<Outcome, String> {
    let input = generate(p, opts.seed);
    if opts.trace {
        return traced(p, &input);
    }
    let mut setup = Vec::new();
    let mut solve = Vec::new();
    let mut first: Option<(Vec<u32>, f64)> = None;
    let mut go = Rounds::new(opts.seconds, p.min_rounds);
    while go.another() {
        let mut inst = None;
        for _ in 0..p.builds {
            drop(inst.take());
            let (graph, flows) = input.parts();
            let t = Instant::now();
            let built = Instance::new(graph, flows, p.lambda, p.k)
                .map_err(|e| format!("Instance::new: {e}"))?;
            setup.push(secs(t));
            inst = Some(built);
        }
        let inst = inst.ok_or("no Instance::new ran")?;
        let t = Instant::now();
        let dep = gtp_budgeted(&inst, p.k).map_err(|e| format!("gtp_budgeted: {e}"))?;
        solve.push(secs(t));
        let reported = bandwidth_of(&inst, &dep);
        drop(inst);
        check(p, &input, &dep, reported)?;
        match &first {
            None => first = Some((dep.vertices().to_vec(), reported)),
            Some((v, b)) if v == dep.vertices() && b.to_bits() == reported.to_bits() => {}
            Some(_) => return Err("two solves of one input disagree".into()),
        }
    }
    let (_, bandwidth) = first.expect("at least one round ran");
    let solve_s = median(&solve);
    let slowest = solve.iter().copied().fold(0.0, f64::max);
    let mut out = Outcome {
        attempted: (setup.len() + solve.len()) as u64,
        ..Outcome::default()
    };
    out.put("setup_s", median(&setup), "s");
    out.put("solve_s", solve_s, "s");
    out.put("events_per_s", p.flows as f64 / solve_s, "1/s");
    // A cold solve is one batch holding every flow, and each flow's
    // placement is known when it returns: batch and event latencies are
    // solve times, and the tails are the slowest solve of the run.
    out.put("event_p50_us", solve_s * 1e6, "us");
    out.put("event_p9999_us", slowest * 1e6, "us");
    out.put("batch_p50_us", solve_s * 1e6, "us");
    out.put("batch_p99_us", slowest * 1e6, "us");
    out.put("bandwidth", bandwidth, "rate.hop");
    out.put("peak_rss_mb", status_mb("VmHWM"), "MB");
    Ok(out)
}

/// The work of one round, untraced: the reference for the tracing
/// overhead.
fn round_untraced(p: &ColdParams, input: &ColdInput) -> Result<f64, String> {
    let (graph, flows) = input.parts();
    let t = Instant::now();
    let inst =
        Instance::new(graph, flows, p.lambda, p.k).map_err(|e| format!("Instance::new: {e}"))?;
    let dep = gtp_budgeted(&inst, p.k).map_err(|e| format!("gtp_budgeted: {e}"))?;
    std::hint::black_box(greedy_cover_size(&inst));
    let reported = bandwidth_of(&inst, &dep);
    let wall = secs(t);
    drop(inst);
    check(p, input, &dep, reported)?;
    Ok(wall)
}

fn traced(p: &ColdParams, input: &ColdInput) -> Result<Outcome, String> {
    let untraced_s = round_untraced(p, input)?;
    let mut tr = Tracer::new();
    let (graph, flows) = input.parts();
    let root = tr.enter("cold.round");
    let inst = tr
        .time("core.index_build", || {
            Instance::new(graph, flows, p.lambda, p.k)
        })
        .map_err(|e| format!("Instance::new: {e}"))?;
    let before = tdmd_core::obs::snapshot();
    let dep = tr
        .time("core.solve", || gtp_budgeted(&inst, p.k))
        .map_err(|e| format!("gtp_budgeted: {e}"))?;
    let spent = tdmd_core::obs::snapshot().delta_since(&before);
    let cover = tr.time("core.cover", || greedy_cover_size(&inst));
    let reported = tr.time("core.objective", || bandwidth_of(&inst, &dep));
    tr.exit(root);
    drop(inst);
    check(p, input, &dep, reported)?;
    if cover == usize::MAX {
        return Err("greedy_cover_size found an uncoverable flow".into());
    }

    let mut out = Outcome {
        attempted: 4,
        ..Outcome::default()
    };
    out.put("core.index_build_us", tr.total_us("core.index_build"), "us");
    out.put("core.solve_us", tr.total_us("core.solve"), "us");
    out.put("core.cover_us", tr.total_us("core.cover"), "us");
    out.put_core(&spent);
    out.put("trace.coverage", tr.coverage(root), "ratio");
    out.put("trace.overhead", tr.us(root) / (untraced_s * 1e6), "ratio");
    out.spans = Some(tr);
    Ok(out)
}
