//! `serve-gravity`: a multi-tenant gravity event stream replayed
//! closed-loop through `ServeSession::run`, from an in-memory reader to
//! an in-memory writer, with periodic `"Telemetry"` lines and one
//! mid-stream `"Snapshot"` line — wire parsing, per-event apply,
//! drift-oracle sampling, telemetry and snapshotting together, the way
//! the daemon runs them.

use std::collections::BTreeMap;
use std::io::{BufRead, Read};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_graph::generators::erdos_renyi_connected;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{events_from_spans, Event, FlowSpan, HopPricer, OnlineEngine, RepairPolicy};
use tdmd_serve::{ServeConfig, ServeSession, ServeSnapshot, Telemetry, WireEvent, WireRecord};
use tdmd_traffic::{gravity_workload, GravityConfig, TenantProfile};

use crate::common::{
    median, percentile, secs, status_mb, tail, Opts, Outcome, Rounds, Tracer, TOPOLOGY_SEED,
};
use crate::eval::{charge, membership, same};

/// Input make-up of the serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Vertices of the Erdős–Rényi graph.
    pub nodes: usize,
    /// Its link probability.
    pub edge_p: f64,
    /// Traffic classes.
    pub tenants: usize,
    /// Total gravity-matrix volume in rate units.
    pub total_rate: u64,
    /// Flows (each makes one arrival and one departure line).
    pub flows: usize,
    /// Arrivals fall uniformly in `[0, duration)` µs of stream time.
    pub duration: u64,
    /// Mean flow holding time in µs of stream time.
    pub mean_hold: u64,
    /// Middlebox budget.
    pub k: usize,
    /// Traffic-changing ratio.
    pub lambda: f64,
    /// A `"Telemetry"` line follows every this many event lines.
    pub telemetry_every: usize,
    /// Replays a run makes however short `--seconds` is.
    pub min_replays: usize,
    /// Snapshot parses and restores after each replay; `setup_s` is
    /// their median.
    pub restores: usize,
}

impl ServeParams {
    /// `serve-gravity`: the shape of the repository's serve benchmark.
    pub fn full() -> Self {
        Self {
            nodes: 140,
            edge_p: 0.05,
            tenants: 3,
            total_rate: 400_000,
            flows: 50_000,
            duration: 1_000_000,
            mean_hold: 250_000,
            k: 8,
            lambda: 0.5,
            telemetry_every: 1_000,
            min_replays: 2,
            restores: 8,
        }
    }

    /// Debug-build size, for the smoke test.
    pub fn smoke() -> Self {
        Self {
            nodes: 40,
            edge_p: 0.15,
            total_rate: 40_000,
            flows: 1_500,
            telemetry_every: 100,
            min_replays: 1,
            restores: 2,
            ..Self::full()
        }
    }
}

/// A generated stream: the wire events in order, control lines
/// included, and the same as NDJSON text.
struct Input {
    graph: DiGraph,
    events: Vec<WireEvent>,
    /// The whole stream.
    text: String,
    /// The lines after the `"Snapshot"` line.
    tail: String,
}

/// Tenant 0 is premium (larger rate, weight), the last best-effort.
fn profiles(count: usize) -> Vec<TenantProfile> {
    (0..count)
        .map(|t| {
            let rank = if count == 1 {
                1.0
            } else {
                1.0 - t as f64 / (count - 1) as f64
            };
            TenantProfile {
                share: 1.0 / count as f64,
                rate_scale: 0.5 + rank,
                weight: 0.5 + 1.5 * rank,
            }
        })
        .collect()
}

fn line(ev: &WireEvent) -> Result<String, String> {
    serde_json::to_string(ev).map_err(|e| format!("serializing {ev:?}: {e}"))
}

/// Generates the stream of seed `seed`: the seed draws the gravity
/// matrix and the flows' timing over the workload's fixed topology.
fn generate(p: &ServeParams, seed: u64) -> Result<Input, String> {
    let mut topo = StdRng::seed_from_u64(TOPOLOGY_SEED ^ 0x5E_4E);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_4E);
    let graph = erdos_renyi_connected(p.nodes, p.edge_p, &mut topo);
    let cfg = GravityConfig {
        total_rate: p.total_rate,
        tenants: profiles(p.tenants),
        population_range: (1 << 15, 1 << 18),
        max_flows: p.flows,
    };
    let all: Vec<NodeId> = (0..p.nodes as NodeId).collect();
    let flows = gravity_workload(&graph, &all, &all, &cfg, &mut rng);
    let spans: Vec<FlowSpan> = flows
        .into_iter()
        .map(|flow| {
            let start_us = rng.gen_range(0..p.duration);
            // Exponential holding time around `mean_hold`.
            let u = rng.gen_range(1..=1000) as f64 / 1000.0;
            let hold = ((-u.ln()) * p.mean_hold as f64).ceil() as u64;
            FlowSpan {
                start_us,
                end_us: start_us + hold.max(1),
                flow,
            }
        })
        .collect();
    let mut events = Vec::new();
    let timed = events_from_spans(&spans);
    let middle = timed.len() / 2;
    for (i, te) in timed.into_iter().enumerate() {
        if i == middle {
            events.push(WireEvent::Snapshot);
        }
        events.push(match te.event {
            Event::FlowArrived { key, rate, path } => WireEvent::Arrive {
                key,
                rate,
                path,
                tenant: spans[key as usize].flow.tenant,
            },
            Event::FlowDeparted { key } => WireEvent::Depart { key },
            other => return Err(format!("churn spans produced {other:?}")),
        });
        if (i + 1) % p.telemetry_every == 0 {
            events.push(WireEvent::Telemetry);
        }
    }
    let mut text = String::new();
    let mut tail = String::new();
    let mut after_snapshot = false;
    for ev in &events {
        let l = line(ev)?;
        text.push_str(&l);
        text.push('\n');
        if after_snapshot {
            tail.push_str(&l);
            tail.push('\n');
        }
        after_snapshot |= matches!(ev, WireEvent::Snapshot);
    }
    Ok(Input {
        graph,
        events,
        text,
        tail,
    })
}

/// An in-memory reader that hands `run` one line per `fill_buf` and
/// stamps each hand-off, so the interval between two stamps is the
/// service time of one line.
struct LineFeed<'a> {
    data: &'a [u8],
    pos: usize,
    line_end: usize,
    ended: bool,
    stamps: Vec<Instant>,
}

impl<'a> LineFeed<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            data: text.as_bytes(),
            pos: 0,
            line_end: 0,
            ended: false,
            stamps: Vec::with_capacity(text.len() / 64),
        }
    }

    /// Per-line service times in µs.
    fn intervals_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.stamps
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e6)
    }
}

impl Read for LineFeed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineFeed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line_end && !self.ended {
            // The previous line is consumed: hand off the next one, or
            // the end of the stream.
            self.stamps.push(Instant::now());
            match self.data[self.pos..].iter().position(|&b| b == b'\n') {
                Some(i) => self.line_end = self.pos + i + 1,
                None => {
                    self.line_end = self.data.len();
                    self.ended = self.pos == self.data.len();
                }
            }
        }
        Ok(&self.data[self.pos..self.line_end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

type Session = ServeSession<HopPricer>;

fn session(p: &ServeParams, graph: &DiGraph) -> Result<Session, String> {
    let engine = OnlineEngine::new(
        graph.clone(),
        p.lambda,
        p.k,
        HopPricer::default(),
        RepairPolicy::default(),
    )
    .map_err(|e| format!("OnlineEngine::new: {e}"))?;
    Ok(ServeSession::new(engine, ServeConfig::default()))
}

fn records(out: &[u8]) -> Result<Vec<WireRecord>, String> {
    let text = std::str::from_utf8(out).map_err(|e| format!("serve output: {e}"))?;
    text.lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("serve output line {l:?}: {e}")))
        .collect()
}

/// The final telemetry of a `run` output.
fn bye(recs: &[WireRecord]) -> Result<&Telemetry, String> {
    match recs.last() {
        Some(WireRecord::Bye { telemetry }) => Ok(telemetry),
        other => Err(format!("serve output ends with {other:?}, not Bye")),
    }
}

/// Bitwise equality of the replayable part of two final telemetries.
fn same_state(what: &str, a: &Telemetry, b: &Telemetry) -> Result<(), String> {
    if a.deployment == b.deployment
        && a.objective.to_bits() == b.objective.to_bits()
        && a.active_flows == b.active_flows
        && a.degraded_flows == b.degraded_flows
    {
        Ok(())
    } else {
        Err(format!(
            "{what}: {:?}/{}/{}/{} vs {:?}/{}/{}/{}",
            a.deployment,
            a.objective,
            a.active_flows,
            a.degraded_flows,
            b.deployment,
            b.objective,
            b.active_flows,
            b.degraded_flows
        ))
    }
}

/// Replays the input through the benchmark's own live flow set and
/// checks every Telemetry record against the evaluator: objective,
/// active and degraded flow counts, and each tenant's served and
/// degraded rate. Also demands zero `Rejected` records. Returns the
/// mean objective over the ticks.
fn check_telemetry(p: &ServeParams, input: &Input, recs: &[WireRecord]) -> Result<f64, String> {
    if let Some(r) = recs
        .iter()
        .find(|r| matches!(r, WireRecord::Rejected { .. }))
    {
        return Err(format!("the serve loop rejected a line: {r:?}"));
    }
    let mut ticks = recs.iter().filter_map(|r| match r {
        WireRecord::Telemetry { telemetry } => Some(telemetry),
        _ => None,
    });
    let mut live: BTreeMap<u64, (u64, &[NodeId], u16)> = BTreeMap::new();
    let mut objectives = Vec::new();
    for ev in &input.events {
        match ev {
            WireEvent::Arrive {
                key,
                rate,
                path,
                tenant,
            } => {
                live.insert(*key, (*rate, path, *tenant));
            }
            WireEvent::Depart { key } => {
                live.remove(key);
            }
            WireEvent::Telemetry => {
                let t = ticks
                    .next()
                    .ok_or("fewer Telemetry records than Telemetry lines")?;
                let deployed = membership(p.nodes, &t.deployment);
                let mut bandwidth = 0.0;
                let mut unserved = 0;
                let mut per: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
                for &(rate, path, tenant) in live.values() {
                    let (cost, served) = charge(rate, path, p.lambda, &deployed);
                    bandwidth += cost;
                    let e = per.entry(tenant).or_default();
                    if served {
                        e.0 += rate;
                    } else {
                        e.1 += rate;
                        unserved += 1;
                    }
                }
                same("telemetry objective", t.objective, bandwidth)?;
                if t.active_flows != live.len() as u64 || t.degraded_flows != unserved {
                    return Err(format!(
                        "telemetry counts {} active / {} degraded, evaluator {} / {unserved}",
                        t.active_flows,
                        t.degraded_flows,
                        live.len()
                    ));
                }
                for tt in &t.tenants {
                    let (served, degraded) = per.get(&tt.tenant).copied().unwrap_or_default();
                    if (tt.served_bw, tt.degraded_bw) != (served, degraded) {
                        return Err(format!(
                            "tenant {} served/degraded {}/{}, evaluator {served}/{degraded}",
                            tt.tenant, tt.served_bw, tt.degraded_bw
                        ));
                    }
                }
                if t.deployment.len() > p.k {
                    return Err(format!(
                        "{} middleboxes exceed k = {}",
                        t.deployment.len(),
                        p.k
                    ));
                }
                objectives.push(bandwidth);
            }
            WireEvent::Snapshot => {}
            other => return Err(format!("unexpected input event {other:?}")),
        }
    }
    if ticks.next().is_some() || objectives.is_empty() {
        return Err("Telemetry records do not match the Telemetry lines".into());
    }
    Ok(objectives.iter().sum::<f64>() / objectives.len() as f64)
}

/// One closed-loop replay of the whole stream through `run`.
struct Replay {
    wall_s: f64,
    intervals_us: Vec<f64>,
    recs: Vec<WireRecord>,
    snapshot: ServeSnapshot,
}

fn replay(p: &ServeParams, input: &Input) -> Result<Replay, String> {
    let mut s = session(p, &input.graph)?;
    let mut feed = LineFeed::new(&input.text);
    let mut out = Vec::with_capacity(input.text.len());
    let t = Instant::now();
    s.run(&mut feed, &mut out)
        .map_err(|e| format!("ServeSession::run: {e}"))?;
    let wall_s = secs(t);
    Ok(Replay {
        wall_s,
        intervals_us: feed.intervals_us().collect(),
        recs: records(&out)?,
        snapshot: s
            .last_snapshot()
            .cloned()
            .ok_or("the Snapshot line left no snapshot")?,
    })
}

/// Parses the snapshot document and restores a session from it.
fn restore(graph: DiGraph, doc: &str) -> Result<Session, String> {
    let snap: ServeSnapshot =
        serde_json::from_str(doc).map_err(|e| format!("snapshot document: {e}"))?;
    ServeSession::restore(
        graph,
        HopPricer::default(),
        RepairPolicy::default(),
        ServeConfig::default(),
        &snap,
    )
    .map_err(|e| format!("ServeSession::restore: {e}"))
}

/// Replays the tail from `restored` and demands the uninterrupted
/// run's final state, bitwise.
fn check_restore(input: &Input, mut restored: Session, full: &Telemetry) -> Result<(), String> {
    let mut out = Vec::new();
    restored
        .run(input.tail.as_bytes(), &mut out)
        .map_err(|e| format!("restored ServeSession::run: {e}"))?;
    let recs = records(&out)?;
    if recs
        .iter()
        .any(|r| matches!(r, WireRecord::Rejected { .. }))
    {
        return Err("the restored session rejected a line".into());
    }
    same_state(
        "restore + tail replay vs uninterrupted run",
        bye(&recs)?,
        full,
    )
}

/// Runs `serve-gravity` (or its smoke size).
pub fn run(p: &ServeParams, opts: &Opts) -> Result<Outcome, String> {
    let input = generate(p, opts.seed)?;
    if opts.trace {
        return traced(p, &input);
    }
    let lines = input.events.len();
    let mut walls = Vec::new();
    // Latency percentiles of each replay; the run reports their medians.
    let (mut p50, mut p99, mut p9999) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Telemetry, f64, String)> = None;
    let mut setup = Vec::new();
    let mut restored = None;
    let mut go = Rounds::new(opts.seconds, p.min_replays);
    while go.another() {
        let r = replay(p, &input)?;
        walls.push(r.wall_s);
        let mut lat = r.intervals_us;
        lat.sort_by(f64::total_cmp);
        p50.push(percentile(&lat, 50.0));
        p99.push(tail(&lat, 99.0));
        p9999.push(tail(&lat, 99.99));
        let mean_objective = check_telemetry(p, &input, &r.recs)?;
        let end = bye(&r.recs)?.clone();
        match &first {
            None => {
                let doc =
                    serde_json::to_string(&r.snapshot).map_err(|e| format!("snapshot: {e}"))?;
                first = Some((end, mean_objective, doc));
            }
            Some((t, m, _)) => {
                same_state("two replays of one stream", &end, t)?;
                same("mean telemetry objective", mean_objective, *m)?;
            }
        }
        let doc = &first.as_ref().expect("set by the first replay").2;
        // Warm restarts after every replay, so set-up samples are
        // spread over the run like the rest.
        for _ in 0..p.restores {
            drop(restored.take());
            let graph = input.graph.clone();
            let t = Instant::now();
            restored = Some(restore(graph, doc)?);
            setup.push(secs(t));
        }
    }
    let (end, bandwidth, _) = first.expect("at least one replay ran");
    check_restore(&input, restored.ok_or("no restore ran")?, &end)?;

    let mut out = Outcome {
        attempted: (walls.len() * lines + setup.len() + 1) as u64,
        ..Outcome::default()
    };
    out.put("setup_s", median(&setup), "s");
    out.put("solve_s", median(&walls), "s");
    out.put("events_per_s", lines as f64 / median(&walls), "1/s");
    // The daemon hands the engine one line at a time: a line is both the
    // event and the batch.
    out.put("event_p50_us", median(&p50), "us");
    out.put("event_p9999_us", median(&p9999), "us");
    out.put("batch_p50_us", median(&p50), "us");
    out.put("batch_p99_us", median(&p99), "us");
    out.put("bandwidth", bandwidth, "rate.hop");
    out.put("peak_rss_mb", status_mb("VmHWM"), "MB");
    Ok(out)
}

/// Appends one output record as `run` writes it.
fn emit(out: &mut Vec<u8>, rec: &WireRecord) -> Result<(), String> {
    let l = serde_json::to_string(rec).map_err(|e| format!("serializing a record: {e}"))?;
    out.extend_from_slice(l.as_bytes());
    out.push(b'\n');
    Ok(())
}

/// One untraced `run` replay (the overhead reference and the checked
/// output), then the same lines fed through the public steps `run` is
/// built from — parse, apply, emit, with telemetry and snapshot on the
/// control lines — each in a span.
fn traced(p: &ServeParams, input: &Input) -> Result<Outcome, String> {
    let reference = replay(p, input)?;
    check_telemetry(p, input, &reference.recs)?;
    let full = bye(&reference.recs)?.clone();

    let mut s = session(p, &input.graph)?;
    let mut sink = Vec::with_capacity(input.text.len());
    let mut oracle_us = 0.0;
    let mut plain_us = 0.0;
    let mut snapshot = None;
    let rss_before = status_mb("VmRSS");
    let core_before = tdmd_core::obs::snapshot();
    let mut tr = Tracer::new();
    let root = tr.enter("serve.replay");
    for l in input.text.lines() {
        let ev: WireEvent = tr
            .time("serve.parse", || serde_json::from_str(l))
            .map_err(|e| format!("parsing {l:?}: {e}"))?;
        match ev {
            WireEvent::Snapshot => {
                let snap = tr.time("serve.snapshot", || s.snapshot());
                let rec = WireRecord::Snapshot {
                    event: s.events(),
                    path: None,
                };
                tr.time("serve.emit", || emit(&mut sink, &rec))?;
                snapshot = Some(snap);
            }
            WireEvent::Telemetry => {
                let telemetry = tr.time("serve.telemetry", || s.telemetry());
                tr.time("serve.emit", || {
                    emit(&mut sink, &WireRecord::Telemetry { telemetry })
                })?;
            }
            ev => {
                let before = s.engine().deployment().vertices().to_vec();
                let samples = s.engine().stats().drift_samples;
                let id = tr.enter("serve.apply");
                let applied = s.apply(&ev);
                tr.exit(id);
                applied.map_err(|e| format!("ServeSession::apply: {e}"))?;
                if s.engine().stats().drift_samples > samples {
                    oracle_us += tr.us(id);
                } else {
                    plain_us += tr.us(id);
                }
                if s.engine().deployment().vertices() != before.as_slice() {
                    let rec = WireRecord::Placement {
                        event: s.events(),
                        deployment: s.engine().deployment().vertices().to_vec(),
                        objective: s.engine().exact_objective(),
                    };
                    tr.time("serve.emit", || emit(&mut sink, &rec))?;
                }
            }
        }
    }
    let telemetry = tr.time("serve.telemetry", || s.telemetry());
    tr.time("serve.emit", || {
        emit(&mut sink, &WireRecord::Bye { telemetry })
    })?;
    tr.exit(root);
    let rss_growth = status_mb("VmRSS") - rss_before;
    // The drift oracle solves through the core solver.
    let spent = tdmd_core::obs::snapshot().delta_since(&core_before);
    same_state("step-by-step replay vs run", bye(&records(&sink)?)?, &full)?;

    let snap = snapshot.ok_or("the Snapshot line was not reached")?;
    let doc = serde_json::to_string(&snap).map_err(|e| format!("snapshot: {e}"))?;
    let parsed: ServeSnapshot = tr
        .time("serve.snapshot_parse", || serde_json::from_str(&doc))
        .map_err(|e| format!("snapshot document: {e}"))?;
    let graph = input.graph.clone();
    let restored = tr
        .time("serve.restore", || {
            ServeSession::restore(
                graph,
                HopPricer::default(),
                RepairPolicy::default(),
                ServeConfig::default(),
                &parsed,
            )
        })
        .map_err(|e| format!("ServeSession::restore: {e}"))?;
    check_restore(input, restored, &full)?;

    let stats = s.engine().stats();
    let mut out = Outcome {
        attempted: 2 * input.events.len() as u64 + 3,
        ..Outcome::default()
    };
    out.put_core(&spent);
    out.put("online.adds", stats.adds as f64, "count");
    out.put("online.drops", stats.drops as f64, "count");
    out.put("online.swaps", stats.swaps as f64, "count");
    out.put("online.drift_samples", stats.drift_samples as f64, "count");
    out.put(
        "online.oracle_failures",
        stats.oracle_failures as f64,
        "count",
    );
    out.put("online.replans", stats.replans as f64, "count");
    out.put("online.oracle_event_us", oracle_us, "us");
    out.put("online.plain_event_us", plain_us, "us");
    out.put(
        "online.active_flows",
        s.engine().active_count() as f64,
        "count",
    );
    out.put("serve.parse_us", tr.total_us("serve.parse"), "us");
    out.put("serve.apply_us", tr.total_us("serve.apply"), "us");
    out.put("serve.emit_us", tr.total_us("serve.emit"), "us");
    out.put("serve.telemetry_us", tr.total_us("serve.telemetry"), "us");
    out.put("serve.snapshot_us", tr.total_us("serve.snapshot"), "us");
    out.put("serve.snapshot_bytes", doc.len() as f64, "bytes");
    out.put(
        "serve.snapshot_parse_us",
        tr.total_us("serve.snapshot_parse"),
        "us",
    );
    out.put("serve.restore_us", tr.total_us("serve.restore"), "us");
    out.put("serve.rss_growth_mb", rss_growth, "MB");
    out.put("trace.coverage", tr.coverage(root), "ratio");
    out.put(
        "trace.overhead",
        tr.us(root) / (reference.wall_s * 1e6),
        "ratio",
    );
    out.spans = Some(tr);
    Ok(out)
}
