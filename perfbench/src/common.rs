//! What every workload shares: run options, the result it reports,
//! order statistics, memory readings and the span recorder of the
//! traced run.

use std::io::Write;
use std::time::Instant;

/// Seed of every workload's network: graph and gateways are the same
/// for every `--seed`, which draws only the traffic. A network is what
/// an operator is given and traffic is what changes; keeping the network
/// fixed leaves runs of different seeds doing the same kind of work.
pub const TOPOLOGY_SEED: u64 = 42;

/// How one benchmark run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop keeps starting whole rounds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (timed public calls) attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Spans of a traced run, written out by the caller.
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends the core solver's counter deltas.
    pub fn put_core(&mut self, spent: &tdmd_core::obs::EngineSnapshot) {
        for (name, n) in [
            ("core.guard_checks", spent.guard_checks),
            ("core.guard_activations", spent.guard_activations),
            ("core.gain_evals", spent.gain_evals),
            ("core.lazy_pops", spent.lazy_pops),
            ("core.lazy_stale_refreshes", spent.lazy_stale_refreshes),
        ] {
            self.put(name, n as f64, "count");
        }
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (in percent) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile of ascending `sorted`: percentile `q`, or the
/// highest one that still has ten samples beyond it when there are too
/// few samples for `q` (the maximum when there are ten or fewer).
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    percentile(sorted, q.min(100.0 * (1.0 - 10.0 / n)).max(0.0))
}

/// Decides when a run starts another whole round: while fewer than
/// `min` rounds have run, or while one more round as long as the longest
/// so far still ends within the run's seconds. Runs so end close to
/// `--seconds` instead of overrunning it by up to a round.
#[derive(Debug)]
pub struct Rounds {
    start: Instant,
    seconds: f64,
    min: usize,
    done: usize,
    last: Instant,
    longest: f64,
}

impl Rounds {
    /// A run of `seconds` with at least `min` rounds, starting now.
    pub fn new(seconds: f64, min: usize) -> Self {
        let now = Instant::now();
        Self {
            start: now,
            seconds,
            min,
            done: 0,
            last: now,
            longest: 0.0,
        }
    }

    /// Whether to start another round; call once before each.
    pub fn another(&mut self) -> bool {
        if self.done > 0 {
            self.longest = self.longest.max(secs(self.last));
        }
        let go = self.done < self.min || secs(self.start) + self.longest <= self.seconds;
        if go {
            self.done += 1;
            self.last = Instant::now();
        }
        go
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `/proc/self/status` field in MB (`VmHWM` = peak resident,
/// `VmRSS` = current resident); 0 where the file is unavailable.
pub fn status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a timed call of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name of the call.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder: spans nest by call order and are written
/// out when the run ends.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of span `id` in µs.
    pub fn us(&self, id: u32) -> f64 {
        self.spans[id as usize].us()
    }

    /// Total µs of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .sum()
    }

    /// Share of span `id` covered by its direct children.
    pub fn coverage(&self, id: u32) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::us)
            .sum();
        covered / self.us(id).max(1e-9)
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns
    /// parent` lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
