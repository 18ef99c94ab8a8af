//! End-to-end and per-layer benchmark of `tdmd`'s public entry points.
//!
//! Each workload generates its inputs from a seed, drives the library
//! the way a user or the serve daemon does, checks every reported
//! figure against the independent evaluator in [`eval`], and returns
//! the metrics listed in [`END_TO_END`] (or, traced, [`PER_LAYER`]).
//! See `README.md` for the workloads and what each metric should move.

pub mod churn;
pub mod cold;
pub mod common;
pub mod eval;
pub mod serve;

pub use common::{Metric, Opts, Outcome};

/// Workload names, as `--workload` takes them. `BENCHMARK.json` lists
/// `cold-tight` and `serve-gravity`; `cold-slack` and `churn-1m` are
/// the contrast workloads a change is checked on by hand (see README).
pub const WORKLOADS: [&str; 4] = ["cold-tight", "cold-slack", "churn-1m", "serve-gravity"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("events_per_s", "1/s"),
    ("event_p50_us", "us"),
    ("event_p9999_us", "us"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("bandwidth", "rate.hop"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("core.index_build_us", "us"),
    ("core.solve_us", "us"),
    ("core.cover_us", "us"),
    ("core.guard_checks", "count"),
    ("core.guard_activations", "count"),
    ("core.gain_evals", "count"),
    ("core.lazy_pops", "count"),
    ("core.lazy_stale_refreshes", "count"),
    ("online.adds", "count"),
    ("online.drops", "count"),
    ("online.swaps", "count"),
    ("online.drift_samples", "count"),
    ("online.oracle_failures", "count"),
    ("online.replans", "count"),
    ("online.oracle_event_us", "us"),
    ("online.plain_event_us", "us"),
    ("online.active_flows", "count"),
    ("serve.parse_us", "us"),
    ("serve.apply_us", "us"),
    ("serve.emit_us", "us"),
    ("serve.telemetry_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_parse_us", "us"),
    ("serve.restore_us", "us"),
    ("serve.rss_growth_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Runs workload `name` at its full size.
pub fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let out = match name {
        "cold-tight" => cold::run(&cold::ColdParams::tight(), opts),
        "cold-slack" => cold::run(&cold::ColdParams::slack(), opts),
        "churn-1m" => churn::run(&churn::ChurnParams::full(), opts),
        "serve-gravity" => serve::run(&serve::ServeParams::full(), opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }?;
    complete(out, opts.trace)
}

/// Puts the reported metrics in the listed order, with the listed
/// units; a missing end-to-end metric or a non-finite value is an
/// error, a per-layer metric of an absent layer reads 0.
pub fn complete(mut out: Outcome, trace: bool) -> Result<Outcome, String> {
    let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        let m = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!("{name} reported in {} not {unit}", m.unit))
            }
            Some(m) => m.clone(),
            None if trace => Metric {
                name,
                value: 0.0,
                unit,
            },
            None => return Err(format!("workload did not report {name}")),
        };
        if !m.value.is_finite() {
            return Err(format!("{name} is not finite: {}", m.value));
        }
        metrics.push(m);
    }
    if let Some(extra) = out
        .metrics
        .iter()
        .find(|m| !listed.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("unlisted metric {}", extra.name));
    }
    out.metrics = metrics;
    Ok(out)
}
