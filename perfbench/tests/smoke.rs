//! Debug-size runs of all four workloads: every check passes, two runs
//! of one seed agree on `bandwidth` and on every count, and the
//! workloads still split the layers the way the benchmark relies on.

use std::sync::Mutex;

use tdmd_perfbench::churn::{self, ChurnParams};
use tdmd_perfbench::cold::{self, ColdParams};
use tdmd_perfbench::serve::{self, ServeParams};
use tdmd_perfbench::{complete, Opts, Outcome};

/// The core counters are process-global and the test harness runs
/// tests on parallel threads: each test holds this lock so its counter
/// deltas are its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn opts(trace: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.0,
        trace,
    }
}

/// Runs `f` untraced and traced, twice each, and checks that the two
/// runs of each kind agree on `bandwidth` and on every count.
fn twice(f: impl Fn(&Opts) -> Result<Outcome, String>) -> (Outcome, Outcome) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let run =
        |trace: bool| complete(f(&opts(trace)).expect("run passes its checks"), trace).unwrap();
    let (e2e, e2e_again) = (run(false), run(false));
    let bw = |o: &Outcome| o.get("bandwidth").unwrap().to_bits();
    assert_eq!(
        bw(&e2e),
        bw(&e2e_again),
        "bandwidth differs between runs of one seed"
    );
    assert_eq!(e2e.attempted, e2e_again.attempted);
    assert_eq!(e2e.failed, 0);
    let (layers, layers_again) = (run(true), run(true));
    for (a, b) in layers.metrics.iter().zip(&layers_again.metrics) {
        if a.unit == "count" {
            assert_eq!(
                a.value, b.value,
                "{} differs between runs of one seed",
                a.name
            );
        }
    }
    assert!(
        e2e.metrics.iter().all(|m| m.value > 0.0),
        "an end-to-end metric reads 0: {e2e:?}"
    );
    (e2e, layers)
}

#[test]
fn cold_tight_activates_the_guard() {
    let (_, layers) = twice(|o| cold::run(&ColdParams::tight_smoke(), o));
    assert!(layers.get("core.guard_activations").unwrap() > 0.0);
}

#[test]
fn cold_slack_never_activates_the_guard() {
    let (_, layers) = twice(|o| cold::run(&ColdParams::slack_smoke(), o));
    assert_eq!(layers.get("core.guard_activations"), Some(0.0));
    assert!(layers.get("core.gain_evals").unwrap() > 0.0);
}

#[test]
fn churn_never_samples_the_drift_oracle() {
    let (_, layers) = twice(|o| churn::run(&ChurnParams::smoke(), o));
    assert_eq!(layers.get("online.drift_samples"), Some(0.0));
    assert!(layers.get("online.active_flows").unwrap() > 0.0);
}

#[test]
fn serve_samples_the_drift_oracle() {
    let (_, layers) = twice(|o| serve::run(&ServeParams::smoke(), o));
    assert!(layers.get("online.drift_samples").unwrap() > 0.0);
    assert!(layers.get("core.guard_checks").unwrap() > 0.0);
    assert!(layers.get("serve.snapshot_bytes").unwrap() > 0.0);
}
