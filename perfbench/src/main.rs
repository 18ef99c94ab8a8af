//! `tdmd-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints one `name value unit` line per metric, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed check prints the reason to stderr and exits 1.
//! A traced run also writes its spans to
//! `perfbench/out/spans-<workload>-seed<N>.tsv`.

use std::process::ExitCode;

use tdmd_perfbench::{run, Opts, Outcome};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(workload, opts)| {
        let out = run(&workload, &opts)?;
        if let Some(spans) = &out.spans {
            let path = format!("perfbench/out/spans-{workload}-seed{}.tsv", opts.seed);
            spans
                .write(std::path::Path::new(&path))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(out)
    });
    match result {
        Ok(out) => {
            for m in &out.metrics {
                println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
            }
            println!("attempted {} failed {}", out.attempted, out.failed);
            println!("{}", json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tdmd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
