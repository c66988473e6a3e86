//! `perfbench` — the repository benchmark: the paper's feedback loop
//! over real TCP, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <loop_small|scan_large|cluster_rw> --seed <n> \
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Lines before it
//! are a human-readable summary. A run whose output checks fail prints
//! its result with `correct: false` and exits with a non-zero code. A
//! report with the host fingerprint and per-op counts, and with
//! `--trace 1` the span file, go to `--out` (default `.bench_out`).

mod layers;
mod load;
mod metrics;
mod replay;
mod run;
mod stats;
mod system;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn report_json(args: &Args, output: &run::RunOutput) -> String {
    let ops: Vec<String> = load::Op::ALL
        .iter()
        .map(|&op| {
            format!(
                "    \"{}\": {{\"attempted\": {}, \"failed\": {}}}",
                op.name(),
                output.ops.attempted(op),
                output.ops.failed(op)
            )
        })
        .collect();
    let values: Vec<String> = output
        .values
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let notes: Vec<String> = output
        .notes
        .iter()
        .map(|n| {
            format!(
                "    {}",
                serde_json::to_string(n).expect("a string serializes")
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n{}  \"correct\": {},\n  \"ops\": {{\n{}\n  }},\n  \"metrics\": {{\n{}\n  }},\n  \"notes\": [\n{}\n  ]\n}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        qcluster_bench::host_fingerprint_json("  "),
        output.correct,
        ops.join(",\n"),
        values.join(",\n"),
        notes.join(",\n"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let output = match run::run(&spec, args.seed, args.seconds, args.trace, &args.out) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match metrics::result_line(
        args.trace,
        output.correct,
        output.attempted,
        output.failed,
        &output.values,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = args.out.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&report, report_json(&args, &output)))
    {
        eprintln!("perfbench: {}: {e}", report.display());
        return ExitCode::FAILURE;
    }
    for note in &output.notes {
        println!("# {note}");
    }
    for op in load::Op::ALL {
        println!(
            "# ops {}: attempted {} failed {}",
            op.name(),
            output.ops.attempted(op),
            output.ops.failed(op)
        );
    }
    println!("# report: {}", report.display());
    println!("{line}");
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
