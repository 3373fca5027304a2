//! `perfbench`: runs one workload (or all three) and prints its metrics.
//!
//! ```text
//! perfbench --workload city-inval|city-ttl|serve-rw|all \
//!           [--seed 1997] [--seconds 10] [--trace 0|1] [--out bench-out]
//! ```
//!
//! The last line of standard output is the JSON result; the exit code is
//! non-zero when any correctness check failed. `--iteration N` (city
//! workloads) replays only iteration N and prints its summary line: the
//! untraced city run starts one such process per iteration.

use perfbench::report::Report;
use perfbench::{city, city_protocol, serve, stats, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    iteration: Option<u64>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1997,
        seconds: 10,
        trace: false,
        out: PathBuf::from("bench-out"),
        iteration: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--iteration" => args.iteration = Some(num(&value)?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.iteration.is_some() && city_protocol(&args.workload).is_none() {
        return Err("--iteration applies to city-inval and city-ttl only".to_string());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of all, {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("validated in parse");
    if let (Some(i), Some(kind)) = (args.iteration, city_protocol(workload)) {
        city::run_iteration(kind, args.seed, i);
        return ExitCode::SUCCESS;
    }
    let mut report = Report::new(workload, args.out.clone());
    match city_protocol(workload) {
        Some(kind) if args.trace => city::run_traced(kind, args.seed, args.seconds, &mut report),
        Some(kind) => city::run_plain(kind, workload, args.seed, args.seconds, &mut report),
        None => {
            if let Err(e) = serve::run(args.seed, args.seconds, args.trace, Some(&mut report)) {
                report.attempt(1, 1, &[format!("serve-rw could not run: {e}")]);
            }
        }
    }
    city::audit_pass(args.seed, &mut report);
    let correct = report.correct();
    let header = format!(
        "perfbench {workload} · seed {} · {} s · trace {} · city scale 1/{} · host {} · commit {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        city::SCALE,
        stats::host_fingerprint(),
        stats::commit()
    );
    report.print(if args.trace { PER_LAYER } else { END_TO_END }, &header);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in its own process so
/// one workload's peak memory does not carry into the next.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::from(2);
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
