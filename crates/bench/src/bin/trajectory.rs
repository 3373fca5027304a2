//! Writes or checks the bench trajectory report (`BENCH_replay.json`).
//!
//! Write mode runs the workloads of `wcc_bench::trajectory`, writes the
//! report to `--out` (default `BENCH_replay.json`) and prints the gates
//! that judge the run alone (byte-identity, serve drops and stale serves,
//! the memory, recycle, decode and proposer bounds). Check mode
//! (`--check BASELINE`) re-runs at the baseline's scale and prints every
//! gate of `trajectory::TABLE` against the baseline, timing rows within
//! `--tolerance` (default 0.15 = ±15%). Either exits non-zero on a FAIL.
//!
//! Usage: `trajectory [--scale N] [--out PATH] [--jobs N] [--shards N|auto]`
//! or `trajectory --check BASELINE [--tolerance F] [--jobs N] [--shards N|auto]`.
//! `--shards auto` caps the sharded pass at the host's core count
//! (`min(2, host_cores)`, see `wcc_bench::resolve_trajectory_shards`).
//! Unknown or repeated flags, flags that do not apply to the mode and bad
//! values exit non-zero with a message.

use wcc_bench::{parse_jobs, parse_scale, parse_shards, resolve_trajectory_shards, trajectory};

/// Every flag the binary takes; each takes one value.
const FLAGS: [&str; 6] = [
    "--scale",
    "--out",
    "--jobs",
    "--shards",
    "--check",
    "--tolerance",
];

fn main() {
    if let Err(e) = run(std::env::args().collect()) {
        eprintln!("trajectory: {e}");
        std::process::exit(1);
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = rest.next() {
        if !FLAGS.contains(&flag) {
            return Err(format!("unknown flag {flag} (flags: {})", FLAGS.join(", ")));
        }
        if given.iter().any(|(f, _)| *f == flag) {
            return Err(format!("{flag} given twice"));
        }
        match rest.next() {
            Some(value) if !value.starts_with("--") => given.push((flag, value)),
            _ => return Err(format!("{flag} needs a value")),
        }
    }
    let value = |flag: &str| given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v);
    let jobs = parse_jobs(args.iter().cloned())?;
    let shards = resolve_trajectory_shards(parse_shards(args.iter().cloned())?);
    let (mode, rejected): (_, &[&str]) = match value("--check") {
        Some(_) => ("--check", &["--scale", "--out"]),
        None => ("write mode", &["--tolerance"]),
    };
    if let Some(flag) = rejected.iter().find(|f| value(f).is_some()) {
        return Err(format!("{flag} does not apply to {mode}"));
    }

    let Some(path) = value("--check") else {
        let scale = parse_scale(args.iter().cloned())?;
        let out = value("--out").unwrap_or("BENCH_replay.json");
        eprintln!("trajectory: running every pass at scale 1/{scale} ...");
        let report = trajectory::run(scale, jobs, shards);
        std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
        let verdicts = trajectory::judge(&report, None, 0.0);
        print!("{}", trajectory::table(&verdicts));
        if !trajectory::passed(&verdicts) {
            return Err("FATAL: a current-run gate failed (see FAIL rows)".to_string());
        }
        return Ok(());
    };
    let tolerance = match value("--tolerance").map(|t| (t, t.parse::<f64>())) {
        None => 0.15,
        Some((_, Ok(t))) if t.is_finite() && t >= 0.0 => t,
        Some((t, _)) => {
            return Err(format!(
                "bad --tolerance value {t:?}: expected a number >= 0"
            ))
        }
    };
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base = trajectory::Report::from_json(&baseline).map_err(|e| format!("{path}: {e}"))?;
    let scale = match base.num("scale") {
        scale if scale >= 1.0 => scale as u64,
        _ => return Err(format!("{path}: scale must be at least 1")),
    };
    eprintln!(
        "trajectory: regression check against {path} (scale 1/{scale}, tolerance ±{:.0}%) ...",
        tolerance * 100.0
    );
    let current = trajectory::run(scale, jobs, shards).to_json();
    let verdicts = trajectory::check(&current, &baseline, tolerance)?;
    print!("{}", trajectory::table(&verdicts));
    if !trajectory::passed(&verdicts) {
        return Err("FATAL: bench-regression gate failed (see FAIL rows)".to_string());
    }
    println!("bench-regression gate: PASS");
    Ok(())
}
