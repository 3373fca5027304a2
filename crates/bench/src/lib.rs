//! Shared plumbing for the table-regeneration binaries and benches.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` §4 for the full index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — analytical message counts |
//! | `table2` | Table 2 — trace summaries |
//! | `table3` | Table 3 — EPA / SASK / ClarkNet replays |
//! | `table4` | Table 4 — NASA / SDSC replays |
//! | `table5` | Table 5 — invalidation costs |
//! | `section6` | §6 — two-tier lease evaluation |
//! | `ablation_decoupled` | A1 — synchronous vs. decoupled sender |
//! | `ablation_replacement` | A2 — expired-first vs. LRU replacement |
//! | `ablation_lease` | A3 — lease-duration sweep |
//! | `failure_report` | F1 — §4 failure scenarios |
//! | `trajectory` | `BENCH_replay.json` — tracked perf trajectory |
//!
//! Every binary accepts an optional `--scale N` argument that divides the
//! workload size by `N` (full scale by default; the full tables take a few
//! seconds total in release mode) and an optional `--jobs N` worker count
//! for the replay fan-out (default: `WCC_JOBS`, else the core count —
//! see [`wcc_replay::effective_jobs`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod trajectory;

use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

/// The workload seed every table binary uses, so tables are reproducible.
pub const TABLE_SEED: u64 = 1997;

/// The six replay experiments of Tables 3 and 4, in paper order:
/// `(spec, mean lifetime, paper's reported modification count)`.
pub fn paper_experiments() -> Vec<(TraceSpec, SimDuration, u64)> {
    vec![
        (TraceSpec::epa(), SimDuration::from_days(50), 72),
        (TraceSpec::sask(), SimDuration::from_days(14), 1148),
        (TraceSpec::clarknet(), SimDuration::from_days(50), 40),
        (TraceSpec::nasa(), SimDuration::from_days(7), 144),
        (TraceSpec::sdsc(), SimDuration::from_days(25), 57),
        (
            TraceSpec::sdsc(),
            SimDuration::from_secs(5 * 86_400 / 2), // 2.5 days
            576,
        ),
    ]
}

/// Parses the common `--scale N` argument (defaults to 1 = full scale).
/// A value that is not a whole number >= 1, or a missing value, is an
/// error.
///
/// # Examples
///
/// ```
/// assert_eq!(wcc_bench::parse_scale(["prog".into()].into_iter()), Ok(1));
/// assert_eq!(
///     wcc_bench::parse_scale(["prog".into(), "--scale".into(), "10".into()].into_iter()),
///     Ok(10)
/// );
/// ```
pub fn parse_scale(args: impl Iterator<Item = String>) -> Result<u64, String> {
    match flag_value(args, "--scale") {
        None => Ok(1),
        Some(v) => match v.as_deref().map(str::parse) {
            Some(Ok(n)) if n >= 1 => Ok(n),
            _ => Err(bad_value("--scale", v, "a whole number >= 1")),
        },
    }
}

/// Parses the common `--jobs N` argument: `Some(n)` when given (0 is
/// treated as "auto", like omitting the flag), `None` otherwise — `None`
/// defers to `WCC_JOBS` / the core count via
/// [`wcc_replay::effective_jobs`]. A value that is not a whole number is
/// an error.
///
/// # Examples
///
/// ```
/// assert_eq!(wcc_bench::parse_jobs(["prog".into()].into_iter()), Ok(None));
/// assert_eq!(
///     wcc_bench::parse_jobs(["prog".into(), "--jobs".into(), "4".into()].into_iter()),
///     Ok(Some(4))
/// );
/// ```
pub fn parse_jobs(args: impl Iterator<Item = String>) -> Result<Option<usize>, String> {
    match flag_value(args, "--jobs") {
        None => Ok(None),
        Some(v) => match v.as_deref().map(str::parse) {
            Some(Ok(0)) => Ok(None),
            Some(Ok(n)) => Ok(Some(n)),
            _ => Err(bad_value("--jobs", v, "a whole number (0 = auto)")),
        },
    }
}

/// The value after the first `flag` in `args`: `None` when the flag is
/// absent, `Some(None)` when it is the last argument.
fn flag_value(mut args: impl Iterator<Item = String>, flag: &str) -> Option<Option<String>> {
    args.by_ref().find(|arg| arg == flag)?;
    Some(args.next())
}

fn bad_value(flag: &str, value: Option<String>, expected: &str) -> String {
    match value {
        Some(v) => format!("bad {flag} value {v:?}: expected {expected}"),
        None => format!("{flag} needs a value: {expected}"),
    }
}

/// Unwraps a parsed flag, or prints the error and exits with status 1 —
/// how the table binaries reject a bad argument.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// A parsed `--shards` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardArg {
    /// An explicit `--shards N` count, taken verbatim.
    Count(usize),
    /// `--shards auto`: the consumer's requested count capped at the
    /// host's cores ([`wcc_replay::auto_shards`]).
    Auto,
}

/// Parses the common `--shards N|auto` argument: `Count(n)` for an
/// explicit count, `Auto` for the core-capped resolution, `None` when
/// absent or 0 — `None` defers to `WCC_SHARDS` / sequential via
/// [`wcc_replay::effective_shards`]. Any other value is an error.
///
/// # Examples
///
/// ```
/// use wcc_bench::{parse_shards, ShardArg};
/// assert_eq!(parse_shards(["prog".into()].into_iter()), Ok(None));
/// assert_eq!(
///     parse_shards(["prog".into(), "--shards".into(), "4".into()].into_iter()),
///     Ok(Some(ShardArg::Count(4)))
/// );
/// assert_eq!(
///     parse_shards(["prog".into(), "--shards".into(), "auto".into()].into_iter()),
///     Ok(Some(ShardArg::Auto))
/// );
/// ```
pub fn parse_shards(args: impl Iterator<Item = String>) -> Result<Option<ShardArg>, String> {
    let Some(v) = flag_value(args, "--shards") else {
        return Ok(None);
    };
    if v.as_deref() == Some("auto") {
        return Ok(Some(ShardArg::Auto));
    }
    match v.as_deref().map(str::parse) {
        Some(Ok(0)) => Ok(None),
        Some(Ok(n)) => Ok(Some(ShardArg::Count(n))),
        _ => Err(bad_value(
            "--shards",
            v,
            "a whole number or auto (0 = WCC_SHARDS)",
        )),
    }
}

/// Resolves the trajectory's sharded-pass count from a parsed `--shards`.
///
/// Explicit counts are clamped up to 2 — a one-shard "sharded" pass would
/// just re-measure the sequential engine. `auto` resolves to
/// `min(2, host_cores)`: on a 1-core host two shards cost ~3× the
/// sequential grid (the committed `sharded_speedup: 0.333`), pure barrier
/// tax with no parallelism to show for it, so auto backs the pass off to a
/// single shard there. Absent defers to `WCC_SHARDS`, else the 2-shard
/// default.
pub fn resolve_trajectory_shards(arg: Option<ShardArg>) -> usize {
    match arg {
        Some(ShardArg::Count(n)) => n.max(2),
        Some(ShardArg::Auto) => wcc_replay::auto_shards(2),
        None => wcc_replay::effective_shards(None).max(2),
    }
}

/// A labelled experiment id for the SDSC lifetime variants: the paper calls
/// them SDSC(57) and SDSC(576) after their modification counts.
pub fn experiment_label(spec: &TraceSpec, lifetime: SimDuration) -> String {
    if spec.name == "SDSC" {
        let mods = spec.expected_modifications(lifetime);
        format!("SDSC({mods})")
    } else {
        spec.name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_experiments_in_paper_order() {
        let exps = paper_experiments();
        assert_eq!(exps.len(), 6);
        assert_eq!(exps[0].0.name, "EPA");
        assert_eq!(exps[5].0.name, "SDSC");
        // The derived file counts reproduce the paper's modification counts.
        for (spec, lifetime, paper_mods) in &exps {
            let mods = spec.expected_modifications(*lifetime);
            let tol = (*paper_mods as f64 * 0.03).ceil() as i64 + 1;
            assert!(
                (mods as i64 - *paper_mods as i64).abs() <= tol,
                "{}: {mods} vs {paper_mods}",
                spec.name
            );
        }
    }

    fn args(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(args(&["p"])), Ok(1));
        assert_eq!(parse_scale(args(&["p", "--scale", "25"])), Ok(25));
        for bad in [
            &["p", "--scale", "zero"][..],
            &["p", "--scale", "0"],
            &["p", "--scale"],
        ] {
            let err = parse_scale(args(bad)).unwrap_err();
            assert!(err.contains("--scale"), "{err}");
        }
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs(args(&["p"])), Ok(None));
        assert_eq!(parse_jobs(args(&["p", "--jobs", "8"])), Ok(Some(8)));
        assert_eq!(parse_jobs(args(&["p", "--jobs", "0"])), Ok(None));
        assert_eq!(parse_jobs(args(&["p", "--scale", "4"])), Ok(None));
        for bad in [
            &["p", "--jobs", "x"][..],
            &["p", "--jobs", "-1"],
            &["p", "--jobs"],
        ] {
            let err = parse_jobs(args(bad)).unwrap_err();
            assert!(err.contains("--jobs"), "{err}");
        }
    }

    #[test]
    fn shards_parsing() {
        assert_eq!(parse_shards(args(&["p"])), Ok(None));
        assert_eq!(
            parse_shards(args(&["p", "--shards", "3"])),
            Ok(Some(ShardArg::Count(3)))
        );
        assert_eq!(
            parse_shards(args(&["p", "--shards", "auto"])),
            Ok(Some(ShardArg::Auto))
        );
        assert_eq!(parse_shards(args(&["p", "--shards", "0"])), Ok(None));
        assert_eq!(parse_shards(args(&["p", "--jobs", "4"])), Ok(None));
        for bad in [
            &["p", "--shards", "many"][..],
            &["p", "--shards", "2.5"],
            &["p", "--shards"],
        ] {
            let err = parse_shards(args(bad)).unwrap_err();
            assert!(err.contains("--shards"), "{err}");
        }
    }

    #[test]
    fn trajectory_shards_resolution() {
        // Explicit counts are clamped up to the 2-shard minimum; auto caps
        // the same request at the host's cores, never oversubscribing a
        // 1-core runner.
        assert_eq!(resolve_trajectory_shards(Some(ShardArg::Count(5))), 5);
        assert_eq!(resolve_trajectory_shards(Some(ShardArg::Count(1))), 2);
        let auto = resolve_trajectory_shards(Some(ShardArg::Auto));
        assert_eq!(auto, 2.min(wcc_replay::host_cores()));
        assert!(auto >= 1);
    }

    #[test]
    fn sdsc_labels_follow_paper_convention() {
        let (spec, fast, _) = paper_experiments().remove(5);
        let label = experiment_label(&spec, fast);
        assert!(label.starts_with("SDSC("), "{label}");
        assert_eq!(
            experiment_label(&TraceSpec::epa(), SimDuration::from_days(50)),
            "EPA"
        );
    }
}
