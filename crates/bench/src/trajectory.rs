//! The tracked bench trajectory: timing the replay engine release over
//! release.
//!
//! [`run`] times fixed-seed workloads and returns a [`Report`], which the
//! `trajectory` binary writes as `BENCH_replay.json` (schema [`SCHEMA`]):
//! the Tables 3 + 4 grid sequentially, fanned out over the worker pool and
//! on the sharded engine (at least 2 shards, except that `--shards auto`
//! resolves to 1 on a 1-core host); the EPA invalidation replay on one
//! thread, with its event-arena counters and a zero-copy decode probe; the
//! flash-crowd federation sequentially and on [`FAMILY_SHARDS`] shards,
//! with its state-memory model; the serving tier over real sockets; two
//! write storms under per-write and batched invalidation fan-out; the
//! simulated latency tails of every grid replay; and the same measurements
//! taken before three earlier optimisation rounds.
//!
//! Every value is one row of [`TABLE`]: its key (`block.field`), unit,
//! JSON form and gates. That table alone drives the writer
//! ([`Report::to_json`]), the strict reader ([`Report::from_json`]) and the
//! checker ([`judge`], [`check`]), so it is the one place the bench gates
//! are defined. Only the [`Tolerance`] and [`ShardShape`] gates depend on
//! the host; every simulated value must reproduce exactly anywhere.
//!
//! This is the one module in the workspace allowed to read the wall clock
//! (`Instant::now`): it measures real elapsed time by design and feeds
//! nothing back into any simulation. `xtask lint` allowlists exactly this
//! file.

use std::fmt::Write as _;
use std::time::Instant;

use crate::{paper_experiments, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_replay::{run_batch, run_experiment_sharded, ExperimentConfig};
use wcc_traces::family::{self, FamilyConfig, FamilyWorkload, WorkloadFamily};
use wcc_traces::TraceSpec;
use wcc_types::InvalBatchConfig;
use Gate::*;
use Kind::*;
use Rhs::*;

/// Shard count of the family pass — the acceptance configuration for the
/// federation workloads ("replays byte-identically sequential vs 8 shards").
pub const FAMILY_SHARDS: usize = 8;

/// The schema every report is written in and the only one the reader takes.
pub const SCHEMA: &str = "wcc-bench-trajectory/7";

/// Absolute slack of a [`Tolerance`] gate in milliseconds (1000× that for
/// µs rows): reduced-scale runs finish in tens of milliseconds, where
/// scheduler noise alone exceeds any sane percentage.
const TIMING_GRACE_MS: f64 = 100.0;

/// How a row's value is written and read back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A non-negative integer.
    Int,
    /// A number with this many decimals.
    Fixed(usize),
    /// `true` or `false`.
    Bool,
    /// A string without escapes.
    Str,
}

/// The right-hand side of a bound gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rhs {
    /// A constant.
    Const(f64),
    /// Another row of the same report.
    Row(&'static str),
}

/// One check on a row. Bound gates and [`MustBeTrue`] judge the current
/// report alone, so they bind on any host and in write mode too; the
/// others compare against a baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Equal to the baseline.
    Exact,
    /// Within ±tolerance of the baseline (plus [`TIMING_GRACE_MS`]);
    /// informational unless both carry the same `host_fingerprint`.
    Tolerance,
    /// `current >= rhs`.
    Floor(Rhs),
    /// `current > rhs`.
    Above(Rhs),
    /// `current <= rhs`.
    Ceiling(Rhs),
    /// `current == rhs`.
    Equals(Rhs),
    /// `true`.
    MustBeTrue,
    /// The sharded pass on the baseline's host: on 1 core `sharded_ms` at
    /// most 3× `sequential_ms` (plus grace), on ≥4 cores at scale 1 a
    /// speedup of at least 1.5, informational on any other shape.
    ShardShape,
}

/// No gate: the row is reported, never judged.
pub const INFORMATIONAL: &[Gate] = &[];
const EXACT: &[Gate] = &[Exact];
const TIMING: &[Gate] = &[Tolerance];
const TRUE: &[Gate] = &[MustBeTrue];

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// `block.field`, or a top-level field name.
    pub key: &'static str,
    /// Unit of the value (`""` for counts, flags and text).
    pub unit: &'static str,
    /// JSON form of the value.
    pub kind: Kind,
    /// The checks on the value.
    pub gates: &'static [Gate],
}

const fn row(key: &'static str, unit: &'static str, kind: Kind, gates: &'static [Gate]) -> Spec {
    Spec {
        key,
        unit,
        kind,
        gates,
    }
}

const PER_WRITE_P99: &str = "proposer.proposer_per_write_p99_us";

/// Every row of a `/7` report, in write order. The `latency_tails` row
/// stands for one row per grid replay and quantile (see [`keys`]).
pub const TABLE: &[Spec] = &[
    row("schema", "", Str, INFORMATIONAL),
    row("scale", "", Int, EXACT),
    row("jobs", "", Int, INFORMATIONAL),
    row("host_cores", "", Int, INFORMATIONAL),
    row("host_fingerprint", "", Str, INFORMATIONAL),
    row("grid.configs", "", Int, EXACT),
    row("grid.sequential_ms", "ms", Int, TIMING),
    row("grid.parallel_ms", "ms", Int, TIMING),
    row("grid.speedup", "x", Fixed(3), INFORMATIONAL),
    row("grid.byte_identical", "", Bool, TRUE),
    row("sharded.shards", "", Int, INFORMATIONAL),
    row("sharded.sharded_ms", "ms", Int, TIMING),
    row("sharded.sharded_speedup", "x", Fixed(3), &[ShardShape]),
    row("sharded.sharded_byte_identical", "", Bool, TRUE),
    row("inner_loop.workload", "", Str, INFORMATIONAL),
    row("inner_loop.requests", "", Int, EXACT),
    row("inner_loop.wall_ms", "ms", Int, TIMING),
    row("inner_loop.requests_per_sec", "1/s", Int, INFORMATIONAL),
    row("alloc_stats.events_allocated", "", Int, INFORMATIONAL),
    row("alloc_stats.events_recycled", "", Int, INFORMATIONAL),
    row(
        "alloc_stats.events_recycled_pct",
        "%",
        Fixed(1),
        &[Floor(Const(95.0))],
    ),
    row("alloc_stats.events_peak_live", "", Int, INFORMATIONAL),
    row("alloc_stats.decode_messages", "", Int, EXACT),
    row("alloc_stats.decode_bytes", "B", Int, EXACT),
    row("alloc_stats.decode_borrows", "", Int, INFORMATIONAL),
    row(
        "alloc_stats.decode_copies",
        "",
        Int,
        &[Equals(Row("alloc_stats.decode_retained"))],
    ),
    row("alloc_stats.decode_retained", "", Int, EXACT),
    row("family.family_name", "", Str, INFORMATIONAL),
    row("family.family_origins", "", Int, EXACT),
    row("family.family_clients", "", Int, INFORMATIONAL),
    row("family.family_requests", "", Int, EXACT),
    row("family.family_shards", "", Int, INFORMATIONAL),
    row("family.family_wall_ms", "ms", Int, TIMING),
    row("family.family_requests_per_sec", "1/s", Int, INFORMATIONAL),
    row("family.family_byte_identical", "", Bool, TRUE),
    row("family.family_state_bytes", "B", Int, EXACT),
    row("family.family_legacy_state_bytes", "B", Int, EXACT),
    row(
        "family.family_memory_reduction_pct",
        "%",
        Fixed(1),
        &[Floor(Const(30.0))],
    ),
    row("family.family_peak_rss_kb", "kB", Int, INFORMATIONAL),
    row("serve.serve_connections", "", Int, EXACT),
    row("serve.serve_requests", "", Int, EXACT),
    row("serve.serve_dropped", "", Int, &[Equals(Const(0.0))]),
    row("serve.serve_stale", "", Int, &[Equals(Const(0.0))]),
    row("serve.serve_p50_us", "us", Int, INFORMATIONAL),
    row("serve.serve_p90_us", "us", Int, INFORMATIONAL),
    row("serve.serve_p99_us", "us", Int, TIMING),
    row("serve.serve_p999_us", "us", Int, INFORMATIONAL),
    row("serve.serve_wall_ms", "ms", Int, TIMING),
    row("serve.serve_requests_per_sec", "1/s", Int, INFORMATIONAL),
    row("proposer.proposer_batch_entries", "", Int, INFORMATIONAL),
    row("proposer.proposer_messages", "", Int, EXACT),
    row("proposer.proposer_per_write_messages", "", Int, EXACT),
    row(
        "proposer.proposer_reduction_pct",
        "%",
        Fixed(1),
        &[Floor(Const(30.0))],
    ),
    row(
        "proposer.proposer_coalesce_ratio",
        "x",
        Fixed(3),
        &[Above(Const(1.0))],
    ),
    row("proposer.proposer_write_p50_us", "us", Int, EXACT),
    row(
        "proposer.proposer_write_p99_us",
        "us",
        Int,
        &[Exact, Ceiling(Row(PER_WRITE_P99))],
    ),
    row(PER_WRITE_P99, "us", Int, EXACT),
    row("proposer.proposer_byte_identical", "", Bool, TRUE),
    row("proposer.proposer_wall_ms", "ms", Int, TIMING),
    row("latency_tails", "us", Int, EXACT),
    row("baseline.note", "", Str, INFORMATIONAL),
    row("baseline.grid_sequential_ms", "ms", Int, INFORMATIONAL),
    row("baseline.inner_wall_ms", "ms", Int, INFORMATIONAL),
    row("baseline.inner_requests_per_sec", "1/s", Int, INFORMATIONAL),
    row("pre_shard.note", "", Str, INFORMATIONAL),
    row("pre_shard.pre_shard_grid_ms", "ms", Int, INFORMATIONAL),
    row("pre_shard.pre_shard_inner_ms", "ms", Int, INFORMATIONAL),
    row("pre_shard.pre_shard_inner_rps", "1/s", Int, INFORMATIONAL),
    row("pre_raw.note", "", Str, INFORMATIONAL),
    row("pre_raw.pre_raw_grid_ms", "ms", Int, INFORMATIONAL),
    row("pre_raw.pre_raw_inner_ms", "ms", Int, INFORMATIONAL),
    row("pre_raw.pre_raw_inner_rps", "1/s", Int, INFORMATIONAL),
];

/// Every key of a `/7` report in write order, with its [`TABLE`] row:
/// `latency_tails` expands to `latency_tails.<trace>.<protocol>.<pNN>_us`
/// for every grid replay in table order.
pub fn keys() -> Vec<(String, &'static Spec)> {
    let mut out = Vec::new();
    for spec in TABLE {
        if spec.key != "latency_tails" {
            out.push((spec.key.to_string(), spec));
            continue;
        }
        for trace in grid_trace_labels() {
            for kind in ProtocolKind::PAPER_TRIO {
                for q in ["p50_us", "p90_us", "p99_us"] {
                    out.push((format!("latency_tails.{trace}.{}.{q}", kind.name()), spec));
                }
            }
        }
    }
    out
}

/// The 18-config Tables 3+4 grid at `scale`, in table order.
pub fn grid_configs(scale: u64) -> Vec<ExperimentConfig> {
    paper_experiments()
        .into_iter()
        .flat_map(|(spec, lifetime, _)| {
            ProtocolKind::PAPER_TRIO.map(|kind| {
                ExperimentConfig::builder(spec.clone().scaled_down(scale))
                    .protocol_config(ProtocolConfig::new(kind))
                    .mean_lifetime(lifetime)
                    .seed(TABLE_SEED)
                    .build()
            })
        })
        .collect()
}

/// Unique per-experiment row labels for the grid, in table order: the
/// trace names, with the two SDSC lifetime variants disambiguated by the
/// paper's modification counts (`SDSC(57)`, `SDSC(576)`). They come from
/// [`paper_experiments`]' fixed counts, not from the scaled spec, so every
/// scale emits the same `latency_tails` keys.
pub fn grid_trace_labels() -> Vec<String> {
    paper_experiments()
        .iter()
        .map(|(spec, _, paper_mods)| {
            if spec.name == "SDSC" {
                format!("SDSC({paper_mods})")
            } else {
                spec.name.to_string()
            }
        })
        .collect()
}

/// A coarse identifier of the measuring host: architecture, OS, core count
/// and CPU model, e.g. `x86_64/linux/8c/AMD EPYC 7B13`. Wall-clock
/// baselines from one machine say nothing about another, so the
/// [`Tolerance`] and [`ShardShape`] gates bind only between equal
/// fingerprints.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = cpu_model().unwrap_or_else(|| "unknown-cpu".to_string());
    format!(
        "{}/{}/{}c/{}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cores,
        model
    )
}

/// First `model name` from `/proc/cpuinfo`, sanitised so the fingerprint
/// embeds into the JSON report without escaping. `None` off Linux.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    let (_, model) = line.split_once(':')?;
    let clean: String = model
        .trim()
        .chars()
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect();
    if clean.is_empty() {
        None
    } else {
        Some(clean)
    }
}

/// Peak resident-set size of this process so far (`VmHWM` from
/// `/proc/self/status`), in kilobytes. Informational only — it depends on
/// the allocator and everything the process ran before — and `0` off
/// Linux.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn millis(elapsed: std::time::Duration) -> u64 {
    // Round up so a sub-millisecond run never reports 0 (and never divides
    // by zero downstream).
    elapsed.as_millis().max(1) as u64
}

/// Runs the trajectory workloads and returns the report.
///
/// `jobs` follows the usual resolution ([`wcc_replay::effective_jobs`]):
/// explicit value, else `WCC_JOBS`, else the core count. `shards` is the
/// already-resolved shard count of the sharded pass (see
/// [`crate::resolve_trajectory_shards`]); a count of 1 — the `--shards
/// auto` resolution on a 1-core host — re-measures the sequential engine
/// through the sharded entry point instead of paying the barrier tax for
/// parallelism the host cannot deliver.
pub fn run(scale: u64, jobs: Option<usize>, shards: usize) -> Report {
    let jobs = wcc_replay::effective_jobs(jobs);
    let shards = shards.max(1);
    let configs = grid_configs(scale);
    // The byte-identity oracle of `tests/determinism.rs`.
    let identical = |a: &[_], b: &[_]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(s, p)| format!("{s:?}") == format!("{p:?}"))
    };

    let start = Instant::now();
    let sequential = run_batch(&configs, Some(1));
    let grid_sequential_ms = millis(start.elapsed());

    let start = Instant::now();
    let parallel = run_batch(&configs, Some(jobs));
    let grid_parallel_ms = millis(start.elapsed());

    // Sharded pass: the same grid, one replay at a time, each running on
    // the sharded engine. Kept sequential at the batch level so the wall
    // time isolates engine-sharding from the fan-out pool.
    let start = Instant::now();
    let sharded: Vec<_> = configs
        .iter()
        .map(|cfg| run_experiment_sharded(cfg, shards))
        .collect();
    let sharded_grid_ms = millis(start.elapsed());

    let us = |d: Option<wcc_types::SimDuration>| d.map_or(0, |d| d.as_micros());

    // Inner loop: one full EPA invalidation replay on the calling thread,
    // timed end-to-end like `run_experiment` (materialisation included)
    // and then mined for the engine arena's allocation counters. The
    // workload is floored at the scale-2 replay (20 329 requests) no
    // matter how far the grid is scaled down: the recycle ratio is
    // `1 - peak_live / allocated`, and peak_live is dominated by
    // long-pending TTL timers parked in the overflow heap, so a tiny
    // workload would let that footprint dominate the denominator and make
    // the ≥95% steady-state gate unmeetable for structural, not
    // regression, reasons. All of these counters come off the simulation
    // clock and are byte-deterministic.
    let inner_scale = scale.min(2);
    let inner_cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(inner_scale))
        .protocol(ProtocolKind::Invalidation)
        .seed(TABLE_SEED)
        .build();
    let start = Instant::now();
    let (inner_trace, inner_mods) = wcc_replay::materialise(&inner_cfg);
    let mut inner_dep = Deployment::build(
        &inner_trace,
        &inner_mods,
        &inner_cfg.protocol,
        inner_cfg.options.clone(),
    );
    inner_dep.run();
    let inner_raw = inner_dep.collect();
    let inner_wall_ms = millis(start.elapsed());
    let alloc = inner_dep.alloc_stats();

    // Decode probe: the inner trace re-expressed as wire traffic — one GET
    // per record, answered with a 200 on the first touch of each document
    // (the retention copy into a cache) and a 304 thereafter. The only
    // owned copies allowed are those retention copies.
    let mut corpus = Vec::with_capacity(inner_trace.records.len() * 2);
    let mut first_touch = vec![true; inner_trace.doc_count()];
    for (i, rec) in inner_trace.records.iter().enumerate() {
        let req = wcc_proto::RequestId::new(i as u64);
        corpus.push(wcc_proto::HttpMsg::Get(wcc_proto::GetRequest {
            req,
            url: rec.url,
            client: rec.client,
            ims: None,
            issued_at: rec.at,
            cache_hits: 0,
        }));
        let doc = rec.url.doc();
        let status = if std::mem::take(&mut first_touch[doc as usize]) {
            let meta = wcc_types::DocMeta::new(inner_trace.doc_size(doc), wcc_types::SimTime::ZERO);
            wcc_proto::ReplyStatus::Ok(wcc_types::Body::synthetic(meta, 100))
        } else {
            wcc_proto::ReplyStatus::NotModified
        };
        corpus.push(wcc_proto::HttpMsg::Reply(wcc_proto::Reply {
            req,
            url: rec.url,
            client: rec.client,
            status,
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        }));
    }
    let codec = wcc_proto::codec_sweep(&corpus);

    // One federation replay under invalidation, sequential or on
    // `FAMILY_SHARDS` engine shards. Callers keep the deployment alive to
    // the end of the run, so its drop stays out of the timed passes.
    let family_protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let replay = |workload: &FamilyWorkload, options: &DeploymentOptions, sharded: bool| {
        let mut dep =
            Deployment::build_multi(&workload.workloads, &family_protocol, options.clone());
        if sharded {
            dep.run_sharded(FAMILY_SHARDS);
        } else {
            dep.run();
        }
        let report = dep.collect();
        (dep, report)
    };

    // Family pass: one flash-crowd federation (64 origins, shared client
    // pool), replayed sequentially and on the 8-shard engine. The
    // state-bytes pair comes from the deterministic memory model, not the
    // host allocator, so the reduction gate reproduces everywhere.
    let family_cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd).scaled_down(scale);
    let family_workload = family::generate(&family_cfg, TABLE_SEED);
    let per_write = DeploymentOptions::default();
    let start = Instant::now();
    let (fam_seq, fam_seq_report) = replay(&family_workload, &per_write, false);
    let (_fam_shd, fam_shd_report) = replay(&family_workload, &per_write, true);
    let family_wall_ms = millis(start.elapsed());
    let family_memory = fam_seq.memory_model();

    // Proposer pass: the flash-crowd federation above plus its
    // breaking-news sibling, once under per-write fan-out and once under
    // the default batched proposer. The flash-crowd per-write leg reuses
    // the family pass's sequential report (same workload, same options),
    // and the batched flash-crowd replay also runs on the 8-shard engine so
    // the batched write-completion path is pinned byte-identical under
    // sharding. Every number comes off the simulation clock.
    let batch_cfg = InvalBatchConfig::default();
    let batched = DeploymentOptions {
        inval_batch: Some(batch_cfg),
        ..DeploymentOptions::default()
    };
    let wire_invalidations = |r: &RawReport| {
        r.origin_counters.invalidations_sent - r.origin_counters.batched_entries
            + r.origin_counters.inval_batches
    };
    let bn_cfg = FamilyConfig::city(WorkloadFamily::BreakingNews).scaled_down(scale);
    let bn_workload = family::generate(&bn_cfg, TABLE_SEED);
    let start = Instant::now();
    let (_bn_pw, bn_pw_report) = replay(&bn_workload, &per_write, false);
    let (_fc_batched, fc_batched_report) = replay(&family_workload, &batched, false);
    let (_fc_batched_shd, fc_batched_shd_report) = replay(&family_workload, &batched, true);
    let (_bn_batched, bn_batched_report) = replay(&bn_workload, &batched, false);
    let proposer_wall_ms = millis(start.elapsed());

    let proposer_per_write_messages =
        wire_invalidations(&fam_seq_report) + wire_invalidations(&bn_pw_report);
    let proposer_messages =
        wire_invalidations(&fc_batched_report) + wire_invalidations(&bn_batched_report);
    let proposer_reduction_pct = if proposer_per_write_messages == 0 {
        0.0
    } else {
        (1.0 - proposer_messages as f64 / proposer_per_write_messages as f64) * 100.0
    };
    let (mut enqueued, mut flushed) = (0u64, 0u64);
    for r in [&fc_batched_report, &bn_batched_report] {
        if let Some(p) = r.proposer {
            enqueued += p.enqueued;
            flushed += p.flushed_entries;
        }
    }
    let proposer_coalesce_ratio = if flushed == 0 {
        1.0
    } else {
        enqueued as f64 / flushed as f64
    };
    let mut batched_writes = fc_batched_report.write_completion.clone();
    batched_writes.merge(&bn_batched_report.write_completion);
    let mut per_write_writes = fam_seq_report.write_completion.clone();
    per_write_writes.merge(&bn_pw_report.write_completion);

    // Serving-tier pass: the readiness-reactor origin+proxy pair under a
    // few thousand keep-alive connections, in-process so the pass needs no
    // child binaries. The floor of 64 keeps reduced-scale runs
    // meaningful; full scale drives 2048.
    let serve_cfg = crate::serve::ServeBenchConfig {
        connections: (2048 / scale.max(1)).max(64) as usize,
        requests_per_conn: 8,
        docs: 64,
        protocol: ProtocolConfig::new(ProtocolKind::Invalidation),
        soak_secs: None,
        restart: false,
        exe: None,
    };
    let serve = crate::serve::run(&serve_cfg).expect("serving-tier bench pass");
    let q = |v: Option<u64>| v.unwrap_or(0);

    let mut r = Report::default();
    r.push("schema", SCHEMA);
    r.push("scale", scale);
    r.push("jobs", jobs);
    r.push("host_cores", wcc_replay::host_cores());
    r.push("host_fingerprint", host_fingerprint());
    r.push("grid.configs", configs.len());
    r.push("grid.sequential_ms", grid_sequential_ms);
    r.push("grid.parallel_ms", grid_parallel_ms);
    r.push(
        "grid.speedup",
        grid_sequential_ms as f64 / grid_parallel_ms as f64,
    );
    r.push("grid.byte_identical", identical(&sequential, &parallel));
    r.push("sharded.shards", shards);
    r.push("sharded.sharded_ms", sharded_grid_ms);
    r.push(
        "sharded.sharded_speedup",
        grid_sequential_ms as f64 / sharded_grid_ms as f64,
    );
    r.push(
        "sharded.sharded_byte_identical",
        identical(&sequential, &sharded),
    );
    r.push("inner_loop.workload", "EPA invalidation replay");
    r.push("inner_loop.requests", inner_raw.requests);
    r.push("inner_loop.wall_ms", inner_wall_ms);
    r.push(
        "inner_loop.requests_per_sec",
        inner_raw.requests * 1000 / inner_wall_ms,
    );
    r.push("alloc_stats.events_allocated", alloc.allocated);
    r.push("alloc_stats.events_recycled", alloc.recycled);
    r.push("alloc_stats.events_recycled_pct", alloc.recycled_pct());
    r.push("alloc_stats.events_peak_live", alloc.peak_live);
    r.push("alloc_stats.decode_messages", codec.messages);
    r.push("alloc_stats.decode_bytes", codec.bytes);
    r.push("alloc_stats.decode_borrows", codec.borrows);
    r.push("alloc_stats.decode_copies", codec.copies);
    r.push("alloc_stats.decode_retained", codec.retained);
    let family_requests = family_workload.total_requests();
    r.push("family.family_name", family_cfg.family.name());
    r.push("family.family_origins", family_workload.workloads.len());
    r.push(
        "family.family_clients",
        u64::from(family_cfg.spec.num_clients),
    );
    r.push("family.family_requests", family_requests);
    r.push("family.family_shards", FAMILY_SHARDS);
    r.push("family.family_wall_ms", family_wall_ms);
    r.push(
        "family.family_requests_per_sec",
        family_requests * 2 * 1000 / family_wall_ms,
    );
    let family_identical = format!("{fam_seq_report:?}") == format!("{fam_shd_report:?}");
    r.push("family.family_byte_identical", family_identical);
    r.push("family.family_state_bytes", family_memory.peak_bytes());
    r.push(
        "family.family_legacy_state_bytes",
        family_memory.legacy_peak_bytes(),
    );
    r.push(
        "family.family_memory_reduction_pct",
        family_memory.reduction_pct(),
    );
    r.push("family.family_peak_rss_kb", peak_rss_kb());
    r.push("serve.serve_connections", serve.connections);
    r.push("serve.serve_requests", serve.requests);
    r.push("serve.serve_dropped", serve.dropped);
    r.push("serve.serve_stale", serve.stale);
    r.push("serve.serve_p50_us", q(serve.latency.p50()));
    r.push("serve.serve_p90_us", q(serve.latency.p90()));
    r.push("serve.serve_p99_us", q(serve.latency.p99()));
    r.push("serve.serve_p999_us", q(serve.latency.p999()));
    r.push("serve.serve_wall_ms", serve.wall_ms);
    r.push(
        "serve.serve_requests_per_sec",
        serve.requests_per_sec() as u64,
    );
    r.push("proposer.proposer_batch_entries", batch_cfg.max_entries);
    r.push("proposer.proposer_messages", proposer_messages);
    r.push(
        "proposer.proposer_per_write_messages",
        proposer_per_write_messages,
    );
    r.push("proposer.proposer_reduction_pct", proposer_reduction_pct);
    r.push("proposer.proposer_coalesce_ratio", proposer_coalesce_ratio);
    r.push(
        "proposer.proposer_write_p50_us",
        us(batched_writes.median()),
    );
    r.push("proposer.proposer_write_p99_us", us(batched_writes.p99()));
    r.push(PER_WRITE_P99, us(per_write_writes.p99()));
    let batched_identical =
        format!("{fc_batched_report:?}") == format!("{fc_batched_shd_report:?}");
    r.push("proposer.proposer_byte_identical", batched_identical);
    r.push("proposer.proposer_wall_ms", proposer_wall_ms);
    let labels = grid_trace_labels();
    for (i, rep) in sequential.iter().enumerate() {
        let label = &labels[i / ProtocolKind::PAPER_TRIO.len()];
        let at = format!("latency_tails.{label}.{}", rep.protocol.name());
        r.push(format!("{at}.p50_us"), us(rep.raw.latency.median()));
        r.push(format!("{at}.p90_us"), us(rep.raw.latency.p90()));
        r.push(format!("{at}.p99_us"), us(rep.raw.latency.p99()));
    }
    r.push(
        "baseline.note",
        "pre-optimisation, scale 1, sequential harness, reference container",
    );
    r.push("baseline.grid_sequential_ms", 2794u64);
    r.push("baseline.inner_wall_ms", 170u64);
    r.push("baseline.inner_requests_per_sec", 239_000u64);
    r.push(
        "pre_shard.note",
        "immediately before the sharded-engine round, scale 1, sequential engine, \
         1-core reference container",
    );
    r.push("pre_shard.pre_shard_grid_ms", 2582u64);
    r.push("pre_shard.pre_shard_inner_ms", 133u64);
    r.push("pre_shard.pre_shard_inner_rps", 305_699u64);
    r.push(
        "pre_raw.note",
        "immediately before the raw-speed round (arena events, batched windows, zero-copy \
         decode), 1-core reference container; grid at scale 20, inner loop at its pinned \
         scale-2 workload",
    );
    r.push("pre_raw.pre_raw_grid_ms", 330u64);
    r.push("pre_raw.pre_raw_inner_ms", 200u64);
    r.push("pre_raw.pre_raw_inner_rps", 101_645u64);
    r
}

/// One reported value with its [`TABLE`] row.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The row's key; a `latency_tails` key names its replay and quantile.
    pub key: String,
    /// The value as written in the document: a number at the row's
    /// precision, `true`/`false`, or a quoted string.
    pub value: String,
    /// Unit, JSON form and gates of the row.
    pub spec: &'static Spec,
}

impl Metric {
    fn field(&self) -> &str {
        self.key.split_once('.').map_or("", |(_, f)| f)
    }

    /// `<trace>.<protocol>` of a `latency_tails` row.
    fn replay(&self) -> Option<&str> {
        self.field().rsplit_once('.').map(|(replay, _)| replay)
    }
}

/// A trajectory report: the rows of [`keys`], in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// The rows, in write order.
    pub rows: Vec<Metric>,
}

impl Report {
    /// Appends row `key`, written as its [`Kind`] says: a fixed-decimal
    /// value is rounded to its precision here, so the gates judge what the
    /// document says.
    ///
    /// # Panics
    ///
    /// If `key` is not one of [`keys`] or is already present.
    pub fn push(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        let key = key.into();
        let spec = keys().into_iter().find(|(k, _)| *k == key).map(|(_, s)| s);
        let spec = spec.unwrap_or_else(|| panic!("{key} is not a trajectory row"));
        assert!(self.get(&key).is_none(), "duplicate trajectory row {key}");
        let value = match spec.kind {
            Fixed(decimals) => {
                let v: f64 = value.to_string().parse().unwrap_or(f64::NAN);
                format!("{v:.decimals$}")
            }
            Str => format!("\"{value}\""),
            Int | Bool => value.to_string(),
        };
        self.rows.push(Metric { key, value, spec });
    }

    /// The value of row `key` as written, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.value.as_str())
    }

    /// The number in row `key`; NaN, which fails every bound, when the row
    /// is absent or not a number.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    /// Serialises the report in the `/7` layout: top-level rows, one
    /// object per block, `latency_tails` as an array of one-line entries.
    pub fn to_json(&self) -> String {
        let block = |m: &Metric| m.key.split_once('.').map(|(b, _)| b.to_string());
        let groups = self
            .rows
            .chunk_by(|a, b| block(a).is_some() && block(a) == block(b));
        let parts: Vec<String> = groups
            .map(|group| match block(&group[0]).as_deref() {
                None => format!("  \"{}\": {}", group[0].key, group[0].value),
                Some("latency_tails") => {
                    let entries = group
                        .chunk_by(|a, b| a.replay() == b.replay())
                        .map(|entry| {
                            let at = entry[0].replay().unwrap_or_default();
                            let (trace, protocol) = at.split_once('.').unwrap_or_default();
                            let mut line = format!(
                                "    {{ \"trace\": \"{trace}\", \"protocol\": \"{protocol}\""
                            );
                            for m in entry {
                                let quantile = m.key.rsplit('.').next().unwrap_or_default();
                                let _ = write!(line, ", \"{quantile}\": {}", m.value);
                            }
                            line + " }"
                        });
                    let entries: Vec<String> = entries.collect();
                    format!("  \"latency_tails\": [\n{}\n  ]", entries.join(",\n"))
                }
                Some(name) => {
                    let fields = group
                        .iter()
                        .map(|m| format!("    \"{}\": {}", m.field(), m.value));
                    let fields: Vec<String> = fields.collect();
                    format!("  \"{name}\": {{\n{}\n  }}", fields.join(",\n"))
                }
            })
            .collect();
        format!("{{\n{}\n}}\n", parts.join(",\n"))
    }

    /// Reads a `/7` document back into rows, strictly: a wrong schema, an
    /// unknown, duplicate or missing key, a value of the wrong type, a
    /// truncated document or trailing input is an error naming the key or
    /// byte offset.
    pub fn from_json(doc: &str) -> Result<Self, String> {
        let expected = keys();
        let mut found: Vec<(String, String)> = Vec::new();
        let mut parser = Parser { doc, at: 0 };
        parser.value("", &mut |key, value, at| {
            let Some((_, spec)) = expected.iter().find(|(k, _)| *k == key) else {
                return Err(format!("byte {at}: unknown key {key}"));
            };
            if found.iter().any(|(k, _)| *k == key) {
                return Err(format!("byte {at}: duplicate key {key}"));
            }
            let fits = match spec.kind {
                Int => value.bytes().all(|c| c.is_ascii_digit()),
                Fixed(_) => value.parse::<f64>().is_ok_and(f64::is_finite),
                Bool => value == "true" || value == "false",
                Str => value.starts_with('"'),
            };
            if !fits {
                return Err(format!(
                    "byte {at}: {key} must be {:?}, not {value}",
                    spec.kind
                ));
            }
            if key == "schema" && value != format!("\"{SCHEMA}\"") {
                return Err(format!("byte {at}: schema {value} is not {SCHEMA}"));
            }
            found.push((key, value));
            Ok(())
        })?;
        if parser.peek().is_some() {
            return parser.fail("the end of the document");
        }
        let rows = expected.into_iter().map(|(key, spec)| {
            let at = found.iter().position(|(k, _)| *k == key);
            let at = at.ok_or_else(|| format!("missing key {key}"))?;
            Ok(Metric {
                key,
                value: found[at].1.clone(),
                spec,
            })
        });
        Ok(Report {
            rows: rows.collect::<Result<_, String>>()?,
        })
    }
}

/// Receives each scalar the parser reads: its flattened key, its text and
/// its byte offset.
type Sink<'a> = dyn FnMut(String, String, usize) -> Result<(), String> + 'a;

/// A JSON reader for the subset the writer emits (objects, arrays,
/// strings without escapes, bare numbers and booleans). It flattens
/// nested objects into `block.field` keys and `latency_tails` entries into
/// `latency_tails.<trace>.<protocol>.<quantile>` keys.
struct Parser<'a> {
    doc: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, expected: &str) -> Result<T, String> {
        Err(format!("byte {}: expected {expected}", self.at))
    }

    fn peek(&mut self) -> Option<u8> {
        let rest = &self.doc[self.at..];
        self.at += rest.len() - rest.trim_start().len();
        self.doc.as_bytes().get(self.at).copied()
    }

    /// Reads the value at `path`, handing every scalar to `sink`.
    fn value(&mut self, path: &str, sink: &mut Sink<'_>) -> Result<(), String> {
        let join = |key: &str| [path, key].join(if path.is_empty() { "" } else { "." });
        match self.peek() {
            Some(b'{') => self.list(b'}', |p| {
                let key = p.token()?;
                let Some(key) = key.strip_prefix('"').and_then(|k| k.strip_suffix('"')) else {
                    return p.fail("a quoted key");
                };
                if p.peek() != Some(b':') {
                    return p.fail("':'");
                }
                p.at += 1;
                p.value(&join(key), sink)
            }),
            Some(b'[') => self.list(b']', |p| {
                let mut fields = Vec::new();
                p.value("", &mut |key, value, _| {
                    fields.push((key, value));
                    Ok(())
                })?;
                let [(t, trace), (r, protocol), quantiles @ ..] = &fields[..] else {
                    return p.fail("an entry with trace and protocol");
                };
                if (t.as_str(), r.as_str()) != ("trace", "protocol") {
                    return p.fail("an entry opening with trace and protocol");
                }
                let replay = format!("{}.{}", trace.trim_matches('"'), protocol.trim_matches('"'));
                for (quantile, v) in quantiles {
                    sink(join(&format!("{replay}.{quantile}")), v.clone(), p.at)?;
                }
                Ok(())
            }),
            _ => {
                let token = self.token()?;
                sink(path.to_string(), token, self.at)
            }
        }
    }

    /// Reads `[`/`{`, then `each` element up to `close`, comma-separated.
    fn list(
        &mut self,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            each(self)?;
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return self.fail(&format!("',' or '{}'", close as char)),
            }
        }
    }

    /// A scalar verbatim: a quoted string without escapes, or a bare run
    /// of number or keyword characters.
    fn token(&mut self) -> Result<String, String> {
        self.peek();
        let start = self.at;
        let rest = &self.doc[start..];
        let len = match rest.strip_prefix('"') {
            Some(body) => match body.find(['"', '\\']) {
                Some(end) if body[end..].starts_with('"') => Some(end + 2),
                _ => return self.fail("a closing '\"' (strings carry no escapes)"),
            },
            None => rest.find(|c: char| !c.is_ascii_alphanumeric() && !".-+".contains(c)),
        }
        .unwrap_or(rest.len());
        if len == 0 {
            return self.fail("a value");
        }
        self.at += len;
        Ok(rest[..len].to_string())
    }
}

/// How one gate judged one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The gate held.
    Ok,
    /// The gate failed.
    Fail,
    /// The gate does not bind here: a timing gate against another host's
    /// baseline, or the shard rule on a host shape it does not cover.
    Informational,
}

/// One gate's verdict on one row.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The row's key.
    pub key: String,
    /// The gate.
    pub gate: Gate,
    /// The verdict.
    pub outcome: Outcome,
    /// The rule applied, in words.
    pub rule: String,
    /// The baseline's value (`-` without a baseline) and the current one,
    /// with the row's unit.
    pub values: (String, String),
}

/// Judges every gated row of `current`. Without a baseline only the gates
/// that judge the current report alone run (bound gates and
/// [`MustBeTrue`]); with one, [`Exact`], [`Tolerance`] and [`ShardShape`]
/// run too.
pub fn judge(current: &Report, baseline: Option<&Report>, tolerance: f64) -> Vec<Verdict> {
    let same_host = baseline.map(|b| b.get("host_fingerprint") == current.get("host_fingerprint"));
    let rhs = |r: Rhs| match r {
        Const(v) => (v, v.to_string()),
        Row(key) => (current.num(key), key.to_string()),
    };
    let mut out = Vec::new();
    for m in &current.rows {
        let base = baseline.and_then(|b| b.get(&m.key));
        let c = current.num(&m.key);
        for &gate in m.spec.gates {
            let (ok, rule) = match (gate, same_host) {
                (Exact | Tolerance | ShardShape, None) => continue,
                (Tolerance | ShardShape, Some(false)) => (None, "different host".to_string()),
                (Exact, _) => (Some(base == Some(m.value.as_str())), "exact".to_string()),
                (Tolerance, _) => {
                    let b = baseline.map_or(f64::NAN, |b| b.num(&m.key));
                    let grace = TIMING_GRACE_MS * if m.spec.unit == "us" { 1000.0 } else { 1.0 };
                    let ok = (c - b).abs() <= (tolerance * b).max(grace);
                    (Some(ok), format!("±{:.0}%", tolerance * 100.0))
                }
                (ShardShape, _) => shard_shape(current),
                (MustBeTrue, _) => (Some(m.value == "true"), "must be true".to_string()),
                (Floor(r), _) => (Some(c >= rhs(r).0), format!(">= {}", rhs(r).1)),
                (Above(r), _) => (Some(c > rhs(r).0), format!("> {}", rhs(r).1)),
                (Ceiling(r), _) => (Some(c <= rhs(r).0), format!("<= {}", rhs(r).1)),
                (Equals(r), _) => (Some(c == rhs(r).0), format!("== {}", rhs(r).1)),
            };
            let outcome = match ok {
                Some(true) => Outcome::Ok,
                Some(false) => Outcome::Fail,
                None => Outcome::Informational,
            };
            let with_unit = |v: &str| format!("{v} {}", m.spec.unit).trim_end().to_string();
            let values = (base.map_or("-".to_string(), with_unit), with_unit(&m.value));
            out.push(Verdict {
                key: m.key.clone(),
                gate,
                outcome,
                rule,
                values,
            });
        }
    }
    out
}

/// The [`ShardShape`] rule, on a report judged against its own host.
fn shard_shape(current: &Report) -> (Option<bool>, String) {
    let cores = current.num("host_cores");
    let (ok, rule) = if cores == 1.0 {
        let ceiling = current.num("grid.sequential_ms") * 3.0 + TIMING_GRACE_MS;
        let ok = current.num("sharded.sharded_ms") <= ceiling;
        (Some(ok), "sharded_ms <= 3x sequential_ms, 1-core host")
    } else if cores >= 4.0 && current.num("scale") == 1.0 {
        let ok = current.num("sharded.sharded_speedup") >= 1.5;
        (Some(ok), ">= 1.5, multi-core host at full scale")
    } else {
        (None, "host shape")
    };
    (ok, rule.to_string())
}

/// Compares two `/7` documents, the CI bench-regression gate: every gate
/// of [`TABLE`] runs, `tolerance` being the relative slack of timing
/// rows. Errors when either document does not read back.
pub fn check(current: &str, baseline: &str, tolerance: f64) -> Result<Vec<Verdict>, String> {
    let current = Report::from_json(current).map_err(|e| format!("current report: {e}"))?;
    let baseline = Report::from_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    Ok(judge(&current, Some(&baseline), tolerance))
}

/// Whether no verdict failed.
pub fn passed(verdicts: &[Verdict]) -> bool {
    verdicts.iter().all(|v| v.outcome != Outcome::Fail)
}

/// The verdicts as a text table, one line per row and gate.
pub fn table(verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "{:<44} {:>12} {:>12}  verdict\n",
        "row", "baseline", "current"
    );
    for v in verdicts {
        let verdict = match v.outcome {
            Outcome::Ok => "ok",
            Outcome::Fail => "FAIL",
            Outcome::Informational => "informational",
        };
        let (base, cur) = &v.values;
        let _ = writeln!(
            out,
            "{:<44} {base:>12} {cur:>12}  {verdict} ({})",
            v.key, v.rule
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: [&str; 2] = [
        include_str!("../../../BENCH_replay.json"),
        include_str!("../../../ci/bench-baseline.json"),
    ];

    fn set(report: &mut Report, key: &str, value: impl std::fmt::Display) {
        let row = report.rows.iter_mut().find(|m| m.key == key);
        row.unwrap_or_else(|| panic!("no row {key}")).value = value.to_string();
    }

    /// The committed pair (1-core, same host) and the same pair reshaped to
    /// a 2-core host, a 4-core host at full scale and a foreign baseline.
    fn host_shapes() -> Vec<(&'static str, Report, Report)> {
        let cur = Report::from_json(COMMITTED[0]).unwrap();
        let base = Report::from_json(COMMITTED[1]).unwrap();
        let mut shapes = vec![("1-core", cur.clone(), base.clone())];
        for (shape, cores, scale) in [("2-core", 2, 20), ("4-core", 4, 1)] {
            let (mut c, mut b) = (cur.clone(), base.clone());
            set(&mut c, "host_cores", cores);
            set(&mut c, "sharded.sharded_speedup", 1.6);
            set(&mut c, "scale", scale);
            set(&mut b, "scale", scale);
            shapes.push((shape, c, b));
        }
        let mut foreign = base;
        set(
            &mut foreign,
            "host_fingerprint",
            "\"arm64/linux/4c/other-cpu\"",
        );
        shapes.push(("foreign", cur, foreign));
        shapes
    }

    /// Pushes row `key` just past `gate` and nothing else past its own.
    fn violate(cur: &mut Report, base: &mut Report, key: &str, gate: Gate) {
        let rhs = |r: Rhs| match r {
            Const(v) => v,
            Row(k) => cur.num(k),
        };
        let grace = TIMING_GRACE_MS * if key.ends_with("_us") { 1000.0 } else { 1.0 };
        let (c, b) = (cur.num(key), base.num(key));
        let value = match gate {
            Exact => c + 1.0,
            Equals(r) => rhs(r) + 1.0,
            Tolerance => b + (0.15 * b).max(grace) + 1.0,
            Floor(r) => rhs(r) - 0.1,
            Above(r) => rhs(r),
            Ceiling(r) => rhs(r) + 1.0,
            MustBeTrue => return set(cur, key, false),
            ShardShape if cur.num("host_cores") == 1.0 => {
                // The fastest sequential grid the timing gate still takes,
                // and a sharded pass just over 3x that.
                let sequential = base.num("grid.sequential_ms") - TIMING_GRACE_MS;
                set(cur, "grid.sequential_ms", sequential);
                return set(
                    cur,
                    "sharded.sharded_ms",
                    3.0 * sequential + TIMING_GRACE_MS + 1.0,
                );
            }
            ShardShape => 1.4,
        };
        set(cur, key, value);
        for spec in TABLE {
            // A row bound to equal this one moves with it, and a ceiling's
            // baseline moves too, so no other gate trips.
            let bound = spec
                .gates
                .iter()
                .any(|g| matches!(g, Equals(Row(k)) if *k == key));
            if gate == Exact && bound {
                set(cur, spec.key, value);
            }
        }
        if matches!(gate, Ceiling(_)) {
            set(base, key, value);
        }
    }

    fn failing(cur: &Report, base: &Report) -> Vec<(String, Gate)> {
        let verdicts = judge(cur, Some(base), 0.15).into_iter();
        let failed = verdicts.filter(|v| v.outcome == Outcome::Fail);
        failed.map(|v| (v.key, v.gate)).collect()
    }

    #[test]
    fn committed_files_round_trip_byte_for_byte() {
        for doc in COMMITTED {
            let report = Report::from_json(doc).expect("committed report reads back");
            assert_eq!(report.to_json(), doc);
        }
    }

    #[test]
    fn committed_pair_passes_every_gate() {
        // The gates of the old hand-written checker all passed on this pair
        // too; the new table splits its one latency_tails verdict into 54.
        let verdicts = check(COMMITTED[0], COMMITTED[1], 0.15).unwrap();
        let ok = verdicts.iter().all(|v| v.outcome == Outcome::Ok);
        assert!(ok, "{}", table(&verdicts));
        assert_eq!(verdicts.len(), 54 + 38);
    }

    #[test]
    fn every_gate_fails_exactly_its_own_row_on_every_host_shape() {
        for (shape, cur, base) in host_shapes() {
            assert_eq!(failing(&cur, &base), vec![], "{shape}");
            for v in judge(&cur, Some(&base), 0.15) {
                let (mut c, mut b) = (cur.clone(), base.clone());
                violate(&mut c, &mut b, &v.key, v.gate);
                // Informational rows (timing on a foreign host, the shard
                // rule on 2 cores) stay quiet however far they move.
                let expected = match v.outcome {
                    Outcome::Informational => vec![],
                    _ => vec![(v.key.clone(), v.gate)],
                };
                assert_eq!(failing(&c, &b), expected, "{shape}: {} {:?}", v.key, v.gate);
            }
        }
    }

    #[test]
    fn the_reader_rejects_what_it_does_not_understand() {
        let doc = COMMITTED[0];
        let tails = "\"EPA\", \"protocol\": \"invalidation\"";
        for (broken, error) in [
            (
                doc.replace("trajectory/7", "trajectory/6"),
                "byte 38: schema",
            ),
            (doc.replace("\"jobs\"", "\"jobz\""), "unknown key jobz"),
            (
                doc.replace("\"jobs\": 1,", "\"jobs\": 1, \"jobs\": 1,"),
                "duplicate key jobs",
            ),
            (
                doc.replace(tails, &tails.replace("EPA", "EPB")),
                "unknown key latency_tails.EPB",
            ),
            (
                doc.replace("\"decode_copies\": 1752,", ""),
                "missing key alloc_stats.decode_copies",
            ),
            (
                doc.replace("\": 92,", "\": \"92\","),
                "grid.sequential_ms must be Int",
            ),
            (doc.replace("\": 92,", "\": nine,"), "must be Int, not nine"),
            (doc[..1000].to_string(), "byte 987: expected a closing"),
            (format!("{doc}{{}}"), "expected the end of the document"),
        ] {
            let err = check(&broken, doc, 0.15).unwrap_err();
            assert!(err.contains(error), "wanted {error:?}, got {err:?}");
        }
    }

    #[test]
    fn reduced_scale_run_measures_and_stays_identical() {
        let report = run(400, Some(2), 2);
        // Every row is pushed once, in table order: the report reads back.
        assert_eq!(Report::from_json(&report.to_json()), Ok(report.clone()));
        for (key, want) in [
            ("grid.configs", 18.0),
            ("jobs", 2.0),
            ("sharded.shards", 2.0),
            ("family.family_origins", 64.0),
            ("family.family_shards", FAMILY_SHARDS as f64),
            ("proposer.proposer_batch_entries", 8.0),
        ] {
            assert_eq!(report.num(key), want, "{key}");
        }
        let requests = report.num("inner_loop.requests");
        assert_eq!(report.num("alloc_stats.decode_messages"), requests * 2.0);
        assert!(report.num("alloc_stats.decode_borrows") > report.num("alloc_stats.decode_copies"));
        let per_write = report.num("proposer.proposer_per_write_messages");
        assert!(report.num("proposer.proposer_messages") <= per_write);
        // Every current-run gate holds this far down except the proposer
        // bounds: a 400x-reduced storm is too sparse to batch meaningfully.
        for v in judge(&report, None, 0.0) {
            let sparse = v.key.starts_with("proposer.") && v.gate != MustBeTrue;
            assert!(sparse || v.outcome == Outcome::Ok, "{v:?}");
        }
    }

    #[test]
    fn grid_covers_tables_3_and_4() {
        let configs = grid_configs(100);
        assert_eq!(configs.len(), 18);
        // Table order: each experiment contributes one full trio.
        for block in configs.chunks(3) {
            for (cfg, kind) in block.iter().zip(ProtocolKind::PAPER_TRIO) {
                assert_eq!(cfg.protocol.kind, kind);
                assert_eq!(cfg.spec.name, block[0].spec.name);
            }
        }
        assert_eq!(configs[0].spec.name, "EPA");
        assert_eq!(configs[17].spec.name, "SDSC");
    }

    #[test]
    fn grid_tail_keys_are_unique() {
        // Six experiments, five trace names: the SDSC lifetime variants
        // must come out labelled apart, or the tails rows collide.
        let labels = grid_trace_labels();
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 6, "{labels:?}");
        assert!(labels.contains(&"SDSC(57)".to_string()), "{labels:?}");
        assert!(labels.contains(&"SDSC(576)".to_string()), "{labels:?}");
    }

    #[test]
    fn the_running_host_has_a_fingerprint() {
        let fp = host_fingerprint();
        // arch/os/<cores>c/<model> — four slash-separated parts minimum,
        // and nothing that would need JSON escaping.
        assert!(fp.matches('/').count() >= 3, "{fp}");
        assert!(!fp.contains('"') && !fp.contains('\\'), "{fp}");
    }
}
