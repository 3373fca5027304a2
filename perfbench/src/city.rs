//! The city replay workloads: the flash-crowd family from
//! `wcc_traces::family`, replayed through `wcc_httpsim::Deployment` on the
//! default sequential engine, with invalidation (`city-inval`) or adaptive
//! TTL (`city-ttl`).
//!
//! One *iteration* generates a workload, builds the deployment (set-up),
//! runs it and collects the report (the timed phase). Iteration 0 replays
//! `--seed` itself; later iterations replay sub-seeds derived from it, so a
//! run averages over several federations instead of resting on one. The
//! number of iterations follows from `--seconds` alone, so every run of a
//! seed replays the same federations, however fast the build or host.

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mib};
use rand::rngs::StdRng;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_simnet::ArenaStats;
use wcc_traces::family::{self, FamilyConfig, WorkloadFamily};
use wcc_types::{SimDuration, SimTime, WallClock};

/// The city preset is divided by this factor (origin count is kept).
pub const SCALE: u64 = 3;

/// Simulated-time width of one window in the windowed profile.
pub const WINDOW: SimDuration = SimDuration::from_millis(250);

/// Iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: u64 = 3;

/// Iterations an untraced run replays for `seconds`: sized so that it takes
/// about `seconds` on a 2-core x86-64 host (1.6 city-inval or 9.5 city-ttl
/// iterations a second there, two at a time). The traced run replays half
/// as many, one at a time.
fn iterations(kind: ProtocolKind, seconds: u64) -> u64 {
    let per_ten_seconds = if kind.uses_invalidation() { 15 } else { 90 };
    (seconds * per_ten_seconds / 10).max(MIN_ITERATIONS)
}

/// The family configuration the city workloads replay.
fn config(scale: u64) -> FamilyConfig {
    FamilyConfig::city(WorkloadFamily::FlashCrowd).scaled_down(scale)
}

/// The generator seed of iteration `i` of a run seeded with `seed`.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        StdRng::seed_from_u64(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

/// One simulated-time window of a stepped replay.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Window end, simulated.
    pub end: SimTime,
    /// Wall time spent dispatching it, µs.
    pub wall_us: u64,
    /// Events allocated while dispatching it.
    pub events: u64,
}

/// Everything one iteration measured.
#[derive(Debug)]
pub struct Replay {
    /// Requests the generator produced.
    pub generated: u64,
    /// `family::generate`, µs.
    pub generate_us: u64,
    /// `Deployment::build_multi`, µs.
    pub build_us: u64,
    /// `Deployment::run` (or the windowed `run_until` steps), µs.
    pub run_us: u64,
    /// `Deployment::collect`, µs.
    pub collect_us: u64,
    /// The collected report.
    pub raw: RawReport,
    /// Event-arena counters after the run.
    pub alloc: ArenaStats,
    /// `memory_model().peak_bytes()`.
    pub state_bytes: u64,
    /// Σ proxy `invalidations_received`.
    pub inval_received: u64,
    /// Σ proxy `invalidations_effective`.
    pub inval_effective: u64,
    /// The window profile (stepped replays only).
    pub windows: Vec<Window>,
}

/// Replays one generated federation. `window` steps the run through
/// `Deployment::run_until` over fixed simulated windows instead of one
/// `run`; `audit` records the audit-event stream (the deployment is then
/// returned for `Deployment::audit`).
pub fn replay(
    kind: ProtocolKind,
    scale: u64,
    seed: u64,
    window: Option<SimDuration>,
    audit: bool,
    tracer: &mut Tracer,
) -> (Replay, Deployment) {
    let cfg = config(scale);
    let clock = WallClock::start();
    let workload = tracer.span("traces.generate", 0, || family::generate(&cfg, seed));
    let generate_us = clock.elapsed().as_micros();
    let generated = workload.total_requests();

    let options = DeploymentOptions {
        audit,
        ..DeploymentOptions::default()
    };
    let proto = ProtocolConfig::new(kind);
    let clock = WallClock::start();
    let mut dep = tracer.span("httpsim.build", 0, || {
        Deployment::build_multi(&workload.workloads, &proto, options)
    });
    let build_us = clock.elapsed().as_micros();
    tracer.span("traces.drop", 0, || drop(workload));

    let mut windows = Vec::new();
    let clock = WallClock::start();
    match window {
        None => {
            tracer.span("simnet.run", 0, || dep.run());
        }
        Some(width) => {
            let t = tracer.open("simnet.run", 0);
            step_windows(&mut dep, width, tracer, &mut windows);
            tracer.close(t);
        }
    }
    let run_us = clock.elapsed().as_micros();
    let alloc = dep.alloc_stats();

    let clock = WallClock::start();
    let raw = tracer.span("httpsim.collect", 0, || dep.collect());
    let collect_us = clock.elapsed().as_micros();

    let (mut inval_received, mut inval_effective) = (0, 0);
    for i in 0..dep.proxy_ids().len() {
        let c = dep.proxy(i).counters();
        inval_received += c.invalidations_received;
        inval_effective += c.invalidations_effective;
    }
    let state_bytes = dep.memory_model().peak_bytes();
    let replay = Replay {
        generated,
        generate_us,
        build_us,
        run_us,
        collect_us,
        raw,
        alloc,
        state_bytes,
        inval_received,
        inval_effective,
        windows,
    };
    (replay, dep)
}

/// Steps the engine through `run_until` windows of `width` until no event
/// is pending, recording wall time and event delta per window.
fn step_windows(
    dep: &mut Deployment,
    width: SimDuration,
    tracer: &mut Tracer,
    out: &mut Vec<Window>,
) {
    let mut end = SimTime::ZERO;
    loop {
        end += width;
        let before = dep.alloc_stats().allocated;
        let clock = WallClock::start();
        tracer.span("simnet.window", out.len() as u64, || dep.run_until(end));
        let wall_us = clock.elapsed().as_micros();
        let stats = dep.alloc_stats();
        out.push(Window {
            end,
            wall_us,
            events: stats.allocated - before,
        });
        if stats.live == 0 {
            break;
        }
    }
}

/// Checks one iteration's outputs; returns the failures it counts and a
/// line per broken rule.
///
/// Under invalidation, `RawReport::stale_hits` counts serves made while a
/// write's invalidations were still in flight, which strong consistency
/// allows (the write has not completed); they are reported, and the
/// auditor pass judges staleness against completed writes.
pub fn check(kind: ProtocolKind, r: &Replay) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    if r.raw.requests != r.generated {
        failed += r.generated.abs_diff(r.raw.requests);
        notes.push(format!(
            "replayed {} of {} generated requests",
            r.raw.requests, r.generated
        ));
    }
    if !r.raw.finished {
        failed += 1;
        notes.push("coordinator did not finish the trace".to_string());
    }
    if kind.uses_invalidation() {
        if r.raw.final_violations > 0 {
            failed += r.raw.final_violations;
            notes.push(format!("{} final violations", r.raw.final_violations));
        }
        if !r.raw.writes_complete {
            failed += 1;
            notes.push("writes did not complete".to_string());
        }
    }
    (failed, notes)
}

/// Worker threads of the untraced run: two, or one on a one-core host.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one untraced iteration reports to the run that spawned it: one
/// `key=value` line, then a `problem` line per broken rule.
#[derive(Debug, Clone, Default, PartialEq)]
struct IterationSummary {
    /// Iteration index.
    i: u64,
    /// Requests generated.
    generated: u64,
    /// Requests replayed.
    requests: u64,
    /// Failures counted by [`check`].
    failed: u64,
    /// `RawReport::stale_hits`.
    stale_hits: u64,
    /// `RawReport::total_messages`.
    total_messages: u64,
    /// Set-up (`generate` + `build_multi`), µs.
    setup_us: u64,
    /// Timed phase (`run` + `collect`), µs.
    timed_us: u64,
    /// The iteration process's `VmHWM`, MiB.
    peak_rss_mib: f64,
    /// Simulated client latency p99, µs.
    sim_p99_us: u64,
    /// Broken rules.
    problems: Vec<String>,
}

impl IterationSummary {
    /// Summarises a replay in this process.
    fn of(kind: ProtocolKind, i: u64, r: &Replay) -> IterationSummary {
        let (failed, problems) = check(kind, r);
        IterationSummary {
            i,
            generated: r.generated,
            requests: r.raw.requests,
            failed,
            stale_hits: r.raw.stale_hits,
            total_messages: r.raw.total_messages,
            setup_us: r.generate_us + r.build_us,
            timed_us: r.run_us + r.collect_us,
            peak_rss_mib: peak_rss_mib(),
            sim_p99_us: r.raw.latency.p99().map_or(0, |d| d.as_micros()),
            problems,
        }
    }

    /// The lines an iteration process prints.
    fn to_lines(&self) -> String {
        let mut out = format!(
            "iteration i={} generated={} requests={} failed={} stale_hits={} total_messages={} \
             setup_us={} timed_us={} peak_rss_mib={} sim_p99_us={}\n",
            self.i,
            self.generated,
            self.requests,
            self.failed,
            self.stale_hits,
            self.total_messages,
            self.setup_us,
            self.timed_us,
            self.peak_rss_mib,
            self.sim_p99_us
        );
        for p in &self.problems {
            out.push_str(&format!("problem {p}\n"));
        }
        out
    }

    /// Parses [`IterationSummary::to_lines`] output.
    fn parse(text: &str) -> Option<IterationSummary> {
        let mut s = IterationSummary::default();
        let mut seen = 0;
        for line in text.lines() {
            if let Some(p) = line.strip_prefix("problem ") {
                s.problems.push(p.to_string());
                continue;
            }
            let Some(fields) = line.strip_prefix("iteration ") else {
                continue;
            };
            for field in fields.split(' ') {
                let (key, value) = field.split_once('=')?;
                let int = || value.parse::<u64>().ok();
                match key {
                    "i" => s.i = int()?,
                    "generated" => s.generated = int()?,
                    "requests" => s.requests = int()?,
                    "failed" => s.failed = int()?,
                    "stale_hits" => s.stale_hits = int()?,
                    "total_messages" => s.total_messages = int()?,
                    "setup_us" => s.setup_us = int()?,
                    "timed_us" => s.timed_us = int()?,
                    "peak_rss_mib" => s.peak_rss_mib = value.parse().ok()?,
                    "sim_p99_us" => s.sim_p99_us = int()?,
                    _ => return None,
                }
                seen += 1;
            }
        }
        (seen == 10).then_some(s)
    }
}

/// Runs iteration `i` of a run in this process and prints its summary: the
/// body of the processes [`run_plain`] spawns.
pub fn run_iteration(kind: ProtocolKind, seed: u64, i: u64) {
    let mut off = Tracer::off();
    let (r, dep) = replay(kind, SCALE, iteration_seed(seed, i), None, false, &mut off);
    drop(dep);
    print!("{}", IterationSummary::of(kind, i, &r).to_lines());
}

/// The untraced run: [`iterations`] iterations, each in a process of its
/// own so it reports its own peak resident set, [`workers`] at a time.
pub fn run_plain(kind: ProtocolKind, workload: &str, seed: u64, seconds: u64, report: &mut Report) {
    let count = iterations(kind, seconds);
    let next = AtomicU64::new(0);
    let done: Mutex<Vec<IterationSummary>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let exe = std::env::current_exe();
    std::thread::scope(|scope| {
        for _ in 0..workers() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let ran = exe.as_ref().map_err(|e| e.to_string()).and_then(|exe| {
                    std::process::Command::new(exe)
                        .args(["--workload", workload, "--iteration", &i.to_string()])
                        .args(["--seed", &seed.to_string()])
                        .stderr(std::process::Stdio::inherit())
                        .output()
                        .map_err(|e| e.to_string())
                });
                let parsed = ran.and_then(|out| {
                    let text = String::from_utf8_lossy(&out.stdout);
                    IterationSummary::parse(&text).ok_or_else(|| {
                        format!("iteration {i} exited with {} and no summary", out.status)
                    })
                });
                match parsed {
                    Ok(s) => done
                        .lock()
                        .expect("no panics while holding the lock")
                        .push(s),
                    Err(e) => {
                        errors
                            .lock()
                            .expect("no panics while holding the lock")
                            .push(e);
                        return;
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().expect("workers joined");
    report.attempt(errors.len() as u64, errors.len() as u64, &errors);
    let mut done = done.into_inner().expect("workers joined");
    done.sort_by_key(|s| s.i);
    let (mut setup, mut msgs, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stale, mut requests, mut timed_us) = (0, 0, 0);
    for s in &done {
        report.attempt(s.generated, s.failed, &s.problems);
        setup.push(s.setup_us as f64 / 1e6);
        msgs.push(s.total_messages as f64 / s.requests.max(1) as f64);
        rss.push(s.peak_rss_mib);
        stale += s.stale_hits;
        requests += s.requests;
        timed_us += s.timed_us;
    }
    let n = done.len() as u64;
    // Federations differ in cost by a factor of three, so throughput is
    // taken over all of them, not as a median of per-federation rates.
    let rps = requests as f64 / (timed_us.max(1) as f64 / 1e6);
    report.metric("setup_s", median(&setup), "s", n);
    report.metric("ops_per_s", rps, "1/s", n);
    report.note_metric("replay_rps", rps, "req/s", n);
    report.metric("msgs_per_req", median(&msgs), "msg/req", n);
    report.metric("peak_rss_mib", median(&rss), "MiB", n);
    let sim_p99 = done.first().map_or(0.0, |s| s.sim_p99_us as f64 / 1e3);
    report.note_metric("sim_p99_ms", sim_p99, "ms", 1);
    report.note_metric("stale_hits", stale as f64, "count", n);
    report.note(&format!(
        "{n} iterations, one process each, on {} threads",
        workers()
    ));
}

/// The traced run: iteration 0 replayed untraced one-shot and then traced
/// through the window profile (the two reports must match byte for byte),
/// then traced one-shot iterations, half of [`iterations`] in all.
pub fn run_traced(kind: ProtocolKind, seed: u64, seconds: u64, report: &mut Report) {
    let mut off = Tracer::off();
    let (plain, dep) = replay(kind, SCALE, seed, None, false, &mut off);
    drop(dep);
    let plain_wall_us = plain.generate_us + plain.build_us + plain.run_us + plain.collect_us;
    let plain_debug = format!("{:?}", plain.raw);

    let count = (iterations(kind, seconds) / 2).max(MIN_ITERATIONS);
    let mut tracer = Tracer::on();
    let root = tracer.open("bench.city", 0);
    let mut iterations: Vec<Replay> = Vec::new();
    let mut first_wall_us = 0;
    for i in 0..count {
        let it = tracer.open("bench.iteration", i);
        let window = (i == 0).then_some(WINDOW);
        let (r, dep) = replay(
            kind,
            SCALE,
            iteration_seed(seed, i),
            window,
            false,
            &mut tracer,
        );
        tracer.span("httpsim.drop", i, || drop(dep));
        if i == 0 {
            first_wall_us = r.generate_us + r.build_us + r.run_us + r.collect_us;
        }
        let (failed, notes) = check(kind, &r);
        report.attempt(r.generated, failed, &notes);
        tracer.close(it);
        iterations.push(r);
    }
    tracer.close(root);

    let first = &iterations[0];
    if format!("{:?}", first.raw) != plain_debug {
        report.attempt(
            0,
            1,
            &["windowed replay differs from the one-shot replay".to_string()],
        );
    } else {
        report.note("windowed replay: byte-identical to the one-shot replay");
    }
    report.note(&format!(
        "tracing overhead: iteration 0 took {} µs traced+windowed vs {} µs untraced",
        first_wall_us, plain_wall_us
    ));

    let n = iterations.len() as u64;
    let med = |f: &dyn Fn(&Replay) -> f64| median(&iterations.iter().map(f).collect::<Vec<_>>());
    report.metric(
        "traces.generate_s",
        med(&|r| r.generate_us as f64 / 1e6),
        "s",
        n,
    );
    report.metric("httpsim.build_s", med(&|r| r.build_us as f64 / 1e6), "s", n);
    report.metric(
        "httpsim.collect_s",
        med(&|r| r.collect_us as f64 / 1e6),
        "s",
        n,
    );
    let raw = &first.raw;
    let per_req = |x: u64| x as f64 / raw.requests.max(1) as f64;
    report.metric(
        "httpsim.upstream_per_req",
        per_req(raw.gets + raw.ims),
        "msg/req",
        1,
    );
    report.metric(
        "httpsim.ims_304_ratio",
        raw.replies_304 as f64 / raw.ims.max(1) as f64,
        "ratio",
        1,
    );
    report.metric("simnet.run_s", med(&|r| r.run_us as f64 / 1e6), "s", n);
    report.metric("simnet.events", first.alloc.allocated as f64, "count", 1);
    report.metric(
        "simnet.events_per_req",
        per_req(first.alloc.allocated),
        "events/req",
        1,
    );
    report.metric(
        "simnet.ns_per_event",
        med(&|r| r.run_us as f64 * 1e3 / r.alloc.allocated.max(1) as f64),
        "ns",
        n,
    );
    report.metric(
        "simnet.peak_live_events",
        first.alloc.peak_live as f64,
        "count",
        1,
    );
    report.metric("simnet.recycled_pct", first.alloc.recycled_pct(), "%", 1);
    report.metric(
        "simnet.sim_end_s",
        raw.wall_duration.as_secs_f64(),
        "sim-s",
        1,
    );
    let (share, events) = peak_window(&first.windows);
    report.metric(
        "simnet.peak_window_share",
        share,
        "ratio",
        first.windows.len() as u64,
    );
    report.metric("simnet.peak_window_events", events as f64, "count", 1);
    report.metric("core.invalidations", raw.invalidations as f64, "count", 1);
    report.metric(
        "core.inval_retries",
        raw.invalidation_retries as f64,
        "count",
        1,
    );
    report.metric("core.acks", raw.acks as f64, "count", 1);
    report.metric(
        "core.inval_useful_ratio",
        first.inval_effective as f64 / first.inval_received.max(1) as f64,
        "ratio",
        1,
    );
    report.metric(
        "core.sitelist_entries",
        raw.sitelist.total_entries as f64,
        "count",
        1,
    );
    report.metric(
        "core.sitelist_max_len",
        raw.sitelist.max_list_len as f64,
        "count",
        1,
    );
    report.metric("core.state_bytes", first.state_bytes as f64, "bytes", 1);
    report.metric("cache.hit_ratio", raw.hit_ratio(), "ratio", 1);
    report.metric("cache.evictions", raw.cache_evictions as f64, "count", 1);

    report.attribution(
        &tracer.attribution(),
        first_wall_us as f64,
        plain_wall_us as f64,
    );

    let stem = format!("{}-seed{seed}", report.workload);
    report.write_spans(&tracer, &stem);
    let mut tsv = String::from("window_end_s\twall_us\tevents\n");
    for w in &first.windows {
        tsv.push_str(&format!(
            "{:.3}\t{}\t{}\n",
            w.end.as_secs_f64(),
            w.wall_us,
            w.events
        ));
    }
    report.write_file(&format!("{stem}.windows.tsv"), &tsv);
    report.note(&window_summary(&first.windows));
}

/// `(share of run wall time, events)` of the costliest window.
fn peak_window(windows: &[Window]) -> (f64, u64) {
    let total: u64 = windows.iter().map(|w| w.wall_us).sum();
    windows
        .iter()
        .max_by_key(|w| w.wall_us)
        .map_or((0.0, 0), |w| {
            (w.wall_us as f64 / total.max(1) as f64, w.events)
        })
}

fn window_summary(windows: &[Window]) -> String {
    let total_wall: u64 = windows.iter().map(|w| w.wall_us).sum();
    let total_events: u64 = windows.iter().map(|w| w.events).sum();
    match windows.iter().max_by_key(|w| w.wall_us) {
        Some(w) => format!(
            "window profile: {} windows of {} ms; costliest ends at {:.2} s: {} µs of {} µs, {} of {} events",
            windows.len(),
            WINDOW.as_micros() / 1_000,
            w.end.as_secs_f64(),
            w.wall_us,
            total_wall,
            w.events,
            total_events
        ),
        None => "window profile: empty".to_string(),
    }
}

/// The auditor pass: city-inval at `seed`, replayed with the audit-event
/// stream on; `Deployment::audit` must find no violation.
pub fn audit_pass(seed: u64, report: &mut Report) {
    let mut off = Tracer::off();
    let (_, dep) = replay(
        ProtocolKind::Invalidation,
        SCALE,
        seed,
        None,
        true,
        &mut off,
    );
    let clock = WallClock::start();
    let verdict = dep.audit();
    let check_us = clock.elapsed().as_micros();
    let violations = verdict.violations.len() as u64;
    report.attempt(
        0,
        violations,
        &if violations == 0 {
            Vec::new()
        } else {
            vec![format!("auditor: {verdict}")]
        },
    );
    report.note(&format!(
        "auditor pass (city-inval, seed {seed}): {verdict}"
    ));
    report.metric("audit.check_s", check_us as f64 / 1e6, "s", 1);
    report.metric("audit.events", verdict.events as f64, "count", 1);
    report.metric("audit.violations", violations as f64, "count", 1);
}
