//! Workload-shape, accounting and hygiene tests for the benchmark itself.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::span::Tracer;
use perfbench::{city, serve, END_TO_END, PER_LAYER};
use wcc_core::ProtocolKind;

const SEEDS: [u64; 2] = [1997, 7];

fn replay(kind: ProtocolKind, seed: u64) -> city::Replay {
    let mut off = Tracer::off();
    let (r, _dep) = city::replay(kind, city::SCALE, seed, None, false, &mut off);
    let (failed, problems) = city::check(kind, &r);
    assert_eq!(failed, 0, "{kind:?} seed {seed}: {problems:?}");
    r
}

#[test]
fn city_ttl_sends_no_invalidations_and_city_inval_dispatches_several_times_the_events() {
    for seed in SEEDS {
        let ttl = replay(ProtocolKind::AdaptiveTtl, seed);
        let inval = replay(ProtocolKind::Invalidation, seed);
        assert_eq!(ttl.raw.invalidations, 0, "seed {seed}");
        assert!(inval.raw.invalidations > 0, "seed {seed}");
        assert_eq!(
            ttl.raw.requests, inval.raw.requests,
            "seed {seed}: same workload"
        );
        let per_req = |r: &city::Replay| r.alloc.allocated as f64 / r.raw.requests as f64;
        assert!(
            per_req(&inval) >= 2.5 * per_req(&ttl),
            "seed {seed}: {:.1} vs {:.1} events per request",
            per_req(&inval),
            per_req(&ttl)
        );
    }
}

#[test]
fn windowed_replay_matches_the_one_shot_replay() {
    let mut off = Tracer::off();
    let kind = ProtocolKind::Invalidation;
    let (one, _) = city::replay(kind, 8, 1997, None, false, &mut off);
    let (stepped, _) = city::replay(kind, 8, 1997, Some(city::WINDOW), false, &mut off);
    assert_eq!(format!("{:?}", one.raw), format!("{:?}", stepped.raw));
    assert!(stepped.windows.len() > 10);
    let events: u64 = stepped.windows.iter().map(|w| w.events).sum();
    assert_eq!(events, stepped.alloc.allocated);
}

#[test]
fn serve_rw_completes_a_thousand_writes_with_a_partial_hit_ratio() {
    for seed in SEEDS {
        let out = serve::run(seed, 6, false, None).expect("serve-rw runs");
        assert_eq!(out.failed, 0, "seed {seed}: {out:?}");
        assert!(
            out.writes >= 1_000,
            "seed {seed}: only {} writes",
            out.writes
        );
        // One write per READS_PER_WRITE reads, however long writes take:
        // the two reads in flight when a write falls due may still land.
        let per_write = serve::READS_PER_WRITE;
        assert!(
            out.writes <= out.reads / per_write + 1 && out.writes >= out.reads / (per_write + 2),
            "seed {seed}: {} writes for {} reads",
            out.writes,
            out.reads
        );
        assert!(
            out.hit_ratio > 0.3 && out.hit_ratio < 0.9,
            "seed {seed}: hit ratio {}",
            out.hit_ratio
        );
    }
}

#[test]
fn traced_self_times_sum_to_the_wall_time() {
    let mut tracer = Tracer::on();
    let root = tracer.open("bench.city", 0);
    let (_, dep) = city::replay(ProtocolKind::AdaptiveTtl, 8, 1997, None, false, &mut tracer);
    tracer.span("httpsim.drop", 0, || drop(dep));
    tracer.close(root);
    let a = tracer.attribution();
    let layers: u64 = a.by_layer.iter().map(|(_, us)| us).sum();
    assert_eq!(layers + a.unattributed_us, a.wall_us);
    for layer in ["traces", "httpsim", "simnet"] {
        assert!(a.self_us(layer) > 0, "{layer} recorded no time");
    }
}

/// The benchmark's sources obey the repository lint the way
/// `crates/bench/src/serve.rs` does: wall time only through `WallClock`, no
/// sleeps, and no waivers.
#[test]
fn sources_pass_the_repository_lint_without_waivers() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("src is readable") {
        let path = entry.expect("dir entry").path();
        let source = std::fs::read_to_string(&path).expect("source is readable");
        assert!(
            !source.contains("xtask-lint: allow"),
            "{} has a waiver",
            path.display()
        );
        let name = path.file_name().expect("file name").to_string_lossy();
        files.push((format!("crates/bench/src/perfbench_{name}"), source));
    }
    files.sort();
    let findings = wcc_lint::scan_files(&files);
    assert!(findings.is_empty(), "{findings:#?}");
}

/// `BENCHMARK.json` lists exactly the metrics the binary prints, in order.
#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str, next: &str| {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = text[start..]
            .find(&format!("\"{next}\""))
            .map_or(text.len(), |e| start + e);
        text[start..end].to_string()
    };
    for (list, key, next) in [
        (END_TO_END, "end_to_end", "per_layer"),
        (PER_LAYER, "per_layer", "run_seconds"),
    ] {
        let body = section(key, next);
        let entries: Vec<(String, String)> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|e| {
                let name = e.split('"').next().expect("name").to_string();
                let unit = e
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit")
                    .to_string();
                (name, unit)
            })
            .collect();
        let want: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(entries, want, "{key}");
    }
}
