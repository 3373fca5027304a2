//! The webcache benchmark: three workloads, each measured end to end with
//! tracing off and layer by layer in a separate traced run. See
//! `perfbench/README.md` for what each workload and metric is for.

pub mod city;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;

use wcc_core::ProtocolKind;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["city-inval", "city-ttl", "serve-rw"];

/// End-to-end metrics (`--trace 0`), as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("msgs_per_req", "msg/req"),
    ("peak_rss_mib", "MiB"),
];

/// Layers whose self time the traced run reports.
pub const SELF_TIME_LAYERS: [&str; 6] = ["traces", "httpsim", "simnet", "net", "reactor", "proto"];

/// Per-layer metrics (`--trace 1`), as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traces.generate_s", "s"),
    ("httpsim.build_s", "s"),
    ("httpsim.collect_s", "s"),
    ("httpsim.upstream_per_req", "msg/req"),
    ("httpsim.ims_304_ratio", "ratio"),
    ("simnet.run_s", "s"),
    ("simnet.events", "count"),
    ("simnet.events_per_req", "events/req"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.peak_live_events", "count"),
    ("simnet.recycled_pct", "%"),
    ("simnet.sim_end_s", "sim-s"),
    ("simnet.peak_window_share", "ratio"),
    ("simnet.peak_window_events", "count"),
    ("core.invalidations", "count"),
    ("core.inval_retries", "count"),
    ("core.acks", "count"),
    ("core.inval_useful_ratio", "ratio"),
    ("core.sitelist_entries", "count"),
    ("core.sitelist_max_len", "count"),
    ("core.state_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("audit.check_s", "s"),
    ("audit.events", "count"),
    ("audit.violations", "count"),
    ("net.spawn_s", "s"),
    ("net.warmup_s", "s"),
    ("net.proxy_fetch_us", "us"),
    ("net.client_hop_us", "us"),
    ("net.origin_serve_us", "us"),
    ("net.upstream_per_read", "msg/read"),
    ("net.inval_per_write", "msg/write"),
    ("net.dropped_connections", "count"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.bytes_per_read", "B/read"),
    ("reactor.wait_share", "ratio"),
    ("reactor.wakeups_per_reply", "1/reply"),
    ("traces.self_s", "s"),
    ("httpsim.self_s", "s"),
    ("simnet.self_s", "s"),
    ("net.self_s", "s"),
    ("reactor.self_s", "s"),
    ("proto.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The protocol a city workload replays, by workload name.
pub fn city_protocol(workload: &str) -> Option<ProtocolKind> {
    match workload {
        "city-inval" => Some(ProtocolKind::Invalidation),
        "city-ttl" => Some(ProtocolKind::AdaptiveTtl),
        _ => None,
    }
}
