//! The hierarchy over real sockets: origin ← parent ← two children.

use std::time::{Duration, Instant};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{
    check_in, FetchKind, NetOrigin, NetParent, NetProxy, NetProxyCounters, OriginConfig,
};
use wcc_types::{ByteSize, ClientId, InvalBatchConfig, ServerId, SimTime, Url};

fn url(doc: u32) -> Url {
    Url::new(ServerId::new(0), doc)
}

fn origin_config(inval_batch: Option<InvalBatchConfig>) -> OriginConfig {
    OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 16],
        protocol: ProtocolConfig::new(ProtocolKind::Invalidation),
        doc_scale: 100,
        inval_batch,
    }
}

fn start() -> (NetOrigin, NetParent, NetProxy, NetProxy) {
    start_with(None)
}

fn start_with(inval_batch: Option<InvalBatchConfig>) -> (NetOrigin, NetParent, NetProxy, NetProxy) {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(origin_config(inval_batch)).expect("origin");
    let parent = NetParent::spawn(
        origin.addr(),
        &cfg,
        ServerId::new(0),
        ByteSize::from_mib(64),
    )
    .expect("parent");
    std::thread::sleep(Duration::from_millis(50));
    // Children connect to the PARENT, not the origin.
    let a = NetProxy::spawn(parent.addr(), &cfg, 0, 2, ByteSize::from_mib(32)).expect("child a");
    let b = NetProxy::spawn(parent.addr(), &cfg, 1, 2, ByteSize::from_mib(32)).expect("child b");
    std::thread::sleep(Duration::from_millis(50));
    (origin, parent, a, b)
}

#[test]
fn second_child_hits_the_parent_cache() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0); // partition 0
    let bob = ClientId::from_raw(1); // partition 1

    let first = a.fetch(alice, url(3), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);
    let second = b.fetch(bob, url(3), SimTime::from_secs(2)).unwrap();
    assert_eq!(second.kind, FetchKind::Fetched, "transfer from the parent");

    let pc = parent.counters();
    assert_eq!(pc.child_requests, 2);
    assert_eq!(pc.upstream_requests, 1, "one compulsory origin miss");
    assert_eq!(pc.parent_hits, 1);
    // The origin saw exactly one site: the parent.
    let snap = origin.snapshot();
    assert_eq!(snap.gets, 1);
    assert_eq!(snap.sitelist.max_list_len, 1);
}

#[test]
fn invalidation_cascades_down_the_tree() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);

    a.fetch(alice, url(5), SimTime::from_secs(1)).unwrap();
    b.fetch(bob, url(5), SimTime::from_secs(2)).unwrap();
    // Both children now serve from cache.
    assert_eq!(
        a.fetch(alice, url(5), SimTime::from_secs(3)).unwrap().kind,
        FetchKind::CacheHit
    );

    check_in(origin.addr(), url(5), SimTime::from_secs(60)).unwrap();
    // Wait for the full cascade: origin → parent → children → acks.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while (a.counters().invalidations_received == 0 || b.counters().invalidations_received == 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    assert_eq!(origin.snapshot().invalidations, 1, "origin pushed once");
    let pc = parent.counters();
    assert_eq!(pc.invalidations_received, 1);
    assert_eq!(pc.invalidations_relayed, 2, "both children held copies");

    // Strong consistency end-to-end: both children fetch the new version.
    for (proxy, client) in [(&a, alice), (&b, bob)] {
        let out = proxy.fetch(client, url(5), SimTime::from_secs(61)).unwrap();
        assert_eq!(out.kind, FetchKind::Fetched);
        assert_eq!(out.meta.last_modified(), SimTime::from_secs(60));
    }
}

#[test]
fn child_validator_is_answered_by_the_parent() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);

    a.fetch(alice, url(7), SimTime::from_secs(1)).unwrap();
    b.fetch(bob, url(7), SimTime::from_secs(2)).unwrap();
    let before = origin.snapshot();
    // Bob's proxy already holds a copy; force a revalidation by asking
    // through a *polling* child… instead, simply fetch again: under
    // invalidation it is a local hit, so drive the parent path via a new
    // client on the same partition whose copy does not exist yet.
    let carol = ClientId::from_raw(3); // partition 1 → proxy b
    let out = b.fetch(carol, url(7), SimTime::from_secs(3)).unwrap();
    assert_eq!(out.kind, FetchKind::Fetched, "carol's compulsory miss");
    let after = origin.snapshot();
    assert_eq!(
        before.gets + before.ims,
        after.gets + after.ims,
        "carol was served by the parent, not the origin"
    );
    assert!(parent.counters().parent_hits >= 2);
}

/// Polls until `done` holds for both children or five seconds pass.
fn wait_children(a: &NetProxy, b: &NetProxy, done: impl Fn(NetProxyCounters) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(done(a.counters()) && done(b.counters())) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn origin_restart_recovers_through_the_parent() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);
    a.fetch(alice, url(4), SimTime::from_secs(1)).unwrap();
    b.fetch(bob, url(4), SimTime::from_secs(2)).unwrap();

    // Crash the origin and restart it on the same port in recovery mode:
    // the parent's channel drops, it re-registers, and the restarted
    // origin's bulk INVALIDATE <server> must reach both children.
    let addr = origin.addr();
    drop(origin);
    let origin = NetOrigin::spawn_at(addr, origin_config(None), true).expect("origin restart");
    wait_children(&a, &b, |c| c.bulk_invalidations_received > 0);
    assert_eq!(a.counters().bulk_invalidations_received, 1);
    assert_eq!(b.counters().bulk_invalidations_received, 1);
    assert_eq!(parent.counters().bulk_invalidations_received, 1);
    assert!(
        origin.wait_recovery_complete(Duration::from_secs(10)),
        "restart recovery did not complete through the parent"
    );

    // A write after recovery: both children fetch the new version.
    check_in(addr, url(4), SimTime::from_secs(50)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    for (proxy, client) in [(&a, alice), (&b, bob)] {
        let out = proxy.fetch(client, url(4), SimTime::from_secs(51)).unwrap();
        assert_eq!(out.meta.last_modified(), SimTime::from_secs(50));
    }
}

#[test]
fn batched_round_fans_out_through_the_parent() {
    let (origin, parent, a, b) = start_with(Some(InvalBatchConfig::with_max_entries(2)));
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);
    for doc in [8, 9] {
        a.fetch(alice, url(doc), SimTime::from_secs(1)).unwrap();
        b.fetch(bob, url(doc), SimTime::from_secs(2)).unwrap();
    }

    // The origin's site lists hold only the parent, so two writes queue
    // two entries: exactly the count threshold, one round to the parent,
    // which relays one INVALIDATE per document to each child.
    check_in(origin.addr(), url(8), SimTime::from_secs(60)).unwrap();
    check_in(origin.addr(), url(9), SimTime::from_secs(61)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    let pc = parent.counters();
    assert_eq!(pc.inval_batches_received, 1);
    assert_eq!(pc.invalidations_received, 2);
    assert_eq!(pc.invalidations_relayed, 4);

    wait_children(&a, &b, |c| c.invalidations_received >= 2);
    for (proxy, client) in [(&a, alice), (&b, bob)] {
        for (doc, at) in [(8, 60), (9, 61)] {
            let out = proxy
                .fetch(client, url(doc), SimTime::from_secs(70))
                .unwrap();
            assert_eq!(out.kind, FetchKind::Fetched);
            assert_eq!(out.meta.last_modified(), SimTime::from_secs(at));
        }
    }
}

#[test]
fn documents_larger_than_the_cache_are_served_uncached() {
    // Every document is 8 KiB; these caches hold 4 KiB, so no copy is
    // ever stored and each fetch is a fresh transfer.
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let tiny = ByteSize::from_kib(4);
    let origin = NetOrigin::spawn(origin_config(None)).expect("origin");
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, tiny).expect("proxy");
    let parent = NetParent::spawn(origin.addr(), &cfg, ServerId::new(0), tiny).expect("parent");
    let child = NetProxy::spawn(parent.addr(), &cfg, 0, 1, tiny).expect("child");
    let alice = ClientId::from_raw(0);

    for node in [&proxy, &child] {
        for at in [1, 2] {
            let out = node.fetch(alice, url(6), SimTime::from_secs(at)).unwrap();
            assert_eq!(out.kind, FetchKind::Fetched);
            assert!(!out.had_entry);
            assert_eq!(out.meta.size(), ByteSize::from_kib(8));
        }
        assert_eq!(node.cached_entries(), 0);
    }
    let pc = parent.counters();
    assert_eq!(pc.child_requests, 2);
    assert_eq!(pc.parent_hits, 0);
    assert_eq!(pc.upstream_requests, 2, "the parent cached nothing either");
}
