//! The TCP parent tier: the proxy runtime plus a child site list.
//!
//! Children connect to the parent exactly as proxies connect to an origin
//! (keep-alive `GET` connections plus a persistent `HELLO` push channel);
//! the parent in turn is a client of the real origin under one identity,
//! so the origin tracks a single site for the whole subtree. Everything
//! else — the reactor, the worker pool, pipeline-ordered replies, the
//! upstream channel and its re-registration, the fetch-through path and
//! the upstream invalidation handlers — is the proxy's runtime
//! ([`crate::proxy`]). What a parent adds lives here: a
//! [`ServerConsistency`] over its children that grants their leases,
//! takes their acks, and names the children each upstream invalidation is
//! relayed to.
//!
//! Concurrency note: the child site list sits under the proxy's tier lock,
//! which is held across the upstream round trip. That incidentally
//! *prevents* the invalidation-overtakes-reply race that the simulator's
//! parent must handle with a poison flag — an `INVALIDATE` is processed
//! either before an upstream fetch starts or after its result is cached
//! and granted, never between.
//!
//! Bulk `INVALIDATE <server>` messages (the §5 recovery barrage) are
//! relayed to every child channel and acked upstream, so a restarted
//! origin recovers through a hierarchy too.

use std::collections::HashMap;
use std::net::SocketAddr;
use wcc_cache::CacheStore;
use wcc_core::{ProtocolConfig, ServerConsistency};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{GetRequest, HttpMsg, Reply, ReplyStatus};
use wcc_types::{Body, ByteSize, ClientId, ServerId, SimTime, Url};

use crate::proxy::{listen, Counters, Running, Store, Tier};

/// The parent's identity upstream.
const IDENTITY: ClientId = ClientId::from_raw(0);

/// Storage scale factor of the bodies the parent sends its children.
const DOC_SCALE: u64 = 100;

/// Counters for the TCP parent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetParentCounters {
    /// Requests received from children.
    pub child_requests: u64,
    /// Of those, answered from the parent cache.
    pub parent_hits: u64,
    /// Requests forwarded to the origin.
    pub upstream_requests: u64,
    /// `INVALIDATE`s received from the origin (batched entries included:
    /// each entry of a coalesced round counts once here).
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds received from the origin.
    pub inval_batches_received: u64,
    /// `INVALIDATE`s relayed to children.
    pub invalidations_relayed: u64,
    /// Bulk `INVALIDATE <server>`s received from the origin (recovery).
    pub bulk_invalidations_received: u64,
    /// Child connections dropped (accept/registration failure, or an
    /// upstream fetch error forcing a close).
    pub dropped_connections: u64,
}

impl NetParentCounters {
    fn of(c: &Counters) -> NetParentCounters {
        let n = c.node;
        NetParentCounters {
            child_requests: n.requests,
            parent_hits: c.cache_serves,
            upstream_requests: n.gets_sent + n.ims_sent,
            invalidations_received: n.invalidations_received,
            inval_batches_received: n.inval_batches_received,
            invalidations_relayed: c.relayed,
            bulk_invalidations_received: n.bulk_invalidations_received,
            dropped_connections: n.dropped_connections,
        }
    }
}

/// Adds hits a downstream cache reported to the parent's own copy of
/// `url`, if it still holds one (§7 hit reporting).
fn credit_hits(cache: &mut CacheStore, url: Url, hits: u64) {
    let key = url.scoped(IDENTITY);
    if hits > 0 && cache.peek(key).is_some() {
        cache.add_unreported_hits(key, hits);
    }
}

/// The child site list a parent keeps under the tier lock.
pub(crate) struct Children {
    sites: ServerConsistency,
    /// Latest trace time observed on a child request; used as "now" for
    /// child-lease decisions when relaying invalidations (which carry no
    /// timestamp).
    latest: SimTime,
}

impl Children {
    pub(crate) fn new(cfg: &ProtocolConfig, server: ServerId) -> Children {
        Children {
            sites: ServerConsistency::new(cfg, server),
            latest: SimTime::ZERO,
        }
    }

    /// Answers one child `GET`: fetch through the parent cache under the
    /// parent's identity, then grant the child through the site list.
    pub(crate) fn answer(
        &mut self,
        tier: &Tier,
        store: &mut Store,
        get: &GetRequest,
    ) -> std::io::Result<HttpMsg> {
        self.latest = self.latest.max(get.issued_at);
        credit_hits(&mut store.cache, get.url, get.cache_hits);
        let meta = tier.fetch(store, IDENTITY, get.url, get.issued_at)?.meta;
        let grant = self
            .sites
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        let status = if grant.send_body {
            ReplyStatus::Ok(Body::synthetic(meta, DOC_SCALE))
        } else {
            ReplyStatus::NotModified
        };
        Ok(HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status,
            lease: grant.lease,
            piggyback: grant.piggyback,
            volume_lease: grant.volume_lease,
        }))
    }

    /// The server this parent answers for.
    pub(crate) fn server(&self) -> ServerId {
        self.sites.server()
    }

    /// The children whose copies of `url` an upstream invalidation must
    /// reach.
    pub(crate) fn on_modify(&mut self, url: Url) -> Vec<ClientId> {
        self.sites.on_modify(url, self.latest)
    }

    /// A child acked a relayed `INVALIDATE`, reporting its unreported hits.
    pub(crate) fn on_ack(&mut self, cache: &mut CacheStore, url: Url, child: ClientId, hits: u64) {
        credit_hits(cache, url, hits);
        self.sites.on_inval_ack(url, child);
    }

    /// Renders the parent's registry as Prometheus text exposition.
    pub(crate) fn render_metrics(&self, c: &Counters, cached: u64, latency: &Histogram) -> String {
        let node = [("node", "parent")];
        let p = NetParentCounters::of(c);
        let mut r = Registry::default();
        for (name, help, value) in [
            (
                "wcc_child_requests_total",
                "Requests received from children.",
                p.child_requests,
            ),
            (
                "wcc_hits_total",
                "Child requests answered from the parent cache.",
                p.parent_hits,
            ),
            (
                "wcc_misses_total",
                "Child requests that missed the parent cache.",
                p.child_requests - p.parent_hits,
            ),
            (
                "wcc_upstream_requests_total",
                "Requests forwarded to the origin.",
                p.upstream_requests,
            ),
            (
                "wcc_invalidations_total",
                "INVALIDATEs received from the origin.",
                p.invalidations_received,
            ),
            (
                "wcc_inval_batches_total",
                "Coalesced InvalidateBatch rounds received from the origin.",
                p.inval_batches_received,
            ),
            (
                "wcc_invalidations_relayed_total",
                "INVALIDATEs relayed to children.",
                p.invalidations_relayed,
            ),
            (
                "wcc_bulk_invalidations_total",
                "Bulk INVALIDATE <server> messages received (recovery).",
                p.bulk_invalidations_received,
            ),
            (
                "wcc_dropped_connections_total",
                "Child connections dropped by the serving tier.",
                p.dropped_connections,
            ),
        ] {
            r.set_counter(name, help, &node, value);
        }
        let stats = self.sites.table().stats();
        for (name, help, value) in [
            (
                "wcc_sitelist_entries",
                "Live child site-list entries (granted leases / registrations).",
                stats.total_entries,
            ),
            (
                "wcc_sitelist_tracked_documents",
                "Documents with a non-empty child site list.",
                stats.tracked_documents,
            ),
            (
                "wcc_cached_entries",
                "Entries currently in the parent cache.",
                cached,
            ),
        ] {
            r.set_gauge(name, help, &node, value);
        }
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time child GET service latency, upstream fetches included.",
            &node,
            latency,
        );
        r.render()
    }
}

/// A parent's reactor-local view of its children: the server it answers
/// for and the child push channels, keyed by the partition each child
/// declared in its `HELLO`. In a proxy, `served` is `None` and no channel
/// is ever registered.
pub(crate) struct Router {
    served: Option<ServerId>,
    channels: HashMap<u32, u64>,
    /// Partition count declared by the children's `HELLO`s.
    partitions: u32,
}

impl Router {
    pub(crate) fn new(served: Option<ServerId>) -> Router {
        Router {
            served,
            channels: HashMap::new(),
            partitions: 1,
        }
    }

    /// Whether this node is a parent (and so takes child traffic).
    pub(crate) fn is_parent(&self) -> bool {
        self.served.is_some()
    }

    /// Whether a downstream `GET` of `url` is answered here: a proxy
    /// answers any server's documents, a parent only its own server's.
    pub(crate) fn answers(&self, url: Url) -> bool {
        self.served.is_none_or(|s| s == url.server())
    }

    /// A child's `HELLO` turned connection `token` into its push channel
    /// (latest wins).
    pub(crate) fn register(&mut self, partition: u32, partitions: u32, token: u64) {
        self.partitions = partitions.max(1);
        self.channels.insert(partition, token);
    }

    /// Connection `token` closed.
    pub(crate) fn forget(&mut self, token: u64) {
        self.channels.retain(|_, t| *t != token);
    }

    /// Queues one `INVALIDATE` of `url` per child onto its partition's
    /// channel; children without a channel are skipped.
    pub(crate) fn relay(
        &self,
        url: Url,
        children: Vec<ClientId>,
        outbox: &mut Vec<(u64, HttpMsg)>,
    ) {
        for client in children {
            let partition = client.partition(self.partitions.max(1));
            if let Some(&tok) = self.channels.get(&partition) {
                outbox.push((tok, HttpMsg::Invalidate { url, client }));
            }
        }
    }

    /// Queues `msg` onto every child channel.
    pub(crate) fn broadcast(&self, msg: &HttpMsg, outbox: &mut Vec<(u64, HttpMsg)>) {
        outbox.extend(self.channels.values().map(|&tok| (tok, msg.clone())));
    }
}

/// A running TCP parent proxy. Shuts down on drop.
pub struct NetParent {
    addr: SocketAddr,
    node: Running,
}

impl std::fmt::Debug for NetParent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetParent")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetParent {
    /// Spawns a parent tier in front of `origin`. Children should point
    /// their [`NetProxy::spawn`](crate::NetProxy::spawn) at
    /// [`NetParent::addr`].
    ///
    /// # Errors
    ///
    /// Returns socket errors from binding or the upstream registration.
    pub fn spawn(
        origin: SocketAddr,
        cfg: &ProtocolConfig,
        server: ServerId,
        capacity: ByteSize,
    ) -> std::io::Result<NetParent> {
        let (listener, addr) = listen()?;
        let tier = Tier::new(origin, (0, 1), cfg, capacity, Some(server));
        Ok(NetParent {
            addr,
            node: Running::start(tier, listener, None)?,
        })
    }

    /// The address children connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn counters(&self) -> NetParentCounters {
        NetParentCounters::of(&self.node.tier.counters.lock())
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetParent::addr`] returns.
    pub fn metrics_text(&self) -> String {
        self.node.tier.render_metrics()
    }
}
