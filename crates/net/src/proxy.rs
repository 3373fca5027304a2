//! The TCP caching tier, served by a readiness reactor: the proxy, and the
//! runtime the parent ([`crate::NetParent`]) is built on.
//!
//! One reactor thread owns every socket a caching node touches: the
//! downstream listener ([`NetProxy::client_addr`]) speaking keep-alive
//! HTTP/1.1 with pipelining, the proxy's `/metrics` scrape listener, and
//! the persistent invalidation channel upstream (re-established with a
//! fresh `HELLO` on a 250 ms tick if the upstream restarts — the proxy half
//! of the §5 recovery handshake).
//!
//! Protocol work stays off the reactor: downstream `GET`s become jobs for a
//! small worker pool whose members run the same locked fetch path as the
//! blocking [`NetProxy::fetch`] API — the policy lock is held across the
//! upstream round trip, which serialises cache transitions against
//! invalidations exactly like the thread-per-connection prototype did, so
//! the strong-consistency guarantee is unchanged. Replies re-enter the
//! reactor through a completion queue + waker and are delivered in
//! pipeline order per connection. Upstream round trips reuse a bounded
//! pool of keep-alive connections ([`wcc_reactor::BoundedPool`]) instead
//! of dialing per request.
//!
//! A parent runs this same runtime with a child site list under the policy
//! lock (`crate::parent`): it answers child `GET`s through that list,
//! accepts the children's `HELLO`s and acks, and relays every upstream
//! invalidation to the children it names.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{ProtocolConfig, ProxyAction, ProxyPolicy};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{
    encode, BatchAckEntry, BatchEntry, GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus,
    RequestId,
};
use wcc_reactor::{BoundedPool, Interest, Poller, SendBuf, WakeHandle, Waker};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url, WallClock};

use crate::evloop::{accept_all, drive, After, Conns, TOK_LISTENER, TOK_LISTENER2, TOK_WAKER};
use crate::parent::{Children, Router};
use crate::upstream::{pooled_roundtrip, UpstreamConn};

/// How a [`NetProxy::fetch`] was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Served straight from the cache, no origin contact.
    CacheHit,
    /// Validated with `If-Modified-Since`; origin said `304`.
    Validated,
    /// Transferred from the origin (`200`).
    Fetched,
}

/// The result of one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// How the request was satisfied.
    pub kind: FetchKind,
    /// Whether a cached entry existed when the request arrived.
    pub had_entry: bool,
    /// Metadata of the delivered version.
    pub meta: DocMeta,
}

/// Counters maintained by the proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetProxyCounters {
    /// Fetches served.
    pub requests: u64,
    /// Fetches that found a cached entry.
    pub hits: u64,
    /// Plain `GET`s sent upstream.
    pub gets_sent: u64,
    /// `If-Modified-Since` requests sent upstream.
    pub ims_sent: u64,
    /// `200` replies received.
    pub replies_200: u64,
    /// `304` replies received.
    pub replies_304: u64,
    /// `INVALIDATE`s received on the push channel (batched entries
    /// included: each entry of a coalesced round counts once here).
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds received on the push channel.
    pub inval_batches_received: u64,
    /// Bulk `INVALIDATE <server>`s received.
    pub bulk_invalidations_received: u64,
    /// Piggybacked invalidations received (PSI).
    pub piggybacked_received: u64,
    /// Client connections dropped (accept/registration failure, or a
    /// fetch error forcing a close).
    pub dropped_connections: u64,
}

/// Counters of one caching node; a parent reports them under its own
/// names ([`crate::NetParentCounters`]).
#[derive(Clone, Copy, Default)]
pub(crate) struct Counters {
    pub node: NetProxyCounters,
    /// Requests answered straight from the cache.
    pub cache_serves: u64,
    /// `INVALIDATE`s delivered to a live child channel (parent only).
    pub relayed: u64,
}

/// The proxy half of the tier lock: policy, cache and request ids.
pub(crate) struct Store {
    pub policy: ProxyPolicy,
    pub cache: CacheStore,
    next_req: RequestId,
}

/// Everything the one tier lock protects. A parent's child site list
/// lives here too, so an invalidation can never slip between an upstream
/// fetch and the child grant that follows it.
pub(crate) struct Locked {
    pub store: Store,
    pub children: Option<Children>,
}

/// A caching node's shared state.
pub(crate) struct Tier {
    origin: SocketAddr,
    /// The `(partition, partitions)` this node's `HELLO` declares upstream.
    hello: (u32, u32),
    pub locked: Mutex<Locked>,
    pub counters: Mutex<Counters>,
    /// Wall-time latency of whole fetches (hits included), blocking API
    /// and reactor-served requests alike.
    pub latency: Mutex<Histogram>,
    /// Bounded keep-alive pool for the upward hop.
    upstream: Mutex<BoundedPool<UpstreamConn>>,
    /// Downstream jobs handed to the workers but not yet answered.
    outstanding: AtomicU32,
    shutdown: AtomicBool,
}

impl Tier {
    pub(crate) fn new(
        origin: SocketAddr,
        hello: (u32, u32),
        cfg: &ProtocolConfig,
        capacity: ByteSize,
        parent_of: Option<ServerId>,
    ) -> Tier {
        Tier {
            origin,
            hello,
            locked: Mutex::new(Locked {
                store: Store {
                    policy: ProxyPolicy::new(cfg),
                    cache: CacheStore::new(capacity, ReplacementPolicy::ExpiredFirstLru),
                    next_req: RequestId::default(),
                },
                children: parent_of.map(|server| Children::new(cfg, server)),
            }),
            counters: Mutex::new(Counters::default()),
            latency: Mutex::new(Histogram::default()),
            upstream: Mutex::new(BoundedPool::new(WORKERS + 2)),
            outstanding: AtomicU32::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Renders the node's registry as Prometheus text exposition.
    pub(crate) fn render_metrics(&self) -> String {
        let c = *self.counters.lock();
        let l = self.locked.lock();
        let cached = l.store.cache.len() as u64;
        if let Some(children) = &l.children {
            return children.render_metrics(&c, cached, &self.latency.lock());
        }
        drop(l);
        let node = [("node", "proxy")];
        let n = c.node;
        let mut r = Registry::default();
        for (name, help, value) in [
            ("wcc_requests_total", "Fetches served.", n.requests),
            (
                "wcc_hits_total",
                "Fetches that found a cached entry.",
                n.hits,
            ),
            (
                "wcc_misses_total",
                "Fetches that found no cached entry.",
                n.requests - n.hits,
            ),
            (
                "wcc_gets_sent_total",
                "Plain GETs sent upstream.",
                n.gets_sent,
            ),
            (
                "wcc_ims_sent_total",
                "If-Modified-Since requests sent upstream.",
                n.ims_sent,
            ),
            (
                "wcc_replies_200_total",
                "200 replies received.",
                n.replies_200,
            ),
            (
                "wcc_replies_304_total",
                "304 replies received.",
                n.replies_304,
            ),
            (
                "wcc_invalidations_total",
                "INVALIDATEs received on the push channel.",
                n.invalidations_received,
            ),
            (
                "wcc_inval_batches_total",
                "Coalesced InvalidateBatch rounds received on the push channel.",
                n.inval_batches_received,
            ),
            (
                "wcc_bulk_invalidations_total",
                "Bulk INVALIDATE <server> messages received.",
                n.bulk_invalidations_received,
            ),
            (
                "wcc_piggybacked_total",
                "Piggybacked invalidations received (PSI).",
                n.piggybacked_received,
            ),
            (
                "wcc_dropped_connections_total",
                "Client connections dropped by the serving tier.",
                n.dropped_connections,
            ),
        ] {
            r.set_counter(name, help, &node, value);
        }
        r.set_gauge(
            "wcc_cached_entries",
            "Entries currently cached.",
            &node,
            cached,
        );
        r.set_histogram(
            "wcc_fetch_latency_seconds",
            "Wall-time fetch latency, cache hits included.",
            &node,
            &self.latency.lock(),
        );
        r.render()
    }

    /// The fetch-through path for `client`'s copy of `url`: policy
    /// decision, optional upstream round trip over the bounded pool, and
    /// cache transitions, all under the caller's tier lock, so
    /// invalidations can never interleave with an in-flight fetch.
    pub(crate) fn fetch(
        &self,
        s: &mut Store,
        client: ClientId,
        url: Url,
        now: SimTime,
    ) -> std::io::Result<FetchOutcome> {
        let key = url.scoped(client);
        let disposition = s.policy.on_request(key, now, &mut s.cache);
        let had_entry = disposition.had_entry;
        let hit = disposition.action == ProxyAction::ServeFromCache;
        {
            let mut c = self.counters.lock();
            c.node.requests += 1;
            c.node.hits += u64::from(had_entry);
            c.cache_serves += u64::from(hit);
        }
        let outcome = |kind, meta| FetchOutcome {
            kind,
            had_entry,
            meta,
        };
        // A hit or a validation serves the cached copy; a 200 serves the
        // reply's version, which a cache too small for it never stores.
        let cached = |cache: &CacheStore| cache.peek(key).expect("served entry is cached").meta;
        let ProxyAction::SendGet { mut ims } = disposition.action else {
            return Ok(outcome(FetchKind::CacheHit, cached(&s.cache)));
        };
        let mut report_hits = disposition.report_hits;

        // Up to one retry for the 304-races-eviction corner.
        for _attempt in 0..2 {
            let req = s.next_req;
            s.next_req = req.next();
            {
                let mut c = self.counters.lock();
                if ims.is_some() {
                    c.node.ims_sent += 1;
                } else {
                    c.node.gets_sent += 1;
                }
            }
            let get = HttpMsg::Get(GetRequest {
                req,
                url,
                client,
                ims,
                issued_at: now,
                cache_hits: report_hits,
            });
            let reply = pooled_roundtrip(&self.upstream, self.origin, &encode(&get))?;
            s.policy.on_volume_grant(key, reply.volume_lease);
            if !reply.piggyback.is_empty() {
                s.policy
                    .on_piggyback(&reply.piggyback, client, &mut s.cache);
                self.counters.lock().node.piggybacked_received += reply.piggyback.len() as u64;
            }
            if let Some(meta) = reply.meta {
                self.counters.lock().node.replies_200 += 1;
                s.policy
                    .on_reply_200(key, meta, reply.lease, now, &mut s.cache);
                return Ok(outcome(FetchKind::Fetched, meta));
            }
            if s.policy.on_reply_304(key, reply.lease, now, &mut s.cache) {
                self.counters.lock().node.replies_304 += 1;
                return Ok(outcome(FetchKind::Validated, cached(&s.cache)));
            }
            // Entry evicted mid-validation: retry as a plain GET. The hits
            // already rode the first request.
            ims = None;
            report_hits = 0;
        }
        Err(std::io::Error::other("revalidation race did not resolve"))
    }

    /// Answers one downstream `GET` (a worker job): a proxy fetches for the
    /// requesting client, a parent answers through its child site list.
    fn answer(&self, get: &GetRequest) -> std::io::Result<HttpMsg> {
        let mut guard = self.locked.lock();
        let Locked { store, children } = &mut *guard;
        if let Some(children) = children {
            return children.answer(self, store, get);
        }
        let out = self.fetch(store, get.client, get.url, get.issued_at)?;
        Ok(HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            // Client-facing bodies are unscaled: the wire carries the
            // real (accounted) size, not the storage-scaled payload.
            status: ReplyStatus::Ok(Body::synthetic(out.meta, 1)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        }))
    }

    /// Drops each listed copy under one tier lock and returns the
    /// per-entry §7 hit reports for the ack. A parent also queues one
    /// `INVALIDATE` per child its site list names: children ack per
    /// document, so a batched round fans out downstream as singles.
    fn invalidate(&self, r: &mut ReactorLocal, entries: &[BatchEntry]) -> Vec<BatchAckEntry> {
        let mut acks = Vec::with_capacity(entries.len());
        let mut relays = Vec::new();
        {
            let mut guard = self.locked.lock();
            let Locked { store, children } = &mut *guard;
            for e in entries {
                let hits = store
                    .policy
                    .on_invalidate(e.url, e.client, &mut store.cache);
                acks.push(BatchAckEntry {
                    url: e.url,
                    client: e.client,
                    cache_hits: hits.unwrap_or(0),
                });
                if let Some(children) = children {
                    relays.push((e.url, children.on_modify(e.url)));
                }
            }
        }
        for (url, to) in relays {
            r.children.relay(url, to, &mut r.outbox);
        }
        self.counters.lock().node.invalidations_received += entries.len() as u64;
        acks
    }

    /// Handles one frame on the upstream invalidation channel `token`:
    /// drop the named copies under the tier lock, (in a parent) queue the
    /// relays to the children the site list names, and queue the ack
    /// upstream. Acks go out after the relays and after they are counted.
    fn upstream_frame(&self, r: &mut ReactorLocal, token: u64, msg: &HttpMsgRef<'_>) -> After {
        let ack = match msg {
            HttpMsgRef::Invalidate { url, client } => {
                let entry = BatchEntry {
                    url: *url,
                    client: *client,
                };
                let hits = self.invalidate(r, &[entry])[0].cache_hits;
                HttpMsg::InvalAck {
                    url: *url,
                    client: *client,
                    cache_hits: hits,
                }
            }
            HttpMsgRef::InvalidateBatch(batch) => {
                // One coalesced proposer round, acked in one message.
                let entries = self.invalidate(r, &batch.entries());
                self.counters.lock().node.inval_batches_received += 1;
                HttpMsg::InvalidateBatchAck {
                    server: batch.server,
                    entries,
                }
            }
            HttpMsgRef::InvalidateServer { server } => {
                {
                    let mut guard = self.locked.lock();
                    let Store { policy, cache, .. } = &mut guard.store;
                    policy.on_invalidate_server(*server, cache);
                }
                self.counters.lock().node.bulk_invalidations_received += 1;
                let bulk = HttpMsg::InvalidateServer { server: *server };
                r.children.broadcast(&bulk, &mut r.outbox);
                HttpMsg::InvalidateServerAck { server: *server }
            }
            HttpMsgRef::Get(_)
            | HttpMsgRef::Reply(_)
            | HttpMsgRef::InvalAck { .. }
            | HttpMsgRef::InvalidateBatchAck(_)
            | HttpMsgRef::InvalidateServerAck { .. }
            | HttpMsgRef::Hello { .. }
            | HttpMsgRef::MetricsGet
            | HttpMsgRef::Notify { .. } => return After::Close,
        };
        r.acks.push((token, ack));
        After::Keep
    }

    /// Handles one frame from a downstream connection: a browser, a child
    /// (parent only) or a one-shot scrape.
    fn downstream_frame(
        &self,
        r: &mut ReactorLocal,
        token: u64,
        msg: &HttpMsgRef<'_>,
        sbuf: &mut SendBuf,
        tag: &mut Tag,
    ) -> After {
        let serving = tag.kind == Kind::Downstream;
        let child = serving && r.children.is_parent();
        match msg {
            HttpMsgRef::Get(get) if serving && r.children.answers(get.url) => {
                let seq = tag.next_assign;
                tag.next_assign += 1;
                self.outstanding.fetch_add(1, Ordering::SeqCst);
                r.jobs.send(Job {
                    token,
                    seq,
                    get: get.clone(),
                });
                After::Keep
            }
            HttpMsgRef::MetricsGet => {
                sbuf.push_bytes(&crate::scrape::metrics_response(&self.render_metrics()));
                After::CloseAfterFlush
            }
            HttpMsgRef::Hello {
                partition,
                partitions,
            } if child => {
                r.children.register(*partition, *partitions, token);
                After::Keep
            }
            HttpMsgRef::InvalAck {
                url,
                client,
                cache_hits,
            } if child => {
                let mut guard = self.locked.lock();
                let Locked { store, children } = &mut *guard;
                if let Some(children) = children {
                    children.on_ack(&mut store.cache, *url, *client, *cache_hits);
                }
                After::Keep
            }
            // A child acking a relayed bulk invalidation.
            HttpMsgRef::InvalidateServerAck { .. } if child => After::Keep,
            // Guard fallthrough (a scrape connection, a proxy's browser
            // sending child traffic, a foreign server's document) and
            // messages that only ever flow downstream.
            HttpMsgRef::Get(_)
            | HttpMsgRef::Hello { .. }
            | HttpMsgRef::InvalAck { .. }
            | HttpMsgRef::InvalidateServerAck { .. }
            | HttpMsgRef::Reply(_)
            | HttpMsgRef::Invalidate { .. }
            | HttpMsgRef::InvalidateBatch(_)
            | HttpMsgRef::InvalidateBatchAck(_)
            | HttpMsgRef::InvalidateServer { .. }
            | HttpMsgRef::Notify { .. } => After::Close,
        }
    }
}

/// Opens the persistent invalidation channel upstream and registers it
/// with `HELLO` (§5: a restarted origin answers with a bulk
/// `INVALIDATE <server>`).
fn register(origin: SocketAddr, (partition, partitions): (u32, u32)) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(origin)?;
    let _ = stream.set_nodelay(true);
    (&stream).write_all(&encode(&HttpMsg::Hello {
        partition,
        partitions,
    }))?;
    Ok(stream)
}

/// Binds a non-blocking loopback listener on an ephemeral port.
pub(crate) fn listen() -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// A downstream `GET` parked in the worker pool.
struct Job {
    token: u64,
    seq: u64,
    get: GetRequest,
}

/// A finished job re-entering the reactor. `None` means the fetch failed
/// and the connection should close.
struct Done {
    token: u64,
    seq: u64,
    msg: Option<HttpMsg>,
}

fn worker_loop(tier: &Tier, jobs: &Receiver<Job>, done: &Sender<Done>, wake: &WakeHandle) {
    while let Ok(job) = jobs.recv() {
        let clock = WallClock::start();
        let msg = tier.answer(&job.get).ok();
        // Record before the reply ships: once the requester's fetch
        // returns, a scrape must already see this serve.
        tier.latency.lock().record(clock.elapsed().as_micros());
        if done
            .send(Done {
                token: job.token,
                seq: job.seq,
                msg,
            })
            .is_err()
        {
            break;
        }
        wake.wake();
    }
}

/// Round-robin job dealer over the per-worker inboxes.
struct JobDealer {
    lanes: Vec<Sender<Job>>,
    next: usize,
}

impl JobDealer {
    fn send(&mut self, job: Job) {
        let lane = self.next % self.lanes.len();
        self.next = self.next.wrapping_add(1);
        let _ = self.lanes[lane].send(job);
    }
}

/// Worker threads answering downstream `GET`s. Everything serialises on
/// the tier lock anyway; two workers let encode/decode overlap one
/// upstream round trip.
const WORKERS: usize = 2;

/// A running caching node: its reactor and workers, stopped on drop.
pub(crate) struct Running {
    pub tier: Arc<Tier>,
    wake: WakeHandle,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Running {
    /// Registers the invalidation channel upstream, then serves
    /// `listener` (and the scrape-only `metrics` listener, if any).
    /// The channel is established synchronously so a spawn fails fast if
    /// the upstream is unreachable; the reactor re-establishes it if it
    /// drops.
    pub(crate) fn start(
        tier: Tier,
        listener: TcpListener,
        metrics: Option<TcpListener>,
    ) -> std::io::Result<Running> {
        let channel = register(tier.origin, tier.hello)?;
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
        if let Some(metrics) = &metrics {
            poller.add(metrics.as_raw_fd(), TOK_LISTENER2, Interest::READ)?;
        }
        let waker = Waker::new()?;
        waker.register(&mut poller, TOK_WAKER)?;
        let wake = waker.handle()?;

        // The reactor keeps its own copy of the served server to guard
        // child traffic without taking the tier lock.
        let served = tier.locked.lock().children.as_ref().map(Children::server);

        // The vendored channel is single-consumer, so each worker gets
        // its own inbox and the reactor deals jobs round-robin; per-
        // connection sequence numbers restore pipeline order on the way
        // back regardless of which worker finishes first.
        let tier = Arc::new(tier);
        let (done_tx, done) = unbounded::<Done>();
        let mut lanes = Vec::with_capacity(WORKERS);
        let mut workers = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let (tx, rx) = unbounded::<Job>();
            lanes.push(tx);
            let tier = Arc::clone(&tier);
            let done = done_tx.clone();
            let wake = waker.handle()?;
            workers.push(std::thread::spawn(move || {
                worker_loop(&tier, &rx, &done, &wake);
            }));
        }

        let reactor = Reactor {
            tier: Arc::clone(&tier),
            listener,
            metrics,
            poller,
            waker,
            channel,
            local: ReactorLocal {
                jobs: JobDealer { lanes, next: 0 },
                children: Router::new(served),
                outbox: Vec::with_capacity(64),
                acks: Vec::with_capacity(16),
            },
            done,
        };
        Ok(Running {
            tier,
            wake,
            reactor: Some(std::thread::spawn(move || reactor_loop(reactor))),
            workers,
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.tier.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// A running caching proxy. Shuts down its reactor and workers on drop.
pub struct NetProxy {
    origin: SocketAddr,
    metrics_addr: SocketAddr,
    client_addr: SocketAddr,
    node: Running,
}

impl std::fmt::Debug for NetProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProxy")
            .field("origin", &self.origin)
            .field("client_addr", &self.client_addr)
            .finish()
    }
}

impl NetProxy {
    /// Connects to `origin`, registers the invalidation push channel for
    /// `partition` of `partitions`, and returns the running proxy.
    ///
    /// # Errors
    ///
    /// Returns any socket error from the registration handshake.
    pub fn spawn(
        origin: SocketAddr,
        cfg: &ProtocolConfig,
        partition: u32,
        partitions: u32,
        capacity: ByteSize,
    ) -> std::io::Result<NetProxy> {
        // Client-facing keep-alive listener (the serving tier's front
        // door) and the metrics scrape listener.
        let (client_listener, client_addr) = listen()?;
        let (metrics_listener, metrics_addr) = listen()?;
        let tier = Tier::new(origin, (partition, partitions), cfg, capacity, None);
        Ok(NetProxy {
            origin,
            metrics_addr,
            client_addr,
            node: Running::start(tier, client_listener, Some(metrics_listener))?,
        })
    }

    /// Current counters.
    pub fn counters(&self) -> NetProxyCounters {
        self.node.tier.counters.lock().node
    }

    /// The loopback address answering `GET /metrics` for this proxy.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The keep-alive listener browsers (and the stress bench) connect
    /// to: `GET`s are answered with `200` replies, pipelining preserved.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetProxy::metrics_addr`] returns.
    pub fn metrics_text(&self) -> String {
        self.node.tier.render_metrics()
    }

    /// Serves one browser request for `url` on behalf of `client`, at
    /// logical time `now`.
    ///
    /// # Errors
    ///
    /// Returns socket errors from the upstream fetch; cache hits are
    /// infallible.
    pub fn fetch(&self, client: ClientId, url: Url, now: SimTime) -> std::io::Result<FetchOutcome> {
        let tier = &self.node.tier;
        let clock = WallClock::start();
        let outcome = tier.fetch(&mut tier.locked.lock().store, client, url, now);
        tier.latency.lock().record(clock.elapsed().as_micros());
        outcome
    }

    /// Number of entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.node.tier.locked.lock().store.cache.len()
    }
}

/// What a caching node's connection is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Browser, bench or child connection on the main listener.
    Downstream,
    /// One-shot `/metrics` scrape on the proxy's metrics listener.
    Scrape,
    /// The persistent invalidation channel upstream.
    Upstream,
}

/// Per-connection tag: kind plus the pipeline-ordering state (sequence
/// numbers assigned at decode; replies delivered strictly in order even
/// when workers finish out of order).
struct Tag {
    kind: Kind,
    next_assign: u64,
    next_send: u64,
    parked: Vec<(u64, Option<HttpMsg>)>,
}

impl Tag {
    fn new(kind: Kind) -> Tag {
        Tag {
            kind,
            next_assign: 0,
            next_send: 0,
            parked: Vec::new(),
        }
    }
}

/// The reactor thread's inputs.
struct Reactor {
    tier: Arc<Tier>,
    listener: TcpListener,
    metrics: Option<TcpListener>,
    poller: Poller,
    waker: Waker,
    channel: TcpStream,
    local: ReactorLocal,
    done: Receiver<Done>,
}

/// Reactor-local state the dispatchers write to.
struct ReactorLocal {
    jobs: JobDealer,
    /// A parent's served server and child push channels.
    children: Router,
    /// Relays queued for child channels, delivered after each pass.
    outbox: Vec<(u64, HttpMsg)>,
    /// Acks queued for the upstream channel, delivered after the relays.
    acks: Vec<(u64, HttpMsg)>,
}

fn reactor_loop(reactor: Reactor) {
    let Reactor {
        tier,
        listener,
        metrics,
        mut poller,
        waker,
        channel,
        mut local,
        done,
    } = reactor;
    let mut conns: Conns<Tag> = Conns::with_capacity(256);
    let mut events: Vec<wcc_reactor::Event> = Vec::with_capacity(256);
    let mut upstream = conns
        .insert(&mut poller, channel, Tag::new(Kind::Upstream))
        .ok();

    loop {
        // A live invalidation channel needs no timer; once it is closed
        // (peer EOF, or a failed read or flush anywhere) we tick every
        // 250 ms to re-register (the §5 reconnect handshake).
        upstream = upstream.filter(|&tok| conns.get_mut(tok).is_some());
        let timeout = upstream.is_none().then_some(Duration::from_millis(250));
        if poller.wait(&mut events, timeout).is_err() || tier.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if upstream.is_none() {
            upstream = register(tier.origin, tier.hello)
                .ok()
                .and_then(|s| conns.insert(&mut poller, s, Tag::new(Kind::Upstream)).ok());
        }
        let mut dropped = 0u64;
        for ev in events.iter().copied() {
            match ev.token {
                TOK_LISTENER => accept_all(
                    &listener,
                    &mut poller,
                    &mut conns,
                    || Tag::new(Kind::Downstream),
                    &mut dropped,
                ),
                TOK_LISTENER2 => {
                    if let Some(metrics) = &metrics {
                        let scrape = || Tag::new(Kind::Scrape);
                        accept_all(metrics, &mut poller, &mut conns, scrape, &mut dropped);
                    }
                }
                TOK_WAKER => waker.drain(),
                tok => {
                    if ev.writable {
                        conns.flush(&mut poller, tok);
                    }
                    if (ev.readable || ev.error)
                        && !drive(&mut poller, &mut conns, tok, |msg, sbuf, tag| {
                            if tag.kind == Kind::Upstream {
                                tier.upstream_frame(&mut local, tok, msg)
                            } else {
                                tier.downstream_frame(&mut local, tok, msg, sbuf, tag)
                            }
                        })
                    {
                        local.children.forget(tok);
                    }
                }
            }
        }
        let relayed = conns.deliver(&mut poller, &mut local.outbox);
        if dropped > 0 || relayed > 0 {
            let mut c = tier.counters.lock();
            c.node.dropped_connections += dropped;
            c.relayed += relayed;
        }
        conns.deliver(&mut poller, &mut local.acks);
        while let Some(d) = done.try_recv() {
            apply_done(&tier, &mut poller, &mut conns, d);
        }
    }

    // Graceful drain: give in-flight jobs a bounded window to finish and
    // flush, then close everything.
    let grace = WallClock::start();
    while tier.outstanding.load(Ordering::SeqCst) > 0
        && !grace.has_elapsed(wcc_types::SimDuration::from_micros(1_000_000))
    {
        let _ = poller.wait(&mut events, Some(Duration::from_millis(20)));
        waker.drain();
        while let Some(d) = done.try_recv() {
            apply_done(&tier, &mut poller, &mut conns, d);
        }
    }
    conns.close_all(&mut poller);
}

/// Applies one finished job: park it, then deliver every reply that is
/// next in pipeline order.
fn apply_done(tier: &Tier, poller: &mut Poller, conns: &mut Conns<Tag>, d: Done) {
    tier.outstanding.fetch_sub(1, Ordering::SeqCst);
    let Some(conn) = conns.get_mut(d.token) else {
        return;
    };
    let tag = &mut conn.tag;
    tag.parked.push((d.seq, d.msg));
    while let Some(i) = tag.parked.iter().position(|(s, _)| *s == tag.next_send) {
        let (_, msg) = tag.parked.swap_remove(i);
        tag.next_send += 1;
        match msg {
            Some(m) => conn.sbuf.push_bytes(&encode(&m)),
            None => {
                // Fetch failed (upstream down): deliver what we have, then
                // drop the connection so the client can re-dial.
                conn.close_after_flush = true;
                tier.counters.lock().node.dropped_connections += 1;
                break;
            }
        }
    }
    conns.flush(poller, d.token);
}
