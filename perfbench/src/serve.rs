//! The `serve-rw` workload: an in-process `NetOrigin` + `NetProxy` pair
//! running invalidation over loopback, driven by one client thread as a
//! closed loop.
//!
//! Two keep-alive connections each keep one `GET` in flight (browsers wait
//! for each reply); documents follow a seeded Zipf popularity. After every
//! [`READS_PER_WRITE`] replies the same thread checks a write
//! in (`wcc_net::check_in`) and polls the origin until it has processed the
//! notify and every invalidation is acknowledged. One write is outstanding
//! at a time: when the next one is due and the last has not completed, no
//! new read goes out until it has, so the mix stays one write per
//! [`READS_PER_WRITE`] reads and a slow write path costs read throughput.
//! The thread waits only in `Poller::wait`.
//!
//! Every reply is audited: its `Last-Modified` may not be older than one
//! this connection already saw for the document, nor older than a write
//! that completed before the read was sent.

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mib, Latency};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, NetOrigin, NetProxy, OriginConfig};
use wcc_proto::{decode_frame, encode, GetRequest, HttpMsg, HttpMsgRef, ReplyStatusRef, RequestId};
use wcc_reactor::{Interest, Poller, RecvBuf, SendBuf};
use wcc_traces::Zipf;
use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url, WallClock};

/// Documents at the origin.
const DOCS: u32 = 1_000;

/// Zipf exponent of read (and write) popularity.
const ZIPF_S: f64 = 0.9;

/// Proxy cache capacity, in documents of [`DOC_SIZE`]: smaller than the
/// catalogue, so reads miss and evict as well as hit.
const CACHE_DOCS: u64 = 400;

/// Replies between two write check-ins.
pub const READS_PER_WRITE: u64 = 50;

/// Least time between two `NetOrigin::snapshot` calls while a write waits
/// for its notify to be processed: a snapshot scans the site lists under
/// the origin's lock, which the GET, notify and ack paths take too.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_micros(100);

/// Keep-alive client connections, one request in flight on each.
const CONNS: usize = 2;

/// Times the pair is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Accounted size of every document.
pub const DOC_SIZE: ByteSize = ByteSize::from_kib(8);

/// A write that has not completed after this long fails.
const WRITE_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// In-flight reads still unanswered this long after the run stops fail.
const DRAIN_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Reply frames kept for the codec pass.
const CAPTURE: usize = 4_096;

const FETCH_HIST: &str = "wcc_fetch_latency_seconds";
const SERVE_HIST: &str = "wcc_serve_latency_seconds";

struct Pair {
    origin: NetOrigin,
    proxy: NetProxy,
}

fn spawn_pair() -> std::io::Result<Pair> {
    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![DOC_SIZE; DOCS as usize],
        protocol: protocol.clone(),
        doc_scale: 100,
        inval_batch: None,
    })?;
    let capacity = DOC_SIZE.saturating_mul(CACHE_DOCS);
    let proxy = NetProxy::spawn(origin.addr(), &protocol, 0, 1, capacity)?;
    Ok(Pair { origin, proxy })
}

struct Inflight {
    doc: u32,
    clock: WallClock,
    /// Write floor for the document when the read was sent.
    floor: SimTime,
    id: u64,
    story_start_us: u64,
    get_bytes: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    rbuf: RecvBuf,
    sbuf: SendBuf,
    want_write: bool,
    alive: bool,
    next_req: RequestId,
    inflight: Option<Inflight>,
    rng: StdRng,
    /// Warm-up cursor: the next document this connection reads in order.
    warm_next: u32,
}

struct PendingWrite {
    doc: u32,
    at: SimTime,
    clock: WallClock,
    notifies_before: u64,
    /// Whether a snapshot has shown the origin processed the notify.
    notified: bool,
    /// Time since the last snapshot (or the check-in).
    since_snapshot: WallClock,
    id: u64,
    story_start_us: u64,
}

/// Counters of one client phase.
#[derive(Default)]
struct Phase {
    reads: u64,
    /// Reads answered in each whole second of the timed loop.
    per_second: Vec<u64>,
    latency: Latency,
    writes: u64,
    write_latency: Latency,
    wait_us: u64,
    wakeups: u64,
}

/// The load generator: a readiness loop over the client connections.
struct Client {
    poller: Poller,
    events: Vec<wcc_reactor::Event>,
    conns: Vec<Conn>,
    /// Per-(connection, document) `Last-Modified` floor.
    seen: BTreeMap<(usize, u32), SimTime>,
    /// Version of each document's last completed write.
    written: BTreeMap<u32, SimTime>,
    tracer: Tracer,
    next_id: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    phase: Phase,
    /// `(GET, reply)` frames kept for the codec pass.
    capture: Option<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl Client {
    /// Connects [`CONNS`] keep-alive connections to the proxy.
    fn connect(addr: SocketAddr, seed: u64, mut tracer: Tracer) -> std::io::Result<Self> {
        let t = tracer.open("net.connect", 0);
        let mut poller = Poller::new()?;
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), c as u64, Interest::READ)?;
            conns.push(Conn {
                stream,
                rbuf: RecvBuf::new(),
                sbuf: SendBuf::new(),
                want_write: false,
                alive: true,
                next_req: RequestId::default(),
                inflight: None,
                rng: StdRng::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9)),
                warm_next: 0,
            });
        }
        tracer.close(t);
        Ok(Client {
            poller,
            events: Vec::with_capacity(64),
            conns,
            seen: BTreeMap::new(),
            written: BTreeMap::new(),
            tracer,
            next_id: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            phase: Phase::default(),
            capture: None,
        })
    }

    fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn send(&mut self, c: usize, doc: u32) {
        let id = self.next_id;
        self.next_id += 1;
        self.attempted += 1;
        let floor = self.written.get(&doc).copied().unwrap_or(SimTime::ZERO);
        let conn = &mut self.conns[c];
        let get = HttpMsg::Get(GetRequest {
            req: conn.next_req,
            url: Url::new(ServerId::new(0), doc),
            client: ClientId::from_raw(0),
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: 0,
        });
        conn.next_req = conn.next_req.next();
        let story_start_us = self.tracer.now_us();
        let clock = WallClock::start();
        let bytes = self.tracer.span("proto.encode", id, || encode(&get));
        conn.sbuf.push_bytes(&bytes);
        let get_bytes = if self.capture.as_ref().is_some_and(|v| v.len() < CAPTURE) {
            bytes
        } else {
            Vec::new()
        };
        conn.inflight = Some(Inflight {
            doc,
            clock,
            floor,
            id,
            story_start_us,
            get_bytes,
        });
        self.flush(c, id);
    }

    fn flush(&mut self, c: usize, id: u64) {
        let conn = &mut self.conns[c];
        let flushed = self
            .tracer
            .span("net.send", id, || conn.sbuf.flush(&mut conn.stream));
        match flushed {
            Ok(done) if done != conn.want_write => {}
            Ok(done) => {
                conn.want_write = !done;
                let interest = if done {
                    Interest::READ
                } else {
                    Interest::READ_WRITE
                };
                if self
                    .poller
                    .modify(conn.stream.as_raw_fd(), c as u64, interest)
                    .is_err()
                {
                    self.kill(c, "poller modify failed");
                }
            }
            Err(e) => self.kill(c, &format!("send failed: {e}")),
        }
    }

    fn kill(&mut self, c: usize, why: &str) {
        let conn = &mut self.conns[c];
        if !conn.alive {
            return;
        }
        conn.alive = false;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let lost = u64::from(conn.inflight.take().is_some());
        self.fail(lost.max(1), format!("connection {c} lost: {why}"));
    }

    /// Reads and decodes everything available on connection `c`.
    fn receive(&mut self, c: usize) {
        let id = self.conns[c].inflight.as_ref().map_or(0, |f| f.id);
        let conn = &mut self.conns[c];
        let read = self.tracer.span("net.recv", id, || {
            let mut eof = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.push_bytes(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(eof)
        });
        let eof = match read {
            Ok(eof) => eof,
            Err(e) => return self.kill(c, &format!("recv failed: {e}")),
        };
        loop {
            let conn = &mut self.conns[c];
            let decoded = self.tracer.span("proto.decode", id, || {
                match decode_frame(conn.rbuf.data(), eof) {
                    Ok(Some((HttpMsgRef::Reply(reply), used))) => {
                        let modified = match reply.status {
                            ReplyStatusRef::Ok { meta, .. } => Some(meta.last_modified()),
                            ReplyStatusRef::NotModified => None,
                        };
                        Ok(Some((reply.url.doc(), modified, used)))
                    }
                    Ok(Some(_)) => Err("unexpected message on a client connection".to_string()),
                    Ok(None) => Ok(None),
                    Err(e) => Err(format!("undecodable reply: {e:?}")),
                }
            });
            match decoded {
                Ok(Some((doc, modified, used))) => self.on_reply(c, doc, modified, used),
                Ok(None) => break,
                Err(why) => return self.kill(c, &why),
            }
        }
        if eof {
            self.kill(c, "proxy closed the connection");
        }
    }

    fn on_reply(&mut self, c: usize, doc: u32, modified: Option<SimTime>, used: usize) {
        let conn = &mut self.conns[c];
        let Some(inflight) = conn.inflight.take() else {
            conn.rbuf.consume(used);
            return self.fail(1, format!("unsolicited reply on connection {c}"));
        };
        let elapsed = inflight.clock.elapsed().as_micros();
        if let Some(frames) = self.capture.as_mut() {
            if frames.len() < CAPTURE && !inflight.get_bytes.is_empty() {
                frames.push((inflight.get_bytes, conn.rbuf.data()[..used].to_vec()));
            }
        }
        conn.rbuf.consume(used);
        self.phase.reads += 1;
        self.phase.latency.record(elapsed);
        let end = self.tracer.now_us();
        self.tracer
            .story("serve.read", inflight.id, inflight.story_start_us, end);
        if doc != inflight.doc {
            return self.fail(
                1,
                format!("reply for doc {doc}, asked for {}", inflight.doc),
            );
        }
        let Some(modified) = modified else {
            return self.fail(1, format!("304 to an unconditional GET for doc {doc}"));
        };
        let seen = self.seen.get(&(c, doc)).copied().unwrap_or(SimTime::ZERO);
        let want = seen.max(inflight.floor);
        if modified < want {
            self.fail(
                1,
                format!("stale read of doc {doc}: Last-Modified {modified:?} < {want:?}"),
            );
        }
        self.seen.insert((c, doc), seen.max(modified));
    }

    /// One readiness wait plus the handling of what it returned.
    fn pump(&mut self, timeout: Duration) {
        let start = WallClock::start();
        let mut events = std::mem::take(&mut self.events);
        let waited = self.tracer.span("reactor.wait", 0, || {
            self.poller.wait(&mut events, Some(timeout))
        });
        self.phase.wait_us += start.elapsed().as_micros();
        if let Err(e) = waited {
            self.fail(1, format!("poller wait failed: {e}"));
        }
        if !events.is_empty() {
            self.phase.wakeups += 1;
        }
        for ev in events.iter().copied() {
            let c = ev.token as usize;
            if c >= self.conns.len() || !self.conns[c].alive {
                continue;
            }
            if ev.writable {
                let id = self.conns[c].inflight.as_ref().map_or(0, |f| f.id);
                self.flush(c, id);
            }
            if ev.readable || ev.error {
                self.receive(c);
            }
        }
        self.events = events;
    }

    fn idle(&self, c: usize) -> bool {
        self.conns[c].alive && self.conns[c].inflight.is_none()
    }

    fn all_idle(&self) -> bool {
        self.conns.iter().all(|c| !c.alive || c.inflight.is_none())
    }

    /// Warm-up: every connection reads every document once, in order, one
    /// connection after the other, so the hits and misses it makes do not
    /// depend on how the connections interleave.
    fn warm_up(&mut self, docs: u32) {
        let clock = WallClock::start();
        loop {
            let next = (0..self.conns.len()).find(|&c| {
                self.conns[c].alive && (self.conns[c].warm_next < docs || !self.idle(c))
            });
            let Some(c) = next else {
                return;
            };
            if self.idle(c) {
                let doc = self.conns[c].warm_next;
                self.conns[c].warm_next += 1;
                self.send(c, doc);
            }
            if clock.has_elapsed(DRAIN_TIMEOUT.saturating_mul(6)) {
                let lost = self.conns.iter().filter(|c| c.inflight.is_some()).count() as u64;
                return self.fail(lost.max(1), "warm-up did not finish".to_string());
            }
            self.pump(Duration::from_millis(100));
        }
    }

    /// The timed closed loop: Zipf reads on every connection plus a write
    /// every [`READS_PER_WRITE`] replies, for `budget`; then drains.
    /// Returns the timed wall time (to the stop), µs.
    fn timed(&mut self, pair: &Pair, zipf: &Zipf, writer: &mut Writer, budget: SimDuration) -> u64 {
        let clock = WallClock::start();
        let mut stopped_at: Option<u64> = None;
        let mut reads_at_last_write = self.phase.reads;
        let mut reads_at_second = self.phase.reads;
        loop {
            let now = clock.elapsed().as_micros();
            if stopped_at.is_none() && now >= budget.as_micros() {
                stopped_at = Some(now);
            }
            if stopped_at.is_none() && now >= (self.phase.per_second.len() as u64 + 1) * 1_000_000 {
                self.phase
                    .per_second
                    .push(self.phase.reads - reads_at_second);
                reads_at_second = self.phase.reads;
            }
            if writer.pending.is_some() {
                self.poll_write(pair, writer);
            }
            let write_due = self.phase.reads - reads_at_last_write >= READS_PER_WRITE;
            if stopped_at.is_none() && write_due && writer.pending.is_none() {
                reads_at_last_write = self.phase.reads;
                self.start_write(pair, zipf, writer);
            }
            // A write still outstanding when the next is due holds the reads.
            let held = writer.pending.is_some()
                && self.phase.reads - reads_at_last_write >= READS_PER_WRITE;
            if stopped_at.is_none() && !held {
                for c in 0..self.conns.len() {
                    if self.idle(c) {
                        let doc = zipf.sample(&mut self.conns[c].rng) as u32;
                        self.send(c, doc);
                    }
                }
            }
            if let Some(stop) = stopped_at {
                if self.all_idle() && writer.pending.is_none() {
                    return stop;
                }
                if clock.elapsed().as_micros() - stop > DRAIN_TIMEOUT.as_micros() {
                    let lost = self.conns.iter().filter(|c| c.inflight.is_some()).count() as u64;
                    self.fail(
                        lost + u64::from(writer.pending.is_some()),
                        "drain timed out".to_string(),
                    );
                    return stop;
                }
            }
            if self.conns.iter().all(|c| !c.alive) && stopped_at.is_none() {
                stopped_at = Some(clock.elapsed().as_micros());
            }
            let timeout = if writer.pending.is_some() { 1 } else { 100 };
            self.pump(Duration::from_millis(timeout));
        }
    }

    fn start_write(&mut self, pair: &Pair, zipf: &Zipf, writer: &mut Writer) {
        let doc = zipf.sample(&mut writer.rng) as u32;
        writer.seq += 1;
        // Versions only move forward: write k stamps 10 s + k ms.
        let at = SimTime::from_micros(10_000_000 + writer.seq * 1_000);
        let id = writer.seq;
        let notifies_before = self
            .tracer
            .span("net.snapshot", id, || pair.origin.snapshot().notifies);
        let story_start_us = self.tracer.now_us();
        let clock = WallClock::start();
        self.attempted += 1;
        let url = Url::new(ServerId::new(0), doc);
        let addr = pair.origin.addr();
        match self
            .tracer
            .span("net.check_in", id, || check_in(addr, url, at))
        {
            Ok(()) => {
                writer.pending = Some(PendingWrite {
                    doc,
                    at,
                    clock,
                    notifies_before,
                    notified: false,
                    since_snapshot: WallClock::start(),
                    id,
                    story_start_us,
                });
            }
            Err(e) => self.fail(1, format!("check-in {id} failed: {e}")),
        }
    }

    /// Checks whether the pending write has completed: by snapshot (at most
    /// once per [`SNAPSHOT_EVERY`]) until the notify shows as processed,
    /// then by `wait_writes_complete` with no wait, which only looks at the
    /// origin's pending-invalidation set.
    fn poll_write(&mut self, pair: &Pair, writer: &mut Writer) {
        let Some(w) = writer.pending.as_mut() else {
            return;
        };
        let complete = if w.notified {
            self.tracer.span("net.writes_complete", w.id, || {
                pair.origin.wait_writes_complete(Duration::ZERO)
            })
        } else if w.since_snapshot.has_elapsed(SNAPSHOT_EVERY) {
            w.since_snapshot = WallClock::start();
            let snap = self
                .tracer
                .span("net.snapshot", w.id, || pair.origin.snapshot());
            w.notified = snap.notifies > w.notifies_before;
            w.notified && snap.writes_complete
        } else {
            false
        };
        if complete {
            let w = writer.pending.take().expect("checked above");
            self.phase
                .write_latency
                .record(w.clock.elapsed().as_micros());
            self.phase.writes += 1;
            let end = self.tracer.now_us();
            self.tracer
                .story("serve.write", w.id, w.story_start_us, end);
            let floor = self.written.entry(w.doc).or_insert(SimTime::ZERO);
            *floor = (*floor).max(w.at);
        } else if w.clock.has_elapsed(WRITE_TIMEOUT) {
            let id = w.id;
            writer.pending = None;
            self.fail(
                1,
                format!("write {id} did not complete within {WRITE_TIMEOUT:?}"),
            );
        }
    }
}

struct Writer {
    rng: StdRng,
    seq: u64,
    pending: Option<PendingWrite>,
}

/// Sum (seconds) and count of a histogram in a Prometheus exposition.
fn histogram_sum_count(text: &str, name: &str) -> (f64, u64) {
    let value = |suffix: &str| {
        let prefix = format!("{name}_{suffix}");
        text.lines()
            .find(|l| l.starts_with(&prefix) && l[prefix.len()..].starts_with([' ', '{']))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (value("sum"), value("count") as u64)
}

/// The 90th percentile of the per-second read counts (nearest rank): the
/// rate the pair sustains when the host lets it run. Time stolen by other
/// guests stalls the whole client-proxy-origin pipeline for milliseconds and
/// can slow most of a run's seconds, while a slower serving path lowers
/// every second, this one included.
fn p90_per_second(per_second: &[u64]) -> f64 {
    let mut sorted = per_second.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() * 9).div_ceil(10);
    sorted
        .get(rank.saturating_sub(1))
        .map_or(0.0, |&n| n as f64)
}

/// Mean µs per observation between two `(sum s, count)` readings.
fn mean_us(before: (f64, u64), after: (f64, u64)) -> f64 {
    let n = after.1.saturating_sub(before.1);
    if n == 0 {
        0.0
    } else {
        (after.0 - before.0) * 1e6 / n as f64
    }
}

/// What one serve-rw run measured (also used by the workload-shape tests).
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Set-up seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Spawn + connect seconds per set-up.
    pub spawn_s: Vec<f64>,
    /// Warm-up seconds per set-up.
    pub warmup_s: Vec<f64>,
    /// Reads answered in the timed phase.
    pub reads: u64,
    /// Writes completed in the timed phase.
    pub writes: u64,
    /// Timed wall time, µs.
    pub wall_us: u64,
    /// Proxy hits ÷ requests in the timed phase.
    pub hit_ratio: f64,
    /// Upstream GET/IMS plus INVALIDATEs per read.
    pub msgs_per_read: f64,
    /// Operations attempted and failed (warm-up included).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// Runs serve-rw: [`SETUPS`] set-ups (the last one's pair and
/// connections serve the timed phase), then the timed closed loop for
/// `seconds`. A traced run records spans for three quarters of the time and
/// then runs the same pair untraced for the remaining quarter, as the
/// overhead reference, followed by the codec pass. Metrics go to `report`
/// when given.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    report: Option<&mut Report>,
) -> std::io::Result<ServeOutcome> {
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let root = tracer.open("bench.serve", 0);
    let zipf = Zipf::new(DOCS as usize, ZIPF_S);
    let mut out = ServeOutcome::default();
    let mut problems = Vec::new();
    let mut live: Option<(Pair, Client)> = None;
    for s in 0..SETUPS {
        if let Some((pair, mut client)) = live.take() {
            out.absorb(&mut client, &mut problems);
            tracer.span("net.drop", s as u64, || drop((client, pair)));
        }
        let clock = WallClock::start();
        let pair = tracer.span("net.spawn", s as u64, spawn_pair)?;
        let mut client = Client::connect(pair.proxy.client_addr(), seed, tracer)?;
        out.spawn_s.push(clock.elapsed().as_micros() as f64 / 1e6);
        let warm = WallClock::start();
        let t = client.tracer.open("bench.warmup", s as u64);
        client.warm_up(DOCS);
        client.tracer.close(t);
        out.warmup_s.push(warm.elapsed().as_micros() as f64 / 1e6);
        out.setup_s.push(clock.elapsed().as_micros() as f64 / 1e6);
        tracer = std::mem::replace(&mut client.tracer, Tracer::off());
        live = Some((pair, client));
    }
    let (pair, mut client) = live.expect("at least one set-up");
    client.tracer = tracer;

    let proxy_before = pair.proxy.counters();
    let origin_before = pair.origin.snapshot();
    let fetch_before = histogram_sum_count(&pair.proxy.metrics_text(), FETCH_HIST);
    let serve_before = histogram_sum_count(&pair.origin.metrics_text(), SERVE_HIST);
    if traced {
        client.capture = Some(Vec::with_capacity(CAPTURE));
    }
    client.phase = Phase::default();
    let mut writer = Writer {
        rng: StdRng::seed_from_u64(seed ^ 0x5752_4954_4553),
        seq: 0,
        pending: None,
    };
    let timed_us = if traced {
        seconds * 750_000
    } else {
        seconds * 1_000_000
    };
    let wall_us = client.timed(
        &pair,
        &zipf,
        &mut writer,
        SimDuration::from_micros(timed_us),
    );
    let phase = std::mem::take(&mut client.phase);
    let proxy_after = pair.proxy.counters();
    let origin_after = pair.origin.snapshot();
    let fetch_after = histogram_sum_count(&pair.proxy.metrics_text(), FETCH_HIST);
    let serve_after = histogram_sum_count(&pair.origin.metrics_text(), SERVE_HIST);
    let capture = client.capture.take();
    let mut tracer = std::mem::replace(&mut client.tracer, Tracer::off());
    tracer.close(root);
    let attribution = tracer.attribution();

    // Overhead reference: the same pair and connections, untraced.
    let mut untraced_rps = 0.0;
    if traced {
        let plain_wall = client.timed(
            &pair,
            &zipf,
            &mut writer,
            SimDuration::from_micros(seconds * 250_000),
        );
        untraced_rps = client.phase.reads as f64 / (plain_wall.max(1) as f64 / 1e6);
    }

    let requests = proxy_after.requests - proxy_before.requests;
    let hits = proxy_after.hits - proxy_before.hits;
    let upstream = (proxy_after.gets_sent + proxy_after.ims_sent)
        - (proxy_before.gets_sent + proxy_before.ims_sent);
    let invals = origin_after.invalidations - origin_before.invalidations;
    let dropped = pair.proxy.counters().dropped_connections;
    if dropped > 0 {
        client.fail(
            dropped,
            format!("proxy dropped {dropped} client connections"),
        );
    }
    out.absorb(&mut client, &mut problems);
    out.reads = phase.reads;
    out.writes = phase.writes;
    out.wall_us = wall_us;
    out.hit_ratio = hits as f64 / requests.max(1) as f64;
    out.msgs_per_read = (upstream + invals) as f64 / phase.reads.max(1) as f64;
    let evictions = {
        // The serving tier counts no evictions; every 200 inserts an entry
        // and only invalidations and evictions remove one, so this is a
        // lower bound.
        let removed = proxy_after.invalidations_received + pair.proxy.cached_entries() as u64;
        proxy_after.replies_200.saturating_sub(removed)
    };
    let sitelist = origin_after.sitelist;
    let acks = origin_after.acks - origin_before.acks;
    drop(client);
    drop(pair);
    // Read before the auditor pass, whose replay is not this workload's.
    let peak_rss = peak_rss_mib();

    let Some(report) = report else {
        return Ok(out);
    };
    report.attempt(out.attempted, out.failed, &problems);
    let rps = out.reads as f64 / (wall_us.max(1) as f64 / 1e6);
    let n_setups = out.setup_s.len() as u64;
    let read = phase.latency.summary();
    let write = phase.write_latency.summary();
    if !traced {
        report.metric("setup_s", median(&out.setup_s), "s", n_setups);
        report.metric(
            "ops_per_s",
            p90_per_second(&phase.per_second),
            "1/s",
            phase.per_second.len() as u64,
        );
        report.metric("msgs_per_req", out.msgs_per_read, "msg/req", out.reads);
        report.metric("peak_rss_mib", peak_rss, "MiB", 1);
    }
    report.note_metric("serve_rps", rps, "reads/s", out.reads);
    let mut per_second = phase.per_second.clone();
    per_second.sort_unstable();
    report.note(&format!(
        "reads in each second of the timed loop, sorted: {per_second:?}"
    ));
    report.note_latency("read", &read);
    report.note_latency("write", &write);
    report.note_metric("hit_ratio", out.hit_ratio, "ratio", requests);
    if !traced {
        return Ok(out);
    }

    let proxy_fetch_us = mean_us(fetch_before, fetch_after);
    let per_read = |x: u64| x as f64 / out.reads.max(1) as f64;
    report.metric("net.spawn_s", median(&out.spawn_s), "s", n_setups);
    report.metric("net.warmup_s", median(&out.warmup_s), "s", n_setups);
    report.metric(
        "net.proxy_fetch_us",
        proxy_fetch_us,
        "us",
        fetch_after.1 - fetch_before.1,
    );
    report.metric(
        "net.client_hop_us",
        phase.latency.mean() - proxy_fetch_us,
        "us",
        read.count,
    );
    report.metric(
        "net.origin_serve_us",
        mean_us(serve_before, serve_after),
        "us",
        serve_after.1 - serve_before.1,
    );
    report.metric(
        "net.upstream_per_read",
        per_read(upstream),
        "msg/read",
        out.reads,
    );
    report.metric(
        "net.inval_per_write",
        invals as f64 / out.writes.max(1) as f64,
        "msg/write",
        out.writes,
    );
    report.metric("net.dropped_connections", dropped as f64, "count", 1);
    report.metric(
        "reactor.wait_share",
        phase.wait_us as f64 / wall_us.max(1) as f64,
        "ratio",
        phase.wakeups,
    );
    report.metric(
        "reactor.wakeups_per_reply",
        per_read(phase.wakeups),
        "1/reply",
        out.reads,
    );
    report.metric("core.invalidations", invals as f64, "count", 1);
    report.metric("core.acks", acks as f64, "count", 1);
    report.metric(
        "core.sitelist_entries",
        sitelist.total_entries as f64,
        "count",
        1,
    );
    report.metric(
        "core.sitelist_max_len",
        sitelist.max_list_len as f64,
        "count",
        1,
    );
    report.metric("cache.hit_ratio", out.hit_ratio, "ratio", requests);
    report.metric("cache.evictions", evictions as f64, "count", 1);
    if let Some(frames) = capture {
        codec_pass(&frames, report);
    }
    report.attribution(
        &attribution,
        1e6 / rps.max(1e-9),
        1e6 / untraced_rps.max(1e-9),
    );
    report.note(&format!(
        "tracing overhead basis: {rps:.0} reads/s traced vs {untraced_rps:.0} reads/s untraced"
    ));
    let stem = format!("{}-seed{seed}", report.workload);
    report.write_spans(&tracer, &stem);
    Ok(out)
}

impl ServeOutcome {
    fn absorb(&mut self, client: &mut Client, problems: &mut Vec<String>) {
        self.attempted += client.attempted;
        self.failed += client.failed;
        problems.append(&mut client.problems);
        client.attempted = 0;
        client.failed = 0;
    }
}

/// Times `encode` and `decode_frame` over the frames the run exchanged, in
/// one tight loop each (single calls are below the clock's resolution).
fn codec_pass(frames: &[(Vec<u8>, Vec<u8>)], report: &mut Report) {
    let mut msgs = Vec::with_capacity(frames.len() * 2);
    let mut raw: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    let mut bytes = 0u64;
    for (get, reply) in frames {
        for frame in [get, reply] {
            bytes += frame.len() as u64;
            raw.push(frame);
            if let Ok(Some((msg, _))) = decode_frame(frame, true) {
                msgs.push(msg.to_owned());
            }
        }
    }
    if msgs.is_empty() {
        return;
    }
    let rounds = (400_000 / msgs.len()).max(1);
    let clock = WallClock::start();
    let mut sink = 0usize;
    for _ in 0..rounds {
        for m in &msgs {
            sink = sink.wrapping_add(std::hint::black_box(encode(std::hint::black_box(m))).len());
        }
    }
    let encode_ns = clock.elapsed().as_micros() as f64 * 1e3 / (rounds * msgs.len()) as f64;
    let clock = WallClock::start();
    for _ in 0..rounds {
        for f in &raw {
            if let Ok(Some((_, used))) = decode_frame(std::hint::black_box(f), false) {
                sink = sink.wrapping_add(used);
            }
        }
    }
    let decode_ns = clock.elapsed().as_micros() as f64 * 1e3 / (rounds * raw.len()) as f64;
    std::hint::black_box(sink);
    let n = (rounds * msgs.len()) as u64;
    report.metric("proto.encode_ns", encode_ns, "ns", n);
    report.metric("proto.decode_ns", decode_ns, "ns", n);
    report.metric(
        "proto.bytes_per_read",
        bytes as f64 / frames.len() as f64,
        "B/read",
        frames.len() as u64,
    );
}
