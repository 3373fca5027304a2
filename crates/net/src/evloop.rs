//! Shared per-connection machinery for the readiness event loops.
//!
//! Each node (origin, proxy, parent) runs one reactor thread built from
//! these parts: a slab of non-blocking connections keyed by generation
//! tokens, each with a compacting receive buffer (frames decode from it
//! in place via `wcc_proto::zero::decode_frame` — the zero-copy path) and
//! a send buffer that absorbs partial writes. Write interest is armed
//! only while output is queued, so an idle keep-alive connection costs
//! one registered fd and two empty buffers. [`drive`] is every node's
//! read/decode/dispatch loop; the node supplies only the per-frame
//! dispatcher.
//!
//! This file is on the hot-loop allocation lint list: everything here
//! runs once per readiness event at 10k-connection scale.

use std::io;
use std::net::{TcpListener, TcpStream};
use wcc_proto::{decode_frame, encode, HttpMsg, HttpMsgRef, WireError};
use wcc_reactor::{Interest, Poller, RecvBuf, SendBuf};

/// Token of the node's primary listener.
pub(crate) const TOK_LISTENER: u64 = 0;
/// Token of the node's secondary listener (the proxy's metrics port).
pub(crate) const TOK_LISTENER2: u64 = 1;
/// Token of the reactor's waker pipe.
pub(crate) const TOK_WAKER: u64 = 2;
/// First token handed to accepted connections; everything below is a
/// fixed singleton.
pub(crate) const FIRST_CONN: u64 = 16;

/// One non-blocking connection plus its node-specific tag.
pub(crate) struct Conn<T> {
    pub stream: TcpStream,
    pub rbuf: RecvBuf,
    pub sbuf: SendBuf,
    /// Peer sent EOF; remaining output still flushes.
    pub eof: bool,
    /// Currently registered with write interest.
    pub want_write: bool,
    /// Close once the send buffer drains (one-shot replies, shutdown).
    pub close_after_flush: bool,
    pub tag: T,
}

impl<T> Conn<T> {
    /// Reads everything currently available; sets [`Conn::eof`] on peer
    /// close. `Ok(())` means "no fatal error" — the caller decodes next.
    pub fn read_ready(&mut self) -> io::Result<()> {
        loop {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connection slab with generation-checked tokens.
///
/// Tokens are `(generation << 32) | (index + FIRST_CONN)`: a completion
/// or queued push addressed to a connection that was closed and whose
/// slot was reused simply fails the generation check and is dropped.
pub(crate) struct Conns<T> {
    slots: Vec<Option<Conn<T>>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | (idx as u64 + FIRST_CONN)
}

fn index_of(token: u64) -> Option<(usize, u32)> {
    let low = token & 0xffff_ffff;
    if low < FIRST_CONN {
        return None;
    }
    Some(((low - FIRST_CONN) as usize, (token >> 32) as u32))
}

impl<T> Conns<T> {
    pub fn with_capacity(cap: usize) -> Conns<T> {
        Conns {
            slots: Vec::with_capacity(cap),
            gens: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Registers an accepted stream (made non-blocking here) and returns
    /// its token.
    pub fn insert(&mut self, poller: &mut Poller, stream: TcpStream, tag: T) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let token = token_of(idx, self.gens[idx]);
        {
            use std::os::fd::AsRawFd;
            if let Err(e) = poller.add(stream.as_raw_fd(), token, Interest::READ) {
                self.free.push(idx);
                return Err(e);
            }
        }
        self.slots[idx] = Some(Conn {
            stream,
            rbuf: RecvBuf::new(),
            sbuf: SendBuf::new(),
            eof: false,
            want_write: false,
            close_after_flush: false,
            tag,
        });
        self.live += 1;
        Ok(token)
    }

    pub fn get_mut(&mut self, token: u64) -> Option<&mut Conn<T>> {
        let (idx, gen) = index_of(token)?;
        if self.gens.get(idx).copied() != Some(gen) {
            return None;
        }
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Deregisters and drops a connection. Safe to call with a stale
    /// token (no-op).
    pub fn close(&mut self, poller: &mut Poller, token: u64) {
        let Some((idx, gen)) = index_of(token) else {
            return;
        };
        if self.gens.get(idx).copied() != Some(gen) {
            return;
        }
        if let Some(conn) = self.slots[idx].take() {
            use std::os::fd::AsRawFd;
            let _ = poller.delete(conn.stream.as_raw_fd());
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// Flushes queued output and keeps the poller's write interest in
    /// sync. Returns `false` if the connection was closed (fatal write
    /// error, or drained with `close_after_flush`).
    pub fn flush(&mut self, poller: &mut Poller, token: u64) -> bool {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.get_mut(token) else {
            return false;
        };
        match conn.sbuf.flush(&mut conn.stream) {
            Ok(true) => {
                if conn.close_after_flush {
                    self.close(poller, token);
                    return false;
                }
                if conn.want_write {
                    conn.want_write = false;
                    let _ = poller.modify(conn.stream.as_raw_fd(), token, Interest::READ);
                }
                true
            }
            Ok(false) => {
                if !conn.want_write {
                    conn.want_write = true;
                    let _ = poller.modify(conn.stream.as_raw_fd(), token, Interest::READ_WRITE);
                }
                true
            }
            Err(_) => {
                self.close(poller, token);
                false
            }
        }
    }

    /// Queues each `(token, message)` onto its connection and flushes it,
    /// in order. Messages addressed to a connection closed meanwhile are
    /// dropped. Returns how many `INVALIDATE`s reached a live connection.
    pub fn deliver(&mut self, poller: &mut Poller, outbox: &mut Vec<(u64, HttpMsg)>) -> u64 {
        let mut invalidations = 0;
        for (tok, msg) in outbox.drain(..) {
            let Some(conn) = self.get_mut(tok) else {
                continue;
            };
            conn.sbuf.push_bytes(&encode(&msg));
            invalidations += u64::from(matches!(msg, HttpMsg::Invalidate { .. }));
            self.flush(poller, tok);
        }
        invalidations
    }

    /// Shutdown: flushes whatever is queued, then closes every connection.
    pub fn close_all(&mut self, poller: &mut Poller) {
        let live: Vec<u64> = (0..self.slots.len())
            .filter(|&idx| self.slots[idx].is_some())
            .map(|idx| token_of(idx, self.gens[idx]))
            .collect();
        for tok in live {
            self.flush(poller, tok);
            self.close(poller, tok);
        }
    }
}

/// What a dispatcher wants done with its connection after one frame.
pub(crate) enum After {
    /// Go on to the next frame.
    Keep,
    /// Stop reading; close once the queued reply has flushed.
    CloseAfterFlush,
    /// Protocol violation: close now.
    Close,
}

/// Reads everything available on `token`, then decodes every complete
/// frame in place and hands it, with the connection's send buffer and
/// tag, to `dispatch`. Returns `false` once the connection is closed or
/// closing: a read or wire error, peer EOF, or [`After::Close`].
pub(crate) fn drive<T>(
    poller: &mut Poller,
    conns: &mut Conns<T>,
    token: u64,
    mut dispatch: impl FnMut(&HttpMsgRef<'_>, &mut SendBuf, &mut T) -> After,
) -> bool {
    let Some(conn) = conns.get_mut(token) else {
        return false;
    };
    if conn.read_ready().is_err() {
        conns.close(poller, token);
        return false;
    }
    loop {
        let Some(conn) = conns.get_mut(token) else {
            return false;
        };
        let after = match decode_frame(conn.rbuf.data(), conn.eof) {
            Ok(None) => break, // mid-frame; more bytes may arrive
            Ok(Some((msg, used))) => {
                let after = dispatch(&msg, &mut conn.sbuf, &mut conn.tag);
                conn.rbuf.consume(used);
                after
            }
            Err(WireError::Closed) if !conn.sbuf.is_empty() => {
                // Clean EOF between frames: deliver queued output first.
                conn.close_after_flush = true;
                conns.flush(poller, token);
                return false;
            }
            Err(_) => After::Close,
        };
        match after {
            After::Keep => {}
            After::CloseAfterFlush => {
                conn.close_after_flush = true;
                break;
            }
            After::Close => {
                conns.close(poller, token);
                return false;
            }
        }
    }
    conns.flush(poller, token)
}

/// Accepts every pending connection on a non-blocking listener.
/// Connections that cannot be accepted or registered (fd exhaustion)
/// are counted into `dropped`.
pub(crate) fn accept_all<T>(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut Conns<T>,
    mut make_tag: impl FnMut() -> T,
    dropped: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if conns.insert(poller, stream, make_tag()).is_err() {
                    *dropped += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                *dropped += 1;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn stale_tokens_are_ignored_after_reuse() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        let mut conns: Conns<u8> = Conns::with_capacity(4);

        let c1 = TcpStream::connect(addr).expect("connect");
        let (s1, _) = listener.accept().expect("accept");
        let tok1 = conns.insert(&mut poller, s1, 1).expect("insert");
        conns.close(&mut poller, tok1);
        assert_eq!(conns.len(), 0);

        // The slot is reused with a bumped generation: the old token no
        // longer resolves.
        let c2 = TcpStream::connect(addr).expect("connect");
        let (s2, _) = listener.accept().expect("accept");
        let tok2 = conns.insert(&mut poller, s2, 2).expect("insert");
        assert_ne!(tok1, tok2);
        assert!(conns.get_mut(tok1).is_none());
        assert_eq!(conns.get_mut(tok2).map(|c| c.tag), Some(2));
        drop((c1, c2));
    }

    #[test]
    fn flush_arms_and_disarms_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        let mut conns: Conns<()> = Conns::with_capacity(1);

        let mut peer = TcpStream::connect(addr).expect("connect");
        let (srv, _) = listener.accept().expect("accept");
        let tok = conns.insert(&mut poller, srv, ()).expect("insert");

        // Queue more than the socket buffer absorbs in one write so the
        // partial-write path arms write interest.
        let chunk = [0x5au8; 1 << 20];
        {
            let conn = conns.get_mut(tok).expect("conn");
            conn.sbuf.push_bytes(&chunk);
            conn.sbuf.push_bytes(&chunk);
        }
        assert!(conns.flush(&mut poller, tok));
        let armed = conns.get_mut(tok).expect("conn").want_write;

        // Drain the peer until everything went through.
        peer.set_nonblocking(true).expect("nonblocking");
        let mut sink = [0u8; 65536];
        let mut received = 0usize;
        let mut events = Vec::with_capacity(8);
        while received < 2 * chunk.len() {
            match peer.read(&mut sink) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    poller
                        .wait(&mut events, Some(std::time::Duration::from_millis(50)))
                        .expect("wait");
                    if !conns.flush(&mut poller, tok) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        assert_eq!(received, 2 * chunk.len());
        let conn = conns.get_mut(tok).expect("conn");
        assert!(conn.sbuf.is_empty());
        assert!(armed || !conn.want_write, "interest bookkeeping diverged");

        // close_after_flush on a drained buffer closes immediately.
        conns.get_mut(tok).expect("conn").close_after_flush = true;
        assert!(!conns.flush(&mut poller, tok));
        assert_eq!(conns.len(), 0);
        let _ = peer.flush();
    }
}
