//! The std-only TCP front end: a nonblocking poll loop pumping protocol
//! lines through a [`ServeHandle`] while the fair scheduler keeps every
//! tenant's simulation moving between requests.
//!
//! One OS thread owns the whole service (sessions are not shared), so the
//! server needs no locks: the loop alternates between socket I/O and
//! [`Service::run_round`](crate::Service::run_round). Shutdown is
//! graceful by construction — on a `shutdown` request (the
//! SIGTERM-equivalent) or [`ServerHandle::shutdown`], the listener
//! closes, responses still buffered are flushed, in-flight steps finish
//! ([`Service::run_until_idle`](crate::Service::run_until_idle)) and every
//! journal is flushed before the thread exits.

use crate::proto::{Response, ServeHandle};
use crate::service::ServeConfig;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line a client may send, newline excluded. No verb
/// carries bulk data, so a longer line is a broken or hostile client: it
/// gets one protocol error line and is disconnected, which bounds each
/// client's input buffer. It also bounds each client's backlog of unread
/// responses: once that many bytes await the client, its further lines
/// wait unexecuted until it reads.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One connected client: the stream plus its line-reassembly buffers.
#[derive(Debug)]
struct Client {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Prefix of `inbuf` already searched for a newline.
    scanned: usize,
    outbuf: Vec<u8>,
    /// Over-long line seen: read nothing more, close once `outbuf` (which
    /// ends with the error line) is flushed.
    hangup: bool,
    closed: bool,
}

/// A running server: the bound address, the shutdown flag and the serving
/// thread's handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The address the listener is bound to (resolve port 0 through
    /// this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for the serving thread:
    /// listener closed, buffered responses flushed, in-flight steps
    /// finished, journals flushed.
    ///
    /// # Errors
    ///
    /// Propagates the serving thread's I/O error, if any.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("serve thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves on a background thread. Returns once the
/// listener is bound, so [`ServerHandle::addr`] is immediately
/// connectable.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve(cfg: ServeConfig, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("picos-serve".into())
        .spawn(move || serve_on(cfg, listener, &flag))?;
    Ok(ServerHandle {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

/// Serves on an already-bound listener until a `shutdown` request arrives
/// or `stop` is raised, then shuts down gracefully. This is the CLI's
/// foreground entry point; [`serve`] wraps it in a thread.
///
/// # Errors
///
/// Propagates listener/socket configuration failures; per-client I/O
/// errors only drop that client.
pub fn serve_on(cfg: ServeConfig, listener: TcpListener, stop: &AtomicBool) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handle =
        ServeHandle::new(cfg).map_err(|e| std::io::Error::other(format!("service init: {e}")))?;
    let mut clients: Vec<Client> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while !stop.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        let mut busy = false;
        // Admit new connections.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    clients.push(Client {
                        stream,
                        inbuf: Vec::new(),
                        scanned: 0,
                        outbuf: Vec::new(),
                        hangup: false,
                        closed: false,
                    });
                    busy = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Pump every client: read available bytes, execute complete
        // lines, flush what the socket will take.
        for c in &mut clients {
            busy |= pump(c, &mut handle, &mut chunk);
        }
        clients.retain(|c| !c.closed);
        // Advance the tenants between I/O bursts.
        busy |= handle.service_mut().run_round() > 0;
        if !busy {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    // Graceful shutdown: stop accepting, flush buffered responses, finish
    // in-flight steps, flush every journal.
    drop(listener);
    for c in &mut clients {
        // Blocking flush: the shutdown acknowledgement must reach clients.
        let _ = c.stream.set_nonblocking(false);
        let _ = c.stream.write_all(&c.outbuf);
    }
    handle.service_mut().run_until_idle();
    handle
        .service_mut()
        .flush_journals()
        .map_err(|e| std::io::Error::other(format!("journal flush: {e}")))?;
    Ok(())
}

/// One I/O turn for one client; returns whether anything happened.
fn pump(c: &mut Client, handle: &mut ServeHandle, chunk: &mut [u8]) -> bool {
    let mut busy = false;
    // Stop reading once the input buffer could hold an over-long line, so
    // a client that never sends a newline cannot grow it further, and
    // while a backlog of unread responses is pending, so a client that
    // never reads is held back by TCP flow control.
    while !c.hangup && c.inbuf.len() <= MAX_LINE_BYTES && c.outbuf.len() < MAX_LINE_BYTES {
        match c.stream.read(chunk) {
            Ok(0) => {
                c.closed = true;
                return true;
            }
            Ok(n) => {
                c.inbuf.extend_from_slice(&chunk[..n]);
                busy = true;
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.closed = true;
                return true;
            }
        }
    }
    // Execute the complete lines in the input buffer, searching only the
    // bytes not scanned on an earlier turn, until the output backlog
    // reaches the cap; the rest wait, with `scanned` before them, until
    // the client reads its responses.
    let mut start = 0;
    while !c.hangup && c.outbuf.len() < MAX_LINE_BYTES {
        let Some(off) = c.inbuf[c.scanned..].iter().position(|&b| b == b'\n') else {
            c.scanned = c.inbuf.len();
            if c.inbuf.len() - start > MAX_LINE_BYTES {
                overlong(c);
            }
            break;
        };
        let nl = c.scanned + off;
        c.scanned = nl + 1;
        if nl - start > MAX_LINE_BYTES {
            overlong(c);
            break;
        }
        let line = String::from_utf8_lossy(&c.inbuf[start..nl]);
        start = nl + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = handle.handle_line(trimmed);
        c.outbuf.extend_from_slice(response.as_bytes());
        c.outbuf.push(b'\n');
        busy = true;
    }
    if c.hangup {
        c.inbuf.clear();
        c.scanned = 0;
    } else {
        c.inbuf.drain(..start);
        c.scanned -= start;
    }
    // Flush as much of the output buffer as the socket takes.
    while !c.outbuf.is_empty() {
        match c.stream.write(&c.outbuf) {
            Ok(0) => {
                c.closed = true;
                return true;
            }
            Ok(n) => {
                c.outbuf.drain(..n);
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.closed = true;
                return true;
            }
        }
    }
    if c.hangup && c.outbuf.is_empty() {
        c.closed = true;
        return true;
    }
    busy
}

/// Answers an over-long request line with one protocol error and marks
/// the client for disconnection once that error is flushed.
fn overlong(c: &mut Client) {
    let err = Response::Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    c.outbuf.extend_from_slice(err.to_line().as_bytes());
    c.outbuf.push(b'\n');
    c.hangup = true;
}
