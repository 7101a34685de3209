//! The server proper: accept loop, bounded connection queue, fixed
//! worker pool, request dispatch, generation hot-swap, and graceful
//! shutdown.
//!
//! Threading model (DESIGN.md §15, §17): the calling thread owns the
//! accept loop; `threads` scoped workers pop accepted connections from
//! a bounded queue and, per request, clone the current
//! [`EngineGeneration`](soulmate_core::EngineGeneration) out of the
//! shared [`EngineCell`] (one `Arc` bump under a short lock). A request
//! therefore runs against one immutable generation end to end — a
//! concurrent `/ingest` or background refit publishing a new generation
//! never blocks or tears an in-flight query. When the queue is full the
//! accept loop answers 503 `overloaded` immediately instead of letting
//! latency grow without bound — the queue depth *is* the backpressure
//! contract.
//!
//! `/ingest` requests are serialized by a dedicated mutex: the delta
//! path clones the current generation, grows it, and publishes — two
//! concurrent ingests would both clone generation G and the second
//! publish would silently drop the first's authors. Queries are never
//! behind that lock. When a [`RefitManager`] is attached, each absorbed
//! batch may arm its rebuild trigger; a dedicated scoped thread then
//! runs the full `Pipeline::fit` refit off the request path and
//! publishes the fresh generation through the same cell.
//!
//! Shutdown: safe zero-dependency Rust cannot trap SIGINT (a signal
//! handler needs `unsafe` or a crate), so the supported trigger is
//! `POST /shutdown`. The handling worker acknowledges with 202, raises
//! the shutdown flag, and pokes the listener with a loopback connection
//! so the blocking `accept` observes the flag. The accept loop stops
//! taking new connections; workers drain everything already queued and
//! in flight, then [`serve`] returns. No accepted request is dropped.

use crate::http::{read_request, write_response, write_response_with, HttpError, Request};
use crate::protocol;
use soulmate_core::{EngineCell, RefitManager};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server tunables. The CLI maps its `serve` flags straight onto this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port; 0 asks the OS for an ephemeral port (the chosen one
    /// is reported through `serve`'s `on_ready` callback).
    pub port: u16,
    /// Worker threads serving requests.
    pub threads: usize,
    /// Accepted connections waiting for a worker before new arrivals
    /// get 503 `overloaded`.
    pub queue_depth: usize,
    /// Largest accepted request body in bytes; larger declared bodies
    /// get 413 without being read.
    pub max_body_bytes: usize,
    /// Socket read timeout: a client that stalls mid-request gets 400
    /// after this long instead of pinning a worker.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Why the server could not run (all post-bind failures are per-request
/// and answered over the wire instead).
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen socket failed.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A bounded MPMC handoff queue built on `Mutex` + `Condvar` (std's
/// mpsc `Receiver` is `!Sync`, so it cannot feed a worker pool
/// directly). `try_push` never blocks — a full queue is the signal to
/// shed load. `pop` blocks until an item arrives or the queue is closed
/// *and* drained, which is exactly the worker drain-then-exit loop.
pub struct ConnQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> ConnQueue<T> {
    /// An open queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue without blocking; a full or closed queue hands the item
    /// back so the caller can refuse it explicitly.
    ///
    /// # Errors
    /// `Err(item)` when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let Ok(mut state) = self.state.lock() else {
            // A poisoned lock means a worker panicked while holding it;
            // shed the connection rather than propagate the panic.
            return Err(item);
        };
        if state.closed || state.items.len() >= state.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is open and empty. `None`
    /// means closed *and* fully drained — the worker's exit signal.
    pub fn pop(&self) -> Option<T> {
        let Ok(mut state) = self.state.lock() else {
            return None;
        };
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = match self.ready.wait(state) {
                Ok(s) => s,
                Err(_) => return None,
            };
        }
    }

    /// Close the queue: `try_push` starts refusing, blocked `pop`s wake
    /// and drain whatever is left.
    pub fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.ready.notify_all();
    }

    /// Items currently waiting (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        self.state.lock().map(|s| s.items.len()).unwrap_or(0)
    }

    /// True when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wakes the background refit thread when an absorbed `/ingest` batch
/// arms the rebuild trigger, and tells it to exit on shutdown. A refit
/// request arriving while one is already running is coalesced into a
/// single follow-up run (the flag is level-, not edge-triggered).
struct RefitSignal {
    state: Mutex<(bool, bool)>, // (refit pending, stop)
    cv: Condvar,
}

impl RefitSignal {
    fn new() -> RefitSignal {
        RefitSignal {
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
        }
    }

    fn request(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.0 = true;
        drop(s);
        self.cv.notify_all();
    }

    fn stop(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.1 = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Block until a refit is due (`true`) or shutdown is requested
    /// (`false`). Shutdown wins: a pending refit at drain time is
    /// abandoned — its data is safe in the [`RefitManager`]'s dataset
    /// and will be picked up by the next server run's first refit.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if s.1 {
                return false;
            }
            if s.0 {
                s.0 = false;
                return true;
            }
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Everything a worker needs to serve one connection. Borrowed shared
/// state only — per-request engine access goes through `cell`.
struct Ctx<'a> {
    cell: &'a EngineCell,
    refit: Option<&'a RefitManager>,
    refit_signal: &'a RefitSignal,
    /// Serializes `/ingest` clone-grow-publish cycles (see module docs).
    ingest_lock: &'a Mutex<()>,
    config: &'a ServeConfig,
    shutdown: &'a AtomicBool,
    local: SocketAddr,
}

/// Run the server until a `POST /shutdown` drains it. Blocks the
/// calling thread (which runs the accept loop); `on_ready` fires once
/// with the bound address — with `port: 0` this is the only way to
/// learn the ephemeral port.
///
/// Workers serve each request from whatever generation `cell` holds at
/// that moment; `/ingest` publishes delta generations into the same
/// cell. Without a [`RefitManager`] (this entry point) no background
/// refits run — see [`serve_with_refit`].
///
/// # Errors
/// [`ServeError::Bind`] when the listen socket cannot be created.
pub fn serve<F: FnOnce(SocketAddr)>(
    cell: &EngineCell,
    config: &ServeConfig,
    on_ready: F,
) -> Result<(), ServeError> {
    serve_with_refit(cell, None, config, on_ready)
}

/// [`serve`], plus an attached [`RefitManager`]: every `/ingest` batch
/// is absorbed into the manager's growing dataset, and when its
/// [`Trigger`](soulmate_core::Trigger) fires a dedicated scoped thread
/// runs the full offline refit and hot-swaps the fresh generation into
/// `cell` — queries in flight keep their generation, new requests see
/// the new one, nothing blocks or drops.
///
/// # Errors
/// [`ServeError::Bind`] when the listen socket cannot be created.
pub fn serve_with_refit<F: FnOnce(SocketAddr)>(
    cell: &EngineCell,
    refit: Option<&RefitManager>,
    config: &ServeConfig,
    on_ready: F,
) -> Result<(), ServeError> {
    let requested = format!("{}:{}", config.host, config.port);
    let listener = TcpListener::bind(&requested).map_err(|source| ServeError::Bind {
        addr: requested.clone(),
        source,
    })?;
    let local = listener.local_addr().map_err(|source| ServeError::Bind {
        addr: requested,
        source,
    })?;
    on_ready(local);

    let shutdown = AtomicBool::new(false);
    let queue: ConnQueue<TcpStream> = ConnQueue::new(config.queue_depth);
    let refit_signal = RefitSignal::new();
    let ingest_lock = Mutex::new(());
    let ctx = Ctx {
        cell,
        refit,
        refit_signal: &refit_signal,
        ingest_lock: &ingest_lock,
        config,
        shutdown: &shutdown,
        local,
    };
    let ctx = &ctx;

    std::thread::scope(|scope| {
        if let Some(manager) = refit {
            scope.spawn(move || {
                while ctx.refit_signal.wait() {
                    match manager.refit() {
                        Ok(generation) => {
                            ctx.cell.publish(generation);
                        }
                        Err(e) => {
                            // The old generation keeps serving; the
                            // failure is visible in metrics and the
                            // next trigger firing retries over the
                            // same (still-growing) dataset.
                            let obs = soulmate_obs::global();
                            obs.incr("serve.refit.errors", 1);
                            drop(e);
                        }
                    }
                }
            });
        }
        for _ in 0..config.threads.max(1) {
            let queue = &queue;
            scope.spawn(move || {
                // Drain until the queue closes; `pop` returning `None`
                // guarantees nothing accepted is left behind.
                while let Some(stream) = queue.pop() {
                    handle_connection(ctx, stream);
                }
            });
        }

        for incoming in listener.incoming() {
            if let Ok(stream) = incoming {
                if let Err(rejected) = queue.try_push(stream) {
                    // Backpressure: the queue is full, so shed immediately
                    // with 503 instead of queueing unbounded latency.
                    reject_overloaded(rejected);
                }
            }
            // Checked only once the accepted stream is queued (or shed),
            // so a client that connects just after the flag rises is
            // still answered. The shutdown worker pokes the listener with
            // a loopback connection so this check runs; the poke closes
            // without a byte, which a worker reads as no request.
            if shutdown.load(Ordering::Acquire) {
                break;
            }
        }
        // Drain the accept backlog: a connection fully established
        // before the shutdown flag rose still gets served (or an
        // explicit 503) instead of a silent reset when the listener
        // drops. Non-blocking accept empties exactly what is pending.
        listener.set_nonblocking(true).ok();
        while let Ok((stream, _)) = listener.accept() {
            if let Err(rejected) = queue.try_push(stream) {
                reject_overloaded(rejected);
            }
        }
        queue.close();
        refit_signal.stop();
    });
    Ok(())
}

/// Shed one connection the queue refused: count it and answer an
/// explicit 503 `overloaded` — both at the accept door and during the
/// post-shutdown backlog sweep, a refused client hears why instead of
/// getting a silent reset. The write is best-effort under a short
/// timeout so a slow client cannot stall the accept loop.
fn reject_overloaded(mut stream: TcpStream) {
    let obs = soulmate_obs::global();
    obs.incr("serve.rejected_overload", 1);
    obs.incr("serve.responses.5xx", 1);
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .ok();
    write_response(
        &mut stream,
        503,
        "application/json",
        &protocol::error_body("overloaded", "accept queue is full; retry"),
    )
    .ok();
    // Closing a socket with unread input answers with a reset, which can
    // destroy the 503 before the client reads it. Half-close, then
    // discard what the client already sent, without waiting for more;
    // bounded, so a client that keeps sending cannot hold the accept
    // loop.
    stream.shutdown(Shutdown::Write).ok();
    stream.set_nonblocking(true).ok();
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// Serve one connection end to end. Every failure path writes an HTTP
/// error response (best-effort — the client may already be gone) and
/// returns; nothing here panics.
fn handle_connection(ctx: &Ctx<'_>, mut stream: TcpStream) {
    let obs = soulmate_obs::global();
    let config = ctx.config;
    stream.set_read_timeout(Some(config.read_timeout)).ok();
    stream.set_write_timeout(Some(config.read_timeout)).ok();
    stream.set_nodelay(true).ok();

    let request = match read_request(&mut stream, config.max_body_bytes) {
        Ok(r) => r,
        Err(HttpError::BadRequest(why)) => {
            obs.incr("serve.requests", 1);
            respond(&mut stream, 400, &protocol::error_body("parse", &why));
            return;
        }
        Err(HttpError::PayloadTooLarge { declared, limit }) => {
            obs.incr("serve.requests", 1);
            respond(
                &mut stream,
                413,
                &protocol::error_body(
                    "payload_too_large",
                    &format!("declared body of {declared} bytes exceeds limit of {limit}"),
                ),
            );
            return;
        }
        Err(HttpError::NotImplemented(why)) => {
            obs.incr("serve.requests", 1);
            respond(
                &mut stream,
                501,
                &protocol::error_body("not_implemented", &why),
            );
            return;
        }
        // The socket died, or the client left without sending a byte:
        // there is no request and no one left to answer.
        Err(HttpError::Io(_) | HttpError::Closed) => return,
    };

    obs.incr("serve.requests", 1);
    let started = Instant::now();
    // RFC 7230 §5.3.1: the request target is path + optional query
    // (+ fragment from sloppy clients). Routes match on the path
    // component only — `POST /link?verbose=1` must reach `/link`, not
    // 404. The raw target is kept for the 404 message so a client sees
    // exactly what it sent.
    let route = request.path.split(['?', '#']).next().unwrap_or("");
    match (request.method.as_str(), route) {
        ("POST", "/link") => handle_link(ctx, &mut stream, &request),
        ("POST", "/ingest") => handle_ingest(ctx, &mut stream, &request),
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"authors\":{},\"generation\":{},\"threads\":{},\"queue_depth\":{}}}",
                ctx.cell.current().n_authors(),
                ctx.cell.generation(),
                config.threads,
                config.queue_depth
            );
            respond(&mut stream, 200, &body);
        }
        ("GET", "/metrics") => {
            let body = obs.to_json();
            respond(&mut stream, 200, &body);
        }
        ("POST", "/shutdown") => {
            respond(&mut stream, 202, "{\"status\":\"draining\"}");
            ctx.shutdown.store(true, Ordering::Release);
            // Poke the blocking accept() so it observes the flag. The
            // poke is queued like any connection and closes unsent, so
            // it counts as no request.
            // A wildcard bind (0.0.0.0 / ::) is not a connectable
            // destination everywhere, so poke via loopback on the bound
            // port instead.
            let poke = if ctx.local.ip().is_unspecified() {
                let loopback: std::net::IpAddr = match ctx.local {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                };
                SocketAddr::new(loopback, ctx.local.port())
            } else {
                ctx.local
            };
            TcpStream::connect(poke).ok();
        }
        (_, "/link" | "/ingest" | "/healthz" | "/metrics" | "/shutdown") => {
            respond(
                &mut stream,
                405,
                &protocol::error_body(
                    "method_not_allowed",
                    &format!("{} is not supported on {route}", request.method),
                ),
            );
        }
        _ => {
            respond(
                &mut stream,
                404,
                &protocol::error_body("not_found", &format!("no route for {}", request.path)),
            );
        }
    }
    obs.record("serve.request.seconds", started.elapsed().as_secs_f64());
}

/// `POST /link`: parse the NDJSON batch, answer it with one
/// `link_query_authors` call under the generation's retrieval plan
/// (`EngineMode`), and render the outcomes in request order. The whole
/// request is served from one generation pinned up front — a swap
/// mid-request cannot tear it.
fn handle_link(ctx: &Ctx<'_>, stream: &mut TcpStream, request: &Request) {
    let obs = soulmate_obs::global();
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => {
            respond(
                stream,
                400,
                &protocol::error_body("parse", "request body is not UTF-8"),
            );
            return;
        }
    };
    let queries = match protocol::parse_link_body(body) {
        Ok(q) => q,
        Err(why) => {
            respond(stream, 400, &protocol::error_body("parse", &why));
            return;
        }
    };
    if queries.is_empty() {
        respond(
            stream,
            400,
            &protocol::error_body("invalid", "empty batch: send one NDJSON query per line"),
        );
        return;
    }
    obs.record("serve.batch.size", queries.len() as f64);

    // Pin the generation for this whole request: the Arc keeps it
    // alive even if a swap retires it from the cell mid-query.
    let generation = ctx.cell.current();
    let engine = generation.engine();
    // The whole batch is one engine call — same contract as the CLI's
    // `--multi` path, so served responses stay bit-identical to it.
    match engine.link_query_authors(&queries) {
        Ok(outcomes) => {
            // Rendered straight into the response buffer: no body
            // string, no second copy.
            count_status(200);
            write_response_with(
                stream,
                200,
                "application/x-ndjson",
                protocol::rendered_capacity(&outcomes),
                |out| protocol::render_outcomes_into(out, &outcomes),
            )
            .ok();
        }
        Err(e) => {
            respond(
                stream,
                protocol::status_for(&e),
                &protocol::error_body(protocol::error_kind(&e), &e.to_string()),
            );
        }
    }
}

/// `POST /ingest`: parse the NDJSON batch of new authors, grow the
/// current generation with the frozen-embedding delta path, publish
/// the grown generation, and (when a [`RefitManager`] is attached)
/// absorb the batch toward the next full refit.
fn handle_ingest(ctx: &Ctx<'_>, stream: &mut TcpStream, request: &Request) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => {
            respond(
                stream,
                400,
                &protocol::error_body("parse", "request body is not UTF-8"),
            );
            return;
        }
    };
    let batches = match protocol::parse_ingest_body(body) {
        Ok(b) => b,
        Err(why) => {
            respond(stream, 400, &protocol::error_body("parse", &why));
            return;
        }
    };
    if batches.is_empty() {
        respond(
            stream,
            400,
            &protocol::error_body(
                "invalid",
                "empty batch: send one NDJSON author object per line",
            ),
        );
        return;
    }

    // Serialize clone-grow-publish: without this, two concurrent
    // ingests would both clone generation G and the later publish
    // would silently drop the earlier one's authors. Queries never
    // take this lock.
    let guard = ctx
        .ingest_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let generation = ctx.cell.current();
    match generation.ingest(&batches) {
        Ok((next, outcomes)) => {
            let generation = ctx.cell.publish(next);
            // Absorb under the same lock so the refit dataset grows in
            // publish order; `true` means the rebuild trigger fired.
            let refit_scheduled = ctx.refit.is_some_and(|m| m.absorb(&batches));
            drop(guard);
            if refit_scheduled {
                ctx.refit_signal.request();
            }
            respond(
                stream,
                200,
                &protocol::render_ingest_response(&outcomes, generation, refit_scheduled),
            );
        }
        Err(e) => {
            drop(guard);
            respond(
                stream,
                protocol::status_for(&e),
                &protocol::error_body(protocol::error_kind(&e), &e.to_string()),
            );
        }
    }
}

/// Write a JSON response and count it in the status-class counters.
fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    count_status(status);
    write_response(stream, status, "application/json", body).ok();
}

fn count_status(status: u16) {
    let obs = soulmate_obs::global();
    match status {
        200..=299 => obs.incr("serve.responses.2xx", 1),
        400..=499 => obs.incr("serve.responses.4xx", 1),
        _ => obs.incr("serve.responses.5xx", 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_rejects_when_full() {
        let q: ConnQueue<u32> = ConnQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // Third connection has nowhere to go: backpressure.
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_drains_then_signals_exit() {
        let q: ConnQueue<u32> = ConnQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        // Push after close is refused...
        assert_eq!(q.try_push(3), Err(3));
        // ...but queued items still drain before the exit signal.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: std::sync::Arc<ConnQueue<u32>> = std::sync::Arc::new(ConnQueue::new(4));
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q: std::sync::Arc<ConnQueue<u32>> = std::sync::Arc::new(ConnQueue::new(4));
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(50));
        q.try_push(9).unwrap();
        assert_eq!(popper.join().unwrap(), Some(9));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q: ConnQueue<u32> = ConnQueue::new(0);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }
}
