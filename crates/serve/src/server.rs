//! The TCP front end: one listener, one thread per connection,
//! `pdf-wire v1` framing over a shared [`Daemon`].
//!
//! Degradation posture (the [`ServerConfig`] knobs):
//!
//! - **Slowloris kill** — every connection gets a socket read timeout;
//!   a peer that goes quiet mid-frame is answered with
//!   `err code=timeout` and closed (`serve.conn_timeout` counts them).
//! - **Connection cap** — past [`ServerConfig::max_conns`] open
//!   connections, new ones are greeted, answered with
//!   `err code=overloaded retry-after-ms=N` and closed
//!   (`serve.conn_rejected`), so the daemon's thread count is bounded.
//! - **Spawn failure** — a connection whose thread cannot be spawned is
//!   dropped and counted (`serve.spawn_failed`), never a panic in the
//!   accept loop.
//! - **Wire faults** — with a [`FaultPlan`] installed, every socket
//!   read and write consults it (short reads, delays, mid-stream
//!   disconnects), which is how the chaos soak exercises all of the
//!   above on a reproducible schedule.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pdf_chaos::{ChaosReader, ChaosWriter, FaultPlan, OpKind};

use crate::daemon::{Daemon, ServeError};
use crate::wire::{
    read_capped_line, status_fields, CampaignStatus, Request, Response, WireError, WIRE_HEADER,
};

/// How often `watch` polls the campaign it is streaming.
const WATCH_POLL: Duration = Duration::from_millis(25);

/// Retry hint handed to connections rejected over the cap.
const REJECT_RETRY_MS: u64 = 100;

/// Front-end robustness knobs; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket read timeout per connection: how long a peer may sit
    /// silent before it is answered `err code=timeout` and closed.
    /// `None` waits forever (the pre-hardening behavior; tests only).
    pub read_timeout: Option<Duration>,
    /// Maximum simultaneously open connections; the rest are shed.
    pub max_conns: usize,
    /// Wire fault-injection plan for chaos testing; `None` (production)
    /// injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            max_conns: 64,
            faults: None,
        }
    }
}

/// State shared between the server handle, the accept thread and every
/// connection thread.
#[derive(Debug)]
struct Shared {
    daemon: Arc<Daemon>,
    cfg: ServerConfig,
    stopping: AtomicBool,
    /// Open connections right now, for the admission cap.
    active: AtomicUsize,
    /// One clone of every open connection's stream keyed by connection
    /// id, so [`Server::stop`] can force-unblock readers.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Shared {
    fn finish(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        *self.done.lock().expect("server state poisoned") = true;
        self.done_cv.notify_all();
    }

    /// Drops (and shuts down) the registered clone of connection `id`.
    /// Without this, a connection the *server* closes first lingers
    /// half-open behind the clone — the peer never sees EOF — and a
    /// long-lived daemon leaks one fd per connection ever served.
    fn release(&self, id: u64) {
        let mut conns = self.conns.lock().expect("server state poisoned");
        if let Some(i) = conns.iter().position(|(cid, _)| *cid == id) {
            let (_, stream) = conns.swap_remove(i);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A listening `pdf-wire v1` server over a [`Daemon`].
///
/// Dropping the server (or calling [`stop`](Server::stop)) closes the
/// listener and every open connection; it does **not** shut the daemon
/// down — callers decide whether the daemon outlives its socket. The
/// wire `shutdown` command does both: it gracefully stops the daemon,
/// marks the server finished, and wakes
/// [`wait_shutdown`](Server::wait_shutdown).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections with the default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// I/O errors from the bind.
    pub fn start(daemon: Arc<Daemon>, addr: &str) -> std::io::Result<Server> {
        Server::start_with(daemon, addr, ServerConfig::default())
    }

    /// [`start`](Server::start) with explicit robustness knobs.
    ///
    /// # Errors
    ///
    /// I/O errors from the bind.
    pub fn start_with(
        daemon: Arc<Daemon>,
        addr: &str,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            daemon,
            cfg,
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pdf-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (the real port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon this server fronts.
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.shared.daemon
    }

    /// Blocks until a wire `shutdown` command (or [`stop`](Server::stop))
    /// closes the server.
    pub fn wait_shutdown(&self) {
        let mut finished = self.shared.done.lock().expect("server state poisoned");
        while !*finished {
            finished = self
                .shared
                .done_cv
                .wait(finished)
                .expect("server state poisoned");
        }
    }

    /// Stops the server: closes every open connection (unblocking their
    /// reader threads), stops accepting, and joins the accept thread.
    /// Idempotent; does not touch the daemon.
    pub fn stop(&mut self) {
        self.shared.finish();
        // Force-close open connections so their threads stop waiting on
        // clients that may never send another byte.
        for (_, s) in self
            .shared
            .conns
            .lock()
            .expect("server state poisoned")
            .drain(..)
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            h.join().expect("accept thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Greets, sheds and closes a connection that arrived over the cap.
fn reject_connection(mut stream: TcpStream) {
    let resp = Response::Err {
        code: "overloaded".to_string(),
        retry_after_ms: Some(REJECT_RETRY_MS),
        msg: "connection limit reached".to_string(),
    };
    let _ = writeln!(stream, "{WIRE_HEADER}");
    let _ = stream.write_all(resp.encode().as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_conns {
            shared.daemon.registry().serve_conn_rejected.inc();
            reject_connection(stream);
            continue;
        }
        let conn_id = next_conn;
        next_conn += 1;
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("server state poisoned")
                .push((conn_id, clone));
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("pdf-serve-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &conn_shared);
                conn_shared.release(conn_id);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(h) => threads.push(h),
            Err(_) => {
                // Thread exhaustion: shed this connection instead of
                // panicking the accept loop; the counter tells the
                // operator why clients saw a drop.
                shared.release(conn_id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.daemon.registry().serve_spawn_failed.inc();
            }
        }
        // Reap finished connection threads so a long-lived daemon does
        // not accumulate handles.
        threads.retain(|h| !h.is_finished());
    }
    // Streams were force-closed by stop(); the threads are unblocked.
    for h in threads {
        let _ = h.join();
    }
}

fn err_response(e: &ServeError) -> Response {
    let (code, retry_after_ms) = match e {
        ServeError::NoSuchCampaign(_) => ("no-such-campaign", None),
        ServeError::Illegal(_) => ("illegal-transition", None),
        ServeError::UnknownSubject(_) => ("unknown-subject", None),
        ServeError::BadSpec(_) => ("bad-spec", None),
        ServeError::Stopping => ("stopping", None),
        ServeError::Overloaded { retry_after_ms } => ("overloaded", Some(*retry_after_ms)),
        ServeError::Unavailable { retry_after_ms } => ("unavailable", Some(*retry_after_ms)),
    };
    Response::Err {
        code: code.to_string(),
        retry_after_ms,
        msg: e.to_string(),
    }
}

fn phase_ok(id: u64, result: Result<crate::lifecycle::Phase, ServeError>) -> Response {
    match result {
        Ok(phase) => Response::Ok(vec![
            ("id".to_string(), id.to_string()),
            ("state".to_string(), phase.name().to_string()),
        ]),
        Err(e) => err_response(&e),
    }
}

fn status_or_missing(daemon: &Daemon, id: u64) -> Result<CampaignStatus, Response> {
    daemon
        .status(id)
        .ok_or_else(|| err_response(&ServeError::NoSuchCampaign(id)))
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let daemon = &*shared.daemon;
    stream.set_read_timeout(shared.cfg.read_timeout)?;
    stream.set_nodelay(true)?;
    let plan = shared.cfg.faults.clone();
    let mut writer = ChaosWriter::new(stream.try_clone()?, plan.clone(), OpKind::WireWrite);
    writeln!(writer, "{WIRE_HEADER}")?;
    writer.flush()?;
    let mut reader = BufReader::new(ChaosReader::new(stream, plan, OpKind::WireRead));
    loop {
        let line = match read_capped_line(&mut reader) {
            Ok(line) => line,
            Err(WireError::UnexpectedEof) => return Ok(()),
            Err(WireError::Timeout) => {
                // Slowloris defense: the peer went silent mid-session.
                daemon.registry().serve_conn_timeouts.inc();
                let resp = Response::err("timeout", "no complete frame before read timeout");
                let _ = writer.write_all(resp.encode().as_bytes());
                let _ = writer.flush();
                return Ok(());
            }
            Err(e) => {
                let resp = Response::err("bad-request", e.to_string());
                writer.write_all(resp.encode().as_bytes())?;
                writer.flush()?;
                return Ok(());
            }
        };
        let request = match Request::decode(&line) {
            Ok(req) => req,
            Err(WireError::Empty) => continue,
            Err(e) => {
                let resp = Response::err("bad-request", e.to_string());
                writer.write_all(resp.encode().as_bytes())?;
                writer.flush()?;
                continue;
            }
        };
        let mut quit = false;
        match request {
            Request::Submit(spec) => {
                let resp = match daemon.submit(spec) {
                    Ok(id) => Response::Ok(vec![("id".to_string(), id.to_string())]),
                    Err(e) => err_response(&e),
                };
                writer.write_all(resp.encode().as_bytes())?;
            }
            Request::Status { id } => {
                let resp = match status_or_missing(daemon, id) {
                    Ok(s) => Response::Ok(status_fields(&s)),
                    Err(resp) => resp,
                };
                writer.write_all(resp.encode().as_bytes())?;
            }
            Request::Pause { id } => {
                writer.write_all(phase_ok(id, daemon.pause(id)).encode().as_bytes())?;
            }
            Request::Resume { id } => {
                writer.write_all(phase_ok(id, daemon.resume(id)).encode().as_bytes())?;
            }
            Request::Cancel { id } => {
                writer.write_all(phase_ok(id, daemon.cancel(id)).encode().as_bytes())?;
            }
            Request::List => {
                let all = daemon.list();
                for s in &all {
                    writer.write_all(Response::Item(status_fields(s)).encode().as_bytes())?;
                }
                let end = Response::End(vec![("n".to_string(), all.len().to_string())]);
                writer.write_all(end.encode().as_bytes())?;
            }
            Request::Watch { id } => match status_or_missing(daemon, id) {
                Err(resp) => writer.write_all(resp.encode().as_bytes())?,
                Ok(mut last) => {
                    writer.write_all(Response::Item(status_fields(&last)).encode().as_bytes())?;
                    writer.flush()?;
                    while !last.phase.is_terminal() && !shared.stopping.load(Ordering::SeqCst) {
                        std::thread::sleep(WATCH_POLL);
                        let now = match status_or_missing(daemon, id) {
                            Ok(s) => s,
                            Err(_) => break,
                        };
                        if now != last {
                            last = now;
                            if !last.phase.is_terminal() {
                                writer.write_all(
                                    Response::Item(status_fields(&last)).encode().as_bytes(),
                                )?;
                                writer.flush()?;
                            }
                        }
                    }
                    writer.write_all(Response::End(status_fields(&last)).encode().as_bytes())?;
                }
            },
            Request::Metrics => {
                let text = daemon.registry().snapshot().encode();
                let lines = text.lines().map(str::to_string).collect();
                writer.write_all(Response::Blob(lines).encode().as_bytes())?;
            }
            Request::Ping => {
                let resp = Response::Ok(vec![("pong".to_string(), "1".to_string())]);
                writer.write_all(resp.encode().as_bytes())?;
            }
            Request::Shutdown => {
                let resp = Response::Ok(vec![("stopping".to_string(), "1".to_string())]);
                writer.write_all(resp.encode().as_bytes())?;
                writer.flush()?;
                daemon.shutdown();
                shared.finish();
                quit = true;
            }
        }
        writer.flush()?;
        if quit {
            return Ok(());
        }
    }
}
