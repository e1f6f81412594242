//! The one TCP accept loop, shared by the HTTP front ends
//! ([`crate::HttpListener`]) and the cluster node's protocol port.
//!
//! The listening socket runs non-blocking with a short poll so `stop`
//! can interrupt `accept`; each accepted connection is handled on its
//! own thread, and a clone of its socket is kept so teardown can shut
//! the stream down under a peer that holds it open instead of riding
//! out a read timeout.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gobo_sanitize::SanMutex;

/// Poll interval of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Live connections: each handler's join handle plus a tracked clone
/// of its socket.
type ConnectionSet = Arc<SanMutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A bound, accepting TCP listener. Owns the accept thread and every
/// per-connection thread; [`Listener::stop`] (or dropping it, which is
/// a hard stop) shuts the sockets down and joins them all.
pub struct Listener {
    local_addr: SocketAddr,
    accept_stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: ConnectionSet,
}

impl Listener {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting on a
    /// thread named `thread_name`; `on_conn` runs once per connection,
    /// on that connection's own thread. Because the listener keeps a
    /// clone of the socket, a handler whose peer must see EOF when it
    /// returns shuts the stream down itself.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn spawn(
        addr: &str,
        thread_name: &str,
        on_conn: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let connections: ConnectionSet =
            Arc::new(SanMutex::new("serve.listener.connections", 11, Vec::new()));
        let on_conn = Arc::new(on_conn);

        let accept_thread = {
            let accept_stop = Arc::clone(&accept_stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new().name(thread_name.to_owned()).spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    gobo_sanitize::blocking_io("serve.listener.accept");
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let tracked = match stream.try_clone() {
                                Ok(clone) => clone,
                                Err(_) => continue,
                            };
                            let on_conn = Arc::clone(&on_conn);
                            let handle = std::thread::spawn(move || on_conn(stream));
                            let mut conns = connections.lock();
                            // Reap finished handlers so the vector
                            // does not grow with every connection.
                            conns.retain(|(h, _)| !h.is_finished());
                            conns.push((handle, tracked));
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })?
        };

        Ok(Listener { local_addr, accept_stop, accept_thread: Some(accept_thread), connections })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, shuts down every tracked socket — `first`
    /// before its handler is joined, both halves after — and joins all
    /// threads. Idempotent.
    ///
    /// `Shutdown::Read` is the graceful stop: a handler parked in a
    /// read sees EOF and exits, while one mid-response (e.g. the
    /// `/v1/shutdown` acknowledgement that triggered the teardown)
    /// still finishes its write. `Shutdown::Both` is the hard kill: a
    /// peer blocked reading an answer is released at once.
    pub fn stop(&mut self, first: Shutdown) {
        self.accept_stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let conns: Vec<(JoinHandle<()>, TcpStream)> = self.connections.lock().drain(..).collect();
        for (handle, stream) in conns {
            let _ = stream.shutdown(first);
            let _ = handle.join();
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop(Shutdown::Both);
    }
}
