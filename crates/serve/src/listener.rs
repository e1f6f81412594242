//! The one TCP accept loop, shared by the HTTP front ends
//! ([`crate::http::Front`]) and the cluster node's protocol port.
//!
//! The accept thread blocks in `accept`, so a fresh connection reaches
//! its handler the moment the kernel has it. `stop` gets the thread out
//! of that call by raising a flag and then connecting to the listener's
//! own port once; whatever `accept` returns after the flag is up — the
//! wake itself or a client that raced it — is dropped unserved. Each
//! accepted connection is handled on its own thread, and a clone of its
//! socket is kept so teardown can shut the stream down under a peer that
//! holds it open instead of riding out a read timeout.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gobo_sanitize::SanMutex;

/// Pause after a *failed* `accept` (descriptor exhaustion and the
/// like): the error repeats at once while its cause lasts, so retrying
/// without a pause would spin a core. Never taken on success.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

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
        let local_addr = listener.local_addr()?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let connections: ConnectionSet =
            Arc::new(SanMutex::new("serve.listener.connections", 11, Vec::new()));
        let on_conn = Arc::new(on_conn);

        let accept_thread = {
            let accept_stop = Arc::clone(&accept_stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new().name(thread_name.to_owned()).spawn(move || loop {
                gobo_sanitize::blocking_io("serve.listener.accept");
                let accepted = accept(&listener);
                // Checked after every return from `accept`, before the
                // result is looked at: nothing accepted once `stop`
                // began reaches a handler, the wake least of all.
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = accepted else {
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                };
                let Ok(tracked) = stream.try_clone() else {
                    continue;
                };
                let on_conn = Arc::clone(&on_conn);
                let handle = std::thread::spawn(move || on_conn(stream));
                let mut conns = connections.lock();
                // Reap finished handlers so the vector does not grow
                // with every connection.
                conns.retain(|(h, _)| !h.is_finished());
                conns.push((handle, tracked));
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
        if let Some(handle) = self.accept_thread.take() {
            self.accept_stop.store(true, Ordering::Release);
            // One connection to our own port (on loopback when bound
            // to a wildcard, which is not a destination everywhere)
            // returns the blocked `accept`. If it cannot be made within
            // a second — no descriptor left, say — the thread is
            // detached to exit on the next connection that does arrive:
            // joining it here could block for ever.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                let loopback: IpAddr = if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                };
                wake.set_ip(loopback);
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = handle.join();
            }
        }
        let conns: Vec<(JoinHandle<()>, TcpStream)> = self.connections.lock().drain(..).collect();
        for (handle, stream) in conns {
            let _ = stream.shutdown(first);
            let _ = handle.join();
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// One blocking `accept`; the failpoint stands in for the errors it can
/// return while the listener itself stays good (`EMFILE`, `ENOBUFS`).
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    gobo_fault::fail_point!("serve.listener.accept", std::io::Error::other("injected fault"));
    listener.accept().map(|(stream, _)| stream)
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop(Shutdown::Both);
    }
}
