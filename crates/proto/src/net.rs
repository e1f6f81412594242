//! Connection discipline shared by every protocol client.
//!
//! A node restart looks like `ConnectionRefused` for the few
//! milliseconds between the old listener dying and the new one
//! binding. Those failures happen *before any bytes are written*, so
//! retrying them is always safe — the request was never seen by the
//! peer. [`connect_retry`] retries exactly that class of failure with
//! capped exponential backoff plus deterministic [`splitmix64`] jitter
//! (same seed → same schedule, so chaos runs replay).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gobo_fault::splitmix64;

/// Retry schedule for transient connect failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connect attempts (1 = no retry).
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per attempt.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed; a fixed seed replays the same sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0x60B0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }

    /// The sleep before attempt `attempt + 1` (0-based): capped
    /// exponential with deterministic jitter in `[0, backoff/2)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
        let capped = exp.min(self.cap);
        let half = capped / 2;
        if half.is_zero() {
            return capped;
        }
        let jitter_us = splitmix64(self.seed ^ u64::from(attempt)) % half.as_micros().max(1) as u64;
        (capped - half).saturating_add(Duration::from_micros(jitter_us))
    }

    /// Whether an I/O error kind is a *transient connect* failure —
    /// one that happened before any bytes were written, so a retry can
    /// never duplicate work on the peer.
    pub fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
        )
    }
}

fn resolve_one(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("address `{addr}` resolved to nothing"))
    })
}

/// Connect to `addr`, retrying transient failures (refused / reset /
/// aborted — all strictly before any bytes are written) according to
/// `policy`. Non-transient errors and exhausted attempts return the
/// last error.
pub fn connect_retry(
    addr: &str,
    connect_timeout: Duration,
    policy: &RetryPolicy,
) -> io::Result<TcpStream> {
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(policy.backoff(attempt - 1));
        }
        // Re-resolve each attempt: a restarting node may come back on a
        // fresh address record.
        let sockaddr = resolve_one(addr)?;
        match TcpStream::connect_timeout(&sockaddr, connect_timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) if RetryPolicy::is_transient(e.kind()) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("connect_retry: no attempts made")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        for attempt in 0..10 {
            let a = p.backoff(attempt);
            let b = p.backoff(attempt);
            assert_eq!(a, b, "same attempt must give the same sleep");
            assert!(a <= p.cap, "backoff {a:?} exceeds cap {:?}", p.cap);
        }
        // Different seeds shift the jitter.
        let p2 = RetryPolicy { seed: 99, ..p };
        assert!((0..10).any(|i| p.backoff(i) != p2.backoff(i)));
    }

    #[test]
    fn backoff_grows_until_cap() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(4),
            cap: Duration::from_millis(64),
            seed: 1,
        };
        // Floor of the jittered range is capped/2; the floor itself
        // must be monotone non-decreasing up to the cap.
        let floors: Vec<Duration> = (0..8)
            .map(|i| {
                let exp = p.base.saturating_mul(1 << i);
                exp.min(p.cap) / 2
            })
            .collect();
        for w in floors.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*floors.last().unwrap(), p.cap / 2);
    }

    #[test]
    fn connect_succeeds_against_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stream = connect_retry(&addr, Duration::from_secs(1), &RetryPolicy::default());
        assert!(stream.is_ok(), "{stream:?}");
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        // Reserve a port, free it, then bind it back after a delay from
        // another thread: the first attempts get ConnectionRefused and
        // the retry loop must ride them out.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let listener = TcpListener::bind(addr).expect("rebind reserved port");
            // Hold the listener long enough for the connect to land.
            let _ = listener.accept();
        });
        let policy = RetryPolicy {
            attempts: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
            seed: 7,
        };
        let result = connect_retry(&addr.to_string(), Duration::from_secs(1), &policy);
        assert!(result.is_ok(), "{result:?}");
        drop(result);
        handle.join().unwrap();
    }

    #[test]
    fn permanent_refusal_exhausts_attempts() {
        // Bind-then-drop: nothing listens on this port now.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 3,
        };
        let result = connect_retry(&addr, Duration::from_millis(200), &policy);
        assert!(result.is_err());
    }

    #[test]
    fn unresolvable_address_fails_fast() {
        let result = connect_retry(
            "definitely-not-a-host.invalid:1",
            Duration::from_millis(100),
            &RetryPolicy::default(),
        );
        assert!(result.is_err());
    }
}
