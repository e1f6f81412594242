//! The two stop modes of [`gobo_serve::Listener`] and the edges of its
//! blocking accept — `stop` has to get a thread out of `accept` that no
//! client may ever have woken — each forced with channels and barriers
//! rather than sleeps.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use gobo_serve::Listener;

/// Far beyond anything `stop` legitimately takes; reaching it is the
/// hang these tests exist to catch.
const HANG: Duration = Duration::from_secs(10);

/// Runs `stop` on its own thread and fails if it does not return.
fn stop_returns(mut listener: Listener, first: Shutdown) -> Listener {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        listener.stop(first);
        let _ = done_tx.send(listener);
    });
    done_rx.recv_timeout(HANG).expect("Listener::stop hung in its blocking accept")
}

/// A listener that counts the connections handed to its handler.
fn counting_listener(addr: &str) -> (Listener, Arc<AtomicUsize>) {
    let handled = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&handled);
    let listener = Listener::spawn(addr, "t-accept", move |_stream| {
        counter.fetch_add(1, Ordering::SeqCst);
    })
    .expect("spawn");
    (listener, handled)
}

/// `stop` wakes an accept thread no client ever woke, and the
/// connection it wakes it with is not served: the handler count stays
/// zero. A second `stop` finds nothing left to wake and returns too.
#[test]
fn stop_returns_without_any_connection_and_the_wake_is_not_served() {
    for first in [Shutdown::Read, Shutdown::Both] {
        let (listener, handled) = counting_listener("127.0.0.1:0");
        let listener = stop_returns(listener, first);
        assert_eq!(handled.load(Ordering::SeqCst), 0, "the wake connection reached on_conn");
        let listener = stop_returns(listener, first);
        drop(listener); // a third, hard stop
        assert_eq!(handled.load(Ordering::SeqCst), 0);
    }
}

/// A wildcard bind address is not a connect destination everywhere, so
/// the wake goes to loopback on the bound port.
#[test]
fn stop_returns_on_a_wildcard_bind() {
    for addr in ["0.0.0.0:0", "[::]:0"] {
        let Ok(listener) = Listener::spawn(addr, "t-accept", |_stream| {}) else {
            assert_ne!(addr, "0.0.0.0:0", "IPv4 wildcard must bind");
            continue; // no IPv6 on this host
        };
        assert!(listener.local_addr().ip().is_unspecified());
        stop_returns(listener, Shutdown::Read);
    }
}

/// A client connecting at the very moment of `stop` is either served in
/// full or sees its connection closed — whichever side of the stop flag
/// its accept fell on — and never waits on a socket nobody will answer.
#[test]
fn a_connection_racing_stop_is_served_or_closed_never_hung() {
    let (mut served, mut closed) = (0, 0);
    for _ in 0..40 {
        let mut listener = Listener::spawn("127.0.0.1:0", "t-accept", |mut stream| {
            let mut request = [0u8; 4];
            if stream.read_exact(&mut request).is_ok() {
                let _ = stream.write_all(b"pong");
            }
            let _ = stream.shutdown(Shutdown::Both);
        })
        .expect("spawn");
        let addr = listener.local_addr();
        let start = Arc::new(Barrier::new(2));
        let client = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || -> std::io::Result<Vec<u8>> {
                start.wait();
                let mut stream = TcpStream::connect(addr)?;
                stream.set_read_timeout(Some(HANG))?;
                stream.write_all(b"ping")?;
                let mut response = Vec::new();
                stream.read_to_end(&mut response)?;
                Ok(response)
            })
        };
        start.wait();
        listener.stop(Shutdown::Read);
        match client.join().expect("client") {
            Ok(response) if response == b"pong" => served += 1,
            Ok(response) => {
                assert!(response.is_empty(), "half an answer: {response:?}");
                closed += 1;
            }
            // Refused (listener already gone) or reset (accepted after
            // the flag, or left in the backlog): closed, not hung.
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "client hung until its read timeout: {e}"
                );
                closed += 1;
            }
        }
    }
    assert_eq!(served + closed, 40);
}

/// An `accept` that *fails* (descriptor exhaustion: the error repeats
/// at once for as long as its cause lasts) is retried after a short
/// pause, not in a spin, and the listener serves again once the cause
/// is gone. The `serve.listener.accept` failpoint stands in for the
/// error and counts the attempts.
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    let _guard = common::FaultGuard::lock();
    gobo_fault::configure_str("serve.listener.accept=error").unwrap();
    let (handled_tx, handled_rx) = mpsc::channel();
    let handled_tx = Mutex::new(handled_tx);
    let listener = Listener::spawn("127.0.0.1:0", "t-accept", move |_stream| {
        handled_tx.lock().expect("unpoisoned").send(()).expect("announce");
    })
    .expect("spawn");
    let _client = TcpStream::connect(listener.local_addr()).expect("connect (queued)");

    // The measured quantity is attempts per unit time, so time has to
    // pass: a spinning loop makes hundreds of thousands of attempts in
    // this window, a backed-off one a dozen per listener alive in this
    // process.
    let window = Duration::from_millis(60);
    let started = Instant::now();
    while started.elapsed() < window {
        std::thread::yield_now();
    }
    let attempts = gobo_fault::fires("serve.listener.accept");
    assert!(attempts >= 1, "the accept loop never ran");
    assert!(attempts < 1_000, "{attempts} failed accepts in {window:?}: the loop is spinning");
    assert!(handled_rx.try_recv().is_err(), "a failed accept produced a connection");

    gobo_fault::reset();
    handled_rx.recv_timeout(HANG).expect("the queued connection is served once accept works");
    stop_returns(listener, Shutdown::Both);
}

/// Graceful stop: a response being written when `stop` is called
/// arrives complete. The handler announces it is mid-response and
/// finishes writing only after reading EOF, i.e. once `stop` has closed
/// the read half of its socket.
#[test]
fn stop_read_lets_an_in_flight_response_finish() {
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let resume_rx = Mutex::new(resume_rx); // `Receiver` is not `Sync`
    let mut listener = Listener::spawn("127.0.0.1:0", "t-accept", move |mut stream| {
        let mut request = [0u8; 4];
        stream.read_exact(&mut request).expect("request");
        stream.write_all(b"first half, ").expect("first half");
        started_tx.send(()).expect("announce");
        resume_rx.lock().expect("unpoisoned").recv().expect("resume");
        assert_eq!(stream.read(&mut request).expect("eof"), 0);
        stream.write_all(b"second half").expect("second half");
    })
    .expect("spawn");

    let mut client = TcpStream::connect(listener.local_addr()).expect("connect");
    client.write_all(b"ping").expect("send");
    started_rx.recv().expect("handler mid-response");
    let stopper = std::thread::spawn(move || listener.stop(Shutdown::Read));
    resume_tx.send(()).expect("resume handler");
    let mut response = String::new();
    client.read_to_string(&mut response).expect("response");
    assert_eq!(response, "first half, second half");
    stopper.join().expect("stop");
}

/// Hard stop: a peer blocked reading an answer is released by
/// `stop(Both)` while the handler is still parked away from its socket
/// (as a partitioned cluster node is) — `stop(Read)` would leave the
/// peer waiting for the handler to finish.
#[test]
fn stop_both_releases_a_blocked_peer_read() {
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let mut listener = Listener::spawn("127.0.0.1:0", "t-accept", move |mut stream| {
        stream.read_exact(&mut [0u8; 4]).expect("request");
        parked_tx.send(()).expect("announce");
        release_rx.lock().expect("unpoisoned").recv().expect("release");
    })
    .expect("spawn");

    let mut client = TcpStream::connect(listener.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    client.write_all(b"ping").expect("send");
    parked_rx.recv().expect("handler parked");
    let stopper = std::thread::spawn(move || listener.stop(Shutdown::Both));
    // EOF while the handler is still parked; a timeout error fails.
    assert_eq!(client.read(&mut [0u8; 1]).expect("released, not timed out"), 0);
    release_tx.send(()).expect("release handler");
    stopper.join().expect("stop");
}
