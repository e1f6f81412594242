//! The two stop modes of [`gobo_serve::Listener`], each forced with
//! channels rather than sleeps.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use gobo_serve::Listener;

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
