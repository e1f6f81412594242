//! Shared by the serve integration suites: the model they serve, a raw
//! HTTP round trip, the failpoint guard and the counter-conservation
//! check every scheduler and chaos test ends on.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::ServeCore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The suites' model: a one-layer, 16-wide tiny encoder with its
/// weights drawn from `seed`, quantized to 3 bits.
pub fn compressed(seed: u64) -> CompressedModel {
    compressed_at(seed, 3)
}

/// [`compressed`] quantized to `bits`: one `seed`, one set of weights.
pub fn compressed_at(seed: u64, bits: u8) -> CompressedModel {
    let config = ModelConfig::tiny("Serve", 1, 16, 2, 40, 12).unwrap();
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
    let outcome = quantize_model(&model, &QuantizeOptions::gobo(bits).unwrap()).unwrap();
    CompressedModel::new(&model, outcome.archive)
}

/// One raw HTTP/1.1 round trip; returns (status, body).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, payload)
}

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// `gobo-fault`'s failpoint registry is process-global, so every test
/// that arms a failpoint — or that must not be hit by a neighbour's —
/// serializes on this guard, which resets the registry on entry and on
/// exit (even when the test panics).
pub struct FaultGuard(MutexGuard<'static, ()>);

impl FaultGuard {
    pub fn lock() -> Self {
        gobo_fault::install_panic_silencer();
        let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        gobo_fault::reset();
        FaultGuard(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        gobo_fault::reset();
    }
}

/// Drains `core` and asserts the laws its counters obey once nothing is
/// in flight ([`ServeCore::check_counter_laws`]).
pub fn shutdown_and_check_counters(core: &ServeCore) {
    core.shutdown();
    core.check_counter_laws().unwrap();
}
