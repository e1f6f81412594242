//! Shared by the serve integration suites: the model they serve, an
//! HTTP round trip, the failpoint guard and the counter-conservation
//! check every scheduler and chaos test ends on.

#![allow(dead_code)] // each suite uses its own subset

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, PoisonError};

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{HttpClient, ServeCore};
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

/// One HTTP/1.1 round trip; returns (status, body).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    HttpClient::new(addr.to_string()).request(method, path, body).expect("HTTP exchange")
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
