//! Fixture: the site of ordering_violation, waived in lint.toml.

use std::sync::atomic::{AtomicUsize, Ordering};

pub static COUNTER: AtomicUsize = AtomicUsize::new(0);

pub fn bump() -> usize {
    COUNTER.fetch_add(1, Ordering::Relaxed)
}
