//! Fixture: an `Ordering::Relaxed` with no `// ORDERING:` justification.

use std::sync::atomic::{AtomicUsize, Ordering};

pub static COUNTER: AtomicUsize = AtomicUsize::new(0);

pub fn bump() -> usize {
    COUNTER.fetch_add(1, Ordering::Relaxed)
}
