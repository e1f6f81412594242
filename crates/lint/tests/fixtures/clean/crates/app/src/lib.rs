//! Fixture: every rule satisfied — commented orderings, well-formed
//! names, std-only deps.

use std::sync::atomic::{AtomicUsize, Ordering};

macro_rules! span {
    ($name:expr) => {
        $name
    };
}

macro_rules! fail_point {
    ($name:expr) => {
        $name
    };
}

pub static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn render_prometheus(name: &str) -> String {
    name.to_owned()
}

pub fn bump() -> usize {
    // ORDERING: Relaxed — a statistics counter with no ordering needs.
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

pub fn traced(values: &[u32]) -> Option<String> {
    let _s = span!("app.work");
    let _f = fail_point!("app.io.read");
    let first = values.first()?;
    Some(render_prometheus("gobo_work_us") + &first.to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_allowed_here() {
        assert_eq!(super::traced(&[7]).unwrap(), "gobo_work_us7");
    }
}
