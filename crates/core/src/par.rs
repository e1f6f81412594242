//! Bounded parallel mapping for per-layer work.
//!
//! Model quantization used to spawn one OS thread per layer, which on
//! BERT-scale models means 70+ threads fighting over a handful of
//! cores. Here the thread count is the host's available parallelism at
//! most, whatever the layer count, and the threads live only as long as
//! the call: this is the one level at which quantization uses the
//! cores — a layer itself is swept serially (`gobo_quant::kernel`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `work` over `items` on up to `available_parallelism` scoped
/// threads — the caller is one of them, so a one-core host or a single
/// item runs inline — and returns the results **in input order**. A
/// panicking task's payload is re-raised here once every thread has
/// stopped.
///
/// Items are handed out largest-first (by `size_of`): with a bounded
/// number of workers, starting the long-pole layers first minimizes the
/// tail where one worker grinds through a big FFN layer while the rest
/// sit idle.
pub(crate) fn par_map_largest_first<T, R, F>(
    items: &[T],
    size_of: impl Fn(&T) -> usize,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(size_of(&items[i])));

    // The map span lives on the calling thread and covers the spawns,
    // the caller's own share and the joins; each task records its own
    // span on whichever thread ran it, so a trace shows the schedule
    // laid out per thread.
    let _map_span = gobo_obs::span!("gobo.par.map", tasks = items.len());
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        // ORDERING: Relaxed — the cursor only hands out distinct
        // positions of `order`; results travel back through `join`.
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let _task_span = gobo_obs::span!("gobo.par.task", index = i);
            done.push((i, work(&items[i])));
        }
        done
    };

    let workers = thread::available_parallelism().map_or(1, usize::from).min(items.len());
    let mut done = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                thread::Builder::new()
                    .name(format!("gobo-par-{w}"))
                    .spawn_scoped(s, drain)
                    .expect("failed to spawn a quantization worker")
            })
            .collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // Every index was handed out exactly once; back to input order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map_largest_first(&items, |&n| n, |&n| n * 3);
        assert_eq!(out, items.iter().map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_propagates_its_payload() {
        let items: Vec<usize> = (0..20).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_largest_first(&items, |&n| n, |&n| assert!(n != 7, "task {n} failed"))
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 7 failed"));
    }

    #[test]
    fn runs_on_bounded_pool() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..200).collect();
        par_map_largest_first(
            &items,
            |_| 1,
            |_| {
                seen.lock().unwrap().insert(thread::current().id());
            },
        );
        let bound = thread::available_parallelism().map_or(1, usize::from);
        assert!(seen.lock().unwrap().len() <= bound);
    }
}
