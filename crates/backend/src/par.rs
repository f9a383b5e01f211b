//! Minimal scoped-thread parallel map.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! the sweep harness fans work out with `std::thread::scope`: a shared
//! atomic cursor hands item indices to worker threads, each thread keeps
//! its `(index, result)` pairs, and the joined chunks are scattered back
//! into item order. Output order therefore equals input order regardless
//! of thread count or scheduling — the property the sweep determinism
//! guarantee rests on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, using up to `threads` OS threads, and
/// returns the results in input order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or a single item)
/// the map runs inline on the caller's thread with no synchronisation.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut chunk = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        chunk.push((i, f(i, item)));
                    }
                    chunk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in chunks.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

/// The default worker-thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    picos_runtime::par::available_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7, 64] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u32], 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        let items: Vec<u32> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        par_map(&items, 4, |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            ids.into_inner().unwrap().len() > 1,
            "expected >1 worker thread"
        );
    }

    #[test]
    fn results_with_heap_allocations_survive() {
        // Owned values must move intact across the thread boundary and
        // back into their items' positions.
        let items: Vec<u32> = (0..50).collect();
        let out = par_map(&items, 4, |i, &x| vec![x; i % 3 + 1]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 3 + 1);
            assert!(v.iter().all(|&x| x == i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, 4, |i, _| {
            if i == 3 {
                panic!("boom");
            }
        });
    }
}
