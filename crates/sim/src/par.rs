//! The one worker pool every fan-out in the simulator goes through.
//!
//! [`map`] runs a closure over a slice of items on up to `threads`
//! scoped workers. Workers claim items by an atomic index, so one slow
//! item never idles the others. Every call runs under `catch_unwind`, and
//! the results come back in index order, a panic returned as that item's
//! error. With `threads <= 1` or a single item everything runs inline on
//! the caller's thread, still isolated.
//!
//! Engine shards, cascade waves, mapper candidates and `teaal batch`
//! requests all fan out through it, so each of them runs at most
//! `threads` items at once and isolates panics the same way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::panic_message;

/// Applies `f` to every item on up to `threads` workers and returns the
/// results in index order. An item whose call panicked comes back as
/// `Err` carrying the rendered panic payload ([`panic_message`]); the
/// other items are unaffected.
///
/// # Examples
///
/// ```
/// let squares = teaal_sim::par::map(&[1u64, 2, 3], 2, |&x| {
///     if x == 2 {
///         panic!("two is unlucky");
///     }
///     x * x
/// });
/// assert_eq!(squares[0], Ok(1));
/// assert_eq!(squares[1], Err("two is unlucky".to_string()));
/// assert_eq!(squares[2], Ok(9));
/// ```
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(&*p));
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(run).collect();
    }
    // `Relaxed` suffices: the index publishes no data, and each worker's
    // results come back through `join`.
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, run(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool workers catch every item's panic"))
            .collect()
    });
    let mut slots: Vec<Option<Result<R, String>>> = items.iter().map(|_| None).collect();
    for (i, r) in claimed.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_index_order() {
        let items: Vec<u64> = (0..13).collect();
        for threads in [1, 2, 4] {
            let out = map(&items, threads, |&x| {
                // Early items finish last, so completion order is not
                // index order.
                std::thread::sleep(Duration::from_micros(200 * (13 - x)));
                x * 10
            });
            let out: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(
                out,
                (0..13).map(|x| x * 10).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn never_runs_more_than_threads_items_at_once() {
        let items: Vec<usize> = (0..24).collect();
        for threads in [1, 2, 4] {
            let running = AtomicUsize::new(0);
            let high = AtomicUsize::new(0);
            map(&items, threads, |_| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                high.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            });
            let high = high.into_inner();
            assert!(high >= 1 && high <= threads, "{high} at {threads} threads");
        }
    }

    #[test]
    fn a_panicking_item_fails_alone() {
        let items: Vec<u32> = (0..6).collect();
        // Threads 1 runs inline; 3 runs on workers.
        for threads in [1, 3] {
            let out = map(&items, threads, |&x| {
                if x == 4 {
                    panic!("item {x} exploded");
                }
                x + 1
            });
            for (i, r) in out.iter().enumerate() {
                if i == 4 {
                    assert_eq!(r, &Err("item 4 exploded".to_string()), "{threads}");
                } else {
                    assert_eq!(r, &Ok(i as u32 + 1), "{threads}");
                }
            }
        }
    }

    #[test]
    fn a_single_item_runs_inline_and_isolated() {
        let caller = std::thread::current().id();
        let out = map(&[()], 4, |_| {
            assert_eq!(std::thread::current().id(), caller);
            panic!("inline")
        });
        assert_eq!(out, vec![Err::<(), _>("inline".to_string())]);
    }
}
