//! The one fan-out executor every measurement surface shares.
//!
//! Each emulation run is deterministic and single-threaded; every
//! experiment surface (scenario matrices, chaos campaigns, replicated
//! figures, campaign grids) is embarrassingly
//! parallel across runs. Before the campaign orchestrator existed, each
//! of those surfaces hand-rolled its own fan-out loop; they now all
//! route through [`fan_out`].
//!
//! The scheduler is work-stealing: jobs are dealt round-robin into one
//! deque per worker, each worker drains its own deque from the front
//! and, when empty, steals from the *back* of the longest other deque.
//! Long jobs (a 64-PoD fabric next to a 2-PoD one) therefore cannot
//! strand the rest of the grid behind one busy worker, and there is no
//! single hot mutex every pop contends on. Results come back in input
//! order regardless of which worker ran which job.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Resolve a requested thread count: `0` means one worker per available
/// CPU, and the count is clamped to the job count (spawning idle
/// threads is pure overhead).
pub fn effective_workers(threads: usize, jobs: usize) -> usize {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        threads
    };
    workers.min(jobs).max(1)
}

/// Fan `items` out over up to `threads` workers (0 = one per available
/// CPU), applying `f` to each. Results are in the same order as the
/// input regardless of which worker ran which item.
pub fn fan_out<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = effective_workers(threads, n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Deal jobs round-robin into per-worker deques. Worker `w` owns
    // deque `w`; stealing victims are picked by current queue length.
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (idx, item) in items.into_iter().enumerate() {
        deques[idx % workers].lock().expect("deque lock").push_back((idx, item));
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let results = &results;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first (front), then steal from the back of
                // the longest other deque. The own-deque pop must be a
                // separate statement: chaining `.or_else` onto it keeps
                // the MutexGuard temporary alive through the steal
                // (temporaries drop at statement end), and two workers
                // going empty together then lock their own deque and
                // wait on each other's — an ABBA deadlock.
                let own = deques[w].lock().expect("deque lock").pop_front();
                let job = own.or_else(|| {
                    let victim = (0..workers)
                        .filter(|&v| v != w)
                        .max_by_key(|&v| deques[v].lock().expect("deque lock").len())?;
                    deques[victim].lock().expect("deque lock").pop_back()
                });
                let Some((idx, item)) = job else { break };
                let result = f(item);
                results.lock().expect("results lock")[idx] = Some(result);
            });
        }
    });

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = fan_out(items, 8, |x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(fan_out(Vec::<u64>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn single_thread_runs_inline() {
        let ran = AtomicUsize::new(0);
        let out = fan_out(vec![1, 2, 3], 1, |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stealing_drains_unbalanced_queues() {
        // One long job dealt to worker 0's deque followed by many short
        // ones: with stealing, total wall time is bounded by the long
        // job, and everything still completes in order.
        let items: Vec<u64> = (0..32).collect();
        let out = fan_out(items, 4, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn effective_workers_clamps_to_jobs() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(0, 0), 1);
    }
}
