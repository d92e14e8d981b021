//! Panic-isolating parallel sweep executor.
//!
//! Work-stealing over an atomic index, as the old `par_map` did, with
//! three hardenings the sweep engine needs:
//!
//! - **per-item panic capture**: each simulation point runs under
//!   `catch_unwind`, so one poisoned point yields a [`PointError`] for
//!   that slot instead of tearing down the whole sweep (workers keep
//!   draining the queue; sibling results survive);
//! - **configurable worker count**: explicit `jobs` argument, resolved
//!   from `--jobs`/`SMT_BENCH_JOBS` by [`resolve_jobs`];
//! - **deterministic result order**: results land in input order
//!   regardless of which worker computed them or in what sequence, so
//!   tables are bit-identical across worker counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One failed sweep point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointError {
    /// Index of the item in the input order.
    pub index: usize,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PointError {}

/// Resolve the worker count: explicit request (`--jobs`), then the
/// `SMT_BENCH_JOBS` environment variable, then `available_parallelism`.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(var) = std::env::var("SMT_BENCH_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` with up to `jobs` workers, isolating panics per
/// item and preserving input order in the results.
pub fn run_isolated<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, PointError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let one = |i: usize| -> Result<R, PointError> {
        catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|payload| PointError {
            index: i,
            message: panic_message(payload),
        })
    };
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(one).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, PointError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, slots, one) = (&next, &slots, &one);
            s.spawn(move || {
                // Lanes are 1-based: lane 0 is the main thread's track
                // in the engine span trace.
                super::span::set_lane(w as u32 + 1);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = one(i);
                    *slots[i].lock().expect("slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Map `f` over `items` with the engine's worker count (`--jobs`),
/// preserving input order. A panicking item aborts the whole map with a
/// message naming every failed point; callers that need per-item errors
/// use [`run_isolated`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results = run_isolated(&items, super::engine().jobs(), f);
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.as_ref().err().map(PointError::to_string))
        .collect();
    if !failures.is_empty() {
        panic!(
            "{} of {} sweep points failed: {}",
            failures.len(),
            items.len(),
            failures.join("; ")
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("failures were checked above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_worker_counts() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for jobs in [1, 2, 7, 64] {
            let got: Vec<u64> = run_isolated(&items, jobs, |&x| x * 3)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(run_isolated(&Vec::<u8>::new(), 4, |&x| x).is_empty());
        let one = run_isolated(&[9u8], 4, |&x| x + 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].as_ref().unwrap(), &10);
    }

    #[test]
    fn panic_isolated_to_its_slot() {
        let items: Vec<u64> = (0..20).collect();
        let out = run_isolated(&items, 4, |&x| {
            if x == 13 {
                panic!("unlucky {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 13);
                assert!(e.message.contains("unlucky 13"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "sibling {i} lost");
            }
        }
    }

    #[test]
    fn par_map_panics_naming_the_failed_point() {
        let panic = catch_unwind(|| {
            par_map(vec![1, 2, 3], |&x: &i32| {
                if x == 2 {
                    panic!("bad point");
                }
                x
            })
        })
        .expect_err("a failed point aborts the map");
        let msg = panic_message(panic);
        assert!(
            msg.starts_with("1 of 3 sweep points failed: sweep point 1 panicked: bad point"),
            "{msg}"
        );
    }

    #[test]
    fn jobs_resolution_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1, "zero clamps to one worker");
    }
}
