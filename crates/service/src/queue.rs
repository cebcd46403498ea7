//! Bounded admission queue: the service's backpressure point.
//!
//! Submissions go through [`JobQueue::try_push`], which refuses (rather
//! than blocks or grows) once the configured capacity is reached — the
//! caller turns that into a typed [`crate::job::RejectReason::QueueFull`].
//! Crash recovery re-admits previously-accepted jobs through
//! [`JobQueue::push_recovered`] even past the bound: those jobs were
//! already admitted once, and refusing them on restart would turn a crash
//! into silent job loss. The high-water mark is tracked so tests can
//! assert the bound was never exceeded by *new* admissions.

use crate::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// FIFO of job ids with a hard admission bound.
pub struct JobQueue {
    items: Mutex<VecDeque<u64>>,
    available: Condvar,
    capacity: usize,
    /// Highest depth ever reached by `try_push` admissions.
    high_water: AtomicUsize,
}

impl JobQueue {
    /// Queue admitting at most `capacity` jobs at a time (minimum 1).
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            items: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            high_water: AtomicUsize::new(0),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        lock(&self.items).len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest queue depth ever reached.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Admit a new job, or report `(depth, capacity)` when saturated.
    pub fn try_push(&self, id: u64) -> Result<(), (usize, usize)> {
        let mut items = lock(&self.items);
        if items.len() >= self.capacity {
            return Err((items.len(), self.capacity));
        }
        items.push_back(id);
        self.high_water.fetch_max(items.len(), Ordering::Relaxed);
        drop(items);
        self.available.notify_one();
        Ok(())
    }

    /// Re-admit a recovered job unconditionally (see module docs).
    pub fn push_recovered(&self, id: u64) {
        let mut items = lock(&self.items);
        items.push_back(id);
        self.high_water.fetch_max(items.len(), Ordering::Relaxed);
        drop(items);
        self.available.notify_one();
    }

    /// Pop the next job, waiting up to `timeout` for one to arrive.
    /// Workers call this in a loop with a short timeout so they can also
    /// observe shutdown/kill flags between waits.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<u64> {
        let mut items = lock(&self.items);
        if let Some(id) = items.pop_front() {
            return Some(id);
        }
        let (mut items, _) = self
            .available
            .wait_timeout(items, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        items.pop_front()
    }

    /// Wake every waiting worker (used on shutdown/kill so poll loops
    /// observe their flags immediately).
    pub fn wake_all(&self) {
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_rejects_at_capacity() {
        let q = JobQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err((2, 2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert!(q.try_push(3).is_ok(), "slot freed by pop");
    }

    #[test]
    fn recovery_push_ignores_the_bound() {
        let q = JobQueue::new(1);
        assert!(q.try_push(1).is_ok());
        q.push_recovered(2);
        assert_eq!(q.len(), 2, "recovered jobs bypass admission control");
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Some(2));
    }

    #[test]
    fn pop_waits_for_arrival() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(9).expect("push");
        assert_eq!(t.join().expect("join"), Some(9));
    }

    #[test]
    fn pop_times_out_empty() {
        let q = JobQueue::new(4);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
    }
}
