//! Per-tenant admission control: a fair, bounded, quota'd work queue.
//!
//! One global bounded FIFO queue lets a single chatty tenant fill the
//! whole queue under multi-tenant load and starve everyone else.
//! [`FairQueue`] keeps the same contracts (bounded, blocking pop,
//! close-to-drain) but splits admission and dispatch per tenant:
//!
//! * **Admission** — a push is refused with [`PushError::Quota`] when the
//!   tenant already has `quota` jobs queued, and with [`PushError::Full`]
//!   when the global bound is hit. Quota refusals are the typed signal
//!   behind the `quota_refusals` health counter.
//! * **Dispatch** — `pop` round-robins across tenants that have queued
//!   work: after a tenant is served it goes to the back of the rotation,
//!   so a tenant with queued work is never starved no matter how deep the
//!   other lanes are. With one tenant, ordering degenerates to exact FIFO
//!   (v1 behavior).
//!
//! Same concurrency primitive as the PR 5 queue (mutex + condvar): the
//! lock is held only for pointer-sized bookkeeping, never across work.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The global bound is reached: the daemon as a whole is overloaded.
    Full,
    /// The tenant's own quota is reached: this tenant is overloaded, the
    /// daemon may not be.
    Quota,
    /// The queue was closed (daemon draining); nothing is accepted.
    Closed,
}

struct Inner<T> {
    /// One FIFO lane per tenant with queued work. Lanes are created on
    /// first push and removed when drained, so an idle tenant costs
    /// nothing.
    lanes: BTreeMap<String, VecDeque<T>>,
    /// Round-robin rotation: tenants with queued work, next-to-serve at
    /// the front. Every name in `rotation` has a non-empty lane and every
    /// non-empty lane appears exactly once.
    rotation: VecDeque<String>,
    len: usize,
    closed: bool,
}

/// Bounded multi-tenant queue with per-tenant quotas and round-robin
/// dispatch. See the module docs for the fairness contract.
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    quota: usize,
}

impl<T> FairQueue<T> {
    /// Creates a queue bounded at `capacity` jobs total and `quota` jobs
    /// per tenant. Both bounds are clamped to at least 1; a quota larger
    /// than the capacity behaves as "no per-tenant bound".
    pub fn new(capacity: usize, quota: usize) -> FairQueue<T> {
        FairQueue {
            inner: Mutex::new(Inner {
                lanes: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            quota: quota.max(1),
        }
    }

    /// Attempts to enqueue `item` for `tenant` without blocking. On
    /// success returns the total queue depth after the push.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] when draining, [`PushError::Full`] at the
    /// global bound, [`PushError::Quota`] at the tenant's bound.
    pub fn try_push(&self, tenant: &str, item: T) -> Result<usize, PushError> {
        let mut inner = self.inner.lock().expect("fair queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len >= self.capacity {
            return Err(PushError::Full);
        }
        if inner.lanes.get(tenant).map_or(0, VecDeque::len) >= self.quota {
            return Err(PushError::Quota);
        }
        match inner.lanes.get_mut(tenant) {
            Some(lane) => lane.push_back(item),
            None => {
                inner
                    .lanes
                    .insert(tenant.to_string(), VecDeque::from([item]));
                inner.rotation.push_back(tenant.to_string());
            }
        }
        inner.len += 1;
        self.ready.notify_one();
        Ok(inner.len)
    }

    fn pop_locked(inner: &mut Inner<T>) -> Option<T> {
        let tenant = inner.rotation.pop_front()?;
        let lane = inner
            .lanes
            .get_mut(&tenant)
            .expect("rotation names a missing lane");
        let item = lane.pop_front().expect("rotation names an empty lane");
        if lane.is_empty() {
            inner.lanes.remove(&tenant);
        } else {
            inner.rotation.push_back(tenant);
        }
        inner.len -= 1;
        Some(item)
    }

    /// Blocks until a job is available (served round-robin across
    /// tenants) or the queue is closed *and* drained, returning `None`
    /// only in the latter case.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("fair queue lock poisoned");
        loop {
            if let Some(item) = FairQueue::pop_locked(&mut inner) {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("fair queue lock poisoned");
        }
    }

    /// Non-blocking pop; `None` means "nothing queued right now".
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("fair queue lock poisoned");
        FairQueue::pop_locked(&mut inner)
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`],
    /// already-queued jobs keep draining through `pop`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("fair queue lock poisoned");
        inner.closed = true;
        self.ready.notify_all();
    }

    /// Total jobs queued across all tenants.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("fair queue lock poisoned").len
    }

    /// Tenants with queued work, in dispatch order: index 0 is the tenant
    /// the next `pop` will serve. The deterministic-simulation harness
    /// checks its fair-dequeue invariant against this snapshot.
    pub fn queued_tenants(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("fair queue lock poisoned")
            .rotation
            .iter()
            .cloned()
            .collect()
    }

    /// The global bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-tenant bound.
    pub fn quota(&self) -> usize {
        self.quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_tenant_is_exact_fifo() {
        let q = FairQueue::new(8, 8);
        for i in 0..5 {
            q.try_push("default", i).unwrap();
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dispatch_round_robins_across_tenants() {
        let q = FairQueue::new(16, 16);
        // Tenant a floods before b arrives; dispatch must still
        // alternate once both have queued work.
        for i in 0..4 {
            q.try_push("a", format!("a{i}")).unwrap();
        }
        for i in 0..2 {
            q.try_push("b", format!("b{i}")).unwrap();
        }
        let drained: Vec<String> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(drained, ["a0", "b0", "a1", "b1", "a2", "a3"]);
    }

    #[test]
    fn no_tenant_with_queued_work_is_starved() {
        let q = FairQueue::new(64, 64);
        for i in 0..30 {
            q.try_push("noisy", i).unwrap();
        }
        q.try_push("quiet", 100).unwrap();
        // The quiet tenant's single job must surface within one
        // rotation, not after the noisy backlog.
        let first_two = [q.try_pop().unwrap(), q.try_pop().unwrap()];
        assert!(
            first_two.contains(&100),
            "quiet tenant starved: {first_two:?}"
        );
    }

    #[test]
    fn quota_and_capacity_are_typed_refusals() {
        let q = FairQueue::new(4, 2);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap();
        assert_eq!(q.try_push("a", 3), Err(PushError::Quota));
        // The daemon still has room for other tenants.
        q.try_push("b", 4).unwrap();
        q.try_push("b", 5).unwrap();
        assert_eq!(q.try_push("c", 6), Err(PushError::Full));
        assert_eq!(q.depth(), 4);
        assert_eq!(q.inner.lock().unwrap().lanes["a"].len(), 2);

        // Draining a tenant frees its quota.
        q.try_pop().unwrap();
        assert!(q.try_push("a", 7).is_ok());
    }

    #[test]
    fn close_drains_then_releases_blocked_pop() {
        let q = Arc::new(FairQueue::new(8, 8));
        q.try_push("a", 1).unwrap();
        q.close();
        assert_eq!(q.try_push("a", 2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);

        let q2 = Arc::new(FairQueue::<i32>::new(8, 8));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn bounds_clamp_to_at_least_one() {
        let q = FairQueue::new(0, 0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.quota(), 1);
        q.try_push("a", 1).unwrap();
        assert_eq!(q.try_push("b", 2), Err(PushError::Full));
    }
}
