//! Bounded event ring.
//!
//! The storage behind [`crate::trace::TraceBuffer`] and the ADTS and
//! allocation decision audits. It is generic, so tests and external
//! tooling can ring-buffer their own event types with the same
//! drop-oldest semantics. Storage grows on demand up to the capacity, so
//! a ring sized for a long run costs only what a short one records.
//! Pushing is O(1) amortized and never allocates once the ring has
//! filled.

use std::collections::VecDeque;

/// Bounded ring: the newest `cap` pushed values are retained, oldest drop
/// first.
#[derive(Clone, Debug, Default)]
pub struct EventRing<T> {
    cap: usize,
    ring: VecDeque<T>,
    /// Total values ever recorded (including dropped ones).
    pub recorded: u64,
}

impl<T> EventRing<T> {
    /// A ring retaining the newest `cap` values. It allocates nothing until
    /// the first push, then grows geometrically, never past `cap` values.
    ///
    /// Panics if `cap == 0` — a ring that can hold nothing silently drops
    /// everything, which is never what a tracing caller wants.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity trace");
        EventRing {
            cap,
            ring: VecDeque::new(),
            recorded: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, ev: T) {
        let len = self.ring.len();
        if len == self.cap {
            self.ring.pop_front();
        } else if len == self.ring.capacity() {
            self.ring.reserve_exact(len.max(4).min(self.cap - len));
        }
        self.ring.push_back(ev);
        self.recorded += 1;
    }

    /// Retained values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum number of retained values.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many recorded values have been dropped to honor the capacity.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_newest_cap_values() {
        let fresh = EventRing::<u64>::new(4096);
        assert_eq!(fresh.ring.capacity(), 0, "storage before the first push");
        assert_eq!(fresh.capacity(), 4096);

        let mut r = EventRing::new(3);
        for i in 0..7u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.recorded, 7);
        assert_eq!(r.dropped(), 4);
        let vals: Vec<u64> = r.iter().copied().collect();
        assert_eq!(vals, vec![4, 5, 6]);
        assert!(r.ring.capacity() <= 3, "storage grew past the capacity");
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = EventRing::new(10);
        r.push("a");
        r.push("b");
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = EventRing::<u8>::new(0);
    }
}
