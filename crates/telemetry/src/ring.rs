//! Fixed-capacity ring buffer for time-series samples.
//!
//! Telemetry sampling runs for the whole simulated experiment, so an
//! unbounded `Vec` per series would make memory proportional to run
//! length. The ring keeps the most recent `capacity` samples; overwrites
//! are deterministic (purely a function of how many samples were pushed),
//! so enabling telemetry never perturbs the simulation itself.

/// A fixed-capacity overwrite-oldest buffer.
#[derive(Clone, Debug)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    /// Index the next push lands on (wraps at `capacity`).
    head: usize,
    /// Total pushes ever (so callers can tell how much was discarded).
    pushed: u64,
    capacity: usize,
}

impl<T: Clone> RingBuffer<T> {
    /// Create a ring holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> RingBuffer<T> {
        let capacity = capacity.max(1);
        RingBuffer { buf: Vec::with_capacity(capacity.min(1024)), head: 0, pushed: 0, capacity }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Items lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Append, overwriting the oldest item once full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
        }
        self.head = (self.head + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Oldest-to-newest snapshot of the retained items.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let split = if self.buf.len() < self.capacity { 0 } else { self.head };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Most recent item.
    pub fn last(&self) -> Option<&T> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity {
            self.buf.last()
        } else {
            Some(&self.buf[(self.head + self.capacity - 1) % self.capacity])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_overwriting_oldest() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        r.push(1);
        r.push(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(r.last(), Some(&2));
        r.push(3);
        r.push(4); // overwrites 1
        r.push(5); // overwrites 2
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(r.last(), Some(&5));
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn wraparound_is_stable_over_many_cycles() {
        let mut r = RingBuffer::new(4);
        for i in 0..103u64 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![99, 100, 101, 102]);
        assert_eq!(r.dropped(), 99);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = RingBuffer::new(0);
        assert_eq!(r.capacity(), 1);
        r.push('a');
        r.push('b');
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!['b']);
    }
}
