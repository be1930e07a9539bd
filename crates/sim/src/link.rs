//! Latency-annotated message channels connecting timing components.
//!
//! Components in the SoC never hold references to each other. Instead,
//! in-flight traffic sits in a [`DelayQueue`] (per-message latency, e.g.
//! DRAM responses completing out of order) that its owner drains each
//! cycle.

use std::collections::BinaryHeap;

use crate::Cycle;

struct Pending<T> {
    deliver_at: Cycle,
    seq: u64,
    msg: T,
}

impl<T: Clone> Clone for Pending<T> {
    fn clone(&self) -> Self {
        Pending {
            deliver_at: self.deliver_at,
            seq: self.seq,
            msg: self.msg.clone(),
        }
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap but we want earliest first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A channel where every message carries its own delivery time.
///
/// Used where completion times vary per message — DRAM accesses contending
/// for bandwidth, page-table walks, MAPLE memory responses arriving out of
/// order. Messages with equal delivery times are delivered in send order.
///
/// # Example
///
/// ```
/// use maple_sim::{Cycle, link::DelayQueue};
///
/// let mut q: DelayQueue<&str> = DelayQueue::new();
/// q.send_at(Cycle(50), "slow");
/// q.send_at(Cycle(10), "fast");
/// assert_eq!(q.recv(Cycle(10)), Some("fast"));
/// assert_eq!(q.recv(Cycle(10)), None);
/// assert_eq!(q.recv(Cycle(50)), Some("slow"));
/// ```
pub struct DelayQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    next_seq: u64,
}

impl<T: Clone> Clone for DelayQueue<T> {
    fn clone(&self) -> Self {
        DelayQueue {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
        }
    }
}

impl<T> std::fmt::Debug for DelayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayQueue")
            .field("in_flight", &self.heap.len())
            .finish()
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `msg` for delivery at the absolute cycle `deliver_at`.
    pub fn send_at(&mut self, deliver_at: Cycle, msg: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending {
            deliver_at,
            seq,
            msg,
        });
    }

    /// Schedules `msg` for delivery `latency` cycles after `now`.
    pub fn send(&mut self, now: Cycle, latency: u64, msg: T) {
        self.send_at(now.plus(latency), msg);
    }

    /// Receives the earliest message whose delivery time has arrived.
    pub fn recv(&mut self, now: Cycle) -> Option<T> {
        match self.heap.peek() {
            Some(p) if p.deliver_at <= now => self.heap.pop().map(|p| p.msg),
            _ => None,
        }
    }

    /// The delivery time of the earliest in-flight message.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.deliver_at)
    }

    /// Number of in-flight messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains every message deliverable at `now` in delivery-time order.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(m) = self.recv(now) {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_queue_orders_by_deadline() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        q.send_at(Cycle(30), 3);
        q.send_at(Cycle(10), 1);
        q.send_at(Cycle(20), 2);
        assert_eq!(q.next_deadline(), Some(Cycle(10)));
        assert_eq!(q.drain_ready(Cycle(25)), vec![1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.recv(Cycle(29)), None);
        assert_eq!(q.recv(Cycle(30)), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_ties_broken_by_send_order() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        for i in 0..5 {
            q.send_at(Cycle(10), i);
        }
        assert_eq!(q.drain_ready(Cycle(10)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delay_queue_relative_send() {
        let mut q: DelayQueue<u8> = DelayQueue::new();
        q.send(Cycle(100), 7, 9);
        assert_eq!(q.recv(Cycle(106)), None);
        assert_eq!(q.recv(Cycle(107)), Some(9));
    }
}
