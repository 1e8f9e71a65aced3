//! A deterministic discrete-event queue.

use crate::SimTime;

/// A time-ordered event queue driving the simulation forward.
///
/// The queue is popped once per simulated event — tens of millions of
/// times per design-space point — so the heap is tuned for that load:
/// a 4-ary min-heap in structure-of-arrays layout (ordering keys in one
/// dense array, payloads in another) with hole-based sifting. Probing the
/// four children of a node touches a single cache line of keys, and the
/// packed `time << 64 | seq` key makes each probe one scalar comparison.
/// Payloads must be `Copy`, which every event type in the simulator is.
///
/// Events with equal timestamps are delivered in insertion order (FIFO),
/// which keeps the simulation deterministic across runs.
///
/// ```
/// use ace_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_cycles(20), "late");
/// q.schedule(SimTime::from_cycles(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.cycles(), e), (10, "early"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Packed `time << 64 | seq` ordering keys, heap-ordered.
    keys: Vec<u128>,
    /// Event payloads, parallel to `keys`.
    events: Vec<E>,
    next_seq: u64,
    now: SimTime,
    past_schedules: u64,
    pops: u64,
}

/// Heap arity: the four children of a node occupy one 64-byte cache line
/// of the key array, and the tree is half as deep as a binary heap's.
const ARITY: usize = 4;

fn key_time(key: u128) -> SimTime {
    SimTime::from_cycles((key >> 64) as u64)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            past_schedules: 0,
            pops: 0,
        }
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events that were scheduled in the past and clamped to the
    /// queue's current time — always zero in a correct simulation.
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }

    /// Total events delivered so far — the dispatch count
    /// instrumentation uses for sampling cadence (e.g. a queue-depth
    /// sample every N pops) without keeping its own counter.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Returns the time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| key_time(k))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// tolerates it by delivering the event at the current time, but debug
    /// builds assert and every build counts the violation in
    /// [`past_schedules`](EventQueue::past_schedules) so release-mode
    /// sweeps can surface it in reports.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_raw(at, seq, event);
    }

    /// Schedules `event` with an explicit low-64 tie-break key instead of
    /// the insertion sequence number. Events at equal times then pop in
    /// `key` order regardless of scheduling order. The collective
    /// executor derives the key from event *content*, and its golden
    /// traces pin the equal-time delivery order that key produces.
    ///
    /// Callers mixing `schedule` and `schedule_keyed` on one queue are
    /// responsible for keeping the key spaces orderable (the executor
    /// keeps plain sequence keys below `2^60` and content keys above).
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        self.schedule_raw(at, key, event);
    }

    fn schedule_raw(&mut self, at: SimTime, low: u64, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        if at < self.now {
            self.past_schedules += 1;
        }
        let time = at.max(self.now);
        let key = (time.cycles() as u128) << 64 | low as u128;
        // Hole-based sift-up: walk ancestors down into the hole and place
        // the new entry once, instead of swapping at every level.
        let mut hole = self.keys.len();
        self.keys.push(key);
        self.events.push(event);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            self.events[hole] = self.events[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.events[hole] = event;
    }

    /// Pops the earliest event, advancing the queue's clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    /// Pops the earliest event together with its low-64 ordering key (the
    /// sequence number for [`schedule`](EventQueue::schedule), the caller
    /// key for [`schedule_keyed`](EventQueue::schedule_keyed)).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let key = *self.keys.first()?;
        let event = self.events[0];
        let last_key = self.keys.pop().expect("nonempty");
        let last_event = self.events.pop().expect("nonempty");
        let len = self.keys.len();
        if len > 0 {
            // Hole-based sift-down of the displaced last entry.
            let mut hole = 0;
            loop {
                let first_child = hole * ARITY + 1;
                if first_child >= len {
                    break;
                }
                let mut best = first_child;
                let mut best_key = self.keys[first_child];
                let child_end = (first_child + ARITY).min(len);
                for c in first_child + 1..child_end {
                    if self.keys[c] < best_key {
                        best = c;
                        best_key = self.keys[c];
                    }
                }
                if last_key <= best_key {
                    break;
                }
                self.keys[hole] = best_key;
                self.events[hole] = self.events[best];
                hole = best;
            }
            self.keys[hole] = last_key;
            self.events[hole] = last_event;
        }
        let time = key_time(key);
        self.now = time;
        self.pops += 1;
        Some((time, key as u64, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(30), 3);
        q.schedule(SimTime::from_cycles(10), 1);
        q.schedule(SimTime::from_cycles(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_cycles(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        // Exercise the 4-ary sift paths with a deterministic shuffle.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_cycles(x % 10_000), x);
        }
        let mut popped = Vec::new();
        for _ in 0..250 {
            popped.push(q.pop().unwrap().0.cycles());
        }
        // Everything scheduled from here on lands at/after `now`.
        for i in 0..250u64 {
            q.schedule(SimTime::from_cycles(q.now().cycles() + i * 7), i);
        }
        while let Some((t, _)) = q.pop() {
            popped.push(t.cycles());
        }
        assert_eq!(popped.len(), 750);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "pops out of order");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_cycles(7));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_schedules_are_counted_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(10), "a");
        q.pop();
        assert_eq!(q.past_schedules(), 0);
        q.schedule(SimTime::from_cycles(3), "late");
        assert_eq!(q.past_schedules(), 1);
        // The clamped event still delivers at the current time.
        assert_eq!(q.pop().unwrap().0, SimTime::from_cycles(10));
    }

    #[test]
    fn on_time_schedules_do_not_count() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(5), ());
        q.pop();
        q.schedule(SimTime::from_cycles(5), ());
        assert_eq!(q.past_schedules(), 0);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_cycles(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_ties_pop_in_key_order_regardless_of_insertion() {
        let t = SimTime::from_cycles(5);
        // Two opposite insertion orders must deliver identically.
        let mut a = EventQueue::new();
        for k in [9u64, 3, 7, 1] {
            a.schedule_keyed(t, k, k);
        }
        let mut b = EventQueue::new();
        for k in [1u64, 7, 3, 9] {
            b.schedule_keyed(t, k, k);
        }
        let drain = |q: &mut EventQueue<u64>| -> Vec<(u64, u64)> {
            std::iter::from_fn(|| q.pop_keyed().map(|(_, k, e)| (k, e))).collect()
        };
        let da = drain(&mut a);
        assert_eq!(da, drain(&mut b));
        assert_eq!(da, vec![(1, 1), (3, 3), (7, 7), (9, 9)]);
    }

    #[test]
    fn plain_and_keyed_schedules_coexist() {
        // Plain sequence keys (small) beat content keys (large) at ties.
        let mut q = EventQueue::new();
        let t = SimTime::from_cycles(5);
        q.schedule_keyed(t, 1 << 60, "keyed");
        q.schedule(t, "plain");
        assert_eq!(q.pop().unwrap().1, "plain");
        assert_eq!(q.pop().unwrap().1, "keyed");
    }

    #[test]
    fn pops_count_deliveries() {
        let mut q = EventQueue::new();
        assert_eq!(q.pops(), 0);
        q.schedule(SimTime::from_cycles(1), ());
        q.schedule(SimTime::from_cycles(2), ());
        q.pop();
        assert_eq!(q.pops(), 1);
        q.pop();
        assert!(q.pop().is_none());
        assert_eq!(q.pops(), 2, "empty pops do not count");
    }
}
