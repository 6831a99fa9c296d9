//! Deterministic event queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so a
//! simulation run is bit-for-bit reproducible regardless of payload type.
//!
//! # Implementation
//!
//! The queue is a **calendar queue** (Brown 1988) rather than a binary heap:
//! pending events live in an array of power-of-two "day" buckets indexed by
//! `(timestamp / bucket_width) % nbuckets`, so enqueue is an append and
//! dequeue scans forward from the current day instead of percolating through
//! a heap. Two refinements adapt the classic design to the simulator's
//! workload:
//!
//! * **Sorted day rung** — when the scan reaches a day, that day's bucket is
//!   moved out once and sorted by `(time, seq)` into the rung, and every
//!   later [`pop`](EventQueue::pop) or [`pop_if_at`](EventQueue::pop_if_at)
//!   is a `pop_front`. A push into the loaded day (or earlier, down to
//!   `now`) is inserted in order; a push for any later day stays an
//!   unsorted bucket append. Sorting pays off because a day is not one
//!   cohort: a jittered fabric (`jitter=50` spreads arrivals over 50 ns,
//!   about twelve 4.096 ns days) puts dozens of distinct picosecond
//!   timestamps in one day, so any scheme that re-splits or rescans the
//!   bucket per timestamp costs O(day) per pop. Here each entry is moved
//!   into the rung once, and same-timestamp bursts (a synchronous mesh
//!   landing acks, wakeups and directory steps on one tick) append at the
//!   rung's back in O(1). Nothing is loaded until a pop needs the head, so
//!   a bulk fill before the first pop (a freshly built system's same-time
//!   burst) stays a run of appends that is sorted once. A bucket's storage
//!   leaves with its entries, so no empty bucket pins its peak capacity for
//!   the rest of the run.
//! * **Far rung** — events scheduled beyond the calendar's horizon
//!   (retransmission timers, degradation windows) go to an overflow rung and
//!   migrate into the calendar only when the scan reaches their day, so
//!   sparse far-future timers never slow down the dense near-term scan.
//!
//! Dequeue order is exactly `(time, insertion seq)` — identical to the
//! previous `BinaryHeap` implementation, which the property tests in
//! `crates/sim/tests` pin against a reference heap.

use std::collections::VecDeque;

use crate::time::Time;

/// log2 of the bucket width in picoseconds (4.096 ns per day). Wide enough
/// that mesh-hop-scale event gaps (5 ns) skip at most a bucket or two,
/// narrow enough that a busy 8-host run keeps per-bucket occupancy small.
const WIDTH_SHIFT: u32 = 12;
/// Initial number of day buckets (4.096 ns × 256 ≈ 1 µs horizon).
const INIT_BUCKETS: usize = 256;
/// Hard ceiling on bucket growth.
const MAX_BUCKETS: usize = 1 << 20;

/// A priority queue of `(Time, E)` events with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use cord_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(3), 'x');
/// q.push(Time::from_ns(3), 'y'); // same time: FIFO order preserved
/// q.push(Time::from_ns(1), 'z');
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 'z')));
/// assert_eq!(q.pop(), Some((Time::from_ns(3), 'x')));
/// assert_eq!(q.pop(), Some((Time::from_ns(3), 'y')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Once loaded, every pending event whose day is at or before
    /// `cur_day`, sorted by `(time, seq)`. Empty only while nothing is
    /// loaded: the queue is empty, or refilling before its next pop.
    rung: VecDeque<Entry<E>>,
    /// The day loaded into the rung, or — while the rung is empty — the day
    /// of `now`. Invariant: every bucket-resident entry's day lies in
    /// `[cur_day, cur_day + nbuckets)` (and after `cur_day` once loaded),
    /// so each bucket holds entries of exactly one day.
    cur_day: u64,
    /// Day buckets (unsorted); always a power of two.
    buckets: Vec<Vec<Entry<E>>>,
    mask: u64,
    /// Overflow rung for events at/beyond the calendar horizon. Every entry
    /// has a day after `cur_day`.
    far: Vec<Entry<E>>,
    /// Earliest timestamp in `far` (`Time::MAX` when empty).
    far_min: Time,
    /// Earliest pending timestamp (the rung's front once loaded).
    head: Option<Time>,
    /// Bucket-resident entry count (excludes the rung and `far`) — drives
    /// calendar growth.
    resident: usize,
    len: usize,
    next_seq: u64,
    now: Time,
    /// Entries moved or shifted by queue maintenance (rung loads, ordered
    /// inserts, far-rung migration), so tests can bound the per-pop cost.
    #[cfg(test)]
    touched: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for roughly `cap` concurrently pending
    /// events before the calendar grows (hot-path optimization for sized
    /// systems).
    pub fn with_capacity(cap: usize) -> Self {
        let nbuckets = (cap / 4)
            .next_power_of_two()
            .clamp(INIT_BUCKETS, MAX_BUCKETS);
        EventQueue {
            rung: VecDeque::new(),
            cur_day: 0,
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            mask: (nbuckets - 1) as u64,
            far: Vec::new(),
            far_min: Time::MAX,
            head: None,
            resident: 0,
            len: 0,
            next_seq: 0,
            now: Time::ZERO,
            #[cfg(test)]
            touched: 0,
        }
    }

    /// Reserves space for at least `additional` more events (spread across
    /// the sorted rung and the overflow rung; day buckets grow lazily).
    pub fn reserve(&mut self, additional: usize) {
        self.rung.reserve(additional / 4);
        self.far.reserve(additional / 4);
    }

    #[inline]
    fn day_of(at: Time) -> u64 {
        at.as_ps() >> WIDTH_SHIFT
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        self.mask + 1
    }

    #[inline(always)]
    fn touch(&mut self, _n: usize) {
        #[cfg(test)]
        {
            self.touched += _n as u64;
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time — an event
    /// in the past indicates a component bug, and silently reordering it
    /// would make runs nondeterministic.
    #[inline]
    pub fn push(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let e = Entry {
            time: at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        self.len += 1;
        if self.head.is_none_or(|h| at < h) {
            self.head = Some(at);
        }
        let day = Self::day_of(at);
        if day <= self.cur_day && !self.rung.is_empty() {
            // Ordered insert after every entry at or before `at` (the new
            // seq is the largest). Same-time bursts and pushes past the
            // rung's last entry are a plain append.
            if self.rung.back().is_some_and(|b| b.time <= at) {
                self.rung.push_back(e);
            } else {
                let i = self.rung.partition_point(|x| x.time <= at);
                self.touch(i.min(self.rung.len() - i));
                self.rung.insert(i, e);
            }
            return;
        }
        if day >= self.cur_day + self.nbuckets() {
            if at < self.far_min {
                self.far_min = at;
            }
            self.far.push(e);
            return;
        }
        self.buckets[(day & self.mask) as usize].push(e);
        self.resident += 1;
        if self.resident > self.buckets.len() * 4 && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.rung.is_empty() {
            if self.len == 0 {
                return None;
            }
            // Refilled since it emptied (or never popped): nothing is loaded
            // yet, and `cur_day`'s own bucket may hold the head.
            self.load_day_from(self.cur_day);
        }
        let e = self.rung.pop_front().expect("a loaded rung is non-empty");
        self.len -= 1;
        self.now = e.time;
        if self.rung.is_empty() {
            if self.len > 0 {
                self.load_day_from(self.cur_day + 1);
            } else {
                // Later pushes may land anywhere from `now` on.
                self.cur_day = Self::day_of(self.now);
            }
        }
        self.head = self.rung.front().map(|e| e.time);
        Some((e.time, e.payload))
    }

    /// Removes and returns the earliest event **only if** it fires exactly
    /// at `at` — the batch-drain fast path for same-timestamp event bursts.
    ///
    /// The miss case is one compare against the cached head, and the hit
    /// case is the same `pop_front` that [`pop`] does, so a dispatch loop
    /// can ask "more work at the time I'm already processing?" after every
    /// event for free.
    ///
    /// [`pop`]: EventQueue::pop
    #[inline]
    pub fn pop_if_at(&mut self, at: Time) -> Option<E> {
        if self.head != Some(at) {
            return None;
        }
        self.pop().map(|(_, payload)| payload)
    }

    /// Loads the first non-empty day at or after `from` into the (empty)
    /// rung: scans the calendar forward, pulls the far rung in when the
    /// scan reaches its earliest day, and sorts the day's bucket once.
    fn load_day_from(&mut self, from: u64) {
        debug_assert!(self.rung.is_empty() && self.len > 0);
        let far_day = if self.far.is_empty() {
            u64::MAX
        } else {
            Self::day_of(self.far_min)
        };
        let end = self.cur_day + self.nbuckets();
        let mut day = from;
        while day < end && day < far_day && self.buckets[(day & self.mask) as usize].is_empty() {
            day += 1;
        }
        // Every day before `day` is empty, so advancing the window start
        // keeps each remaining bucket entry inside it.
        if day >= end || day >= far_day {
            // Nothing in the window precedes the far rung's earliest day.
            debug_assert!(!self.far.is_empty());
            day = far_day;
            self.cur_day = day;
            self.migrate();
        } else {
            self.cur_day = day;
        }
        let mut entries = std::mem::take(&mut self.buckets[(day & self.mask) as usize]);
        debug_assert!(!entries.is_empty());
        self.resident -= entries.len();
        self.touch(entries.len());
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        self.rung = VecDeque::from(entries);
    }

    /// Moves far-rung events whose day falls inside the window starting at
    /// `cur_day` into their buckets.
    fn migrate(&mut self) {
        let horizon = self.cur_day + self.nbuckets();
        let mut far_min = Time::MAX;
        let mut i = 0;
        self.touch(self.far.len());
        while i < self.far.len() {
            if Self::day_of(self.far[i].time) < horizon {
                let e = self.far.swap_remove(i);
                self.buckets[(Self::day_of(e.time) & self.mask) as usize].push(e);
                self.resident += 1;
            } else {
                if self.far[i].time < far_min {
                    far_min = self.far[i].time;
                }
                i += 1;
            }
        }
        self.far_min = far_min;
    }

    /// Doubles the bucket count and redistributes resident events.
    fn grow(&mut self) {
        let new_n = (self.buckets.len() * 2).min(MAX_BUCKETS);
        let old: Vec<Entry<E>> = self
            .buckets
            .iter_mut()
            .flat_map(std::mem::take)
            .chain(std::mem::take(&mut self.far))
            .collect();
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.mask = (new_n - 1) as u64;
        self.resident = 0;
        self.far_min = Time::MAX;
        let horizon = self.cur_day + new_n as u64;
        for e in old {
            if Self::day_of(e.time) >= horizon {
                if e.time < self.far_min {
                    self.far_min = e.time;
                }
                self.far.push(e);
            } else {
                self.buckets[(Self::day_of(e.time) & self.mask) as usize].push(e);
                self.resident += 1;
            }
        }
    }

    /// Timestamp of the earliest pending event, if any — a cached O(1)
    /// field read, cheap enough for per-event quiescence checks in the
    /// runner.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.head
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Queue occupancy split three ways, `(near, staged, far)`, for
    /// observability sampling:
    ///
    /// * `staged` — pending events at the timestamp being served
    ///   ([`now`](EventQueue::now));
    /// * `far` — events parked in the far rung, beyond the calendar horizon;
    /// * `near` — the rest: later events in the loaded day and the day
    ///   buckets.
    ///
    /// The three always sum to [`len`](EventQueue::len).
    pub fn rung_depths(&self) -> (usize, usize, usize) {
        let staged = self.rung.partition_point(|e| e.time <= self.now);
        (self.len - staged - self.far.len(), staged, self.far.len())
    }

    /// Iterates the pending events in **arbitrary** order — diagnostics only
    /// (e.g. the liveness watchdog's in-flight dump); callers needing a
    /// stable order must sort what they collect.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &E)> {
        self.rung
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.far.iter())
            .map(|e| (e.time, &e.payload))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(2), 2);
        q.push(Time::from_ns(5), 3);
        q.push(Time::from_ns(2), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_ns(9), ());
        q.pop();
        assert_eq!(q.now(), Time::from_ns(9));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_event_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ns(5), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::from_ns(1), ());
        q.push(Time::from_ns(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
    }

    #[test]
    fn pop_if_at_drains_only_the_asked_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(3), 'a');
        q.push(Time::from_ns(3), 'b');
        q.push(Time::from_ns(5), 'c');
        assert_eq!(q.pop_if_at(Time::from_ns(5)), None, "head is at 3, not 5");
        assert_eq!(q.pop(), Some((Time::from_ns(3), 'a')));
        // Same-time burst drains FIFO via the fast path…
        assert_eq!(q.pop_if_at(Time::from_ns(3)), Some('b'));
        // …and stops at the next timestamp without consuming it.
        assert_eq!(q.pop_if_at(Time::from_ns(3)), None);
        assert_eq!(q.now(), Time::from_ns(3), "miss must not advance time");
        assert_eq!(q.pop(), Some((Time::from_ns(5), 'c')));
        assert_eq!(q.pop_if_at(Time::from_ns(5)), None, "empty queue misses");
    }

    #[test]
    fn pop_if_at_agrees_with_pop_on_a_mixed_schedule() {
        // Drain the same schedule two ways; the event orders must match.
        let schedule = [4u64, 1, 4, 4, 2, 9, 2, 4];
        let mut plain = EventQueue::new();
        let mut fast = EventQueue::new();
        for (i, &ns) in schedule.iter().enumerate() {
            plain.push(Time::from_ns(ns), i);
            fast.push(Time::from_ns(ns), i);
        }
        let mut via_plain = Vec::new();
        while let Some((t, e)) = plain.pop() {
            via_plain.push((t, e));
        }
        let mut via_fast = Vec::new();
        while let Some((t, e)) = fast.pop() {
            via_fast.push((t, e));
            while let Some(e) = fast.pop_if_at(t) {
                via_fast.push((t, e));
            }
        }
        assert_eq!(via_fast, via_plain);
    }

    #[test]
    fn peek_time_tracks_head_through_pushes_and_pops() {
        let mut q = EventQueue::with_capacity(16);
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), 'a');
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        q.push(Time::from_ns(4), 'b'); // new minimum
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        q.push(Time::from_ns(7), 'c'); // not a new minimum
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        assert_eq!(q.pop(), Some((Time::from_ns(4), 'b')));
        assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
        q.reserve(8);
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_cohort_being_served_keeps_fifo_order() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(2);
        q.push(t, 0);
        q.push(t, 1);
        q.push(Time::from_ns(7), 99);
        assert_eq!(q.pop(), Some((t, 0)));
        // Mid-cohort push at the served timestamp must come out after the
        // rest of the cohort (it has the largest seq).
        q.push(t, 2);
        assert_eq!(q.pop_if_at(t), Some(1));
        assert_eq!(q.pop_if_at(t), Some(2));
        assert_eq!(q.pop_if_at(t), None);
        assert_eq!(q.pop(), Some((Time::from_ns(7), 99)));
    }

    #[test]
    fn far_future_events_round_trip_through_the_overflow_rung() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(100), 'z'); // way past the calendar horizon
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_us(90), 'y');
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
        assert_eq!(q.peek_time(), Some(Time::from_us(90)));
        assert_eq!(q.pop(), Some((Time::from_us(90), 'y')));
        assert_eq!(q.pop(), Some((Time::from_us(100), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_split_across_far_rung_and_calendar_stays_fifo() {
        // Push at T while it is beyond the horizon (goes to the far rung),
        // advance the calendar near T, push at T again (goes to a bucket),
        // then drain: FIFO order must hold across the two homes.
        let t = Time::from_us(50);
        let mut q = EventQueue::new();
        q.push(t, 1); // far
        q.push(Time::from_us(49), 0); // also far, slightly earlier
        q.push(Time::from_ns(1), -1);
        assert_eq!(q.pop(), Some((Time::from_ns(1), -1)));
        assert_eq!(q.pop(), Some((Time::from_us(49), 0)));
        // Now cur_day is near t, so this lands in a bucket while seq-1 for
        // the same timestamp migrated from the far rung.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn grows_past_initial_bucket_count() {
        let mut q = EventQueue::new();
        let n = 8 * INIT_BUCKETS as u64;
        for i in 0..n {
            q.push(Time::from_ps(i * 37), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut prev = (Time::ZERO, 0);
        let mut count = 0;
        while let Some((t, e)) = q.pop() {
            assert!((t, e) >= prev, "out of order: {prev:?} then {:?}", (t, e));
            prev = (t, e);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn iter_covers_rung_buckets_and_far() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(1), 'b');
        q.push(Time::from_ns(3), 'c');
        q.push(Time::from_us(999), 'd');
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'a'))); // 'b' still in the rung
        let mut seen: Vec<char> = q.iter().map(|(_, &c)| c).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec!['b', 'c', 'd']);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn rung_depths_split_served_timestamp_near_and_far() {
        let mut q = EventQueue::new();
        for c in 0..3 {
            q.push(Time::from_ns(1), c);
        }
        q.push(Time::from_ps(1_500), 3); // same day, later timestamp
        q.push(Time::from_ns(40), 4); // a later day
        q.push(Time::from_us(500), 5); // beyond the horizon
        assert_eq!(q.pop(), Some((Time::from_ns(1), 0)));
        assert_eq!(q.rung_depths(), (2, 2, 1));
        q.pop();
        q.pop();
        assert_eq!(q.rung_depths(), (2, 0, 1), "the served timestamp drained");
        q.push(Time::from_ns(1), 6); // a push at `now` is staged again
        assert_eq!(q.rung_depths(), (2, 1, 1));
        let (near, staged, far) = q.rung_depths();
        assert_eq!(near + staged + far, q.len());
    }

    /// The amortized maintenance cost per pop stays a small constant on the
    /// schedule that made the per-pop rescan expensive: picosecond-granular
    /// arrivals jittered over 50 ns (about 12 days, so each day holds dozens
    /// of distinct timestamps), each served event scheduling a successor
    /// inside that window, plus RTO-style timers past the horizon.
    #[test]
    fn jittered_schedule_touches_a_bounded_number_of_entries_per_pop() {
        let mut rng = crate::DetRng::new(0x5047ED);
        let mut q = EventQueue::new();
        for i in 0..512u64 {
            q.push(Time::from_ps(rng.range_u64(0..50_000)), i);
        }
        let mut pops = 0u64;
        while let Some((t, e)) = q.pop() {
            pops += 1;
            if pops >= 200_000 {
                break;
            }
            if e < 1 << 32 {
                q.push(t + Time::from_ps(rng.range_u64(0..50_000)), e);
                if rng.chance(0.05) {
                    let rto = rng.range_u64(1_500_000..96_000_000);
                    q.push(t + Time::from_ps(rto), 1 << 32);
                }
            }
        }
        let per_pop = q.touched as f64 / pops as f64;
        assert!(per_pop <= 4.0, "{per_pop:.2} entries touched per pop");
    }

    /// Pushes made before the first pop are bucket appends, whatever their
    /// order: nothing is loaded until a pop needs the head, so a bulk fill
    /// never turns into ordered inserts into a loaded day.
    #[test]
    fn bulk_pushes_before_the_first_pop_stay_appends() {
        let mut rng = crate::DetRng::new(0xB01C);
        let mut q = EventQueue::with_capacity(10_000);
        // 10 µs of picosecond-granular times: inside the calendar horizon.
        for i in 0..10_000u64 {
            q.push(Time::from_ps(rng.range_u64(0..10_000_000)), i);
        }
        assert_eq!(q.touched, 0, "pushes before the first pop shifted entries");
        let mut pops = 0u64;
        let mut prev = (Time::ZERO, 0);
        while let Some((t, e)) = q.pop() {
            assert!((t, e) >= prev, "out of order: {prev:?} then {:?}", (t, e));
            prev = (t, e);
            pops += 1;
        }
        assert_eq!(pops, 10_000);
        let per_pop = q.touched as f64 / pops as f64;
        assert!(per_pop <= 4.0, "{per_pop:.2} entries touched per pop");
    }
}
