//! Randomized property tests for the simulation kernel.
//!
//! Formerly written with `proptest`; rewritten over [`DetRng`] with fixed
//! seeds so the workspace carries no external dependencies (the build must
//! succeed in fully offline environments) while keeping the same
//! properties and case counts. Every case is deterministic: a failure
//! reprints its seed for replay.

use cord_sim::{DetRng, EventQueue, Histogram, StallTracker, Time};

const CASES: u64 = 64;

/// The queue dequeues in nondecreasing time order, and same-time events
/// preserve insertion order (determinism).
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xE7E47).stream(case);
        let n = rng.range_usize(1..200);
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0..50)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut out: Vec<(Time, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(out.len(), times.len(), "case {case}");
        for w in out.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO tie-break violated");
            }
        }
    }
}

/// Pushing at the current time from within the drain loop is legal and
/// preserves ordering.
#[test]
fn event_queue_allows_now_pushes() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 0u32);
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            popped += 1;
            if popped < 50 && rng.chance(0.7) {
                q.push(t + Time::from_ns(rng.range_u64(0..5)), popped);
            }
        }
        assert!(popped >= 1, "seed {seed}");
        assert!(q.is_empty(), "seed {seed}");
    }
}

/// A reference priority queue with the exact `(time, insertion seq)` order
/// contract — the `BinaryHeap` implementation the calendar queue replaced.
struct RefQueue<E> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u64, E)>>,
    next_seq: u64,
}

impl<E: Ord> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }
    fn push(&mut self, at: Time, payload: E) {
        self.heap
            .push(std::cmp::Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        let std::cmp::Reverse((t, _, p)) = self.heap.pop()?;
        Some((t, p))
    }
    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|std::cmp::Reverse((t, _, _))| *t)
    }
}

/// The calendar queue dequeues in exactly the reference heap's tie-break
/// order on randomized interleaved push/pop workloads, including far-future
/// timers (overflow rung), same-time bursts, mid-drain pushes, `pop_if_at`
/// probes, and calendar growth. Three classes target the sorted day rung:
/// picosecond-granular jitter within 50 ns (dozens of distinct timestamps
/// per 4.096 ns day, with pushes landing in the day being drained),
/// RTO-backoff timers from 1.5 to 96 µs, and — in every fourth case — a
/// 4,096-event same-time burst at t=0 before the first pop (the shape of a
/// freshly built system scheduling every core's first step).
#[test]
fn calendar_queue_matches_reference_heap_order() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xCA1E17DA).stream(case);
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let ops = rng.range_usize(50..3000);
        let mut now = 0u64; // ps
        let mut pushed = 0u64;
        if case % 4 == 0 {
            for _ in 0..4096 {
                q.push(Time::ZERO, pushed);
                r.push(Time::ZERO, pushed);
                pushed += 1;
            }
        }
        for _ in 0..ops {
            let roll = rng.unit_f64();
            if roll < 0.55 {
                // Mixed scales: sub-ns cycles, mesh hops, fabric latencies,
                // and occasional RTO-scale far-future timers.
                let delta = match rng.range_u64(0..14) {
                    0..=3 => rng.range_u64(0..2_000),
                    4..=6 => rng.range_u64(0..150_000),
                    7..=8 => 0, // same-instant burst
                    9 => rng.range_u64(1_000_000..100_000_000),
                    10..=12 => rng.range_u64(0..50_000), // fabric jitter
                    _ => 1_500_000 << rng.range_u64(0..7), // RTO backoff
                };
                let at = Time::from_ps(now + delta);
                q.push(at, pushed);
                r.push(at, pushed);
                pushed += 1;
            } else if roll < 0.8 {
                assert_eq!(q.peek_time(), r.peek_time(), "case {case}");
                let got = q.pop();
                let want = r.pop();
                assert_eq!(got, want, "case {case}");
                if let Some((t, _)) = got {
                    now = t.as_ps();
                }
            } else {
                // pop_if_at probe at the head time (hit) or now (maybe miss).
                let at = if rng.chance(0.5) {
                    q.peek_time().unwrap_or(Time::from_ps(now))
                } else {
                    Time::from_ps(now)
                };
                let want = if r.peek_time() == Some(at) {
                    r.pop().map(|(_, e)| e)
                } else {
                    None
                };
                let got = q.pop_if_at(at);
                assert_eq!(got, want, "case {case}");
                if got.is_some() {
                    now = at.as_ps();
                }
            }
            assert_eq!(q.len(), r.heap.len(), "case {case}");
        }
        // Full drain must agree event-for-event.
        loop {
            assert_eq!(q.peek_time(), r.peek_time(), "case {case} drain");
            let (got, want) = (q.pop(), r.pop());
            assert_eq!(got, want, "case {case} drain");
            if got.is_none() {
                break;
            }
        }
    }
}

/// Stall episodes never lose time: total equals the sum of (end - begin)
/// for well-formed begin/end pairs.
#[test]
fn stall_tracker_accumulates_exactly() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x57A11).stream(case);
        let pairs = rng.range_usize(1..40);
        let mut s = StallTracker::new();
        let mut now = 0u64;
        let mut expect = 0u64;
        for _ in 0..pairs {
            now += rng.range_u64(0..100);
            s.begin(Time::from_ns(now));
            let dur = rng.range_u64(0..100);
            now += dur;
            s.end(Time::from_ns(now));
            expect += dur;
        }
        assert_eq!(s.total(), Time::from_ns(expect), "case {case}");
    }
}

/// Histogram totals are conserved.
#[test]
fn histogram_conserves_counts() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x415708).stream(case);
        let n = rng.range_usize(1..200);
        let vals: Vec<u64> = (0..n).map(|_| rng.range_u64(0..1_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        assert_eq!(h.count(), vals.len() as u64, "case {case}");
        assert_eq!(h.sum(), vals.iter().sum::<u64>(), "case {case}");
        assert_eq!(h.max(), *vals.iter().max().unwrap(), "case {case}");
        let mean = h.mean();
        let lo = *vals.iter().min().unwrap() as f64;
        let hi = h.max() as f64;
        assert!(mean >= lo && mean <= hi, "case {case}");
    }
}

/// DetRng streams are reproducible and range-respecting.
#[test]
fn rng_ranges_hold() {
    for case in 0..CASES {
        let mut meta = DetRng::new(0x4A4DE5).stream(case);
        let seed = meta.range_u64(0..10_000);
        let lo = meta.range_u64(0..100);
        let width = meta.range_u64(1..1000);
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..20 {
            let x = a.range_u64(lo..lo + width);
            let y = b.range_u64(lo..lo + width);
            assert_eq!(x, y, "case {case}");
            assert!((lo..lo + width).contains(&x), "case {case}");
        }
    }
}
