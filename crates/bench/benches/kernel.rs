//! DES-kernel microbenchmarks (`cargo bench --bench kernel`): event-queue
//! push/pop throughput plus a full fig7-scale simulation, exercising the
//! hot paths the runner leans on (`with_capacity` pre-sizing, the O(1)
//! `peek_time` head, the `pop_if_at` same-timestamp burst drain, the sorted
//! day rung under dense distinct timestamps, scratch-buffer reuse in the
//! event loop).
//! Self-contained `Instant`-based harness — no external benchmarking crate.

use std::hint::black_box;
use std::time::Instant;

use cord_bench::{run_app, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_sim::{DetRng, EventQueue, Time};
use cord_workloads::AppSpec;

fn bench<O>(name: &str, iters: u32, mut f: impl FnMut() -> O) {
    f();
    let mut times = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!("{name:<28} min {min:9.3} ms   mean {mean:9.3} ms   ({iters} iters)");
}

const N: usize = 100_000;

fn main() {
    let _ = std::env::args();

    // Bulk push then drain: heap-ordered throughput, pre-sized backing store.
    bench("queue/push_pop_100k", 10, || {
        let mut rng = DetRng::new(0xBE7C);
        let mut q = EventQueue::with_capacity(N);
        for i in 0..N {
            q.push(Time::from_ns(rng.range_u64(0..1_000_000)), i);
        }
        let mut acc = 0usize;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    // Interleaved push/pop with a peek_time check per step — the runner's
    // event-loop access pattern. Pushes are relative to `now` so no event
    // lands in the past.
    bench("queue/interleaved_peek_100k", 10, || {
        let mut rng = DetRng::new(0x9EE);
        let mut q = EventQueue::with_capacity(64);
        let mut acc = 0u64;
        q.push(Time::ZERO, 0usize);
        for i in 1..N {
            if let Some(t) = q.peek_time() {
                acc = acc.wrapping_add(t.as_ps());
            }
            if q.is_empty() || rng.chance(0.55) {
                let delta = Time::from_ns(rng.range_u64(1..1_000));
                q.push(q.now() + delta, i);
            } else if let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v as u64);
            }
        }
        while q.pop().is_some() {}
        acc
    });

    // Same-timestamp bursts (a cycle-accurate fabric landing many
    // deliveries on one tick), drained two ways: every event through a
    // full `pop`, versus the runner's `pop_if_at` fast path that drains
    // each burst on a cached-head compare. The workload is identical; the
    // delta is the fast path's value.
    let burst_fill = |q: &mut EventQueue<usize>, rng: &mut DetRng| {
        let mut t = 0u64;
        let mut i = 0usize;
        while i < N {
            t += rng.range_u64(1..50);
            let burst = rng.range_u64(1..16) as usize;
            for _ in 0..burst.min(N - i) {
                q.push(Time::from_ns(t), i);
                i += 1;
            }
        }
    };
    bench("queue/burst_pop_100k", 10, || {
        let mut rng = DetRng::new(0xB0B);
        let mut q = EventQueue::with_capacity(N);
        burst_fill(&mut q, &mut rng);
        let mut acc = 0usize;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });
    bench("queue/burst_pop_if_at_100k", 10, || {
        let mut rng = DetRng::new(0xB0B);
        let mut q = EventQueue::with_capacity(N);
        burst_fill(&mut q, &mut rng);
        let mut acc = 0usize;
        while let Some((t, v)) = q.pop() {
            acc = acc.wrapping_add(v);
            while let Some(v) = q.pop_if_at(t) {
                acc = acc.wrapping_add(v);
            }
        }
        acc
    });

    // Dense distinct timestamps: picosecond-granular arrivals over a
    // sliding 50 ns window (a jittered fabric), so each 4.096 ns calendar
    // day holds dozens of distinct timestamps and every served event
    // schedules its successor inside the window, often into the day being
    // drained.
    bench("queue/dense_distinct_100k", 10, || {
        let mut rng = DetRng::new(0xD15);
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1024 {
            q.push(Time::from_ps(rng.range_u64(0..50_000)), i);
        }
        let mut acc = 0usize;
        for _ in 0..N {
            let (t, v) = q.pop().expect("the window never empties");
            acc = acc.wrapping_add(v);
            q.push(t + Time::from_ps(rng.range_u64(0..50_000)), v);
        }
        acc
    });

    // A full fig7-scale end-to-end simulation (8 hosts, Table 2 app) — the
    // macro view of the same kernel.
    let app = AppSpec::by_name("MOCFE").expect("known app");
    bench("sim/fig7_scale_mocfe_cord", 5, || {
        run_app(
            &app,
            ProtocolKind::Cord,
            Fabric::Cxl,
            8,
            ConsistencyModel::Rc,
        )
    });
}
