//! Host-speed probe: a fixed kernel timed between repetitions.
//!
//! On a shared virtual machine the speed of a vCPU drifts with what its
//! neighbours run: identical `robust` runs took 2.0 s in one half hour
//! and 3.4 s in the next, and a set of ten `ladder` runs read 37%
//! slower than a set taken twenty minutes earlier. The drift is slower
//! than a repetition and slows most code alike, so the benchmark times
//! this kernel (code of its own, never the program's) between
//! repetitions and rescales the run's timings to a reference host
//! speed: `t × REFERENCE_S / median probe`. Over 150 s of drift a MILP
//! solve's raw time moved ±25% while its ratio to the probe moved ±2%;
//! across runs minutes apart the quartile spread of `robust`'s solve
//! time fell from 0.15 to 0.08 of its median, and `fleet_warm`'s from
//! 0.28 to 0.09. Raw wall times and every probe stay in the side file.

use std::collections::BinaryHeap;
use std::time::Instant;

/// What one probe takes on a quiet host, seconds: the unit that
/// normalized timings are expressed in.
pub const REFERENCE_S: f64 = 0.008;

/// Seconds the kernel takes, run on each of `threads` threads at once
/// (the way the workload occupies the host's vCPUs) and averaged over
/// them, since a pool's throughput follows its threads' mean speed.
pub fn probe(threads: usize) -> f64 {
    let mut samples = [once(threads), once(threads), once(threads)];
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// One probe: the median of three is what [`probe`] reports, so a single
/// preempted kernel run does not set a run's scale.
fn once(threads: usize) -> f64 {
    let timed = || {
        let t0 = Instant::now();
        std::hint::black_box(kernel());
        t0.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return timed();
    }
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the probe kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// The two kinds of work the workloads do: dense row operations, as in
/// a simplex pivot, and a priority queue of timed events with branchy
/// bookkeeping, as in the simulator.
fn kernel() -> f64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (rows, cols) = (32, 96);
    let mut a: Vec<f64> = (0..rows * cols)
        .map(|_| (next() % 1000) as f64 / 997.0 + 0.01)
        .collect();
    for step in 0..1800 {
        let (r, c) = (step % rows, (step * 7) % cols);
        let pivot = a[r * cols + c];
        for j in 0..cols {
            a[r * cols + j] /= pivot;
        }
        for i in (0..rows).filter(|&i| i != r) {
            let f = a[i * cols + c];
            for j in 0..cols {
                a[i * cols + j] -= f * a[r * cols + j];
            }
        }
    }
    let mut queue = BinaryHeap::new();
    let mut delivered = 0u64;
    for i in 0..60_000u64 {
        queue.push(std::cmp::Reverse((next() % 1_000_000, i)));
        if queue.len() > 256 {
            if let Some(std::cmp::Reverse((t, id))) = queue.pop() {
                if (t ^ id) % 3 == 0 {
                    delivered += 1;
                }
            }
        }
    }
    a.iter().sum::<f64>() + delivered as f64
}
