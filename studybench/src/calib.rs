//! Machine-speed reference. On a shared machine the same study's wall
//! time moves by up to 2× within seconds as other tenants come and go.
//! A fixed kernel that runs no program code is timed right before and
//! right after each study; the study's times are divided by the
//! kernel's slowdown against [`REFERENCE_S`], which cancels most of the
//! machine's momentary speed while leaving every change to the program
//! visible. Raw times are reported beside the normalized ones.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time per pass, in seconds, on the machine the benchmark
/// was defined on (2-core Xeon at 2.1 GHz) at its median speed; two
/// copies at once take as long when both cores are free. Normalized
/// times read as seconds on that machine.
const REFERENCE_S: f64 = 0.0232;

/// Sorts per measurement.
const PASSES: usize = 3;
/// Keys per sort: 8 MB, more than the last-level cache share a core
/// can count on, so memory contention shows as it does in a study.
const KEYS: usize = 1 << 20;

/// Mean seconds of one pass of the kernel, run on `threads` threads at
/// once: the streamed workload keeps both cores busy, so its machine
/// speed is measured on both — at times other tenants leave only one.
pub fn measure(threads: usize) -> f64 {
    let passes: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(kernel)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration kernel panicked"))
            .collect()
    });
    passes.iter().sum::<f64>() / passes.len() as f64
}

/// Mean seconds of one pass of sorting a fixed pseudo-random array.
fn kernel() -> f64 {
    let mut keys = vec![0u64; KEYS];
    let mut total = 0.0;
    for _ in 0..PASSES {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for k in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        let start = Instant::now();
        black_box(&mut keys).sort_unstable();
        total += start.elapsed().as_secs_f64();
    }
    total / PASSES as f64
}

/// The machine's slowdown around one study, from the kernel times
/// before and after it: 1.0 at reference speed, 2.0 at half speed.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_S
}
