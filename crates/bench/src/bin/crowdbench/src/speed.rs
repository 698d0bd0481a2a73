//! Machine-speed calibration.
//!
//! The host is shared: other tenants' load changes how fast the same code
//! runs by tens of percent, in spells that last minutes. A run therefore
//! also times a fixed reference kernel after each set-up and between jobs,
//! and scales wall times by [`NOMINAL_MS`] over the kernel's time. The
//! kernel is the benchmark's own code, so no change to the program moves
//! it. It is compute-bound (a hash chain feeding `ln` and `exp`): over a
//! recorded ten-minute trace on the shared host its slowdowns followed the
//! jobs' within about 5%, where a kernel of random reads over a 4 MiB table
//! missed by up to 8%.

use crowdkit_obs::WallTimer;

/// About the kernel's median on the host the bounds were set on, when
/// quiet (an Intel Xeon with 2 vCPUs and 2 MiB L2 per core).
pub const NOMINAL_MS: f64 = 8.4;

/// Hash-and-transcendental steps per kernel run: several ms, long enough
/// to be preempted about as often as a job is.
const STEPS: u64 = 600_000;

/// Runs the reference kernel once and returns its wall time in ms.
pub fn reference_ms() -> f64 {
    let t = WallTimer::start();
    let (mut x, mut acc) = (1u64, 0.0f64);
    for _ in 0..STEPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        acc += (u + 0.5).ln() * (-u).exp();
    }
    std::hint::black_box(acc);
    t.elapsed_ns() as f64 / 1e6
}
