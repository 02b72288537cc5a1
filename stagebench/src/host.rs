//! A fixed piece of work, independent of the program, that tells how fast
//! the host's memory system runs at the moment.
//!
//! On a shared host the same frames go through the same graph up to ~1.6×
//! slower for tens of seconds at a time while neighbours load the machine,
//! and the frame stages, which stream megabytes per frame, slow the most.
//! Timing this kernel between rounds measures that state, so each round's
//! timings can be scaled to a nominal host. The kernel is the benchmark's
//! own code: a change to the program does not move it.
//!
//! The kernel runs in a child process (this binary with `--host-probe`),
//! so its buffers never count towards the benchmark's peak RSS.

use std::time::Instant;

/// Words per thread: 64 MiB, more than the frame pool of any workload, so
/// the kernel streams from memory the way the frame stages do when the
/// pool does not stay cached.
const WORDS: usize = 1 << 24;
/// Probe time (ms) of the nominal host the scaled timings refer to: about
/// what it takes on an idle 2-core host.
pub const NOMINAL_MS: f64 = 70.0;
/// How much more than the kernel a round of the graph slows on a loaded
/// host, as a power of the kernel's slowdown. Fitted on a shared 2-core
/// host: over ten runs of each workload, the log-slope of the unscaled
/// margin against the probe time was about 2 on `sparse_sharded` and
/// 2–4 on `xd1_binned`, and the frame stages' timings varied least once
/// divided by the square of the kernel's slowdown. Set-up, mostly
/// compute-bound frame generation, tracks the kernel itself.
pub const ROUND_EXPONENT: i32 = 2;

/// The factor a timing taken while the probe ran `ms` is divided by to
/// scale it to the nominal host, `exponent` as above (1 for set-up).
pub fn slowdown(ms: f64, exponent: i32) -> f64 {
    (ms / NOMINAL_MS).powi(exponent)
}

/// The flag that makes this binary run the kernel instead of a workload.
pub const FLAG: &str = "--host-probe";

/// Runs the kernel in a child process on `threads` threads at once and
/// returns the wall time of the slowest, ms.
pub fn probe_ms(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([FLAG, &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot run the host probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ms) if out.status.success() && ms > 0.0 => Ok(ms),
        _ => Err(format!("host probe failed: {} {text:?}", out.status)),
    }
}

/// The child's side of [`probe_ms`]: runs the kernel and returns the ms.
pub fn run_kernel(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..threads.max(1) {
            s.spawn(move || std::hint::black_box(kernel(w as u32)));
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Fills a private buffer, then makes one multiply–xor pass over it:
/// page faults, streaming stores and loads, and integer ALU work.
fn kernel(salt: u32) -> u32 {
    let mut buf: Vec<u32> = (0..WORDS as u32).map(|i| i ^ salt).collect();
    let mut acc = salt;
    for v in buf.iter_mut() {
        acc = acc.wrapping_mul(0x9E37_79B1).wrapping_add(*v);
        *v = v.wrapping_add(acc >> 7);
    }
    acc
}
