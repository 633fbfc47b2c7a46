//! Operating-system overhead model (paper §6.2, Figure 6b).
//!
//! The paper measured (with Solaris 10 `pmap`) that each worker thread
//! uses ~850 KB of kernel memory at 2–4 threads, jumping to ~5 MB per
//! thread at 8 threads. These kernel working sets contend with user data
//! in the L2 and are the main source of the 5× L2-miss increase when
//! scaling from 4 to 8 threads.

use parallax_trace::memmap::{Region, LINE};

/// Kernel-memory footprint per worker thread, in bytes.
///
/// Matches the paper's `pmap` measurements: ~850 KB up to 4 threads,
/// ~5 MB at 8 threads (interpolated between).
pub fn kernel_bytes_per_thread(threads: usize) -> u64 {
    match threads {
        0..=4 => 850 * 1024,
        5 => 1_400 * 1024,
        6 => 2_300 * 1024,
        7 => 3_600 * 1024,
        _ => 5 * 1024 * 1024,
    }
}

/// Generates the kernel-space cache lines a worker thread touches during a
/// parallel-phase invocation.
///
/// `fraction` scales how much of the per-thread footprint one phase
/// touches (work-queue management, malloc arenas, scheduling).
pub fn kernel_lines(thread: usize, threads: usize, fraction: f64) -> impl Iterator<Item = u64> {
    let per_thread = kernel_bytes_per_thread(threads);
    let touch = (per_thread as f64 * fraction.clamp(0.0, 1.0)) as u64;
    let base = Region::Kernel.base() + thread as u64 * 8 * 1024 * 1024;
    (0..touch / LINE).map(move |i| base + i * LINE)
}

/// Extra kernel instructions per FG task dispatched through the work
/// queue (locking, queue manipulation).
pub const KERNEL_INSTR_PER_TASK: u64 = 220;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_matches_pmap_measurements() {
        assert_eq!(kernel_bytes_per_thread(2), 850 * 1024);
        assert_eq!(kernel_bytes_per_thread(4), 850 * 1024);
        assert_eq!(kernel_bytes_per_thread(8), 5 * 1024 * 1024);
        assert!(kernel_bytes_per_thread(6) > kernel_bytes_per_thread(4));
        assert!(kernel_bytes_per_thread(6) < kernel_bytes_per_thread(8));
    }

    #[test]
    fn eight_threads_touch_far_more_kernel_memory() {
        let four: usize = (0..4).map(|t| kernel_lines(t, 4, 0.25).count()).sum();
        let eight: usize = (0..8).map(|t| kernel_lines(t, 8, 0.25).count()).sum();
        assert!(
            eight as f64 / four as f64 > 4.0,
            "4T {four} lines vs 8T {eight} lines"
        );
    }

    #[test]
    fn threads_use_disjoint_kernel_regions() {
        let b: std::collections::HashSet<_> = kernel_lines(1, 8, 1.0).collect();
        assert!(kernel_lines(0, 8, 1.0).all(|l| !b.contains(&l)));
    }

    #[test]
    fn all_kernel_lines_in_kernel_region() {
        for l in kernel_lines(3, 8, 0.1) {
            assert!(Region::Kernel.contains(l), "addr {l:#x}");
        }
    }
}
