//! The calibration kernel: a fixed piece of work the benchmark times
//! next to every replay, so that a replay's CPU time can be scaled to a
//! reference processor speed.
//!
//! On a shared host the core this thread runs on is shared too (another
//! guest on its sibling hyperthread, say), and how fast the thread
//! retires instructions drifts over minutes: one paper-day replay took
//! 0.65–1.4× its median CPU time over 20 minutes in one process, in a
//! fast and a slow state that each lasted from seconds to over half a
//! minute. The process's CPU clock does not see that: the thread is
//! running, only slower. The kernel slows with it, so
//! `replay_ns × REFERENCE_NS / kernel_ns` is the replay's CPU time at the
//! speed the host had when the kernel took [`REFERENCE_NS`].
//!
//! The kernel is three parts, each timed together:
//!
//! - an ordered map churned with small heap allocations: pointer-chasing
//!   loads, unpredictable branches and the allocator, like the engines'
//!   per-stream bookkeeping;
//! - a vector grown by pushes to 16 MiB: reallocation copies and memory
//!   bandwidth, like the run statistics the engines grow;
//! - four dependent chains of integer arithmetic and an eight-way branch
//!   on table entries: execution ports and the front end.
//!
//! Over 20 minutes of a paper-day, a `vcr_churn` and a `cluster_failover`
//! replay in turn, the window medians of the replays' raw CPU times moved
//! 15–18 % (quartile distance over median, 8-replay windows); scaled by
//! the first part alone they moved 5–9 %, by the third alone 4–10 %.
//! With another process streaming memory on the second vCPU, the paper
//! days slowed 5–13 %, the first two parts 9 % and the third 11 %. The
//! kernel times all three, so no one kind of contention decides it.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::host::cpu_ns;

/// About the kernel's median CPU time on a shared 2-vCPU Intel Xeon VM.
/// Only a scale: every scaled time is a replay's CPU time over the
/// kernel's, times this.
pub const REFERENCE_NS: f64 = 24.0e6;

/// Insert-or-remove steps of the map part.
const MAP_STEPS: u64 = 50_000;
/// Keys the map part draws from.
const MAP_KEYS: u64 = 4096;
/// `u64` pushes of the vector part (16 MiB).
const PUSHES: usize = 2 << 20;
/// Iterations of the four-chain integer loop.
const ILP_ITERS: u64 = 2_500_000;
/// Iterations of the table-driven branch loop.
const BRANCH_ITERS: u64 = 250_000;

/// Runs the kernel once and returns its CPU nanoseconds.
#[must_use]
pub fn kernel_ns() -> u64 {
    let t0 = cpu_ns();
    black_box(map_churn(black_box(MAP_STEPS)));
    black_box(grow(black_box(PUSHES)));
    black_box(ilp(black_box(ILP_ITERS)));
    black_box(branches(black_box(BRANCH_ITERS)));
    cpu_ns() - t0
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Random inserts and removals on a map of up to [`MAP_KEYS`] entries,
/// each value a heap block of 1–16 floats.
fn map_churn(n: u64) -> usize {
    let mut s = 11u64;
    let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut total = 0;
    for _ in 0..n {
        let k = xorshift(&mut s) % MAP_KEYS;
        if let Some(v) = map.remove(&k) {
            total += v.len();
        } else {
            map.insert(k, vec![k as f64; (k % 16) as usize + 1]);
        }
    }
    total + map.len()
}

/// Pushes `n` values onto a fresh vector, reading back now and then.
fn grow(n: usize) -> u64 {
    let mut v: Vec<u64> = Vec::new();
    let mut acc = 0u64;
    for i in 0..n {
        v.push(i as u64 ^ acc);
        if i % 4096 == 0 {
            acc = acc.wrapping_add(v[i / 2]);
        }
    }
    acc
}

/// Four dependency chains of multiplies, rotates, shifts and xors: keeps
/// several execution ports busy at once, so it slows when another
/// hyperthread competes for them.
fn ilp(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b = b.rotate_left(7) ^ a;
        c = c.wrapping_add(b >> 3);
        d ^= c.wrapping_mul(0x9e37);
    }
    a ^ b ^ c ^ d
}

/// An eight-way match on pseudo-random table entries: branch prediction
/// and the front end, which the simulator's per-service code leans on.
fn branches(n: u64) -> u64 {
    let mut s = 9u64;
    let table: Vec<u8> = (0..4096).map(|_| xorshift(&mut s) as u8).collect();
    let mut acc = 0u64;
    for _ in 0..n {
        let k = table[(xorshift(&mut s) as usize) & 4095];
        acc = match k & 7 {
            0 => acc.wrapping_add(1),
            1 => acc ^ 0x55,
            2 => acc.rotate_left(3),
            3 => acc.wrapping_mul(3),
            4 => acc.wrapping_sub(7),
            5 => (acc >> 1) | (1 << 63),
            6 => !acc,
            _ => acc.wrapping_add(s),
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_cpu_time_and_is_deterministic() {
        assert!(kernel_ns() > 0);
        assert_eq!(map_churn(1000), map_churn(1000));
        assert_eq!(grow(1000), grow(1000));
        assert_eq!(ilp(1000), ilp(1000));
        assert_eq!(branches(1000), branches(1000));
    }
}
