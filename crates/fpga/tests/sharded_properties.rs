//! Property pins for the m/z-range-sharded accumulator: for any shard
//! count and frame order, the merged drain is bit-identical to a
//! monolithic `AccumulatorCore` fed the same frames in the same order.

use ims_fpga::{AccumulatorCore, ShardedAccumulator};
use proptest::prelude::*;

/// A deterministic pseudo-random frame; small acc widths downstream make
/// saturation easy to hit, so the per-cell saturating-add path is covered.
fn frame(drift: usize, mz: usize, salt: u64) -> Vec<u32> {
    (0..drift * mz)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            // Mix of zeros (sparse coverage) and values near the 8-bit ceil.
            if h.is_multiple_of(5) {
                0
            } else {
                ((h >> 32) % 97) as u32
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline acceptance pin: merged sharded drain == monolithic
    /// drain bit-for-bit, across shard counts (including counts larger
    /// than the column count, which clamp) and permuted frame orders. The
    /// saturation tally matches too — both engines see the same per-cell
    /// saturating adds, because the column ranges are disjoint.
    #[test]
    fn merged_drain_is_bit_identical_to_monolithic(
        drift in 1usize..8,
        mz in 1usize..24,
        n_shards in 1usize..32,
        acc_bits in 8u32..16,
        n_frames in 1usize..10,
        order_seed in 0u64..1000,
    ) {
        let mut frames: Vec<Vec<u32>> =
            (0..n_frames).map(|k| frame(drift, mz, k as u64)).collect();
        // Deterministic permutation of the frame order — the SAME order is
        // fed to both engines (saturation event counts are order-dependent,
        // final contents are not; this pins both under permutation).
        for i in (1..frames.len()).rev() {
            let j = (order_seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(i as u64) % (i as u64 + 1)) as usize;
            frames.swap(i, j);
        }

        let mut mono = AccumulatorCore::new(drift, mz, acc_bits);
        let mut sharded = ShardedAccumulator::new(drift, mz, acc_bits, n_shards);
        prop_assert!(sharded.shard_count() >= 1);
        prop_assert!(sharded.shard_count() <= mz);

        for f in &frames {
            mono.capture_frame(f).unwrap();
            sharded.capture_frame(f).unwrap();
        }

        prop_assert_eq!(sharded.saturation_events(), mono.saturation_events());
        prop_assert_eq!(sharded.drain_merged(), mono.drain());
    }

    /// Kill-then-rebuild restores bit-identical merge output: a shard
    /// killed mid-stream, revived, and re-fed every frame from the log
    /// drains exactly what an undisturbed run would have.
    #[test]
    fn rebuild_after_kill_restores_monolithic_contents(
        drift in 1usize..6,
        mz in 2usize..20,
        n_shards in 2usize..6,
        n_frames in 1usize..8,
        kill_at in 0usize..8,
        victim_seed in 0u64..64,
    ) {
        let frames: Vec<Vec<u32>> =
            (0..n_frames).map(|k| frame(drift, mz, k as u64 + 7)).collect();
        let mut mono = AccumulatorCore::new(drift, mz, 8);
        let mut acc = ShardedAccumulator::new(drift, mz, 8, n_shards);
        let victim = (victim_seed as usize) % acc.shard_count();
        let kill_at = kill_at % frames.len().max(1);

        for (k, f) in frames.iter().enumerate() {
            mono.capture_frame(f).unwrap();
            acc.capture_frame(f).unwrap();
            if k == kill_at {
                acc.kill(victim);
                prop_assert!(acc.is_lost(victim));
            }
        }
        // Recovery: revive and replay the full frame history into the
        // victim shard only (what the capture log provides).
        acc.revive(victim);
        for f in &frames {
            acc.rebuild_frame(victim, f).unwrap();
        }
        prop_assert_eq!(acc.saturation_events(), mono.saturation_events());
        prop_assert_eq!(acc.drain_merged(), mono.drain());
    }
}
