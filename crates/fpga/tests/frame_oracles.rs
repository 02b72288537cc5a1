//! The frame engines against naive oracles written here, word by word.
//!
//! The accumulator and the binner fold whole rows straight from packet
//! payload bytes. These proptests hold them to the chip's per-word
//! semantics, spelled out in the simplest loop: a per-cell saturating add
//! for the accumulator, and a fine→coarse index map with a saturating add
//! per word for the binner. Cycle counts must match too.

use ims_fpga::dma::FramePacket;
use ims_fpga::{MzBinner, ShardedAccumulator};
use proptest::prelude::*;

/// A pseudo-random word: zero, small, or within 300 of `u32::MAX`, so
/// saturation shows up at every accumulator width and in the binner.
fn word(i: usize, salt: u64) -> u32 {
    let h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let v = (h >> 33) as u32;
    match h % 4 {
        0 => 0,
        1 => u32::MAX - v % 300,
        _ => v % 1000,
    }
}

fn frame(n: usize, salt: u64) -> Vec<u32> {
    (0..n).map(|i| word(i, salt)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The accumulate stage's entry point, payload bytes, for any shard
    /// count, with shards killed mid-block and never rebuilt: contents,
    /// saturation events and cycles equal a per-cell fold of the same
    /// frames in which a killed shard's cells read zero and stop counting.
    #[test]
    fn sharded_payload_fold_matches_per_cell_oracle(
        drift in 1usize..6,
        mz in 1usize..20,
        n_shards in 1usize..8,
        acc_bits in 8u32..=48,
        n_frames in 1usize..8,
        kills in prop::collection::vec((0usize..8, 0usize..8), 0..4),
        salt in any::<u64>(),
    ) {
        let frames: Vec<Vec<u32>> =
            (0..n_frames).map(|k| frame(drift * mz, salt ^ k as u64)).collect();
        let mut acc = ShardedAccumulator::new(drift, mz, acc_bits, n_shards);
        let n = acc.shard_count();
        // Shard `s` is killed right after frame `killed_after[s]` folds.
        let mut killed_after = vec![None; n];
        for &(s, k) in &kills {
            let slot = &mut killed_after[s % n];
            *slot = Some(slot.map_or(k % n_frames, |at: usize| at.min(k % n_frames)));
        }

        for (k, f) in frames.iter().enumerate() {
            let p = FramePacket::from_words(k as u64, f);
            acc.capture_payload(&p.payload).unwrap();
            for (s, at) in killed_after.iter().enumerate() {
                if *at == Some(k) {
                    acc.kill(s);
                }
            }
        }

        // The oracle: one saturating add per cell per frame.
        let ceil = (1u64 << acc_bits) - 1;
        let mut cells = vec![0u64; drift * mz];
        let mut saturated = 0u64;
        let mut cycles = 0u64;
        for (s, at) in killed_after.iter().enumerate() {
            let (lo, hi) = acc.shard_range(s);
            let lost = at.is_some();
            let folded = at.map_or(n_frames, |at| at + 1);
            cycles += folded as u64 * (drift * (hi - lo) + 4) as u64;
            for row in 0..drift {
                for c in row * mz + lo..row * mz + hi {
                    let mut cell = 0u64;
                    for f in &frames[..folded] {
                        cell += u64::from(f[c]);
                        if cell > ceil {
                            cell = ceil;
                            saturated += u64::from(!lost);
                        }
                    }
                    cells[c] = if lost { 0 } else { cell };
                }
            }
        }
        prop_assert_eq!(acc.lost_count(), killed_after.iter().flatten().count());
        prop_assert_eq!(acc.saturation_events(), saturated);
        prop_assert_eq!(acc.cycles(), cycles);
        prop_assert_eq!(acc.drain_merged(), cells);

        // The drain revives every shard: the next block folds everywhere.
        prop_assert_eq!(acc.lost_count(), 0);
        let p = FramePacket::from_words(0, &frames[0]);
        acc.capture_payload(&p.payload).unwrap();
        let one: Vec<u64> = frames[0].iter().map(|&w| u64::from(w).min(ceil)).collect();
        prop_assert_eq!(acc.drain_merged(), one);
    }

    /// The binner, from a slice and from payload bytes, against the
    /// per-word index-map loop: any `coarse <= fine`, remainders included,
    /// words near `u32::MAX`.
    #[test]
    fn binner_matches_per_word_map_oracle(
        fine in 1usize..64,
        coarse_seed in 0usize..64,
        drift in 1usize..5,
        salt in any::<u64>(),
    ) {
        let coarse = 1 + coarse_seed % fine;
        let words = frame(drift * fine, salt);
        let per = fine / coarse;
        let mut want = vec![0u32; drift * coarse];
        for (i, &w) in words.iter().enumerate() {
            let (row, f) = (i / fine, i % fine);
            let c = row * coarse + (f / per).min(coarse - 1);
            want[c] = want[c].saturating_add(w);
        }

        let mut binner = MzBinner::uniform(fine, coarse);
        prop_assert_eq!(binner.bin_frame(&words, drift), want.clone());
        let mut out = vec![7; 3];
        let p = FramePacket::from_words(0, &words);
        binner.bin_payload_into(&p.payload, drift, &mut out);
        prop_assert_eq!(out, want);
        prop_assert_eq!(binner.cycles(), 2 * (drift * fine) as u64);
    }
}

#[test]
fn a_payload_that_is_not_whole_words_is_a_shape_error() {
    let mut acc = ShardedAccumulator::new(2, 2, 16, 2);
    assert!(acc.capture_payload(&[0u8; 15]).is_err());
    assert!(acc.capture_payload(&[0u8; 12]).is_err());
    assert!(acc.capture_payload(&[1u8; 16]).is_ok());
    assert_eq!(acc.cycles(), 2 * (2 + 4));
}
