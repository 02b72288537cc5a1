//! Efficient storage format for acquired/processed IMS-TOF blocks.
//!
//! The companion paper (entry 17, "An efficient data format for mass
//! spectrometry-based proteomics") argues that the community's XML-based
//! exchange formats are a poor fit for large numeric MS datasets and
//! proposes a database-style binary layout with large gains in size and
//! read time. This module reproduces the comparison on our data objects:
//!
//! * **JSON** (the XML-like text baseline) — what `serde_json` produces;
//! * **dense binary** — a fixed header + little-endian `f32` payload;
//! * **sparse binary** — the same header + per-drift-row zero-run-skipping
//!   (IMS-TOF maps are overwhelmingly empty), the analogue of the paper's
//!   indexed column storage.
//!
//! All encoders quantise intensities to `f32` (ADC-count data carries < 24
//! significant bits); the decoders are exact inverses of that quantisation.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ims_physics::DriftTofMap;
use serde::{Deserialize, Serialize};

/// Magic number of the binary container ("HTIM").
const MAGIC: u32 = 0x4854_494D;
/// Format version.
const VERSION: u16 = 1;
/// Header length, bytes.
const HEADER_LEN: usize = 48;

/// Largest map a sparse container may declare, in cells: 2^24, 128 MiB
/// decoded, 32× the 511 × 1000 E3 block. A dense payload carries four bytes
/// per cell, so its header is checked against the payload length; a
/// sparse one can declare any number of zero cells in a few bytes, so its
/// header is checked against this limit instead, before the map is
/// allocated.
pub const MAX_SPARSE_CELLS: usize = 1 << 24;

/// A stored acquisition block: the 2-D map plus the metadata needed to
/// interpret it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredBlock {
    /// Frames accumulated.
    pub frames: u64,
    /// Drift-bin width, seconds.
    pub bin_width_s: f64,
    /// m/z axis lower edge, Th.
    pub mz_min: f64,
    /// m/z axis upper edge, Th.
    pub mz_max: f64,
    /// The intensity map.
    pub map: DriftTofMap,
}

/// Encoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Bad magic / truncated / wrong version.
    Corrupt(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Corrupt(what) => write!(f, "corrupt container: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl StoredBlock {
    /// JSON text encoding (the XML-like baseline of the comparison).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("block serialises")
    }

    /// Parses the JSON encoding.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    fn put_header(&self, buf: &mut BytesMut, kind: u16) {
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(kind);
        buf.put_u64_le(self.frames);
        buf.put_f64_le(self.bin_width_s);
        buf.put_f64_le(self.mz_min);
        buf.put_f64_le(self.mz_max);
        buf.put_u32_le(self.map.drift_bins() as u32);
        buf.put_u32_le(self.map.mz_bins() as u32);
    }

    /// Reads the header and checks the map it declares against the payload
    /// that follows (see [`MAX_SPARSE_CELLS`]) before allocating the map.
    fn read_header(buf: &mut Bytes) -> Result<(u16, Self), FormatError> {
        if buf.remaining() < HEADER_LEN {
            return Err(FormatError::Corrupt("short header"));
        }
        if buf.get_u32_le() != MAGIC {
            return Err(FormatError::Corrupt("bad magic"));
        }
        if buf.get_u16_le() != VERSION {
            return Err(FormatError::Corrupt("unsupported version"));
        }
        let kind = buf.get_u16_le();
        let frames = buf.get_u64_le();
        let bin_width_s = buf.get_f64_le();
        let mz_min = buf.get_f64_le();
        let mz_max = buf.get_f64_le();
        let drift_bins = buf.get_u32_le() as usize;
        let mz_bins = buf.get_u32_le() as usize;
        let cells = drift_bins
            .checked_mul(mz_bins)
            .ok_or(FormatError::Corrupt("map size overflows"))?;
        match kind {
            0 if cells.checked_mul(4) != Some(buf.remaining()) => {
                return Err(FormatError::Corrupt(
                    "dense payload is not 4 bytes per cell",
                ));
            }
            // Every sparse row ends in a 4-byte sentinel.
            1 if cells > MAX_SPARSE_CELLS || drift_bins > buf.remaining() / 4 => {
                return Err(FormatError::Corrupt("sparse map too large for its payload"));
            }
            0 | 1 => {}
            _ => return Err(FormatError::Corrupt("unknown kind")),
        }
        Ok((
            kind,
            Self {
                frames,
                bin_width_s,
                mz_min,
                mz_max,
                map: DriftTofMap::zeros(drift_bins, mz_bins),
            },
        ))
    }

    /// Dense binary encoding: header + row-major `f32` payload.
    pub fn to_binary_dense(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + 4 * self.map.data().len());
        self.put_header(&mut buf, 0);
        for &v in self.map.data() {
            buf.put_f32_le(v as f32);
        }
        buf.freeze()
    }

    /// Sparse binary encoding: header + per-drift-row runs of non-zero
    /// values (`u32 start, u32 len, len × f32`), row terminated by a
    /// `u32::MAX` sentinel.
    pub fn to_binary_sparse(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.map.data().len() / 4);
        self.put_header(&mut buf, 1);
        for d in 0..self.map.drift_bins() {
            let row = self.map.drift_row(d);
            let mut col = 0usize;
            while col < row.len() {
                if row[col] == 0.0 {
                    col += 1;
                    continue;
                }
                let start = col;
                while col < row.len() && row[col] != 0.0 {
                    col += 1;
                }
                buf.put_u32_le(start as u32);
                buf.put_u32_le((col - start) as u32);
                for &v in &row[start..col] {
                    buf.put_f32_le(v as f32);
                }
            }
            buf.put_u32_le(u32::MAX);
        }
        buf.freeze()
    }

    /// Decodes either binary encoding. Malformed input of any kind is a
    /// [`FormatError`]: the declared map is checked against the payload
    /// before it is allocated, so no header can make the decoder allocate
    /// more than twice its input or [`MAX_SPARSE_CELLS`] cells.
    pub fn from_binary(bytes: Bytes) -> Result<Self, FormatError> {
        let mut buf = bytes;
        let (kind, mut block) = Self::read_header(&mut buf)?;
        let (drift_bins, mz_bins) = (block.map.drift_bins(), block.map.mz_bins());
        match kind {
            0 => {
                for v in block.map.data_mut().iter_mut() {
                    *v = buf.get_f32_le() as f64;
                }
            }
            1 => {
                for d in 0..drift_bins {
                    loop {
                        if buf.remaining() < 4 {
                            return Err(FormatError::Corrupt("short sparse payload"));
                        }
                        let start = buf.get_u32_le();
                        if start == u32::MAX {
                            break;
                        }
                        if buf.remaining() < 4 {
                            return Err(FormatError::Corrupt("short run header"));
                        }
                        let len = buf.get_u32_le() as usize;
                        let start = start as usize;
                        if start + len > mz_bins || buf.remaining() < 4 * len {
                            return Err(FormatError::Corrupt("run out of bounds"));
                        }
                        let row = block.map.drift_row_mut(d);
                        for slot in row[start..start + len].iter_mut() {
                            *slot = buf.get_f32_le() as f64;
                        }
                    }
                }
            }
            _ => unreachable!("read_header admits kinds 0 and 1 only"),
        }
        Ok(block)
    }
}

/// Quantises a map to `f32` (what any binary round trip preserves).
pub fn quantise_f32(map: &DriftTofMap) -> DriftTofMap {
    let mut out = map.clone();
    for v in out.data_mut().iter_mut() {
        *v = *v as f32 as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(fill: f64) -> StoredBlock {
        // Row-major contiguous fill with realistic fractional intensities.
        let (dn, mn) = (40usize, 200usize);
        let mut map = DriftTofMap::zeros(dn, mn);
        let cells = (fill * (dn * mn) as f64) as usize;
        for i in 0..cells {
            map.data_mut()[i] = (i as f64) * 1.618_033 + 0.237_91;
        }
        StoredBlock {
            frames: 42,
            bin_width_s: 3.9e-4,
            mz_min: 200.0,
            mz_max: 2200.0,
            map,
        }
    }

    #[test]
    fn dense_round_trip_exact_at_f32() {
        let block = sample_block(0.2);
        let bytes = block.to_binary_dense();
        let back = StoredBlock::from_binary(bytes).unwrap();
        assert_eq!(back.frames, 42);
        assert_eq!(back.map.data(), quantise_f32(&block.map).data());
        assert_eq!(back.bin_width_s, block.bin_width_s);
    }

    #[test]
    fn sparse_round_trip_exact_at_f32() {
        for fill in [0.0, 0.01, 0.3, 1.0] {
            let block = sample_block(fill);
            let bytes = block.to_binary_sparse();
            let back = StoredBlock::from_binary(bytes).unwrap();
            assert_eq!(
                back.map.data(),
                quantise_f32(&block.map).data(),
                "fill {fill}"
            );
        }
    }

    #[test]
    fn json_round_trip() {
        let block = sample_block(0.05);
        let back = StoredBlock::from_json(&block.to_json()).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn binary_beats_text_on_real_valued_data() {
        // Fully populated map of fractional intensities: the text encoding
        // spends ~18 characters per value against 4 binary bytes.
        let block = sample_block(1.0);
        let json = block.to_json().len();
        let dense = block.to_binary_dense().len();
        assert!(dense < json / 3, "dense {dense} vs json {json}");
    }

    #[test]
    fn sparse_is_much_smaller_for_sparse_maps() {
        let block = sample_block(0.02);
        let dense = block.to_binary_dense().len();
        let sparse = block.to_binary_sparse().len();
        assert!(sparse < dense / 10, "sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn dense_is_smaller_for_full_maps() {
        let block = sample_block(1.0);
        let dense = block.to_binary_dense().len();
        let sparse = block.to_binary_sparse().len();
        // Fully dense data: sparse adds run overhead.
        assert!(dense <= sparse);
    }

    #[test]
    fn corrupt_containers_rejected() {
        let block = sample_block(0.1);
        let good = block.to_binary_dense();
        // Truncated.
        let truncated = good.slice(0..good.len() / 2);
        assert!(StoredBlock::from_binary(truncated).is_err());
        // Bad magic.
        let mut bad = BytesMut::from(&good[..]);
        bad[0] ^= 0xFF;
        assert!(StoredBlock::from_binary(bad.freeze()).is_err());
        // Empty.
        assert!(StoredBlock::from_binary(Bytes::new()).is_err());
        // Trailing bytes after a dense payload.
        let mut long = BytesMut::from(&good[..]);
        long.put_u32_le(0);
        assert!(StoredBlock::from_binary(long.freeze()).is_err());
    }

    #[test]
    fn a_header_claiming_a_huge_map_is_an_error_not_an_allocation() {
        // A bare 48-byte header declaring 65536 × 65536 cells: 32 GiB as
        // f64, which the decoder used to allocate before reading on.
        for kind in [0, 1] {
            let mut header = BytesMut::new();
            sample_block(0.0).put_header(&mut header, kind);
            assert_eq!(header.len(), HEADER_LEN);
            header[40..44].copy_from_slice(&65536u32.to_le_bytes());
            header[44..48].copy_from_slice(&65536u32.to_le_bytes());
            let err = StoredBlock::from_binary(header.freeze()).unwrap_err();
            assert!(matches!(err, FormatError::Corrupt(_)), "kind {kind}: {err}");
        }
    }
}
