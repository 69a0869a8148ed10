//! Binary columnar codec.
//!
//! Share columns are plain `u64` vectors; the on-disk format is a 24-byte
//! header (magic, version, length) followed by little-endian values, with
//! a trailing FNV-1a checksum of the values so a truncated or bit-flipped
//! file is detected at load rather than silently corrupting a query. Each
//! direction walks a column once: values are converted a block at a time
//! and folded into the checksum as they pass. The paper's
//! servers kept shares in MySQL; a flat columnar file preserves the same
//! measurable "data fetch" phase (Figure 3) without the dependency.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic: "PRSMCOL1".
const MAGIC: u64 = 0x5052_534D_434F_4C31;
/// Format version.
const VERSION: u32 = 1;

/// Errors from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Wrong magic — not a PRISM column file.
    BadMagic(u64),
    /// Unknown version.
    BadVersion(u32),
    /// Body shorter than the header promised.
    Truncated {
        /// Values promised by the header.
        expected: usize,
        /// Values actually present.
        got: usize,
    },
    /// Checksum mismatch.
    ChecksumMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated column: expected {expected} values, got {got}")
            }
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a offset basis: the checksum of an empty column.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Header bytes before the values: magic, version, reserved, length.
const HEADER: usize = 24;
/// Values converted per block on write: a 4 KiB stack block, appended
/// whole (one capacity check and one copy per block, as `wire` does).
const BLOCK: usize = 512;

/// One step of the running checksum: FNV-1a over the raw words, in column
/// order (integrity against accidents, not adversaries; adversarial
/// servers are handled by the protocol-level verification).
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Encode a column into a self-describing byte buffer. Each value is
/// converted and folded into the checksum in the same pass.
pub fn encode_column(values: &[u64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER + values.len() * 8 + 8);
    buf.put_u64_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(0); // reserved
    buf.put_u64_le(values.len() as u64);
    let mut h = FNV_OFFSET;
    let mut block = [0u8; BLOCK * 8];
    for chunk in values.chunks(BLOCK) {
        let bytes = &mut block[..chunk.len() * 8];
        for (dst, &v) in bytes.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
            h = fold(h, v);
        }
        buf.put_slice(bytes);
    }
    buf.put_u64_le(h);
    buf.freeze()
}

/// Decode a column, validating magic, version, length and checksum. Each
/// value is converted and folded into the checksum in the same pass.
pub fn decode_column(buf: &[u8]) -> Result<Vec<u64>, CodecError> {
    if buf.len() < HEADER {
        return Err(CodecError::Truncated {
            expected: 0,
            got: buf.len(),
        });
    }
    let (mut header, body) = buf.split_at(HEADER);
    let magic = header.get_u64_le();
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = header.get_u32_le();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let _reserved = header.get_u32_le();
    let len = usize::try_from(header.get_u64_le()).unwrap_or(usize::MAX);
    // Values, then the checksum; a length no file can hold is truncated.
    let need = len.checked_mul(8).and_then(|n| n.checked_add(8));
    let Some(need) = need.filter(|&need| need <= body.len()) else {
        return Err(CodecError::Truncated {
            expected: len,
            got: body.len() / 8,
        });
    };
    let (data, mut trailer) = body.split_at(need - 8);
    let mut h = FNV_OFFSET;
    let mut values = Vec::with_capacity(len);
    values.extend(data.chunks_exact(8).map(|c| {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = fold(h, v);
        v
    }));
    if trailer.get_u64_le() != h {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The element-wise codec the block codec replaced: one `BufMut` /
    /// `Buf` call per value and a second pass for the checksum. It pins
    /// the format — the block codec must write its bytes and read back its
    /// values and errors. Its length check is the checked one (the
    /// original multiplied the header's length unchecked and panicked).
    mod reference {
        use super::super::{CodecError, MAGIC, VERSION};
        use bytes::{Buf, BufMut, Bytes, BytesMut};

        fn checksum(values: &[u64]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &v in values {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }

        pub(super) fn encode_column(values: &[u64]) -> Bytes {
            let mut buf = BytesMut::with_capacity(24 + values.len() * 8 + 8);
            buf.put_u64_le(MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u32_le(0);
            buf.put_u64_le(values.len() as u64);
            for &v in values {
                buf.put_u64_le(v);
            }
            buf.put_u64_le(checksum(values));
            buf.freeze()
        }

        pub(super) fn decode_column(mut buf: &[u8]) -> Result<Vec<u64>, CodecError> {
            if buf.len() < 24 {
                return Err(CodecError::Truncated {
                    expected: 0,
                    got: buf.len(),
                });
            }
            let magic = buf.get_u64_le();
            if magic != MAGIC {
                return Err(CodecError::BadMagic(magic));
            }
            let version = buf.get_u32_le();
            if version != VERSION {
                return Err(CodecError::BadVersion(version));
            }
            let _reserved = buf.get_u32_le();
            let len = buf.get_u64_le() as usize;
            let need = len.checked_mul(8).and_then(|n| n.checked_add(8));
            if need.map_or(true, |need| buf.remaining() < need) {
                return Err(CodecError::Truncated {
                    expected: len,
                    got: buf.remaining() / 8,
                });
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(buf.get_u64_le());
            }
            let stored = buf.get_u64_le();
            if stored != checksum(&values) {
                return Err(CodecError::ChecksumMismatch);
            }
            Ok(values)
        }
    }

    /// FNV-1a over bytes, for pinning an encoding.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn roundtrip_small() {
        for values in [vec![], vec![0u64], vec![1, 2, 3, u64::MAX]] {
            let enc = encode_column(&values);
            assert_eq!(decode_column(&enc).unwrap(), values);
        }
    }

    #[test]
    fn detects_bad_magic() {
        let mut enc = encode_column(&[1, 2]).to_vec();
        enc[0] ^= 0xFF;
        assert!(matches!(
            decode_column(&enc).unwrap_err(),
            CodecError::BadMagic(_)
        ));
    }

    #[test]
    fn detects_truncation() {
        let enc = encode_column(&[1, 2, 3]).to_vec();
        assert!(matches!(
            decode_column(&enc[..enc.len() - 9]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        assert!(matches!(
            decode_column(&enc[..10]).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn detects_bitflip() {
        let mut enc = encode_column(&[7, 8, 9]).to_vec();
        enc[30] ^= 0x01; // flip a data bit
        assert_eq!(
            decode_column(&enc).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn detects_bad_version() {
        let mut enc = encode_column(&[1]).to_vec();
        enc[8] = 99;
        assert!(matches!(
            decode_column(&enc).unwrap_err(),
            CodecError::BadVersion(99)
        ));
    }

    #[test]
    fn a_length_no_file_can_hold_is_truncated_not_a_panic() {
        for len in [(1u64 << 61) + 1, u64::MAX] {
            let mut enc = encode_column(&[1, 2, 3]).to_vec();
            enc[16..24].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                decode_column(&enc).unwrap_err(),
                CodecError::Truncated {
                    expected: len as usize,
                    got: 4,
                },
                "length {len:#x}"
            );
        }
    }

    /// FNV-1a of [`fixed_column_encoding_is_pinned`]'s encoding.
    const GOLDEN_DIGEST: u64 = 0x183a_b2ca_3b35_22e4;

    /// One fixed column's encoding, pinned: a change to the format has to
    /// change this digest on purpose.
    #[test]
    fn fixed_column_encoding_is_pinned() {
        let values: Vec<u64> = (0..1_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let enc = encode_column(&values);
        assert_eq!(enc.len(), 24 + 1_000 * 8 + 8);
        assert_eq!(digest(&enc), GOLDEN_DIGEST);
        assert_eq!(enc, reference::encode_column(&values));
    }

    /// A column written by the reference encoder decodes unchanged.
    #[test]
    fn reference_files_decode_unchanged() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let values: Vec<u64> = (0..n as u64).map(|i| i ^ (i << 33)).collect();
            assert_eq!(
                decode_column(&reference::encode_column(&values)).unwrap(),
                values
            );
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..500)) {
            let enc = encode_column(&values);
            prop_assert_eq!(decode_column(&enc).unwrap(), values);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_the_reference(
            values in proptest::collection::vec(any::<u64>(), 0..5_000),
            at in any::<u64>(),
            mask in 1u8..=255,
            cut in any::<u64>(),
        ) {
            let enc = encode_column(&values);
            prop_assert_eq!(&enc, &reference::encode_column(&values));
            prop_assert_eq!(decode_column(&enc), reference::decode_column(&enc));
            // Every single-byte flip and truncation: the same typed error.
            // (The reserved header word, bytes 12..16, is not checked.)
            let at = at as usize % enc.len();
            let mut flipped = enc.to_vec();
            flipped[at] ^= mask;
            let got = decode_column(&flipped);
            prop_assert!(got.is_err() || (12..16).contains(&at));
            prop_assert_eq!(got, reference::decode_column(&flipped));
            let short = &enc[..cut as usize % enc.len()];
            let got = decode_column(short);
            prop_assert!(got.is_err());
            prop_assert_eq!(got, reference::decode_column(short));
        }
    }
}
