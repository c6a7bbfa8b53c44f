//! Binary shard framing: the on-disk / on-wire format of a checkpoint shard.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   u32   0x4D4F4353 ("MOCS")
//! format  u16   2
//! key     u16 module-name length | bytes | u8 part tag | u64 version
//! crc32   u32   checksum of the payload
//! len     u64   payload length
//! hcrc32  u32   checksum of every header byte above (format 2 only)
//! payload bytes
//! ```
//!
//! A frame is self-delimiting — its header says where it ends — so frames
//! concatenate: a `.shard` file of [`crate::FileObjectStore`] is a *pack*
//! of one or more frames back to back, walked header by header. That is
//! what the header checksum is for: in a pack nothing but the header says
//! which key a frame holds, so a flipped bit in a module name must not
//! turn one shard into a well-formed copy of its neighbour. Format 1 —
//! the same header without `hcrc32`, written by earlier versions into
//! one file per key, where the file name vouched for the key — still
//! decodes.
//!
//! The payload checksum guards recovery: a torn persist (e.g. a node
//! dying mid-write) is detected instead of silently restoring corrupt
//! state. It is computed once where the payload is produced and carried:
//! the writer hands it to [`encode_header`], and the store streams
//! header + payload without a second pass or a framed copy.

use crate::key::{ShardKey, StatePart};
use bytes::Bytes;
use std::fmt;

const MAGIC: u32 = 0x4D4F_4353;
/// The format written: format 1 plus a header checksum.
const FORMAT: u16 = 2;
/// The format of earlier versions, still read.
const FORMAT_V1: u16 = 1;

/// Error decoding a framed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer too short to contain a frame at the expected offset.
    Truncated,
    /// Magic number mismatch: not a shard frame.
    BadMagic(u32),
    /// Unsupported format version.
    BadFormat(u16),
    /// Unknown state-part tag byte.
    BadPartTag(u8),
    /// Module name was not valid UTF-8.
    BadModuleName,
    /// Header checksum mismatch: a header field was corrupted.
    HeaderChecksumMismatch {
        /// Checksum recorded at the end of the header.
        expected: u32,
        /// Checksum computed over the header bytes read back.
        actual: u32,
    },
    /// Payload checksum mismatch (torn or corrupted write).
    ChecksumMismatch {
        /// Checksum recorded in the frame header.
        expected: u32,
        /// Checksum computed over the payload read back.
        actual: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated shard frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            FrameError::BadFormat(v) => write!(f, "unsupported frame format {v}"),
            FrameError::BadPartTag(t) => write!(f, "unknown state-part tag {t}"),
            FrameError::BadModuleName => write!(f, "module name is not valid utf-8"),
            FrameError::HeaderChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "header checksum mismatch: header {expected:#x}, computed {actual:#x}"
                )
            }
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: header {expected:#x}, computed {actual:#x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a shard into a framed byte buffer.
///
/// # Examples
///
/// ```
/// use moc_store::{frame, ShardKey, StatePart};
/// use bytes::Bytes;
/// let key = ShardKey::new("layer1.expert0", StatePart::Weights, 10);
/// let framed = frame::encode(&key, &Bytes::from_static(b"payload"));
/// let (decoded, payload) = frame::decode(&framed)?;
/// assert_eq!(decoded, key);
/// assert_eq!(&payload[..], b"payload");
/// # Ok::<(), moc_store::frame::FrameError>(())
/// ```
pub fn encode(key: &ShardKey, payload: &Bytes) -> Bytes {
    let mut buf = Vec::with_capacity(header_len(key) + payload.len());
    encode_header(key, crc32(payload), payload.len() as u64, &mut buf);
    buf.extend_from_slice(payload);
    Bytes::from(buf)
}

/// Appends the header of a frame whose payload has checksum
/// `payload_crc` and length `payload_len` to `out`; the frame is that
/// header followed by the payload bytes. The caller vouches for the
/// checksum: a wrong one yields a frame every reader rejects.
///
/// # Panics
///
/// Panics if the module name is longer than `u16::MAX` bytes (the
/// format's name-length field).
pub fn encode_header(key: &ShardKey, payload_crc: u32, payload_len: u64, out: &mut Vec<u8>) {
    let start = out.len();
    put_fields(FORMAT, key, payload_crc, payload_len, out);
    let header_crc = crc32(&out[start..]);
    out.extend_from_slice(&header_crc.to_le_bytes());
}

/// The header fields formats 1 and 2 share.
fn put_fields(format: u16, key: &ShardKey, payload_crc: u32, payload_len: u64, out: &mut Vec<u8>) {
    let name_len = u16::try_from(key.module.len()).expect("module name fits the u16 length field");
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&format.to_le_bytes());
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(key.module.as_bytes());
    out.push(part_tag(key.part));
    out.extend_from_slice(&key.version.to_le_bytes());
    out.extend_from_slice(&payload_crc.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Fixed header bytes around the variable-length module name: magic,
/// format, name length, part tag, version, payload CRC, payload length.
const HEADER_FIXED: usize = 4 + 2 + 2 + 1 + 8 + 4 + 8;

/// Bytes of header checksum a frame of `format` ends its header with.
fn header_crc_len(format: u16) -> usize {
    if format == FORMAT_V1 {
        0
    } else {
        4
    }
}

/// Bytes the header of a frame for `key` occupies.
pub fn header_len(key: &ShardKey) -> usize {
    HEADER_FIXED + key.module.len() + header_crc_len(FORMAT)
}

/// Header length of the frame starting at `prefix[0]`, read from its
/// format and name-length fields — how many bytes [`decode_header`]
/// needs. `None` when `prefix` is shorter than the 8 bytes up to there.
pub fn peek_header_len(prefix: &[u8]) -> Option<usize> {
    let format = u16::from_le_bytes(prefix.get(4..6)?.try_into().ok()?);
    let name_len = u16::from_le_bytes(prefix.get(6..8)?.try_into().ok()?);
    Some(HEADER_FIXED + name_len as usize + header_crc_len(format))
}

/// A decoded frame header: everything known about a shard without
/// touching its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameHeader {
    /// The shard's key.
    pub key: ShardKey,
    /// Checksum recorded for the payload.
    pub payload_crc: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Bytes the header itself occupies; the payload starts here.
    pub header_len: usize,
}

/// Decodes a frame header from the leading bytes of a framed shard,
/// without requiring (or validating) the payload. Key listings scan
/// headers only, so their cost is independent of stored payload bytes;
/// payload integrity stays enforced on the read path ([`decode`]).
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first malformed field.
pub fn decode_header(bytes: &[u8]) -> Result<FrameHeader, FrameError> {
    fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FrameError> {
        if buf.len() < N {
            return Err(FrameError::Truncated);
        }
        let (head, rest) = buf.split_at(N);
        *buf = rest;
        Ok(head.try_into().expect("split_at guarantees length"))
    }
    let mut buf = bytes;
    let magic = u32::from_le_bytes(take(&mut buf)?);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let format = u16::from_le_bytes(take(&mut buf)?);
    if format != FORMAT && format != FORMAT_V1 {
        return Err(FrameError::BadFormat(format));
    }
    let name_len = u16::from_le_bytes(take(&mut buf)?) as usize;
    let header_len = HEADER_FIXED + name_len + header_crc_len(format);
    if bytes.len() < header_len {
        return Err(FrameError::Truncated);
    }
    let module =
        String::from_utf8(buf[..name_len].to_vec()).map_err(|_| FrameError::BadModuleName)?;
    buf = &buf[name_len..];
    let part = decode_part(take::<1>(&mut buf)?[0])?;
    let version = u64::from_le_bytes(take(&mut buf)?);
    let payload_crc = u32::from_le_bytes(take(&mut buf)?);
    let payload_len = u64::from_le_bytes(take(&mut buf)?);
    if format != FORMAT_V1 {
        let expected = u32::from_le_bytes(take(&mut buf)?);
        let actual = crc32(&bytes[..header_len - 4]);
        if actual != expected {
            return Err(FrameError::HeaderChecksumMismatch { expected, actual });
        }
    }
    Ok(FrameHeader {
        key: ShardKey {
            module,
            part,
            version,
        },
        payload_crc,
        payload_len,
        header_len,
    })
}

/// Decodes a framed shard, verifying magic, format and payload checksum.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first malformed field.
pub fn decode(framed: &Bytes) -> Result<(ShardKey, Bytes), FrameError> {
    let header = decode_header(framed)?;
    let len = header.payload_len as usize;
    if framed.len() < header.header_len + len {
        return Err(FrameError::Truncated);
    }
    let payload = framed.slice(header.header_len..header.header_len + len);
    let actual = crc32(&payload);
    if actual != header.payload_crc {
        return Err(FrameError::ChecksumMismatch {
            expected: header.payload_crc,
            actual,
        });
    }
    Ok((header.key, payload))
}

fn part_tag(p: StatePart) -> u8 {
    match p {
        StatePart::Weights => 0,
        StatePart::Optimizer => 1,
        StatePart::Extra => 2,
    }
}

fn decode_part(t: u8) -> Result<StatePart, FrameError> {
    match t {
        0 => Ok(StatePart::Weights),
        1 => Ok(StatePart::Optimizer),
        2 => Ok(StatePart::Extra),
        other => Err(FrameError::BadPartTag(other)),
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Bytes folded into the checksum per step of [`crc32`].
const CRC_SLICES: usize = 16;

/// Slicing tables: `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, so a step folds sixteen input bytes in with sixteen
/// independent lookups instead of sixteen dependent ones.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial), table-driven with slicing-by-16
/// (Intel's slicing-by-8 with twice the stride): same polynomial and
/// values as the bytewise algorithm, about five times its speed.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(CRC_SLICES);
    for chunk in &mut chunks {
        let mut block: [u8; CRC_SLICES] = chunk.try_into().expect("exact chunk");
        for (b, state) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= state;
        }
        // Byte `i` of the block is followed by `15 - i` more bytes.
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// A format-1 frame, as earlier versions wrote them.
#[cfg(test)]
pub(crate) fn encode_v1(key: &ShardKey, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_fields(
        FORMAT_V1,
        key,
        crc32(payload),
        payload.len() as u64,
        &mut buf,
    );
    buf.extend_from_slice(payload);
    buf
}

/// The bytewise table-driven CRC-32 this module shipped before
/// slicing: the reference the fast path must equal bit for bit.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> ShardKey {
        ShardKey::new("layer0.attention", StatePart::Optimizer, 123)
    }

    #[test]
    fn roundtrip() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let framed = encode(&key(), &payload);
        let (k, p) = decode(&framed).unwrap();
        assert_eq!(k, key());
        assert_eq!(p, payload);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let framed = encode(&key(), &Bytes::new());
        let (k, p) = decode(&framed).unwrap();
        assert_eq!(k, key());
        assert!(p.is_empty());
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = encode(&key(), &Bytes::from_static(b"x")).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode(&Bytes::from(bytes)),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn detects_corrupt_payload() {
        let mut bytes = encode(&key(), &Bytes::from(vec![1u8; 64])).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            decode(&Bytes::from(bytes)),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn detects_truncation() {
        let bytes = encode(&key(), &Bytes::from(vec![1u8; 64]));
        let cut = bytes.slice(0..bytes.len() - 10);
        assert_eq!(decode(&cut), Err(FrameError::Truncated));
        assert_eq!(decode(&bytes.slice(0..4)), Err(FrameError::Truncated));
    }

    #[test]
    fn header_decodes_without_payload() {
        let payload = Bytes::from(vec![9u8; 512]);
        let framed = encode(&key(), &payload);
        // The header alone — no payload bytes at all — suffices.
        let h = decode_header(&framed[..framed.len() - 512]).unwrap();
        assert_eq!(h.key, key());
        assert_eq!(h.payload_len, 512);
        assert_eq!(h.payload_crc, crc32(&payload));
        assert_eq!(h.header_len + 512, framed.len());
        assert_eq!(h.header_len, header_len(&key()));
        assert_eq!(peek_header_len(&framed[..8]), Some(h.header_len));
        assert_eq!(peek_header_len(&framed[..7]), None);
        // A corrupt payload is invisible to the header decode (the whole
        // point: listings must not pay for payload validation)...
        let mut corrupt = framed.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert_eq!(decode_header(&corrupt).unwrap(), h);
        // ...but not to the full decode.
        assert!(matches!(
            decode(&Bytes::from(corrupt)),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_truncation_and_bad_fields_detected() {
        let framed = encode(&key(), &Bytes::from_static(b"x"));
        assert_eq!(decode_header(&framed[..5]), Err(FrameError::Truncated));
        let mut bad = framed.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_header(&bad), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing ≡ the bytewise reference on every length 0..=64 at every
    /// alignment 0..16 of the slice start (the 16-byte chunking must not
    /// depend on where the slice begins).
    #[test]
    fn crc32_matches_bytewise_on_short_and_unaligned_slices() {
        let data: Vec<u8> = (0..128u32)
            .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        for offset in 0..16 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// Frames of earlier versions (no header checksum) still decode, and
    /// every header bit of a current frame is covered by a checksum.
    #[test]
    fn format_1_decodes_and_format_2_protects_its_header() {
        let payload = vec![7u8; 48];
        let old = Bytes::from(encode_v1(&key(), &payload));
        let (k, p) = decode(&old).unwrap();
        assert_eq!((k, &p[..]), (key(), &payload[..]));
        assert_eq!(
            decode_header(&old).unwrap().header_len,
            header_len(&key()) - 4
        );

        let new = encode(&key(), &Bytes::from(payload));
        for byte in 0..header_len(&key()) {
            for bit in 0..8 {
                let mut corrupt = new.to_vec();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_header(&corrupt).is_err(),
                    "bit {bit} of header byte {byte} flipped unnoticed"
                );
            }
        }
    }

    /// A header built from a carried checksum is the header `encode`
    /// builds by hashing the payload itself.
    #[test]
    fn header_from_carried_crc_equals_encode() {
        let payload = Bytes::from((0..200u8).collect::<Vec<u8>>());
        let mut streamed = Vec::new();
        encode_header(&key(), crc32(&payload), payload.len() as u64, &mut streamed);
        assert_eq!(streamed.len(), header_len(&key()));
        streamed.extend_from_slice(&payload);
        assert_eq!(&streamed[..], &encode(&key(), &payload)[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slicing ≡ bytewise over random payloads and random
        /// unaligned sub-slices of them.
        #[test]
        fn crc32_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cut in 0usize..4096,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            let cut = cut.min(data.len());
            prop_assert_eq!(crc32(&data[cut..]), crc32_bytewise(&data[cut..]));
        }
    }

    #[test]
    fn bad_part_tag_rejected() {
        let framed = encode(&key(), &Bytes::from_static(b"x"));
        let mut bytes = framed.to_vec();
        // part tag sits right after the module name.
        let tag_pos = 4 + 2 + 2 + key().module.len();
        bytes[tag_pos] = 9;
        assert_eq!(decode(&Bytes::from(bytes)), Err(FrameError::BadPartTag(9)));
    }
}
