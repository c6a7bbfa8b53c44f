//! Delta shards: a shard encoded against the last *full* shard of the
//! same slot.
//!
//! Checkpoint payloads here are little-endian `f32` streams whose values
//! drift slowly between checkpoints: the sign, exponent and high-mantissa
//! bytes of a parameter are usually unchanged while the low-mantissa
//! bytes churn. The codec exploits that structure:
//!
//! 1. XOR the new payload against the base full payload (identical bytes
//!    become zero);
//! 2. transpose the XOR stream into its four byte planes (`i % 4`), so
//!    the mostly-zero high bytes of every float land in long contiguous
//!    zero runs;
//! 3. run-length encode: `(zero_run, literal_len, literal bytes)` tokens
//!    with LEB128 lengths.
//!
//! Steps 1–2 are one pass that materializes the transposed stream in a
//! per-thread scratch buffer; step 3 then scans contiguous memory eight
//! bytes at a time. [`apply`] runs the same two stages backwards.
//!
//! Encoding is lossless and self-checking: the delta records the CRC of
//! both the base it was built against and the payload it reconstructs, so
//! [`apply`] can never silently produce wrong bytes. When a delta would
//! not be smaller than the full payload (or the shapes changed),
//! [`encode_into`] declines and the writer falls back to a full shard —
//! the periodic rebase additionally bounds how far any delta sits from
//! its base.

use bytes::Bytes;
use moc_store::frame::crc32;
use std::fmt;

const MAGIC: u32 = 0x4D4F_4344; // "MOCD"
const FORMAT: u16 = 1;
/// Fixed header size: magic, format, base_version, base_crc, raw_len,
/// raw_crc.
const HEADER_LEN: usize = 4 + 2 + 8 + 4 + 8 + 4;
/// Zero runs shorter than this are cheaper left inside a literal token.
const MIN_ZERO_RUN: usize = 4;

/// Error applying a delta shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The payload is not a delta frame (wrong magic or truncated header).
    NotADelta,
    /// Unsupported delta format version.
    BadFormat(u16),
    /// The base payload's CRC does not match the one the delta was
    /// encoded against (wrong or corrupted base).
    BaseMismatch {
        /// CRC recorded at encode time.
        expected: u32,
        /// CRC of the base supplied to [`apply`].
        actual: u32,
    },
    /// The token stream was truncated or overran the declared length.
    Corrupt,
    /// The reconstructed payload failed its CRC check.
    ReconstructionMismatch {
        /// CRC recorded at encode time.
        expected: u32,
        /// CRC of the reconstructed payload.
        actual: u32,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NotADelta => write!(f, "payload is not a delta frame"),
            DeltaError::BadFormat(v) => write!(f, "unsupported delta format {v}"),
            DeltaError::BaseMismatch { expected, actual } => {
                write!(f, "delta base crc mismatch: {expected:#x} vs {actual:#x}")
            }
            DeltaError::Corrupt => write!(f, "corrupt delta token stream"),
            DeltaError::ReconstructionMismatch { expected, actual } => {
                write!(
                    f,
                    "delta reconstruction crc mismatch: {expected:#x} vs {actual:#x}"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Decoded delta header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Version of the full shard the delta was encoded against.
    pub base_version: u64,
    /// CRC of that base payload.
    pub base_crc: u32,
    /// Length of the reconstructed payload.
    pub raw_len: u64,
    /// CRC of the reconstructed payload.
    pub raw_crc: u32,
}

/// Whether a stored payload is a delta frame.
pub fn is_delta(payload: &[u8]) -> bool {
    payload.len() >= 4 && payload[..4] == MAGIC.to_le_bytes()
}

/// Reads a delta frame's header.
///
/// # Errors
///
/// [`DeltaError::NotADelta`] / [`DeltaError::BadFormat`] when the payload
/// is not a supported delta frame.
pub fn decode_header(payload: &[u8]) -> Result<DeltaHeader, DeltaError> {
    if payload.len() < HEADER_LEN || !is_delta(payload) {
        return Err(DeltaError::NotADelta);
    }
    let u16_at = |i: usize| u16::from_le_bytes(payload[i..i + 2].try_into().expect("2 bytes"));
    let u32_at = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
    let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
    let format = u16_at(4);
    if format != FORMAT {
        return Err(DeltaError::BadFormat(format));
    }
    Ok(DeltaHeader {
        base_version: u64_at(6),
        base_crc: u32_at(14),
        raw_len: u64_at(18),
        raw_crc: u32_at(26),
    })
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        // Most runs are short: one byte, no loop.
        out.push(v as u8);
        return;
    }
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, DeltaError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.is_empty() || shift >= 64 {
            return Err(DeltaError::Corrupt);
        }
        let byte = buf[0];
        *buf = &buf[1..];
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Offsets of the four byte planes in the transposed stream of a
/// `len`-byte payload, plus `len` itself: plane `p` holds the bytes at
/// indices `p, p + 4, p + 8, …`, i.e. `ceil((len - p) / 4)` of them.
fn plane_bounds(len: usize) -> [usize; 5] {
    let mut bounds = [0usize; 5];
    for p in 0..4 {
        bounds[p + 1] = bounds[p] + (len + 3 - p) / 4;
    }
    bounds
}

thread_local! {
    /// The planar scratch of this thread's encodes and applies: one
    /// buffer as large as the largest shard seen, reused call after call
    /// (a checkpoint writer is one long-lived thread).
    static PLANAR: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's planar scratch, sized to `len` bytes of
/// unspecified content.
fn with_planar<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    PLANAR.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        f(&mut buf[..len])
    })
}

/// Splits a planar buffer into its four planes.
fn split_planes(planar: &mut [u8]) -> [&mut [u8]; 4] {
    let bounds = plane_bounds(planar.len());
    let (p0, rest) = planar.split_at_mut(bounds[1]);
    let (p1, rest) = rest.split_at_mut(bounds[2] - bounds[1]);
    let (p2, p3) = rest.split_at_mut(bounds[3] - bounds[2]);
    [p0, p1, p2, p3]
}

/// Writes the plane-transposed XOR of `base` and `new` into `planar`
/// (all three of one length): one pass over the 4-byte words, XORed
/// whole and scattered a byte to each plane, then the `len % 4` tail
/// bytes, which end planes `0..len % 4`.
fn transpose_xor(base: &[u8], new: &[u8], planar: &mut [u8]) {
    let words = new.len() / 4;
    let [p0, p1, p2, p3] = split_planes(planar);
    let word = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
    let planes = p0
        .iter_mut()
        .zip(p1.iter_mut())
        .zip(p2.iter_mut().zip(p3.iter_mut()));
    let sources = base.chunks_exact(4).zip(new.chunks_exact(4));
    for (((x0, x1), (x2, x3)), (b, n)) in planes.zip(sources) {
        [*x0, *x1, *x2, *x3] = (word(b) ^ word(n)).to_le_bytes();
    }
    for (i, plane) in (4 * words..new.len()).zip([p0, p1, p2]) {
        plane[words] = base[i] ^ new[i];
    }
}

/// Inverse of [`transpose_xor`]: `out = base ^ untransposed(planar)`.
fn untranspose_xor(base: &[u8], planar: &mut [u8], out: &mut [u8]) {
    let words = base.len() / 4;
    let [p0, p1, p2, p3] = split_planes(planar);
    let planes = p0.iter().zip(p1.iter()).zip(p2.iter().zip(p3.iter()));
    let targets = out.chunks_exact_mut(4).zip(base.chunks_exact(4));
    for (((x0, x1), (x2, x3)), (o, b)) in planes.zip(targets) {
        let x = u32::from_le_bytes([*x0, *x1, *x2, *x3]);
        let b = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        o.copy_from_slice(&(b ^ x).to_le_bytes());
    }
    for (i, plane) in (4 * words..base.len()).zip([p0, p1, p2]) {
        out[i] = base[i] ^ plane[words];
    }
}

/// Length of the run of zero bytes `stream` starts with, eight bytes a
/// step (the lowest set bit of a little-endian word sits in its first
/// non-zero byte).
fn zero_run(stream: &[u8]) -> usize {
    let mut words = stream.chunks_exact(8);
    let mut run = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        if w != 0 {
            return run + (w.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    run + words.remainder().iter().take_while(|&&b| b == 0).count()
}

/// Length of the run of non-zero bytes `stream` starts with, eight
/// bytes a step: `(w - 0x01…) & !w & 0x80…` has the top bit set in
/// exactly the zero bytes of `w` up to and including the lowest one.
fn nonzero_run(stream: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut words = stream.chunks_exact(8);
    let mut run = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let zero_bytes = w.wrapping_sub(LO) & !w & HI;
        if zero_bytes != 0 {
            return run + (zero_bytes.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    run + words.remainder().iter().take_while(|&&b| b != 0).count()
}

/// Encodes `new` against `base` into `out` (cleared first). Returns
/// `false` — leaving `out` unspecified — when the payloads have different
/// lengths or the delta would not be strictly smaller than `new`; the
/// caller then writes a full shard instead.
pub fn encode_into(base: &[u8], new: &[u8], base_version: u64, out: &mut Vec<u8>) -> bool {
    encode_with_crcs(base, crc32(base), new, crc32(new), base_version, out)
}

/// [`encode_into`] for a caller that already holds both checksums
/// (`base_crc` = `crc32(base)`, `new_crc` = `crc32(new)`): the writer
/// hashed `new` for its dedup check and `base` when it stored it.
pub fn encode_with_crcs(
    base: &[u8],
    base_crc: u32,
    new: &[u8],
    new_crc: u32,
    base_version: u64,
    out: &mut Vec<u8>,
) -> bool {
    if base.len() != new.len() || new.len() < HEADER_LEN {
        return false;
    }
    debug_assert_eq!((base_crc, new_crc), (crc32(base), crc32(new)));
    let len = new.len();
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&base_version.to_le_bytes());
    out.extend_from_slice(&base_crc.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&new_crc.to_le_bytes());
    with_planar(len, |planar| {
        transpose_xor(base, new, planar);
        tokenize(planar, out)
    })
}

/// Run-length encodes the transposed XOR stream `x` onto `out`, giving
/// up (`false`) as soon as `out` is no shorter than `x`.
fn tokenize(x: &[u8], out: &mut Vec<u8>) -> bool {
    let len = x.len();
    let mut pos = 0usize;
    while pos < len {
        if out.len() >= len {
            return false; // not profitable
        }
        let zeros = zero_run(&x[pos..]);
        put_varint(out, zeros as u64);
        pos += zeros;
        // Literal run: extends over zero gaps too short to pay for a
        // token of their own, and stops before a longer one — or before
        // a gap of any length that reaches the end of the stream.
        let lit_start = pos;
        while pos < len {
            pos += nonzero_run(&x[pos..]);
            let gap = zero_run(&x[pos..]);
            if gap >= MIN_ZERO_RUN || pos + gap == len {
                break;
            }
            pos += gap;
        }
        put_varint(out, (pos - lit_start) as u64);
        out.extend_from_slice(&x[lit_start..pos]);
    }
    out.len() < len
}

/// Reconstructs the full payload from `base` and a delta frame.
///
/// # Errors
///
/// Any [`DeltaError`]: wrong frame, wrong base, corrupt stream, or a
/// reconstruction that fails its CRC.
pub fn apply(base: &[u8], delta: &[u8]) -> Result<Bytes, DeltaError> {
    apply_with_base_crc(base, crc32(base), delta)
}

/// [`apply`] for a caller that already verified `base` against
/// `base_crc` (= `crc32(base)`), e.g. on fetching it from the store:
/// the base is matched to the delta by that checksum without another
/// pass over it.
///
/// # Errors
///
/// As [`apply`].
pub fn apply_with_base_crc(base: &[u8], base_crc: u32, delta: &[u8]) -> Result<Bytes, DeltaError> {
    let header = decode_header(delta)?;
    debug_assert_eq!(base_crc, crc32(base));
    if base_crc != header.base_crc {
        return Err(DeltaError::BaseMismatch {
            expected: header.base_crc,
            actual: base_crc,
        });
    }
    let len = usize::try_from(header.raw_len).map_err(|_| DeltaError::Corrupt)?;
    if base.len() != len {
        return Err(DeltaError::Corrupt);
    }
    let out = with_planar(len, |planar| {
        detokenize(&delta[HEADER_LEN..], planar)?;
        let mut out = vec![0u8; len];
        untranspose_xor(base, planar, &mut out);
        Ok(out)
    })?;
    let actual = crc32(&out);
    if actual != header.raw_crc {
        return Err(DeltaError::ReconstructionMismatch {
            expected: header.raw_crc,
            actual,
        });
    }
    Ok(Bytes::from(out))
}

/// Expands a token stream into the transposed XOR stream `x`, which it
/// must fill exactly.
fn detokenize(mut stream: &[u8], x: &mut [u8]) -> Result<(), DeltaError> {
    let len = x.len();
    let mut pos = 0usize;
    while pos < len {
        let zeros = usize::try_from(get_varint(&mut stream)?).map_err(|_| DeltaError::Corrupt)?;
        if zeros > len - pos {
            return Err(DeltaError::Corrupt);
        }
        x[pos..pos + zeros].fill(0);
        pos += zeros;
        if pos == len {
            // The encoder closes a trailing zero run with an empty
            // literal token; anything else is corruption.
            if get_varint(&mut stream)? != 0 {
                return Err(DeltaError::Corrupt);
            }
            break;
        }
        let lits = usize::try_from(get_varint(&mut stream)?).map_err(|_| DeltaError::Corrupt)?;
        if lits > len - pos || stream.len() < lits {
            return Err(DeltaError::Corrupt);
        }
        x[pos..pos + lits].copy_from_slice(&stream[..lits]);
        pos += lits;
        stream = &stream[lits..];
    }
    if !stream.is_empty() {
        return Err(DeltaError::Corrupt);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn roundtrip_close_floats_saves_bytes() {
        let base: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        let new: Vec<f32> = base.iter().map(|v| v + 1e-4).collect();
        let (base_b, new_b) = (f32s(&base), f32s(&new));
        let mut delta = Vec::new();
        assert!(encode_into(&base_b, &new_b, 10, &mut delta));
        assert!(
            delta.len() < new_b.len() * 3 / 4,
            "close floats keep their high byte planes: {} vs {}",
            delta.len(),
            new_b.len()
        );
        assert!(is_delta(&delta));
        let restored = apply(&base_b, &delta).unwrap();
        assert_eq!(&restored[..], &new_b[..], "bitwise reconstruction");
    }

    #[test]
    fn identical_payload_is_header_sized() {
        let b = f32s(&vec![1.5f32; 256]);
        let mut delta = Vec::new();
        assert!(encode_into(&b, &b, 3, &mut delta));
        assert!(delta.len() <= HEADER_LEN + 4, "only header + one token");
        assert_eq!(&apply(&b, &delta).unwrap()[..], &b[..]);
    }

    #[test]
    fn random_payload_declines() {
        // Unrelated noise has no zero structure: encode must decline.
        let base: Vec<u8> = (0..4096u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        let new: Vec<u8> = (0..4096u32)
            .map(|i| (i + 7).wrapping_mul(2_246_822_519) as u8)
            .collect();
        let mut delta = Vec::new();
        assert!(!encode_into(&base, &new, 1, &mut delta));
    }

    #[test]
    fn length_mismatch_declines() {
        let mut delta = Vec::new();
        assert!(!encode_into(&[0u8; 64], &[0u8; 68], 1, &mut delta));
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = f32s(&(0..128).map(|i| i as f32).collect::<Vec<_>>());
        let mut new = base.clone();
        new[17] ^= 0x55; // sparse change: encoding clearly profitable
        let mut delta = Vec::new();
        assert!(encode_into(&base, &new, 5, &mut delta));
        let mut wrong = base.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            apply(&wrong, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let base = f32s(&vec![2.0f32; 256]);
        let new = f32s(&vec![2.0001f32; 256]);
        let mut delta = Vec::new();
        assert!(encode_into(&base, &new, 5, &mut delta));
        for byte in HEADER_LEN..delta.len() {
            let mut corrupt = delta.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                apply(&base, &corrupt).is_err(),
                "flip at {byte} must not reconstruct silently"
            );
        }
    }

    #[test]
    fn header_roundtrip() {
        let base = f32s(&vec![1.0f32; 64]);
        let new = f32s(&vec![1.0000001f32; 64]);
        let mut delta = Vec::new();
        assert!(encode_into(&base, &new, 42, &mut delta));
        let h = decode_header(&delta).unwrap();
        assert_eq!(h.base_version, 42);
        assert_eq!(h.raw_len, 256);
        assert_eq!(h.base_crc, crc32(&base));
        assert_eq!(h.raw_crc, crc32(&new));
        assert_eq!(decode_header(b"nope"), Err(DeltaError::NotADelta));
    }

    /// The codec this module shipped before the planar rewrite, kept
    /// verbatim as the oracle: it walks the transposed stream through a
    /// per-byte index computation and never materializes it.
    mod reference {
        use super::super::*;

        fn plane_index(k: usize, len: usize) -> usize {
            let mut k = k;
            for p in 0..4usize {
                let plane_len = (len + 3 - p) / 4;
                if k < plane_len {
                    return p + 4 * k;
                }
                k -= plane_len;
            }
            unreachable!("k out of range");
        }

        pub fn encode_into(base: &[u8], new: &[u8], base_version: u64, out: &mut Vec<u8>) -> bool {
            if base.len() != new.len() || new.len() < HEADER_LEN {
                return false;
            }
            let len = new.len();
            out.clear();
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.extend_from_slice(&FORMAT.to_le_bytes());
            out.extend_from_slice(&base_version.to_le_bytes());
            out.extend_from_slice(&crc32(base).to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            out.extend_from_slice(&crc32(new).to_le_bytes());
            let xor_at = |k: usize| -> u8 {
                let i = plane_index(k, len);
                base[i] ^ new[i]
            };
            let mut pos = 0usize;
            while pos < len {
                if out.len() >= len {
                    return false;
                }
                let zero_start = pos;
                while pos < len && xor_at(pos) == 0 {
                    pos += 1;
                }
                put_varint(out, (pos - zero_start) as u64);
                let lit_start = pos;
                let mut probe = pos;
                while probe < len {
                    if xor_at(probe) != 0 {
                        probe += 1;
                        pos = probe;
                        continue;
                    }
                    let gap_start = probe;
                    while probe < len && xor_at(probe) == 0 {
                        probe += 1;
                    }
                    if probe - gap_start >= MIN_ZERO_RUN || probe == len {
                        break;
                    }
                    pos = probe;
                }
                put_varint(out, (pos - lit_start) as u64);
                for k in lit_start..pos {
                    out.push(xor_at(k));
                }
            }
            out.len() < len
        }

        pub fn apply(base: &[u8], delta: &[u8]) -> Result<Bytes, DeltaError> {
            let header = decode_header(delta)?;
            let actual_base_crc = crc32(base);
            if actual_base_crc != header.base_crc {
                return Err(DeltaError::BaseMismatch {
                    expected: header.base_crc,
                    actual: actual_base_crc,
                });
            }
            let len = usize::try_from(header.raw_len).map_err(|_| DeltaError::Corrupt)?;
            if base.len() != len {
                return Err(DeltaError::Corrupt);
            }
            let mut out = base.to_vec();
            let mut stream = &delta[HEADER_LEN..];
            let mut pos = 0usize;
            while pos < len {
                let zeros = get_varint(&mut stream)? as usize;
                pos = pos.checked_add(zeros).ok_or(DeltaError::Corrupt)?;
                if pos > len {
                    return Err(DeltaError::Corrupt);
                }
                if pos == len {
                    if get_varint(&mut stream)? != 0 {
                        return Err(DeltaError::Corrupt);
                    }
                    break;
                }
                let lits = get_varint(&mut stream)? as usize;
                if lits > len - pos || stream.len() < lits {
                    return Err(DeltaError::Corrupt);
                }
                for &b in &stream[..lits] {
                    let i = plane_index(pos, len);
                    out[i] ^= b;
                    pos += 1;
                }
                stream = &stream[lits..];
            }
            if !stream.is_empty() {
                return Err(DeltaError::Corrupt);
            }
            let actual = crc32(&out);
            if actual != header.raw_crc {
                return Err(DeltaError::ReconstructionMismatch {
                    expected: header.raw_crc,
                    actual,
                });
            }
            Ok(Bytes::from(out))
        }
    }

    /// Encodes one pair through both codecs and checks they agree on the
    /// verdict and on every byte written — a refusal included, so "not
    /// profitable" trips at the same token — and that each codec's delta
    /// applies through both.
    fn assert_equivalent(base: &[u8], new: &[u8]) {
        let (mut fast, mut slow) = (vec![0xEE; 3], vec![0xEE; 3]);
        let ok = encode_into(base, new, 77, &mut fast);
        assert_eq!(ok, reference::encode_into(base, new, 77, &mut slow));
        assert_eq!(fast, slow, "len {} (verdict {ok})", new.len());
        if ok {
            assert!(fast.len() < new.len());
            for restored in [apply(base, &fast), reference::apply(base, &fast)] {
                assert_eq!(&restored.unwrap()[..], new);
            }
        }
    }

    /// A payload derived from `base` by rewriting `changes` bytes.
    fn mutate(base: &[u8], changes: &[(usize, u8)]) -> Vec<u8> {
        let mut new = base.to_vec();
        if !new.is_empty() {
            for &(at, value) in changes {
                let at = at % new.len();
                new[at] = value;
            }
        }
        new
    }

    #[test]
    fn planar_codec_matches_reference_on_short_lengths() {
        // Every length 0..=64 (so every `len % 4`, the declined lengths
        // below the header size, and planes of unequal length), at every
        // alignment of the slice start.
        let noise: Vec<u8> = (0..160u32)
            .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[2])
            .collect();
        for len in 0..=64usize {
            for offset in 0..4 {
                let base = &noise[offset..offset + len];
                assert_equivalent(base, base);
                assert_equivalent(base, &mutate(base, &[(len / 2, 0x5A)]));
                assert_equivalent(base, &mutate(base, &[(0, 1), (len.saturating_sub(1), 2)]));
                assert_equivalent(base, &noise[offset + 64..offset + 64 + len]);
            }
        }
    }

    #[test]
    fn planar_codec_matches_reference_on_identical_and_disjoint_inputs() {
        for len in [64, 257, 1023, 4096, 4099] {
            let base: Vec<u8> = (0..len as u32)
                .map(|i| i.wrapping_mul(2_246_822_519).to_le_bytes()[1])
                .collect();
            assert_equivalent(&base, &base);
            // Every byte differs: refused, at the same byte.
            let disjoint: Vec<u8> = base.iter().map(|b| !b).collect();
            assert_equivalent(&base, &disjoint);
            let mut fast = Vec::new();
            assert!(!encode_into(&base, &disjoint, 1, &mut fast));
            // Zero gaps of every length around MIN_ZERO_RUN, ending at
            // the end of the stream and not.
            for gap in 1..=6usize {
                let mut new = disjoint.clone();
                new[8..8 + 4 * gap].copy_from_slice(&base[8..8 + 4 * gap]);
                assert_equivalent(&base, &new);
                let tail = len - gap;
                new[tail..].copy_from_slice(&base[tail..]);
                assert_equivalent(&base, &new);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// New ≡ old over random payloads with random sparse and dense
        /// rewrites, sliced at a random (unaligned) offset.
        #[test]
        fn planar_codec_matches_reference(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            changes in proptest::collection::vec((0usize..2048, proptest::prelude::any::<u8>()), 0..96),
            skip in 0usize..7,
        ) {
            let base = &payload[skip.min(payload.len())..];
            assert_equivalent(base, &mutate(base, &changes));
        }

        /// Slowly drifting floats — the shape of real optimizer state —
        /// round-trip through both codecs to identical deltas.
        #[test]
        fn planar_codec_matches_reference_on_drifting_floats(
            values in proptest::collection::vec(-4.0f32..4.0, 8..512),
            drift in 1e-7f32..1e-2,
            tail in 0usize..4,
        ) {
            let mut base = f32s(&values);
            let mut new = f32s(&values.iter().map(|v| v * (1.0 + drift)).collect::<Vec<_>>());
            base.truncate(base.len() - tail);
            new.truncate(new.len() - tail);
            assert_equivalent(&base, &new);
        }
    }

    /// A caller-supplied base checksum replaces the pass over the base,
    /// not the check: the wrong base's checksum is still refused.
    #[test]
    fn carried_base_crc_still_rejects_the_wrong_base() {
        let base = f32s(&(0..128).map(|i| i as f32).collect::<Vec<_>>());
        let mut new = base.clone();
        new[17] ^= 0x55;
        let mut delta = Vec::new();
        assert!(encode_with_crcs(
            &base,
            crc32(&base),
            &new,
            crc32(&new),
            5,
            &mut delta
        ));
        let restored = apply_with_base_crc(&base, crc32(&base), &delta).unwrap();
        assert_eq!(&restored[..], &new[..]);
        let mut wrong = base.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            apply_with_base_crc(&wrong, crc32(&wrong), &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }
}
