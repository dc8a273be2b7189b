//! Split control/data group-varint codec (Stream VByte's layout).
//!
//! A block of `k` `u32` values is stored as two runs:
//!
//! ```text
//! block = ctrl[⌈k/4⌉]  data[..]
//! ctrl byte j: bits 2i..2i+2 = len(value 4j + i) - 1   (lengths 1–4)
//! data: each value's low `len` bytes, little-endian, back to back
//! ```
//!
//! This is the control-byte layout of Lemire, Kurz & Rupp, "Stream
//! VByte: Faster Byte-Oriented Integer Compression" (IPL 2018). A LEB128
//! varint's length comes from its own bytes, so each decode waits on the
//! previous one: load → find the stop bit → advance. Here a value's
//! length comes from a control byte whose address depends only on the
//! value's index, so [`decode_value`] is a control-byte load, one
//! unaligned 4-byte data load masked to the length, and an add — no
//! data-dependent branch, and the only serial dependency between values
//! is the data position's `+ len`.
//!
//! Encodings are canonical: every value uses its minimal length, and
//! the unused slots of a block's last control byte are zero. Loading
//! ([`CompressedCsrGraph::from_parts`]) enforces both, so one value
//! sequence has exactly one byte encoding.
//!
//! A decoder loads 4 bytes at each data position, and the graph cursors
//! decode one step past a block's last value. [`PADDING_BYTES`] zero
//! bytes appended to a stream keep every such load in bounds.
//!
//! [`CompressedCsrGraph::from_parts`]: super::CompressedCsrGraph::from_parts

/// Zero bytes a stream must carry past its last block: a cursor's eager
/// lookahead decodes up to two values (a weighted edge's gap and weight)
/// starting at the block end, each with a 4-byte load.
pub const PADDING_BYTES: usize = 8;

/// `MASKS[code]` keeps the `code + 1` low bytes of a 4-byte load.
const MASKS: [u32; 4] = [0xff, 0xffff, 0x00ff_ffff, 0xffff_ffff];

/// Bytes the minimal encoding of `value` takes (1–4).
#[inline(always)]
pub fn encoded_len(value: u32) -> usize {
    4 - (value.leading_zeros() as usize / 8).min(3)
}

/// Control bytes a block of `count` values carries.
#[inline(always)]
pub fn control_bytes(count: usize) -> usize {
    count.div_ceil(4)
}

/// Appends the block encoding of `values` to `out`: the control bytes,
/// then every value's minimal little-endian bytes.
pub fn encode_block(values: &[u32], out: &mut Vec<u8>) {
    let ctrl = out.len();
    out.reserve(control_bytes(values.len()) + 4 * values.len());
    out.resize(ctrl + control_bytes(values.len()), 0);
    for (i, &value) in values.iter().enumerate() {
        let len = encoded_len(value);
        out[ctrl + i / 4] |= ((len - 1) << (2 * (i % 4))) as u8;
        // A fixed 4-byte copy, then drop the bytes past `len`.
        out.extend_from_slice(&value.to_le_bytes());
        out.truncate(out.len() - 4 + len);
    }
}

/// Decodes value `i` of the block whose control bytes start at `ctrl`,
/// reading its data at `data`. Returns the value and its length in bytes,
/// which the caller adds to `data` for value `i + 1`. No bounds checks
/// and no data-dependent branch: one control-byte load, one unaligned
/// 4-byte load, a mask.
///
/// # Safety
///
/// `ctrl + i / 4 < bytes.len()` and `data + 4 <= bytes.len()`. Streams
/// carry [`PADDING_BYTES`] trailing zeros so that a decode at any block
/// end, and one more after it, satisfies the second condition.
#[inline(always)]
pub unsafe fn decode_value(bytes: &[u8], ctrl: usize, i: usize, data: usize) -> (u32, usize) {
    debug_assert!(ctrl + i / 4 < bytes.len() && data + 4 <= bytes.len());
    // SAFETY: the caller guarantees both positions are in bounds.
    let (control, word) = unsafe {
        (
            *bytes.get_unchecked(ctrl + i / 4),
            std::ptr::read_unaligned(bytes.as_ptr().add(data).cast::<u32>()),
        )
    };
    let code = usize::from((control >> (2 * (i % 4))) & 3);
    (u32::from_le(word) & MASKS[code], code + 1)
}

/// Sum of the four 2-bit length codes in one control byte.
fn code_sum(control: u8) -> usize {
    usize::from((control & 3) + ((control >> 2) & 3) + ((control >> 4) & 3) + (control >> 6))
}

/// Bounds-checked decode of the block of `count` values at `start`, for
/// validation paths (construction and on-disk loading). Pushes the values
/// onto `out` and returns the block end. Rejects a control or data run
/// past the end of `bytes`, a non-zero length code in an unused slot of
/// the last control byte, and a value longer than its minimal encoding.
pub(crate) fn decode_block_checked(
    bytes: &[u8],
    start: usize,
    count: usize,
    out: &mut Vec<u32>,
) -> Result<usize, String> {
    let data_start = start + control_bytes(count);
    let Some(ctrl) = bytes.get(start..data_start) else {
        return Err("control bytes run past the payload end".to_string());
    };
    if !count.is_multiple_of(4) && ctrl[ctrl.len() - 1] >> (2 * (count % 4)) != 0 {
        return Err("non-zero length code in an unused control slot".to_string());
    }
    // Unused slots hold code 0, so the data run is `count` plus the codes.
    let data_len = count + ctrl.iter().map(|&c| code_sum(c)).sum::<usize>();
    let Some(data) = bytes.get(data_start..data_start + data_len) else {
        return Err("data run past the payload end".to_string());
    };
    let mut pos = 0;
    for i in 0..count {
        let code = usize::from((ctrl[i / 4] >> (2 * (i % 4))) & 3);
        let word = match data.get(pos..pos + 4) {
            Some(window) => u32::from_le_bytes(window.try_into().expect("a 4-byte window")),
            // The last values of the stream: fewer than 4 bytes remain.
            None => data[pos..]
                .iter()
                .rev()
                .fold(0, |w, &b| w << 8 | u32::from(b)),
        };
        let value = word & MASKS[code];
        if encoded_len(value) != code + 1 {
            return Err(format!(
                "value {i}: {value} stored in {} bytes, not its minimal {}",
                code + 1,
                encoded_len(value)
            ));
        }
        out.push(value);
        pos += code + 1;
    }
    Ok(data_start + data_len)
}

/// Zig-zag encoding of a signed delta: interleaves negative and positive
/// values so small-magnitude deltas of either sign encode short.
#[inline(always)]
pub fn zigzag_encode(delta: i32) -> u32 {
    ((delta << 1) ^ (delta >> 31)) as u32
}

/// Inverse of [`zigzag_encode`].
#[inline(always)]
pub fn zigzag_decode(code: u32) -> i32 {
    ((code >> 1) as i32) ^ -((code & 1) as i32)
}

/// The code of a block's first neighbour: the zig-zagged difference from
/// its source, wrapping mod 2³² so every `u32` pair fits in 4 bytes.
#[inline(always)]
pub fn encode_first(source: u32, first: u32) -> u32 {
    zigzag_encode(first.wrapping_sub(source) as i32)
}

/// Inverse of [`encode_first`].
#[inline(always)]
pub fn decode_first(source: u32, code: u32) -> u32 {
    source.wrapping_add(zigzag_decode(code) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn padded_block(values: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_block(values, &mut bytes);
        bytes.extend_from_slice(&[0u8; PADDING_BYTES]);
        bytes
    }

    #[test]
    fn varint_round_trips_across_every_length_boundary() {
        let values = [
            0u32,
            1,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            0xff_ffff,
            0x100_0000,
            u32::MAX,
        ];
        let lens = [1, 1, 1, 2, 2, 3, 3, 4, 4];
        for (&value, &len) in values.iter().zip(&lens) {
            assert_eq!(encoded_len(value), len, "value {value:#x}");
            let bytes = padded_block(&[value]);
            assert_eq!(bytes.len(), 1 + len + PADDING_BYTES);
            // SAFETY: the block is followed by PADDING_BYTES zeros.
            assert_eq!(unsafe { decode_value(&bytes, 0, 0, 1) }, (value, len));
        }
    }

    #[test]
    fn consecutive_varints_decode_back_to_back() {
        let values = [0u32, 300, 7, u32::MAX, 1 << 21, 42, 0x1_0000, 5, 9];
        let bytes = padded_block(&values);
        let mut data = control_bytes(values.len());
        for (i, &v) in values.iter().enumerate() {
            // SAFETY: every block position is followed by PADDING_BYTES zeros.
            let (decoded, len) = unsafe { decode_value(&bytes, 0, i, data) };
            assert_eq!(decoded, v);
            data += len;
        }
        assert_eq!(data, bytes.len() - PADDING_BYTES);
        let mut checked = Vec::new();
        assert_eq!(
            decode_block_checked(&bytes, 0, values.len(), &mut checked),
            Ok(data)
        );
        assert_eq!(checked, values);
    }

    #[test]
    fn decoding_inside_padding_yields_zero() {
        let buf = vec![0u8; PADDING_BYTES];
        // SAFETY: both loads end inside the 8-byte buffer.
        unsafe {
            assert_eq!(decode_value(&buf, 0, 0, 0), (0, 1));
            assert_eq!(decode_value(&buf, 0, 1, 1), (0, 1));
        }
    }

    #[test]
    fn zigzag_round_trips_at_the_extremes() {
        for delta in [0i32, 1, -1, 2, -2, i32::MAX, i32::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(delta)), delta, "delta {delta}");
        }
        for (source, first) in [(0, u32::MAX), (u32::MAX, 0), (7, 7), (1 << 31, 0)] {
            assert_eq!(decode_first(source, encode_first(source, first)), first);
        }
        // Small magnitudes of either sign encode to small codes.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(encode_first(0, u32::MAX), 1);
    }
}
