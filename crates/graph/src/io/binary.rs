//! `bga-csr-v2`: binary on-disk format for [`CompressedCsrGraph`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "BGACSR2\0"
//! 8       4     version (u32, currently 2)
//! 12      4     flags (u32; bit 0 = undirected)
//! 16      8     num_vertices n (u64)
//! 24      8     num_edge_slots (u64)
//! 32      8     payload_len (u64, bytes, excluding decoder padding)
//! 40      4n    degrees (u32 each), plus one zero u32 when n is odd
//! 40+4n'  p     group-varint payload bytes (n' = n rounded up to even)
//! ```
//!
//! The header and the degree array are 8-byte aligned from the start of
//! the file, and the payload follows as a plain byte run, so a future
//! mmap loader can point the decoder straight into a mapped file. The
//! block starts are not stored: [`CompressedCsrGraph::from_parts`]
//! derives them while it validates every block, so truncated, bit-flipped
//! or non-canonical files surface as structured [`IoError`]s, not panics,
//! and a file that loads re-encodes to the same bytes.
//!
//! `bga-csr-v1` (LEB128 varints with a rank/select bitmap) is no longer
//! readable; such files are rejected with a message saying to convert the
//! source graph again.

use super::IoError;
use crate::compressed::CompressedCsrGraph;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening every `bga-csr-v2` file.
pub const BGA_CSR_MAGIC: [u8; 8] = *b"BGACSR2\0";

/// Current format version.
pub const BGA_CSR_VERSION: u32 = 2;

/// Magic bytes of the retired `bga-csr-v1` format.
const BGA_CSR_V1_MAGIC: [u8; 8] = *b"BGACSR1\0";

const FLAG_UNDIRECTED: u32 = 1;
const HEADER_BYTES: usize = 40;

fn parse_error(message: String) -> IoError {
    IoError::Parse { line: 0, message }
}

/// Bytes the degree array of `n` vertices takes, padded to 8.
fn degree_bytes(n: usize) -> Option<usize> {
    n.checked_add(n % 2)?.checked_mul(4)
}

/// Serializes a compressed graph in the `bga-csr-v2` layout.
pub fn write_compressed_binary<W: Write>(
    writer: &mut W,
    graph: &CompressedCsrGraph,
) -> Result<(), IoError> {
    writer.write_all(&BGA_CSR_MAGIC)?;
    writer.write_all(&BGA_CSR_VERSION.to_le_bytes())?;
    let flags = if graph.is_undirected() {
        FLAG_UNDIRECTED
    } else {
        0
    };
    writer.write_all(&flags.to_le_bytes())?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(graph.num_edge_slots() as u64).to_le_bytes())?;
    writer.write_all(&(graph.payload().len() as u64).to_le_bytes())?;
    let degrees = graph.degrees();
    let pad: &[u32] = if degrees.len() % 2 == 1 { &[0] } else { &[] };
    for &degree in degrees.iter().chain(pad) {
        writer.write_all(&degree.to_le_bytes())?;
    }
    writer.write_all(graph.payload())?;
    Ok(())
}

/// Serializes a compressed graph to a `Vec<u8>` in the `bga-csr-v2`
/// layout.
pub fn write_compressed_binary_bytes(graph: &CompressedCsrGraph) -> Vec<u8> {
    let degrees = degree_bytes(graph.num_vertices()).expect("an in-memory graph's degrees fit");
    let mut bytes = Vec::with_capacity(HEADER_BYTES + degrees + graph.payload().len());
    write_compressed_binary(&mut bytes, graph).expect("writing to a Vec cannot fail");
    bytes
}

/// Writes a compressed graph to `path` in the `bga-csr-v2` layout.
pub fn write_compressed_binary_file<P: AsRef<Path>>(
    path: P,
    graph: &CompressedCsrGraph,
) -> Result<(), IoError> {
    let mut writer = BufWriter::new(File::create(path)?);
    write_compressed_binary(&mut writer, graph)?;
    writer.flush()?;
    Ok(())
}

fn take_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// Parses a `bga-csr-v2` byte stream, validating the header, the counts,
/// and (via [`CompressedCsrGraph::from_parts`]) every payload block.
pub fn read_compressed_binary_bytes(bytes: &[u8]) -> Result<CompressedCsrGraph, IoError> {
    if bytes.starts_with(&BGA_CSR_V1_MAGIC) {
        return Err(parse_error(
            "this is a bga-csr-v1 file, and only bga-csr-v2 is readable now; \
             re-run `bga graph convert` from the source graph to rewrite it"
                .to_string(),
        ));
    }
    if bytes.len() < HEADER_BYTES {
        return Err(parse_error(format!(
            "file too short for a bga-csr-v2 header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..8] != BGA_CSR_MAGIC {
        return Err(parse_error("bad magic: not a bga-csr-v2 file".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != BGA_CSR_VERSION {
        return Err(parse_error(format!(
            "unsupported bga-csr version {version} (expected {BGA_CSR_VERSION})"
        )));
    }
    let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if flags & !FLAG_UNDIRECTED != 0 {
        return Err(parse_error(format!("unknown flag bits {flags:#x}")));
    }
    let num_vertices = usize::try_from(take_u64(bytes, 16))
        .map_err(|_| parse_error("vertex count overflows usize".to_string()))?;
    let num_edge_slots = usize::try_from(take_u64(bytes, 24))
        .map_err(|_| parse_error("edge count overflows usize".to_string()))?;
    let payload_len = usize::try_from(take_u64(bytes, 32))
        .map_err(|_| parse_error("payload length overflows usize".to_string()))?;

    let degrees_len = degree_bytes(num_vertices)
        .ok_or_else(|| parse_error("vertex count overflows the file size".to_string()))?;
    let expected = HEADER_BYTES
        .checked_add(degrees_len)
        .and_then(|n| n.checked_add(payload_len))
        .ok_or_else(|| parse_error("header sizes overflow the file size".to_string()))?;
    if bytes.len() != expected {
        return Err(parse_error(format!(
            "file is {} bytes, header describes {expected}",
            bytes.len()
        )));
    }

    let payload_start = HEADER_BYTES + degrees_len;
    let mut degrees: Vec<u32> = bytes[HEADER_BYTES..payload_start]
        .chunks_exact(4)
        .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect();
    if degrees.len() > num_vertices && degrees.pop() != Some(0) {
        return Err(parse_error(
            "non-zero padding after the degrees".to_string(),
        ));
    }
    let payload = bytes[payload_start..].to_vec();

    CompressedCsrGraph::from_parts(
        num_vertices,
        num_edge_slots,
        flags & FLAG_UNDIRECTED != 0,
        degrees,
        payload,
    )
    .map_err(parse_error)
}

/// Reads a `bga-csr-v2` file from `path`.
pub fn read_compressed_binary_file<P: AsRef<Path>>(path: P) -> Result<CompressedCsrGraph, IoError> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    let bytes = apply_binary_read_faults(bytes);
    read_compressed_binary_bytes(&bytes)
}

/// Byte-level twin of [`super::apply_read_faults`] for the binary reader:
/// under `BGA_FAULT=io:short-read` (debug builds only) the file is
/// truncated to half its bytes so the structured-error path is exercised.
fn apply_binary_read_faults(bytes: Vec<u8>) -> Vec<u8> {
    if cfg!(debug_assertions) {
        if let Ok(spec) = std::env::var("BGA_FAULT") {
            if spec.split(',').any(|part| part.trim() == "io:short-read") {
                let keep = bytes.len() / 2;
                return bytes[..keep].to_vec();
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, grid_2d, MeshStencil};

    #[test]
    fn binary_round_trips_suite_like_graphs() {
        for csr in [
            barabasi_albert(400, 4, 7),
            grid_2d(15, 17, MeshStencil::Moore),
        ] {
            let compressed = CompressedCsrGraph::from_csr(&csr);
            let bytes = write_compressed_binary_bytes(&compressed);
            let back = read_compressed_binary_bytes(&bytes).unwrap();
            assert_eq!(back, compressed);
            assert_eq!(back.to_csr(), csr);
        }
    }

    #[test]
    fn header_and_payload_are_eight_byte_aligned() {
        assert_eq!(HEADER_BYTES % 8, 0);
        for n in [100, 101] {
            let compressed = CompressedCsrGraph::from_csr(&barabasi_albert(n, 3, 1));
            let bytes = write_compressed_binary_bytes(&compressed);
            assert_eq!(&bytes[..8], &BGA_CSR_MAGIC);
            let payload_start = bytes.len() - compressed.payload().len();
            assert_eq!(payload_start % 8, 0, "n = {n}");
            assert_eq!(payload_start, HEADER_BYTES + 4 * (n + n % 2));
        }
    }

    #[test]
    fn v1_files_are_rejected_with_a_convert_hint() {
        // A bga-csr-v1 header: magic, version 1, no flags, one vertex,
        // no edges, a 1-byte payload and one index word.
        let mut v1 = b"BGACSR1\0".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        for field in [1u64, 0, 1, 1, 1] {
            v1.extend_from_slice(&field.to_le_bytes());
        }
        v1.push(0);
        let message = read_compressed_binary_bytes(&v1).unwrap_err().to_string();
        assert!(message.contains("bga-csr-v1"), "{message}");
        assert!(message.contains("bga graph convert"), "{message}");
    }

    #[test]
    fn nonzero_degree_padding_is_rejected() {
        let compressed = CompressedCsrGraph::from_csr(&barabasi_albert(101, 3, 1));
        let mut bytes = write_compressed_binary_bytes(&compressed);
        bytes[HEADER_BYTES + 4 * 101] = 1;
        let message = read_compressed_binary_bytes(&bytes)
            .unwrap_err()
            .to_string();
        assert!(message.contains("padding"), "{message}");
    }

    #[test]
    fn corrupt_files_yield_structured_errors() {
        let compressed = CompressedCsrGraph::from_csr(&barabasi_albert(60, 2, 9));
        let bytes = write_compressed_binary_bytes(&compressed);

        // Truncations at every length strictly shorter than the file.
        for cut in [0, 4, HEADER_BYTES - 1, HEADER_BYTES, bytes.len() - 1] {
            let err = read_compressed_binary_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, IoError::Parse { line: 0, .. }), "cut {cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_compressed_binary_bytes(&bad),
            Err(IoError::Parse { .. })
        ));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[8] = 9;
        let message = read_compressed_binary_bytes(&bad).unwrap_err().to_string();
        assert!(message.contains("version"), "{message}");
        // Unknown flags.
        let mut bad = bytes.clone();
        bad[12] = 0x80;
        assert!(read_compressed_binary_bytes(&bad).is_err());
        // Payload bit flips never panic.
        for i in HEADER_BYTES..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x81;
            let _ = read_compressed_binary_bytes(&bad);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bga-binary-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bgacsr");
        let compressed = CompressedCsrGraph::from_csr(&barabasi_albert(150, 3, 4));
        write_compressed_binary_file(&path, &compressed).unwrap();
        let back = read_compressed_binary_file(&path).unwrap();
        assert_eq!(back, compressed);
        std::fs::remove_file(&path).ok();
    }
}
