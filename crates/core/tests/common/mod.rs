//! Container surgery shared by the fault-injection suites: split a v3
//! snapshot into its sections, and seal edited sections into a fresh
//! container with offsets and checksums recomputed, exactly as the
//! writer lays one out (DESIGN.md §16). A forged payload sealed this way
//! passes every checksum, so only the decoder's own checks can reject it.

use soulmate_core::snapshot::binary::crc32;

/// Magic (8) + container version (4) + section count (4).
const PRELUDE_LEN: usize = 16;
/// kind u32, encoding u32, offset u64, len u64, crc u32.
const ENTRY_LEN: usize = 28;

/// One section: `(kind, encoding, payload)`.
pub type Section = (u32, u32, Vec<u8>);

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The sections of a well-formed container, in table order.
pub fn split(bytes: &[u8]) -> Vec<Section> {
    let count = u32_at(bytes, 12) as usize;
    (0..count)
        .map(|i| {
            let at = PRELUDE_LEN + i * ENTRY_LEN;
            let offset = u64_at(bytes, at + 8) as usize;
            let len = u64_at(bytes, at + 16) as usize;
            (
                u32_at(bytes, at),
                u32_at(bytes, at + 4),
                bytes[offset..offset + len].to_vec(),
            )
        })
        .collect()
}

/// A fresh container holding `sections` in order.
pub fn seal(sections: &[Section]) -> Vec<u8> {
    let header_len = PRELUDE_LEN + sections.len() * ENTRY_LEN + 4;
    let mut out = Vec::new();
    out.extend_from_slice(b"SOULSNAP");
    out.extend_from_slice(&3u32.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (kind, encoding, payload) in sections {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&encoding.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    for (_, _, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}
