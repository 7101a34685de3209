//! Fault-injection harness for the v3 binary snapshot container.
//!
//! Companion to `fault_injection.rs` (which attacks the JSON format and
//! the engine boundary): every hostile byte pattern here — truncation at
//! every structural boundary, flipped payload and header bytes, offsets
//! past EOF, adversarial lengths, zero-length / overlapping / duplicate /
//! unknown sections — must surface as a typed [`CoreError`], never a
//! panic and never an allocation larger than the file itself. The harness
//! forges corrupted containers by editing the section table and
//! re-sealing the header checksum, exactly as an attacker with a hex
//! editor would. The schema-3 cut sections (`backbone`, `topk`) and the
//! metadata's `graph_top_k` are forged inside the committed schema-3
//! fixture: their payloads are rewritten and every checksum resealed, so
//! only the decoder's own checks stand.

mod common;

use soulmate_core::error::CoreError;
use soulmate_core::online::link_query;
use soulmate_core::pipeline::{Pipeline, PipelineConfig};
use soulmate_core::snapshot::binary::crc32;
use soulmate_core::snapshot::PipelineSnapshot;
use soulmate_core::EngineMode;
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};
use std::path::{Path, PathBuf};

/// Container prelude: magic (8) + version (4) + section count (4).
const PRELUDE_LEN: usize = 16;
/// Bytes per section-table entry: kind u32, encoding u32, offset u64,
/// len u64, crc u32.
const ENTRY_LEN: usize = 28;

/// Section kinds of the metadata and the schema-3 cut.
const KIND_META: u32 = 1;
const KIND_BACKBONE: u32 = 9;
const KIND_TOPK: u32 = 10;

/// Authors in the fitted model and in the committed fixtures.
const N: usize = 14;

fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
    let d = generate(&GeneratorConfig {
        n_authors: N,
        n_communities: 3,
        n_concepts: 5,
        entities_per_concept: 8,
        mean_tweets_per_author: 22,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
    (d, p)
}

/// A committed legacy snapshot (see `tests/fixtures/README.md`).
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("soulmate-binfault-{}-{name}", std::process::id()));
    p
}

fn author_tweets(
    d: &soulmate_corpus::Dataset,
    author: u32,
    take: usize,
) -> Vec<(Timestamp, String)> {
    d.tweets
        .iter()
        .filter(|t| t.author == author)
        .take(take)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect()
}

/// An in-memory binary container whose header fields can be forged. Every
/// mutator leaves the header checksum stale; [`Container::reseal`]
/// recomputes it so the corruption under test is the *only* violation the
/// reader sees.
struct Container {
    bytes: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    kind: u32,
    encoding: u32,
    offset: u64,
    len: u64,
}

impl Container {
    fn build(quantize: bool) -> Container {
        let snap = fitted().1.snapshot(&[]);
        let path = tmp(if quantize { "build-q.bin" } else { "build.bin" });
        snap.save_binary(&path, quantize).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Container { bytes }
    }

    /// The committed schema-3 fixture, whose `topk` section is the empty
    /// one every writer stores.
    fn schema3_fixture() -> Container {
        Container {
            bytes: std::fs::read(fixture("v3_schema3.bin")).unwrap(),
        }
    }

    /// The metadata JSON with its `"graph_top_k":0` set to `k`.
    fn with_graph_top_k(&self, k: u64) -> Container {
        let meta = String::from_utf8(self.payload(KIND_META)).unwrap();
        assert!(meta.contains("\"graph_top_k\":0"), "{meta}");
        let forged = meta.replace("\"graph_top_k\":0", &format!("\"graph_top_k\":{k}"));
        self.with_payload(KIND_META, forged.into_bytes())
    }

    fn section_count(&self) -> usize {
        u32::from_le_bytes(self.bytes[12..16].try_into().unwrap()) as usize
    }

    fn header_len(&self) -> usize {
        PRELUDE_LEN + self.section_count() * ENTRY_LEN + 4
    }

    fn entry_at(&self, i: usize) -> usize {
        PRELUDE_LEN + i * ENTRY_LEN
    }

    fn entry(&self, i: usize) -> TableEntry {
        let at = self.entry_at(i);
        TableEntry {
            kind: u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap()),
            encoding: u32::from_le_bytes(self.bytes[at + 4..at + 8].try_into().unwrap()),
            offset: u64::from_le_bytes(self.bytes[at + 8..at + 16].try_into().unwrap()),
            len: u64::from_le_bytes(self.bytes[at + 16..at + 24].try_into().unwrap()),
        }
    }

    fn set_kind(&mut self, i: usize, kind: u32) {
        let at = self.entry_at(i);
        self.bytes[at..at + 4].copy_from_slice(&kind.to_le_bytes());
    }

    fn set_encoding(&mut self, i: usize, encoding: u32) {
        let at = self.entry_at(i) + 4;
        self.bytes[at..at + 4].copy_from_slice(&encoding.to_le_bytes());
    }

    fn set_offset(&mut self, i: usize, offset: u64) {
        let at = self.entry_at(i) + 8;
        self.bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
    }

    fn set_len(&mut self, i: usize, len: u64) {
        let at = self.entry_at(i) + 16;
        self.bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn set_crc(&mut self, i: usize, crc: u32) {
        let at = self.entry_at(i) + 24;
        self.bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Recompute the trailing header checksum over prelude + table, so a
    /// forged table passes the checksum gate and reaches validation.
    fn reseal(&mut self) {
        let hl = self.header_len();
        let crc = crc32(&self.bytes[..hl - 4]);
        self.bytes[hl - 4..hl].copy_from_slice(&crc.to_le_bytes());
    }

    /// The payload of the section of `kind`.
    fn payload(&self, kind: u32) -> Vec<u8> {
        common::split(&self.bytes)
            .into_iter()
            .find(|(k, _, _)| *k == kind)
            .unwrap()
            .2
    }

    /// The same container with the section of `kind` carrying `payload`,
    /// laid out and checksummed afresh.
    fn with_payload(&self, kind: u32, payload: Vec<u8>) -> Container {
        let mut sections = common::split(&self.bytes);
        sections.iter_mut().find(|(k, _, _)| *k == kind).unwrap().2 = payload;
        Container {
            bytes: common::seal(&sections),
        }
    }

    /// Write the (possibly corrupted) bytes and load them through the
    /// sniffing entry point — the exact path `link`/`serve` take.
    fn load(&self, name: &str) -> Result<PipelineSnapshot, CoreError> {
        let path = tmp(name);
        std::fs::write(&path, &self.bytes).unwrap();
        let result = PipelineSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        result
    }
}

/// Typed-failure assertion: corruption is Parse, structure is Schema —
/// and a panic (the thing under test) fails the harness itself.
fn assert_typed(err: &CoreError, label: &str) {
    assert!(
        matches!(err, CoreError::Parse(_) | CoreError::Schema(_)),
        "{label}: gave {err:?}, expected Parse or Schema"
    );
}

// ---------------------------------------------------------------------
// Byte-level corruption.
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_structural_boundary_is_a_typed_error() {
    let c = Container::build(false);
    let total = c.bytes.len();
    // Prelude edges, table edges, and each section's start / interior /
    // last byte: every proper prefix must fail with a typed error.
    let mut cuts = vec![
        0,
        1,
        7,
        8,
        12,
        15,
        PRELUDE_LEN,
        c.header_len() - 1,
        c.header_len(),
    ];
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let (off, len) = (e.offset as usize, e.len as usize);
        cuts.extend([off, off + 1, off + len / 2, off + len - 1]);
    }
    for cut in cuts {
        assert!(cut < total, "boundary {cut} is not a proper prefix");
        let truncated = Container {
            bytes: c.bytes[..cut].to_vec(),
        };
        let err = truncated.load("trunc.bin").unwrap_err();
        assert_typed(&err, &format!("truncation at {cut}/{total}"));
    }
    // Control: the untouched bytes load.
    assert!(c.load("trunc-ctl.bin").is_ok());
}

#[test]
fn flipped_payload_bytes_fail_their_section_checksum() {
    let c = Container::build(false);
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let mut forged = Container {
            bytes: c.bytes.clone(),
        };
        // First, middle, and last byte of the payload.
        for delta in [0, e.len as usize / 2, e.len as usize - 1] {
            let at = e.offset as usize + delta;
            forged.bytes[at] ^= 0xFF;
        }
        let err = forged.load("flip.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("checksum")),
            "section {i}: gave {err:?}, expected a checksum Parse error"
        );
    }
}

#[test]
fn flipped_header_bytes_fail_the_header_checksum_before_any_payload() {
    let c = Container::build(false);
    // Flip one byte per table field span; without a reseal the header
    // checksum catches it before validation or any payload read.
    for at in [
        PRELUDE_LEN,
        PRELUDE_LEN + 5,
        PRELUDE_LEN + 9,
        PRELUDE_LEN + 20,
    ] {
        let mut forged = Container {
            bytes: c.bytes.clone(),
        };
        forged.bytes[at] ^= 0x55;
        let err = forged.load("hdr.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("header checksum")),
            "byte {at}: gave {err:?}, expected a header-checksum Parse error"
        );
    }
}

/// The name a section of `kind` carries in the reader's errors.
fn kind_name(kind: u32) -> &'static str {
    match kind {
        1 => "meta",
        2 => "vocab",
        3 => "collective",
        4 => "centroids",
        5 => "author_content",
        6 => "author_concept",
        7 => "x_total",
        8 => "index",
        9 => "backbone",
        10 => "topk",
        other => panic!("unknown kind {other}"),
    }
}

/// The checksum folds sixteen bytes per step and the last `len % 16` one
/// at a time. One flipped bit at each position of a 16-byte block (each
/// in a different block where the payload has several, each a different
/// bit) and at every byte of the tail must fail that section's checksum,
/// by name, before anything is parsed.
#[test]
fn flipped_bits_at_every_block_position_and_in_the_tail_fail_the_section_checksum() {
    let c = Container::schema3_fixture();
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let name = kind_name(e.kind);
        let len = e.len as usize;
        let blocks = len / 16;
        let mut flips: Vec<usize> = if blocks == 0 {
            Vec::new()
        } else {
            (0..16).map(|p| (p * 7 % blocks) * 16 + p).collect()
        };
        flips.extend(blocks * 16..len);
        assert!(flips.len() >= 16, "section {name}: {len} bytes");
        for (n, at) in flips.into_iter().enumerate() {
            let mut forged = Container {
                bytes: c.bytes.clone(),
            };
            forged.bytes[e.offset as usize + at] ^= 1 << (n % 8);
            let err = forged.load("bitflip.bin").unwrap_err();
            let want = format!("section {name} checksum mismatch");
            assert!(
                matches!(&err, CoreError::Parse(m) if m.contains(&want)),
                "section {name} byte {at}: gave {err:?}, expected `{want}`"
            );
        }
    }
}

#[test]
fn committed_containers_carry_the_checksums_this_crc_computes() {
    // Written by earlier writers with the byte-at-a-time CRC: every
    // stored section and header checksum must equal today's value.
    for name in ["v3_f32_index.bin", "v3_qi8.bin", "v3_schema3.bin"] {
        let c = Container {
            bytes: std::fs::read(fixture(name)).unwrap(),
        };
        for i in 0..c.section_count() {
            let e = c.entry(i);
            let stored = c.entry_at(i) + 24;
            let payload = &c.bytes[e.offset as usize..(e.offset + e.len) as usize];
            assert_eq!(
                crc32(payload).to_le_bytes(),
                c.bytes[stored..stored + 4],
                "{name} section {}",
                kind_name(e.kind)
            );
        }
        let hl = c.header_len();
        assert_eq!(
            crc32(&c.bytes[..hl - 4]).to_le_bytes(),
            c.bytes[hl - 4..hl],
            "{name} header"
        );
    }
}

#[test]
fn truncated_bodies_are_refused_by_the_table_before_any_section_read() {
    // Every cut inside the section bytes leaves a section past the end
    // of the file: the validated table refuses it, so the one read of
    // the section bytes never starts.
    let c = Container::schema3_fixture();
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let (off, len) = (e.offset as usize, e.len as usize);
        for cut in [off, off + len / 2, off + len - 1] {
            let truncated = Container {
                bytes: c.bytes[..cut].to_vec(),
            };
            let err = truncated.load("trunc-body.bin").unwrap_err();
            assert!(
                matches!(&err, CoreError::Schema(m) if m.contains("extends past end of file")),
                "cut at {cut}: {err:?}"
            );
        }
    }
}

#[test]
fn trailing_bytes_after_the_last_section_are_never_read() {
    // The table, not the file length, says where the sections end: bytes
    // after the last one are not read, checksummed or parsed.
    let c = Container::schema3_fixture();
    let want = c.load("trail-ctl.bin").unwrap();
    for extra in [1usize, 15, 16, 17, 4096] {
        let mut forged = Container {
            bytes: c.bytes.clone(),
        };
        forged.bytes.resize(c.bytes.len() + extra, 0xA5);
        let got = forged.load("trail.bin").unwrap();
        assert_eq!(got.cut.base_edges(), want.cut.base_edges(), "{extra}");
        assert_eq!(
            got.author_content.to_matrix(),
            want.author_content.to_matrix(),
            "{extra}"
        );
    }
}

#[test]
fn zero_width_matrices_cannot_claim_more_rows_than_the_file_has_bytes() {
    // A zero-width matrix's payload does not grow with its rows, so its
    // row count is bounded by the file instead; a forged count of 2^40
    // rows must be refused before any per-row allocation.
    let c = Container::schema3_fixture();
    for kind in [3, 4, 5, 6] {
        let mut payload = (1u64 << 40).to_le_bytes().to_vec();
        payload.extend_from_slice(&0u64.to_le_bytes());
        let err = c
            .with_payload(kind, payload)
            .load("zero-width.bin")
            .unwrap_err();
        let name = kind_name(kind);
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains(name) && m.contains("rows, more than")),
            "{name}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Forged section tables (resealed, so only validation can reject them).
// ---------------------------------------------------------------------

#[test]
fn offsets_past_eof_and_overflowing_extents_are_schema_errors() {
    let base = Container::build(false);
    let file_len = base.bytes.len() as u64;

    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(0, file_len + 1024);
    forged.reseal();
    let err = forged.load("eof.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("past end of file")),
        "{err:?}"
    );

    // offset + len overflows u64: checked arithmetic, not a wrap-around
    // that would alias back into the file.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, u64::MAX - 8);
    forged.reseal();
    let err = forged.load("ovf.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("overflow")),
        "{err:?}"
    );
}

#[test]
fn adversarial_lengths_are_rejected_before_allocation() {
    // A multi-exabyte claimed length must be rejected against the
    // file's actual size before any buffer is sized from it — if the
    // reader ever allocated from the header this test would abort the
    // process, not fail an assertion.
    let base = Container::build(false);
    for huge in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.set_len(2, huge);
        forged.reseal();
        let err = forged.load("huge.bin").unwrap_err();
        assert_typed(&err, &format!("claimed length {huge}"));
    }
}

#[test]
fn zero_length_sections_are_schema_errors() {
    let base = Container::build(false);
    for i in 0..base.section_count() {
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.set_len(i, 0);
        forged.reseal();
        let err = forged.load("zero.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("zero length")),
            "section {i}: {err:?}"
        );
    }
}

#[test]
fn overlapping_sections_are_schema_errors() {
    let base = Container::build(false);
    // Move section 1 onto section 0's byte range.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, base.entry(0).offset);
    forged.reseal();
    let err = forged.load("overlap.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("overlap")),
        "{err:?}"
    );

    // A one-byte intrusion is an overlap too.
    let e0 = base.entry(0);
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, e0.offset + e0.len - 1);
    forged.reseal();
    let err = forged.load("overlap1.bin").unwrap_err();
    assert_typed(&err, "one-byte overlap");
}

#[test]
fn unknown_duplicate_and_mis_encoded_kinds_are_schema_errors() {
    let base = Container::build(false);

    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_kind(0, 99);
    forged.reseal();
    let err = forged.load("kind.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("unknown section kind")),
        "{err:?}"
    );

    // Two sections claiming the same kind.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    let dup = base.entry(1).kind;
    let enc = base.entry(1).encoding;
    forged.set_kind(0, dup);
    forged.set_encoding(0, enc);
    forged.reseal();
    let err = forged.load("dup.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("duplicate")),
        "{err:?}"
    );

    // A JSON-only kind carrying a matrix encoding.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_encoding(0, 1); // meta must be ENC_JSON
    forged.reseal();
    let err = forged.load("enc.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("encoding")),
        "{err:?}"
    );
}

#[test]
fn missing_required_sections_are_schema_errors() {
    let base = Container::build(false);
    // Relabel the last required section as the optional index kind (with
    // its required JSON encoding, so the per-entry check passes and the
    // completeness check is what fires).
    let last = base.section_count() - 1;
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_kind(last, 8); // KIND_INDEX
    forged.set_encoding(last, 0); // ENC_JSON
    forged.reseal();
    let err = forged.load("missing.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("required section")),
        "{err:?}"
    );
}

#[test]
fn shrunken_matrix_payloads_fail_the_exact_size_check() {
    // Shrink the tail section by one byte *and* fix up both checksums:
    // the only remaining defence is the decoder's exact remaining-bytes
    // check against the rows/cols it parsed — for quantized sections
    // that arithmetic is the checked rows*8 + cols*4 sidecar math.
    for quantize in [false, true] {
        let base = Container::build(quantize);
        let tail = (0..base.section_count())
            .max_by_key(|&i| base.entry(i).offset)
            .unwrap();
        let e = base.entry(tail);
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.bytes.truncate((e.offset + e.len - 1) as usize);
        forged.set_len(tail, e.len - 1);
        let payload = &forged.bytes[e.offset as usize..(e.offset + e.len - 1) as usize].to_vec();
        forged.set_crc(tail, crc32(payload));
        forged.reseal();
        let err = forged.load("shrunk.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("bytes")),
            "quantize={quantize}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Schema-3 cut sections: forged payloads inside sealed containers.
// ---------------------------------------------------------------------

/// A persisted backbone edge: `(u, v, w)`.
type RawEdge = (u32, u32, f32);

fn edges_of(payload: &[u8]) -> Vec<RawEdge> {
    payload[8..]
        .chunks_exact(12)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
                f32::from_le_bytes(c[8..12].try_into().unwrap()),
            )
        })
        .collect()
}

/// A backbone payload claiming `count` edges and holding `edges`.
fn edges_payload(count: u64, edges: &[RawEdge]) -> Vec<u8> {
    let mut out = count.to_le_bytes().to_vec();
    for &(u, v, w) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// A `topk` payload: `n` authors, its `k`, then one prefix length per
/// author (each prefix holding `len` zeroed `(id, sim)` pairs).
fn topk_payload(k: u64, lens: &[u32]) -> Vec<u8> {
    let mut out = (lens.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(&k.to_le_bytes());
    for &len in lens {
        out.extend_from_slice(&len.to_le_bytes());
        out.resize(out.len() + 8 * len as usize, 0);
    }
    out
}

#[test]
fn forged_backbones_are_typed_errors() {
    let base = Container::schema3_fixture();
    assert!(base.load("bb-ctl.bin").is_ok(), "the control loads");
    let edges = edges_of(&base.payload(KIND_BACKBONE));
    assert_eq!(
        edges.len(),
        N - 1,
        "the fixture's forest spans every author"
    );
    let n = N as u32;

    let forge = |mutate: &dyn Fn(&mut Vec<RawEdge>)| -> Vec<u8> {
        let mut e = edges.clone();
        mutate(&mut e);
        edges_payload(e.len() as u64, &e)
    };
    // The duplicates first drop the weakest edge, so the n - 1 bound
    // holds and the check under test is the one that fires.
    let cases: Vec<(&str, &str, Vec<u8>)> = vec![
        ("endpoint >= n", "out of range", forge(&|e| e[0].1 = n)),
        (
            "endpoint far out of range",
            "out of range",
            forge(&|e| e[0].0 = u32::MAX),
        ),
        ("self-loop", "self-loop", forge(&|e| e[0].1 = e[0].0)),
        (
            "endpoints reversed",
            "u < v",
            forge(&|e| e[0] = (e[0].1, e[0].0, e[0].2)),
        ),
        ("out of pop order", "pop order", forge(&|e| e.swap(0, 1))),
        (
            "duplicated edge",
            "pop order",
            forge(&|e| {
                e.pop();
                e.insert(1, e[0]);
            }),
        ),
        (
            // The same pair again, weaker than every edge, keeps the pop
            // order: only the forest check can catch it.
            "duplicated pair, new weight",
            "cycle",
            forge(&|e| {
                let weakest = e.pop().unwrap().2;
                e.push((e[0].0, e[0].1, weakest - 1.0));
            }),
        ),
        ("NaN weight", "not finite", forge(&|e| e[0].2 = f32::NAN)),
        (
            "+inf weight",
            "not finite",
            forge(&|e| e[0].2 = f32::INFINITY),
        ),
        (
            "-inf weight",
            "not finite",
            forge(&|e| e.last_mut().unwrap().2 = f32::NEG_INFINITY),
        ),
        (
            "more than n-1 edges",
            "n-1",
            forge(&|e| {
                let extra = e[0];
                e.resize(N, extra);
            }),
        ),
        // A huge claimed count over a short payload is refused by the
        // bound before anything is sized from it.
        (
            "claimed count u64::MAX",
            "n-1",
            edges_payload(u64::MAX, &edges),
        ),
        (
            "claimed count past the payload",
            "bytes",
            edges_payload(edges.len() as u64, &edges[1..]),
        ),
        ("one byte short", "bytes", {
            let mut p = forge(&|_| {});
            p.pop();
            p
        }),
    ];
    // Control: re-sealing the untouched payload loads.
    let same = base.with_payload(KIND_BACKBONE, base.payload(KIND_BACKBONE));
    assert!(same.load("bb-same.bin").is_ok());
    for (label, needle, payload) in cases {
        let err = base
            .with_payload(KIND_BACKBONE, payload)
            .load("bb.bin")
            .unwrap_err();
        assert_class(&err, label, needle);
    }
}

/// Payload-size mismatches are corruption (`Parse`); everything else a
/// forged cut section can get wrong is structure (`Schema`). Either way
/// the message names what is wrong.
fn assert_class(err: &CoreError, label: &str, needle: &str) {
    let parse = label.contains("byte") || label.contains("past the payload");
    let message = match (parse, err) {
        (true, CoreError::Parse(m)) | (false, CoreError::Schema(m)) => m,
        _ => panic!("{label}: gave {err:?}"),
    };
    assert!(message.contains(needle), "{label}: {message}");
}

#[test]
fn forged_topk_sections_are_typed_errors() {
    let base = Container::schema3_fixture();
    // The committed section: n authors, k = 0, n empty prefixes.
    let empty = vec![0u32; N];
    assert_eq!(base.payload(KIND_TOPK), topk_payload(0, &empty));

    let with_len = |node: usize, len: u32| -> Vec<u8> {
        let mut lens = empty.clone();
        lens[node] = len;
        topk_payload(0, &lens)
    };
    let cases: Vec<(&str, &str, Vec<u8>)> = vec![
        ("k = 1", "graph_top_k", topk_payload(1, &empty)),
        ("a non-empty prefix", "graph_top_k", with_len(3, 1)),
        ("one author short", "authors", topk_payload(0, &empty[1..])),
        (
            "one author too many",
            "authors",
            topk_payload(0, &[0; N + 1]),
        ),
        ("trailing byte", "trailing", {
            let mut t = topk_payload(0, &empty);
            t.push(0);
            t
        }),
        ("one byte short", "truncated", {
            let mut t = topk_payload(0, &empty);
            t.pop();
            t
        }),
    ];
    let same = base.with_payload(KIND_TOPK, base.payload(KIND_TOPK));
    assert!(same.load("topk-same.bin").is_ok());
    for (label, needle, payload) in cases {
        let err = base
            .with_payload(KIND_TOPK, payload)
            .load("topk.bin")
            .unwrap_err();
        assert_class(&err, label, needle);
    }
}

#[test]
fn hostile_top_k_never_sizes_an_allocation() {
    // Stored lengths that would size multi-gigabyte buffers if anything
    // were allocated from them: each is refused before a buffer exists,
    // so the test completes instead of aborting the process.
    let base = Container::schema3_fixture();
    let schema_naming = |err: CoreError, label: &str| {
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("graph_top_k")),
            "{label}: {err:?}"
        );
    };
    // A metadata k of u64::MAX, alone and under a backbone claiming
    // u64::MAX edges.
    let huge = base.with_graph_top_k(u64::MAX);
    schema_naming(huge.load("huge-k.bin").unwrap_err(), "metadata k");
    let err = huge
        .with_payload(KIND_BACKBONE, edges_payload(u64::MAX, &[]))
        .load("huge-count.bin")
        .unwrap_err();
    schema_naming(err, "edge count u64::MAX under k = u64::MAX");
    // A topk section claiming k = u64::MAX.
    let err = base
        .with_payload(KIND_TOPK, topk_payload(u64::MAX, &[0; N]))
        .load("huge-topk-k.bin")
        .unwrap_err();
    schema_naming(err, "topk k = u64::MAX");
    // A prefix claiming u32::MAX entries over an empty tail.
    let mut topk = (N as u64).to_le_bytes().to_vec();
    topk.extend_from_slice(&0u64.to_le_bytes());
    topk.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = base
        .with_payload(KIND_TOPK, topk)
        .load("huge-prefix.bin")
        .unwrap_err();
    schema_naming(err, "prefix length u32::MAX");
}

/// Every schema names `graph_top_k` in its metadata, and only 0 loads:
/// per-node lifelines describe a graph the cut does not build.
#[test]
fn nonzero_graph_top_k_is_refused_in_every_schema() {
    let refused = |result: Result<PipelineSnapshot, CoreError>, label: &str| {
        let err = result.unwrap_err();
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("graph_top_k")),
            "{label}: {err:?}"
        );
    };
    // Schema 1 and 2 JSON files.
    for name in ["v1.json", "v2_index.json"] {
        let text = std::fs::read_to_string(fixture(name)).unwrap();
        assert!(text.contains("\"graph_top_k\":0"), "{name}");
        let path = tmp(name);
        std::fs::write(
            &path,
            text.replace("\"graph_top_k\":0", "\"graph_top_k\":2"),
        )
        .unwrap();
        refused(PipelineSnapshot::load(&path), name);
        std::fs::remove_file(&path).ok();
    }
    // A schema-2 container (dense x_total) and the schema-3 fixture.
    for name in ["v3_f32_index.bin", "v3_schema3.bin"] {
        let c = Container {
            bytes: std::fs::read(fixture(name)).unwrap(),
        };
        assert!(c.load(name).is_ok(), "{name}: the control loads");
        refused(c.with_graph_top_k(1).load(name), name);
    }
}

#[test]
fn schema_and_cut_sections_must_agree() {
    let base = Container::build(false);
    // A schema-3 file relabelled as schema 2 claims a dense x_total it
    // does not carry.
    let meta = String::from_utf8(base.payload(1)).unwrap();
    assert!(meta.contains("\"version\":3"), "{meta}");
    let relabelled = base.with_payload(
        1,
        meta.replace("\"version\":3", "\"version\":2").into_bytes(),
    );
    let err = relabelled.load("schema.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("schema 2")),
        "{err:?}"
    );
    // Dropping the topk section leaves half a cut.
    let mut sections = common::split(&base.bytes);
    sections.retain(|(kind, _, _)| *kind != KIND_TOPK);
    let half = Container {
        bytes: common::seal(&sections),
    };
    let err = half.load("half.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("backbone and topk")),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// The control arm: valid containers pass through unchanged.
// ---------------------------------------------------------------------

#[test]
fn valid_binary_roundtrip_serves_bit_for_bit() {
    let (d, p) = fitted();
    let snap = p.snapshot(&[]);
    let path = tmp("control.bin");
    snap.save_binary(&path, false).unwrap();
    let loaded = PipelineSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let engine = loaded.query_engine(EngineMode::Exact).unwrap();
    for author in [0u32, 5, 9] {
        let tweets = author_tweets(&d, author, 6);
        let want = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let got = engine.link_query_authors(&[tweets]).unwrap().remove(0);
        assert_eq!(want.similarities, got.similarities, "author {author}");
        assert_eq!(want.subgraph, got.subgraph, "author {author}");
    }
}

#[test]
fn valid_quantized_container_loads_and_serves() {
    let (d, p) = fitted();
    let snap = p.snapshot(&[]);
    let path = tmp("control-q.bin");
    snap.save_binary(&path, true).unwrap();
    let loaded = PipelineSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Quantization perturbs values, so no bit-parity claim here — but
    // the dequantized snapshot must validate, build an engine, and serve
    // well-formed outcomes.
    let engine = loaded.query_engine(EngineMode::Exact).unwrap();
    let outcome = engine
        .link_query_authors(&[author_tweets(&d, 3, 6)])
        .unwrap()
        .remove(0);
    assert_eq!(outcome.similarities.len(), N);
    assert!(outcome.similarities.iter().all(|s| s.is_finite()));
    assert!(!outcome.subgraph.is_empty());
}
