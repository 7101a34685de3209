//! Migration suite: every snapshot generation an earlier release wrote
//! (v1 JSON, v2 JSON with a persisted IVF index, v3 binary with an index
//! section, v3 binary quantized — all carrying the dense `x_total` — and
//! the schema-3 container that carries the cut instead) must load and
//! serve through today's engine, and re-saving into the v3 container must
//! preserve serving exactly (f32) or within a pinned recall floor (i8).
//!
//! The legacy files under `tests/fixtures/` were written by the JSON and
//! index-section writers of commit be7cd44, the last one that had them,
//! from a 14-author, dim-10 fit; `v3_schema3.bin` is `v3_f32_index.bin`
//! converted by the first schema-3 writer. They are the compatibility
//! contract: never regenerate them with a later writer.

use soulmate_core::pipeline::{Pipeline, PipelineConfig};
use soulmate_core::snapshot::{PipelineSnapshot, SNAPSHOT_VERSION};
use soulmate_core::{CoreError, EngineMode, QueryOutcome};
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};
use std::path::{Path, PathBuf};

fn dataset(seed: u64) -> soulmate_corpus::Dataset {
    generate(&GeneratorConfig {
        seed,
        n_authors: 18,
        n_communities: 4,
        n_concepts: 5,
        entities_per_concept: 8,
        mean_tweets_per_author: 24,
        ..GeneratorConfig::small()
    })
    .unwrap()
}

fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
    let d = dataset(42);
    let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
    (d, p)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("soulmate-migrate-{}-{name}", std::process::id()));
    p
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The f32 fixtures: each carries the same model bit for bit.
const F32_FIXTURES: [&str; 4] = [
    "v1.json",
    "v2_index.json",
    "v3_f32_index.bin",
    "v3_schema3.bin",
];

/// The fixtures whose writer persisted an IVF index (now ignored).
const INDEXED_FIXTURES: [&str; 2] = ["v2_index.json", "v3_f32_index.bin"];

/// The recorded query: one `minute<TAB>text` tweet per line.
fn fixture_query() -> Vec<(Timestamp, String)> {
    std::fs::read_to_string(fixture("query.tsv"))
        .unwrap()
        .lines()
        .map(|line| {
            let (minute, text) = line.split_once('\t').unwrap();
            (Timestamp(minute.parse().unwrap()), text.to_string())
        })
        .collect()
}

/// One `name value...` line of the recorded outcome.
fn recorded(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(fixture("exact_outcome.txt")).unwrap();
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("exact_outcome.txt has no {name} line"));
    line.split_whitespace()
        .skip(1)
        .map(str::to_string)
        .collect()
}

fn bits(hex: &str) -> u32 {
    u32::from_str_radix(hex, 16).unwrap()
}

/// The fixture query served by a fresh `mode` engine over `snap`.
fn serve(snap: &PipelineSnapshot, mode: EngineMode) -> QueryOutcome {
    snap.query_engine(mode)
        .unwrap()
        .link_query_authors(&[fixture_query()])
        .unwrap()
        .remove(0)
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

fn queries(d: &soulmate_corpus::Dataset, n: u32) -> Vec<Vec<(Timestamp, String)>> {
    (0..n).map(|a| author_tweets(d, a, 6)).collect()
}

/// Indices of the `k` highest similarities (descending, ties by id).
fn top_k(similarities: &[f32], k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..similarities.len()).collect();
    ids.sort_by(|&a, &b| similarities[b].total_cmp(&similarities[a]).then(a.cmp(&b)));
    ids.truncate(k);
    ids
}

#[test]
fn every_committed_fixture_loads() {
    // Every fixture was written from the same fit, whose generated
    // authors are `user0000`..`user0013`.
    let handles: Vec<String> = (0..14).map(|a| format!("user{a:04}")).collect();
    for (name, version) in [
        ("v1.json", 1),
        ("v2_index.json", 2),
        ("v3_f32_index.bin", 2),
        ("v3_qi8.bin", 2),
        ("v3_schema3.bin", 3),
    ] {
        let snap = PipelineSnapshot::load(&fixture(name))
            .unwrap_or_else(|e| panic!("{name} no longer loads: {e}"));
        assert_eq!(snap.version, version, "{name}");
        assert_eq!(snap.n_authors(), 14, "{name}");
        assert_eq!(snap.collective.dim(), 10, "{name}");
        let loaded: Vec<&str> = snap.author_handles.iter().collect();
        assert_eq!(loaded, handles, "{name}: handles");
    }
}

#[test]
fn f32_fixtures_answer_the_recorded_exact_outcome_bit_for_bit() {
    let want_sims: Vec<u32> = recorded("similarities").iter().map(|h| bits(h)).collect();
    let want_subgraph: Vec<usize> = recorded("subgraph")
        .iter()
        .map(|v| v.parse().unwrap())
        .collect();
    let want_query: usize = recorded("query_index")[0].parse().unwrap();
    let want_avg = bits(&recorded("subgraph_avg_weight")[0]);
    for name in F32_FIXTURES {
        let snap = PipelineSnapshot::load(&fixture(name)).unwrap();
        let got = serve(&snap, EngineMode::Exact);
        let got_sims: Vec<u32> = got.similarities.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_sims, want_sims, "{name}: similarities");
        assert_eq!(got.subgraph, want_subgraph, "{name}: subgraph");
        assert_eq!(got.query_index, want_query, "{name}: query index");
        assert_eq!(got.subgraph_avg_weight.to_bits(), want_avg, "{name}");
    }
}

#[test]
fn schema3_fixture_carries_the_cut_of_its_source() {
    // The cut the loader builds from the legacy file's x_total is the
    // one the schema-3 conversion persisted, edge for edge and bit for
    // bit, and the converted file holds no dense matrix.
    let dense = PipelineSnapshot::load(&fixture("v3_f32_index.bin")).unwrap();
    let cut = PipelineSnapshot::load(&fixture("v3_schema3.bin")).unwrap();
    let bits = |s: &PipelineSnapshot| -> Vec<(usize, usize, u32)> {
        s.cut
            .base_edges()
            .iter()
            .map(|e| (e.u, e.v, e.w.to_bits()))
            .collect()
    };
    assert_eq!(bits(&dense), bits(&cut));
    assert_eq!(
        cut.cut.base_edges().len(),
        13,
        "a spanning tree over 14 authors"
    );
    let info = soulmate_core::snapshot::binary::inspect(&fixture("v3_schema3.bin")).unwrap();
    let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
    assert!(
        names.contains(&"backbone") && names.contains(&"topk"),
        "{names:?}"
    );
    assert!(!names.contains(&"x_total"), "{names:?}");
}

#[test]
fn exhaustive_ivf_equals_exact_on_indexed_fixtures() {
    // The persisted index is ignored: the IVF plan builds its own from
    // the snapshot's matrices, and probing every centroid is exact.
    for name in INDEXED_FIXTURES {
        let snap = PipelineSnapshot::load(&fixture(name)).unwrap();
        let engine = snap.query_engine(EngineMode::Ivf { nprobe: 0 }).unwrap();
        let k = engine
            .index()
            .expect("IVF plan builds an index")
            .n_centroids();
        let exact = serve(&snap, EngineMode::Exact);
        let ivf = engine
            .with_mode(EngineMode::Ivf { nprobe: k })
            .link_query_authors(&[fixture_query()])
            .unwrap()
            .remove(0);
        assert_eq!(exact.similarities, ivf.similarities, "{name}");
        assert_eq!(exact.subgraph, ivf.subgraph, "{name}");
        assert_eq!(exact.subgraph_avg_weight, ivf.subgraph_avg_weight, "{name}");
    }
}

#[test]
fn quantized_fixture_serves_every_plan() {
    let snap = PipelineSnapshot::load(&fixture("v3_qi8.bin")).unwrap();
    for mode in [
        EngineMode::Exact,
        EngineMode::Ivf { nprobe: 0 },
        EngineMode::Quant { rerank: 0 },
    ] {
        let engine = snap.query_engine(mode).unwrap();
        let got = engine
            .link_query_authors(&[fixture_query()])
            .unwrap()
            .remove(0);
        assert_eq!(got.similarities.len(), 14, "{mode:?}");
        assert!(got.subgraph.contains(&got.query_index), "{mode:?}");
    }
}

#[test]
fn legacy_index_section_is_still_checksummed() {
    // The index section is written last; flipping the file's final byte
    // corrupts its payload. It is ignored once read, but a damaged file
    // must still fail its checksum instead of loading.
    let mut bytes = std::fs::read(fixture("v3_f32_index.bin")).unwrap();
    let last = bytes.last_mut().unwrap();
    *last ^= 0xFF;
    let path = tmp("index-crc.bin");
    std::fs::write(&path, &bytes).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(&err, CoreError::Parse(m) if m.contains("index") && m.contains("checksum")),
        "{err:?}"
    );
}

#[test]
fn v2_json_to_v3_binary_migration_serves_bit_for_bit() {
    let from_json = PipelineSnapshot::load(&fixture("v2_index.json")).unwrap();
    let bin_path = tmp("v2.bin");
    from_json.save_binary(&bin_path, false).unwrap();
    let from_bin = PipelineSnapshot::load(&bin_path).unwrap();
    std::fs::remove_file(&bin_path).ok();

    // The metadata survive the container. The writer emits schema 3,
    // which persists the cut the JSON loader built from x_total.
    assert_eq!(from_json.version, 2);
    assert_eq!(from_bin.version, SNAPSHOT_VERSION);
    assert_eq!(from_bin.author_handles, from_json.author_handles);
    assert_eq!(from_bin.alpha, from_json.alpha);
    assert_eq!(from_bin.cut.base_edges(), from_json.cut.base_edges());

    for mode in [EngineMode::Exact, EngineMode::Quant { rerank: 1000 }] {
        let want = serve(&from_json, mode);
        let got = serve(&from_bin, mode);
        assert_eq!(want.similarities, got.similarities);
        assert_eq!(want.subgraph, got.subgraph);
        assert_eq!(want.subgraph_avg_weight, got.subgraph_avg_weight);
    }
}

#[test]
fn v1_json_snapshots_migrate_through_the_binary_container() {
    // The v1 fixture minus `fit_metrics` as well: none of the fields
    // later generations added — the exact shape of a pre-observability
    // file on disk.
    let mut doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(fixture("v1.json")).unwrap()).unwrap();
    let obj = doc.as_object_mut().unwrap();
    assert!(
        obj.get("index").is_none(),
        "v1 fixture carries no index key"
    );
    obj.remove("fit_metrics");
    let json_path = tmp("v1.json");
    std::fs::write(&json_path, serde_json::to_string(&doc).unwrap()).unwrap();

    let v1 = PipelineSnapshot::load(&json_path).unwrap();
    std::fs::remove_file(&json_path).ok();
    assert_eq!(v1.version, 1);

    // Forward-convert to the v3 container and compare serving.
    let bin_path = tmp("v1.bin");
    v1.save_binary(&bin_path, false).unwrap();
    let migrated = PipelineSnapshot::load(&bin_path).unwrap();
    std::fs::remove_file(&bin_path).ok();
    assert_eq!(
        migrated.version, SNAPSHOT_VERSION,
        "the writer emits schema 3"
    );

    let want = serve(&v1, EngineMode::Exact);
    let got = serve(&migrated, EngineMode::Exact);
    assert_eq!(want.similarities, got.similarities);
    assert_eq!(want.subgraph, got.subgraph);
}

#[test]
fn quantized_migration_keeps_pinned_top_k_recall() {
    let (d, p) = fitted();
    let snap = p.snapshot(&[]);
    let bin_path = tmp("recall.bin");
    snap.save_binary(&bin_path, true).unwrap();
    let quantized = PipelineSnapshot::load(&bin_path).unwrap();
    std::fs::remove_file(&bin_path).ok();

    // Engines over the original and the dequantized snapshot, same
    // queries: mean-centered i8 quantization must keep the top-5
    // neighbour sets nearly intact. The fixture is fully seeded, so the
    // measured recall is deterministic and the floor can be pinned.
    let exact = snap.query_engine(EngineMode::Exact).unwrap();
    let approx = quantized.query_engine(EngineMode::Exact).unwrap();
    let k = 5;
    let (mut hits, mut total) = (0usize, 0usize);
    let qs = queries(&d, 10);
    let exact = exact.link_query_authors(&qs).unwrap();
    let approx = approx.link_query_authors(&qs).unwrap();
    for (want, got) in exact.iter().zip(&approx) {
        let want = top_k(&want.similarities, k);
        let got = top_k(&got.similarities, k);
        hits += want.iter().filter(|a| got.contains(a)).count();
        total += k;
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.9,
        "quantized top-{k} recall {recall:.3} fell below the pinned floor"
    );
}

#[test]
fn quantized_saves_are_deterministic_across_same_seed_fits() {
    // Two independent fits from the same seed, quantized and saved:
    // byte-identical files. This is what makes quantized snapshots
    // reproducible build artifacts rather than per-run lottery tickets.
    let d = dataset(7);
    let fit_and_save = |name: &str| -> Vec<u8> {
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        let path = tmp(name);
        p.snapshot(&[]).save_binary(&path, true).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    let a = fit_and_save("det-a.bin");
    let b = fit_and_save("det-b.bin");
    assert_eq!(a, b, "same-seed quantized snapshots diverged");
}

#[test]
fn concurrent_binary_saves_to_one_path_publish_complete_snapshots() {
    let (_, p) = fitted();
    let snap = p.snapshot(&[]);
    let path = tmp("race.bin");

    // The atomic-write contract at the library level: racing writers —
    // including a quantized and an f32 one — each stage a private
    // temporary, so whichever rename lands last, the destination is a
    // complete, loadable container (never an interleaving of both).
    std::thread::scope(|scope| {
        for i in 0..4 {
            let (snap, path) = (&snap, path.clone());
            scope.spawn(move || {
                snap.save_binary(&path, i % 2 == 0).unwrap();
            });
        }
    });
    let loaded = PipelineSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.author_handles.len(), 18);
    assert!(loaded.validate().is_ok());
}
