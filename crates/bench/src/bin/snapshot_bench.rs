//! Snapshot-format benchmark: fits a pipeline at the requested grid
//! size, saves the snapshot as v3 binary (f32) and v3 binary
//! (i8-quantized author matrices) — the two encodings the writer
//! produces — and measures:
//!
//!   * file size per encoding;
//!   * cold-load wall time per encoding over several repetitions, and
//!     its split over the loader's stages (read, checksum, decode,
//!     assemble), from the `snapshot.load_binary.*.seconds` histograms;
//!   * per-query serving latency, exact f32 path vs i8 fast path;
//!   * quantized recall@10 against the exact ranking, via the eval
//!     harness (`soulmate_eval::quant_recall_at_k`) at the engine's
//!     default re-rank depth.
//!
//! Produces BENCH_snapshot.json. The acceptance target this file is
//! checked in to demonstrate: quantized recall@10 ≥ 0.99.
//!
//! Usage:
//!   cargo run --release -p soulmate-bench --bin snapshot_bench -- \
//!     [--authors N] [--queries N] [--reps N] [--out BENCH_snapshot.json]

use soulmate_bench::{default_dataset, default_pipeline_config, report, timing, ExpArgs};
use soulmate_core::{EngineMode, Pipeline, PipelineSnapshot};
use soulmate_corpus::Timestamp;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Format {
    name: &'static str,
    bytes: u64,
    load_best_s: f64,
    load_mean_s: f64,
    /// Mean seconds per load of each [`STAGES`] entry.
    stage_mean_s: Vec<f64>,
}

/// The binary loader's stages, each timed under
/// `snapshot.load_binary.<stage>.seconds`.
const STAGES: [&str; 4] = ["read", "checksum", "decode", "assemble"];

fn main() {
    let mut authors = 4096usize;
    let mut n_queries = 32usize;
    let mut reps = 5usize;
    let mut out_path = "BENCH_snapshot.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { break };
        match flag.as_str() {
            "--authors" => authors = value.parse().unwrap_or(authors),
            "--queries" => n_queries = value.parse().unwrap_or(n_queries),
            "--reps" => reps = value.parse().unwrap_or(reps),
            "--out" => out_path = value,
            _ => {}
        }
    }
    let reps = reps.max(1);

    let exp = ExpArgs {
        authors,
        ..ExpArgs::default()
    };
    eprintln!("fitting pipeline at n = {authors} (this is the slow part)...");
    let started = Instant::now();
    let dataset = default_dataset(&exp);
    let pipeline = Pipeline::fit(&dataset, default_pipeline_config(&exp)).expect("pipeline fits");
    let handles: Vec<String> = dataset.authors.iter().map(|a| a.handle.clone()).collect();
    let snapshot = pipeline.snapshot(&handles);
    eprintln!("fitted in {:.1}s", started.elapsed().as_secs_f64());

    // One snapshot, both encodings.
    let bin_path = tmp("bench.bin");
    let qbin_path = tmp("bench-q.bin");
    let t = Instant::now();
    snapshot.save_binary(&bin_path, false).expect("save binary");
    snapshot
        .save_binary(&qbin_path, true)
        .expect("save quantized binary");
    eprintln!("saved both binaries in {:.1}s", t.elapsed().as_secs_f64());

    let mut formats = Vec::new();
    for (name, path) in [("binary_f32", &bin_path), ("binary_qi8", &qbin_path)] {
        let bytes = std::fs::metadata(path).expect("snapshot written").len();
        let obs = soulmate_obs::global();
        obs.clear();
        let (load_best_s, load_mean_s) =
            timing::best_and_mean(&format!("{name} load"), reps, || {
                PipelineSnapshot::load(path).expect("snapshot loads")
            });
        // Means over every load since the clear, the warm-up included.
        let stage_mean_s: Vec<f64> = STAGES
            .iter()
            .map(|stage| {
                obs.histogram(&format!("snapshot.load_binary.{stage}.seconds"))
                    .map_or(0.0, |h| h.mean)
            })
            .collect();
        let split: Vec<String> = STAGES
            .iter()
            .zip(&stage_mean_s)
            .map(|(stage, s)| format!("{stage} {:.3}ms", s * 1e3))
            .collect();
        eprintln!(
            "{name:>10}: {bytes:>12} bytes, load best {:.4}s mean {:.4}s over {reps} reps; stages: {}",
            load_best_s,
            load_mean_s,
            split.join(", ")
        );
        formats.push(Format {
            name,
            bytes,
            load_best_s,
            load_mean_s,
            stage_mean_s,
        });
    }
    // The same 5-tweet in-vocabulary query shape BENCH_online and
    // BENCH_serve use, rotated over the first `n_queries` authors.
    let query_tweets: Vec<Vec<(Timestamp, String)>> = (0..n_queries)
        .map(|a| {
            dataset
                .tweets
                .iter()
                // Widening u32 -> usize: author ids fit usize on all
                // supported targets.
                .filter(|t| t.author as usize == a)
                .take(5)
                .map(|t| (t.timestamp, t.text.clone()))
                .collect()
        })
        .collect();

    // Per-query latency: exact f32 path vs the i8 fast path at the
    // engine's default re-rank depth, both over the same rotation.
    let exact = snapshot
        .query_engine(EngineMode::Exact)
        .expect("exact engine builds");
    let quant = snapshot
        .query_engine(EngineMode::Quant { rerank: 0 })
        .expect("quantized engine builds");
    let rounds = 256usize;
    let exact_us = time_queries(rounds, &query_tweets, |q| {
        exact.link_query_authors(q).expect("exact query succeeds");
    });
    let quant_us = time_queries(rounds, &query_tweets, |q| {
        quant.link_query_authors(q).expect("quant query succeeds");
    });
    let query_speedup = exact_us / quant_us.max(1e-9);
    eprintln!(
        "query latency: exact {exact_us:.0}us, i8 fast path {quant_us:.0}us ({query_speedup:.2}x)"
    );

    // Ranking fidelity of the i8 path, measured end to end by the eval
    // harness at the default re-rank depth (rerank = 0).
    let recall = soulmate_eval::quant_recall_at_k(&quant, &query_tweets, 10, 0)
        .expect("recall measurement succeeds");
    eprintln!(
        "quantized recall@10 = {:.4} over {} queries (mean {:.0} exactly re-ranked candidates)",
        recall.recall_at_k, recall.n_queries, recall.mean_candidates
    );

    // The quantized container must also round-trip into a serving
    // engine; recall through the dequantized snapshot is reported so
    // the stored-format fidelity is pinned alongside the in-memory one.
    let dequantized = PipelineSnapshot::load(&qbin_path).expect("quantized snapshot loads");
    let deq_engine = dequantized
        .query_engine(EngineMode::Exact)
        .expect("dequantized engine");
    let stored_recall = mean_topk_overlap(&exact, &deq_engine, &query_tweets, 10);
    eprintln!("stored qi8 snapshot recall@10 vs f32 = {stored_recall:.4}");
    // Schema 3 quantizes only the author matrices: the stored cut is the
    // fitted one, so the recall above is all of the container's error.
    let stored_cut_exact = dequantized.cut.base_edges() == snapshot.cut.base_edges();
    eprintln!("stored qi8 snapshot cut equals the fitted cut: {stored_cut_exact}");

    for p in [&bin_path, &qbin_path] {
        std::fs::remove_file(p).ok();
    }

    let json = render_json(
        authors,
        n_queries,
        reps,
        &formats,
        exact_us,
        quant_us,
        query_speedup,
        recall.recall_at_k,
        recall.mean_candidates,
        stored_recall,
        stored_cut_exact,
    );
    report::write_report_atomic(Path::new(&out_path), &json).expect("write BENCH_snapshot.json");
    eprintln!("wrote {out_path}");
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "soulmate-snapshot-bench-{}-{name}",
        std::process::id()
    ));
    p
}

/// Mean microseconds per one-query call over `rounds` rotations of `queries`,
/// after one warm-up pass over every query.
fn time_queries(
    rounds: usize,
    queries: &[Vec<(Timestamp, String)>],
    mut call: impl FnMut(&[Vec<(Timestamp, String)>]),
) -> f64 {
    for q in queries {
        call(std::slice::from_ref(q));
    }
    let t = Instant::now();
    for i in 0..rounds {
        call(std::slice::from_ref(&queries[i % queries.len()]));
    }
    t.elapsed().as_secs_f64() / rounds as f64 * 1e6
}

/// Mean top-`k` overlap between two engines' rankings over `queries` —
/// the recall of the *stored* quantized snapshot, where the i8 error is
/// baked into the matrices instead of corrected by a re-rank stage.
fn mean_topk_overlap(
    want: &soulmate_core::QueryEngine<'_>,
    got: &soulmate_core::QueryEngine<'_>,
    queries: &[Vec<(Timestamp, String)>],
    k: usize,
) -> f64 {
    let top_k = |sims: &[f32]| -> Vec<usize> {
        let mut ids: Vec<usize> = (0..sims.len()).collect();
        ids.sort_by(|&a, &b| sims[b].total_cmp(&sims[a]).then(a.cmp(&b)));
        ids.truncate(k);
        ids
    };
    let (mut hits, mut total) = (0usize, 0usize);
    let want = want.link_query_authors(queries).expect("exact queries");
    let got = got
        .link_query_authors(queries)
        .expect("dequantized queries");
    for (w, g) in want.iter().zip(&got) {
        let w = top_k(&w.similarities);
        let g = top_k(&g.similarities);
        hits += w.iter().filter(|a| g.contains(a)).count();
        total += k;
    }
    hits as f64 / total as f64
}

// A flat report-rendering function: every argument is one JSON field,
// and bundling them into a struct would only move the list elsewhere.
#[allow(clippy::too_many_arguments)]
fn render_json(
    authors: usize,
    n_queries: usize,
    reps: usize,
    formats: &[Format],
    exact_us: f64,
    quant_us: f64,
    query_speedup: f64,
    recall_at_10: f64,
    mean_candidates: f64,
    stored_recall_at_10: f64,
    stored_cut_exact: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"description\": \"Snapshot encodings: one fitted pipeline saved as v3 binary (logical schema 3: the cached cut's backbone beside an always-empty topk section, no dense x_total) with f32 sections and with i8-quantized author matrices. Load times are best/mean of page-cache-warm PipelineSnapshot::load repetitions (parse + validate cost); stage_mean_s splits the mean load over the binary loader's stages (snapshot.load_binary.{read,checksum,decode,assemble}.seconds, the untimed warm-up load included). Query latency compares the exact f32 engine path with the i8 fast path at the default re-rank depth over the same rotating 5-tweet queries. recall_at_10 is soulmate_eval::quant_recall_at_k (i8 candidates, exact re-rank); stored_recall_at_10 ranks through the dequantized saved container with no re-rank stage. The cut is never quantized (stored_cut_exact), so stored_recall_at_10 covers all of a qi8 file's error; schema-2 qi8 files also quantized x_total, which moved their cut but not this ranking.\",\n",
    );
    out.push_str(
        "  \"command\": \"cargo run --release -p soulmate-bench --bin snapshot_bench\",\n",
    );
    out.push_str(&format!("  \"authors\": {authors},\n"));
    out.push_str(&format!("  \"queries\": {n_queries},\n"));
    out.push_str(&format!("  \"load_reps\": {reps},\n"));
    out.push_str("  \"formats\": [\n");
    for (i, f) in formats.iter().enumerate() {
        let stages: Vec<String> = STAGES
            .iter()
            .zip(&f.stage_mean_s)
            .map(|(stage, s)| format!("\"{stage}\": {s:.6}"))
            .collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"bytes\": {}, \"load_best_s\": {:.5}, \"load_mean_s\": {:.5}, \"stage_mean_s\": {{{}}}}}{}\n",
            f.name,
            f.bytes,
            f.load_best_s,
            f.load_mean_s,
            stages.join(", "),
            if i + 1 < formats.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"query_exact_mean_us\": {exact_us:.1},\n"));
    out.push_str(&format!("  \"query_quant_mean_us\": {quant_us:.1},\n"));
    out.push_str(&format!(
        "  \"query_speedup_exact_over_quant\": {query_speedup:.2},\n"
    ));
    out.push_str(&format!("  \"recall_at_10\": {recall_at_10:.4},\n"));
    out.push_str(&format!(
        "  \"recall_mean_reranked_candidates\": {mean_candidates:.1},\n"
    ));
    out.push_str(&format!(
        "  \"stored_recall_at_10\": {stored_recall_at_10:.4},\n"
    ));
    out.push_str(&format!("  \"stored_cut_exact\": {stored_cut_exact},\n"));
    out.push_str("  \"targets\": {\"recall_at_10\": 0.99}\n");
    out.push_str("}\n");
    out
}
