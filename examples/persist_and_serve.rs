//! Train-once / serve-many: fit the offline phase, persist the model as a
//! snapshot, and answer online queries from the reloaded file — the
//! deployment shape the paper's offline/online split implies.
//!
//! ```text
//! cargo run --release -p soulmate --example persist_and_serve
//! ```

use soulmate::core::PipelineSnapshot;
use soulmate::prelude::*;

fn main() {
    let dataset = generate(&GeneratorConfig {
        n_authors: 40,
        n_communities: 4,
        mean_tweets_per_author: 40,
        ..GeneratorConfig::small()
    })
    .expect("valid generator config");

    // Offline phase: fit and snapshot.
    let pipeline = Pipeline::fit(&dataset, PipelineConfig::fast()).expect("pipeline fits");
    let handles: Vec<String> = dataset.authors.iter().map(|a| a.handle.clone()).collect();
    let snapshot = pipeline.snapshot(&handles);

    let mut path = std::env::temp_dir();
    path.push(format!("soulmate-demo-model-{}.bin", std::process::id()));
    snapshot.save_binary(&path, false).expect("snapshot saves");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "Persisted model to {} ({:.1} KiB: vocab {}, {} concepts, {} authors).",
        path.display(),
        bytes as f64 / 1024.0,
        snapshot.vocab.len(),
        snapshot.centroids.len(),
        snapshot.n_authors()
    );

    // A fresh process would start here: load and serve.
    let served = PipelineSnapshot::load(&path).expect("snapshot loads");
    let query: Vec<(Timestamp, String)> = dataset
        .tweets
        .iter()
        .filter(|t| t.author == 7)
        .take(6)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect();

    let engine = served
        .query_engine(EngineMode::Exact)
        .expect("engine builds");
    let queries = [query];
    let started = std::time::Instant::now();
    let outcome = engine
        .link_query_authors(&queries)
        .expect("query links")
        .remove(0);
    println!(
        "Served a cold-start query in {:.1} ms (no retraining).",
        started.elapsed().as_secs_f64() * 1000.0
    );
    let mates: Vec<&str> = outcome
        .subgraph
        .iter()
        .filter(|&&a| a != outcome.query_index)
        .filter_map(|&a| served.author_handles.get(a))
        .collect();
    println!(
        "Query author linked with {} authors: {}",
        mates.len(),
        mates.join(", ")
    );

    // The snapshot answers identically to the in-memory pipeline.
    let direct = pipeline
        .query_engine(EngineMode::Exact)
        .expect("engine builds")
        .link_query_authors(&queries)
        .expect("direct query")
        .remove(0);
    assert_eq!(direct.subgraph, outcome.subgraph);
    println!("Snapshot-served answer matches the in-memory pipeline exactly.");

    std::fs::remove_file(&path).ok();
}
