//! End-to-end observability coverage: one `Pipeline::fit` plus one
//! [`QueryEngine`] query must leave the expected stage timings and
//! serving-path metrics in the process-global registry.
//!
//! The registry is shared across every test in the process, so all
//! assertions are presence / monotone-growth checks, never exact totals.

use soulmate_core::engine::CachedCut;
use soulmate_core::{EngineMode, Pipeline, PipelineConfig};
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};

#[test]
fn fit_and_query_populate_expected_metric_names() {
    let obs = soulmate_obs::global();
    let queries_before = obs.counter("engine.queries");

    let dataset = generate(&GeneratorConfig {
        n_authors: 14,
        n_communities: 3,
        n_concepts: 4,
        entities_per_concept: 8,
        mean_tweets_per_author: 20,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let pipeline = Pipeline::fit(&dataset, PipelineConfig::fast()).unwrap();

    // Every fit stage span recorded its histogram.
    let expected_stages = [
        "stage.fit.seconds",
        "stage.fit.encode.seconds",
        "stage.fit.analogy_suite.seconds",
        "stage.fit.tcbow.seconds",
        "stage.fit.collective.seconds",
        "stage.fit.tweet_vectors.seconds",
        "stage.fit.concepts.seconds",
        "stage.fit.author_vectors.seconds",
        "stage.fit.similarity.seconds",
        "stage.fit.fusion.seconds",
    ];
    for name in expected_stages {
        let h = obs
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing after fit"));
        assert!(h.count >= 1, "{name} recorded no samples");
        assert!(h.sum >= 0.0 && h.sum.is_finite());
    }

    // Worker-thread and kernel metrics from the fit.
    assert!(obs.counter("fit.runs") >= 1);
    assert!(obs.counter("tcbow.slabs_trained") >= 1);
    assert!(obs.histogram("tcbow.slab_train.seconds").is_some());
    assert!(obs.histogram("similarity.matrix.seconds").is_some());
    assert!(obs.counter("kernels.gram.calls") + obs.counter("kernels.gram_par.calls") >= 1);

    // One engine query populates the serving-path metrics.
    let engine = pipeline.query_engine(EngineMode::Exact).unwrap();
    let tweets: Vec<(Timestamp, String)> = dataset
        .tweets
        .iter()
        .filter(|t| t.author == 1)
        .take(5)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect();
    engine.link_query_authors(&[tweets]).unwrap();

    assert!(obs.histogram("engine.build.seconds").is_some());
    let latency = obs
        .histogram("engine.query.seconds")
        .expect("per-query latency histogram");
    assert!(latency.count >= 1);
    assert!(obs.counter("engine.queries") > queries_before);
    // The fitted model has no lifelines (`graph_top_k == 0`), so its
    // cut counts the edges it examines and never a displacement.
    let examined = obs.counter("engine.edges_examined");
    assert!(examined >= 1);

    // A cut with lifelines takes the merge path, which counts both.
    // Displacements may legitimately be zero; the counter just has to
    // exist in the export.
    let x = vec![vec![1.0, 0.5], vec![0.5, 1.0]];
    let cut = CachedCut::new(&x, 0.75, 1).unwrap();
    cut.cut_with_query_component(&[0.9, 0.1]).unwrap();
    assert!(obs.counter("engine.edges_examined") > examined);
    assert!(obs.names().iter().any(|n| n == "engine.topk_displaced"));
}
