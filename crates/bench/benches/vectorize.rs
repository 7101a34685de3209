//! Bench for query vectorization (paper §4.2.1), the step every `/link`,
//! every `/ingest` and every ingest delta runs before scoring:
//!
//! * `tokenize_ids_*` — tokenize a query author's tweets straight into
//!   vocabulary ids, for a 5-tweet `/link` query and a 20-tweet
//!   `/ingest` author (the benchmark workloads' body sizes);
//! * `vectorize_*` — the whole [`QueryModel::vectorize`] for the same
//!   authors: tokenize→ids, tweet vectors, content and concept vectors;
//! * `encode_n*` — `Dataset::encode` (tokenize, intern, prune at
//!   `min_count` 3) over the fit corpus of n = 1024 and 2048 authors.
//!
//! Corpora are shaped like the benchmark's: the `crates/bench`
//! experiment defaults (12 concepts, 60 tweets per author) over the
//! fitted authors plus 512 held out, the query authors drawn from the
//! held-out ones. Each query bench cycles through 64 authors, so a line
//! is the mean time of one author's call. Recorded numbers live in
//! `BENCH_vectorize.json`.

use soulmate_bench::timing::Group;
use soulmate_bench::{default_dataset, default_pipeline_config, ExpArgs};
use soulmate_core::Pipeline;
use soulmate_corpus::{Dataset, Timestamp};
use soulmate_text::{tokenize_with, TokenizerConfig, Vocabulary, WordId};
use std::hint::black_box;

/// Authors the served model is fitted on (the `link-512` workload).
const N_MODEL: usize = 512;
/// Held-out authors after the fitted ones, as in the benchmark corpus.
const HELD_OUT: usize = 512;
/// Query authors each query bench cycles through.
const QUERIES: usize = 64;

/// A corpus of `n` fitted authors plus the held-out ones.
fn corpus(n: usize) -> Dataset {
    default_dataset(&ExpArgs {
        authors: n + HELD_OUT,
        seed: 1,
        ..ExpArgs::default()
    })
}

/// The first `n` authors of `d` and their tweets (the generator emits
/// tweets author by author, so they are a prefix).
fn fit_subset(d: &Dataset, n: usize) -> Dataset {
    let tweets = d.tweets.partition_point(|t| (t.author as usize) < n);
    let mut sub = d.clone();
    sub.authors.truncate(n);
    sub.tweets.truncate(tweets);
    sub.ground_truth.tweet_concept.truncate(tweets);
    sub.ground_truth.author_mixture.truncate(n);
    sub.ground_truth.author_community.truncate(n);
    sub
}

/// The first `limit` tweets of each of `QUERIES` held-out authors.
fn query_authors(d: &Dataset, n: usize, limit: usize) -> Vec<Vec<(Timestamp, String)>> {
    (n..n + QUERIES)
        .map(|a| {
            d.tweets
                .iter()
                .filter(|t| t.author as usize == a)
                .take(limit)
                .map(|t| (t.timestamp, t.text.clone()))
                .collect()
        })
        .collect()
}

/// Tokenize→ids for one author's tweets, out-of-vocabulary tokens
/// dropped: what vectorization does before it touches a vector.
fn tokenize_ids(
    vocab: &Vocabulary,
    config: &TokenizerConfig,
    tweets: &[(Timestamp, String)],
) -> Vec<Vec<WordId>> {
    tweets
        .iter()
        .map(|(_, text)| {
            let mut ids = Vec::new();
            tokenize_with(text, config, |token| ids.extend(vocab.id(token)));
            ids
        })
        .collect()
}

fn bench_queries(group: &mut Group) {
    let data = corpus(N_MODEL);
    let pipeline = Pipeline::fit(
        &fit_subset(&data, N_MODEL),
        default_pipeline_config(&ExpArgs {
            authors: N_MODEL,
            seed: 1,
            ..ExpArgs::default()
        }),
    )
    .expect("the bench corpus fits");
    let model = pipeline.query_model();
    for (label, limit) in [("query5", 5), ("ingest20", 20)] {
        let authors = query_authors(&data, N_MODEL, limit);
        let mut next = 0usize;
        group.bench(format!("tokenize_ids_{label}"), || {
            next = (next + 1) % QUERIES;
            tokenize_ids(model.vocab, model.tokenizer, black_box(&authors[next]))
        });
        group.bench(format!("vectorize_{label}"), || {
            next = (next + 1) % QUERIES;
            model
                .vectorize(black_box(&authors[next]))
                .expect("in-vocabulary author")
        });
    }
}

fn bench_encode(group: &mut Group) {
    group.sample_size(10);
    let config = TokenizerConfig::default();
    for n in [1024, 2048] {
        let fit = fit_subset(&corpus(n), n);
        println!("vectorize/encode_n{n} tweets={}", fit.tweets.len());
        group.bench(format!("encode_n{n}"), || {
            black_box(&fit).encode(&config, 3)
        });
    }
}

fn main() {
    let mut group = Group::new("vectorize");
    bench_queries(&mut group);
    bench_encode(&mut group);
}
