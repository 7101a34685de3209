//! Benches: individual offline-phase stages on a fixed fitted
//! pipeline — tweet-vector composition, author aggregation, similarity
//! matrices, temporal grids, and the online query path.

use soulmate_bench::timing::Group;
use soulmate_bench::{fit_default_pipeline, ExpArgs};
use soulmate_core::{
    author_content_vectors, link_query, similarity_matrix, similarity_matrix_parallel,
    tweet_vectors, AuthorCombiner, Combiner,
};
use soulmate_temporal::{similarity_grid, Facet};

fn pipeline_stages() {
    let args = ExpArgs {
        authors: 40,
        tweets_per_author: 40,
        concepts: 8,
        dim: 32,
        epochs: 2,
        ..Default::default()
    };
    let (dataset, pipeline) = fit_default_pipeline(&args);
    let docs = pipeline.corpus.documents();

    let mut group = Group::new("pipeline_stages");
    group.sample_size(10);

    group.bench("tweet_vectors_avg", || {
        tweet_vectors(&docs, &pipeline.collective, Combiner::Avg)
    });

    group.bench("author_content_kfold", || {
        author_content_vectors(
            &pipeline.tweet_vectors,
            &pipeline.tweet_author,
            pipeline.n_authors(),
            AuthorCombiner::KFold { bins: 10 },
        )
    });

    group.bench("author_similarity_matrix", || {
        similarity_matrix(&pipeline.author_content)
    });

    group.bench("author_similarity_matrix_4_threads", || {
        similarity_matrix_parallel(&pipeline.author_content, 4)
    });

    group.bench("temporal_day_grid", || {
        similarity_grid(&pipeline.corpus, Facet::DayOfWeek, |_| true)
    });

    group.bench("collective_embedding", || {
        pipeline.temporal.collective_embedding()
    });

    let query_tweets: Vec<(soulmate_corpus::Timestamp, String)> = dataset
        .tweets
        .iter()
        .filter(|t| t.author == 0)
        .take(10)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect();
    group.bench("online_link_query_author", || {
        link_query(&pipeline.query_model(), &pipeline.x_total, &query_tweets).unwrap()
    });
}

fn main() {
    pipeline_stages();
}
