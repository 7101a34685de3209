//! Dataset containers: authors, tweets, ground truth, and the encoded
//! (vocabulary-interned) view the pipeline consumes.

use crate::lexicon::Lexicon;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use soulmate_text::{tokenize_with, TokenizerConfig, Vocabulary, WordId};

/// Dense author identifier (index into [`Dataset::authors`]).
pub type AuthorId = u32;
/// Dense tweet identifier (index into [`Dataset::tweets`]).
pub type TweetId = u32;

/// A short-text author (paper Definition 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Author {
    /// Dense id, equal to the author's index.
    pub id: AuthorId,
    /// Display handle ("user0042").
    pub handle: String,
}

/// A short-text message (paper Definition 2): identity, author, timestamp,
/// raw text.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tweet {
    /// Dense id, equal to the tweet's index.
    pub id: TweetId,
    /// Owning author.
    pub author: AuthorId,
    /// Posting time.
    pub timestamp: Timestamp,
    /// The raw message as a user would have typed it (mentions, hashtags,
    /// noise and all).
    pub text: String,
    /// Engagement count (retweets+likes): the popularity signal the
    /// paper's future-work concept nomination weighs by. Synthetic,
    /// heavy-tailed, correlated with community size.
    #[serde(default)]
    pub popularity: u32,
}

/// Generator-side ground truth, used exclusively by the evaluation crate's
/// simulated expert panel — the pipeline under test never reads it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Number of latent concepts.
    pub n_concepts: usize,
    /// Dominant concept of each tweet (parallel to `Dataset::tweets`).
    pub tweet_concept: Vec<usize>,
    /// Per-author concept mixture (rows parallel to `Dataset::authors`,
    /// each row sums to 1).
    pub author_mixture: Vec<Vec<f32>>,
    /// Community id of each author.
    pub author_community: Vec<usize>,
    /// The structured lexicon the corpus was generated from.
    pub lexicon: Lexicon,
}

/// A complete synthetic corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// All authors; `authors[i].id == i`.
    pub authors: Vec<Author>,
    /// All tweets; `tweets[i].id == i`.
    pub tweets: Vec<Tweet>,
    /// Planted structure for evaluation.
    pub ground_truth: GroundTruth,
}

impl Dataset {
    /// Number of authors.
    pub fn n_authors(&self) -> usize {
        self.authors.len()
    }

    /// Number of tweets.
    pub fn n_tweets(&self) -> usize {
        self.tweets.len()
    }

    /// Tweet indices of one author, in dataset order.
    pub fn tweets_of(&self, author: AuthorId) -> Vec<TweetId> {
        self.tweets
            .iter()
            .filter(|t| t.author == author)
            .map(|t| t.id)
            .collect()
    }

    /// Tokenize and intern the whole corpus.
    ///
    /// Runs the real microblog tokenizer over every raw text, builds the
    /// vocabulary, prunes words occurring fewer than `min_count` times, and
    /// re-encodes the tweets. This is the representation every downstream
    /// stage (temporal grids, embeddings, clustering) consumes.
    ///
    /// One tokenizer pass: each token is observed as it is emitted (a word
    /// is copied only on its first sight), and the pruned ids come from
    /// `prune`'s remap table rather than a second lookup per token.
    pub fn encode(&self, tokenizer: &TokenizerConfig, min_count: u64) -> EncodedCorpus {
        let mut vocab = Vocabulary::new();
        let mut docs: Vec<Vec<WordId>> = self
            .tweets
            .iter()
            .map(|t| {
                let mut ids = Vec::new();
                tokenize_with(&t.text, tokenizer, |token| ids.push(vocab.observe(token)));
                ids
            })
            .collect();
        if min_count > 1 {
            let remap = vocab.prune(min_count);
            for ids in &mut docs {
                // Ids index `remap` by construction; u32→usize is widening.
                ids.retain_mut(|id| match remap[*id as usize] {
                    Some(new_id) => {
                        *id = new_id;
                        true
                    }
                    None => false,
                });
            }
        }
        let tweets = self
            .tweets
            .iter()
            .zip(docs)
            .map(|(t, words)| EncodedTweet {
                id: t.id,
                author: t.author,
                timestamp: t.timestamp,
                words,
                popularity: t.popularity,
            })
            .collect();
        EncodedCorpus {
            vocab,
            tweets,
            n_authors: self.authors.len(),
        }
    }
}

/// A tweet after tokenization and vocabulary interning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncodedTweet {
    /// Same id as the source [`Tweet`].
    pub id: TweetId,
    /// Owning author.
    pub author: AuthorId,
    /// Posting time.
    pub timestamp: Timestamp,
    /// In-vocabulary word ids, in text order (OOV words dropped).
    pub words: Vec<WordId>,
    /// Engagement count carried over from the raw tweet.
    #[serde(default)]
    pub popularity: u32,
}

/// The interned corpus view: vocabulary plus encoded tweets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncodedCorpus {
    /// The corpus vocabulary (post-pruning).
    pub vocab: Vocabulary,
    /// Encoded tweets, parallel to the source dataset's tweet list.
    pub tweets: Vec<EncodedTweet>,
    /// Author count carried over from the dataset.
    pub n_authors: usize,
}

impl EncodedCorpus {
    /// Encoded tweets of one author.
    pub fn tweets_of(&self, author: AuthorId) -> Vec<&EncodedTweet> {
        self.tweets.iter().filter(|t| t.author == author).collect()
    }

    /// Word-id documents grouped per author, in author-id order — the
    /// "author contents" `O_u` of Section 4.1.2.
    pub fn author_documents(&self) -> Vec<Vec<WordId>> {
        let mut docs = vec![Vec::new(); self.n_authors];
        for t in &self.tweets {
            // u32 author id → usize is widening; ids are dense 0..n_authors by construction
            docs[t.author as usize].extend_from_slice(&t.words);
        }
        docs
    }

    /// Every encoded tweet as a word-id document (corpus order).
    pub fn documents(&self) -> Vec<&[WordId]> {
        self.tweets.iter().map(|t| t.words.as_slice()).collect()
    }

    /// Total in-vocabulary token count.
    pub fn total_tokens(&self) -> usize {
        self.tweets.iter().map(|t| t.words.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;

    fn tiny_dataset() -> Dataset {
        let lexicon = Lexicon::build(2, 2, 1, 1);
        let authors = vec![
            Author {
                id: 0,
                handle: "user0000".into(),
            },
            Author {
                id: 1,
                handle: "user0001".into(),
            },
        ];
        let tweets = vec![
            Tweet {
                id: 0,
                author: 0,
                timestamp: Timestamp::from_parts(0, 9, 0),
                text: "loving the beach beach today!".into(),
                popularity: 3,
            },
            Tweet {
                id: 1,
                author: 1,
                timestamp: Timestamp::from_parts(1, 20, 0),
                text: "beach run was great".into(),
                popularity: 0,
            },
            Tweet {
                id: 2,
                author: 0,
                timestamp: Timestamp::from_parts(2, 10, 0),
                text: "coffee and beach again".into(),
                popularity: 12,
            },
        ];
        Dataset {
            authors,
            tweets,
            ground_truth: GroundTruth {
                n_concepts: 2,
                tweet_concept: vec![0, 0, 1],
                author_mixture: vec![vec![0.5, 0.5], vec![1.0, 0.0]],
                author_community: vec![0, 1],
                lexicon,
            },
        }
    }

    #[test]
    fn tweets_of_filters_by_author() {
        let d = tiny_dataset();
        assert_eq!(d.tweets_of(0), vec![0, 2]);
        assert_eq!(d.tweets_of(1), vec![1]);
        assert_eq!(d.n_authors(), 2);
        assert_eq!(d.n_tweets(), 3);
    }

    #[test]
    fn encode_builds_vocab_and_word_ids() {
        let d = tiny_dataset();
        let enc = d.encode(&TokenizerConfig::default(), 1);
        assert_eq!(enc.tweets.len(), 3);
        let beach = enc.vocab.id("beach").expect("beach in vocab");
        // Tweet 0 contains "beach" twice.
        assert_eq!(
            enc.tweets[0].words.iter().filter(|&&w| w == beach).count(),
            2
        );
        // Stopwords are gone.
        assert!(enc.vocab.id("the").is_none());
    }

    #[test]
    fn encode_min_count_prunes_rare_words() {
        let d = tiny_dataset();
        let enc = d.encode(&TokenizerConfig::default(), 3);
        // "beach" appears 4 times, survives; "coffee" once, pruned.
        assert!(enc.vocab.id("beach").is_some());
        assert!(enc.vocab.id("coffee").is_none());
        // Encoded tweets only contain surviving ids.
        for t in &enc.tweets {
            for &w in &t.words {
                assert!(enc.vocab.word(w).is_some());
            }
        }
    }

    #[test]
    fn author_documents_concatenate_tweets() {
        let d = tiny_dataset();
        let enc = d.encode(&TokenizerConfig::default(), 1);
        let docs = enc.author_documents();
        assert_eq!(docs.len(), 2);
        let len0: usize = enc.tweets_of(0).iter().map(|t| t.words.len()).sum();
        assert_eq!(docs[0].len(), len0);
    }

    #[test]
    fn total_tokens_counts_all() {
        let d = tiny_dataset();
        let enc = d.encode(&TokenizerConfig::default(), 1);
        assert_eq!(
            enc.total_tokens(),
            enc.tweets.iter().map(|t| t.words.len()).sum::<usize>()
        );
        assert!(enc.total_tokens() > 0);
    }
}
