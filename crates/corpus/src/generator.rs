//! The synthetic corpus generator.
//!
//! Generation is concept-driven: every tweet first draws a latent concept
//! from its author's mixture, the concept's temporal profile then shapes
//! the timestamp (season → day-of-week → hour), and the concept's
//! vocabulary shapes the tokens. This plants exactly the regularities the
//! paper's pipeline is designed to detect:
//!
//! * authors of the same community share concepts → their tweets are
//!   conceptually (not necessarily textually) similar — Challenge 3. Each
//!   concept's entity vocabulary is split into two disjoint *registers*
//!   (synonym sets), and each author expresses a concept through one
//!   register: two authors can be about the same things with (almost) no
//!   shared words — the paper's Table 1 phenomenon;
//! * word proximity varies with hour/season — Challenge 2 / Fig. 1;
//! * noise variants replace clean words at a configurable rate —
//!   Challenge 1.

use crate::dataset::{Author, Dataset, GroundTruth, Tweet};
use crate::error::CorpusError;
use crate::lexicon::Lexicon;
use crate::time::Timestamp;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// All generator knobs. `Default` gives the laptop-scale configuration
/// documented in DESIGN.md §8.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds give byte-identical datasets.
    pub seed: u64,
    /// Number of authors (paper: ≈4000; default scaled to 400).
    pub n_authors: usize,
    /// Number of author communities.
    pub n_communities: usize,
    /// Number of latent concepts.
    pub n_concepts: usize,
    /// Entity stems per concept (controls vocabulary size).
    pub entities_per_concept: usize,
    /// Mode-marker words per mode.
    pub n_markers: usize,
    /// Shared filler words.
    pub n_fillers: usize,
    /// Mean tweets per author; actual counts are uniform in
    /// `[mean/2, 3*mean/2]`.
    pub mean_tweets_per_author: usize,
    /// Content words per tweet, uniform in this inclusive range.
    pub tweet_len: (usize, usize),
    /// Per-word probability of replacement by a noise variant
    /// (abbreviation or misspelling).
    pub noise_rate: f64,
    /// Probability that a tweet mixes in words from a second concept.
    pub ambiguity_rate: f64,
    /// Homograph words shared by concept pairs with different temporal
    /// profiles (Challenge 2's polysemy; 0 disables).
    pub n_homographs: usize,
    /// Probability a tweet contains its concept's head (anchor) word.
    /// Lower values leave more same-concept tweet pairs with zero lexical
    /// overlap (the Table 1 phenomenon); higher values strengthen the
    /// concept signal embeddings can learn from.
    pub head_rate: f64,
    /// Mode markers per tweet, inclusive range (the contextual signal
    /// behind the base:variant analogy relation).
    pub markers_per_tweet: (usize, usize),
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 42,
            n_authors: 400,
            n_communities: 8,
            n_concepts: 12,
            entities_per_concept: 40,
            n_markers: 12,
            n_fillers: 30,
            mean_tweets_per_author: 200,
            tweet_len: (4, 11),
            noise_rate: 0.06,
            ambiguity_rate: 0.15,
            n_homographs: 12,
            head_rate: 0.85,
            markers_per_tweet: (1, 3),
        }
    }
}

impl GeneratorConfig {
    /// A small configuration for unit tests and doc examples (~40 authors,
    /// a few thousand tweets).
    pub fn small() -> Self {
        GeneratorConfig {
            n_authors: 40,
            n_communities: 4,
            n_concepts: 6,
            entities_per_concept: 15,
            n_markers: 6,
            n_fillers: 10,
            mean_tweets_per_author: 60,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), CorpusError> {
        if self.n_authors == 0 {
            return Err(CorpusError::InvalidConfig("n_authors must be > 0".into()));
        }
        if self.n_communities == 0 || self.n_communities > self.n_authors {
            return Err(CorpusError::InvalidConfig(
                "n_communities must be in 1..=n_authors".into(),
            ));
        }
        if self.n_concepts < 2 {
            return Err(CorpusError::InvalidConfig(
                "need at least 2 concepts".into(),
            ));
        }
        if self.entities_per_concept == 0 || self.n_markers == 0 {
            return Err(CorpusError::InvalidConfig(
                "entities_per_concept and n_markers must be > 0".into(),
            ));
        }
        if self.tweet_len.0 == 0 || self.tweet_len.0 > self.tweet_len.1 {
            return Err(CorpusError::InvalidConfig("bad tweet_len range".into()));
        }
        if !(0.0..=1.0).contains(&self.noise_rate)
            || !(0.0..=1.0).contains(&self.ambiguity_rate)
            || !(0.0..=1.0).contains(&self.head_rate)
        {
            return Err(CorpusError::InvalidConfig(
                "rates must lie in [0, 1]".into(),
            ));
        }
        if self.markers_per_tweet.0 > self.markers_per_tweet.1 {
            return Err(CorpusError::InvalidConfig(
                "bad markers_per_tweet range".into(),
            ));
        }
        Ok(())
    }
}

/// A concept's temporal behaviour. Derived deterministically from the
/// concept index so the planted structure is reproducible and documented.
#[derive(Debug, Clone)]
struct ConceptProfile {
    /// Relative mass on weekdays vs weekend days.
    weekday_weight: f32,
    weekend_weight: f32,
    /// Peak posting hour on weekdays; weekends shift 2h later.
    peak_hour: f32,
    /// Gaussian width of the hour window.
    hour_sigma: f32,
    /// Per-season weights (len 4).
    season_weights: [f32; 4],
}

impl ConceptProfile {
    /// Deterministic profile for concept `c` of `n` concepts.
    ///
    /// * day behaviour cycles weekday-heavy / weekend-heavy / uniform —
    ///   this is what makes Mon–Fri pool together and Sat/Sun pool
    ///   together in the day-slab experiment (Table 3);
    /// * hour peaks cycle morning / midday / evening / night (Fig. 4);
    /// * the first half of the concepts are seasonal, the rest uniform
    ///   (Fig. 1b's summer/winter contrast).
    fn for_concept(c: usize, n: usize) -> ConceptProfile {
        let (weekday_weight, weekend_weight) = match c % 3 {
            0 => (1.0, 0.15),
            1 => (0.2, 1.0),
            _ => (0.6, 0.6),
        };
        let peak_hour = match c % 4 {
            0 => 8.0,  // morning commute
            1 => 13.0, // midday
            2 => 19.0, // evening
            _ => 23.0, // night owls
        };
        let season_weights = if c < n / 2 {
            let mut w = [0.15f32; 4];
            w[c % 4] = 1.0;
            w
        } else {
            [0.5; 4]
        };
        ConceptProfile {
            weekday_weight,
            weekend_weight,
            peak_hour,
            hour_sigma: 2.5,
            season_weights,
        }
    }

    /// Unnormalized weight of posting at `hour` given weekend status; the
    /// weekend peak drifts two hours later (people sleep in).
    fn hour_weight(&self, hour: f32, weekend: bool) -> f32 {
        let peak = if weekend {
            (self.peak_hour + 2.0) % 24.0
        } else {
            self.peak_hour
        };
        // Circular distance on the 24h clock.
        let d = (hour - peak).abs();
        let d = d.min(24.0 - d);
        (-0.5 * (d / self.hour_sigma).powi(2)).exp() + 0.03
    }
}

/// Weighted index sampling.
fn sample_weighted<R: Rng>(weights: &[f32], rng: &mut R) -> usize {
    let total: f32 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Generate a full synthetic dataset.
///
/// # Errors
/// [`CorpusError::InvalidConfig`] when the configuration is inconsistent.
pub fn generate(config: &GeneratorConfig) -> Result<Dataset, CorpusError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let lexicon = Lexicon::build_with_homographs(
        config.n_concepts,
        config.entities_per_concept,
        config.n_markers,
        config.n_fillers,
        config.n_homographs,
    );
    let profiles: Vec<ConceptProfile> = (0..config.n_concepts)
        .map(|c| ConceptProfile::for_concept(c, config.n_concepts))
        .collect();

    // ---- Communities: each mixes 2-3 concepts. Main concepts are spread
    // evenly over the concept range so no two communities collide even
    // when n_communities approaches n_concepts. ----
    let community_mixtures: Vec<Vec<f32>> = (0..config.n_communities)
        .map(|k| {
            let mut mix = vec![0.0f32; config.n_concepts];
            let main = (k * config.n_concepts) / config.n_communities;
            let second = (main + 1) % config.n_concepts;
            let third = (main + 3) % config.n_concepts;
            mix[main] += 0.55;
            mix[second] += 0.30;
            mix[third] += 0.15;
            mix
        })
        .collect();

    // ---- Authors. ----
    let mut authors = Vec::with_capacity(config.n_authors);
    let mut author_mixture = Vec::with_capacity(config.n_authors);
    let mut author_community = Vec::with_capacity(config.n_authors);
    for a in 0..config.n_authors {
        let community = a % config.n_communities;
        let mut mix = community_mixtures[community].clone();
        // Personal taste: jitter each weight ±30% and renormalize.
        for w in &mut mix {
            if *w > 0.0 {
                *w *= 1.0 + rng.gen_range(-0.3f32..0.3);
            }
        }
        let total: f32 = mix.iter().sum();
        for w in &mut mix {
            *w /= total;
        }
        authors.push(Author {
            // author index < n_authors ≪ u32::MAX
            id: a as u32,
            handle: format!("user{a:04}"),
        });
        author_mixture.push(mix);
        author_community.push(community);
    }

    // ---- Tweets. ----
    let mut tweets = Vec::new();
    let mut tweet_concept = Vec::new();
    for a in 0..config.n_authors {
        let mean = config.mean_tweets_per_author;
        let count = rng.gen_range((mean / 2).max(1)..=mean + mean / 2);
        for _ in 0..count {
            let concept = sample_weighted(&author_mixture[a], &mut rng);
            let profile = &profiles[concept];
            let timestamp = sample_timestamp(profile, &mut rng);
            let text = compose_tweet(
                &lexicon,
                a,
                concept,
                &author_mixture[a],
                timestamp,
                config,
                &mut rng,
            );
            // Heavy-tailed engagement: most tweets get nothing, a few go
            // minor-viral; head-word tweets of seasonal concepts trend a
            // little harder (popular topics attract engagement).
            let viral_boost = if concept < config.n_concepts / 2 {
                2.0
            } else {
                1.0
            };
            let u: f64 = rng.gen_range(0.0..1.0);
            // the 1e-4 floor caps the heavy tail at ~1e4·viral_boost ≪ u32::MAX
            let popularity = ((1.0 / (1.0 - u).max(1e-4) - 1.0) * viral_boost) as u32;
            tweets.push(Tweet {
                // generated tweet counts are far below u32::MAX
                id: tweets.len() as u32,
                author: a as u32, // a < n_authors ≪ u32::MAX
                timestamp,
                text,
                popularity,
            });
            tweet_concept.push(concept);
        }
    }

    Ok(Dataset {
        authors,
        tweets,
        ground_truth: GroundTruth {
            n_concepts: config.n_concepts,
            tweet_concept,
            author_mixture,
            author_community,
            lexicon,
        },
    })
}

/// Sample a timestamp from a concept's temporal profile:
/// season → week → day-of-week → hour → minute.
fn sample_timestamp<R: Rng>(profile: &ConceptProfile, rng: &mut R) -> Timestamp {
    let season = sample_weighted(&profile.season_weights, rng);
    // season index ∈ 0..4
    let week = season as u32 * 13 + rng.gen_range(0..13);
    // Day of week: 5 weekdays share weekday_weight, 2 days weekend_weight.
    let day_weights: Vec<f32> = (0..7)
        .map(|d| {
            if d < 5 {
                profile.weekday_weight
            } else {
                profile.weekend_weight
            }
        })
        .collect();
    // sample_weighted returns an index < day_weights.len() == 7
    let dow = sample_weighted(&day_weights, rng) as u32;
    let weekend = dow >= 5;
    let hour_weights: Vec<f32> = (0..24)
        .map(|h| profile.hour_weight(h as f32, weekend))
        .collect();
    // index < hour_weights.len() == 24
    let hour = sample_weighted(&hour_weights, rng) as u32;
    Timestamp::from_parts(week * 7 + dow, hour, rng.gen_range(0..60))
}

/// Compose one raw tweet text for `concept`.
fn compose_tweet<R: Rng>(
    lexicon: &Lexicon,
    author: usize,
    concept: usize,
    author_mix: &[f32],
    _timestamp: Timestamp,
    config: &GeneratorConfig,
    rng: &mut R,
) -> String {
    let spec = &lexicon.concepts[concept];
    // Mode decides which entity forms and markers this tweet uses; it is
    // the contextual signal behind the base:variant analogy regularity.
    let variant_mode = rng.gen_bool(0.5);
    // Register: which half of the concept's entity vocabulary this author
    // uses — a per-(author, concept) habit, deterministic so an author's
    // voice is consistent across their tweets.
    let register = register_of(author, concept);

    let n_content = rng.gen_range(config.tweet_len.0..=config.tweet_len.1);
    let mut words: Vec<String> = Vec::with_capacity(n_content + 6);

    // Topical anchor — infrequent enough that many same-concept tweet
    // pairs in different registers share no word at all.
    if rng.gen_bool(config.head_rate) {
        words.push(spec.head.clone());
    }
    // Entity words in the mode's form, drawn from the author's register
    // (one disjoint half of the concept vocabulary).
    let forms = if variant_mode {
        &spec.variant_forms
    } else {
        &spec.base_forms
    };
    let half = (forms.len() / 2).max(1);
    let (lo, hi) = if register == 0 || forms.len() < 2 {
        (0, half)
    } else {
        (half, forms.len())
    };
    for _ in 0..n_content {
        words.push(forms[rng.gen_range(lo..hi)].clone());
    }
    // 1-2 mode markers.
    let markers = if variant_mode {
        &lexicon.variant_markers
    } else {
        &lexicon.base_markers
    };
    for _ in 0..rng.gen_range(config.markers_per_tweet.0..=config.markers_per_tweet.1) {
        words.push(markers[rng.gen_range(0..markers.len())].clone());
    }
    // Conceptual ambiguity: borrow 1-2 words from another of the author's
    // concepts.
    if rng.gen_bool(config.ambiguity_rate) {
        let other = sample_weighted(author_mix, rng);
        if other != concept {
            let ospec = &lexicon.concepts[other];
            let oforms = if variant_mode {
                &ospec.variant_forms
            } else {
                &ospec.base_forms
            };
            let oreg = register_of(author, other);
            let ohalf = (oforms.len() / 2).max(1);
            let (olo, ohi) = if oreg == 0 || oforms.len() < 2 {
                (0, ohalf)
            } else {
                (ohalf, oforms.len())
            };
            for _ in 0..rng.gen_range(1..=2) {
                words.push(oforms[rng.gen_range(olo..ohi)].clone());
            }
        }
    }
    // Homographs: words this concept shares with a temporally different
    // concept — included often enough that their context distribution is
    // genuinely bimodal across time.
    let homographs = lexicon.homographs_of(concept);
    if !homographs.is_empty() && rng.gen_bool(0.35) {
        words.push(homographs[rng.gen_range(0..homographs.len())].to_string());
    }
    // Fillers.
    if !lexicon.fillers.is_empty() {
        for _ in 0..rng.gen_range(0..=2) {
            words.push(lexicon.fillers[rng.gen_range(0..lexicon.fillers.len())].clone());
        }
    }

    // Noise pass: abbreviation / misspelling / elongation.
    for w in &mut words {
        if rng.gen_bool(config.noise_rate) {
            *w = match rng.gen_range(0..3) {
                0 => Lexicon::abbreviate(w),
                1 => Lexicon::misspell(w),
                _ => elongate(w),
            };
        }
    }

    words.shuffle(rng);

    // Surface decorations the tokenizer must cope with.
    let mut parts: Vec<String> = Vec::with_capacity(words.len() + 3);
    if rng.gen_bool(0.15) {
        parts.push(format!("@user{:04}", rng.gen_range(0..2000)));
    }
    for (i, w) in words.iter().enumerate() {
        if i == 0 && rng.gen_bool(0.2) {
            parts.push(format!("#{w}"));
        } else if rng.gen_bool(0.05) {
            parts.push(w.to_uppercase());
        } else {
            parts.push(w.clone());
        }
    }
    if rng.gen_bool(0.08) {
        parts.push("https://t.co/abc123".to_string());
    }
    if rng.gen_bool(0.3) {
        parts.push(["!", "!!", "...", "?", ":)"][rng.gen_range(0..5)].to_string());
    }
    parts.join(" ")
}

/// The vocabulary register (0 or 1) author `a` uses for `concept` — a
/// deterministic habit, mixing the two ids so registers vary across both
/// axes.
fn register_of(author: usize, concept: usize) -> usize {
    (author
        .wrapping_mul(31)
        .wrapping_add(concept.wrapping_mul(17))
        .wrapping_add(author >> 3))
        % 2
}

/// Stretch the last vowel ("good" → "goooood") — normalized by the
/// tokenizer's run squeezing into a *different* token than the original,
/// i.e. genuine surface noise.
fn elongate(word: &str) -> String {
    if let Some(pos) = word.rfind(|c| "aeiou".contains(c)) {
        let c = word[pos..].chars().next().expect("vowel at pos");
        let mut out = String::with_capacity(word.len() + 4);
        out.push_str(&word[..pos]);
        for _ in 0..4 {
            out.push(c);
        }
        out.push_str(&word[pos + c.len_utf8()..]);
        out
    } else {
        word.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_text::{tokenize, TokenizerConfig, Vocabulary, WordId};

    fn small() -> Dataset {
        generate(&GeneratorConfig::small()).expect("valid config")
    }

    #[test]
    fn generate_respects_author_count() {
        let d = small();
        assert_eq!(d.n_authors(), 40);
        assert_eq!(d.ground_truth.author_mixture.len(), 40);
        assert_eq!(d.ground_truth.author_community.len(), 40);
        assert_eq!(d.ground_truth.tweet_concept.len(), d.n_tweets());
    }

    #[test]
    fn every_author_tweets() {
        let d = small();
        for a in 0..d.n_authors() as u32 {
            assert!(!d.tweets_of(a).is_empty(), "author {a} has no tweets");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.n_tweets(), b.n_tweets());
        assert_eq!(a.tweets[10].text, b.tweets[10].text);
        assert_eq!(a.tweets[10].timestamp, b.tweets[10].timestamp);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = generate(&GeneratorConfig {
            seed: 1,
            ..GeneratorConfig::small()
        })
        .unwrap();
        assert_ne!(a.tweets[0].text, b.tweets[0].text);
    }

    #[test]
    fn mixtures_are_distributions() {
        let d = small();
        for mix in &d.ground_truth.author_mixture {
            let s: f32 = mix.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "mixture sums to {s}");
            assert!(mix.iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn tweet_concepts_in_range() {
        let d = small();
        for &c in &d.ground_truth.tweet_concept {
            assert!(c < d.ground_truth.n_concepts);
        }
    }

    #[test]
    fn weekday_concepts_post_mostly_on_weekdays() {
        let d = small();
        // Concept 0 is weekday-heavy (profile c % 3 == 0).
        let (mut wd, mut we) = (0usize, 0usize);
        for (t, &c) in d.tweets.iter().zip(&d.ground_truth.tweet_concept) {
            if c == 0 {
                if t.timestamp.is_weekend() {
                    we += 1;
                } else {
                    wd += 1;
                }
            }
        }
        assert!(wd > we * 3, "weekday concept skew missing: wd={wd} we={we}");
    }

    #[test]
    fn morning_concepts_peak_in_the_morning() {
        let d = small();
        // Concept 0 peaks at hour 8 on weekdays.
        let mut hours = [0usize; 24];
        for (t, &c) in d.tweets.iter().zip(&d.ground_truth.tweet_concept) {
            if c == 0 && !t.timestamp.is_weekend() {
                hours[t.timestamp.hour() as usize] += 1;
            }
        }
        let morning: usize = hours[6..=10].iter().sum();
        let night: usize = hours[0..=4].iter().sum();
        assert!(
            morning > night * 2,
            "morning skew missing: morning={morning} night={night}"
        );
    }

    #[test]
    fn seasonal_concept_prefers_its_season() {
        let d = small();
        // Concept 0 < n/2 is seasonal with season 0 (summer).
        let mut per_season = [0usize; 4];
        for (t, &c) in d.tweets.iter().zip(&d.ground_truth.tweet_concept) {
            if c == 0 {
                per_season[t.timestamp.season().index()] += 1;
            }
        }
        assert!(per_season[0] > per_season[2] * 2, "{per_season:?}");
    }

    #[test]
    fn corpus_encodes_with_reasonable_vocab() {
        let d = small();
        let enc = d.encode(&TokenizerConfig::default(), 2);
        assert!(enc.vocab.len() > 50, "vocab too small: {}", enc.vocab.len());
        assert!(enc.total_tokens() > 1000);
        // Clean lexicon words dominate: the heads must survive pruning.
        for c in &d.ground_truth.lexicon.concepts {
            assert!(
                enc.vocab.id(&c.head).is_some(),
                "head {} missing from vocab",
                c.head
            );
        }
    }

    /// The two-pass encode the one-pass `Dataset::encode` replaced: own
    /// every token, observe, prune, then look every token up again.
    fn two_pass_encode(d: &Dataset, min_count: u64) -> (Vocabulary, Vec<Vec<WordId>>) {
        let config = TokenizerConfig::default();
        let docs: Vec<Vec<String>> = d
            .tweets
            .iter()
            .map(|t| tokenize(&t.text, &config))
            .collect();
        let mut vocab = Vocabulary::new();
        for token in docs.iter().flatten() {
            vocab.observe(token);
        }
        if min_count > 1 {
            vocab.prune(min_count);
        }
        let words = docs
            .iter()
            .map(|doc| doc.iter().filter_map(|t| vocab.id(t)).collect())
            .collect();
        (vocab, words)
    }

    #[test]
    fn one_pass_encode_matches_two_pass_encode() {
        let d = small();
        for min_count in [1, 3] {
            let enc = d.encode(&TokenizerConfig::default(), min_count);
            let (vocab, words) = two_pass_encode(&d, min_count);
            assert!(enc.vocab.iter().eq(vocab.iter()), "min_count {min_count}");
            for (w, id) in vocab.iter().map(|(id, w, _)| (w, id)) {
                assert_eq!(enc.vocab.id(w), Some(id));
            }
            assert_eq!(enc.tweets.len(), words.len());
            for (t, w) in enc.tweets.iter().zip(&words) {
                assert_eq!(&t.words, w, "tweet {} at min_count {min_count}", t.id);
            }
        }
    }

    #[test]
    fn noise_produces_out_of_lexicon_tokens() {
        let d = small();
        let enc = d.encode(&TokenizerConfig::default(), 1);
        let lex = &d.ground_truth.lexicon;
        let mut clean: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for c in &lex.concepts {
            clean.insert(&c.head);
            clean.extend(c.base_forms.iter().map(String::as_str));
            clean.extend(c.variant_forms.iter().map(String::as_str));
        }
        clean.extend(lex.base_markers.iter().map(String::as_str));
        clean.extend(lex.variant_markers.iter().map(String::as_str));
        clean.extend(lex.fillers.iter().map(String::as_str));
        let noisy = enc
            .vocab
            .iter()
            .filter(|(_, w, _)| !clean.contains(w))
            .count();
        assert!(noisy > 20, "expected noisy variants in vocab, got {noisy}");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(generate(&GeneratorConfig {
            n_authors: 0,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&GeneratorConfig {
            n_communities: 0,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&GeneratorConfig {
            n_concepts: 1,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&GeneratorConfig {
            tweet_len: (5, 3),
            ..Default::default()
        })
        .is_err());
        assert!(generate(&GeneratorConfig {
            noise_rate: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn sample_weighted_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let i = sample_weighted(&[0.0, 1.0, 0.0], &mut rng);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn registers_split_concept_vocabulary() {
        // Two authors with different registers for the same concept should
        // draw from disjoint entity halves.
        assert_ne!(register_of(0, 0), register_of(1, 0));
        let d = small();
        let lex = &d.ground_truth.lexicon;
        let spec = &lex.concepts[0];
        let half = spec.base_forms.len() / 2;
        let first_half: std::collections::HashSet<&str> = spec.base_forms[..half]
            .iter()
            .chain(&spec.variant_forms[..half])
            .map(String::as_str)
            .collect();
        // Collect concept-0 entity words per author and check register
        // consistency for two authors with different registers.
        let (a0, a1) = (0u32, 1u32);
        for (t, &c) in d.tweets.iter().zip(&d.ground_truth.tweet_concept) {
            if c != 0 || (t.author != a0 && t.author != a1) {
                continue;
            }
            let expected_first_half = register_of(t.author as usize, 0) == 0;
            for w in t.text.split_whitespace() {
                let w = w.trim_start_matches('#').to_lowercase();
                let in_first = first_half.contains(w.as_str());
                let in_concept = spec
                    .base_forms
                    .iter()
                    .chain(&spec.variant_forms)
                    .any(|f| f == &w);
                if in_concept {
                    assert_eq!(
                        in_first, expected_first_half,
                        "author {} used wrong register word {w}",
                        t.author
                    );
                }
            }
        }
    }

    #[test]
    fn homographs_appear_under_both_concepts() {
        let d = small();
        let lex = &d.ground_truth.lexicon;
        assert!(!lex.homographs.is_empty());
        let word = &lex.homographs[0];
        let (ca, cb) = lex.homograph_concepts[0];
        let mut seen = [false, false];
        for (t, &c) in d.tweets.iter().zip(&d.ground_truth.tweet_concept) {
            if t.text.contains(word.as_str()) {
                if c == ca {
                    seen[0] = true;
                }
                if c == cb {
                    seen[1] = true;
                }
            }
        }
        assert!(seen[0] && seen[1], "homograph {word} not bimodal: {seen:?}");
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let d = small();
        let pops: Vec<u32> = d.tweets.iter().map(|t| t.popularity).collect();
        let zeros = pops.iter().filter(|&&p| p == 0).count();
        let max = *pops.iter().max().unwrap();
        // Median-ish mass at zero/low values, but a real tail exists.
        assert!(zeros > pops.len() / 4, "too few unengaged tweets: {zeros}");
        assert!(max > 10, "no viral tail, max popularity {max}");
    }

    #[test]
    fn elongate_stretches_a_vowel() {
        assert_eq!(elongate("good"), "goooood");
        assert_eq!(elongate("xyz"), "xyz");
    }
}
