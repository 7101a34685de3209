//! Interned vocabulary with frequency statistics.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A word identifier — an index into the vocabulary table.
pub type WordId = u32;

/// An interning vocabulary: maps words to dense `u32` ids and tracks
/// occurrence counts.
///
/// Built in two phases: [`Vocabulary::observe`] every token of the corpus,
/// then optionally [`Vocabulary::prune`] rare words (`min_count`) the way
/// word2vec does. Ids are assigned in first-seen order and re-compacted by
/// `prune`, so downstream matrices can be indexed densely by `WordId`.
/// Text is encoded by looking each token up with [`Vocabulary::id`] as
/// the tokenizer emits it (out-of-vocabulary tokens have no id).
///
/// # Examples
/// ```
/// use soulmate_text::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let ids: Vec<_> = ["beach", "surf", "beach"].map(|w| vocab.observe(w)).into();
/// let beach = vocab.id("beach").unwrap();
/// assert_eq!(vocab.count(beach), 2);
/// assert_eq!(vocab.id("unknown"), None);
/// assert_eq!(vocab.decode(&ids), vec!["beach", "surf", "beach"]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    words: Vec<String>,
    counts: Vec<u64>,
    #[serde(skip)]
    index: HashMap<String, WordId>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence of `word`, interning it on first sight.
    pub fn observe(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.index.get(word) {
            // ids index words/counts by construction; u32→usize is widening
            self.counts[id as usize] += 1;
            return id;
        }
        let id = self.words.len() as WordId;
        self.words.push(word.to_owned());
        self.counts.push(1);
        self.index.insert(word.to_owned(), id);
        id
    }

    /// Look up a word id without modifying counts.
    pub fn id(&self, word: &str) -> Option<WordId> {
        self.index.get(word).copied()
    }

    /// The surface form of `id`, if in range.
    pub fn word(&self, id: WordId) -> Option<&str> {
        // u32 id → usize is widening; .get handles out-of-range
        self.words.get(id as usize).map(String::as_str)
    }

    /// Occurrence count of `id` (0 if out of range).
    pub fn count(&self, id: WordId) -> u64 {
        // u32 id → usize is widening; .get handles out-of-range
        self.counts.get(id as usize).copied().unwrap_or(0)
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no words have been observed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total token count across all words.
    pub fn total_tokens(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Drop words occurring fewer than `min_count` times and re-compact ids.
    ///
    /// Returns a remapping table `old_id -> Option<new_id>` so callers can
    /// rewrite already-encoded documents.
    pub fn prune(&mut self, min_count: u64) -> Vec<Option<WordId>> {
        let mut remap = vec![None; self.words.len()];
        let mut new_words = Vec::new();
        let mut new_counts = Vec::new();
        for (old_id, (word, &count)) in self.words.iter().zip(&self.counts).enumerate() {
            if count >= min_count {
                remap[old_id] = Some(new_words.len() as WordId);
                new_words.push(word.clone());
                new_counts.push(count);
            }
        }
        self.words = new_words;
        self.counts = new_counts;
        self.rebuild_index();
        remap
    }

    /// Decode ids back to surface forms, skipping out-of-range ids.
    pub fn decode(&self, ids: &[WordId]) -> Vec<&str> {
        ids.iter().filter_map(|&id| self.word(id)).collect()
    }

    /// Iterate `(id, word, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str, u64)> {
        self.words
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(id, (w, &c))| (id as WordId, w.as_str(), c))
    }

    /// Rebuild the string→id index (needed after deserialization, which
    /// skips the map).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as WordId))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_check::check;

    #[test]
    fn observe_interns_and_counts() {
        let mut v = Vocabulary::new();
        let a = v.observe("beach");
        let b = v.observe("surf");
        let a2 = v.observe("beach");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.count(a), 2);
        assert_eq!(v.count(b), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.total_tokens(), 3);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut v = Vocabulary::new();
        let id = v.observe("coffee");
        assert_eq!(v.id("coffee"), Some(id));
        assert_eq!(v.word(id), Some("coffee"));
        assert_eq!(v.id("tea"), None);
        assert_eq!(v.word(99), None);
    }

    #[test]
    fn prune_removes_rare_and_remaps() {
        let mut v = Vocabulary::new();
        for _ in 0..3 {
            v.observe("common");
        }
        v.observe("rare");
        for _ in 0..2 {
            v.observe("mid");
        }
        let remap = v.prune(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.id("rare"), None);
        assert!(v.id("common").is_some());
        assert_eq!(remap.len(), 3);
        assert_eq!(remap[0], Some(v.id("common").unwrap()));
        assert_eq!(remap[1], None); // rare
        assert_eq!(remap[2], Some(v.id("mid").unwrap()));
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut v = Vocabulary::new();
        v.observe("a1");
        v.observe("b2");
        v.observe("a1");
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], (0, "a1", 2));
        assert_eq!(entries[1], (1, "b2", 1));
    }

    #[test]
    fn empty_vocab_properties() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.total_tokens(), 0);
        assert_eq!(v.id("x"), None);
    }

    #[test]
    fn prop_ids_are_dense_and_stable() {
        check(256, |g| {
            let words = g.vec(1..50, |g| g.string("[a-z]", 1..=6));

            let mut v = Vocabulary::new();
            for w in &words {
                v.observe(w);
            }
            // Every id in [0, len) maps to a distinct word that maps back.
            for id in 0..v.len() as WordId {
                let w = v.word(id).unwrap().to_owned();
                assert_eq!(v.id(&w), Some(id));
            }
            // Total tokens equals number of observations.
            assert_eq!(v.total_tokens(), words.len() as u64);
        });
    }

    #[test]
    fn prop_prune_keeps_exactly_frequent() {
        check(256, |g| {
            let words = g.vec(1..40, |g| g.string("[a-c]", 1));
            let min = g.u64(1..4);

            let mut v = Vocabulary::new();
            for w in &words {
                v.observe(w);
            }
            let before: Vec<(String, u64)> = v.iter().map(|(_, w, c)| (w.to_owned(), c)).collect();
            v.prune(min);
            for (w, c) in before {
                assert_eq!(v.id(&w).is_some(), c >= min);
            }
        });
    }
}
