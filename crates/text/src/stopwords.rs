//! A compact English stop-word list tuned for microblog text.
//!
//! The list deliberately keeps sentiment-bearing function words out (e.g.
//! "not" stays *in* the list here because the paper's similarity signals are
//! lexical/conceptual, not sentiment polarity) and adds microblog filler
//! ("rt", "via", "amp").
//!
//! [`is_stopword`] runs once per candidate token, so it is a fixed-cost
//! test: every table word is at most 8 bytes, packed big-endian
//! into one `u64` (zero-padded), and a lookup is one pack plus a binary
//! search over those integers — no string compares.

/// Sorted stop-word table.
const STOPWORDS: [&str; 130] = [
    "a", "about", "after", "again", "all", "also", "am", "amp", "an", "and", "any", "are", "as",
    "at", "be", "because", "been", "before", "being", "but", "by", "can", "could", "did", "do",
    "does", "doing", "down", "during", "each", "few", "for", "from", "further", "get", "got",
    "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how", "i", "if",
    "im", "in", "into", "is", "it", "its", "just", "ll", "me", "more", "most", "my", "myself",
    "no", "nor", "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours",
    "out", "over", "own", "re", "rt", "s", "same", "she", "should", "so", "some", "such", "t",
    "than", "that", "the", "their", "theirs", "them", "then", "there", "these", "they", "this",
    "those", "through", "to", "too", "u", "under", "until", "up", "ur", "us", "ve", "very", "via",
    "was", "we", "were", "what", "when", "where", "which", "while", "who", "whom", "why", "will",
    "with", "would", "you", "your", "yours", "yourself",
];

/// Longest stop word in bytes ("yourself"); longer words are never
/// stop words.
const MAX_LEN: usize = 8;

/// `bytes` (at most [`MAX_LEN`] of them) big-endian in a `u64`, padded
/// with zero bytes on the right. For strings without NUL bytes the packing
/// is injective and orders like the strings themselves.
const fn pack(bytes: &[u8]) -> u64 {
    let mut key = 0u64;
    let mut i = 0;
    while i < MAX_LEN {
        key <<= 8;
        if i < bytes.len() {
            key |= bytes[i] as u64;
        }
        i += 1;
    }
    key
}

/// [`STOPWORDS`] packed; entry `i` is `pack(STOPWORDS[i])`. Building it
/// fails to compile unless the table is sorted, deduplicated and short
/// enough to pack.
static PACKED: [u64; STOPWORDS.len()] = {
    let mut packed = [0u64; STOPWORDS.len()];
    let mut i = 0;
    while i < STOPWORDS.len() {
        let word = STOPWORDS[i].as_bytes();
        assert!(!word.is_empty() && word.len() <= MAX_LEN);
        packed[i] = pack(word);
        assert!(i == 0 || packed[i - 1] < packed[i]);
        i += 1;
    }
    packed
};

/// True when `word` (already lowercased) is a stop word.
pub fn is_stopword(word: &str) -> bool {
    let bytes = word.as_bytes();
    if bytes.len() > MAX_LEN {
        return false;
    }
    // Equal packings with unequal lengths differ only in trailing NULs,
    // which no table word has.
    match PACKED.binary_search(&pack(bytes)) {
        Ok(i) => STOPWORDS[i].len() == bytes.len(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's own binary search over strings: the reference the
    /// packed test must agree with.
    fn reference(word: &str) -> bool {
        STOPWORDS.binary_search(&word).is_ok()
    }

    #[test]
    fn table_is_sorted_and_deduped() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "stopword table out of order at {:?}", w);
        }
    }

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "rt", "via", "a", "yourself"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not_stopwords() {
        for w in ["coffee", "brisbane", "arvo", "beach", "work"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn packed_test_agrees_on_table_words_and_their_neighbours() {
        let letters = ('a'..='z').chain(['0', 'é']);
        for word in STOPWORDS {
            assert!(is_stopword(word), "{word}");
            let chars: Vec<char> = word.chars().collect();
            // Every one-letter deletion and insertion.
            for at in 0..=chars.len() {
                if at < chars.len() {
                    let mut fewer = chars.clone();
                    fewer.remove(at);
                    let fewer: String = fewer.into_iter().collect();
                    assert_eq!(is_stopword(&fewer), reference(&fewer), "{fewer:?}");
                }
                for c in letters.clone() {
                    let mut more = chars.clone();
                    more.insert(at, c);
                    let more: String = more.into_iter().collect();
                    assert_eq!(is_stopword(&more), reference(&more), "{more:?}");
                }
            }
            // Trailing NULs pack like the word itself but are not it.
            let padded = format!("{word}\0");
            assert!(!is_stopword(&padded), "{padded:?}");
        }
    }

    #[test]
    fn packed_test_agrees_on_every_short_ascii_string() {
        let mut word = String::new();
        assert_eq!(is_stopword(&word), reference(&word));
        for a in b'a'..=b'z' {
            for b in (b'a'..=b'z').map(Some).chain([None]) {
                for c in (b'a'..=b'z').map(Some).chain([None]) {
                    word.clear();
                    word.extend([Some(a), b, c].into_iter().flatten().map(char::from));
                    assert_eq!(is_stopword(&word), reference(&word), "{word:?}");
                }
            }
        }
    }
}
