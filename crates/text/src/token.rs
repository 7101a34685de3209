//! Microblog-aware tokenizer and normalizer.
//!
//! Short-text content is informal: abbreviations ("arvo"), elongations
//! ("soooo"), @mentions, #hashtags, URLs and emoji. The tokenizer applies a
//! fixed normalization pipeline to every whitespace-separated word so the
//! downstream vocabulary sees a consistent surface form:
//!
//! 1. Unicode-lowercase the word.
//! 2. Drop URLs (`http…`, `www…`) — they carry no lexical signal.
//! 3. Optionally drop @mentions; keep hashtag bodies (`#beach` → `beach`).
//! 4. Split on non-alphanumeric boundaries (apostrophes are elided first so
//!    `can't` → `cant`).
//! 5. Squeeze character runs longer than two (`soooo` → `soo`).
//! 6. Drop pure numbers, single characters and (optionally) stop words.
//!
//! [`tokenize_with`] runs the pipeline without allocating per token: a
//! word that is all ASCII goes through one byte loop into a buffer reused
//! across the call, and each kept token is handed to the caller as a
//! `&str`. On ASCII, lowercasing and the alphanumeric class agree with
//! their Unicode definitions and the only apostrophe is `'` (`’` is not
//! ASCII), so the byte loop is exact. A word with any non-ASCII byte takes
//! the char path (`str::to_lowercase`, `'`/`’` elision, run squeezing over
//! chars) for that word only. [`tokenize`] collects the same tokens as
//! owned strings.

use crate::stopwords::is_stopword;
use serde::{Deserialize, Serialize};

/// Tokenizer options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenizerConfig {
    /// Remove stop words (default `true`).
    pub remove_stopwords: bool,
    /// Drop `@mention` tokens entirely (default `true`). When `false` the
    /// mention is kept without its sigil (`@alice` → `alice`).
    pub drop_mentions: bool,
    /// Minimum kept token length in characters (default 2).
    pub min_token_len: usize,
    /// Squeeze character runs longer than this length down to it (default 2).
    pub max_char_run: usize,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            remove_stopwords: true,
            drop_mentions: true,
            min_token_len: 2,
            max_char_run: 2,
        }
    }
}

/// Tokenize a raw short-text message into normalized terms.
///
/// Collects [`tokenize_with`]'s tokens; callers that only look tokens up
/// (vocabulary ids, counts) should call that directly and skip the
/// per-token `String`.
pub fn tokenize(text: &str, config: &TokenizerConfig) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_with(text, config, |token| out.push(token.to_owned()));
    out
}

/// Tokenize a raw short-text message, handing each normalized term to
/// `emit` in text order.
///
/// The tokens are exactly [`tokenize`]'s. The `&str` lives only for the
/// call: it points into a buffer the next token overwrites.
///
/// # Examples
/// ```
/// use soulmate_text::{tokenize_with, TokenizerConfig};
///
/// let mut lengths = Vec::new();
/// tokenize_with("Soooo GOOD @bob #beach", &TokenizerConfig::default(), |t| {
///     lengths.push((t.to_owned(), t.len()))
/// });
/// assert_eq!(lengths, [("soo".into(), 3), ("good".into(), 4), ("beach".into(), 5)]);
/// ```
pub fn tokenize_with(text: &str, config: &TokenizerConfig, mut emit: impl FnMut(&str)) {
    let mut buf = String::new();
    for word in text.split_whitespace() {
        if word.is_ascii() {
            ascii_word(word.as_bytes(), config, &mut buf, &mut emit);
        } else {
            char_word(word, config, &mut emit);
        }
    }
}

/// The pipeline over one all-ASCII word in a single byte loop: lowercase,
/// elide `'`, split on non-alphanumerics, squeeze runs (a run continues
/// across an elided apostrophe, as on the char path) and gate each piece.
fn ascii_word(
    word: &[u8],
    config: &TokenizerConfig,
    buf: &mut String,
    emit: &mut impl FnMut(&str),
) {
    let has_prefix = |prefix: &[u8]| {
        word.len() >= prefix.len() && word[..prefix.len()].eq_ignore_ascii_case(prefix)
    };
    if has_prefix(b"http://") || has_prefix(b"https://") || has_prefix(b"www.") {
        return;
    }
    if config.drop_mentions && word[0] == b'@' {
        return;
    }
    // `buf` is empty here: every piece ends in `ascii_piece`, which
    // clears it. `last` is 0 between pieces: 0 is not alphanumeric, so no run
    // continues across a split.
    let mut last = 0u8;
    let mut run = 0usize;
    for &b in word {
        if b == b'\'' {
            continue;
        }
        let c = b.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            if c == last {
                run += 1;
            } else {
                last = c;
                run = 1;
            }
            if run <= config.max_char_run {
                buf.push(char::from(c));
            }
        } else {
            ascii_piece(buf, config, emit);
            last = 0;
            run = 0;
        }
    }
    ascii_piece(buf, config, emit);
}

/// Gate the squeezed ASCII piece in `buf` (its byte length is its char
/// count), emit it if kept, and clear `buf` for the next piece. An empty
/// piece counts as all digits, as on the char path.
fn ascii_piece(buf: &mut String, config: &TokenizerConfig, emit: &mut impl FnMut(&str)) {
    if buf.len() >= config.min_token_len
        && !buf.bytes().all(|b| b.is_ascii_digit())
        && !(config.remove_stopwords && is_stopword(buf))
    {
        emit(buf);
    }
    buf.clear();
}

/// The pipeline over one word that holds non-ASCII chars: Unicode
/// lowercasing (context-sensitive, e.g. a word-final `Σ` becomes `ς`),
/// `'`/`’` elision, a split on non-alphanumeric chars, and run squeezing
/// and the length gate counted in chars.
fn char_word(word: &str, config: &TokenizerConfig, emit: &mut impl FnMut(&str)) {
    let lower = word.to_lowercase();
    if lower.starts_with("http://") || lower.starts_with("https://") || lower.starts_with("www.") {
        return;
    }
    if lower.starts_with('@') && config.drop_mentions {
        return;
    }
    // Elide apostrophes so contractions stay one token ("can't" -> "cant").
    let elided: String = lower.chars().filter(|&c| c != '\'' && c != '’').collect();
    for piece in elided.split(|c: char| !c.is_alphanumeric()) {
        if piece.is_empty() {
            continue;
        }
        let squeezed = squeeze_runs(piece, config.max_char_run);
        if squeezed.chars().count() < config.min_token_len {
            continue;
        }
        if squeezed.chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        if config.remove_stopwords && is_stopword(&squeezed) {
            continue;
        }
        emit(&squeezed);
    }
}

/// Squeeze any run of the same character longer than `max_run` down to
/// `max_run` occurrences ("soooo" → "soo" with `max_run = 2`).
fn squeeze_runs(s: &str, max_run: usize) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last: Option<char> = None;
    let mut run = 0usize;
    for c in s.chars() {
        if Some(c) == last {
            run += 1;
        } else {
            last = Some(c);
            run = 1;
        }
        if run <= max_run {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_check::{check, Gen};

    fn tok(s: &str) -> Vec<String> {
        tokenize(s, &TokenizerConfig::default())
    }

    /// The oracle: the char path forced onto every word.
    fn tokenize_chars(text: &str, config: &TokenizerConfig) -> Vec<String> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            char_word(word, config, &mut |t: &str| out.push(t.to_owned()));
        }
        out
    }

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tok("Going to the beach today!"),
            vec!["going", "beach", "today"]
        );
    }

    #[test]
    fn urls_are_dropped() {
        assert_eq!(
            tok("check https://t.co/xyz out www.example.com"),
            vec!["check"]
        );
    }

    #[test]
    fn mentions_dropped_by_default() {
        assert_eq!(tok("@alice hello beach"), vec!["hello", "beach"]);
    }

    #[test]
    fn mentions_kept_when_configured() {
        let cfg = TokenizerConfig {
            drop_mentions: false,
            ..Default::default()
        };
        assert_eq!(tokenize("@alice hello", &cfg), vec!["alice", "hello"]);
    }

    #[test]
    fn hashtags_keep_body() {
        assert_eq!(
            tok("#beach #BrisVegas vibes"),
            vec!["beach", "brisvegas", "vibes"]
        );
    }

    #[test]
    fn elongations_squeezed() {
        assert_eq!(tok("soooooo goooood"), vec!["soo", "good"]);
    }

    #[test]
    fn contractions_stay_single_token() {
        assert_eq!(tok("can't won't"), vec!["cant", "wont"]);
    }

    #[test]
    fn runs_continue_across_an_elided_apostrophe() {
        assert_eq!(tok("zo'o'o'o zo’o’o’o"), vec!["zoo", "zoo"]);
    }

    #[test]
    fn numbers_and_short_tokens_dropped() {
        assert_eq!(tok("42 x yy 2024"), vec!["yy"]);
    }

    #[test]
    fn stopwords_removed() {
        assert_eq!(tok("I am so very tired"), vec!["tired"]);
    }

    #[test]
    fn stopwords_kept_when_configured() {
        let cfg = TokenizerConfig {
            remove_stopwords: false,
            ..Default::default()
        };
        assert_eq!(tokenize("am so tired", &cfg), vec!["am", "so", "tired"]);
    }

    #[test]
    fn punctuation_splits_tokens() {
        assert_eq!(tok("tea,coffee;cake"), vec!["tea", "coffee", "cake"]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tok("").is_empty());
        assert!(tok("   \t\n ").is_empty());
    }

    #[test]
    fn unicode_is_lowercased() {
        assert_eq!(tok("CAFÉ Großartig"), vec!["café", "großartig"]);
    }

    #[test]
    fn char_path_gates_length_in_chars() {
        // "éé" is two chars (four bytes), "é" one char (two bytes).
        assert_eq!(tok("é éé ßß"), vec!["éé", "ßß"]);
        assert_eq!(tok("ΟΔΟΣ"), vec!["οδος"]);
    }

    #[test]
    fn every_unicode_whitespace_splits_words() {
        // A mention is dropped as a whole word, so what follows it shows
        // whether the separator ended the word. U+001C is not whitespace.
        assert_eq!(
            tok("@bo\u{b}tea @al\u{85}jam @jo\u{a0}bun @li\u{2003}pie @ed\u{1c}fig"),
            vec!["tea", "jam", "bun", "pie"]
        );
    }

    #[test]
    fn squeeze_runs_exact() {
        assert_eq!(squeeze_runs("aaa", 2), "aa");
        assert_eq!(squeeze_runs("aabbaa", 2), "aabbaa");
        assert_eq!(squeeze_runs("abc", 2), "abc");
        assert_eq!(squeeze_runs("", 2), "");
    }

    #[test]
    fn prop_tokens_are_normalized() {
        check(256, |g| {
            let s = g.string(".", 0..=200);

            for t in tok(&s) {
                assert!(t.chars().count() >= 2);
                assert_eq!(t.clone(), t.to_lowercase());
                assert!(!t.contains(char::is_whitespace));
                assert!(!is_stopword(&t));
            }
        });
    }

    #[test]
    fn prop_tokenize_is_deterministic() {
        check(256, |g| {
            let s = g.string(".", 0..=100);

            assert_eq!(tok(&s), tok(&s));
        });
    }

    /// One piece of an adversarial message: the cases where a byte loop
    /// and the char path could part ways.
    fn fragment(g: &mut Gen) -> String {
        const PIECES: &[&str] = &[
            "'", "’", "@", "#", ".", ",", "!", "?", "-", "_", "/", ":", ";", "&", "\"", "(",
            "http://", "HTTPS://", "WwW.", "hTtP://", "www", "https:", "é", "É", "ß", "İ", "Σ",
            "σ", "ς", "ΟΔΟΣ", "Д", "д", "漢", "字", "😀", "\u{212a}", "\u{307}", "ǅ", "the", "THE",
            "I'm", "yourself", "rt", "Amp", "via", "0", "42", " ", "\t", "\n", "\r", "\u{b}",
            "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{1c}",
        ];
        match g.u8(0..4) {
            0 => g.string("[a-zA-Z0-9]", 1..=8),
            // A run of one char, 1–6 long, possibly across apostrophes.
            1 => {
                let c = g.string("[aAbzZ09é’'ß]", 1);
                let sep = ["", "", "'", "’"][g.usize(0..4)];
                let n = g.usize(1..=6);
                vec![c; n].join(sep)
            }
            _ => PIECES[g.usize(0..PIECES.len())].to_owned(),
        }
    }

    fn config(g: &mut Gen) -> TokenizerConfig {
        TokenizerConfig {
            remove_stopwords: g.u8(0..2) == 1,
            drop_mentions: g.u8(0..2) == 1,
            min_token_len: g.usize(0..=3),
            max_char_run: g.usize(0..=3),
        }
    }

    /// `tokenize_with` equals the char path forced onto every word, and
    /// every token keeps the gates, counted in chars.
    fn parity_case(g: &mut Gen) {
        let config = config(g);
        let text: String = g.vec(0..=24, fragment).concat();
        let got = tokenize(&text, &config);
        assert_eq!(
            got,
            tokenize_chars(&text, &config),
            "text {text:?}, {config:?}"
        );
        for t in &got {
            let chars: Vec<char> = t.chars().collect();
            assert!(
                chars.len() >= config.min_token_len.max(1),
                "{t:?} in {text:?}"
            );
            assert!(chars.iter().all(|c| c.is_alphanumeric()), "{t:?}");
            assert!(!chars.iter().all(char::is_ascii_digit), "{t:?}");
            assert!(!(config.remove_stopwords && is_stopword(t)), "{t:?}");
            let longest_run = chars
                .chunk_by(|a, b| a == b)
                .map(<[char]>::len)
                .max()
                .unwrap_or(0);
            assert!(longest_run <= config.max_char_run, "{t:?}, {config:?}");
        }
    }

    #[test]
    fn prop_byte_path_matches_char_path() {
        check(20_000, parity_case);
    }

    /// The CI variant: 10⁶ cases, run in release with `--ignored`.
    #[test]
    #[ignore = "10^6 cases; run in release with --ignored"]
    fn prop_byte_path_matches_char_path_exhaustive() {
        check(1_000_000, parity_case);
    }
}
