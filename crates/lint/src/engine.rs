//! The rule engine: builds a per-file analysis context from the token
//! stream (test regions, blessed `#[allow]` scopes, `lint:allow`
//! suppressions) and runs every rule in the catalog over it.
//!
//! ## Scoping model
//!
//! Rules distinguish three kinds of code:
//!
//! - **test code** — files under a `tests/` or `benches/` directory, and
//!   token ranges covered by a literal `#[cfg(test)]` attribute (the only
//!   spelling used in this workspace). Panic- and write-hygiene rules do
//!   not apply there;
//! - **serving code** — library code of `crates/core`, `crates/graph`,
//!   and `crates/cli`, where the no-panic guarantee of DESIGN.md §12
//!   holds and [`rules`]' `panic-in-serving` applies;
//! - everything else.
//!
//! ## Suppressions
//!
//! `// lint:allow(rule-id[, rule-id…]) -- <reason>` suppresses the named
//! rules on the comment's own line, or — when the comment stands alone on
//! its line — on the following line. The `-- reason` part is mandatory;
//! a suppression without one (or naming an unknown rule) is itself
//! reported as `bad-suppression`, so silent opt-outs cannot accumulate.

use crate::diag::{sort_canonical, Diagnostic};
use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::rules;
use std::collections::HashMap;

/// Which panic sub-checks a `#[allow(clippy::…)]` attribute blesses for
/// the item it covers (mirroring what clippy itself would accept there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bless {
    Index,
    Unwrap,
    Expect,
}

/// Per-file analysis context handed to every rule.
pub struct Ctx<'a> {
    pub path: &'a str,
    pub lx: &'a Lexed<'a>,
    /// Whole file is test code (under `tests/` or `benches/`).
    pub test_file: bool,
    /// Token-index ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Token-index ranges blessed by `#[allow(clippy::…)]` attributes.
    pub blessed: Vec<(usize, usize, Bless)>,
    /// line → rule IDs suppressed on that line via `lint:allow`.
    pub suppressions: HashMap<u32, Vec<String>>,
    /// File is library code of a serving-path crate (core/graph/cli).
    pub serving: bool,
}

impl<'a> Ctx<'a> {
    pub fn tokens(&self) -> &'a [Token<'a>] {
        &self.lx.tokens
    }

    pub fn comments(&self) -> &'a [Comment<'a>] {
        &self.lx.comments
    }

    /// Is the token at index `i` inside test code?
    pub fn is_test(&self, i: usize) -> bool {
        self.test_file || self.test_ranges.iter().any(|&(s, e)| s <= i && i <= e)
    }

    /// Is the token at index `i` inside a scope blessed for `b`?
    pub fn is_blessed(&self, i: usize, b: Bless) -> bool {
        self.blessed
            .iter()
            .any(|&(s, e, kind)| kind == b && s <= i && i <= e)
    }

    /// Is `rule` suppressed on `line` by a `lint:allow` comment?
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .get(&line)
            .is_some_and(|v| v.iter().any(|r| r == rule))
    }

    /// Does any comment sit adjacent to `line` (trailing on it, or ending
    /// on the line directly above)? This is the "proof comment" test used
    /// by `unguarded-as-cast`.
    pub fn has_adjacent_comment(&self, line: u32) -> bool {
        self.comments()
            .iter()
            .any(|c| c.line == line || c.end_line + 1 == line)
    }

    /// Emit a diagnostic at `tok` unless suppressed.
    pub fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        tok: &Token<'_>,
        rule: &'static str,
        message: String,
    ) {
        if self.is_suppressed(rule, tok.line) {
            return;
        }
        out.push(Diagnostic {
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        });
    }
}

/// Normalize a path to `/`-separated components for scope decisions.
fn components(path: &str) -> Vec<&str> {
    path.split(['/', '\\'])
        .filter(|c| !c.is_empty() && *c != ".")
        .collect()
}

fn is_test_path(path: &str) -> bool {
    components(path)
        .iter()
        .any(|c| *c == "tests" || *c == "benches")
}

fn is_serving_path(path: &str) -> bool {
    let comps = components(path);
    // The i8 quantization module decodes the qi8 sections of untrusted
    // snapshot files at load (`from_parts`, `dequantize`), so it opts
    // into the serving rules even though the rest of linalg — fit-time
    // kernels that never see untrusted inputs — does not.
    if comps
        .windows(4)
        .any(|w| w == ["crates", "linalg", "src", "quant.rs"])
    {
        return true;
    }
    comps.windows(3).any(|w| {
        w[0] == "crates"
            && (w[1] == "core"
                || w[1] == "graph"
                || w[1] == "cli"
                || w[1] == "retrieval"
                || w[1] == "serve")
            && w[2] == "src"
    })
}

/// If `tokens[i]` starts an attribute (`#[…]` or `#![…]`), return
/// `(is_inner, inner_start, inner_end_exclusive, after)` where the inner
/// range spans the tokens between the brackets and `after` indexes the
/// token following the closing `]`.
fn parse_attr(tokens: &[Token<'_>], i: usize) -> Option<(bool, usize, usize, usize)> {
    if !tokens.get(i)?.is_punct('#') {
        return None;
    }
    let (inner, mut j) = match tokens.get(i + 1) {
        Some(t) if t.is_punct('!') => (true, i + 2),
        _ => (false, i + 1),
    };
    if !tokens.get(j)?.is_punct('[') {
        return None;
    }
    j += 1;
    let start = j;
    let mut depth = 1usize;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((inner, start, j, j + 1));
            }
        }
        j += 1;
    }
    None
}

/// Starting at the first token after an attribute stack, return the
/// inclusive token range of the annotated item: up to the matching `}` of
/// its first top-level brace block, or to the terminating `;` for
/// braceless items (`use`, `type`, `const`).
fn item_extent(tokens: &[Token<'_>], from: usize) -> Option<(usize, usize)> {
    let mut depth_paren = 0i32;
    let mut depth_bracket = 0i32;
    let mut j = from;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') => depth_paren += 1,
                Some(b')') => depth_paren -= 1,
                Some(b'[') => depth_bracket += 1,
                Some(b']') => depth_bracket -= 1,
                Some(b'{') if depth_paren == 0 && depth_bracket == 0 => {
                    let mut braces = 1i32;
                    let mut k = j + 1;
                    while let Some(u) = tokens.get(k) {
                        if u.is_punct('{') {
                            braces += 1;
                        } else if u.is_punct('}') {
                            braces -= 1;
                            if braces == 0 {
                                return Some((from, k));
                            }
                        }
                        k += 1;
                    }
                    return Some((from, tokens.len().saturating_sub(1)));
                }
                Some(b';') if depth_paren == 0 && depth_bracket == 0 => return Some((from, j)),
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Token range `[start, end]` masked as `#[cfg(test)]` code.
type TestRange = (usize, usize);
/// Token range blessed by a `#[allow(clippy::…)]` attribute.
type BlessedRange = (usize, usize, Bless);

/// Scan the token stream for `#[cfg(test)]` and blessing `#[allow(…)]`
/// attributes, recording the token ranges of the items they cover.
fn collect_attr_scopes(tokens: &[Token<'_>]) -> (Vec<TestRange>, Vec<BlessedRange>) {
    let mut test_ranges = Vec::new();
    let mut blessed = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let Some((inner_attr, s, e, after)) = parse_attr(tokens, i) else {
            i += 1;
            continue;
        };
        let inner = &tokens[s..e];
        let is_cfg_test = inner.len() == 4
            && inner[0].is_ident("cfg")
            && inner[1].is_punct('(')
            && inner[2].is_ident("test")
            && inner[3].is_punct(')');
        let mut blessings = Vec::new();
        if inner.first().is_some_and(|t| t.is_ident("allow")) {
            for t in inner {
                match t.text {
                    "indexing_slicing" => blessings.push(Bless::Index),
                    "unwrap_used" => blessings.push(Bless::Unwrap),
                    "expect_used" => blessings.push(Bless::Expect),
                    _ => {}
                }
            }
        }
        if !is_cfg_test && blessings.is_empty() {
            i = after;
            continue;
        }
        // Inner attributes (`#![allow(…)]`) scope to the rest of the file.
        if inner_attr {
            let end = tokens.len().saturating_sub(1);
            for b in blessings {
                blessed.push((after, end, b));
            }
            // (`#![cfg(test)]` does not occur in this workspace; ignore.)
            i = after;
            continue;
        }
        // Skip any further attributes in the stack to reach the item.
        let mut item_start = after;
        while let Some((_, _, _, next_after)) = parse_attr(tokens, item_start) {
            item_start = next_after;
        }
        if let Some((from, to)) = item_extent(tokens, item_start) {
            if is_cfg_test {
                test_ranges.push((from, to));
            }
            for b in blessings {
                blessed.push((from, to, b));
            }
        }
        i = after;
    }
    (test_ranges, blessed)
}

/// Parse `lint:allow(…) -- reason` suppression comments. Returns the
/// line → rules map and pushes `bad-suppression` diagnostics for
/// malformed or unknown-rule suppressions.
fn collect_suppressions(
    path: &str,
    comments: &[Comment<'_>],
    out: &mut Vec<Diagnostic>,
) -> HashMap<u32, Vec<String>> {
    let mut map: HashMap<u32, Vec<String>> = HashMap::new();
    for c in comments {
        // A suppression must *start* the comment (after the `//` / `/*`
        // marker) — prose that merely mentions the syntax, e.g. inside
        // backticks in a doc comment, is not parsed.
        let stripped = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !stripped.starts_with("lint:allow") {
            continue;
        }
        let rest = &stripped["lint:allow".len()..];
        let bad = |out: &mut Vec<Diagnostic>, why: &str| {
            out.push(Diagnostic {
                path: path.to_string(),
                line: c.line,
                col: c.col,
                rule: rules::BAD_SUPPRESSION,
                message: format!(
                    "{why}; write `lint:allow(<rule-id>) -- <reason>` with a non-empty reason"
                ),
            });
        };
        let Some(open) = rest.find('(') else {
            bad(out, "`lint:allow` without a rule list");
            continue;
        };
        if !rest[..open].trim().is_empty() {
            bad(out, "`lint:allow` without a rule list");
            continue;
        }
        let Some(close) = rest.find(')') else {
            bad(out, "unterminated `lint:allow(` rule list");
            continue;
        };
        let ids: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if ids.is_empty() {
            bad(out, "`lint:allow()` names no rule");
            continue;
        }
        if let Some(unknown) = ids.iter().find(|id| !rules::is_known_rule(id)) {
            bad(out, &format!("`lint:allow` names unknown rule `{unknown}`"));
            continue;
        }
        // Reason is mandatory: `-- <non-empty text>` after the rule list.
        let tail = rest[close + 1..].trim_start();
        let reason_ok = tail.strip_prefix("--").is_some_and(|r| {
            let r = r.trim_end_matches("*/").trim();
            !r.is_empty()
        });
        if !reason_ok {
            bad(out, "`lint:allow` without a `-- <reason>` justification");
            continue;
        }
        // The suppression covers its own line and — for a comment that
        // stands alone on its line — the line that follows it.
        let mut lines = vec![c.line];
        if c.own_line {
            lines.push(c.end_line + 1);
        }
        for line in lines {
            map.entry(line).or_default().extend(ids.iter().cloned());
        }
    }
    map
}

/// One file's per-file results plus the inputs the cross-file phase
/// needs (today: literal metric registrations for `metric-name-drift`).
pub struct FileAnalysis {
    pub diags: Vec<Diagnostic>,
    pub metric_sites: Vec<crate::metrics::MetricSite>,
}

/// Run the per-file phase over one file's source and collect the
/// cross-file inputs. `path` is used both for diagnostics and for
/// scope decisions (test vs. serving code), so callers should pass the
/// path as reached from the lint roots (e.g. `crates/core/src/engine.rs`).
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lx = lex(src);
    let mut out = Vec::new();
    let suppressions = collect_suppressions(path, &lx.comments, &mut out);
    let (test_ranges, blessed) = collect_attr_scopes(&lx.tokens);
    let ctx = Ctx {
        path,
        lx: &lx,
        test_file: is_test_path(path),
        test_ranges,
        blessed,
        suppressions,
        serving: is_serving_path(path),
    };
    rules::run_all(&ctx, &mut out);
    let metric_sites = crate::metrics::collect_sites(&ctx);
    sort_canonical(&mut out);
    FileAnalysis {
        diags: out,
        metric_sites,
    }
}

/// Lint one file's source: the per-file rules only. The cross-file
/// `metric-name-drift` phase needs the whole file set plus DESIGN.md
/// and runs in [`crate::lint_paths_with_design`].
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_source(path, src).diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_scoping() {
        assert!(is_test_path("crates/core/tests/fault_injection.rs"));
        assert!(is_test_path("crates/bench/benches/online.rs"));
        assert!(!is_test_path("crates/core/src/engine.rs"));
        assert!(is_serving_path("crates/core/src/engine.rs"));
        assert!(is_serving_path("crates/core/src/ingest.rs"));
        assert!(is_serving_path("./crates/cli/src/main.rs"));
        assert!(is_serving_path("crates/retrieval/src/ivf.rs"));
        assert!(is_serving_path("crates/serve/src/server.rs"));
        assert!(is_serving_path("crates/core/src/snapshot/binary.rs"));
        assert!(is_serving_path("crates/linalg/src/quant.rs"));
        assert!(!is_serving_path("crates/linalg/src/kernels.rs"));
        assert!(!is_serving_path("crates/core/tests/x.rs"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src =
            "fn prod() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let lx = lex(src);
        let (ranges, _) = collect_attr_scopes(&lx.tokens);
        assert_eq!(ranges.len(), 1);
        let unwrap_idx = lx
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        let (s, e) = ranges[0];
        assert!(s <= unwrap_idx && unwrap_idx <= e);
        let work_idx = lx
            .tokens
            .iter()
            .position(|t| t.is_ident("work"))
            .expect("work token");
        assert!(!(s <= work_idx && work_idx <= e));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let lx = lex(src);
        let (ranges, _) = collect_attr_scopes(&lx.tokens);
        assert!(ranges.is_empty());
    }

    #[test]
    fn allow_attr_blesses_item_range() {
        let src = "#[allow(clippy::indexing_slicing)]\nfn hot(v: &[f32], i: usize) -> f32 { v[i] }\nfn cold(v: &[f32]) -> f32 { v[0] }\n";
        let lx = lex(src);
        let (_, blessed) = collect_attr_scopes(&lx.tokens);
        assert_eq!(blessed.len(), 1);
        assert_eq!(blessed[0].2, Bless::Index);
        // The blessed range must cover `hot`'s body but not `cold`'s.
        let hot_open = lx
            .tokens
            .iter()
            .position(|t| t.is_ident("hot"))
            .expect("hot");
        let cold_open = lx
            .tokens
            .iter()
            .position(|t| t.is_ident("cold"))
            .expect("cold");
        let (s, e, _) = blessed[0];
        assert!(s <= hot_open && hot_open <= e);
        assert!(!(s <= cold_open && cold_open <= e));
    }

    #[test]
    fn suppression_requires_reason() {
        let diags = lint_source(
            "crates/eval/src/x.rs",
            "// lint:allow(todo-marker)\nfn f() {}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::BAD_SUPPRESSION);
    }

    #[test]
    fn suppression_rejects_unknown_rule() {
        let diags = lint_source(
            "crates/eval/src/x.rs",
            "// lint:allow(imaginary-rule) -- because\nfn f() {}\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("imaginary-rule"));
    }

    #[test]
    fn own_line_suppression_covers_next_line() {
        let src = "// lint:allow(no-unsafe) -- demo of the scoping rule\nunsafe { x() }\nunsafe { y() }\n";
        let diags = lint_source("crates/eval/src/x.rs", src);
        // Only the second `unsafe` (line 3) survives.
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "let p = unsafe { g() }; // lint:allow(no-unsafe) -- demo for the test\n";
        let diags = lint_source("crates/eval/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_suppression() {
        let src = "//! `lint:allow(rule-id)` must carry a reason.\nfn f() {}\n";
        let diags = lint_source("crates/eval/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
