//! The concurrency rule pack: lock-discipline checks built on the
//! block tree of [`crate::syntax`] and the guard live ranges of
//! [`crate::scopes`]. These target the serving stack's hand-rolled
//! synchronization — the `Mutex+Condvar` connection queue, the
//! `EngineCell` hot-swap path, and the ingest/refit threads — where a
//! blocked or panicking lock holder stalls every request behind it.

use crate::diag::Diagnostic;
use crate::engine::Ctx;
use crate::lexer::{Token, TokenKind};
use crate::scopes::{collect_guards, GuardSite};
use crate::syntax::Syntax;
use std::collections::BTreeSet;

pub const LOCK_ORDER: &str = "lock-order";
pub const BLOCKING_UNDER_LOCK: &str = "blocking-under-lock";
pub const LOCK_UNWRAP: &str = "lock-unwrap";
pub const CONDVAR_NO_LOOP: &str = "condvar-no-loop";

/// Calls that block the current thread (I/O, fits, sleeps). Making one
/// while a mutex guard is live turns the lock into a convoy: every
/// other thread queues behind a syscall or a multi-second fit. The
/// list is deliberately conservative — names like `write` or `join`
/// are too common to match without type information.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "fit",
    "accept",
    "connect",
    "read_request",
    "write_response",
    "write_response_with",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
    "flush",
    "recv",
    "recv_timeout",
];

fn is_p(tokens: &[Token<'_>], i: usize, p: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(p))
}

/// `tokens[i]` is the `lock` of a `<recv>.lock()` acquisition.
fn is_lock_call(tokens: &[Token<'_>], i: usize) -> bool {
    tokens[i].is_ident("lock")
        && i > 0
        && is_p(tokens, i - 1, '.')
        && is_p(tokens, i + 1, '(')
        && is_p(tokens, i + 2, ')')
}

/// Run the whole pack over one file.
pub fn run_concurrency(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    let syn = Syntax::build(tokens);
    let guards = collect_guards(tokens, &syn);
    lock_unwrap(ctx, out);
    blocking_under_lock(ctx, &guards, out);
    lock_order(ctx, &guards, out);
    condvar_no_loop(ctx, &syn, out);
}

/// `lock-unwrap`: `.lock().unwrap()` / `.lock().expect(…)` in serving
/// code. A panicking thread poisons the mutex, and poisoning then
/// panics every later locker — one bad request takes the whole server
/// down. Recover explicitly (`unwrap_or_else(PoisonError::into_inner)`
/// is the workspace idiom) or map to a typed error.
fn lock_unwrap(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.serving {
        return;
    }
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        if !is_lock_call(tokens, i) || ctx.is_test(i) {
            continue;
        }
        let Some(m) = tokens.get(i + 4) else { continue };
        let panics = is_p(tokens, i + 3, '.')
            && (m.is_ident("unwrap") || m.is_ident("expect"))
            && is_p(tokens, i + 5, '(');
        if panics {
            ctx.emit(
                out,
                m,
                LOCK_UNWRAP,
                format!(
                    "`.lock().{}(..)` panics on a poisoned mutex and cascades across threads; recover with `unwrap_or_else(PoisonError::into_inner)` or map to a typed error",
                    m.text
                ),
            );
        }
    }
}

/// `blocking-under-lock`: a blocking call — or a second `.lock()` —
/// made while a guard is live. Condvar waits are exempt: atomically
/// releasing the lock is their whole point.
fn blocking_under_lock(ctx: &Ctx<'_>, guards: &[GuardSite], out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    for g in guards {
        if ctx.is_test(g.lock_tok) {
            continue;
        }
        // Scan after the acquisition's closing paren.
        for k in g.lock_tok + 3..=g.live_to.min(tokens.len().saturating_sub(1)) {
            if ctx.is_test(k) {
                continue;
            }
            let t = &tokens[k];
            if t.kind != TokenKind::Ident || !is_p(tokens, k + 1, '(') {
                continue;
            }
            if is_lock_call(tokens, k) {
                ctx.emit(
                    out,
                    t,
                    BLOCKING_UNDER_LOCK,
                    format!(
                        "second `.lock()` while the `{}` guard from line {} is live; drop the first guard (or take both locks in one place) to avoid deadlock",
                        g.mutex, tokens[g.lock_tok].line
                    ),
                );
            } else if BLOCKING_CALLS.contains(&t.text) {
                ctx.emit(
                    out,
                    t,
                    BLOCKING_UNDER_LOCK,
                    format!(
                        "blocking call `{}(..)` while the `{}` guard from line {} is live stalls every thread behind the lock; drop the guard first",
                        t.text, g.mutex, tokens[g.lock_tok].line
                    ),
                );
            }
        }
    }
}

/// `lock-order`: within one file, two mutexes nested in one order in
/// one function and the inverted order in another. Token-level lock
/// identity is the dotted receiver path, so this sees exactly the
/// intra-file deadlocks that survive review because each function
/// looks fine on its own.
fn lock_order(ctx: &Ctx<'_>, guards: &[GuardSite], out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    // (outer mutex, inner mutex, inner lock token, fn name)
    let mut pairs: Vec<(&str, &str, usize, &str)> = Vec::new();
    for a in guards {
        if ctx.is_test(a.lock_tok) {
            continue;
        }
        for b in guards {
            if b.lock_tok > a.lock_tok && b.lock_tok <= a.live_to && a.mutex != b.mutex {
                pairs.push((&a.mutex, &b.mutex, b.lock_tok, &a.fn_name));
            }
        }
    }
    let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
    for p in &pairs {
        for q in &pairs {
            if p.0 == q.1 && p.1 == q.0 && q.2 > p.2 {
                let key = if p.0 < p.1 { (p.0, p.1) } else { (p.1, p.0) };
                if !reported.insert(key) {
                    continue;
                }
                // Report at the later site; the earlier order wins.
                ctx.emit(
                    out,
                    &tokens[q.2],
                    LOCK_ORDER,
                    format!(
                        "`{}` then `{}` here in `{}` inverts the `{}` then `{}` order taken in `{}` (line {}); pick one acquisition order to avoid deadlock",
                        q.0, q.1, q.3, p.0, p.1, p.3, tokens[p.2].line
                    ),
                );
            }
        }
    }
}

/// `condvar-no-loop`: `.wait(guard)` / `.wait_timeout(guard, …)` not
/// inside a `loop`/`while`/`for` body within its function. Condvars
/// wake spuriously; a wait whose predicate is not re-checked in a loop
/// proceeds on state that may not hold. (`wait_while` re-checks
/// internally and is exempt.)
fn condvar_no_loop(ctx: &Ctx<'_>, syn: &Syntax, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !(t.is_ident("wait") || t.is_ident("wait_timeout")) || ctx.is_test(i) {
            continue;
        }
        // Shape: `.wait(<guard ident>` — the guard argument is what
        // separates a condvar wait from `Child::wait()` and friends.
        let shape = i > 0
            && is_p(tokens, i - 1, '.')
            && is_p(tokens, i + 1, '(')
            && tokens
                .get(i + 2)
                .is_some_and(|a| a.kind == TokenKind::Ident)
            && tokens
                .get(i + 3)
                .is_some_and(|a| a.is_punct(')') || a.is_punct(','));
        if shape && !syn.in_loop_within_fn(i) {
            ctx.emit(
                out,
                t,
                CONDVAR_NO_LOOP,
                format!(
                    "`.{}(..)` outside a predicate loop proceeds on spurious wakeups; re-check the condition in a `while`/`loop` (or use `wait_while`)",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_source;

    const SERVING: &str = "crates/serve/src/fixture.rs";
    const PLAIN: &str = "crates/obs/src/fixture.rs";

    fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.rule.to_string(), d.line))
            .collect()
    }

    #[test]
    fn lock_unwrap_flags_serving_only() {
        let src = "fn f(&self) { let g = self.m.lock().unwrap(); use_it(&g); }\n";
        let hits = rules_at(SERVING, src);
        assert!(
            hits.iter().any(|(r, l)| r == "lock-unwrap" && *l == 1),
            "{hits:?}"
        );
        // Not a serving path → the sharper rule stays quiet.
        assert!(!rules_at(PLAIN, src).iter().any(|(r, _)| r == "lock-unwrap"));
    }

    #[test]
    fn lock_unwrap_does_not_double_report_as_panic_in_serving() {
        let src = "fn f(&self) { let g = self.m.lock().unwrap(); use_it(&g); }\n";
        let hits = rules_at(SERVING, src);
        assert!(
            !hits.iter().any(|(r, _)| r == "panic-in-serving"),
            "{hits:?}"
        );
    }

    #[test]
    fn poison_recovery_idiom_is_clean() {
        let src = "fn f(&self) { let g = self.m.lock().unwrap_or_else(|e| e.into_inner()); use_it(&g); }\n";
        assert!(rules_at(SERVING, src).is_empty());
    }

    #[test]
    fn blocking_call_under_live_guard_is_flagged() {
        let src = "fn f(&self) {\n    let g = self.m.lock().unwrap_or_else(|e| e.into_inner());\n    thread::sleep(self.tick);\n    use_it(&g);\n}\n";
        let hits = rules_at(PLAIN, src);
        assert_eq!(hits, vec![("blocking-under-lock".to_string(), 3)]);
    }

    #[test]
    fn drop_before_blocking_call_is_clean() {
        let src = "fn f(&self) {\n    let g = self.m.lock().unwrap_or_else(|e| e.into_inner());\n    drop(g);\n    thread::sleep(self.tick);\n}\n";
        assert!(rules_at(PLAIN, src).is_empty());
    }

    #[test]
    fn second_lock_under_live_guard_is_flagged() {
        let src = "fn f(&self) {\n    let a = self.first.lock().unwrap_or_else(|e| e.into_inner());\n    let b = self.second.lock().unwrap_or_else(|e| e.into_inner());\n    use_both(&a, &b);\n}\n";
        let hits = rules_at(PLAIN, src);
        assert_eq!(hits, vec![("blocking-under-lock".to_string(), 3)]);
    }

    #[test]
    fn condvar_wait_is_not_a_blocking_call() {
        let src = "fn pop(&self) {\n    let Ok(mut s) = self.state.lock() else { return; };\n    loop {\n        s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());\n    }\n}\n";
        assert!(rules_at(PLAIN, src).is_empty());
    }

    #[test]
    fn inverted_lock_order_across_fns_is_flagged_once() {
        let src = "fn a(&self) {\n    let x = self.alpha.lock().unwrap_or_else(|e| e.into_inner());\n    let y = self.beta.lock().unwrap_or_else(|e| e.into_inner());\n    go(&x, &y);\n}\nfn b(&self) {\n    let y = self.beta.lock().unwrap_or_else(|e| e.into_inner());\n    let x = self.alpha.lock().unwrap_or_else(|e| e.into_inner());\n    go(&x, &y);\n}\n";
        let hits = rules_at(PLAIN, src);
        let order: Vec<_> = hits.iter().filter(|(r, _)| r == "lock-order").collect();
        assert_eq!(order.len(), 1, "{hits:?}");
        assert_eq!(*order[0], ("lock-order".to_string(), 8));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "fn a(&self) {\n    let x = self.alpha.lock().unwrap_or_else(|e| e.into_inner());\n    let y = self.beta.lock().unwrap_or_else(|e| e.into_inner());\n    go(&x, &y);\n}\nfn b(&self) {\n    let x = self.alpha.lock().unwrap_or_else(|e| e.into_inner());\n    let y = self.beta.lock().unwrap_or_else(|e| e.into_inner());\n    go(&x, &y);\n}\n";
        let hits = rules_at(PLAIN, src);
        assert!(!hits.iter().any(|(r, _)| r == "lock-order"), "{hits:?}");
        // The nested second acquisitions still trip blocking-under-lock
        // (lines 3 and 8) — that is the point of that rule, not noise.
        assert_eq!(
            hits.iter()
                .filter(|(r, _)| r == "blocking-under-lock")
                .count(),
            2
        );
    }

    #[test]
    fn condvar_wait_outside_loop_is_flagged() {
        let src = "fn once(&self) {\n    let mut s = self.m.lock().unwrap_or_else(|e| e.into_inner());\n    s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());\n    use_it(&s);\n}\n";
        let hits = rules_at(PLAIN, src);
        assert!(
            hits.iter().any(|(r, l)| r == "condvar-no-loop" && *l == 3),
            "{hits:?}"
        );
    }

    #[test]
    fn condvar_wait_timeout_in_while_is_clean() {
        let src = "fn tick(&self) {\n    let mut s = self.m.lock().unwrap_or_else(|e| e.into_inner());\n    while !s.ready {\n        s = self.cv.wait_timeout(s, tick).unwrap_or_else(|e| e.into_inner()).0;\n    }\n}\n";
        assert!(rules_at(PLAIN, src).is_empty());
    }

    #[test]
    fn child_process_wait_is_not_a_condvar_wait() {
        let src = "fn reap(child: &mut Child) { let _ = child.wait(); }\n";
        assert!(rules_at(PLAIN, src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_blocking_under_lock() {
        let src = "fn f(&self) {\n    let g = self.m.lock().unwrap_or_else(|e| e.into_inner());\n    // lint:allow(blocking-under-lock) -- guard protects the sleep schedule itself\n    thread::sleep(self.tick);\n    use_it(&g);\n}\n";
        assert!(rules_at(PLAIN, src).is_empty());
    }
}
