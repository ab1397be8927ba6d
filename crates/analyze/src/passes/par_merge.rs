//! SA011 — parallel-merge determinism: closures handed to
//! `hyde_core::parallel::map_chunked` must not smuggle order dependence
//! past the deterministic input-order merge.
//!
//! The scheduler guarantees byte-identical results across
//! `HYDE_THREADS` *only* when the worker closure is a pure function of
//! its item: block boundaries and steal order move with the thread
//! count and with runtime timing, so anything
//! the closure observes across items is observed in a thread-dependent
//! order. Three violation families are checked inside each worker
//! closure (production code only):
//!
//! * **captured shared mutable state** — `Mutex`/`RwLock`/`RefCell`/
//!   `Cell`/`UnsafeCell`/`Atomic*` mentions, `.lock()`/`.borrow_mut()`/
//!   `.fetch_*()`/`.store()` calls, and assignments or mutating method
//!   calls (`push`/`insert`/`extend`/…) whose root identifier is not
//!   declared inside the closure (param, `let`, `for`, match arm);
//! * **unordered-collection construction** — building a `HashMap`/
//!   `HashSet` inside the worker puts iteration-order nondeterminism
//!   directly in merge position;
//! * **order-sensitive float accumulation** — `+=` onto a captured
//!   identifier with float evidence in the statement, or
//!   `.sum::<f32/f64>()`: float addition is non-associative, so the
//!   result depends on chunking. (Per-item locals are fine — the merge
//!   is input-ordered.)

use crate::ast::{self, Expr};
use crate::lexer::{Tok, TokKind};
use crate::registry::{Cx, Emitter, Pass};
use crate::source::{FileKind, SourceFile};

/// The parallel-merge determinism pass (SA011).
pub struct ParMergePass;

const ENTRY_FN: &str = "map_chunked";
const SHARED_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "AtomicUsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicBool",
    "AtomicIsize",
    "AtomicI64",
];
const SHARED_METHODS: &[&str] = &["lock", "borrow_mut", "store", "swap", "compare_exchange"];
const MUTATING_METHODS: &[&str] = &[
    "push",
    "insert",
    "extend",
    "append",
    "push_str",
    "remove",
    "clear",
    "sort",
    "sort_unstable",
    "truncate",
];
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

fn production(f: &SourceFile) -> bool {
    matches!(f.kind, FileKind::Lib | FileKind::Bin)
}

/// Identifiers declared *inside* the closure: its params (nested
/// closures included), `let` bindings, `for` bindings, and a
/// backwards-from-`=>` heuristic for match-arm bindings.
fn declared_idents(closure: &Expr, toks: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut add = |s: &str| {
        if !out.iter().any(|o| o == s) {
            out.push(s.to_owned());
        }
    };
    // Params of this closure and every nested one.
    ast::visit(std::slice::from_ref(closure), &mut |e| {
        if let Expr::Closure { params, .. } = e {
            for p in params {
                add(p);
            }
        }
    });
    let Expr::Closure { span, .. } = closure else {
        return out;
    };
    let window = toks.get(span.0..=span.1).unwrap_or_default();
    for (i, t) in window.iter().enumerate() {
        // `let [mut] pat... =` — every ident in the pattern counts.
        if t.is_ident("let") {
            for j in i + 1..(i + 12).min(window.len()) {
                let Some(tj) = window.get(j) else { break };
                if tj.is_punct('=') || tj.is_punct(';') || tj.is_punct(':') {
                    break;
                }
                if tj.kind == TokKind::Ident && !crate::lexer::is_keyword(&tj.text) {
                    add(&tj.text);
                }
            }
        }
        // `for pat in ...`
        if t.is_ident("for") {
            for j in i + 1..(i + 8).min(window.len()) {
                let Some(tj) = window.get(j) else { break };
                if tj.is_ident("in") {
                    break;
                }
                if tj.kind == TokKind::Ident && !crate::lexer::is_keyword(&tj.text) {
                    add(&tj.text);
                }
            }
        }
        // `Pat(binding) =>` — look a few tokens back from each arrow.
        if t.is_punct('=') && window.get(i + 1).is_some_and(|n| n.is_punct('>')) {
            let lo = i.saturating_sub(6);
            for tj in window.get(lo..i).unwrap_or_default() {
                if tj.kind == TokKind::Ident && !crate::lexer::is_keyword(&tj.text) {
                    add(&tj.text);
                }
            }
        }
    }
    out
}

/// The root identifier of the dot-chain ending at the method call whose
/// `.` is at `dot` (walks `a.b.c.method(` back to `a`).
fn chain_root(window: &[Tok], dot: usize) -> Option<&Tok> {
    let mut i = dot;
    loop {
        let prev = window.get(i.checked_sub(1)?)?;
        if prev.kind != TokKind::Ident {
            return None;
        }
        match i.checked_sub(2).and_then(|j| window.get(j)) {
            Some(p) if p.is_punct('.') => i -= 2,
            _ => return Some(prev),
        }
    }
}

/// True when the statement around `at` carries float evidence.
fn float_statement(window: &[Tok], at: usize) -> bool {
    let lo = window[..at]
        .iter()
        .rposition(|t| t.is_punct(';') || t.is_punct('{'))
        .map_or(0, |p| p + 1);
    let hi = window[at..]
        .iter()
        .position(|t| t.is_punct(';') || t.is_punct('}'))
        .map_or(window.len(), |p| at + p);
    window
        .get(lo..hi)
        .unwrap_or_default()
        .iter()
        .any(|t| match t.kind {
            TokKind::Ident => t.text == "f32" || t.text == "f64",
            TokKind::Num => t.text.contains('.'),
            _ => false,
        })
}

fn check_closure(file: &SourceFile, label: &str, closure: &Expr, out: &mut Emitter) {
    let Expr::Closure { span, .. } = closure else {
        return;
    };
    let toks = file.toks();
    let declared = declared_idents(closure, toks);
    let window = toks.get(span.0..=span.1).unwrap_or_default();
    let is_declared = |name: &str| declared.iter().any(|d| d == name);
    for (i, t) in window.iter().enumerate() {
        // Shared-state types anywhere in the closure.
        if t.kind == TokKind::Ident && SHARED_TYPES.contains(&t.text.as_str()) {
            out.emit(
                file,
                "SA011",
                t.line,
                format!(
                    "worker closure passed to `{label}` touches shared-state type \
                     `{}`; chunk boundaries move with HYDE_THREADS, so cross-item \
                     state breaks the byte-identical merge",
                    t.text
                ),
            );
            continue;
        }
        // Unordered collections in merge position.
        if t.kind == TokKind::Ident && UNORDERED_TYPES.contains(&t.text.as_str()) {
            out.emit(
                file,
                "SA011",
                t.line,
                format!(
                    "worker closure passed to `{label}` builds a `{}`; unordered \
                     iteration in merge position defeats the deterministic \
                     input-order merge — use a BTree collection or sort",
                    t.text
                ),
            );
            continue;
        }
        if t.is_punct('.') {
            let Some(m) = window.get(i + 1).filter(|m| m.kind == TokKind::Ident) else {
                continue;
            };
            let called = window.get(i + 2).is_some_and(|p| p.is_punct('('))
                || (window.get(i + 2).is_some_and(|p| p.is_punct(':'))
                    && window.get(i + 3).is_some_and(|p| p.is_punct(':')));
            if !called {
                continue;
            }
            // `.sum::<f32>()` — non-associative reduction.
            if m.text == "sum" && window.get(i + 2).is_some_and(|p| p.is_punct(':')) {
                let turbofish = window
                    .get(i + 2..(i + 8).min(window.len()))
                    .unwrap_or_default();
                if turbofish
                    .iter()
                    .any(|t| t.is_ident("f32") || t.is_ident("f64"))
                {
                    out.emit(
                        file,
                        "SA011",
                        m.line,
                        format!(
                            "worker closure passed to `{label}` reduces with \
                             `.sum::<float>()`; float addition is non-associative, so \
                             the result depends on chunking — sum in the ordered merge \
                             instead"
                        ),
                    );
                }
                continue;
            }
            // Shared-state method calls, on any receiver.
            if SHARED_METHODS.contains(&m.text.as_str()) || m.text.starts_with("fetch_") {
                out.emit(
                    file,
                    "SA011",
                    m.line,
                    format!(
                        "worker closure passed to `{label}` calls `.{}()`; shared \
                         mutable state inside a chunked worker is merged in thread \
                         order, not input order",
                        m.text
                    ),
                );
                continue;
            }
            // Mutating methods on captured (not closure-declared) roots.
            if MUTATING_METHODS.contains(&m.text.as_str())
                && window.get(i + 2).is_some_and(|p| p.is_punct('('))
            {
                if let Some(root) = chain_root(window, i) {
                    if !is_declared(&root.text) && root.text != "self" {
                        out.emit(
                            file,
                            "SA011",
                            m.line,
                            format!(
                                "worker closure passed to `{label}` mutates captured \
                                 `{}` via `.{}()`; return the value and let the \
                                 deterministic merge combine it",
                                root.text, m.text
                            ),
                        );
                    }
                }
                continue;
            }
        }
        // `captured += ...` / `captured = ...` — direct assignment to a
        // captured identifier (compound ops lex as op + '=').
        if t.kind == TokKind::Ident
            && !crate::lexer::is_keyword(&t.text)
            && !is_declared(&t.text)
            && t.text != "self"
        {
            let prev_ok = i == 0
                || window.get(i - 1).is_some_and(|p| {
                    !p.is_punct('=')
                        && !p.is_punct('<')
                        && !p.is_punct('>')
                        && !p.is_punct('!')
                        && !p.is_punct('.')
                        && !p.is_punct(':')
                        && !p.is_ident("let")
                        && !p.is_ident("mut")
                });
            let (op, eq) = (window.get(i + 1), window.get(i + 2));
            // `x += e` (compound ops lex as op + '='), with `x ==`,
            // `x =>`, `x <= / >=` and `let x =` excluded.
            let compound = prev_ok
                && op.is_some_and(|o| {
                    o.is_punct('+') || o.is_punct('-') || o.is_punct('*') || o.is_punct('/')
                })
                && eq.is_some_and(|e| e.is_punct('='))
                && !window.get(i + 3).is_some_and(|n| n.is_punct('='))
                && !window.get(i + 3).is_some_and(|n| n.is_punct('>'));
            let plain = prev_ok
                && op.is_some_and(|o| o.is_punct('='))
                && !eq.is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
            if compound || plain {
                let flavor = if float_statement(window, i) {
                    "order-sensitive float accumulation onto captured"
                } else {
                    "assignment to captured"
                };
                out.emit(
                    file,
                    "SA011",
                    t.line,
                    format!(
                        "worker closure passed to `{label}` performs {flavor} `{}`; \
                         workers must be pure functions of their item — accumulate in \
                         the ordered merge instead",
                        t.text
                    ),
                );
            }
        }
    }
}

impl Pass for ParMergePass {
    fn name(&self) -> &'static str {
        "par-merge"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SA011"]
    }

    fn check(&self, cx: &Cx, out: &mut Emitter) {
        for file in cx.ws.files.iter().filter(|f| production(f)) {
            ast::visit_fns(&file.ast.items, &mut |_, decl| {
                if file.in_test_code(decl.line) {
                    return;
                }
                let Some(body) = &decl.body else { return };
                ast::visit(&body.exprs, &mut |e| {
                    let (name, args) = match e {
                        Expr::Call { path, args, .. } => {
                            (path.last().map(String::as_str).unwrap_or(""), args)
                        }
                        Expr::Method { name, args, .. } => (name.as_str(), args),
                        _ => return,
                    };
                    if name != ENTRY_FN {
                        return;
                    }
                    for arg in args {
                        for expr in arg {
                            if matches!(expr, Expr::Closure { .. }) {
                                check_closure(file, name, expr, out);
                            }
                        }
                    }
                });
            });
        }
    }
}
