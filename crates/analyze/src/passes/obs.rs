//! SA005/SA006 — observability coverage: the span/counter taxonomy of
//! `DESIGN.md` is a contract, not a suggestion.
//!
//! * **SA005** checks spans three ways: every `span!("...")` /
//!   `map_chunked(.., "...")` name literal in production code must be
//!   in the documented taxonomy; every documented span must actually be
//!   opened somewhere in its owning crate; and each phase-level function
//!   on the roster (`config::PHASE_FNS`) must open its span in its own
//!   body. Histogram families get the same two-directional treatment:
//!   every `observe("...")` name literal must be in
//!   `config::HISTOGRAMS`, and every documented family must be recorded
//!   in its owning crate. Finally the taxonomy itself must appear in
//!   `DESIGN.md`.
//! * **SA006** does the same for counters: every `counter("...")` name
//!   (and every `guard.degrade.*` string literal in production code)
//!   must be documented, and every documented counter must appear in
//!   `DESIGN.md`.

use crate::config;
use crate::lexer::TokKind;
use crate::registry::{Cx, Emitter, Pass};
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;

/// The span-coverage pass (SA005).
pub struct ObsPass;

fn production(f: &SourceFile) -> bool {
    matches!(f.kind, FileKind::Lib | FileKind::Bin)
}

/// Collects `(line, name)` span-name literals in `file`: the string
/// argument of `span!(..)` and the span-label argument of
/// `map_chunked` calls.
fn span_literals(file: &SourceFile) -> Vec<(u32, String)> {
    let toks = file.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        match t.text.as_str() {
            // `span!("name", ...)` — macro form.
            "span"
                if toks.get(i + 1).is_some_and(|b| b.is_punct('!'))
                    && toks.get(i + 2).is_some_and(|p| p.is_punct('(')) =>
            {
                if let Some(s) = toks.get(i + 3).filter(|s| s.kind == TokKind::Str) {
                    out.push((s.line, s.text.clone()));
                }
            }
            "map_chunked" => {
                // The span label is the first string literal among the
                // arguments.
                if !toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
                    continue;
                }
                for j in i + 2..(i + 16).min(toks.len()) {
                    match toks.get(j) {
                        Some(s) if s.kind == TokKind::Str => {
                            out.push((s.line, s.text.clone()));
                            break;
                        }
                        Some(p) if p.is_punct(')') || p.is_punct(';') => break,
                        Some(_) => continue,
                        None => break,
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Collects `(line, name)` counter-name literals: the string argument of
/// `counter("...")` calls plus any bare `guard.degrade.*` literal.
fn counter_literals(file: &SourceFile) -> Vec<(u32, String)> {
    let toks = file.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_code(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "counter" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|b| b.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|p| p.is_punct('(')) {
                if let Some(s) = toks.get(j + 1).filter(|s| s.kind == TokKind::Str) {
                    out.push((s.line, s.text.clone()));
                }
            }
        }
        // sa:allow(SA006): the detector's own pattern literal, not a counter
        if t.kind == TokKind::Str && t.text.starts_with("guard.degrade.") {
            out.push((t.line, t.text.clone()));
        }
    }
    out
}

/// Collects `(line, name)` histogram-family literals: the string
/// argument of `observe("...")` calls.
fn histogram_literals(file: &SourceFile) -> Vec<(u32, String)> {
    let toks = file.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "observe" || file.in_test_code(t.line) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            if let Some(s) = toks.get(i + 2).filter(|s| s.kind == TokKind::Str) {
                out.push((s.line, s.text.clone()));
            }
        }
    }
    out
}

fn check_sa005(ws: &Workspace, out: &mut Emitter) {
    // 1. Every opened span is documented.
    for file in ws.files.iter().filter(|f| production(f)) {
        for (line, name) in span_literals(file) {
            if !config::SPANS.iter().any(|(n, _)| *n == name) {
                out.emit(
                    file,
                    "SA005",
                    line,
                    format!(
                        "span `{name}` is not in the documented taxonomy; add it to \
                         DESIGN.md's Observability table and `config::SPANS`"
                    ),
                );
            }
        }
    }
    // 2. Every documented span is opened in its owning crate.
    for (name, owner) in config::SPANS {
        let opened = ws
            .files
            .iter()
            .filter(|f| f.crate_name == *owner && production(f))
            .any(|f| span_literals(f).iter().any(|(_, n)| n == name));
        if !opened {
            out.emit_path(
                "DESIGN.md",
                "SA005",
                0,
                format!("documented span `{name}` is never opened in crate `{owner}`"),
            );
        }
    }
    // 3. Phase-level functions open their span in their own body.
    for (krate, file_name, fn_name, span) in config::PHASE_FNS {
        let Some(file) = ws.files.iter().find(|f| {
            f.crate_name == *krate
                && f.kind == FileKind::Lib
                && f.path.ends_with(&format!("/{file_name}"))
        }) else {
            out.emit_path(
                &format!("crates/{krate}/src/{file_name}"),
                "SA005",
                0,
                format!("phase-function roster names missing file for `{fn_name}`"),
            );
            continue;
        };
        let toks = file.toks();
        let found = file.fns().iter().any(|f| {
            f.name == *fn_name
                && f.body.is_some_and(|(open, close)| {
                    toks.get(open..=close).is_some_and(|body| {
                        body.iter()
                            .any(|t| t.kind == TokKind::Str && t.text == *span)
                    })
                })
        });
        if !found {
            out.emit_path(
                &file.path,
                "SA005",
                0,
                format!("phase fn `{fn_name}` does not open its documented span `{span}`"),
            );
        }
    }
    // 4. Every recorded histogram family is documented.
    for file in ws.files.iter().filter(|f| production(f)) {
        for (line, name) in histogram_literals(file) {
            if !config::HISTOGRAMS.iter().any(|(n, _)| *n == name) {
                out.emit(
                    file,
                    "SA005",
                    line,
                    format!(
                        "histogram family `{name}` is not in the documented taxonomy; add \
                         it to DESIGN.md's histogram table and `config::HISTOGRAMS`"
                    ),
                );
            }
        }
    }
    // 5. Every documented histogram family is recorded in its owning crate.
    for (name, owner) in config::HISTOGRAMS {
        let recorded = ws
            .files
            .iter()
            .filter(|f| f.crate_name == *owner && production(f))
            .any(|f| histogram_literals(f).iter().any(|(_, n)| n == name));
        if !recorded {
            out.emit_path(
                "DESIGN.md",
                "SA005",
                0,
                format!(
                    "documented histogram family `{name}` is never recorded in crate `{owner}`"
                ),
            );
        }
    }
    // 6. The taxonomy is reflected in DESIGN.md.
    if let Some(design) = &ws.design {
        for (name, _) in config::SPANS {
            if !design.contains(name) {
                out.emit_path(
                    "DESIGN.md",
                    "SA005",
                    0,
                    format!("span `{name}` is missing from DESIGN.md's span table"),
                );
            }
        }
        for (name, _) in config::HISTOGRAMS {
            if !design.contains(name) {
                out.emit_path(
                    "DESIGN.md",
                    "SA005",
                    0,
                    format!(
                        "histogram family `{name}` is missing from DESIGN.md's histogram table"
                    ),
                );
            }
        }
    }
}

fn check_sa006(ws: &Workspace, out: &mut Emitter) {
    for file in ws.files.iter().filter(|f| production(f)) {
        for (line, name) in counter_literals(file) {
            if !config::COUNTERS.contains(&name.as_str()) {
                out.emit(
                    file,
                    "SA006",
                    line,
                    format!(
                        "counter `{name}` is not in the documented taxonomy; add it to \
                         DESIGN.md's counter table and `config::COUNTERS`"
                    ),
                );
            }
        }
    }
    if let Some(design) = &ws.design {
        for name in config::COUNTERS {
            if !design.contains(name) {
                out.emit_path(
                    "DESIGN.md",
                    "SA006",
                    0,
                    format!("counter `{name}` is missing from DESIGN.md's counter table"),
                );
            }
        }
    }
}

impl Pass for ObsPass {
    fn name(&self) -> &'static str {
        "obs-coverage"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SA005", "SA006"]
    }

    fn check(&self, cx: &Cx, out: &mut Emitter) {
        check_sa005(cx.ws, out);
        check_sa006(cx.ws, out);
    }
}
