//! SA010 — interprocedural budget flow.
//!
//! Entry points are production fns whose *signature* mentions `Budget`:
//! they accepted admission control and everything beneath them is
//! expected to stay bounded. For every fn reachable from such an entry
//! (in the budgeted crates) that constructs BDD nodes or invokes the
//! SAT solver, the budget must visibly flow through its own
//! signature-or-body window (`Budget`, `node_cap`, `guarded`, … — see
//! `config::BUDGET_EVIDENCE`). A reached constructor with no budget
//! evidence is a hole in the degradation ladder: work admitted under a
//! budget fans out into calls the budget cannot stop. Findings print
//! the call path from the entry point down to the offending fn.

use crate::lexer::{Tok, TokKind};
use crate::registry::{Cx, Emitter, Pass};
use crate::source::FileKind;
use crate::{config, resolve::FnNode, workspace::Workspace};

/// The budget-flow pass (SA010).
pub struct BudgetFlowPass;

fn budgeted_lib(ws: &Workspace, node: &FnNode) -> bool {
    let file = &ws.files[node.file];
    config::BUDGETED.contains(&file.crate_name.as_str())
        && file.kind == FileKind::Lib
        && !node.in_test
}

/// True when the token window contains a BDD-constructing or
/// SAT-invoking call.
fn constructs_bounded_work(toks: &[Tok]) -> bool {
    for (i, t) in toks.iter().enumerate() {
        // `.ite(` / `.and(` / ... method calls.
        if t.is_punct('.') {
            if let Some(m) = toks.get(i + 1).filter(|m| m.kind == TokKind::Ident) {
                if toks.get(i + 2).is_some_and(|p| p.is_punct('('))
                    && (config::BDD_CONSTRUCTORS.contains(&m.text.as_str()) || m.text == "solve")
                {
                    return true;
                }
            }
        }
        // `Bdd::new(` / `Bdd::with_capacity(`.
        if t.is_ident("Bdd")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|m| m.is_ident("new") || m.is_ident("with_capacity"))
        {
            return true;
        }
    }
    false
}

/// True when the signature-plus-body window shows budget evidence.
fn has_budget_evidence(toks: &[Tok]) -> bool {
    toks.iter()
        .any(|t| t.kind == TokKind::Ident && config::BUDGET_EVIDENCE.contains(&t.text.as_str()))
}

/// The fn's signature-plus-body token window.
fn fn_window<'a>(ws: &'a Workspace, node: &FnNode) -> &'a [Tok] {
    let toks = ws.files[node.file].toks();
    let end = node.body.as_ref().map_or(node.sig.1, |b| b.span.1);
    toks.get(node.sig.0..=end).unwrap_or_default()
}

impl Pass for BudgetFlowPass {
    fn name(&self) -> &'static str {
        "budget-flow"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SA010"]
    }

    fn check(&self, cx: &Cx, out: &mut Emitter) {
        let ws = cx.ws;
        let entries: Vec<usize> = cx
            .graph
            .syms
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.in_test
                    && ws.files[f.file].kind == FileKind::Lib
                    && f.sig_idents.iter().any(|s| s == "Budget")
            })
            .map(|(i, _)| i)
            .collect();
        if entries.is_empty() {
            return;
        }
        let fwd = cx.graph.forward_reach(&entries);
        for (idx, node) in cx.graph.syms.fns.iter().enumerate() {
            if !fwd.reached[idx] || !budgeted_lib(ws, node) {
                continue;
            }
            let Some(body) = &node.body else { continue };
            let file = &ws.files[node.file];
            let toks = file.toks();
            let body_toks = toks.get(body.span.0..=body.span.1).unwrap_or_default();
            if !constructs_bounded_work(body_toks) {
                continue;
            }
            if has_budget_evidence(fn_window(ws, node)) {
                continue;
            }
            let path = cx.graph.entry_path(ws, &fwd, idx);
            out.emit_with_path(
                file,
                "SA010",
                node.line,
                format!(
                    "fn `{}` is reachable from a `Budget`-accepting entry point and \
                     constructs BDD/SAT work, but no budget flows through it; thread the \
                     `guard::Budget` (or a node cap) down the path below",
                    node.name
                ),
                path,
            );
        }
    }
}
