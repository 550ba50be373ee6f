//! Pass 5: WAL byte order. Recovery correctness rests on "byte order
//! ≡ LSN order" (DESIGN.md §11): bytes reach the backend sink only
//! from the one approved WAL manager function, `drain_staged` (under
//! the backend lock, in LSN order). Any other `sink.append` or raw
//! `write_all` in the workspace bypasses that ordering and is
//! flagged. Files that *implement* the `Backend` trait are exempt —
//! they are below the ordering boundary, not callers of it.

use super::chain_ending_at;
use crate::lexer::TokKind;
use crate::{Config, Finding, SourceFile};

pub fn run(cfg: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if cfg
            .wal_backend_impls
            .iter()
            .any(|p| f.rel.ends_with(p.as_str()) || f.rel == *p)
        {
            continue;
        }
        let toks = &f.lexed.toks;
        for (i, t) in toks.iter().enumerate() {
            if f.regions.in_test[i] || t.kind != TokKind::Ident {
                continue;
            }
            if i == 0 || !toks[i - 1].is_punct('.') {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            let name = t.text.as_str();
            let offending = match name {
                "append" => {
                    let chain = chain_ending_at(toks, i);
                    chain.ends_with("sink.append") || chain == "sink.append"
                }
                "write_all" => true,
                _ => false,
            };
            if !offending {
                continue;
            }
            let here_fn = f.regions.fn_name(i).unwrap_or("");
            let approved = cfg
                .wal_write_fns
                .iter()
                .any(|(file, func)| f.rel == *file && here_fn == func);
            if !approved {
                out.push(Finding {
                    pass: "wal_bytes",
                    file: f.rel.clone(),
                    line: t.line,
                    key: name.to_string(),
                    msg: format!(
                        "backend byte write (`{name}`) outside the approved WAL drain \
                         function — byte order must equal LSN order (DESIGN.md §11)"
                    ),
                });
            }
        }
    }
    out
}
