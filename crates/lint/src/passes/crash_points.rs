//! Pass 3: crash-point registry. Every `crash_point("…")` literal must
//! be registered in `manifest/crash_points.txt`, every registered
//! point must still exist in non-test code (a bogus registry entry
//! would make the sim kill matrix demand a point that never fires),
//! and the per-point site counts must match so a copy-pasted literal
//! cannot silently double-count a census.
//!
//! Points passed to `crash_point` through a variable (the one
//! synchronization step looks up `sync.bc.drained`, the `sync.nba.*` /
//! `sync.nbc.*` families and `router.lazy_cutover` per strategy in
//! `sync::crash_points`) are covered by the literal-occurrence check:
//! the name must appear as a string literal somewhere in non-test
//! code, wherever the selection table lives.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::{Config, Finding, SourceFile};

pub fn run(cfg: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let m = &cfg.crash_points;

    // Duplicate registry entries.
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for p in &m.points {
        if let Some(first) = seen.insert(p.name.as_str(), p.line) {
            out.push(Finding {
                pass: "crash_point",
                file: cfg.crash_manifest_path.clone(),
                line: p.line,
                key: p.name.clone(),
                msg: format!(
                    "duplicate registration of crash point `{}` (first at line {first})",
                    p.name
                ),
            });
        }
    }

    // Literal occurrences per registered name, plus direct
    // `crash_point("…")` calls whose literal is unregistered.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for f in files {
        let toks = &f.lexed.toks;
        for (i, t) in toks.iter().enumerate() {
            if f.regions.in_test[i] {
                continue;
            }
            if t.kind == TokKind::Str {
                if let Some(p) = m.points.iter().find(|p| p.name == t.text) {
                    *counts.entry(p.name.as_str()).or_insert(0) += 1;
                }
            }
            if t.is_ident("crash_point")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
            {
                let lit = &toks[i + 2].text;
                if m.get(lit).is_none() {
                    out.push(Finding {
                        pass: "crash_point",
                        file: f.rel.clone(),
                        line: t.line,
                        key: lit.clone(),
                        msg: format!(
                            "crash_point(\"{lit}\") is not registered in {} — the sim kill \
                             matrix would never test it",
                            cfg.crash_manifest_path
                        ),
                    });
                }
            }
        }
    }

    for p in &m.points {
        let n = counts.get(p.name.as_str()).copied().unwrap_or(0);
        if n == 0 {
            out.push(Finding {
                pass: "crash_point",
                file: cfg.crash_manifest_path.clone(),
                line: p.line,
                key: p.name.clone(),
                msg: format!(
                    "registered crash point `{}` does not appear in non-test code — remove \
                     the bogus registry entry or add the crash_point call",
                    p.name
                ),
            });
        } else if n != p.sites {
            out.push(Finding {
                pass: "crash_point",
                file: cfg.crash_manifest_path.clone(),
                line: p.line,
                key: p.name.clone(),
                msg: format!(
                    "crash point `{}`: {} literal site(s) in code but manifest says sites={}",
                    p.name, n, p.sites
                ),
            });
        }
    }

    out
}
