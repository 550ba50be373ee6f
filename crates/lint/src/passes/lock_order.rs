//! Pass 1: lock-order checking against `manifest/lock_ranks.txt`.
//!
//! The lexical guard tracker lives in [`crate::dataflow`]:
//! `let`-bound results of `.lock()/.read()/.write()` (and of manifest
//! `fn … guard` calls) are live guards until their scope closes or an
//! explicit `drop(name)`. At every acquisition the live guard set is
//! checked: acquiring a class whose rank is **smaller** than a held
//! class's rank is an inversion (ranks order acquisition, outermost
//! first); acquiring a held class again is a re-acquire unless the
//! class is `multi` (sharded siblings taken in a canonical order).
//!
//! On top of that, each function's *entry lock-set* is propagated
//! through the whole-workspace call graph to a fixed point, so an
//! acquisition three frames beneath a held guard is flagged with the
//! complete inter-file call chain.
//!
//! Non-blocking acquisitions (`try_*`, manifest `try` fns) cannot
//! participate in a deadlock cycle's wait edge, so they are tracked
//! as held but never reported as inversions themselves.

use crate::callgraph::CallGraph;
use crate::dataflow::{self, FnFacts};
use crate::{Config, Finding, SourceFile};

pub fn run(
    cfg: &Config,
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &[FnFacts],
) -> Vec<Finding> {
    let mut out = Vec::new();
    intraprocedural(cfg, files, graph, facts, &mut out);
    interprocedural(cfg, files, graph, facts, &mut out);
    out
}

/// Checks every acquisition against the guards lexically held at that
/// point.
fn intraprocedural(
    cfg: &Config,
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &[FnFacts],
    out: &mut Vec<Finding>,
) {
    let m = &cfg.lock_ranks;
    for (fi, ff) in facts.iter().enumerate() {
        let file = &files[graph.fns[fi].file];
        for u in &ff.unranked {
            out.push(Finding {
                pass: "lock_order",
                file: file.rel.clone(),
                line: u.line,
                key: "unranked".to_string(),
                msg: u.msg.clone(),
            });
        }
        for a in &ff.acquires {
            if a.non_blocking {
                continue;
            }
            let new = &m.classes[a.class];
            for h in &a.held {
                let held = &m.classes[h.class];
                if held.rank > new.rank {
                    out.push(Finding {
                        pass: "lock_order",
                        file: file.rel.clone(),
                        line: a.line,
                        key: format!("{}<-{}", held.name, new.name),
                        msg: format!(
                            "lock-order inversion: acquiring `{}` (rank {}) while holding \
                             `{}` (rank {})",
                            new.name, new.rank, held.name, held.rank
                        ),
                    });
                } else if h.class == a.class && !new.multi {
                    out.push(Finding {
                        pass: "lock_order",
                        file: file.rel.clone(),
                        line: a.line,
                        key: format!("{}x2", new.name),
                        msg: format!(
                            "re-acquisition of lock class `{}` (rank {}) already held in \
                             this scope",
                            new.name, new.rank
                        ),
                    });
                }
            }
        }
    }
}

/// Checks every acquisition against the function's propagated *entry*
/// lock-set: classes held by some caller (any number of frames up)
/// whenever this function can run.
fn interprocedural(
    cfg: &Config,
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &[FnFacts],
    out: &mut Vec<Finding>,
) {
    let m = &cfg.lock_ranks;
    let entry = dataflow::propagate(graph, facts);
    for (fi, ff) in facts.iter().enumerate() {
        if entry[fi].is_empty() {
            continue;
        }
        let file = &files[graph.fns[fi].file];
        let mut held: Vec<usize> = entry[fi].keys().copied().collect();
        held.sort_by_key(|&c| m.classes[c].rank);
        for a in &ff.acquires {
            if a.non_blocking {
                continue;
            }
            let new = &m.classes[a.class];
            for &c in &held {
                // A class both inherited and lexically re-held here is
                // reported by the intraprocedural check already.
                if a.held.iter().any(|h| h.class == c) {
                    continue;
                }
                let held_class = &m.classes[c];
                let chain = dataflow::chain_for(&entry, graph, files, fi, c);
                // Anchor at the origin frame — the call made while the
                // lock is lexically held — so an `allow` there covers
                // exactly this chain, not every caller of the shared
                // callee that performs the acquisition.
                let (anchor_file, anchor_line) = match dataflow::origin_for(&entry, fi, c) {
                    Some((origin, call_line)) => {
                        (files[graph.fns[origin].file].rel.clone(), call_line)
                    }
                    None => (file.rel.clone(), a.line),
                };
                if held_class.rank > new.rank {
                    out.push(Finding {
                        pass: "lock_order",
                        file: anchor_file,
                        line: anchor_line,
                        key: format!("{}<-{}", held_class.name, new.name),
                        msg: format!(
                            "lock-order inversion (interprocedural): `{}` (rank {}) acquired \
                             at {}:{} with `{}` (rank {}) held by a caller; call chain: {}",
                            new.name,
                            new.rank,
                            file.rel,
                            a.line,
                            held_class.name,
                            held_class.rank,
                            chain
                        ),
                    });
                } else if c == a.class && !new.multi {
                    out.push(Finding {
                        pass: "lock_order",
                        file: anchor_file,
                        line: anchor_line,
                        key: format!("{}x2", new.name),
                        msg: format!(
                            "re-acquisition (interprocedural) of lock class `{}` (rank {}) at \
                             {}:{}, already held by a caller; call chain: {}",
                            new.name, new.rank, file.rel, a.line, chain
                        ),
                    });
                }
            }
        }
    }
}
