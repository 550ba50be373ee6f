//! Pass 7: snapshot-path purity. PR 8's reader guarantee —
//! `thread_lock_waits() == 0` under migration + writer fire
//! (DESIGN.md §14) — holds because `begin_snapshot` / `snapshot_read`
//! / `snapshot_scan` (and the lazy-mode interceptor's read path)
//! never touch the lock manager. This pass pins that statically: a
//! breadth-first walk from each configured root over the call graph
//! must not reach any function that blocking-acquires a lock-manager
//! class (`txn.lock_table`, `txn.held`), whether as a raw site or
//! through a manifest `fn` summary. Non-blocking peeks (`try_lock`,
//! manifest `try` fns) are exempt — they cannot wait.
//!
//! When a root can reach an acquire, the finding prints the full call
//! path so the offending edge is obvious. Name resolution is the
//! call-graph's (distinctive workspace names only), so the proof is
//! over the same under-approximated edge set as the interprocedural
//! lock pass — the manifest `fn` summaries cover the std-named seams.

use std::collections::{HashMap, VecDeque};

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
    let m = &cfg.lock_ranks;

    let mut forbidden = Vec::new();
    for name in &cfg.purity_forbidden {
        match m.class_idx(name) {
            Some(c) => forbidden.push(c),
            None => out.push(Finding {
                pass: "purity",
                file: "crates/lint/src/lib.rs".to_string(),
                line: 1,
                key: name.clone(),
                msg: format!("purity config names unknown lock class `{name}`"),
            }),
        }
    }

    for root_qual in &cfg.purity_roots {
        let roots = graph.defs_of_qual(root_qual);
        if roots.is_empty() {
            out.push(Finding {
                pass: "purity",
                file: "crates/lint/src/lib.rs".to_string(),
                line: 1,
                key: root_qual.clone(),
                msg: format!(
                    "purity root `{root_qual}` not found in the workspace — update the \
                     root list if the function moved"
                ),
            });
            continue;
        }
        for &root in roots {
            walk_root(
                cfg, files, graph, facts, &forbidden, root_qual, root, &mut out,
            );
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn walk_root(
    cfg: &Config,
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &[FnFacts],
    forbidden: &[usize],
    root_qual: &str,
    root: usize,
    out: &mut Vec<Finding>,
) {
    let m = &cfg.lock_ranks;
    // parent[v] = (caller, call line) for path reconstruction.
    let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
    let mut queue = VecDeque::new();
    parent.insert(root, (root, 0));
    queue.push_back(root);

    while let Some(v) = queue.pop_front() {
        if let Some(acq) = facts[v]
            .acquires
            .iter()
            .find(|a| !a.non_blocking && forbidden.contains(&a.class))
        {
            let file = &files[graph.fns[v].file];
            let path = path_to(graph, files, &parent, root, v);
            out.push(Finding {
                pass: "purity",
                file: file.rel.clone(),
                line: acq.line,
                key: format!("{root_qual}->{}", m.classes[acq.class].name),
                msg: format!(
                    "snapshot purity violation: `{root_qual}` can reach a blocking \
                     `{}` acquire (`{}`); path: {}; readers must never touch the lock \
                     manager (thread_lock_waits()==0, DESIGN.md §14)",
                    m.classes[acq.class].name, acq.chain, path
                ),
            });
            // One finding per reachable dirty function is enough; keep
            // walking so independent dirty callees all surface.
        }
        for call in &facts[v].calls {
            for t in dataflow::resolve_call(graph, v, call) {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(t) {
                    e.insert((v, call.line));
                    queue.push_back(t);
                }
            }
        }
    }
}

fn path_to(
    graph: &CallGraph,
    files: &[SourceFile],
    parent: &HashMap<usize, (usize, usize)>,
    root: usize,
    mut v: usize,
) -> String {
    let mut frames = Vec::new();
    let mut hops = 0usize;
    while v != root && hops < 64 {
        hops += 1;
        let info = &graph.fns[v];
        let (p, line) = parent[&v];
        frames.push(format!(
            "`{}` ({}:{})",
            info.qual, files[info.file].rel, line
        ));
        v = p;
    }
    frames.push(format!("`{}`", graph.fns[root].qual));
    frames.reverse();
    frames.join(" → ")
}
