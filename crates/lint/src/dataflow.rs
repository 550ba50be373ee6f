//! Interprocedural lock-set dataflow (DESIGN.md §12).
//!
//! Two layers. **Fact extraction** runs the lexical guard tracker
//! (the same `let`-binding / `drop(name)` / scope-close discipline as
//! the one-level pass) over every function body in the call graph and
//! records, per function: each lock acquisition with the guard set
//! held at that point, and each call site with the guard set held
//! across it. **Propagation** then flows entry lock-sets through call
//! edges to a fixed point: `Entry(callee) ⊇ HeldAt(call site) ∪
//! Entry(caller)` for every resolvable edge, with first-found
//! provenance so a finding can print the full inter-file call chain
//! from the frame that took the lock down to the acquisition it
//! poisons.
//!
//! Calls that match a manifest `fn` summary (e.g. `crash_point … try`,
//! `log.append`) do **not** create graph edges: the summary *is* the
//! callee's lock behaviour, checked at the call site, and deliberately
//! overrides the graph (that is how the sim hook's documented
//! rank-relaxation stays quiet). Everything the manifest does not
//! summarize flows through the graph.

use std::collections::{HashMap, VecDeque};

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::passes::{chain_ending_at, chain_matches};
use crate::{Config, SourceFile};

const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// A lock class held by a live guard, with the line it was taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldLock {
    pub class: usize,
    pub line: usize,
}

/// One blocking or try acquisition inside a function body — either a
/// raw `.lock()/.read()/.write()` site or a manifest `fn` summary call.
#[derive(Debug)]
pub struct AcquireFact {
    pub class: usize,
    pub line: usize,
    pub non_blocking: bool,
    /// Guards lexically held when this acquisition executes.
    pub held: Vec<HeldLock>,
    /// Dotted receiver/call chain, for finding messages.
    pub chain: String,
}

/// One call site that may resolve to workspace functions.
#[derive(Debug)]
pub struct CallFact {
    pub line: usize,
    pub name: String,
    /// `Type` of a `Type::name(…)` path call.
    pub qual_type: Option<String>,
    /// The receiver is exactly `self` (`self.name(…)`), so the callee
    /// is a method of the caller's own impl type.
    pub self_recv: bool,
    /// Guards lexically held across the call.
    pub held: Vec<HeldLock>,
}

/// Raw lock site the manifest cannot attribute to a class.
#[derive(Debug)]
pub struct UnrankedSite {
    pub line: usize,
    pub msg: String,
}

/// Everything the dataflow layers need to know about one function.
#[derive(Debug, Default)]
pub struct FnFacts {
    pub acquires: Vec<AcquireFact>,
    pub calls: Vec<CallFact>,
    pub unranked: Vec<UnrankedSite>,
    /// Lines of the `site` and `fn` entries of `lock_ranks.txt` that
    /// attributed an acquisition here (the stale-entry check).
    pub manifest_lines: Vec<usize>,
}

/// Where a class in a function's entry set came from.
#[derive(Debug, Clone, Copy)]
pub enum Prov {
    /// The caller lexically held the class (taken at `acq_line` in the
    /// caller) across the call at `call_line`.
    Direct {
        caller: usize,
        call_line: usize,
        acq_line: usize,
    },
    /// The class was already in the caller's own entry set.
    Inherited { caller: usize, call_line: usize },
}

/// Entry lock-set of each function: class index → provenance.
pub type EntrySets = Vec<HashMap<usize, Prov>>;

struct Guard {
    name: Option<String>,
    class: usize,
    line: usize,
}

/// Extract facts for every function in the graph. A `fn` nested
/// inside another's body is walked as its own function and its token
/// range skipped in the outer walk (the outer guards are not live
/// inside it at runtime).
pub fn extract(cfg: &Config, files: &[SourceFile], graph: &CallGraph) -> Vec<FnFacts> {
    graph
        .fns
        .iter()
        .enumerate()
        .map(|(k, info)| {
            let nested: Vec<(usize, usize)> = graph
                .fns
                .iter()
                .enumerate()
                .filter(|(j, o)| {
                    *j != k
                        && o.file == info.file
                        && o.body.0 > info.body.0
                        && o.body.1 <= info.body.1
                })
                .map(|(_, o)| o.body)
                .collect();
            extract_fn(cfg, &files[info.file], info.body, &nested)
        })
        .collect()
}

fn extract_fn(
    cfg: &Config,
    f: &SourceFile,
    body: (usize, usize),
    nested: &[(usize, usize)],
) -> FnFacts {
    let toks = &f.lexed.toks;
    let m = &cfg.lock_ranks;
    let mut facts = FnFacts::default();
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
    let mut cur_let: Option<String> = None;

    let held_now = |scopes: &[Vec<Guard>]| -> Vec<HeldLock> {
        scopes
            .iter()
            .flatten()
            .map(|g| HeldLock {
                class: g.class,
                line: g.line,
            })
            .collect()
    };

    let mut i = body.0;
    while i < body.1.min(toks.len()) {
        if let Some(&(_, end)) = nested.iter().find(|(s, e)| i >= *s && i < *e) {
            i = end; // jump to the nested fn's closing brace
            continue;
        }
        if f.regions.in_test[i] {
            i += 1;
            continue;
        }
        match &toks[i].kind {
            TokKind::Punct('{') => {
                scopes.push(Vec::new());
                cur_let = None;
            }
            TokKind::Punct('}') => {
                if scopes.len() > 1 {
                    scopes.pop();
                }
                cur_let = None;
            }
            TokKind::Punct(';') => cur_let = None,
            TokKind::Ident if toks[i].text == "let" => {
                cur_let = let_binding_name(toks, i);
            }
            TokKind::Ident if toks[i].text == "drop" => {
                if let (Some(a), Some(b), Some(c)) =
                    (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
                {
                    if a.is_punct('(') && b.kind == TokKind::Ident && c.is_punct(')') {
                        release_named(&mut scopes, &b.text);
                    }
                }
            }
            TokKind::Ident => {
                let name = toks[i].text.as_str();
                let zero_arg = toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
                let is_call = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                let after_dot = i > 0 && toks[i - 1].is_punct('.');
                let is_def = i > 0 && toks[i - 1].is_ident("fn");

                if after_dot && zero_arg && LOCK_METHODS.contains(&name) {
                    let line = toks[i].line;
                    let chain = chain_ending_at(toks, i);
                    let recv = match chain.rsplit_once('.') {
                        Some((head, _)) => head.to_string(),
                        None => chain.clone(),
                    };
                    match resolve_class(cfg, f, line, &recv) {
                        Ok((class, manifest_line)) => {
                            facts.manifest_lines.extend(manifest_line);
                            facts.acquires.push(AcquireFact {
                                class,
                                line,
                                non_blocking: name.starts_with("try_"),
                                held: held_now(&scopes),
                                chain: chain.clone(),
                            });
                            // `let g = x.lock();` keeps the guard; a
                            // chained use (`x.lock().field…`) is a
                            // statement temporary.
                            let chained = toks.get(i + 3).is_some_and(|t| t.is_punct('.'));
                            if let Some(bind) = cur_let.clone() {
                                if !chained {
                                    push_guard(&mut scopes, Some(bind), class, line);
                                }
                            }
                        }
                        Err(msg) => facts.unranked.push(UnrankedSite { line, msg }),
                    }
                } else if is_call && !is_def {
                    let chain = chain_ending_at(toks, i);
                    if let Some(pat) = m.fns.iter().find(|p| chain_matches(&chain, &p.call)) {
                        // Manifest fn summary: acquisition at the call
                        // site, no graph edge.
                        facts.manifest_lines.push(pat.line);
                        facts.acquires.push(AcquireFact {
                            class: pat.class,
                            line: toks[i].line,
                            non_blocking: pat.non_blocking,
                            held: held_now(&scopes),
                            chain,
                        });
                        if pat.guard {
                            if let Some(bind) = cur_let.clone() {
                                push_guard(&mut scopes, Some(bind), pat.class, toks[i].line);
                            }
                        }
                    } else {
                        let qual_type = if i >= 3
                            && toks[i - 1].is_punct(':')
                            && toks[i - 2].is_punct(':')
                            && toks[i - 3].kind == TokKind::Ident
                        {
                            Some(toks[i - 3].text.clone())
                        } else {
                            None
                        };
                        facts.calls.push(CallFact {
                            line: toks[i].line,
                            name: name.to_string(),
                            qual_type,
                            self_recv: chain == format!("self.{name}"),
                            held: held_now(&scopes),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// Class of a raw lock site, with the manifest line of the `site`
/// pattern that resolved it: an explicit `// morph-lint: rank(class)`
/// annotation wins (no manifest line); otherwise the site patterns
/// keyed by file and receiver suffix.
pub fn resolve_class(
    cfg: &Config,
    f: &SourceFile,
    line: usize,
    recv: &str,
) -> Result<(usize, Option<usize>), String> {
    let m = &cfg.lock_ranks;
    if let Some(d) = f
        .lexed
        .directives
        .iter()
        .find(|d| (d.line == line || d.line + 1 == line) && d.verb == "rank")
    {
        return m
            .class_idx(&d.arg)
            .map(|class| (class, None))
            .ok_or_else(|| format!("rank({}) names an unknown lock class", d.arg));
    }
    m.sites
        .iter()
        .find(|s| f.rel.contains(&s.file_sub) && chain_matches(recv, &s.recv))
        .map(|s| (s.class, Some(s.line)))
        .ok_or_else(|| {
            format!(
                "unranked lock site (receiver `{recv}`): add a `site` pattern to \
                 lock_ranks.txt or a `// morph-lint: rank(<class>)` annotation"
            )
        })
}

/// Resolve one call fact to workspace function indexes. Precision
/// over recall: `Type::name(…)` resolves by qualified name,
/// `self.name(…)` through the caller's own impl type, and anything
/// else only when exactly one workspace function bears the name — a
/// shared name (`apply`, `commit`, `route`) without a receiver type
/// would wire unrelated impls together and fabricate call chains.
/// Every candidate set is additionally filtered through the crate
/// dependency closure: `wal` code cannot call `storage` code, so
/// `BytesMut::freeze` in the codec can never resolve to
/// `Table::freeze` no matter how unique the name is.
pub fn resolve_call(graph: &CallGraph, caller: usize, call: &CallFact) -> Vec<usize> {
    let reachable = |defs: &[usize]| -> Vec<usize> {
        defs.iter()
            .copied()
            .filter(|&t| graph.cross_ok(caller, t))
            .collect()
    };
    if let Some(t) = &call.qual_type {
        let defs = reachable(graph.defs_of_qual(&format!("{t}::{}", call.name)));
        if !defs.is_empty() {
            return defs;
        }
        return unique_or_empty(reachable(graph.resolve_name(&call.name)));
    }
    if call.self_recv {
        if let Some((ty, _)) = graph.fns[caller].qual.rsplit_once("::") {
            let defs = reachable(graph.defs_of_qual(&format!("{ty}::{}", call.name)));
            if !defs.is_empty() {
                return defs;
            }
        }
    }
    unique_or_empty(reachable(graph.resolve_name(&call.name)))
}

fn unique_or_empty(defs: Vec<usize>) -> Vec<usize> {
    if defs.len() == 1 {
        defs
    } else {
        Vec::new()
    }
}

/// Fixed-point propagation of entry lock-sets along call edges.
pub fn propagate(graph: &CallGraph, facts: &[FnFacts]) -> EntrySets {
    let n = graph.fns.len();
    let mut entry: EntrySets = (0..n).map(|_| HashMap::new()).collect();
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();

    while let Some(fi) = work.pop_front() {
        queued[fi] = false;
        let inherited: Vec<usize> = entry[fi].keys().copied().collect();
        for call in &facts[fi].calls {
            for t in resolve_call(graph, fi, call) {
                if t == fi {
                    continue;
                }
                let mut changed = false;
                for h in &call.held {
                    entry[t].entry(h.class).or_insert_with(|| {
                        changed = true;
                        Prov::Direct {
                            caller: fi,
                            call_line: call.line,
                            acq_line: h.line,
                        }
                    });
                }
                for &c in &inherited {
                    entry[t].entry(c).or_insert_with(|| {
                        changed = true;
                        Prov::Inherited {
                            caller: fi,
                            call_line: call.line,
                        }
                    });
                }
                if changed && !queued[t] {
                    queued[t] = true;
                    work.push_back(t);
                }
            }
        }
    }
    entry
}

/// Human-readable call chain for class `class` arriving at function
/// `fi`'s entry: `\`A::f\` (a.rs:12) → \`B::g\` (b.rs:40) → \`C::h\``,
/// where the first frame is the one lexically holding the lock.
pub fn chain_for(
    entry: &EntrySets,
    graph: &CallGraph,
    files: &[SourceFile],
    fi: usize,
    class: usize,
) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut cur = fi;
    let mut hops = 0usize;
    loop {
        hops += 1;
        if hops > 64 {
            break;
        }
        let Some(prov) = entry[cur].get(&class) else {
            break;
        };
        match *prov {
            Prov::Direct {
                caller, call_line, ..
            } => {
                frames.push(frame_label(graph, files, caller, call_line));
                break;
            }
            Prov::Inherited { caller, call_line } => {
                frames.push(frame_label(graph, files, caller, call_line));
                cur = caller;
            }
        }
    }
    frames.reverse();
    frames.push(format!("`{}`", graph.fns[fi].qual));
    frames.join(" → ")
}

/// The origin frame of an inherited class at `fi`'s entry: the
/// function that *lexically* holds the lock and the line of the call
/// it makes while holding. Interprocedural findings anchor here — the
/// origin call site is where the fix (drop the guard first, or an
/// `allow` scoped to exactly this chain) belongs, not the shared
/// callee that performs the acquisition for every caller.
pub fn origin_for(entry: &EntrySets, fi: usize, class: usize) -> Option<(usize, usize)> {
    let mut cur = fi;
    for _ in 0..64 {
        match *entry[cur].get(&class)? {
            Prov::Direct {
                caller, call_line, ..
            } => return Some((caller, call_line)),
            Prov::Inherited { caller, .. } => cur = caller,
        }
    }
    None
}

fn frame_label(graph: &CallGraph, files: &[SourceFile], fi: usize, line: usize) -> String {
    let info = &graph.fns[fi];
    format!("`{}` ({}:{})", info.qual, files[info.file].rel, line)
}

fn push_guard(scopes: &mut [Vec<Guard>], name: Option<String>, class: usize, line: usize) {
    if let Some(top) = scopes.last_mut() {
        top.push(Guard { name, class, line });
    }
}

fn release_named(scopes: &mut [Vec<Guard>], name: &str) {
    for scope in scopes.iter_mut().rev() {
        if let Some(pos) = scope.iter().rposition(|g| g.name.as_deref() == Some(name)) {
            scope.remove(pos);
            return;
        }
    }
}

/// Binding name of a `let` statement: the last plain identifier
/// between `let` and `=` (skipping `mut`/`ref` and enum/wrapper
/// constructors), so `let mut g`, `let Some(g)`, `let (n, g)` all
/// yield `g`. Type ascriptions stop the scan at `:`.
fn let_binding_name(toks: &[crate::lexer::Tok], let_idx: usize) -> Option<String> {
    let mut name = None;
    let mut j = let_idx + 1;
    let mut in_type = false;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            TokKind::Punct('=') => break,
            TokKind::Punct(';') | TokKind::Punct('{') => return None,
            TokKind::Punct(':') => {
                in_type = true;
            }
            TokKind::Ident if !in_type => {
                let s = t.text.as_str();
                if !matches!(s, "mut" | "ref" | "Some" | "Ok" | "Err" | "Box") {
                    name = Some(s.to_string());
                }
            }
            _ => {}
        }
        j += 1;
        if j > let_idx + 64 {
            return None;
        }
    }
    name
}
