//! Whole-workspace call graph (DESIGN.md §12).
//!
//! Walks every lexed file once and records each function definition —
//! with its impl/trait context as a qualified `Type::name` — plus the
//! token range of its body, so the dataflow pass can attribute lock
//! acquisitions and call sites to the function they occur in.
//!
//! Resolution is name-based (this is a lexer, not a type checker):
//! a call `x.foo(…)` or `foo(…)` resolves to every workspace function
//! named `foo`; a path call `Type::foo(…)` resolves to the functions
//! defined inside `impl Type` blocks. Names that collide with common
//! std-library methods (`get`, `insert`, `lock`, `append`, …) are
//! never resolved — edges through those seams are either irrelevant
//! or covered explicitly by a manifest `fn` summary, which takes
//! priority over the graph (see `passes::lock_order`). The result is
//! a deliberately *under*-approximated edge set over distinctive
//! workspace names: precise enough to chase multi-frame inversions,
//! conservative enough to stay false-positive-free without type
//! information.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::SourceFile;

/// One workspace function definition.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the file list handed to [`CallGraph::build`].
    pub file: usize,
    /// Bare name (`snapshot_read`).
    pub name: String,
    /// Qualified name (`Database::snapshot_read`), equal to `name`
    /// for free functions.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range `[start, end)` of the body (the tokens
    /// between the opening `{` and its matching `}`).
    pub body: (usize, usize),
}

/// The call graph: definitions plus name/qualified-name indexes.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<String, Vec<usize>>,
    /// Workspace crate names (`core`, `wal`, …) in index order.
    crate_names: Vec<String>,
    /// Crate index of each source file (None outside `crates/<x>/`).
    file_crate: Vec<Option<usize>>,
    /// Transitive dependency closure: `reach[a][b]` ⇔ crate `a` can
    /// call into crate `b` (includes `a == b`).
    reach: Vec<Vec<bool>>,
}

/// Method and free-function names that are never resolved to
/// workspace definitions: they collide with std-library methods on
/// collections, iterators, locks, strings, and smart pointers, so a
/// name-based edge through them would wire unrelated code together.
/// Load-bearing seams hiding behind such a name (`log.append`,
/// `locks().lock`, `catalog.get`) are covered by manifest `fn`
/// summaries instead.
const UNRESOLVED_NAMES: &[&str] = &[
    // construction / conversion
    "new",
    "default",
    "clone",
    "from",
    "into",
    "try_from",
    "try_into",
    "to_string",
    "to_owned",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_deref",
    "as_slice",
    "parse",
    "from_str",
    "build",
    // Option / Result plumbing
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "map_err",
    "and_then",
    "or_else",
    "take",
    "replace",
    "get_or_insert_with",
    "as_option",
    // collections
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "append",
    "extend",
    "clear",
    "retain",
    "drain",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "contains",
    "contains_key",
    "keys",
    "values",
    "values_mut",
    "len",
    "is_empty",
    "truncate",
    "split_off",
    "reserve",
    "shrink_to_fit",
    "binary_search",
    "binary_search_by",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "swap_remove",
    "first",
    "last",
    "front",
    "back",
    "range",
    "iter",
    "iter_mut",
    "into_iter",
    "split_at",
    "chunks",
    "windows",
    "concat",
    "join",
    "resize",
    "fill",
    "to_le_bytes",
    "from_le_bytes",
    // iterators
    "next",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "collect",
    "fold",
    "for_each",
    "find",
    "find_map",
    "position",
    "any",
    "all",
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "rev",
    "zip",
    "chain",
    "enumerate",
    "skip",
    "skip_while",
    "take_while",
    "step_by",
    "peekable",
    "peek",
    "cloned",
    "copied",
    "cycle",
    "by_ref",
    "nth",
    "unzip",
    "partition",
    "last_mut",
    // strings / paths / io
    "trim",
    "trim_start",
    "trim_end",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "split_whitespace",
    "splitn",
    "lines",
    "chars",
    "bytes",
    "repeat",
    "replace_all",
    "display",
    "exists",
    "is_dir",
    "is_file",
    "extension",
    "file_stem",
    "file_name",
    "read_to_string",
    "write_all",
    "read_exact",
    "flush",
    "sync_all",
    "sync_data",
    "seek",
    "rewind",
    "set_len",
    "metadata",
    "canonicalize",
    // sync / threads / time
    "lock",
    "try_lock",
    "read",
    "write",
    "try_read",
    "try_write",
    "wait",
    "wait_for",
    "wait_while",
    "notify_one",
    "notify_all",
    "spawn",
    "join_handle",
    "scope",
    "park",
    "unpark",
    "elapsed",
    "duration_since",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    // atomics (the atomics pass owns these)
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    // fmt / cmp / misc
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "index",
    "index_mut",
    "deref",
    "deref_mut",
    "drop",
    "abs",
    "powi",
    "powf",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "clamp",
    "rem_euclid",
    "to_bits",
    "signum",
    "min_assign",
    "max_assign",
    "borrow",
    "borrow_mut",
    "upgrade",
    "downgrade",
    "eprintln",
    "println",
    "print",
    "format",
    "write_fmt",
    "send",
    "recv",
    "try_recv",
    "call",
    "call_once",
    "finish",
    "hasher",
    "update",
    "reset",
    "resolve",
    "emit",
    "size_hint",
    "description",
    "source",
    "status",
];

/// Whether `name` participates in name-based call resolution.
pub fn resolvable(name: &str) -> bool {
    !UNRESOLVED_NAMES.contains(&name)
}

impl CallGraph {
    /// Functions named `name` (empty for blacklisted names).
    pub fn resolve_name(&self, name: &str) -> &[usize] {
        if !resolvable(name) {
            return &[];
        }
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Functions defined as `Type::name`; falls back to plain name
    /// resolution when no impl of that type defines one (trait-object
    /// dispatch, re-exports).
    pub fn resolve_qual(&self, ty: &str, name: &str) -> &[usize] {
        let qual = format!("{ty}::{name}");
        match self.by_qual.get(&qual) {
            Some(v) => v.as_slice(),
            None => self.resolve_name(name),
        }
    }

    /// Every definition index for an exact qualified name.
    pub fn defs_of_qual(&self, qual: &str) -> &[usize] {
        self.by_qual.get(qual).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether a call from `caller`'s crate can reach `target`'s crate
    /// through the workspace dependency graph. Unknown crates (files
    /// outside `crates/<x>/`, or an empty dependency map as in the
    /// fixture harness) resolve permissively.
    pub fn cross_ok(&self, caller: usize, target: usize) -> bool {
        let a = self.file_crate[self.fns[caller].file];
        let b = self.file_crate[self.fns[target].file];
        match (a, b) {
            (Some(a), Some(b)) => self.reach[a][b],
            _ => true,
        }
    }

    /// Build the graph over every non-test function definition.
    /// `crate_deps` carries each workspace member's direct dependencies
    /// (see `Config::crate_deps`); resolution uses its transitive
    /// closure to refuse impossible cross-crate edges.
    pub fn build(files: &[SourceFile], crate_deps: &HashMap<String, Vec<String>>) -> CallGraph {
        let mut g = CallGraph::default();
        for (fi, f) in files.iter().enumerate() {
            collect_fns(fi, f, &mut g);
        }
        for (i, info) in g.fns.iter().enumerate() {
            g.by_name.entry(info.name.clone()).or_default().push(i);
            g.by_qual.entry(info.qual.clone()).or_default().push(i);
        }

        let mut idx_of: HashMap<&str, usize> = HashMap::new();
        for name in crate_deps.keys() {
            let i = g.crate_names.len();
            if idx_of.insert(name.as_str(), i).is_none() {
                g.crate_names.push(name.clone());
            }
        }
        g.file_crate = files
            .iter()
            .map(|f| {
                let rest = f.rel.strip_prefix("crates/")?;
                let name = &rest[..rest.find('/')?];
                idx_of.get(name).copied()
            })
            .collect();
        let n = g.crate_names.len();
        g.reach = vec![vec![false; n]; n];
        for (a, name) in g.crate_names.iter().enumerate() {
            // DFS over direct edges from `a`.
            let mut stack = vec![name.as_str()];
            g.reach[a][a] = true;
            while let Some(cur) = stack.pop() {
                for dep in crate_deps.get(cur).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if let Some(&b) = idx_of.get(dep.as_str()) {
                        if !g.reach[a][b] {
                            g.reach[a][b] = true;
                            stack.push(dep.as_str());
                        }
                    }
                }
            }
        }
        g
    }
}

/// Impl/trait context: the type name a `fn` inside the block belongs
/// to. `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`, and
/// `trait Bar` (default methods) all yield a context.
fn impl_context(toks: &[crate::lexer::Tok], impl_idx: usize) -> Option<String> {
    let n = toks.len();
    let mut i = impl_idx + 1;
    let mut ty: Option<String> = None;
    let mut after_for = false;
    let mut angle = 0usize;
    while i < n {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = angle.saturating_sub(1),
            TokKind::Punct('{') | TokKind::Punct(';') if angle == 0 => break,
            TokKind::Ident if angle == 0 => {
                let t = toks[i].text.as_str();
                if t == "for" {
                    after_for = true;
                    ty = None;
                } else if t == "where" {
                    break;
                } else if ty.is_none() || after_for {
                    // First ident of the (possibly dotted) type path;
                    // later path segments (`a::b::Ty`) overwrite so the
                    // final segment wins.
                    ty = Some(t.to_string());
                    after_for = false;
                } else if toks[i - 1].is_punct(':') {
                    ty = Some(t.to_string());
                }
            }
            _ => {}
        }
        i += 1;
        if i > impl_idx + 64 {
            break;
        }
    }
    ty
}

fn collect_fns(fi: usize, f: &SourceFile, g: &mut CallGraph) {
    let toks = &f.lexed.toks;
    let n = toks.len();
    // (depth_at_open, kind) regions; kind: Some(fn index in g.fns)
    // for fn bodies, None for impl/trait/other blocks.
    let mut depth = 0usize;
    let mut stack: Vec<(usize, Option<usize>, Option<String>)> = Vec::new();
    let mut impl_ctx: Vec<(usize, String)> = Vec::new(); // (depth_at_open, type)
    let mut pending_fn: Option<(String, usize)> = None; // (name, line)
    let mut pending_impl: Option<String> = None;
    let mut pending_body = false;
    let mut nest = 0usize; // () / [] nesting

    let mut i = 0usize;
    while i < n {
        match &toks[i].kind {
            TokKind::Ident if toks[i].text == "impl" || toks[i].text == "trait" => {
                pending_impl = impl_context(toks, i);
                pending_body = true;
                pending_fn = None;
            }
            TokKind::Ident
                if toks[i].text == "fn"
                    && i + 1 < n
                    && toks[i + 1].kind == TokKind::Ident
                    && !f.regions.in_test[i] =>
            {
                pending_fn = Some((toks[i + 1].text.clone(), toks[i].line));
                pending_body = true;
            }
            TokKind::Ident if toks[i].text == "mod" => {
                pending_body = true;
                pending_fn = None;
            }
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest = nest.saturating_sub(1),
            TokKind::Punct(';') if nest == 0 => {
                // `fn f(…);` trait declaration or `mod m;` — no body.
                pending_fn = None;
                pending_body = false;
            }
            TokKind::Punct('{') => {
                if pending_body || pending_fn.is_some() {
                    let fn_slot = pending_fn.take().map(|(name, line)| {
                        let ctx = impl_ctx.last().map(|(_, t)| t.as_str());
                        let qual = match ctx {
                            Some(t) => format!("{t}::{name}"),
                            None => name.clone(),
                        };
                        g.fns.push(FnInfo {
                            file: fi,
                            name,
                            qual,
                            line,
                            body: (i + 1, i + 1), // end patched on close
                        });
                        g.fns.len() - 1
                    });
                    if fn_slot.is_none() {
                        if let Some(t) = pending_impl.take() {
                            impl_ctx.push((depth, t));
                        }
                    }
                    stack.push((depth, fn_slot, None));
                    pending_body = false;
                    pending_impl = None;
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some(top) = stack.last() {
                    if top.0 == depth {
                        if let Some(fn_idx) = top.1 {
                            g.fns[fn_idx].body.1 = i;
                        }
                        stack.pop();
                    }
                }
                if let Some(top) = impl_ctx.last() {
                    if top.0 == depth {
                        impl_ctx.pop();
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}
