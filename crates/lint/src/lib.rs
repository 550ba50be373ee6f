//! morph-lint: in-repo static analysis for the invariants the
//! concurrency work depends on and no compiler checks (DESIGN.md §12).
//!
//! Eight passes, each a module under [`passes`]:
//!
//! 1. `lock_order`  — lock acquisitions must follow the checked-in
//!    rank manifest (`manifest/lock_ranks.txt`); entry lock-sets are
//!    propagated through the whole-workspace call graph to a fixed
//!    point ([`callgraph`] + [`dataflow`]).
//! 2. `nondet`      — no ambient time/entropy in replay-deterministic
//!    code (sim, core, wal, txn) without an allow escape.
//! 3. `crash_point` — every `crash_point("…")` literal registered in
//!    `manifest/crash_points.txt`, and no bogus registry entries.
//! 4. `panic`       — no `unwrap()/expect()/panic!` in non-test
//!    library code without an allow escape.
//! 5. `wal_bytes`   — backend writes only inside the approved WAL
//!    manager drain function ("byte order ≡ LSN order").
//! 6. `atomics`     — every `Atomic*` field declared with a protocol
//!    role in `manifest/atomics.txt`, and every site's `Ordering` at
//!    least the role's minimum for that site kind.
//! 7. `purity`      — snapshot readers (`snapshot_read`/`snapshot_scan`
//!    and the lazy interceptor) cannot reach a blocking lock-manager
//!    acquire through the call graph.
//! 8. `stale_allow` — an `allow(…)` escape that no longer suppresses
//!    any finding is itself a finding.
//!
//! Escape grammar: `// morph-lint: allow(<pass>, <reason>)` on the
//! finding's line or the line directly above it; `// morph-lint:
//! rank(<class>)` assigns a lock class to a site the receiver
//! patterns cannot attribute. Suppression is applied centrally in
//! [`run_all`], which is what lets the stale-allow audit know which
//! escapes earned their keep.

pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod scope;

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub file: String,
    pub line: usize,
    /// Stable discriminator for machine-readable IDs: the lock chain
    /// key, atomic field, crash-point name, … — whatever makes the
    /// finding unique at its (pass, file, line).
    pub key: String,
    pub msg: String,
}

impl Finding {
    /// Stable identifier for `--json` artifacts and cross-PR diffing.
    pub fn id(&self) -> String {
        format!("{}@{}:{}#{}", self.pass, self.file, self.line, self.key)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.msg
        )
    }
}

/// One lexed workspace source file.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    pub lexed: lexer::Lexed,
    pub regions: scope::Regions,
}

impl SourceFile {
    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let regions = scope::analyze(&lexed.toks);
        SourceFile {
            rel: rel.to_string(),
            lexed,
            regions,
        }
    }

    /// True when an `allow(<pass>)` escape covers `line`.
    pub fn allowed(&self, line: usize, pass: &str) -> bool {
        self.lexed.directive_for(line, "allow", pass).is_some()
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            // `foo_tests.rs` files are `#[cfg(test)] mod foo_tests;`
            // modules — the gate lives at the declaration site, so the
            // file itself cannot show it. Skip them wholesale.
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if !stem.ends_with("_tests") {
                out.push(path);
            }
        }
    }
    Ok(())
}

/// Load every library source file of the workspace: `src/` of the root
/// package and `crates/*/src`. Integration tests, benches, fixtures
/// and the offline dependency shims are intentionally out of scope.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            std::fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    let mut paths = Vec::new();
    for dir in &dirs {
        if dir.is_dir() {
            walk_rs(dir, &mut paths).map_err(|e| format!("walk {}: {e}", dir.display()))?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push(SourceFile::from_source(&rel, &src));
    }
    Ok(files)
}

/// Pass configuration resolved from the repo layout. Kept explicit so
/// the fixture tests can point the same passes at synthetic trees.
pub struct Config {
    pub lock_ranks: manifest::LockRanks,
    /// Path the lock-rank manifest was loaded from (for findings).
    pub lock_ranks_path: String,
    pub crash_points: manifest::CrashManifest,
    /// Path the crash manifest was loaded from (for findings).
    pub crash_manifest_path: String,
    /// Path prefixes forming the replay-deterministic zone (pass 2).
    pub det_zones: Vec<String>,
    /// Path prefixes exempt from the panic audit (experiment drivers).
    pub panic_exempt: Vec<String>,
    /// (file, function) pairs allowed to write WAL backend bytes.
    pub wal_write_fns: Vec<(String, String)>,
    /// Files exempt from pass 5 because they *implement* the backend.
    pub wal_backend_impls: Vec<String>,
    /// The atomics protocol manifest (pass 6).
    pub atomics: manifest::AtomicsManifest,
    /// Path the atomics manifest was loaded from (for findings).
    pub atomics_manifest_path: String,
    /// Path prefixes forming the strict atomics zone: every `Atomic*`
    /// field declared there must be in the manifest.
    pub atomics_zones: Vec<String>,
    /// Qualified names (`Type::fn`) of the snapshot-path roots the
    /// purity pass proves lock-manager-free.
    pub purity_roots: Vec<String>,
    /// Lock-class names whose blocking acquisition marks a function
    /// dirty for the purity pass.
    pub purity_forbidden: Vec<String>,
    /// Workspace crate dependency edges (`core` → `[storage, wal, …]`),
    /// parsed from the member `Cargo.toml`s. Call resolution refuses
    /// cross-crate edges the dependency graph cannot carry — a `wal`
    /// function cannot call into `storage`, so a name collision across
    /// that boundary is provably a different function.
    pub crate_deps: std::collections::HashMap<String, Vec<String>>,
}

impl Config {
    pub fn for_repo(root: &Path) -> Result<Config, String> {
        let ranks_path = root.join("crates/lint/manifest/lock_ranks.txt");
        let points_path = root.join("crates/lint/manifest/crash_points.txt");
        let atomics_path = root.join("crates/lint/manifest/atomics.txt");
        let ranks = std::fs::read_to_string(&ranks_path)
            .map_err(|e| format!("read {}: {e}", ranks_path.display()))?;
        let points = std::fs::read_to_string(&points_path)
            .map_err(|e| format!("read {}: {e}", points_path.display()))?;
        let atomics = std::fs::read_to_string(&atomics_path)
            .map_err(|e| format!("read {}: {e}", atomics_path.display()))?;
        Ok(Config {
            lock_ranks: manifest::LockRanks::parse(&ranks)?,
            lock_ranks_path: "crates/lint/manifest/lock_ranks.txt".to_string(),
            crash_points: manifest::CrashManifest::parse(&points)?,
            crash_manifest_path: "crates/lint/manifest/crash_points.txt".to_string(),
            atomics: manifest::AtomicsManifest::parse(&atomics)?,
            atomics_manifest_path: "crates/lint/manifest/atomics.txt".to_string(),
            atomics_zones: vec![
                "crates/core/src".into(),
                "crates/wal/src".into(),
                "crates/storage/src".into(),
                "crates/txn/src".into(),
                "crates/engine/src".into(),
            ],
            purity_roots: vec![
                "Database::begin_snapshot".into(),
                "Database::snapshot_read".into(),
                "Database::snapshot_scan".into(),
                "LazyMigration::before_op".into(),
            ],
            purity_forbidden: vec!["txn.lock_table".into(), "txn.held".into()],
            det_zones: vec![
                "crates/sim/src".into(),
                "crates/core/src".into(),
                "crates/wal/src".into(),
                "crates/txn/src".into(),
            ],
            panic_exempt: vec!["crates/bench/src".into()],
            wal_write_fns: vec![("crates/wal/src/manager.rs".into(), "drain_staged".into())],
            wal_backend_impls: vec![
                "crates/wal/src/file.rs".into(),
                "crates/wal/src/fault.rs".into(),
            ],
            crate_deps: load_crate_deps(root)?,
        })
    }
}

/// Parse the direct workspace-member dependencies of every crate under
/// `crates/` from its `Cargo.toml`: a line `morph-<x>.workspace = true`
/// (or `morph-<x> = { … }`) in the `[dependencies]` section is an edge
/// to the member directory `crates/<x>`. Dev-dependencies are excluded
/// — test code is outside the lint surface anyway.
fn load_crate_deps(root: &Path) -> Result<std::collections::HashMap<String, Vec<String>>, String> {
    let mut deps: std::collections::HashMap<String, Vec<String>> = std::collections::HashMap::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let manifest = entry.path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        let mut in_deps = false;
        let mut edges = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(section) = line.strip_prefix('[') {
                in_deps = section.trim_end_matches(']') == "dependencies";
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.strip_prefix("morph-") {
                let dep: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !dep.is_empty() {
                    edges.push(dep);
                }
            }
        }
        deps.insert(name, edges);
    }
    Ok(deps)
}

pub const PASSES: [&str; 8] = [
    "lock_order",
    "nondet",
    "crash_point",
    "panic",
    "wal_bytes",
    "atomics",
    "purity",
    "stale_allow",
];

/// Run every pass, apply `allow(…)` suppression centrally, then audit
/// the escapes themselves; findings come back sorted by file/line.
pub fn run_all(cfg: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let graph = callgraph::CallGraph::build(files, &cfg.crate_deps);
    let facts = dataflow::extract(cfg, files, &graph);

    let mut findings = Vec::new();
    findings.extend(passes::lock_order::run(cfg, files, &graph, &facts));
    findings.extend(passes::nondet::run(cfg, files));
    findings.extend(passes::crash_points::run(cfg, files));
    findings.extend(passes::panic_audit::run(cfg, files));
    findings.extend(passes::wal_bytes::run(cfg, files));
    findings.extend(passes::atomics::run(cfg, files));
    findings.extend(passes::purity::run(cfg, files, &graph, &facts));

    // Central suppression: an `allow(<pass>)` on the finding's line or
    // the line above swallows it — and is thereby marked *used*.
    let mut used: HashSet<(usize, usize, String)> = HashSet::new();
    findings.retain(|fd| {
        let Some(fi) = files.iter().position(|f| f.rel == fd.file) else {
            return true; // manifest-side findings cannot be suppressed
        };
        match files[fi].lexed.directive_for(fd.line, "allow", fd.pass) {
            Some(d) => {
                used.insert((fi, d.line, d.arg.clone()));
                false
            }
            None => true,
        }
    });

    // Stale-allow audit.
    for (fi, f) in files.iter().enumerate() {
        for d in &f.lexed.directives {
            if d.verb != "allow" || !PASSES.contains(&d.arg.as_str()) {
                continue;
            }
            if !used.contains(&(fi, d.line, d.arg.clone())) {
                findings.push(Finding {
                    pass: "stale_allow",
                    file: f.rel.clone(),
                    line: d.line,
                    key: d.arg.clone(),
                    msg: format!(
                        "stale escape: `allow({})` no longer suppresses any finding — \
                         remove it so the audit trail stays honest",
                        d.arg
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Render findings as a JSON array with stable IDs (no dependencies:
/// hand-rolled, ASCII-escaped).
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 || (c as u32) > 0x7e => {
                    for u in c.encode_utf16(&mut [0u16; 2]) {
                        out.push_str(&format!("\\u{:04x}", u));
                    }
                }
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\":\"{}\",\"pass\":\"{}\",\"file\":\"{}\",\"line\":{},\"key\":\"{}\",\"msg\":\"{}\"}}{}\n",
            esc(&f.id()),
            esc(f.pass),
            esc(&f.file),
            f.line,
            esc(&f.key),
            esc(&f.msg),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
