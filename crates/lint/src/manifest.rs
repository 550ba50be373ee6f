//! Checked-in manifests the passes are seeded from.
//!
//! `manifest/lock_ranks.txt` — the lock-rank table (pass 1). Grammar,
//! one directive per line, `#` comments:
//!
//! ```text
//! class <name> <rank> [multi]
//! site  <class> <file-substring> <receiver-suffix>
//! fn    <class> <call-suffix> [guard] [try]
//! ```
//!
//! Ranks order *acquisition*: a lock may only be acquired while every
//! lock already held has a **smaller** rank (outermost = smallest).
//! `multi` permits nested same-class acquisition (sharded siblings
//! taken in index order). `site` maps a raw `.lock()/.read()/.write()`
//! receiver to a class; `fn` maps a call (one-level call-graph edge)
//! to the class that callee acquires internally — `guard` if a `let`
//! binding of its result keeps the lock held, `try` if the acquisition
//! is non-blocking (exempt from inversion checks, still tracked).
//! A `site` line that resolves no lock expression, and a `fn` line
//! that matches no call, are stale and reported as findings.
//!
//! `manifest/crash_points.txt` — the crash-point registry (pass 3 and
//! the sim kill matrix). Grammar:
//!
//! ```text
//! point <name> sites=<n> strategy=<any|bc|nba|nbc> kind=<loop|step> [inject] [optional]
//! ```
//!
//! `manifest/atomics.txt` — the atomics ordering protocol (pass 6).
//! Grammar:
//!
//! ```text
//! atomic <field> <decl-file-substring> <publish|consume|counter|seal>
//! ```
//!
//! The role fixes the minimum `Ordering` per site kind — see
//! `passes::atomics` for the lattice. Every `Atomic*` struct field in
//! the strict zone must be declared, and every declared field must
//! still exist, so the manifest and the code cannot drift apart.

use std::collections::HashMap;

#[derive(Debug, Clone)]
pub struct LockClass {
    pub name: String,
    pub rank: u32,
    pub multi: bool,
}

#[derive(Debug, Clone)]
pub struct SitePattern {
    pub class: usize,
    /// Substring of the repo-relative path this pattern applies to.
    pub file_sub: String,
    /// Dotted receiver suffix, e.g. `shard.map` or `self.shards[]`.
    pub recv: String,
    /// 1-based line in the manifest file, for stale-entry findings.
    pub line: usize,
}

#[derive(Debug, Clone)]
pub struct FnPattern {
    pub class: usize,
    /// Dotted call suffix, e.g. `crash_point` or `log.append`.
    pub call: String,
    /// `let`-binding the result keeps the lock held.
    pub guard: bool,
    /// Non-blocking acquisition: tracked but exempt from order checks.
    pub non_blocking: bool,
    /// 1-based line in the manifest file, for stale-entry findings.
    pub line: usize,
}

#[derive(Debug, Default)]
pub struct LockRanks {
    pub classes: Vec<LockClass>,
    pub sites: Vec<SitePattern>,
    pub fns: Vec<FnPattern>,
}

impl LockRanks {
    pub fn class_idx(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }

    pub fn parse(src: &str) -> Result<LockRanks, String> {
        let mut m = LockRanks::default();
        let mut ranks_seen: HashMap<u32, String> = HashMap::new();
        for (ln, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |m: String| format!("lock_ranks.txt:{}: {}", ln + 1, m);
            match parts.next() {
                Some("class") => {
                    let name = parts.next().ok_or_else(|| err("missing name".into()))?;
                    let rank: u32 = parts
                        .next()
                        .and_then(|r| r.parse().ok())
                        .ok_or_else(|| err("missing/bad rank".into()))?;
                    let multi = parts.next() == Some("multi");
                    if let Some(prev) = ranks_seen.insert(rank, name.to_string()) {
                        return Err(err(format!("rank {rank} already used by {prev}")));
                    }
                    if m.class_idx(name).is_some() {
                        return Err(err(format!("duplicate class {name}")));
                    }
                    m.classes.push(LockClass {
                        name: name.to_string(),
                        rank,
                        multi,
                    });
                }
                Some("site") => {
                    let class = parts.next().ok_or_else(|| err("missing class".into()))?;
                    let file_sub = parts.next().ok_or_else(|| err("missing file".into()))?;
                    let recv = parts.next().ok_or_else(|| err("missing receiver".into()))?;
                    let class = m
                        .class_idx(class)
                        .ok_or_else(|| err(format!("unknown class {class}")))?;
                    m.sites.push(SitePattern {
                        class,
                        file_sub: file_sub.to_string(),
                        recv: recv.to_string(),
                        line: ln + 1,
                    });
                }
                Some("fn") => {
                    let class = parts.next().ok_or_else(|| err("missing class".into()))?;
                    let call = parts.next().ok_or_else(|| err("missing call".into()))?;
                    let class = m
                        .class_idx(class)
                        .ok_or_else(|| err(format!("unknown class {class}")))?;
                    let mut guard = false;
                    let mut non_blocking = false;
                    for flag in parts {
                        match flag {
                            "guard" => guard = true,
                            "try" => non_blocking = true,
                            other => return Err(err(format!("unknown flag {other}"))),
                        }
                    }
                    m.fns.push(FnPattern {
                        class,
                        call: call.to_string(),
                        guard,
                        non_blocking,
                        line: ln + 1,
                    });
                }
                Some(other) => {
                    return Err(format!(
                        "lock_ranks.txt:{}: unknown directive {other}",
                        ln + 1
                    ))
                }
                None => {}
            }
        }
        Ok(m)
    }
}

/// Which sync strategies a crash point can fire under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStrategy {
    Any,
    Bc,
    Nba,
    Nbc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// Fires many times per run (kill at first/middle/last occurrence).
    Loop,
    /// Fires a bounded number of times (kill at the last occurrence).
    Step,
}

#[derive(Debug, Clone)]
pub struct CrashPoint {
    pub name: String,
    /// Number of `crash_point`/literal sites in non-test code.
    pub sites: usize,
    pub strategy: PointStrategy,
    pub kind: PointKind,
    /// Safe workload-injection point (no table latches held there).
    pub inject: bool,
    /// May legitimately never fire in a census (e.g. abort paths);
    /// exempt from the kill-matrix coverage requirement.
    pub optional: bool,
    /// 1-based line in the manifest file, for findings.
    pub line: usize,
}

#[derive(Debug, Default)]
pub struct CrashManifest {
    pub points: Vec<CrashPoint>,
}

impl CrashManifest {
    pub fn get(&self, name: &str) -> Option<&CrashPoint> {
        self.points.iter().find(|p| p.name == name)
    }

    pub fn parse(src: &str) -> Result<CrashManifest, String> {
        let mut m = CrashManifest::default();
        for (ln, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("crash_points.txt:{}: {}", ln + 1, msg);
            let mut parts = line.split_whitespace();
            if parts.next() != Some("point") {
                return Err(err("expected `point`".into()));
            }
            let name = parts.next().ok_or_else(|| err("missing name".into()))?;
            let mut point = CrashPoint {
                name: name.to_string(),
                sites: 1,
                strategy: PointStrategy::Any,
                kind: PointKind::Step,
                inject: false,
                optional: false,
                line: ln + 1,
            };
            for field in parts {
                if let Some(v) = field.strip_prefix("sites=") {
                    point.sites = v.parse().map_err(|_| err(format!("bad sites count {v}")))?;
                } else if let Some(v) = field.strip_prefix("strategy=") {
                    point.strategy = match v {
                        "any" => PointStrategy::Any,
                        "bc" => PointStrategy::Bc,
                        "nba" => PointStrategy::Nba,
                        "nbc" => PointStrategy::Nbc,
                        other => return Err(err(format!("bad strategy {other}"))),
                    };
                } else if let Some(v) = field.strip_prefix("kind=") {
                    point.kind = match v {
                        "loop" => PointKind::Loop,
                        "step" => PointKind::Step,
                        other => return Err(err(format!("bad kind {other}"))),
                    };
                } else if field == "inject" {
                    point.inject = true;
                } else if field == "optional" {
                    point.optional = true;
                } else {
                    return Err(err(format!("unknown field {field}")));
                }
            }
            m.points.push(point);
        }
        Ok(m)
    }
}

/// Protocol role of an atomic field; each role fixes the minimum
/// `Ordering` the atomics pass accepts per site kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// Single-writer published value (watermark, flag): stores release,
    /// loads acquire, RMWs at least release.
    Publish,
    /// Value whose RMWs participate on both sides of the handoff
    /// (fence words, prune floors): like `publish` plus `AcqRel` RMWs.
    Consume,
    /// Statistics / ID allocation: `Relaxed` is fine everywhere.
    Counter,
    /// Single-total-order word (lazy cut-over token): `SeqCst`
    /// everywhere.
    Seal,
}

impl AtomicRole {
    pub fn name(self) -> &'static str {
        match self {
            AtomicRole::Publish => "publish",
            AtomicRole::Consume => "consume",
            AtomicRole::Counter => "counter",
            AtomicRole::Seal => "seal",
        }
    }
}

#[derive(Debug, Clone)]
pub struct AtomicEntry {
    /// Struct-field (or static) identifier.
    pub field: String,
    /// Substring of the repo-relative path of the *declaring* file —
    /// disambiguates same-named fields across crates.
    pub file_sub: String,
    pub role: AtomicRole,
    /// 1-based line in the manifest file, for findings.
    pub line: usize,
}

#[derive(Debug, Default)]
pub struct AtomicsManifest {
    pub entries: Vec<AtomicEntry>,
}

impl AtomicsManifest {
    pub fn parse(src: &str) -> Result<AtomicsManifest, String> {
        let mut m = AtomicsManifest::default();
        for (ln, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("atomics.txt:{}: {}", ln + 1, msg);
            let mut parts = line.split_whitespace();
            if parts.next() != Some("atomic") {
                return Err(err("expected `atomic`".into()));
            }
            let field = parts.next().ok_or_else(|| err("missing field".into()))?;
            let file_sub = parts.next().ok_or_else(|| err("missing file".into()))?;
            let role = match parts.next() {
                Some("publish") => AtomicRole::Publish,
                Some("consume") => AtomicRole::Consume,
                Some("counter") => AtomicRole::Counter,
                Some("seal") => AtomicRole::Seal,
                other => return Err(err(format!("bad role {other:?}"))),
            };
            if let Some(extra) = parts.next() {
                return Err(err(format!("unexpected field {extra}")));
            }
            if m.entries
                .iter()
                .any(|e| e.field == field && e.file_sub == file_sub)
            {
                return Err(err(format!("duplicate entry {field} {file_sub}")));
            }
            m.entries.push(AtomicEntry {
                field: field.to_string(),
                file_sub: file_sub.to_string(),
                role,
                line: ln + 1,
            });
        }
        Ok(m)
    }
}
