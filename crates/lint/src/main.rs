//! `morph-lint` CLI: run the passes over the workspace and fail on
//! any finding. `cargo run -p morph-lint` from anywhere inside the
//! repo; scripts/ci.sh runs it before the release build.
//!
//! Flag:
//!   --json[=PATH]  machine-readable findings with stable IDs, written
//!                  to PATH (or stdout); human output still printed

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml above the current directory".to_string());
        }
    }
}

fn run() -> Result<bool, String> {
    let mut json: Option<Option<String>> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = Some(None);
        } else if let Some(path) = arg.strip_prefix("--json=") {
            json = Some(Some(path.to_string()));
        } else {
            return Err(format!("unknown flag {arg} (expected --json[=PATH])"));
        }
    }

    let root = workspace_root()?;
    let cfg = morph_lint::Config::for_repo(&root)?;
    let files = morph_lint::load_workspace(&root)?;
    let findings = morph_lint::run_all(&cfg, &files);

    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "morph-lint: {} file(s) scanned, {} finding(s)",
        files.len(),
        findings.len()
    );
    for pass in morph_lint::PASSES {
        let n = findings.iter().filter(|f| f.pass == pass).count();
        println!("  {pass:<12} {n}");
    }

    if let Some(dest) = json {
        let body = morph_lint::to_json(&findings);
        match dest {
            Some(path) => {
                let path = root.join(&path);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                }
                std::fs::write(&path, &body)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("morph-lint: JSON artifact written to {}", path.display());
            }
            None => println!("{body}"),
        }
    }
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("morph-lint: error: {e}");
            ExitCode::FAILURE
        }
    }
}
