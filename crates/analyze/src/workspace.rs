//! The analyzed workspace: every `.rs` file, every `Cargo.toml`,
//! `DESIGN.md`, and the committed ratchet files.
//!
//! Built either from a directory tree ([`Workspace::from_root`]) or
//! from in-memory sources ([`Workspace::from_sources`]) so fixture and
//! mutation tests can assemble synthetic workspaces without touching
//! the filesystem.

use crate::error::SaError;
use crate::manifest::{self, Manifest};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Directory (relative to the workspace root) holding per-pass ratchet
/// files.
pub const RATCHET_DIR: &str = "crates/analyze/ratchets";

/// Everything the passes look at.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Analyzed source files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Parsed manifests, sorted by path.
    pub manifests: Vec<Manifest>,
    /// `DESIGN.md` content, when present.
    pub design: Option<String>,
    /// Committed ratchet files: `(file name, content)`.
    pub ratchets: Vec<(String, String)>,
}

impl Workspace {
    /// Assembles a workspace from in-memory `(path, text)` sources.
    /// Paths ending in `Cargo.toml` become manifests, a `DESIGN.md`
    /// entry becomes the design doc, entries under the ratchet
    /// directory become ratchet files, and `.rs` paths become source
    /// files.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (path, text) in sources {
            if path.ends_with("Cargo.toml") {
                ws.manifests.push(manifest::parse(path, text));
            } else if *path == "DESIGN.md" {
                ws.design = Some((*text).to_owned());
            } else if let Some(name) = path
                .strip_prefix(RATCHET_DIR)
                .and_then(|p| p.strip_prefix('/'))
            {
                ws.ratchets.push((name.to_owned(), (*text).to_owned()));
            } else if path.ends_with(".rs") {
                ws.files.push(SourceFile::new(path, text));
            }
        }
        ws.files.sort_by(|a, b| a.path.cmp(&b.path));
        ws.manifests.sort_by(|a, b| a.path.cmp(&b.path));
        ws.ratchets.sort();
        ws
    }

    /// Reads the workspace rooted at `root` from disk, lexing/parsing
    /// with the environment's `HYDE_THREADS` worker count.
    ///
    /// # Errors
    ///
    /// Fails with [`SaError::Io`] when the root layout cannot be read;
    /// individual unreadable files fail rather than being skipped, so a
    /// permissions problem cannot silently shrink the analysis surface.
    pub fn from_root(root: &Path) -> Result<Workspace, SaError> {
        Workspace::from_root_with_threads(root, hyde_core::parallel::thread_count())
    }

    /// [`Workspace::from_root`] with an explicit worker count — the
    /// 1-vs-N determinism test drives this directly. IO is sequential
    /// (path-sorted); lexing and parsing fan out through
    /// `hyde_core::parallel::map_chunked`, whose input-order merge
    /// keeps `ws.files` path-sorted for any thread count.
    pub fn from_root_with_threads(root: &Path, threads: usize) -> Result<Workspace, SaError> {
        let mut ws = Workspace::default();
        let mut rs_files: Vec<PathBuf> = Vec::new();
        let mut manifest_paths: Vec<PathBuf> = vec![root.join("Cargo.toml")];

        for top in ["src", "tests", "examples"] {
            collect_rs(&root.join(top), &mut rs_files)?;
        }
        let crates_dir = root.join("crates");
        for crate_dir in read_dir_sorted(&crates_dir)? {
            if !crate_dir.is_dir() {
                continue;
            }
            let manifest = crate_dir.join("Cargo.toml");
            if manifest.is_file() {
                manifest_paths.push(manifest);
            }
            for sub in ["src", "tests", "benches", "examples"] {
                collect_rs(&crate_dir.join(sub), &mut rs_files)?;
            }
        }

        rs_files.sort();
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(rs_files.len());
        for path in rs_files {
            let rel = rel_path(root, &path);
            pairs.push((rel, read(&path)?));
        }
        ws.files = hyde_core::parallel::map_chunked(
            "sa.lex",
            &pairs,
            threads,
            || (),
            |(), (rel, text)| SourceFile::new(rel, text),
        );
        hyde_obs::counter("sa.files", ws.files.len() as u64);
        manifest_paths.sort();
        for path in manifest_paths {
            let rel = rel_path(root, &path);
            let text = read(&path)?;
            ws.manifests.push(manifest::parse(&rel, &text));
        }
        let design = root.join("DESIGN.md");
        if design.is_file() {
            ws.design = Some(read(&design)?);
        }
        let ratchet_dir = root.join(RATCHET_DIR);
        if ratchet_dir.is_dir() {
            for path in read_dir_sorted(&ratchet_dir)? {
                if path.extension().is_some_and(|e| e == "txt") {
                    let name = path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    ws.ratchets.push((name, read(&path)?));
                }
            }
        }
        Ok(ws)
    }

    /// The named ratchet file's content, if committed.
    pub fn ratchet(&self, name: &str) -> Option<&str> {
        self.ratchets
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }

    /// The manifest whose `[package] name` is `name`.
    pub fn manifest_for(&self, name: &str) -> Option<&Manifest> {
        self.manifests.iter().find(|m| m.package == name)
    }
}

fn read(path: &Path) -> Result<String, SaError> {
    std::fs::read_to_string(path).map_err(|e| SaError::Io(format!("{}: {e}", path.display())))
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, SaError> {
    let rd = std::fs::read_dir(dir).map_err(|e| SaError::Io(format!("{}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| SaError::Io(format!("{}: {e}", dir.display())))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` (silently absent dirs
/// are fine — not every crate has `tests/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), SaError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sources_routes_entries() {
        let ws = Workspace::from_sources(&[
            ("crates/core/src/a.rs", "fn f() {}"),
            (
                "crates/core/Cargo.toml",
                "[package]\nname = \"hyde-core\"\n",
            ),
            ("DESIGN.md", "# doc"),
            (
                "crates/analyze/ratchets/SA003-panic-surface.txt",
                "0 x.rs\n",
            ),
        ]);
        assert_eq!(ws.files.len(), 1);
        assert_eq!(ws.manifests.len(), 1);
        assert_eq!(ws.design.as_deref(), Some("# doc"));
        assert_eq!(ws.ratchet("SA003-panic-surface.txt"), Some("0 x.rs\n"));
        assert!(ws.manifest_for("hyde-core").is_some());
    }
}
