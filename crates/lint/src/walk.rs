//! Deterministic file discovery: expand lint roots into a sorted list of
//! `.rs` files, skipping build output (`target`), VCS metadata (`.git`),
//! and lint-fixture corpora (`fixtures` directories hold deliberate
//! violations for the linter's own tests).

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Expand `roots` (files or directories) into `.rs` file paths. Directory
/// entries are visited in sorted order so the file list — and therefore
/// diagnostic ordering and JSON output — is reproducible across runs and
/// filesystems.
///
/// Overlapping roots (`crates crates/serve`, `. ./crates`, absolute +
/// relative spellings) reach the same file under several display paths;
/// files are deduplicated by canonical identity, keeping the first
/// spelling encountered, so no file is linted — and no finding
/// reported — twice.
pub fn collect_rs_files(roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut seen: HashSet<PathBuf> = HashSet::new();
    for root in roots {
        if root.is_dir() {
            walk_dir(root, &mut files, &mut seen)?;
        } else if root.is_file() {
            push_file(root.clone(), &mut files, &mut seen);
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("lint root not found: {}", root.display()),
            ));
        }
    }
    files.sort();
    Ok(files)
}

/// Record `path` unless its canonical identity was already seen. A path
/// that fails to canonicalize (racing deletion) keys on its raw
/// spelling — still deduplicating exact repeats.
fn push_file(path: PathBuf, files: &mut Vec<PathBuf>, seen: &mut HashSet<PathBuf>) {
    let key = std::fs::canonicalize(&path).unwrap_or_else(|_| path.clone());
    if seen.insert(key) {
        files.push(path);
    }
}

fn walk_dir(dir: &Path, files: &mut Vec<PathBuf>, seen: &mut HashSet<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_dir(&path, files, seen)?;
            }
        } else if name.ends_with(".rs") {
            push_file(path, files, seen);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_root_is_an_error() {
        let err = collect_rs_files(&[PathBuf::from("definitely/not/here")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn skips_fixture_dirs_and_sorts() {
        let dir = std::env::temp_dir().join(format!("soulmate_lint_walk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("b/fixtures")).unwrap();
        std::fs::create_dir_all(dir.join("a")).unwrap();
        std::fs::write(dir.join("b/fixtures/bad.rs"), "unsafe {}").unwrap();
        std::fs::write(dir.join("b/ok.rs"), "fn f() {}").unwrap();
        std::fs::write(dir.join("a/first.rs"), "fn g() {}").unwrap();
        std::fs::write(dir.join("notes.txt"), "not rust").unwrap();
        let files = collect_rs_files(std::slice::from_ref(&dir)).unwrap();
        let rel: Vec<String> = files
            .iter()
            .map(|p| {
                p.strip_prefix(&dir)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert_eq!(rel, vec!["a/first.rs", "b/ok.rs"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlapping_roots_yield_each_file_once() {
        let dir = std::env::temp_dir().join(format!("soulmate_lint_dedup_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/serve")).unwrap();
        std::fs::write(dir.join("crates/serve/s.rs"), "fn f() {}").unwrap();
        std::fs::write(dir.join("crates/top.rs"), "fn g() {}").unwrap();

        // Same tree under different spellings: parent + child root,
        // a `.`-prefixed respelling, and the file named directly.
        let roots = vec![
            dir.join("crates"),
            dir.join("crates/serve"),
            dir.join("crates").join(".").join("serve"),
            dir.join("crates/serve/s.rs"),
        ];
        let files = collect_rs_files(&roots).unwrap();
        let mut names: Vec<String> = files
            .iter()
            .map(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["s.rs", "top.rs"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
