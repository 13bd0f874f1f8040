//! The source fingerprint behind the campaign cell cache key.
//!
//! Hashes every `.rs` file under `crates/*/src` and `vendor/*/src` (the
//! vendored `rand` feeds results too), sorted by path relative to the
//! workspace root. For each file it folds the relative path (`/`
//! separators), a NUL, the content length and the contents into one
//! 64-bit FNV-1a, so an edit, a rename or a new file all move the value.
//!
//! `build.rs` includes this file by `#[path]` and bakes the value into
//! `TP_SRC_FNV`; the crate's tests include it too. It is std-only because
//! a build script cannot depend on the crates it fingerprints.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The trees the fingerprint covers, relative to the workspace root;
/// every `<tree>/<package>/src` below them is walked.
pub const TREES: [&str; 2] = ["crates", "vendor"];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every `.rs` file under `root/<tree>/*/src`, as (path relative to
/// `root` with `/` separators, full path), sorted by the relative path.
/// A missing tree contributes nothing.
///
/// # Errors
/// Propagates I/O errors other than a missing tree or `src` directory.
pub fn source_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    for tree in TREES {
        for package in read_dir_or_empty(&root.join(tree))? {
            walk(&package.join("src"), root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn read_dir_or_empty(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect()
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for path in read_dir_or_empty(dir)? {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            out.push((rel.replace('\\', "/"), path));
        }
    }
    Ok(())
}

/// The fingerprint of the sources under `root`.
///
/// # Errors
/// Propagates I/O errors from the walk or from reading a file.
pub fn fingerprint(root: &Path) -> io::Result<u64> {
    let mut h = FNV_OFFSET;
    for (rel, path) in source_files(root)? {
        let contents = fs::read(&path)?;
        h = fold(h, rel.as_bytes());
        h = fold(h, &[0]);
        h = fold(h, &(contents.len() as u64).to_le_bytes());
        h = fold(h, &contents);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_edits_renames_and_additions() {
        let root = std::env::temp_dir().join(format!("tp-srcfp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let write = |rel: &str, contents: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, contents).unwrap();
        };
        let fp = || fingerprint(&root).unwrap();
        write("crates/sim/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
        write("crates/sim/src/cache/mod.rs", "pub struct C;\n");
        write("vendor/rand/src/lib.rs", "pub fn r() {}\n");
        write("crates/sim/benches/b.rs", "fn main() {}\n");
        let base = fp();
        let files: Vec<String> = source_files(&root)
            .unwrap()
            .into_iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(
            files,
            [
                "crates/sim/src/cache/mod.rs",
                "crates/sim/src/lib.rs",
                "vendor/rand/src/lib.rs"
            ]
        );
        write("crates/sim/benches/b.rs", "fn main() { loop {} }\n");
        assert_eq!(fp(), base, "benches are not covered");

        write("crates/sim/src/lib.rs", "pub fn f() -> u32 { 2 }\n");
        assert_ne!(fp(), base, "a one-byte edit moves the fingerprint");
        write("crates/sim/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
        assert_eq!(fp(), base, "reverting the edit restores it");

        let rand = root.join("vendor/rand/src");
        fs::rename(rand.join("lib.rs"), rand.join("rng.rs")).unwrap();
        let renamed = fp();
        assert_ne!(renamed, base, "a rename moves the fingerprint");
        write("crates/core/src/lib.rs", "");
        assert_ne!(fp(), renamed, "an added file moves the fingerprint");
        let _ = fs::remove_dir_all(&root);
    }
}
