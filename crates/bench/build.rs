//! Bakes the workspace source fingerprint into `TP_SRC_FNV`, one
//! component of the campaign cell cache key (see `src/store.rs`), so a
//! cached cell never outlives the code that computed it.

use std::path::PathBuf;

#[path = "src/srcfp.rs"]
mod srcfp;

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = PathBuf::from(manifest).join("..").join("..");
    for tree in srcfp::TREES {
        println!("cargo:rerun-if-changed={}", root.join(tree).display());
    }
    let fnv = srcfp::fingerprint(&root).expect("cannot fingerprint the workspace sources");
    println!("cargo:rustc-env=TP_SRC_FNV={fnv:016x}");
}
