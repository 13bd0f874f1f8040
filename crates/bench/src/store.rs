//! The durable artifact store: crash-consistent writes and the per-cell
//! campaign cache.
//!
//! Every artifact the harness emits (`BENCH.json`, `BENCH-campaign.json`,
//! `campaign-results.json`, `goldens/verdicts.json`, the quarantine
//! ledger) used to be a bare `std::fs::write` — a SIGKILL or power loss
//! mid-write tore the file and discarded the whole run. This module makes
//! the artifacts durable and the campaign *resumable*:
//!
//! * [`write_atomic`] writes payload + a self-describing checksum trailer
//!   to a uniquely named temp file and renames it into place, rotating the
//!   previous good version to `.bak`; [`read_artifact`] verifies the
//!   trailer (FNV-1a with the same SplitMix64 finalizer as
//!   [`tp_core::StateHasher`]) and falls back to `.bak` when the primary
//!   is torn or rotted.
//! * The cell cache holds one such file per completed campaign cell,
//!   `goldens/cache/<experiment>.<platform>.<key:016x>.json`
//!   ([`store_cell`], [`fetch_cell`]). The key ([`cell_key`]) hashes the
//!   store schema, the cell, `TP_SAMPLES`, the vote-seed base and
//!   [`SRC_FNV`], a build-time fingerprint of every source file, so a
//!   cached cell is never served to code other than the code that
//!   computed it. `campaign --resume` serves hits and runs the misses.
//! * [`resume_counters`] accounts for cache hits and damaged cache files
//!   in the `resume` object of `BENCH-campaign.json`, which CI gates to
//!   all-zero on a clean run.
//!
//! A torn, rotted or trailer-less cache file is a miss: its cell
//! recomputes and the file is rewritten. Stale files (other keys) are
//! never read and never evicted; `rm -rf goldens/cache` clears them.

use crate::campaign::{ChannelResult, VOTE_SEED_BASE};
use crate::util::effort;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tp_core::StateHasher;
use tp_sim::Platform;

/// Trailer and cache-record format version; bump to invalidate every
/// cached cell.
pub const STORE_SCHEMA: u32 = 1;

/// Build-time fingerprint of every `.rs` file under `crates/*/src` and
/// `vendor/*/src` (computed by `build.rs`, see `srcfp.rs`), as 16 hex
/// digits. Part of every [`cell_key`]: any source edit invalidates every
/// cached cell.
pub const SRC_FNV: &str = env!("TP_SRC_FNV");

/// Where `campaign` caches completed cells, relative to its working
/// directory.
pub const CACHE_DIR: &str = "goldens/cache";

/// FNV-1a over `bytes` with the SplitMix64 finalizer — byte-compatible
/// with [`tp_core::StateHasher`], the hash already trusted for kernel
/// state equality in the replay plane.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = StateHasher::new();
    for &b in bytes {
        h.byte(b);
    }
    h.finish()
}

// ---------------------------------------------------------------- counters

static CELLS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static CELLS_DAMAGED: AtomicU64 = AtomicU64::new(0);

/// Resume/durability accounting, serialised into `BENCH-campaign.json` as
/// the `resume` object. A clean (non-resumed) campaign reports zeroes
/// everywhere and CI gates on exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeCounters {
    /// Cells served from a verified cache file instead of running.
    pub cells_skipped: u64,
    /// Cache files found torn, rotted or trailer-less; their cells
    /// recomputed.
    pub cells_damaged: u64,
}

/// Snapshot the resume counters.
#[must_use]
pub fn resume_counters() -> ResumeCounters {
    ResumeCounters {
        cells_skipped: CELLS_SKIPPED.load(Ordering::Relaxed),
        cells_damaged: CELLS_DAMAGED.load(Ordering::Relaxed),
    }
}

// ------------------------------------------------------- checksum trailer

/// Start of the trailer line appended to every artifact.
const TRAILER_TAG: &str = "{\"tp_store\": ";

fn trailer_line(payload: &str) -> String {
    format!(
        "{{\"tp_store\": {{\"schema\": {STORE_SCHEMA}, \"algo\": \"fnv1a-sm64\", \"len\": {}, \"sum\": \"{:016x}\"}}}}\n",
        payload.len(),
        fnv64(payload.as_bytes()),
    )
}

/// Split `text` into (payload, trailer claims) if its last line is a
/// `tp_store` trailer. `None` when there is no trailer at all.
fn split_trailer(text: &str) -> Option<(&str, u64, usize)> {
    let idx = text.rfind(TRAILER_TAG)?;
    if idx > 0 && text.as_bytes()[idx - 1] != b'\n' {
        return None;
    }
    let trailer = &text[idx..];
    // The trailer must be the final line (plus at most a trailing newline).
    if trailer.trim_end().contains('\n') {
        return None;
    }
    let sum = u64::from_str_radix(str_field(trailer, "sum")?, 16).ok()?;
    let len = num_field(trailer, "len")? as usize;
    Some((&text[..idx], sum, len))
}

/// How [`read_artifact`] authenticated the bytes it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The primary file carried a trailer and verified.
    Checksummed,
    /// The primary file has no trailer (written before this store existed,
    /// or hand-edited); returned as-is.
    Unchecksummed,
    /// The primary was torn or rotted; the verified `.bak` was served.
    RestoredFromBak,
}

enum FileState {
    Good(String),
    Legacy(String),
    Bad(String),
}

fn classify(path: &Path) -> Result<FileState, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match split_trailer(&text) {
        // A trailer tag that doesn't parse as a complete final line means
        // the file was torn mid-trailer — that's damage, not a legacy file.
        None if text.contains(TRAILER_TAG) => Ok(FileState::Bad(format!(
            "{}: torn or unparseable checksum trailer",
            path.display()
        ))),
        None => Ok(FileState::Legacy(text)),
        Some((payload, sum, len)) => {
            if payload.len() == len && fnv64(payload.as_bytes()) == sum {
                Ok(FileState::Good(payload.to_string()))
            } else {
                Ok(FileState::Bad(format!(
                    "{}: checksum trailer mismatch (trailer claims len {len} sum {sum:016x}, \
                     payload has len {} sum {:016x})",
                    path.display(),
                    payload.len(),
                    fnv64(payload.as_bytes()),
                )))
            }
        }
    }
}

/// The `.bak` sibling of `path`.
#[must_use]
pub fn bak_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_os_string());
    name.push(".bak");
    path.with_file_name(name)
}

/// A temp sibling of `path` no other writer shares:
/// `<name>.<pid>.<n>.tmp`, `n` counting writes in this process.
fn tmp_path(path: &Path) -> PathBuf {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_os_string());
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Read an artifact, verifying its checksum trailer and falling back to
/// the `.bak` rotation when the primary is torn or rotted.
///
/// # Errors
/// When the primary is unreadable or corrupt and no verified `.bak`
/// exists either; the message names both files.
pub fn read_artifact(path: impl AsRef<Path>) -> Result<(String, Provenance), String> {
    let path = path.as_ref();
    let primary = match classify(path) {
        Ok(FileState::Good(p)) => return Ok((p, Provenance::Checksummed)),
        Ok(FileState::Legacy(t)) => return Ok((t, Provenance::Unchecksummed)),
        Ok(FileState::Bad(why)) => why,
        Err(why) => why,
    };
    match classify(&bak_path(path)) {
        Ok(FileState::Good(p)) => Ok((p, Provenance::RestoredFromBak)),
        Ok(FileState::Legacy(_) | FileState::Bad(_)) | Err(_) => Err(format!(
            "{primary}; no verified .bak fallback at {}",
            bak_path(path).display()
        )),
    }
}

/// Write `payload` + checksum trailer atomically: temp file in the same
/// directory, `sync_all`, then rename over `path`. The previous version is
/// rotated to `.bak` first — but only when it verifies, so a torn primary
/// never clobbers a good backup. Every call writes its own temp file, so
/// concurrent writers of one path (threads or processes) each rename a
/// complete file into place and the last rename wins.
///
/// # Errors
/// Propagates I/O errors from the temp write or the final rename.
pub fn write_atomic(path: impl AsRef<Path>, payload: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(payload.as_bytes())?;
        f.write_all(trailer_line(payload).as_bytes())?;
        f.sync_all()?;
    }
    if matches!(
        classify(path),
        Ok(FileState::Good(_) | FileState::Legacy(_))
    ) {
        let _ = fs::rename(path, bak_path(path));
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself: sync the containing directory
    // (best-effort; not every filesystem supports opening a directory).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ------------------------------------------------------- field extraction
// Every file the harness reads back is machine-written with one object
// per line (records, golden verdicts, bench cells); a full JSON parser
// would be a dependency for no robustness gain (the files are
// checksummed). These are the one set of extractors for all of them.

/// The string value of the first `"name": "value"` in `line`.
#[must_use]
pub fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// The number value of the first `"name": <number>` in `line`.
#[must_use]
pub fn num_field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The unsigned integer value of the first `"name": <digits>` in `line`.
#[must_use]
pub fn u64_field(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean value of the first `"name": true|false` in `line`.
#[must_use]
pub fn bool_field(line: &str, name: &str) -> Option<bool> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

// -------------------------------------------------------------- cell cache

/// The cache key of one cell: [`fnv64`] over a canonical string of the
/// store schema, the experiment, the platform key, the `TP_SAMPLES` bits,
/// the vote-seed base and the source fingerprint. Changing any one of
/// them changes the key, so the cached cell is simply not found.
#[must_use]
pub fn cell_key(experiment: &str, platform: &str, tp_samples: f64, seed: u64, src: &str) -> u64 {
    fnv64(
        format!(
            "schema={STORE_SCHEMA}\0experiment={experiment}\0platform={platform}\0\
             tp_samples={:016x}\0seed={seed:016x}\0src={src}",
            tp_samples.to_bits()
        )
        .as_bytes(),
    )
}

/// [`cell_key`] under this process's run parameters and this build's
/// sources.
#[must_use]
pub fn current_key(experiment: &str, platform: &str) -> u64 {
    cell_key(experiment, platform, effort(), VOTE_SEED_BASE, SRC_FNV)
}

/// The cache file of one cell under `key`, inside `dir`.
#[must_use]
pub fn cache_path(dir: &Path, experiment: &str, platform: &str, key: u64) -> PathBuf {
    dir.join(format!("{experiment}.{platform}.{key:016x}.json"))
}

/// One completed campaign cell, as cached and served.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Experiment registry name.
    pub experiment: String,
    /// Platform key.
    pub platform: String,
    /// The [`cell_key`] the record was written under.
    pub key: u64,
    /// The cell's wall time, bit-exact (for byte-identical re-serialisation).
    pub seconds: f64,
    /// The cell's channel measurements.
    pub channels: Vec<ChannelResult>,
}

impl CellRecord {
    /// Capture a completed cell under the [`current_key`].
    #[must_use]
    pub fn new(
        experiment: &str,
        platform: Platform,
        seconds: f64,
        channels: &[ChannelResult],
    ) -> Self {
        CellRecord {
            experiment: experiment.to_string(),
            platform: platform.key().to_string(),
            key: current_key(experiment, platform.key()),
            seconds,
            channels: channels.to_vec(),
        }
    }

    /// The record's one-line JSON body, as cached. Carries every `f64`
    /// both human-readable and as raw bits (`*_bits`), so
    /// [`parse`](CellRecord::parse) round-trips bit-exactly and a served
    /// cell re-serialises byte-identically.
    #[must_use]
    pub fn body(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"kind\": \"cell\", \"experiment\": \"{}\", \"platform\": \"{}\", \"key\": \"{:016x}\", \"seconds_bits\": {}, \"seconds\": {:.3}, \"channels\": [",
            self.experiment,
            self.platform,
            self.key,
            self.seconds.to_bits(),
            self.seconds,
        );
        for (i, c) in self.channels.iter().enumerate() {
            let comma = if i + 1 < self.channels.len() {
                ", "
            } else {
                ""
            };
            let _ = write!(
                s,
                "{{\"channel\": \"{}\", \"mechanism\": \"{}\", \"metric\": \"{}\", \"value_bits\": {}, \"baseline_bits\": {}, \"value\": {:.3}, \"baseline\": {:.3}, \"leaks\": {}, \"samples\": {}}}{comma}",
                c.channel,
                c.mechanism,
                c.metric,
                c.value.to_bits(),
                c.baseline.to_bits(),
                c.value,
                c.baseline,
                c.leaks,
                c.samples,
            );
        }
        s.push_str("]}");
        s
    }

    /// Parse a record body written by [`body`](CellRecord::body). `None`
    /// when the body is damaged or not a cell record.
    #[must_use]
    pub fn parse(body: &str) -> Option<Self> {
        if str_field(body, "kind") != Some("cell") {
            return None;
        }
        let experiment = str_field(body, "experiment")?.to_string();
        let platform = str_field(body, "platform")?.to_string();
        let key = u64::from_str_radix(str_field(body, "key")?, 16).ok()?;
        let seconds = f64::from_bits(u64_field(body, "seconds_bits")?);
        let start = body.find("\"channels\": [")? + "\"channels\": [".len();
        let inner = body.get(start..)?.strip_suffix("]}")?;
        let mut channels = Vec::new();
        if !inner.is_empty() {
            let inner = inner.strip_prefix('{')?.strip_suffix('}')?;
            for part in inner.split("}, {") {
                channels.push(ChannelResult {
                    channel: leak_str(str_field(part, "channel")?),
                    mechanism: leak_str(str_field(part, "mechanism")?),
                    metric: leak_str(str_field(part, "metric")?),
                    value: f64::from_bits(u64_field(part, "value_bits")?),
                    baseline: f64::from_bits(u64_field(part, "baseline_bits")?),
                    leaks: bool_field(part, "leaks")?,
                    samples: u64_field(part, "samples")? as usize,
                });
            }
        }
        Some(CellRecord {
            experiment,
            platform,
            key,
            seconds,
            channels,
        })
    }
}

/// Intern a cached string as `&'static str` (the campaign result types
/// carry static names). The table dedups across lookups in one process so
/// serving many cells doesn't leak the same handful of identifiers twice.
fn leak_str(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERN: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERN
        .get_or_init(Mutex::default)
        .lock()
        .expect("intern table poisoned");
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Look up the cell (`experiment`, `platform`) under `key` in the cache
/// at `dir`: `Ok(Some)` is a hit, `Ok(None)` a cell with no file (nor
/// `.bak`), `Err` a file that cannot be trusted. Touches no counter.
///
/// A file is a hit only when [`read_artifact`] verifies it (directly or
/// from its `.bak`) and its record parses for that cell and key. A
/// trailer-less file counts as damage, never as legacy content: a flip
/// inside the trailer tag makes a file look trailer-less.
///
/// # Errors
/// Names the damaged file and what is wrong with it.
pub fn lookup(
    dir: &Path,
    experiment: &str,
    platform: &str,
    key: u64,
) -> Result<Option<CellRecord>, String> {
    let path = cache_path(dir, experiment, platform, key);
    if !path.exists() && !bak_path(&path).exists() {
        return Ok(None);
    }
    let (text, provenance) = read_artifact(&path)?;
    if provenance == Provenance::Unchecksummed {
        return Err(format!("{}: no checksum trailer", path.display()));
    }
    match CellRecord::parse(text.trim_end()) {
        Some(rec) if rec.key == key && rec.experiment == experiment && rec.platform == platform => {
            Ok(Some(rec))
        }
        _ => Err(format!("{}: not a record of this cell", path.display())),
    }
}

/// Serve one cell from the cache in `dir` under the [`current_key`].
/// Counts a hit as `cells_skipped` and damage as `cells_damaged` (logged
/// on stderr); `None` means the cell must run.
#[must_use]
pub fn fetch_cell(
    dir: impl AsRef<Path>,
    experiment: &str,
    platform: Platform,
) -> Option<CellRecord> {
    let key = current_key(experiment, platform.key());
    match lookup(dir.as_ref(), experiment, platform.key(), key) {
        Ok(hit) => {
            CELLS_SKIPPED.fetch_add(u64::from(hit.is_some()), Ordering::Relaxed);
            hit
        }
        Err(why) => {
            CELLS_DAMAGED.fetch_add(1, Ordering::Relaxed);
            eprintln!("[cache: {why}; recomputing]");
            None
        }
    }
}

/// Cache one completed cell in `dir`, under the key it carries.
///
/// # Errors
/// Propagates I/O errors from [`write_atomic`].
pub fn store_cell(dir: impl AsRef<Path>, rec: &CellRecord) -> std::io::Result<()> {
    let path = cache_path(dir.as_ref(), &rec.experiment, &rec.platform, rec.key);
    write_atomic(path, &format!("{}\n", rec.body()))
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tp-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mk temp dir");
        d
    }

    fn channel(mech: &'static str, leaks: bool) -> ChannelResult {
        ChannelResult {
            channel: "L1-D",
            mechanism: mech,
            metric: "M_mb",
            value: 123.456_789,
            baseline: 40.25,
            leaks,
            samples: 120,
        }
    }

    fn record(exp: &str, value_salt: f64) -> CellRecord {
        let mut c = vec![channel("raw", true), channel("protected", false)];
        c[0].value += value_salt;
        CellRecord::new(exp, Platform::Haswell, 1.25 + value_salt, &c)
    }

    #[test]
    fn trailer_roundtrip_and_tamper_detection() {
        let payload = "{\n  \"x\": 1\n}\n";
        let full = format!("{payload}{}", trailer_line(payload));
        let (p, sum, len) = split_trailer(&full).expect("trailer parses");
        assert_eq!(p, payload);
        assert_eq!(len, payload.len());
        assert_eq!(sum, fnv64(payload.as_bytes()));
        // Any single-byte change to the payload fails verification.
        let tampered = full.replacen("\"x\": 1", "\"x\": 2", 1);
        let (p2, sum2, _) = split_trailer(&tampered).expect("still shaped like a trailer");
        assert_ne!(fnv64(p2.as_bytes()), sum2);
        assert!(split_trailer(payload).is_none(), "no trailer, no claims");
    }

    #[test]
    fn atomic_write_read_and_bak_fallback() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.json");

        write_atomic(&path, "{\"v\": 1}\n").unwrap();
        let (text, prov) = read_artifact(&path).unwrap();
        assert_eq!(
            (text.as_str(), prov),
            ("{\"v\": 1}\n", Provenance::Checksummed)
        );

        // Second write rotates the first version to .bak.
        write_atomic(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(read_artifact(&path).unwrap().0, "{\"v\": 2}\n");
        assert!(bak_path(&path).exists());

        // Tear the primary: read falls back to the .bak (version 1).
        let torn = fs::read_to_string(&path).unwrap();
        fs::write(&path, &torn[..torn.len() - 10]).unwrap();
        let (text, prov) = read_artifact(&path).unwrap();
        assert_eq!(
            (text.as_str(), prov),
            ("{\"v\": 1}\n", Provenance::RestoredFromBak)
        );

        // Tear the .bak too: read errors, naming both files.
        fs::write(bak_path(&path), "garbage").unwrap();
        // (a trailer-less .bak is Legacy, which the fallback refuses — it
        // cannot vouch for the bytes)
        let err = read_artifact(&path).unwrap_err();
        assert!(err.contains("checksum trailer"), "{err}");
        assert!(err.contains(".bak"), "{err}");

        // A legacy (pre-store) primary is served as-is.
        let legacy = dir.join("legacy.json");
        fs::write(&legacy, "{\"old\": true}\n").unwrap();
        let (text, prov) = read_artifact(&legacy).unwrap();
        assert_eq!(
            (text.as_str(), prov),
            ("{\"old\": true}\n", Provenance::Unchecksummed)
        );
    }

    #[test]
    fn concurrent_atomic_writes_of_one_path_never_collide() {
        let dir = tmp_dir("concurrent");
        let path = dir.join("cell.json");
        let payload = |t: usize| format!("{{\"writer\": {t}}}\n");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (path, body, start) = (&path, payload(t), &start);
                s.spawn(move || {
                    start.wait();
                    (0..50).for_each(|_| write_atomic(path, &body).unwrap());
                });
            }
        });
        let (text, prov) = read_artifact(&path).unwrap();
        assert_eq!(prov, Provenance::Checksummed);
        assert!((0..8).any(|t| text == payload(t)), "{text:?}");
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "left {name:?}");
        }
    }

    #[test]
    fn cell_record_roundtrips_bit_exactly() {
        let rec = record("l1d", 0.000_123);
        let body = rec.body();
        let parsed = CellRecord::parse(&body).expect("parses");
        assert_eq!(parsed, rec);
        assert_eq!(parsed.seconds.to_bits(), rec.seconds.to_bits());
        assert_eq!(
            parsed.channels[0].value.to_bits(),
            rec.channels[0].value.to_bits()
        );
        // Empty channel lists roundtrip too.
        let empty = CellRecord::new("x", Platform::Sabre, 0.5, &[]);
        assert_eq!(CellRecord::parse(&empty.body()), Some(empty));
    }

    #[test]
    fn cache_key_changes_with_every_component() {
        let src = "0123456789abcdef";
        let k = cell_key("l1d", "haswell", 0.25, 0x5EED, src);
        assert_eq!(k, cell_key("l1d", "haswell", 0.25, 0x5EED, src));
        for other in [
            cell_key("l1i", "haswell", 0.25, 0x5EED, src),
            cell_key("l1d", "sabre", 0.25, 0x5EED, src),
            cell_key("l1d", "haswell", 0.5, 0x5EED, src),
            cell_key("l1d", "haswell", 0.25, 0x5EEE, src),
            cell_key("l1d", "haswell", 0.25, 0x5EED, "0123456789abcdee"),
            // Fields are delimited: a character moved across a boundary.
            cell_key("l1", "dhaswell", 0.25, 0x5EED, src),
        ] {
            assert_ne!(other, k);
        }
    }

    #[test]
    fn cache_serves_counts_and_rejects_damage() {
        let dir = tmp_dir("cache");
        let rec = record("tlb", 1.0);
        let path = cache_path(&dir, "tlb", "haswell", rec.key);
        let before = resume_counters();
        assert_eq!(fetch_cell(&dir, "tlb", Platform::Haswell), None, "miss");
        store_cell(&dir, &rec).unwrap();
        assert_eq!(
            fetch_cell(&dir, "tlb", Platform::Haswell),
            Some(rec.clone())
        );
        assert_eq!(fetch_cell(&dir, "tlb", Platform::Sabre), None, "other cell");
        let after = resume_counters();
        assert_eq!(after.cells_skipped - before.cells_skipped, 1);
        assert_eq!(after.cells_damaged, before.cells_damaged);

        let full = fs::read_to_string(&path).unwrap();
        let expect_damage = |bytes: &str, why: &str| {
            fs::write(&path, bytes).unwrap();
            let err = lookup(&dir, "tlb", "haswell", rec.key).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        // Torn inside the trailer, as a crash inside a plain write would.
        expect_damage(&full[..full.len() - 7], "checksum trailer");
        // The trailer tag rotted: the file looks trailer-less, which is
        // damage, never legacy content.
        expect_damage(&full.replace("tp_store", "tp_stove"), "no checksum trailer");
        // A verified record filed under the wrong key.
        let mut wrong = rec.clone();
        wrong.key ^= 1;
        write_atomic(&path, &format!("{}\n", wrong.body())).unwrap();
        fs::remove_file(bak_path(&path)).unwrap();
        assert!(lookup(&dir, "tlb", "haswell", rec.key).is_err());
        assert_eq!(fetch_cell(&dir, "tlb", Platform::Haswell), None);
        assert_eq!(resume_counters().cells_damaged - after.cells_damaged, 1);

        // Rewritten twice, a primary torn inside its trailer is served from
        // the verified .bak; torn before the trailer, it is damage.
        store_cell(&dir, &rec).unwrap();
        store_cell(&dir, &rec).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        assert_eq!(
            lookup(&dir, "tlb", "haswell", rec.key),
            Ok(Some(rec.clone()))
        );
        expect_damage(&full[..full.len() / 2], "no checksum trailer");
    }
}
