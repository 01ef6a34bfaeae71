//! Upfront writability checks for output artifacts.
//!
//! Long runs that only open their `--metrics-out` / `--trace-out` /
//! `--flight-dir` targets *after* the work completes turn a typo'd
//! directory into an hours-later panic. Every artifact-writing binary
//! calls these probes first, so a bad path fails in milliseconds with a
//! message naming the flag and the path instead of a backtrace after a
//! full campaign.

use std::fs::OpenOptions;
use std::path::Path;

/// Probes that `path` can be created (or appended to) as a regular file.
///
/// A file created purely by the probe is removed again, so a later
/// failure does not leave a zero-byte artifact behind; an existing file
/// is left byte-identical (the probe opens in append mode and writes
/// nothing). Returns a human-readable diagnostic naming the path on
/// failure.
pub fn ensure_writable_file(path: &Path) -> Result<(), String> {
    let existed = path.exists();
    if existed && path.is_dir() {
        return Err(format!("{} is a directory, not a file", path.display()));
    }
    match OpenOptions::new().append(true).create(true).open(path) {
        Ok(_) => {
            if !existed {
                // Best-effort: the probe's empty file is noise, not data.
                let _ = std::fs::remove_file(path);
            }
            Ok(())
        }
        Err(e) => Err(format!("cannot write {}: {e}", path.display())),
    }
}

/// Probes that `dir` exists (creating it if needed) and that files can be
/// created inside it. The probe file is removed before returning.
pub fn ensure_writable_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() && !dir.is_dir() {
        return Err(format!("{} exists and is not a directory", dir.display()));
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
    let probe = dir.join(".writable-probe");
    match OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&probe)
    {
        Ok(_) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(format!("cannot create files in {}: {e}", dir.display())),
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// `.tmp` file in the same directory (same filesystem, so the rename
/// cannot cross a mount) which is then renamed over `path`.
///
/// This is the crash-consistency primitive behind periodic artifact
/// flushes (`wsn-serve --metrics-interval`, the flight recorder): a
/// reader never observes a half-written file — it sees either the
/// previous complete artifact or the new one. A crash mid-write leaves
/// at worst a stale `<name>.tmp` beside an intact `path`.
pub fn write_file_atomic(path: &Path, contents: &[u8]) -> Result<(), String> {
    let file_name = path
        .file_name()
        .ok_or_else(|| format!("{} has no file name", path.display()))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fttt-artifacts-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn writable_file_accepts_and_leaves_no_probe() {
        let dir = scratch("file-ok");
        let path = dir.join("out.json");
        assert_eq!(ensure_writable_file(&path), Ok(()));
        assert!(!path.exists(), "probe must clean up the file it created");
        // An existing file is untouched.
        std::fs::write(&path, b"data").unwrap();
        assert_eq!(ensure_writable_file(&path), Ok(()));
        assert_eq!(std::fs::read(&path).unwrap(), b"data");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writable_file_rejects_missing_parent_and_directories() {
        let dir = scratch("file-bad");
        let missing = dir.join("no/such/dir/out.json");
        let err = ensure_writable_file(&missing).unwrap_err();
        assert!(err.contains("out.json"), "diagnostic names the path: {err}");
        let err = ensure_writable_file(&dir).unwrap_err();
        assert!(err.contains("directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = scratch("atomic");
        let path = dir.join("snap.json");
        write_file_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_file_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no .tmp residue after a successful write"
        );
        // A doomed target (missing parent) fails with a named diagnostic
        // and leaves nothing behind.
        let bad = dir.join("no/such/out.json");
        let err = write_file_atomic(&bad, b"x").unwrap_err();
        assert!(err.contains("out.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writable_dir_creates_probes_and_rejects_files() {
        let dir = scratch("dir-ok");
        let target = dir.join("flight/deep");
        assert_eq!(ensure_writable_dir(&target), Ok(()));
        assert!(target.is_dir(), "missing directories are created");
        assert_eq!(std::fs::read_dir(&target).unwrap().count(), 0);
        let file = dir.join("plain-file");
        std::fs::write(&file, b"x").unwrap();
        let err = ensure_writable_dir(&file).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
