//! Scratch directories, state copies and process memory. Everything the
//! benchmark writes lives under `benchmark/work/`, inside the checkout.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// `benchmark/work`, next to this package's manifest.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A fresh, empty scratch directory `benchmark/work/<tag>-<pid>`, removed
/// again when the guard drops.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> io::Result<Self> {
        let path = work_root().join(format!("{tag}-{}", std::process::id()));
        remove_dir(&path)?;
        fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Remove a directory tree; a missing one is fine.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(error) if error.kind() != io::ErrorKind::NotFound => Err(error),
        _ => Ok(()),
    }
}

/// The regular files directly in `dir`, sorted by name (index and durable
/// directories are flat).
fn files_of(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Copy a flat directory to a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    remove_dir(to)?;
    fs::create_dir_all(to)?;
    for file in files_of(from)? {
        let name = file
            .file_name()
            .ok_or_else(|| io::Error::other("file without a name"))?;
        fs::copy(&file, to.join(name))?;
    }
    Ok(())
}

/// Bytes held by the files of a flat directory.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for file in files_of(dir)? {
        total += fs::metadata(file)?.len();
    }
    Ok(total)
}

/// Whether two flat directories hold the same file names with the same
/// bytes.
pub fn dirs_equal(a: &Path, b: &Path) -> io::Result<bool> {
    let (left, right) = (files_of(a)?, files_of(b)?);
    if left.len() != right.len() {
        return Ok(false);
    }
    for (l, r) in left.iter().zip(&right) {
        if l.file_name() != r.file_name() || fs::read(l)? != fs::read(r)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("/proc/self/status has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_compare_equal_until_a_byte_changes() {
        let scratch = Scratch::new("test-fsutil").expect("scratch");
        let (a, b) = (scratch.path().join("a"), scratch.path().join("b"));
        fs::create_dir_all(&a).expect("mkdir");
        fs::write(a.join("one"), b"hello").expect("write");
        fs::write(a.join("two"), b"world!").expect("write");
        copy_dir(&a, &b).expect("copy");
        assert!(dirs_equal(&a, &b).expect("compare"));
        assert_eq!(dir_bytes(&b).expect("size"), 11);
        fs::write(b.join("two"), b"world?").expect("write");
        assert!(!dirs_equal(&a, &b).expect("compare"));
        fs::remove_file(b.join("two")).expect("rm");
        assert!(!dirs_equal(&a, &b).expect("compare"));
        let kept = scratch.path().to_path_buf();
        drop(scratch);
        assert!(!kept.exists());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux procfs") > 1.0);
    }
}
