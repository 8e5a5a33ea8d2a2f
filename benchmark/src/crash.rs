//! Crash simulation for the ingest workload.
//!
//! Killing a process leaves the operating system's cache intact, so a
//! kill would not lose a single unflushed byte. The harness therefore
//! discards them itself: after dropping the index it truncates the active
//! WAL back to its length at the last `sync()`, keeping at most
//! [`TORN_BYTES`] of what followed — less than a frame header, so recovery
//! meets a torn record and must return exactly the acknowledged prefix.

use std::fs::OpenOptions;
use std::io;
use std::path::Path;

/// Unsynced bytes left on disk: shorter than the WAL's 24-byte frame
/// header, so the tail can never parse as a record.
pub const TORN_BYTES: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discarded {
    /// Unsynced bytes left in place for recovery to find.
    pub torn: u64,
    /// Unsynced bytes removed.
    pub cut: u64,
}

/// Truncate `wal` to at most [`TORN_BYTES`] past `synced_len` and make the
/// truncation itself durable.
pub fn discard_unsynced(wal: &Path, synced_len: u64) -> io::Result<Discarded> {
    let file = OpenOptions::new().write(true).open(wal)?;
    let len = file.metadata()?.len();
    if len < synced_len {
        return Err(io::Error::other(format!(
            "{} holds {len} bytes, fewer than the {synced_len} already synced",
            wal.display()
        )));
    }
    let keep = len.min(synced_len + TORN_BYTES);
    file.set_len(keep)?;
    file.sync_all()?;
    Ok(Discarded {
        torn: keep - synced_len,
        cut: len - keep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fsutil::Scratch;

    fn scratch(tag: &str, bytes: usize) -> (Scratch, std::path::PathBuf) {
        let dir = Scratch::new(&format!("test-crash-{tag}")).expect("scratch");
        let path = dir.path().join("wal-0.log");
        std::fs::write(&path, vec![0xAB; bytes]).expect("scratch file");
        (dir, path)
    }

    #[test]
    fn keeps_the_synced_prefix_and_a_torn_stub() {
        let (_dir, wal) = scratch("torn", 300);
        let discarded = discard_unsynced(&wal, 200).expect("truncates");
        assert_eq!(discarded, Discarded { torn: 11, cut: 89 });
        assert_eq!(std::fs::metadata(&wal).expect("exists").len(), 211);
        // Idempotent: nothing further to cut.
        let again = discard_unsynced(&wal, 200).expect("truncates");
        assert_eq!(again, Discarded { torn: 11, cut: 0 });
    }

    #[test]
    fn short_tails_survive_whole_and_clean_files_are_untouched() {
        let (_dir, wal) = scratch("short", 205);
        assert_eq!(
            discard_unsynced(&wal, 200).expect("truncates"),
            Discarded { torn: 5, cut: 0 }
        );
        assert_eq!(
            discard_unsynced(&wal, 205).expect("truncates"),
            Discarded { torn: 0, cut: 0 }
        );
        assert_eq!(std::fs::read(&wal).expect("exists"), vec![0xAB; 205]);
    }

    #[test]
    fn a_file_shorter_than_its_synced_length_is_an_error() {
        let (_dir, wal) = scratch("lost", 100);
        assert!(discard_unsynced(&wal, 200).is_err());
    }
}
