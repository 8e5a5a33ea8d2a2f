//! Kill-anywhere recovery for the on-disk index: the WAL may be cut at
//! *every* byte position, flipped at every byte, a bulk load may be
//! killed at every byte it writes, or the process may be failed at every
//! injected fault point — and reopening must yield either a typed error
//! or a bit-identical prefix of the uncrashed history. Corruption never
//! surfaces as a wrong query answer.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, CostMatrix, Histogram};
use emd_faultkit::FailPlan;
use emd_query::{ClusteredIndex, Database, DurableError, DurableIndex};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 4;

fn cost() -> Arc<CostMatrix> {
    Arc::new(ground::linear(DIM).unwrap())
}

fn reduced(cost: &CostMatrix) -> ReducedEmd {
    ReducedEmd::new(cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap()
}

fn h(bins: &[f64]) -> Histogram {
    Histogram::new(bins.to_vec()).unwrap()
}

/// A deterministic corpus: distinct, normalized, dimension `DIM`.
fn object(i: u64) -> Histogram {
    let mut bins = vec![0.0; DIM];
    let mut weight = 1.0;
    let mut x = i + 1;
    for bin in bins.iter_mut() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let fraction = f64::from(u32::try_from(x >> 40).unwrap_or(0)) / f64::from(1u32 << 24);
        *bin = fraction.max(1e-3);
        weight += fraction;
    }
    let total: f64 = bins.iter().sum();
    let _ = weight;
    Histogram::new(bins.into_iter().map(|b| b / total).collect()).unwrap()
}

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("flexemd-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One logical mutation of the reference history.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
}

/// Apply `ops` to a fresh durable index at `dir`, syncing once at the
/// end. Returns the external ids the inserts produced.
fn apply_ops(dir: &Path, ops: &[Op]) -> DurableIndex {
    let c = cost();
    let r = reduced(&c);
    let mut index = DurableIndex::create(dir, c, r).unwrap();
    for op in ops {
        match op {
            Op::Insert(seed) => {
                index.append_insert(object(*seed)).unwrap();
            }
            Op::Remove(id) => {
                index.append_remove(*id).unwrap();
            }
        }
    }
    index.sync().unwrap();
    index
}

/// Bit-exact fingerprint of an index's answer surface: k-NN over a probe
/// set, external ids and `f64::to_bits` distances.
fn fingerprint(index: &DurableIndex) -> Vec<Vec<(u64, u64)>> {
    if index.is_empty() {
        return Vec::new();
    }
    let probes = [
        h(&[1.0, 0.0, 0.0, 0.0]),
        h(&[0.0, 0.0, 0.0, 1.0]),
        h(&[0.25, 0.25, 0.25, 0.25]),
        h(&[0.1, 0.4, 0.4, 0.1]),
    ];
    let snapshot = index.snapshot().unwrap();
    probes
        .iter()
        .map(|probe| {
            let k = index.len().min(5);
            let (hits, _) = snapshot.knn(probe, k).unwrap();
            hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
        })
        .collect()
}

/// The reference history: inserts interleaved with removes, including a
/// remove of a not-yet-compacted early id.
fn history() -> Vec<Op> {
    vec![
        Op::Insert(0),
        Op::Insert(1),
        Op::Insert(2),
        Op::Remove(1),
        Op::Insert(3),
        Op::Insert(4),
        Op::Remove(0),
        Op::Insert(5),
        Op::Remove(4),
        Op::Insert(6),
    ]
}

/// Kill-at-every-WAL-position: truncate the log at *every* byte offset,
/// reopen, and demand the recovered index answer bit-identically to an
/// uncrashed index that only saw the surviving record prefix.
#[test]
fn kill_at_every_wal_position_recovers_a_bit_identical_prefix() {
    let ops = history();
    let full_dir = unique_dir("full");
    drop(apply_ops(&full_dir, &ops));
    let wal_file = full_dir.join("wal-0.log");
    let wal_bytes = std::fs::read(&wal_file).unwrap();

    // Reference fingerprints for every operation prefix, computed from
    // uncrashed replays.
    let mut reference = Vec::new();
    for prefix_len in 0..=ops.len() {
        let dir = unique_dir("ref");
        let index = apply_ops(&dir, &ops[..prefix_len]);
        reference.push(fingerprint(&index));
        drop(index);
        std::fs::remove_dir_all(&dir).ok();
    }

    for cut in 0..=wal_bytes.len() {
        let dir = unique_dir("cut");
        std::fs::copy(full_dir.join("base.seg"), dir.join("base.seg")).unwrap();
        std::fs::copy(full_dir.join("CURRENT"), dir.join("CURRENT")).unwrap();
        std::fs::write(dir.join("wal-0.log"), &wal_bytes[..cut]).unwrap();

        match DurableIndex::open(&dir) {
            Ok((index, report)) => {
                let survived = report.replayed_records;
                assert!(
                    survived <= ops.len(),
                    "cut {cut}: more records than operations"
                );
                assert_eq!(
                    fingerprint(&index),
                    reference[survived],
                    "cut {cut}: recovered index must answer exactly like an \
                     uncrashed index over the surviving {survived}-record prefix"
                );
                if cut < wal_bytes.len() {
                    assert!(
                        report.torn_tail.is_some() || survived < ops.len() || cut == 0,
                        "cut {cut}: dropped bytes must be reported"
                    );
                }
            }
            Err(error) => {
                // A cut inside the 12-byte WAL header is unrecoverable
                // metadata loss; everywhere else recovery must succeed.
                assert!(cut < 12, "cut {cut} should recover, got: {error}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&full_dir).ok();
}

/// The same matrix, post-compaction: cuts land in `wal-1.log` whose
/// first record is the compact-epoch id map.
#[test]
fn kill_at_every_position_after_compaction() {
    let full_dir = unique_dir("compact-full");
    let mut index = apply_ops(&full_dir, &history());
    index.compact().unwrap();
    // Post-compaction tail: one insert, one remove.
    index.append_insert(object(7)).unwrap();
    index.sync().unwrap();
    index.append_remove(3).unwrap();
    index.sync().unwrap();
    let tail_fingerprints = [
        fingerprint(&{
            let d = unique_dir("ct0");
            std::mem::drop(std::fs::remove_dir_all(&d));
            let dir2 = unique_dir("ct0b");
            let mut i = apply_ops(&dir2, &history());
            i.compact().unwrap();
            std::fs::remove_dir_all(&d).ok();
            i
        }),
        fingerprint(&{
            let dir2 = unique_dir("ct1");
            let mut i = apply_ops(&dir2, &history());
            i.compact().unwrap();
            i.append_insert(object(7)).unwrap();
            i
        }),
        fingerprint(&{
            let dir2 = unique_dir("ct2");
            let mut i = apply_ops(&dir2, &history());
            i.compact().unwrap();
            i.append_insert(object(7)).unwrap();
            i.append_remove(3).unwrap();
            i
        }),
    ];
    drop(index);
    let wal_file = full_dir.join("wal-1.log");
    let wal_bytes = std::fs::read(&wal_file).unwrap();

    for cut in 0..=wal_bytes.len() {
        let dir = unique_dir("ccut");
        std::fs::copy(full_dir.join("base.seg"), dir.join("base.seg")).unwrap();
        std::fs::copy(full_dir.join("sealed-1.seg"), dir.join("sealed-1.seg")).unwrap();
        std::fs::copy(full_dir.join("CURRENT"), dir.join("CURRENT")).unwrap();
        std::fs::write(dir.join("wal-1.log"), &wal_bytes[..cut]).unwrap();

        match DurableIndex::open(&dir) {
            Ok((recovered, report)) => {
                // The compact-epoch record is mandatory: an open that
                // succeeds replayed it plus 0..=2 tail records.
                assert!(
                    (1..=3).contains(&report.replayed_records),
                    "cut {cut}: unexpected record count {}",
                    report.replayed_records
                );
                let tail_records = report.replayed_records - 1;
                assert_eq!(
                    fingerprint(&recovered),
                    tail_fingerprints[tail_records],
                    "cut {cut}: post-compaction recovery must match the \
                     uncrashed {tail_records}-tail-record run"
                );
            }
            Err(error) => {
                // Losing the header or the mandatory compact-epoch
                // record is a typed failure, never a silent empty index.
                assert!(
                    !matches!(error, DurableError::Query(_)),
                    "cut {cut}: {error}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&full_dir).ok();
}

/// A bulk load — `Database::save_with_clusterings`, what `ingest
/// --cluster` runs into a new directory — killed at every byte it writes. The writer fsyncs
/// `base.seg`, `sealed-1.seg` and `wal-1.log` in that order and only
/// then renames the checkpoint into place, so a crash leaves a prefix of
/// that stream with the checkpoint whole or absent. Every prefix either
/// fails to open with a typed error or opens to the full index and its
/// clustering — never to a shorter index.
#[test]
fn kill_at_every_position_of_a_clustered_bulk_load() {
    let full_dir = unique_dir("bulk-full");
    let c = cost();
    let database = Database::new((0..8).map(object).collect(), Arc::clone(&c)).unwrap();
    let bundle =
        PersistedReduction::precompute("kmed:2", reduced(&c), database.histograms()).unwrap();
    let clustering = ClusteredIndex::from_persisted(&database, &bundle, 1.0)
        .unwrap()
        .to_stored();
    database
        .save_with_clusterings(&full_dir, "bulk", &[bundle], &[Some(clustering.clone())])
        .unwrap();
    let order = ["base.seg", "sealed-1.seg", "wal-1.log", "CURRENT"];
    let files: Vec<Vec<u8>> = order
        .iter()
        .map(|file| std::fs::read(full_dir.join(file)).unwrap())
        .collect();
    let total: usize = files.iter().map(Vec::len).sum();

    for cut in 0..=total {
        let dir = unique_dir("bulk-cut");
        let mut left = cut;
        for (&file, bytes) in order.iter().zip(&files) {
            let kept = left.min(bytes.len());
            left -= kept;
            let file = match file {
                "CURRENT" if kept < bytes.len() => "CURRENT.tmp",
                file => file,
            };
            if kept > 0 {
                std::fs::write(dir.join(file), &bytes[..kept]).unwrap();
            }
        }
        match Database::open(&dir) {
            Ok(index) => {
                assert_eq!(cut, total, "cut {cut}: only the whole load opens");
                assert_eq!(index.database.histograms(), database.histograms());
                assert_eq!(index.clusterings, vec![Some(clustering.clone())]);
            }
            Err(error) => assert!(
                matches!(error, DurableError::Io { .. }),
                "cut {cut}: a load without its checkpoint fails typed, got {error}"
            ),
        }
        match DurableIndex::open(&dir) {
            Ok((index, _)) => assert_eq!((cut, index.len()), (total, 8)),
            Err(error) => assert!(
                matches!(error, DurableError::Io { .. }),
                "cut {cut}: {error}"
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&full_dir).ok();
}

/// Every single-byte flip in the WAL either reopens with a reported
/// clean prefix or fails typed — never a wrong answer, never a panic.
#[test]
fn byte_flips_never_corrupt_answers() {
    let ops = history();
    let full_dir = unique_dir("flip-full");
    drop(apply_ops(&full_dir, &ops));
    let wal_bytes = std::fs::read(full_dir.join("wal-0.log")).unwrap();

    let mut reference = Vec::new();
    for prefix_len in 0..=ops.len() {
        let dir = unique_dir("flip-ref");
        reference.push(fingerprint(&apply_ops(&dir, &ops[..prefix_len])));
        std::fs::remove_dir_all(&dir).ok();
    }

    for position in 0..wal_bytes.len() {
        let mut mutated = wal_bytes.clone();
        mutated[position] ^= 0x40;
        let dir = unique_dir("flip");
        std::fs::copy(full_dir.join("base.seg"), dir.join("base.seg")).unwrap();
        std::fs::copy(full_dir.join("CURRENT"), dir.join("CURRENT")).unwrap();
        std::fs::write(dir.join("wal-0.log"), &mutated).unwrap();

        if let Ok((recovered, report)) = DurableIndex::open(&dir) {
            let survived = report.replayed_records;
            assert_eq!(
                fingerprint(&recovered),
                reference[survived],
                "flip at {position}: surviving prefix must be bit-identical"
            );
            assert!(
                survived == ops.len() || report.torn_tail.is_some(),
                "flip at {position}: dropped records must be reported"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&full_dir).ok();
}

/// Faultkit sweep: for every seed, run ingest + compaction under the
/// seeded fault schedule. Whatever fails, fails typed; reopening with no
/// faults recovers an index whose answers are internally consistent.
#[test]
fn seeded_fault_schedules_always_recover() {
    for seed in 0..64 {
        let plan = Arc::new(FailPlan::from_seed(seed));
        let dir = unique_dir("seeded");
        let c = cost();
        let r = reduced(&c);
        let outcome = (|| -> Result<(), DurableError> {
            let mut index = DurableIndex::create_with(&dir, c, r, plan.clone())?;
            for i in 0..6 {
                index.append_insert(object(i))?;
                index.sync()?;
            }
            index.append_remove(2)?;
            index.sync()?;
            index.compact()?;
            index.append_insert(object(6))?;
            index.sync()?;
            Ok(())
        })();
        if let Err(error) = outcome {
            // Injected failures must surface as store-typed errors.
            assert!(
                !matches!(error, DurableError::Query(_)),
                "seed {seed}: {error}"
            );
        }
        // Recovery with faults disarmed: open must succeed (or the
        // directory predates even `create` finishing its checkpoint).
        match DurableIndex::open(&dir) {
            Ok((recovered, _)) => {
                if !recovered.is_empty() {
                    let snapshot = recovered.snapshot().unwrap();
                    let (hits, _) = snapshot.knn(&h(&[0.25, 0.25, 0.25, 0.25]), 1).unwrap();
                    assert_eq!(hits.len(), 1, "seed {seed}: recovered index answers");
                }
            }
            Err(error) if !matches!(error, DurableError::Query(_)) => {
                // A schedule that killed `create` before the checkpoint
                // flip leaves no index — acceptable, typed.
            }
            Err(other) => panic!("seed {seed}: unexpected {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Arbitrary insert/remove interleavings, written durably and reopened,
/// replay to a bit-identical index.
#[derive(Clone, Copy, Debug)]
enum RawOp {
    Insert(u64),
    RemoveNth(usize),
}

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    // Low two bits select the op kind (3 = remove, else insert); the
    // rest seeds the histogram or picks the victim.
    prop::collection::vec(0u64..4000, 1..24).prop_map(|codes| {
        codes
            .into_iter()
            .map(|code| {
                if code % 4 == 3 {
                    RawOp::RemoveNth(usize::try_from(code / 4).unwrap_or(0) % 32)
                } else {
                    RawOp::Insert(code)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleavings_replay_bit_identically(ops in raw_ops(), compact_at in 0usize..24) {
        let dir = unique_dir("prop");
        let c = cost();
        let r = reduced(&c);
        let mut index = DurableIndex::create(&dir, c, r).unwrap();
        let mut live: Vec<u64> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                RawOp::Insert(seed) => {
                    live.push(index.append_insert(object(*seed)).unwrap());
                }
                RawOp::RemoveNth(n) => {
                    if !live.is_empty() {
                        let id = live.remove(n % live.len());
                        prop_assert!(index.append_remove(id).unwrap());
                    }
                }
            }
            if step + 1 == compact_at && !index.is_empty() {
                index.sync().unwrap();
                index.compact().unwrap();
            }
        }
        index.sync().unwrap();
        let before = fingerprint(&index);
        drop(index);
        let (reopened, _) = DurableIndex::open(&dir).unwrap();
        prop_assert_eq!(before, fingerprint(&reopened));
        std::fs::remove_dir_all(&dir).ok();
    }
}
