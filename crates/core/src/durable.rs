//! `DurableStore` — a crash-safe [`DomStore`]: every mutation is written
//! ahead to a [`crate::wal::Wal`], checkpoints serialize the whole store
//! atomically, and [`DurableStore::open`] recovers the exact pre-crash state
//! by restoring the last checkpoint and replaying the log tail.
//!
//! # What is logged, and when
//!
//! Each mutating call commits exactly one record *before* touching the
//! in-memory store (fsync-before-apply — see the [`crate::wal`] module docs
//! for the commit protocol):
//!
//! * [`DurableStore::load_xml`] logs the XML fragment itself; replay re-runs
//!   the same compression against the same shared-alphabet state, so the
//!   recovered grammar and [`DocId`] are bit-identical to the original.
//! * [`DurableStore::load_grammar`] logs the grammar's binary encoding.
//! * [`DurableStore::remove`] logs the removed id; replay reproduces the
//!   slab's free-list state (and therefore all later id assignments).
//! * [`DurableStore::apply`] / [`DurableStore::apply_batch`] log the batch;
//!   [`DurableStore::apply_batch_many`] logs **one** record for the whole
//!   fan-out, so the multi-document batch pays one fsync built-in, and
//!   concurrent single-document writers share fsyncs through the log's
//!   leader-based group commit.
//!
//! Maintenance (recompression) is deliberately **not** logged: it never
//! changes the derived document, so replaying the update log against the
//! checkpoint reproduces the same documents regardless of when
//! recompressions ran.
//!
//! # Ordering discipline
//!
//! Replay applies records strictly in LSN order, so the log order must
//! agree with the in-memory apply order wherever the two operations do not
//! commute: a per-document lock is held across *commit + apply* for
//! updates, a store-level lifecycle lock for loads and removals (which
//! contend on the slab and the shared alphabet). Operations on distinct
//! documents commute, so their records may interleave freely — that is
//! what lets their commits coalesce into shared fsyncs.
//!
//! # Checkpoints and recovery
//!
//! [`DurableStore::checkpoint`] is **fuzzy**: it holds only the lifecycle
//! lock (freezing the slab layout and the shared alphabet — loads and
//! removes wait, updates keep flowing) and serializes each document under
//! that document's own commit lock, recording the durable LSN at that
//! moment as the document's `doc_lsn`. Writers therefore only ever wait on
//! the one document currently being serialized, never on the whole
//! checkpoint. The image is written in the paged checkpoint-v3 layout
//! (documented in [`crate::wal`]) **atomically** (temp + rename); the log
//! is truncated afterwards only if it is provably covered
//! ([`crate::wal::Wal::truncate_if_at`] — when writers raced past the
//! checkpoint, the log survives and replay's per-document filter skips the
//! folded records).
//!
//! Recovery reads the checkpoint (if any), adopts the symbol-table image
//! wholesale and installs every document as an undecoded lazy payload
//! (decoded on first touch — cold start is O(open) + O(touched docs), not
//! O(fleet)), then replays log records with `lsn > checkpoint_lsn`,
//! skipping per-document updates with `lsn <= doc_lsn` (already folded
//! into that document's extent). A torn final record is truncated
//! silently; genuinely corrupt records surface as
//! [`RepairError::WalCorrupt`]. Replayed operations that failed originally
//! (stale ids, out-of-range targets) fail identically on replay — per-op
//! errors are deliberately not fatal to recovery. A `LoadGrammar` payload
//! that fails to decode is *not* such a per-op error: the original commit
//! encoded a real grammar, so an undecodable payload behind a valid frame
//! CRC is inconsistency, and it too surfaces as [`RepairError::WalCorrupt`].
//! A checkpoint of any version but 3 is rejected with a typed
//! [`RepairError::Storage`] error.
//!
//! Live updates and replayed updates run the same code: both
//! [`DurableStore::apply`] and replay go through [`DomStore::apply_batch`],
//! so a recovered grammar is the live grammar, byte for byte — failed
//! operations included.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sltgrammar::serialize;
use sltgrammar::Grammar;
use xmltree::updates::UpdateOp;
use xmltree::wire::{self, WireReader};
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::navigate::NavTables;
use crate::query::QueryMatches;
use crate::repair::RepairStats;
use crate::store::{DocId, DomStore, MaintenanceReport, SlabLayout, Snapshot};
use crate::update::BatchStats;
use crate::wal::{read_log, DiskFs, StorageFs, Wal, WalEntry, WalRecord};

/// Magic bytes of the checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"SLCK";
/// Version byte of the paged, offset-indexed checkpoint format written by
/// [`DurableStore::checkpoint`] (layout documented in [`crate::wal`]).
pub const CHECKPOINT_VERSION_V3: u8 = 3;

/// What [`DurableStore::open`] found and did, including the open-time
/// breakdown: with a v3 checkpoint, `checkpoint_elapsed` covers reading and
/// validating the image (no grammar decodes — `lazy_docs` counts the
/// documents left undecoded for first touch) and `replay_elapsed` covers
/// the log tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN recorded in the checkpoint (0 when none existed).
    pub checkpoint_lsn: u64,
    /// Documents restored from the checkpoint.
    pub checkpoint_docs: usize,
    /// Log records replayed (those with `lsn > checkpoint_lsn` not already
    /// folded into a document's checkpoint extent).
    pub replayed: u64,
    /// LSN of the last durable record after recovery.
    pub last_lsn: u64,
    /// Whether a torn final record was truncated from the log.
    pub torn_tail: bool,
    /// Bytes the torn-tail truncation removed.
    pub truncated_bytes: u64,
    /// Documents restored as undecoded lazy payloads (v3 checkpoints),
    /// still pending first touch when `open` returned.
    pub lazy_docs: usize,
    /// Time spent reading/validating the checkpoint image.
    pub checkpoint_elapsed: Duration,
    /// Time spent scanning and replaying the log tail.
    pub replay_elapsed: Duration,
    /// Total wall time of `open`.
    pub open_elapsed: Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered to lsn {} (checkpoint: lsn {}, {} docs, {} left lazy; \
             replayed {} records{}; open {:?} = checkpoint {:?} + replay {:?})",
            self.last_lsn,
            self.checkpoint_lsn,
            self.checkpoint_docs,
            self.lazy_docs,
            self.replayed,
            if self.torn_tail {
                format!("; truncated a torn tail of {} bytes", self.truncated_bytes)
            } else {
                String::new()
            },
            self.open_elapsed,
            self.checkpoint_elapsed,
            self.replay_elapsed,
        )
    }
}

/// What [`DurableStore::checkpoint`] wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Base LSN of the checkpoint: every record at or below it is folded
    /// in for every document (per-document extents may fold later records
    /// too — see their `doc_lsn`s).
    pub last_lsn: u64,
    /// Documents serialized into the checkpoint.
    pub documents: usize,
    /// Size of the checkpoint file in bytes.
    pub bytes: usize,
    /// Whether the log could be truncated afterwards (false when writers
    /// committed during the fuzzy checkpoint — replay skips the folded
    /// records either way).
    pub log_truncated: bool,
}

impl std::fmt::Display for CheckpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint at lsn {}: {} docs, {} bytes; log {}",
            self.last_lsn,
            self.documents,
            self.bytes,
            if self.log_truncated { "truncated" } else { "kept (writers active)" }
        )
    }
}

/// A crash-safe multi-document store: a [`DomStore`] whose every mutation
/// is write-ahead logged, plus checkpointing and recovery (see the module
/// docs).
pub struct DurableStore {
    store: DomStore,
    wal: Wal,
    fs: Arc<dyn StorageFs>,
    checkpoint_path: String,
    /// Orders lifecycle events (load/remove) among themselves: they contend
    /// on the slab and the shared alphabet, so their log order must match
    /// their apply order. [`DurableStore::checkpoint`] holds it across the
    /// whole serialize (the slab and master alphabet stay frozen) — but
    /// updates never take it, so writers keep flowing during a checkpoint.
    lifecycle: Mutex<()>,
    /// Per-document commit+apply locks: ops on one document must reach the
    /// log in the order they reach the grammar.
    doc_locks: Mutex<HashMap<DocId, Arc<Mutex<()>>>>,
}

fn log_path(dir: &str) -> String {
    format!("{dir}/wal.log")
}

fn checkpoint_path(dir: &str) -> String {
    format!("{dir}/checkpoint.slck")
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir` on the real filesystem,
    /// recovering whatever a previous incarnation left there. The directory
    /// is created if missing.
    pub fn open(dir: &str) -> Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir).map_err(|e| RepairError::Storage {
            detail: format!("create `{dir}`: {e}"),
        })?;
        Self::open_with(Arc::new(DiskFs), dir)
    }

    /// Opens (or creates) a durable store over an injected storage backend —
    /// the seam the fault-injection suite drives with
    /// [`crate::wal::testing::FailpointFs`].
    pub fn open_with(fs: Arc<dyn StorageFs>, dir: &str) -> Result<(Self, RecoveryReport)> {
        let open_start = Instant::now();
        let log = log_path(dir);
        let ckpt = checkpoint_path(dir);
        let store = DomStore::new();
        let mut report = RecoveryReport::default();
        // Per-document fold horizons of a (fuzzy) v3 checkpoint: replay
        // skips a document's updates at or below its recorded `doc_lsn`.
        let mut doc_lsns: HashMap<DocId, u64> = HashMap::new();

        if let Some(bytes) = fs.read(&ckpt)? {
            let image = decode_checkpoint(&bytes)?;
            report.checkpoint_lsn = image.base_lsn;
            report.checkpoint_docs = image.docs.len();
            let mut lazy = Vec::with_capacity(image.docs.len());
            for doc in image.docs {
                doc_lsns.insert(doc.id, doc.doc_lsn);
                lazy.push((doc.id, doc.payload, doc.crc));
            }
            store.restore_slab(image.layout, image.segments, lazy)?;
        }
        report.checkpoint_elapsed = open_start.elapsed();

        let replay_start = Instant::now();
        let log_bytes = fs.read(&log)?.unwrap_or_default();
        let replay = read_log(&log_bytes)?;
        if replay.torn {
            report.torn_tail = true;
            report.truncated_bytes = log_bytes.len() as u64 - replay.valid_len;
            fs.set_len(&log, replay.valid_len)?;
            fs.sync(&log)?;
        }
        let mut last_lsn = report.checkpoint_lsn.max(replay.last_lsn());
        for &doc_lsn in doc_lsns.values() {
            last_lsn = last_lsn.max(doc_lsn);
        }
        for (lsn, offset, entry) in replay.records {
            if lsn <= report.checkpoint_lsn {
                continue; // already folded into the checkpoint for every doc
            }
            let Some(entry) = filter_folded(entry, lsn, &doc_lsns) else {
                continue; // folded into every targeted document's extent
            };
            apply_entry(&store, lsn, offset, entry)?;
            report.replayed += 1;
            last_lsn = last_lsn.max(lsn);
        }
        report.last_lsn = last_lsn;
        report.replay_elapsed = replay_start.elapsed();
        report.lazy_docs = store.pending_count();
        report.open_elapsed = open_start.elapsed();

        let wal = Wal::new(fs.clone(), log, report.last_lsn);
        Ok((
            DurableStore {
                store,
                wal,
                fs,
                checkpoint_path: ckpt,
                lifecycle: Mutex::new(()),
                doc_locks: Mutex::new(HashMap::new()),
            },
            report,
        ))
    }

    fn doc_lock(&self, doc: DocId) -> Arc<Mutex<()>> {
        let mut map = self.doc_locks.lock().expect("doc-lock map never poisoned");
        // Stale ids fed to apply/apply_batch/remove create entries too, and
        // only a successful remove() deletes one — so the map would grow by
        // one Arc per distinct id ever touched. Prune dead entries (nobody
        // holds the Arc, document no longer live) whenever the map outgrows
        // the live-document count, keeping it bounded on long-lived stores.
        if map.len() > 2 * self.store.len() + 16 {
            map.retain(|&id, lock| Arc::strong_count(lock) > 1 || self.store.contains(id));
        }
        map.entry(doc).or_default().clone()
    }

    // ----- logged mutations (fsync before apply; see the module docs) -----

    /// Durable [`DomStore::load_xml`]: the fragment is logged and fsync'd,
    /// then compressed into the store.
    pub fn load_xml(&self, xml: &XmlTree) -> Result<DocId> {
        let _order = self.lifecycle.lock().expect("lifecycle lock never poisoned");
        self.wal.commit(&WalRecord::LoadXml { tree: xml })?;
        self.store.load_xml(xml)
    }

    /// Durable [`DomStore::load_grammar`]: the grammar's binary encoding is
    /// logged, then the grammar joins the store.
    pub fn load_grammar(&self, grammar: Grammar) -> Result<DocId> {
        let _order = self.lifecycle.lock().expect("lifecycle lock never poisoned");
        let bytes = serialize::encode(&grammar);
        self.wal.commit(&WalRecord::LoadGrammar { bytes: &bytes })?;
        self.store.load_grammar(grammar)
    }

    /// Durable [`DomStore::remove`].
    pub fn remove(&self, doc: DocId) -> Result<Grammar> {
        let _order = self.lifecycle.lock().expect("lifecycle lock never poisoned");
        let lock = self.doc_lock(doc);
        let _doc = lock.lock().expect("doc lock never poisoned");
        self.wal.commit(&WalRecord::Remove { doc })?;
        let result = self.store.remove(doc);
        if result.is_ok() {
            self.doc_locks
                .lock()
                .expect("doc-lock map never poisoned")
                .remove(&doc);
        }
        result
    }

    /// Durable [`DomStore::apply`]: logged and applied as a batch of one.
    pub fn apply(&self, doc: DocId, op: &UpdateOp) -> Result<(BatchStats, MaintenanceReport)> {
        self.apply_batch(doc, std::slice::from_ref(op))
    }

    /// Durable [`DomStore::apply_batch`].
    pub fn apply_batch(
        &self,
        doc: DocId,
        ops: &[UpdateOp],
    ) -> Result<(BatchStats, MaintenanceReport)> {
        let lock = self.doc_lock(doc);
        let _doc = lock.lock().expect("doc lock never poisoned");
        self.wal.commit(&WalRecord::ApplyBatch { doc, ops })?;
        self.store.apply_batch(doc, ops)
    }

    /// Durable [`DomStore::apply_batch_many`]: **one** log record (one
    /// fsync) covers the whole multi-document fan-out.
    pub fn apply_batch_many(
        &self,
        jobs: &[(DocId, Vec<UpdateOp>)],
    ) -> (Vec<Result<BatchStats>>, MaintenanceReport) {
        if jobs.is_empty() {
            return (Vec::new(), MaintenanceReport::default());
        }
        // Lock every distinct target in sorted order (no deadlocks with
        // concurrent multi-document batches).
        let mut targets: Vec<DocId> = jobs.iter().map(|(doc, _)| *doc).collect();
        targets.sort();
        targets.dedup();
        let locks: Vec<Arc<Mutex<()>>> = targets.iter().map(|&d| self.doc_lock(d)).collect();
        let _guards: Vec<_> = locks
            .iter()
            .map(|l| l.lock().expect("doc lock never poisoned"))
            .collect();
        if let Err(e) = self.wal.commit(&WalRecord::ApplyMany { jobs }) {
            let results = jobs.iter().map(|_| Err(e.clone())).collect();
            return (results, MaintenanceReport::default());
        }
        self.store.apply_batch_many(jobs)
    }

    // ----- checkpointing -----

    /// Writes a **fuzzy** checkpoint in the paged v3 layout (see
    /// [`crate::wal`]): the lifecycle lock is held across the whole call —
    /// loads and removes wait, so the slab layout and master alphabet stay
    /// frozen — but updates keep flowing; each document is serialized under
    /// its own commit lock from an immutable grammar snapshot, with the
    /// durable LSN at that moment recorded as the document's fold horizon
    /// (`doc_lsn`). The image is written **atomically** (temp + rename) and
    /// the log truncated only if provably covered. After a crash at any
    /// point of this sequence, recovery sees either the old checkpoint plus
    /// the full log or the new checkpoint (plus a log whose folded records
    /// it skips by LSN) — never a half state.
    ///
    /// Reads are never blocked (they take none of these locks), and a
    /// writer to document B proceeds while document A is being serialized.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let _order = self.lifecycle.lock().expect("lifecycle lock never poisoned");
        let base_lsn = self.wal.durable_lsn();
        let layout = self.store.capture_slab();
        let segments = self.store.symbol_image();
        let mut docs = Vec::with_capacity(layout.live.len());
        for &id in &layout.live {
            let lock = self.doc_lock(id);
            let guard = lock.lock().expect("doc lock never poisoned");
            // Read the horizon while holding the commit lock: every record
            // for this doc with lsn <= doc_lsn was applied before we got
            // the lock (commit+apply happen under it), so it is in the
            // payload; any later record will have lsn > doc_lsn.
            let doc_lsn = self.wal.durable_lsn();
            let (payload, crc) = self.store.checkpoint_payload(id)?;
            drop(guard);
            docs.push(DocExtent { id, doc_lsn, payload, crc });
        }
        let bytes = encode_checkpoint_v3(base_lsn, &layout, &segments, &docs);
        self.fs.write_atomic(&self.checkpoint_path, &bytes)?;
        let log_truncated = self.wal.truncate_if_at(base_lsn)?;
        Ok(CheckpointReport {
            last_lsn: base_lsn,
            documents: docs.len(),
            bytes: bytes.len(),
            log_truncated,
        })
    }

    // ----- read surface (delegated; reads need no logging) -----

    /// The wrapped [`DomStore`], for its full read surface. Mutating the
    /// store through this reference **bypasses the log** — recovered state
    /// will not include such changes; use the logged methods above instead.
    pub fn dom(&self) -> &DomStore {
        &self.store
    }

    /// See [`DomStore::snapshot`].
    pub fn snapshot(&self, doc: DocId) -> Result<Snapshot> {
        self.store.snapshot(doc)
    }

    /// See [`DomStore::grammar`].
    pub fn grammar(&self, doc: DocId) -> Result<Arc<Grammar>> {
        self.store.grammar(doc)
    }

    /// See [`DomStore::to_xml`].
    pub fn to_xml(&self, doc: DocId) -> Result<XmlTree> {
        self.store.to_xml(doc)
    }

    /// See [`DomStore::query_str`].
    pub fn query_str(&self, doc: DocId, query: &str) -> Result<QueryMatches> {
        self.store.query_str(doc, query)
    }

    /// See [`DomStore::label_at`].
    pub fn label_at(&self, doc: DocId, preorder_index: u128) -> Result<String> {
        self.store.label_at(doc, preorder_index)
    }

    /// See [`DomStore::nav_tables`].
    pub fn nav_tables(&self, doc: DocId) -> Result<Arc<NavTables>> {
        self.store.nav_tables(doc)
    }

    /// See [`DomStore::doc_ids`].
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.store.doc_ids()
    }

    /// See [`DomStore::contains`].
    pub fn contains(&self, doc: DocId) -> bool {
        self.store.contains(doc)
    }

    /// See [`DomStore::len`].
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// See [`DomStore::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// See [`DomStore::edge_count`].
    pub fn edge_count(&self, doc: DocId) -> Result<usize> {
        self.store.edge_count(doc)
    }

    /// See [`DomStore::derived_size`].
    pub fn derived_size(&self, doc: DocId) -> Result<u128> {
        self.store.derived_size(doc)
    }

    /// See [`DomStore::maintain`]. Recompression is not logged: it never
    /// changes the derived document, so replay is unaffected by when (or
    /// whether) maintenance ran.
    pub fn maintain(&self) -> MaintenanceReport {
        self.store.maintain()
    }

    /// See [`DomStore::recompress`] (not logged, like [`DurableStore::maintain`]).
    pub fn recompress(&self, doc: DocId) -> Result<RepairStats> {
        self.store.recompress(doc)
    }

    /// LSN of the last durably committed record.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    /// Number of log fsyncs so far (commits ÷ fsyncs = group-commit
    /// coalescing factor).
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.sync_count()
    }
}

/// Replays one decoded record against the store. Per-op failures are
/// expected (they reproduce failures of the original run — stale ids,
/// out-of-range targets) and deliberately non-fatal. A `LoadGrammar`
/// payload that fails to decode is different: its frame passed the CRC, so
/// this is genuine inconsistency, and silently skipping the load would
/// shift every later slab assignment away from the pre-crash state — it
/// surfaces as [`RepairError::WalCorrupt`] instead.
fn apply_entry(store: &DomStore, lsn: u64, offset: u64, entry: WalEntry) -> Result<()> {
    match entry {
        WalEntry::LoadXml { tree } => {
            let _ = store.load_xml(&tree);
        }
        WalEntry::LoadGrammar { bytes } => {
            let grammar = serialize::decode(&bytes).map_err(|e| RepairError::WalCorrupt {
                lsn: lsn - 1,
                offset,
                detail: format!(
                    "record lsn {lsn}: LoadGrammar payload fails to decode despite a valid \
                     record checksum: {e}"
                ),
            })?;
            let _ = store.load_grammar(grammar);
        }
        WalEntry::Remove { doc } => {
            let _ = store.remove(doc);
        }
        WalEntry::ApplyBatch { doc, ops } => {
            let _ = store.apply_batch(doc, &ops);
        }
        WalEntry::ApplyMany { jobs } => {
            let _ = store.apply_batch_many(&jobs);
        }
    }
    Ok(())
}

// ----- checkpoint file format -----

fn ckpt_err(detail: impl Into<String>) -> RepairError {
    RepairError::Storage {
        detail: format!("checkpoint corrupt: {}", detail.into()),
    }
}

/// Reads a count bounded by the remaining input (each element needs at
/// least `min_bytes`), so corrupt checkpoints cannot drive allocations.
fn bounded_count(r: &mut WireReader<'_>, min_bytes: usize, what: &str) -> Result<usize> {
    let n = r.varint().map_err(|e| ckpt_err(e.to_string()))? as usize;
    if n > r.remaining() / min_bytes {
        return Err(ckpt_err(format!(
            "{what} count {n} exceeds what the remaining input could hold"
        )));
    }
    Ok(n)
}

// ----- checkpoint v3 (paged, offset-indexed; layout in `crate::wal`) -----

/// One document's extent in a v3 checkpoint: the serialized grammar bytes,
/// the LSN horizon folded into them, and the CRC the lazy materialization
/// path verifies on first touch.
struct DocExtent {
    id: DocId,
    doc_lsn: u64,
    payload: Vec<u8>,
    crc: u32,
}

/// A decoded checkpoint: the paged image whose document payloads are
/// adopted as undecoded bytes.
struct CheckpointImage {
    base_lsn: u64,
    layout: SlabLayout,
    segments: Vec<(Vec<String>, Vec<usize>)>,
    docs: Vec<DocExtent>,
}

/// Bytes before the first section: magic, version, nine `u64` header
/// fields, and the header CRC.
const V3_HEADER_LEN: usize = 4 + 1 + 72 + 4;

fn encode_checkpoint_v3(
    base_lsn: u64,
    layout: &SlabLayout,
    segments: &[(Vec<String>, Vec<usize>)],
    docs: &[DocExtent],
) -> Vec<u8> {
    let crc32 = sltgrammar::crc32::crc32;
    // Section bodies first; the header offsets depend on their lengths.
    let mut slab = Vec::new();
    wire::write_varint(&mut slab, layout.generations.len() as u64);
    for &generation in &layout.generations {
        wire::write_varint(&mut slab, generation as u64);
    }
    wire::write_varint(&mut slab, layout.free.len() as u64);
    for &slot in &layout.free {
        wire::write_varint(&mut slab, slot as u64);
    }
    wire::write_varint(&mut slab, layout.live.len() as u64);
    for &id in &layout.live {
        wire::write_varint(&mut slab, id.slot() as u64);
        wire::write_varint(&mut slab, id.generation() as u64);
    }

    let mut symtab = Vec::new();
    wire::write_varint(&mut symtab, segments.len() as u64);
    for (names, ranks) in segments {
        wire::write_varint(&mut symtab, names.len() as u64);
        for (name, &rank) in names.iter().zip(ranks) {
            wire::write_varint(&mut symtab, rank as u64);
            wire::write_varint(&mut symtab, name.len() as u64);
            symtab.extend_from_slice(name.as_bytes());
        }
    }

    let mut extents = Vec::new();
    wire::write_varint(&mut extents, docs.len() as u64);
    let mut payload_off = 0u64;
    for doc in docs {
        wire::write_varint(&mut extents, doc.id.slot() as u64);
        wire::write_varint(&mut extents, doc.id.generation() as u64);
        wire::write_varint(&mut extents, doc.doc_lsn);
        wire::write_varint(&mut extents, payload_off);
        wire::write_varint(&mut extents, doc.payload.len() as u64);
        extents.extend_from_slice(&doc.crc.to_le_bytes());
        payload_off += doc.payload.len() as u64;
    }

    let slab_off = V3_HEADER_LEN as u64;
    let slab_len = (slab.len() + 4) as u64;
    let symtab_off = slab_off + slab_len;
    let symtab_len = (symtab.len() + 4) as u64;
    let extents_off = symtab_off + symtab_len;
    let extents_len = (extents.len() + 4) as u64;
    let docs_off = extents_off + extents_len;
    let docs_len = payload_off;

    let mut out = Vec::with_capacity((docs_off + docs_len) as usize);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.push(CHECKPOINT_VERSION_V3);
    for field in [
        base_lsn,
        slab_off,
        slab_len,
        symtab_off,
        symtab_len,
        extents_off,
        extents_len,
        docs_off,
        docs_len,
    ] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    let header_crc = crc32(&out[5..77]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for body in [&slab, &symtab, &extents] {
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
    }
    for doc in docs {
        out.extend_from_slice(&doc.payload);
    }
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointImage> {
    let crc32 = sltgrammar::crc32::crc32;
    if bytes.len() < 5 || &bytes[..4] != CHECKPOINT_MAGIC {
        return Err(ckpt_err("bad magic bytes"));
    }
    if bytes[4] != CHECKPOINT_VERSION_V3 {
        return Err(ckpt_err(format!("unsupported version {}", bytes[4])));
    }
    if bytes.len() < V3_HEADER_LEN {
        return Err(ckpt_err("v3 header truncated"));
    }
    let expected = u32::from_le_bytes(bytes[77..81].try_into().expect("4 bytes"));
    let found = crc32(&bytes[5..77]);
    if expected != found {
        return Err(ckpt_err(format!(
            "v3 header checksum mismatch (stored {expected:#010x}, found {found:#010x})"
        )));
    }
    let mut fields = [0u64; 9];
    for (i, f) in fields.iter_mut().enumerate() {
        let at = 5 + i * 8;
        *f = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    }
    let [base_lsn, slab_off, slab_len, symtab_off, symtab_len, extents_off, extents_len, docs_off, docs_len] =
        fields;
    // Every byte of the file must be accounted for: header, then the three
    // checksummed sections back to back, then the docs region — no gaps, no
    // overlaps, no tail. (Docs-region bytes are covered by the per-extent
    // payload CRCs, verified at first touch rather than here.)
    let file_len = bytes.len() as u64;
    let mut cursor = V3_HEADER_LEN as u64;
    for (name, off, len, min) in [
        ("slab", slab_off, slab_len, 4u64),
        ("symbol-table", symtab_off, symtab_len, 4),
        ("extents", extents_off, extents_len, 4),
        ("docs", docs_off, docs_len, 0),
    ] {
        if off != cursor {
            return Err(ckpt_err(format!(
                "v3 {name} section at offset {off} does not follow the previous section \
                 (expected offset {cursor})"
            )));
        }
        if len < min {
            return Err(ckpt_err(format!(
                "v3 {name} section length {len} is shorter than its checksum"
            )));
        }
        cursor = off
            .checked_add(len)
            .filter(|&end| end <= file_len)
            .ok_or_else(|| {
                ckpt_err(format!(
                    "v3 {name} section (offset {off}, length {len}) exceeds the file"
                ))
            })?;
    }
    if cursor != file_len {
        return Err(ckpt_err(format!(
            "v3 trailing bytes: sections end at {cursor} but the file is {file_len} bytes"
        )));
    }
    let section = |off: u64, len: u64, name: &str| -> Result<&[u8]> {
        let start = off as usize;
        let body = &bytes[start + 4..start + len as usize];
        let expected = u32::from_le_bytes(bytes[start..start + 4].try_into().expect("4 bytes"));
        let found = crc32(body);
        if expected != found {
            return Err(ckpt_err(format!(
                "v3 {name} section checksum mismatch (stored {expected:#010x}, found {found:#010x})"
            )));
        }
        Ok(body)
    };
    let fail = |e: xmltree::XmlError| ckpt_err(e.to_string());

    let mut r = WireReader::new(section(slab_off, slab_len, "slab")?);
    let mut layout = SlabLayout::default();
    let slots = bounded_count(&mut r, 1, "slot")?;
    for _ in 0..slots {
        layout.generations.push(r.varint().map_err(fail)? as u32);
    }
    let free = bounded_count(&mut r, 1, "free-slot")?;
    for _ in 0..free {
        layout.free.push(r.varint().map_err(fail)? as u32);
    }
    let live = bounded_count(&mut r, 2, "live-doc")?;
    for _ in 0..live {
        let slot = r.varint().map_err(fail)? as u32;
        let generation = r.varint().map_err(fail)? as u32;
        layout.live.push(DocId::from_parts(slot, generation));
    }
    if !r.finished() {
        return Err(ckpt_err("v3 slab section has trailing bytes"));
    }

    let mut r = WireReader::new(section(symtab_off, symtab_len, "symbol-table")?);
    let segment_count = bounded_count(&mut r, 1, "symbol segment")?;
    let mut segments = Vec::with_capacity(segment_count);
    for _ in 0..segment_count {
        let symbol_count = bounded_count(&mut r, 2, "symbol")?;
        let mut names = Vec::with_capacity(symbol_count);
        let mut ranks = Vec::with_capacity(symbol_count);
        for _ in 0..symbol_count {
            ranks.push(r.varint().map_err(fail)? as usize);
            let len = r.varint().map_err(fail)? as usize;
            let name = r.bytes(len).map_err(fail)?;
            names.push(
                std::str::from_utf8(name)
                    .map_err(|_| ckpt_err("v3 symbol name is not valid UTF-8"))?
                    .to_string(),
            );
        }
        segments.push((names, ranks));
    }
    if !r.finished() {
        return Err(ckpt_err("v3 symbol-table section has trailing bytes"));
    }

    let mut r = WireReader::new(section(extents_off, extents_len, "extents")?);
    let doc_count = bounded_count(&mut r, 9, "document extent")?;
    let mut docs = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        let slot = r.varint().map_err(fail)? as u32;
        let generation = r.varint().map_err(fail)? as u32;
        let doc_lsn = r.varint().map_err(fail)?;
        let payload_off = r.varint().map_err(fail)?;
        let payload_len = r.varint().map_err(fail)?;
        let crc = u32::from_le_bytes(r.bytes(4).map_err(fail)?.try_into().expect("4 bytes"));
        payload_off
            .checked_add(payload_len)
            .filter(|&end| end <= docs_len)
            .ok_or_else(|| {
                ckpt_err(format!(
                    "v3 document extent (offset {payload_off}, length {payload_len}) exceeds \
                     the docs region of {docs_len} bytes"
                ))
            })?;
        let start = (docs_off + payload_off) as usize;
        let payload = bytes[start..start + payload_len as usize].to_vec();
        docs.push(DocExtent {
            id: DocId::from_parts(slot, generation),
            doc_lsn,
            payload,
            crc,
        });
    }
    if !r.finished() {
        return Err(ckpt_err("v3 extents section has trailing bytes"));
    }
    Ok(CheckpointImage {
        base_lsn,
        layout,
        segments,
        docs,
    })
}

/// Drops (or trims) a replayed record whose effects the checkpoint already
/// folded into a document extent. A record counts as replayed only when
/// some part of it survives this filter. Lifecycle records (loads, removes)
/// are never filtered: they cannot commit during a checkpoint, so any in
/// the tail postdate every extent.
fn filter_folded(entry: WalEntry, lsn: u64, doc_lsns: &HashMap<DocId, u64>) -> Option<WalEntry> {
    let folded = |doc: &DocId| doc_lsns.get(doc).is_some_and(|&d| lsn <= d);
    match entry {
        WalEntry::ApplyBatch { doc, .. } if folded(&doc) => None,
        WalEntry::ApplyMany { mut jobs } => {
            jobs.retain(|(doc, _)| !folded(doc));
            if jobs.is_empty() {
                None
            } else {
                Some(WalEntry::ApplyMany { jobs })
            }
        }
        other => Some(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::testing::FailpointFs;
    use xmltree::parse::parse_xml;

    fn doc(tag: &str, n: usize) -> XmlTree {
        let mut s = format!("<{tag}>");
        for _ in 0..n {
            s.push_str("<item><title/><body><p/><p/></body></item>");
        }
        s.push_str(&format!("</{tag}>"));
        parse_xml(&s).unwrap()
    }

    fn mem_store() -> (Arc<FailpointFs>, DurableStore) {
        let fs = Arc::new(FailpointFs::new());
        let (store, report) = DurableStore::open_with(fs.clone(), "db").unwrap();
        // Timings are the only nonzero fields on a fresh open.
        assert_eq!(
            report,
            RecoveryReport {
                checkpoint_elapsed: report.checkpoint_elapsed,
                replay_elapsed: report.replay_elapsed,
                open_elapsed: report.open_elapsed,
                ..RecoveryReport::default()
            }
        );
        (fs, store)
    }

    #[test]
    fn loads_and_updates_replay_to_identical_state() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        store
            .apply(a, &UpdateOp::Rename { target: 1, label: "entry".into() })
            .unwrap();
        store
            .apply_batch(b, &[UpdateOp::Delete { target: 1 }])
            .unwrap();
        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        drop(store); // "crash": memory gone, fs survives

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 4);
        assert!(!report.torn_tail);
        assert_eq!(recovered.doc_ids(), vec![a, b], "ids survive recovery");
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want_a);
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn mid_chunk_splice_error_replays_to_the_partial_state() {
        // The WAL logs an ApplyBatch record *before* the apply; a splice-time
        // error leaves the chunk's already-spliced prefix applied in memory.
        // Recovery replays the same record through the same non-fatal
        // apply_batch, so the recovered document must equal the in-memory
        // partial state, byte for byte — not the batch-start state.
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        let before_a = store.to_xml(a).unwrap().to_xml();

        // Doc a: rename + insert splice fine, then the delete lands on a null
        // node (preorder 3 is <title/>'s empty child list) and errors.
        let frag = parse_xml("<ad/>").unwrap();
        let ops_a = vec![
            UpdateOp::Rename { target: 1, label: "entry".into() },
            UpdateOp::InsertBefore { target: 5, fragment: frag },
            UpdateOp::Delete { target: 3 },
        ];
        assert!(store.apply_batch(a, &ops_a).is_err());
        // Doc b: the rename to the reserved null label errors after a
        // successful insert in the same chunk.
        let ops_b = vec![
            UpdateOp::InsertBefore {
                target: 1,
                fragment: parse_xml("<promo/>").unwrap(),
            },
            UpdateOp::Rename { target: 3, label: "#".into() },
        ];
        assert!(store.apply_batch(b, &ops_b).is_err());

        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        assert_ne!(want_a, before_a, "the failed batch's prefix must be applied");
        drop(store); // crash with the poisoned records in the log

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(
            recovered.to_xml(a).unwrap().to_xml(),
            want_a,
            "replay must reproduce the partial state of the failed batch"
        );
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn checkpoint_restores_without_replay_and_truncates_the_log() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        store
            .apply(a, &UpdateOp::Rename { target: 1, label: "entry".into() })
            .unwrap();
        let report = store.checkpoint().unwrap();
        assert_eq!(report.last_lsn, 2);
        assert_eq!(report.documents, 1);
        assert_eq!(fs.file("db/wal.log").unwrap().len(), 0, "log truncated");
        let want = store.to_xml(a).unwrap().to_xml();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.checkpoint_lsn, 2);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want);
    }

    #[test]
    fn removal_and_slot_reuse_replay_identically() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 2)).unwrap();
        let b = store.load_xml(&doc("blog", 2)).unwrap();
        store.remove(a).unwrap();
        let c = store.load_xml(&doc("log", 2)).unwrap();
        assert_eq!(c.slot(), a.slot(), "slot reused");
        assert_ne!(c.generation(), a.generation());
        drop(store);

        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(recovered.doc_ids(), vec![b, c]);
        assert!(!recovered.contains(a), "stale id stays dead after recovery");
    }

    #[test]
    fn checkpoint_then_more_writes_replays_only_the_tail() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        store.checkpoint().unwrap();
        store
            .apply(a, &UpdateOp::Rename { target: 1, label: "x".into() })
            .unwrap();
        let b = store.load_xml(&doc("blog", 2)).unwrap();
        let want_a = store.to_xml(a).unwrap().to_xml();
        let want_b = store.to_xml(b).unwrap().to_xml();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.checkpoint_lsn, 1);
        assert_eq!(report.replayed, 2);
        assert_eq!(recovered.to_xml(a).unwrap().to_xml(), want_a);
        assert_eq!(recovered.to_xml(b).unwrap().to_xml(), want_b);
    }

    #[test]
    fn load_grammar_records_replay() {
        let (fs, store) = mem_store();
        let plain = DomStore::new();
        let tmp = plain.load_xml(&doc("feed", 3)).unwrap();
        let grammar = plain.remove(tmp).unwrap();
        let id = store.load_grammar(grammar).unwrap();
        let want = store.to_xml(id).unwrap().to_xml();
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(recovered.to_xml(id).unwrap().to_xml(), want);
    }

    #[test]
    fn apply_batch_many_is_one_record_one_fsync() {
        let (fs, store) = mem_store();
        let ids: Vec<DocId> = (0..4).map(|i| store.load_xml(&doc("feed", 2 + i)).unwrap()).collect();
        let syncs_before = fs.sync_count();
        let jobs: Vec<(DocId, Vec<UpdateOp>)> = ids
            .iter()
            .map(|&id| (id, vec![UpdateOp::Rename { target: 1, label: "x".into() }]))
            .collect();
        let (results, _) = store.apply_batch_many(&jobs);
        for r in results {
            r.unwrap();
        }
        assert_eq!(fs.sync_count() - syncs_before, 1, "one fsync for the whole fan-out");
        let wants: Vec<String> = ids.iter().map(|&id| store.to_xml(id).unwrap().to_xml()).collect();
        drop(store);
        let (recovered, _) = DurableStore::open_with(fs, "db").unwrap();
        for (&id, want) in ids.iter().zip(&wants) {
            assert_eq!(&recovered.to_xml(id).unwrap().to_xml(), want);
        }
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let pristine = fs.file("db/checkpoint.slck").unwrap();

        // A flip in the indexed part of the file (here: a header field)
        // fails at open.
        let mut bytes = pristine.clone();
        bytes[6] ^= 0x10;
        fs.set_file("db/checkpoint.slck", bytes);
        assert!(matches!(
            DurableStore::open_with(fs.clone(), "db"),
            Err(RepairError::Storage { .. })
        ));

        // A flip in the lazy docs region (the file's tail) passes open —
        // nothing decodes the payload yet — and surfaces as a typed error
        // on first touch.
        let mut bytes = pristine;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs.set_file("db/checkpoint.slck", bytes);
        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.lazy_docs, 1);
        assert!(matches!(
            recovered.to_xml(a),
            Err(RepairError::Storage { .. })
        ));
    }

    #[test]
    fn v1_checkpoints_get_the_unsupported_version_error() {
        // A well-formed v1 image of an empty store: magic, version 1, the
        // body's CRC, then the body (lsn, slot, free, live and doc counts).
        let body = [0u8; 5];
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        bytes.push(1);
        bytes.extend_from_slice(&sltgrammar::crc32::crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let fs = Arc::new(FailpointFs::new());
        fs.set_file("db/checkpoint.slck", bytes);
        match DurableStore::open_with(fs, "db").map(|(_, report)| report) {
            Err(RepairError::Storage { detail }) => {
                assert!(detail.contains("unsupported version 1"), "{detail}")
            }
            other => panic!("expected the unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn single_op_writes_recover_to_identical_grammars() {
        // Live single-op writes and their replay run the same batch engine,
        // so recovery must reproduce every grammar byte for byte — failed
        // operations included, not just the derived documents.
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 4)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        // Renaming the null under the first <title/> fails at splice time,
        // after isolation already grew the grammar.
        let edges = store.edge_count(b).unwrap();
        assert!(matches!(
            store.apply(b, &UpdateOp::Rename { target: 3, label: "x".into() }),
            Err(RepairError::InvalidUpdate { .. })
        ));
        assert!(store.edge_count(b).unwrap() > edges, "isolation ran before the failure");
        // An out-of-range target is rejected before it touches the grammar.
        assert!(matches!(
            store.apply(a, &UpdateOp::Delete { target: 1_000_000 }),
            Err(RepairError::TargetOutOfRange { .. })
        ));
        let ops = [
            (a, UpdateOp::Rename { target: 1, label: "entry".into() }),
            (a, UpdateOp::Delete { target: 7 }),
            (
                b,
                UpdateOp::InsertBefore {
                    target: 1,
                    fragment: parse_xml("<ad><x/></ad>").unwrap(),
                },
            ),
            (b, UpdateOp::Rename { target: 5, label: "promo".into() }),
        ];
        for (id, op) in &ops {
            store.apply(*id, op).unwrap();
        }
        let live: Vec<Vec<u8>> = [a, b]
            .iter()
            .map(|&id| serialize::encode(&store.grammar(id).unwrap()))
            .collect();
        drop(store);

        let (recovered, report) = DurableStore::open_with(fs, "db").unwrap();
        assert_eq!(report.replayed, 2 + 2 + ops.len() as u64);
        for (&id, want) in [a, b].iter().zip(&live) {
            assert_eq!(
                &serialize::encode(&recovered.grammar(id).unwrap()),
                want,
                "recovered grammar of {id:?} differs from the live one"
            );
        }
    }

    #[test]
    fn checkpoint_does_not_block_readers_or_other_doc_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (_fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        let b = store.load_xml(&doc("blog", 3)).unwrap();
        let store = Arc::new(store);

        // Stall the checkpoint at its first document by holding that doc's
        // commit lock from this thread. (`live` is slab order: doc a.)
        let first = store.store.capture_slab().live[0];
        assert_eq!(first, a);
        let lock = store.doc_lock(first);
        let guard = lock.lock().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let ckpt = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let report = store.checkpoint();
                done.store(true, Ordering::SeqCst);
                report
            })
        };
        // Wait until the checkpoint thread is parked on the held lock: it
        // clones the lock's Arc out of the map (count 2 → 3) before
        // blocking. From then on its base_lsn is already captured.
        while Arc::strong_count(&lock) < 3 {
            std::thread::yield_now();
        }

        // Mid-checkpoint: a writer to another document proceeds (the old
        // implementation gated ALL writers out for the duration) and reads
        // of the stalled document itself stay lock-free.
        assert!(!done.load(Ordering::SeqCst), "checkpoint must be stalled");
        store
            .apply_batch(b, &[UpdateOp::Rename { target: 1, label: "entry".into() }])
            .expect("writer to another doc must not block on a checkpoint");
        store
            .to_xml(first)
            .expect("reads never block on a checkpoint");
        assert!(
            !done.load(Ordering::SeqCst),
            "checkpoint still stalled on the held doc lock"
        );

        drop(guard);
        let report = ckpt.join().unwrap().unwrap();
        assert_eq!(report.documents, 2);
        // Doc b's rename committed after base_lsn, under its doc lock, so
        // its extent folds it: replay skips it either way.
        assert!(!report.log_truncated, "a writer landed mid-checkpoint");
    }

    #[test]
    fn undecodable_load_grammar_record_is_corruption() {
        let fs = Arc::new(FailpointFs::new());
        // A frame whose CRC is valid but whose LoadGrammar payload is not a
        // grammar encoding: replay must fail loudly, not skip the load.
        let frame = crate::wal::encode_frame(
            1,
            &WalRecord::LoadGrammar { bytes: b"not a grammar encoding" },
        );
        fs.set_file("db/wal.log", frame);
        assert!(matches!(
            DurableStore::open_with(fs, "db"),
            Err(RepairError::WalCorrupt { lsn: 0, .. })
        ));
    }

    #[test]
    fn stale_doc_lock_entries_are_pruned() {
        let (_fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 1)).unwrap();
        for slot in 0..200u32 {
            let stale = DocId::from_parts(slot, 999);
            let _ = store.apply(stale, &UpdateOp::Delete { target: 1 });
            let _ = store.remove(stale);
        }
        let size = store.doc_locks.lock().unwrap().len();
        assert!(
            size <= 2 * store.len() + 17,
            "doc-lock map should stay bounded, holds {size} entries"
        );
        assert!(store.contains(a), "live document survives the pruning");
    }

    #[test]
    fn corrupt_mid_log_record_is_a_typed_error() {
        let (fs, store) = mem_store();
        let a = store.load_xml(&doc("feed", 3)).unwrap();
        store
            .apply(a, &UpdateOp::Rename { target: 1, label: "x".into() })
            .unwrap();
        drop(store);
        let mut bytes = fs.file("db/wal.log").unwrap();
        bytes[10] ^= 0x20; // inside the first record's payload
        fs.set_file("db/wal.log", bytes);
        assert!(matches!(
            DurableStore::open_with(fs, "db"),
            Err(RepairError::WalCorrupt { .. })
        ));
    }
}
