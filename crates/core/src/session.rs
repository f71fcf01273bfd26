//! `CompressedDom` — a mutable, always-compressed document handle.
//!
//! This is the application-facing API the paper motivates (a DOM replacement
//! for memory-hungry browsers): load an XML document once, keep only the SLCF
//! grammar in memory, apply updates directly on the grammar, and let
//! GrammarRePair restore compression every `recompress_every` updates.
//!
//! Since the store redesign this handle is a thin wrapper over a
//! single-document [`DomStore`]: the read surface (cursors, streaming
//! preorder, queries, point label reads, cached [`NavTables`]) and the
//! update plumbing are the store's, exercised by every single-document test
//! and bench on the exact code path the multi-document session serves. What
//! the wrapper adds is the paper's **fixed-interval recompression policy**
//! (`recompress_every`), implemented on top of the store with its debt
//! scheduler disabled — multi-document holders should use [`DomStore`]
//! directly and let its debt-based scheduler decide, instead of N
//! fixed-interval counters.
//!
//! # One update path
//!
//! [`CompressedDom::apply_batch`] routes an operation sequence through
//! [`crate::update::apply_batch`], which isolates shared path prefixes once
//! per batch — the natural fit for FLUX-style functional update programs
//! that emit many edits clustered under common ancestors.
//! [`CompressedDom::apply`] is the same call with a batch of one: a single
//! update is a program of length one, and there is no second engine.
//!
//! # Recompression counting
//!
//! The recompression policy charges **one unit per batch**, regardless of
//! its length — a batch is one logical document transition, and its blow-up
//! is bounded per distinct path rather than per operation, so charging it
//! per operation would recompress far too eagerly. A single
//! [`CompressedDom::apply`] is therefore one unit. Empty batches and batches
//! whose first target is out of range mutate nothing and are free; every
//! other batch is charged, whether it succeeds or fails.
//! [`CompressedDom::total_updates`] still counts individual operations of
//! fully applied batches.
//!
//! # Cached navigation tables
//!
//! Reads through [`CompressedDom::cursor`], [`CompressedDom::preorder_labels`]
//! and [`CompressedDom::query`] resolve through the store's published
//! [`crate::store::Snapshot`] — one shared grammar + [`NavTables`] version
//! behind `Arc`s, republished lazily after any update, batch or
//! recompression. Read-heavy phases between updates pay the O(grammar)
//! table build exactly once and share the same `Arc` from then on.

use std::sync::Arc;

use sltgrammar::fingerprint::derived_size;
use sltgrammar::Grammar;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

use crate::error::Result;
use crate::navigate::{Cursor, NavTables, PreorderLabels};
use crate::query::{PathQuery, QueryMatches};
use crate::repair::{GrammarRePairConfig, RepairStats};
use crate::store::{DocId, DomStore, SchedulerConfig, Snapshot};
use crate::update::BatchStats;

/// Policy and state of a mutable compressed document — a single-document
/// [`DomStore`] plus the paper's fixed-interval recompression counter.
#[derive(Debug, Clone)]
pub struct CompressedDom {
    store: DomStore,
    doc: DocId,
    /// The published snapshot backing borrowing reads (cursors, preorder
    /// iterators); refreshed on each such read so they see the latest state.
    snap: Snapshot,
    /// Recompress after this many updates (0 disables automatic recompression).
    pub recompress_every: usize,
    updates_since_recompress: usize,
}

/// The wrapper's store never schedules on its own: the counter decides.
fn manual_store() -> DomStore {
    DomStore::new().with_scheduler(SchedulerConfig {
        auto: false,
        ..SchedulerConfig::default()
    })
}

impl CompressedDom {
    /// Compresses `xml` and wraps it in a DOM handle that recompresses after
    /// every `recompress_every` updates (the paper uses 100).
    pub fn from_xml(xml: &XmlTree, recompress_every: usize) -> Self {
        let store = manual_store();
        let doc = store
            .load_xml(xml)
            .expect("a parsed document's labels always intern");
        let snap = Self::state_ok(store.snapshot(doc));
        CompressedDom {
            store,
            doc,
            snap,
            recompress_every,
            updates_since_recompress: 0,
        }
    }

    /// Wraps an existing grammar, rebasing it onto the handle's store (see
    /// [`DomStore::load_grammar`]): labels keep their *names*, but unused
    /// entries of the grammar's symbol table are dropped and [`sltgrammar::TermId`]s
    /// may be reassigned — resolve ids through `grammar().symbols` afterwards
    /// rather than holding ids from the original table.
    pub fn from_grammar(grammar: Grammar, recompress_every: usize) -> Self {
        let store = manual_store();
        let doc = store
            .load_grammar(grammar)
            .expect("a valid grammar's alphabet rebases onto an empty store");
        let snap = Self::state_ok(store.snapshot(doc));
        CompressedDom {
            store,
            doc,
            snap,
            recompress_every,
            updates_since_recompress: 0,
        }
    }

    /// Uses a custom recompression configuration.
    pub fn with_config(self, config: GrammarRePairConfig) -> Self {
        self.store.set_config(config);
        self
    }

    #[inline]
    fn state_ok<T>(result: Result<T>) -> T {
        result.expect("the wrapped document lives as long as the handle")
    }

    /// Read-only access to the underlying grammar (the current published
    /// snapshot's — an `Arc` that stays valid however long it is held).
    pub fn grammar(&self) -> Arc<Grammar> {
        Self::state_ok(self.store.grammar(self.doc))
    }

    /// Consumes the handle and returns the grammar.
    pub fn into_grammar(self) -> Grammar {
        Self::state_ok(self.store.remove(self.doc))
    }

    /// The single-document [`DomStore`] behind this handle — an escape hatch
    /// for code migrating to the multi-document API.
    pub fn store(&self) -> &DomStore {
        &self.store
    }

    /// Current grammar size in edges (the paper's size measure).
    pub fn edge_count(&self) -> usize {
        Self::state_ok(self.store.edge_count(self.doc))
    }

    /// Number of nodes of the represented (uncompressed) binary tree.
    pub fn derived_size(&self) -> u128 {
        derived_size(&self.grammar())
    }

    /// Number of updates applied so far.
    pub fn total_updates(&self) -> usize {
        Self::state_ok(self.store.total_updates(self.doc))
    }

    /// Number of automatic recompressions performed so far.
    pub fn recompressions(&self) -> usize {
        Self::state_ok(self.store.recompressions(self.doc))
    }

    /// Label of the node at the given preorder index of the represented
    /// binary tree — a read-only positional jump through the cached tables.
    pub fn label_at(&self, preorder_index: u128) -> Result<String> {
        self.store.label_at(self.doc, preorder_index)
    }

    // ----- read path through cached navigation tables -----

    /// The shared [`NavTables`] of the current published snapshot — built on
    /// first use, then the same `Arc` for every read until the next mutation.
    pub fn nav_tables(&self) -> Arc<NavTables> {
        Self::state_ok(self.store.nav_tables(self.doc))
    }

    /// A navigation cursor at the document root, backed by the cached tables.
    pub fn cursor(&mut self) -> Cursor<'_> {
        self.snap = Self::state_ok(self.store.snapshot(self.doc));
        self.snap.cursor()
    }

    /// A streaming preorder label iterator backed by the cached tables.
    pub fn preorder_labels(&mut self) -> PreorderLabels<'_> {
        self.snap = Self::state_ok(self.store.snapshot(self.doc));
        self.snap.preorder_labels()
    }

    /// Materializes a path query through the memoized, output-sensitive
    /// evaluator ([`PathQuery::evaluate_with_tables`]) over the cached tables.
    pub fn query(&self, query: &PathQuery) -> QueryMatches {
        Self::state_ok(self.store.query(self.doc, query))
    }

    /// Parses and materializes a path query in one call.
    pub fn query_str(&self, query: &str) -> Result<QueryMatches> {
        Ok(self.query(&PathQuery::parse(query)?))
    }

    /// Counts the matches of a path query without materializing them.
    pub fn query_count(&self, query: &PathQuery) -> u128 {
        Self::state_ok(self.store.query_count(self.doc, query))
    }

    /// Applies one update: a batch of one (see
    /// [`CompressedDom::apply_batch`]).
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(BatchStats, Option<RepairStats>)> {
        self.apply_batch(std::slice::from_ref(op))
    }

    /// Applies a sequence of updates through [`crate::update::apply_batch`]:
    /// shared path prefixes are isolated once for the whole batch. The batch
    /// counts as **one** unit toward `recompress_every` (see the module
    /// docs); recompression, if due, runs after the whole batch.
    ///
    /// On error the document reflects every fully applied chunk (plus, for
    /// splice-time errors, the spliced prefix of the failing chunk — see
    /// [`crate::update::apply_batch`]). A failing batch is still charged its
    /// policy unit — applied chunks and isolation may have grown the grammar,
    /// and skipping the charge would let repeated failures starve
    /// recompression — unless its first target was out of range, which
    /// mutates nothing. [`CompressedDom::total_updates`] only counts fully
    /// applied batches.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<(BatchStats, Option<RepairStats>)> {
        let (result, charged) = self.store.apply_batch_charged(self.doc, ops);
        let result = result.map(|(stats, _)| stats);
        if !charged {
            return result.map(|stats| (stats, None));
        }
        self.updates_since_recompress += 1;
        let due =
            self.recompress_every > 0 && self.updates_since_recompress >= self.recompress_every;
        let repair = due.then(|| self.recompress_now());
        result.map(|stats| (stats, repair))
    }

    /// Forces a GrammarRePair recompression.
    pub fn recompress_now(&mut self) -> RepairStats {
        self.updates_since_recompress = 0;
        Self::state_ok(self.store.recompress(self.doc))
    }

    /// Materializes the document back to an [`XmlTree`]. Only intended for
    /// small documents (tests, exports); errors if the document exceeds the
    /// default derivation limit.
    pub fn to_xml(&self) -> Result<XmlTree> {
        self.store.to_xml(self.doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RepairError;
    use xmltree::parse::parse_xml;

    fn doc(n: usize) -> XmlTree {
        let mut s = String::from("<feed>");
        for _ in 0..n {
            s.push_str("<item><title/><body><p/><p/></body></item>");
        }
        s.push_str("</feed>");
        parse_xml(&s).unwrap()
    }

    /// Preorder indices (in the binary tree) of all element nodes of `xml`.
    fn element_positions(xml: &XmlTree) -> Vec<usize> {
        let mut symbols = sltgrammar::SymbolTable::new();
        let bin = xmltree::binary::to_binary(xml, &mut symbols).unwrap();
        bin.preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| {
                matches!(bin.kind(n), sltgrammar::NodeKind::Term(t) if !symbols.is_null(t))
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn dom_roundtrips_to_xml() {
        let xml = doc(10);
        let dom = CompressedDom::from_xml(&xml, 100);
        assert_eq!(dom.to_xml().unwrap().to_xml(), xml.to_xml());
        assert!(dom.edge_count() < xml.edge_count());
    }

    #[test]
    fn updates_apply_and_auto_recompression_triggers() {
        let xml = doc(20);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 5);
        let baseline = dom.edge_count();
        for i in 0..12 {
            let op = UpdateOp::Rename {
                target: elements[2 * i + 1],
                label: format!("tag{}", i % 3),
            };
            dom.apply(&op).unwrap();
        }
        assert_eq!(dom.total_updates(), 12);
        assert_eq!(dom.recompressions(), 2);
        // Recompression keeps the grammar within a small factor of the original.
        assert!(dom.edge_count() < 4 * baseline + 50);
        dom.grammar().validate().unwrap();
    }

    #[test]
    fn label_access_reads_through_the_compression() {
        let xml = doc(3);
        let dom = CompressedDom::from_xml(&xml, 0);
        assert_eq!(dom.label_at(0).unwrap(), "feed");
        assert_eq!(dom.label_at(1).unwrap(), "item");
        let size = dom.derived_size();
        assert_eq!(dom.label_at(size - 1).unwrap(), "#");
    }

    #[test]
    fn batches_count_once_toward_the_recompression_policy() {
        let xml = doc(20);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 3);
        // Three batches of four renames each: only the third triggers.
        for b in 0..3 {
            let ops: Vec<UpdateOp> = (0..4)
                .map(|i| UpdateOp::Rename {
                    target: elements[8 * b + 2 * i + 1],
                    label: format!("b{b}i{i}"),
                })
                .collect();
            let (stats, repair) = dom.apply_batch(&ops).unwrap();
            assert_eq!(stats.ops, 4);
            assert_eq!(repair.is_some(), b == 2, "batch {b}");
        }
        assert_eq!(dom.total_updates(), 12);
        assert_eq!(dom.recompressions(), 1);
        // Empty batches are free.
        let (stats, repair) = dom.apply_batch(&[]).unwrap();
        assert_eq!(stats.ops, 0);
        assert!(repair.is_none());
        assert_eq!(dom.total_updates(), 12);
        dom.grammar().validate().unwrap();
    }

    #[test]
    fn failing_single_ops_still_charge_the_recompression_policy() {
        let xml = doc(10);
        let mut dom = CompressedDom::from_xml(&xml, 2);
        // Renaming the trailing null of the document fails at splice time,
        // after isolation already grew the grammar.
        let null_target = dom.derived_size() - 1;
        let bad = UpdateOp::Rename {
            target: null_target as usize,
            label: "x".to_string(),
        };
        assert!(dom.apply(&bad).is_err());
        assert!(dom.apply(&bad).is_err());
        assert_eq!(dom.recompressions(), 1, "failed ops must not starve recompression");
        assert_eq!(dom.total_updates(), 0);
        dom.grammar().validate().unwrap();
        // Out-of-range probes never mutate the grammar and are free.
        let probe = UpdateOp::Delete { target: 10_000_000 };
        for _ in 0..5 {
            assert!(dom.apply(&probe).is_err());
        }
        assert_eq!(dom.recompressions(), 1, "rejected probes must not waste recompressions");
    }

    #[test]
    fn failing_batches_still_charge_the_recompression_policy() {
        let xml = doc(10);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 2);
        // An out-of-range target fails at planning time: its whole chunk
        // (including the leading valid rename) is never spliced.
        let planning_error_batch = vec![
            UpdateOp::Rename {
                target: elements[1],
                label: "never".to_string(),
            },
            UpdateOp::Delete { target: 1_000_000 },
        ];
        assert!(dom.apply_batch(&planning_error_batch).is_err());
        assert_eq!(dom.recompressions(), 0);
        assert_eq!(dom.label_at(elements[1] as u128).unwrap(), "item");

        // A splice-time error (renaming a null node) leaves the chunk's
        // spliced prefix applied, and the second failing batch reaches the
        // policy threshold.
        let null_idx = {
            let mut symbols = sltgrammar::SymbolTable::new();
            let bin = xmltree::binary::to_binary(&xml, &mut symbols).unwrap();
            bin.preorder()
                .iter()
                .enumerate()
                .find(|(_, &n)| {
                    matches!(bin.kind(n), sltgrammar::NodeKind::Term(t) if symbols.is_null(t))
                })
                .map(|(i, _)| i)
                .unwrap()
        };
        let splice_error_batch = vec![
            UpdateOp::Rename {
                target: elements[1],
                label: "ok".to_string(),
            },
            UpdateOp::Rename {
                target: null_idx,
                label: "boom".to_string(),
            },
        ];
        assert!(dom.apply_batch(&splice_error_batch).is_err());
        assert_eq!(dom.recompressions(), 1, "failed batches must not starve recompression");
        assert_eq!(dom.total_updates(), 0, "only fully applied batches are counted");
        dom.grammar().validate().unwrap();
        assert_eq!(dom.label_at(elements[1] as u128).unwrap(), "ok");
    }

    #[test]
    fn a_batch_rejected_at_its_first_target_is_free() {
        let xml = doc(10);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 2);
        dom.apply(&UpdateOp::Rename {
            target: elements[1],
            label: "x".to_string(),
        })
        .unwrap();
        assert_eq!(dom.updates_since_recompress, 1);
        let tables = dom.nav_tables();
        let debt = dom.store.debt(dom.doc).unwrap();
        // The first target is out of range: the batch mutates nothing, so
        // however often it is retried it must not reach the policy threshold.
        let batch = [
            UpdateOp::Delete { target: 1_000_000 },
            UpdateOp::Rename {
                target: elements[3],
                label: "never".to_string(),
            },
        ];
        for _ in 0..3 {
            assert!(matches!(
                dom.apply_batch(&batch),
                Err(RepairError::TargetOutOfRange { .. })
            ));
        }
        assert!(Arc::ptr_eq(&tables, &dom.nav_tables()), "snapshot must stay published");
        assert_eq!(dom.store.debt(dom.doc).unwrap(), debt);
        assert_eq!(dom.recompressions(), 0);
        assert_eq!(dom.updates_since_recompress, 1);
    }

    #[test]
    fn batched_and_sequential_paths_produce_the_same_document() {
        let xml = doc(12);
        let elements = element_positions(&xml);
        let ops: Vec<UpdateOp> = (0..8)
            .map(|i| UpdateOp::Rename {
                target: elements[3 * i + 1],
                label: format!("tag{i}"),
            })
            .collect();
        let mut sequential = CompressedDom::from_xml(&xml, 4);
        for op in &ops {
            sequential.apply(op).unwrap();
        }
        let mut batched = CompressedDom::from_xml(&xml, 4);
        batched.apply_batch(&ops).unwrap();
        assert_eq!(
            batched.to_xml().unwrap().to_xml(),
            sequential.to_xml().unwrap().to_xml()
        );
    }

    #[test]
    fn cached_nav_tables_survive_reads_and_refresh_after_mutations() {
        let xml = doc(8);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 3);

        // Repeated reads share one snapshot.
        let t1 = dom.nav_tables();
        let t2 = dom.nav_tables();
        assert!(Arc::ptr_eq(&t1, &t2), "reads must share the cached snapshot");
        assert_eq!(dom.cursor().label(), "feed");
        let q = crate::query::PathQuery::parse("//item/title").unwrap();
        assert_eq!(dom.query(&q).len() as u128, dom.query_count(&q));
        assert_eq!(dom.query_str("//item").unwrap().len(), 8);

        // Any update invalidates the snapshot; the next read rebuilds.
        dom.apply(&UpdateOp::Rename {
            target: elements[1],
            label: "entry".to_string(),
        })
        .unwrap();
        let t3 = dom.nav_tables();
        assert!(!Arc::ptr_eq(&t1, &t3), "mutation must invalidate the cache");
        assert_eq!(dom.query_str("//entry").unwrap().len(), 1);

        // Recompression invalidates it too.
        dom.recompress_now();
        let t4 = dom.nav_tables();
        assert!(!Arc::ptr_eq(&t3, &t4));
        assert_eq!(dom.query_str("//entry").unwrap().len(), 1);
        let labels: Vec<String> = {
            let g = dom.grammar().clone();
            let mut it = Vec::new();
            for t in dom.preorder_labels() {
                it.push(g.symbols.name(t).to_string());
            }
            it
        };
        assert_eq!(labels.len() as u128, dom.derived_size());
    }

    #[test]
    fn manual_recompression_restores_compression() {
        let xml = doc(30);
        let elements = element_positions(&xml);
        let mut dom = CompressedDom::from_xml(&xml, 0);
        let compressed = dom.edge_count();
        for i in 0..10 {
            let op = UpdateOp::Rename {
                target: elements[3 * i + 1],
                label: format!("fresh{i}"),
            };
            dom.apply(&op).unwrap();
        }
        let blown_up = dom.edge_count();
        assert!(blown_up > compressed);
        dom.recompress_now();
        assert!(dom.edge_count() <= blown_up);
        assert_eq!(dom.to_xml().unwrap().node_count(), xml.node_count());
    }
}
