//! Updates on grammar-compressed XML (paper Sections III and V-C).
//!
//! All three update operations — rename, insert-before, delete-subtree — are
//! executed directly on the grammar: the target node is made explicit in the
//! start rule by [path isolation](crate::isolate) and the operation is then a
//! local splice on the start rule's right-hand side. No decompression of the
//! document takes place; repeated updates gradually blow the grammar up, which
//! is what [`crate::repair::GrammarRePair`] undoes.
//!
//! # One update path
//!
//! [`apply_batch`] is the only code that applies updates. It executes a
//! *sequence* of operations, each addressed against the document state
//! produced by the preceding operations, the way FLUX-style update programs
//! are written; a single update is a program of length one, and
//! [`apply_update`] is exactly that singleton batch. Every handle —
//! [`crate::store::DomStore`], [`crate::durable::DurableStore`] (live and
//! during log replay), [`crate::session::CompressedDom`] and the
//! [`crate::udc`] baseline — goes through it.
//!
//! One [`IsolationBatch`] session spans the whole call — `own_sizes` /
//! `segment_sizes` are computed once per batch (splices only edit the start
//! rule, so they stay valid) and the start rule's subtree-size table is
//! patched through every splice instead of recomputed. The sequence is cut
//! into **chunks**; per chunk:
//!
//! 1. every target is remapped from its sequential coordinates back to the
//!    chunk-start document coordinates through a signed-shift **region
//!    map**: fragments inserted earlier in the chunk shift later
//!    targets down, subtrees deleted earlier in the chunk shift them up, and
//!    a delete whose removed base range encloses earlier regions swallows
//!    them. Resolution is a binary search (`O(log k)` per op in the number
//!    of regions); a delete's removed base size comes from the session's
//!    maintained subtree-size table, so no sizes are ever re-derived,
//! 2. all remapped targets are isolated through the shared session — shared
//!    path prefixes are inlined once per batch, keeping the Lemma-1
//!    factor-two growth bound per *distinct* root-to-target path,
//! 3. the splices run in operation order against the isolated node ids
//!    (valid across splices because arena ids are never recycled), each
//!    splice patching the session's size table as it lands.
//!
//! A chunk ends only when an operation targets a node *inside* a fragment
//! inserted earlier in the same chunk (its pre-chunk coordinate does not
//! exist), deletes at a position a null node occupies (the splice is
//! planned and fails, and nothing past it is), or renames to the null label
//! (the next chunk rejects it before isolating its target); the next chunk
//! then starts from the updated grammar. Deletes themselves do not flush: mixed
//! insert/delete streams — the paper's 90/10 workload — batch at full
//! length. Unreachable rules are garbage collected once per chunk that
//! deleted, not per delete.

use sltgrammar::{Grammar, NodeId, NodeKind};
use xmltree::binary::to_binary;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

use crate::error::{RepairError, Result};
use crate::isolate::{IsolationBatch, IsolationStats};

fn expect_element(g: &Grammar, node: NodeId) -> Result<()> {
    let kind = g.rule(g.start()).rhs.kind(node);
    match kind {
        NodeKind::Term(t) if !g.symbols.is_null(t) => Ok(()),
        NodeKind::Term(_) => Err(RepairError::InvalidUpdate {
            detail: "target node is a null node".to_string(),
        }),
        _ => Err(RepairError::InvalidUpdate {
            detail: "target node is not a terminal".to_string(),
        }),
    }
}

/// Relabels the already-isolated start-rule node.
fn rename_node(g: &mut Grammar, node: NodeId, label: &str) -> Result<()> {
    expect_element(g, node)?;
    let term = g
        .symbols
        .intern(label, 2)
        .map_err(|_| RepairError::InvalidUpdate {
            detail: format!("label `{label}` is already used with a different rank"),
        })?;
    let start = g.start();
    g.rule_mut(start).rhs.set_kind(node, NodeKind::Term(term));
    Ok(())
}

/// Whether the already-isolated start-rule node is the null leaf.
fn node_is_null(g: &Grammar, node: NodeId) -> bool {
    match g.rule(g.start()).rhs.kind(node) {
        NodeKind::Term(t) => g.symbols.is_null(t),
        _ => unreachable!("isolation returns terminal nodes"),
    }
}

/// Grafts `fragment` before the already-isolated start-rule node. Returns the graft root and the number of
/// derived nodes the document grew by (`2n` for an n-element fragment,
/// whether the target was an element or a consumed null).
fn insert_node(g: &mut Grammar, node: NodeId, fragment: &XmlTree) -> Result<(NodeId, u128)> {
    let target_is_null = node_is_null(g, node);
    let frag_bin = to_binary(fragment, &mut g.symbols)?;
    let start = g.start();
    let rhs = &mut g.rule_mut(start).rhs;
    let frag_root = rhs.clone_subtree_from(&frag_bin, frag_bin.root());
    // The rightmost leaf of a binary-encoded element is always its trailing
    // null "next sibling" slot.
    let mut attach = frag_root;
    while let Some(&last) = rhs.children(attach).last() {
        attach = last;
    }
    rhs.replace_subtree(node, frag_root);
    if !target_is_null {
        rhs.replace_subtree(attach, node);
    }
    Ok((frag_root, 2 * fragment.node_count() as u128))
}

/// Removes the element subtree at the already-isolated start-rule node. The
/// caller is responsible for `gc`.
fn delete_node(g: &mut Grammar, node: NodeId) -> Result<()> {
    expect_element(g, node)?;
    let start = g.start();
    let rhs = &mut g.rule_mut(start).rhs;
    let next_sibling = rhs.children(node)[1];
    rhs.detach(next_sibling);
    rhs.replace_subtree(node, next_sibling);
    Ok(())
}

/// Applies one [`UpdateOp`] (shared with the uncompressed reference semantics)
/// to the grammar: a batch of one.
pub fn apply_update(g: &mut Grammar, op: &UpdateOp) -> Result<BatchStats> {
    apply_batch(g, std::slice::from_ref(op))
}

/// Statistics of one [`apply_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of operations applied.
    pub ops: usize,
    /// Number of chunks the sequence was cut into (see the module docs for
    /// where a chunk ends).
    pub chunks: usize,
    /// Total isolation cost over all chunks.
    pub isolation: IsolationStats,
    /// Grammar edges before the batch.
    pub edges_before: usize,
    /// Grammar edges after the batch.
    pub edges_after: usize,
}

/// One splice the current chunk has already planned, in the chunk's evolving
/// sequential coordinates.
struct Region {
    /// Evolving preorder position where the splice takes effect.
    start: u128,
    /// Length of the freshly inserted range `start..start + fresh`: fragment
    /// positions with no chunk-start coordinate (0 for deletes). An insert at
    /// a null position splices the fragment *over* the null leaf, so the
    /// whole fragment including the consumed slot is fresh.
    fresh: u128,
    /// What this splice adds to the base coordinate of every evolving
    /// position at or beyond `start + fresh`: `-(fresh - consumed)` for an
    /// insert, `+removed base size` for a delete.
    shift: i128,
    /// Running sum of `shift` over this and every earlier region.
    cum: i128,
}

/// The chunk planner's evolving coordinate map: a signed-shift region table
/// translating targets from the chunk's evolving sequential coordinates back
/// to the chunk-start document coordinates, across both inserts and deletes.
///
/// Regions are kept sorted by `start`. Two invariants carry every proof
/// below: fresh ranges never contain another region's `start` (a target
/// inside a fresh range is unresolvable, so no later splice lands there),
/// and the chunk-start anchors `start + cum-of-earlier-regions` are
/// non-decreasing along the vector.
#[derive(Default)]
struct RegionMap {
    regions: Vec<Region>,
}

impl RegionMap {
    /// Maps the evolving target `t` back to chunk-start coordinates, or
    /// `None` if it addresses a node inside a fragment inserted earlier in
    /// the chunk (no chunk-start coordinate exists). `O(log k)` in the
    /// number of regions.
    fn resolve(&self, t: u128) -> Option<u128> {
        let idx = self.regions.partition_point(|r| r.start <= t);
        let Some(r) = idx.checked_sub(1).map(|i| &self.regions[i]) else {
            return Some(t);
        };
        if t < r.start + r.fresh {
            return None;
        }
        // Every region up to `idx` applies its shift: their fresh ranges all
        // end at or before `t` (they cannot contain `t` — see the struct
        // invariants — nor reach past a later region's start).
        Some((t as i128 + r.cum) as u128)
    }

    /// Records an insert of `len` evolving positions at `t`, where `consumed`
    /// (zero or one) of them replace the pre-splice node at `t` (a consumed
    /// null). Binary-searched insertion; no re-sort.
    fn note_insert(&mut self, t: u128, len: u128, consumed: u128) {
        let idx = self.regions.partition_point(|r| r.start <= t);
        for r in &mut self.regions[idx..] {
            r.start += len - consumed;
        }
        self.regions.insert(
            idx,
            Region {
                start: t,
                fresh: len,
                shift: -((len - consumed) as i128),
                cum: 0,
            },
        );
        self.recum(idx);
    }

    /// Records a delete at evolving position `t` — which the caller resolved
    /// to the chunk-start coordinate `base` — removing a subtree whose
    /// chunk-start size is `base_len`. Regions anchored inside the removed
    /// base range `base..base + base_len` (fragments inserted into, and
    /// deletes already taken out of, the now-deleted subtree) are swallowed
    /// by it: the recorded shift is the full chunk-start size, and the
    /// swallowed regions' shifts stop applying.
    fn note_delete(&mut self, t: u128, base: u128, base_len: u128) {
        let end = (base + base_len) as i128;
        let lo = self.regions.partition_point(|r| r.start <= t);
        // Anchors are non-decreasing and regions with `start <= t` anchor
        // strictly before `base`, so the swallowed regions are exactly the
        // run starting at `lo` whose anchors lie inside the removed range.
        let mut hi = lo;
        let mut evolving_len = base_len as i128;
        while hi < self.regions.len() {
            let cum_before = if hi == 0 { 0 } else { self.regions[hi - 1].cum };
            let r = &self.regions[hi];
            if r.start as i128 + cum_before >= end {
                break;
            }
            // A swallowed insert takes its net fresh growth with it; a
            // swallowed delete had already taken its positions out.
            evolving_len -= r.shift;
            hi += 1;
        }
        self.regions.drain(lo..hi);
        let evolving_len = evolving_len as u128;
        for r in &mut self.regions[lo..] {
            r.start -= evolving_len;
        }
        self.regions.insert(
            lo,
            Region {
                start: t,
                fresh: 0,
                shift: base_len as i128,
                cum: 0,
            },
        );
        self.recum(lo);
    }

    /// Rebuilds the cumulative shifts from `from` to the end.
    fn recum(&mut self, from: usize) {
        let mut acc = if from == 0 {
            0
        } else {
            self.regions[from - 1].cum
        };
        for r in &mut self.regions[from..] {
            acc += r.shift;
            r.cum = acc;
        }
    }
}

/// Applies a sequence of updates, each target addressed against the document
/// produced by the preceding operations. `own_sizes`/`segment_sizes` are
/// computed once per batch and nonterminal references on shared path
/// prefixes are inlined once instead of per operation. See the module docs
/// for the chunking rules. Unreachable rules are garbage collected once per
/// deleting chunk, not per delete.
///
/// The resulting document is the one the uncompressed reference
/// (`xmltree::updates`) produces, asserted byte-for-byte by the differential
/// update-oracle harness.
///
/// # Errors
///
/// Targets are validated while a chunk is planned, so an out-of-range target
/// aborts its **whole chunk** before any of that chunk's splices run
/// (operations of earlier chunks remain applied; the targets the chunk
/// isolated before it stay isolated). Errors raised by the splices
/// themselves (renaming or deleting a null node, a label rank conflict)
/// leave the chunk's already-spliced prefix applied. A rename to the null
/// label fails after every operation before it is applied, without
/// isolating its own target. Only a batch whose **first** target is out of
/// range leaves the grammar untouched and goes uncharged.
pub fn apply_batch(g: &mut Grammar, ops: &[UpdateOp]) -> Result<BatchStats> {
    apply_batch_indexed(g, ops).map_err(|(_, e)| e)
}

/// [`apply_batch`], with the index of the failing operation returned
/// alongside the error: `(0, TargetOutOfRange)` is the one failure that
/// left the grammar untouched, which handles do not charge.
pub(crate) fn apply_batch_indexed(
    g: &mut Grammar,
    ops: &[UpdateOp],
) -> std::result::Result<BatchStats, (usize, RepairError)> {
    let edges = g.edge_count();
    let mut stats = BatchStats {
        ops: ops.len(),
        edges_before: edges,
        edges_after: edges,
        ..BatchStats::default()
    };
    if ops.is_empty() {
        return Ok(stats);
    }
    // One isolation session for the whole batch: splices only edit the start
    // rule, so the per-rule tables survive every chunk (and the per-chunk
    // `gc`, which never renumbers surviving rules); the subtree-size table
    // and derived size are patched through each splice below.
    let mut batch = IsolationBatch::new(g);
    let mut i = 0;
    while i < ops.len() {
        // Plan + isolate one chunk against the current grammar. Isolation
        // never changes the derived tree, so chunk-start coordinates stay
        // valid while the chunk's targets are isolated one after another.
        let mut regions = RegionMap::default();
        let mut planned: Vec<(usize, NodeId)> = Vec::new();
        let mut chunk_deletes = false;
        let mut j = i;
        while j < ops.len() {
            if matches!(&ops[j], UpdateOp::Rename { label, .. } if label == sltgrammar::NULL_SYMBOL_NAME)
            {
                // Rejected before its target is isolated, so the invalid op
                // grows nothing; the ops planned before it still land.
                if j == i {
                    let detail = "cannot rename a node to the null symbol".to_string();
                    return Err((j, RepairError::InvalidUpdate { detail }));
                }
                break;
            }
            let t = ops[j].target() as u128;
            let Some(base) = regions.resolve(t) else {
                break; // target lives inside a fragment this chunk inserted
            };
            let node = batch.isolate_one(g, base).map_err(|e| (j, e))?;
            planned.push((j, node));
            j += 1;
            match &ops[j - 1] {
                UpdateOp::Rename { .. } => {}
                UpdateOp::InsertBefore { fragment, .. } => {
                    // The binary encoding of an n-element fragment has 2n+1
                    // nodes. Before an element, its trailing null is replaced
                    // by the old subtree (2n fresh positions); at a null
                    // position the whole fragment is fresh and the null is
                    // consumed (2n+1 fresh positions, net shift still 2n).
                    let consumed = u128::from(node_is_null(g, node));
                    let len = 2 * fragment.node_count() as u128 + consumed;
                    regions.note_insert(t, len, consumed);
                }
                UpdateOp::Delete { .. } => {
                    chunk_deletes = true;
                    if node_is_null(g, node) {
                        // The splice will fail on the null target; plan
                        // nothing past it.
                        break;
                    }
                    // The removed preorder range is the element plus its
                    // first-child content, contiguous in chunk-start
                    // coordinates.
                    let content = g.rule(g.start()).rhs.children(node)[0];
                    regions.note_delete(t, base, 1 + batch.subtree_size(content));
                }
            }
        }
        stats.chunks += 1;

        // Splice in operation order. Node ids of surviving nodes stay valid
        // across splices (the arena never recycles ids), and no operation of
        // this chunk addresses a node an earlier splice removed: consumed
        // nulls and deleted subtrees are unreachable by construction — a
        // later target never resolves into a removed base range.
        for &(k, node) in &planned {
            splice(g, &mut batch, &ops[k], node).map_err(|e| (k, e))?;
        }
        if chunk_deletes {
            g.gc();
        }
        i = j;
    }
    stats.isolation = batch.stats();
    stats.edges_after = g.edge_count();
    Ok(stats)
}

/// Runs one planned splice on its isolated start-rule node, patching the
/// session's size table.
fn splice(g: &mut Grammar, batch: &mut IsolationBatch, op: &UpdateOp, node: NodeId) -> Result<()> {
    match op {
        UpdateOp::Rename { label, .. } => rename_node(g, node, label)?,
        UpdateOp::InsertBefore { fragment, .. } => {
            let (frag_root, grown) = insert_node(g, node, fragment)?;
            batch.note_inserted(g, frag_root, grown);
        }
        UpdateOp::Delete { .. } => {
            expect_element(g, node)?;
            let start = g.start();
            let parent = g.rule(start).rhs.parent(node);
            let content = g.rule(start).rhs.children(node)[0];
            // Splice-time size: earlier splices of this chunk may have grown
            // or shrunk the subtree being removed.
            let removed = 1 + batch.subtree_size(content);
            delete_node(g, node)?;
            batch.note_removed(g, parent, removed);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::SymbolTable;
    use treerepair::TreeRePair;
    use xmltree::binary::{from_binary, to_binary, tree_fingerprint};
    use xmltree::parse::parse_xml;
    use xmltree::updates as reference;

    /// Compresses a document and returns both the grammar and the uncompressed
    /// binary tree (the reference for oracle comparisons).
    fn setup(doc: &str) -> (Grammar, sltgrammar::RhsTree, SymbolTable) {
        let xml = parse_xml(doc).unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let (g, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
        (g, bin, symbols)
    }

    fn assert_equivalent(g: &Grammar, bin: &sltgrammar::RhsTree, symbols: &SymbolTable) {
        assert_eq!(fingerprint(g), tree_fingerprint(bin, symbols));
    }

    const DOC: &str = "<lib><book><ch/><ch/></book><book><ch/><ch/></book>\
                       <book><ch/><ch/></book><book><ch/><ch/></book></lib>";

    #[test]
    fn rename_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        // Rename the second book (find its preorder index in the binary tree).
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let op = UpdateOp::Rename {
            target: idx,
            label: "magazine".to_string(),
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn insert_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let fragment = parse_xml("<appendix><note/></appendix>").unwrap();
        // Insert before the third book.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(2)
            .unwrap();
        let op = UpdateOp::InsertBefore {
            target: idx,
            fragment,
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn insert_at_null_position_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let fragment = parse_xml("<toc/>").unwrap();
        // First null node in preorder = the empty child list of the first <ch/>.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        let op = UpdateOp::InsertBefore {
            target: idx,
            fragment,
        };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
    }

    #[test]
    fn delete_matches_reference_semantics() {
        let (mut g, mut bin, mut symbols) = setup(DOC);
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let op = UpdateOp::Delete { target: idx };
        apply_update(&mut g, &op).unwrap();
        reference::apply_update(&mut bin, &mut symbols, &op).unwrap();
        g.validate().unwrap();
        assert_equivalent(&g, &bin, &symbols);
        // The document lost one book element and its two chapters.
        let back = from_binary(&bin, &symbols).unwrap();
        assert_eq!(back.preorder().len(), 13 - 3);
    }

    #[test]
    fn rename_rejects_null_targets_and_labels() {
        let (mut g, bin, symbols) = setup(DOC);
        let null_idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        let rename = |target: usize, label: &str| UpdateOp::Rename {
            target,
            label: label.to_string(),
        };
        assert!(apply_update(&mut g, &rename(null_idx, "x")).is_err());
        assert!(apply_update(&mut g, &rename(0, "#")).is_err());
        // The null label is rejected before the (deep) target is isolated.
        let last_ch = bin
            .preorder()
            .iter()
            .rposition(|&n| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "ch"))
            .unwrap();
        let edges = g.edge_count();
        assert!(apply_update(&mut g, &rename(last_ch, "#")).is_err());
        assert_eq!(g.edge_count(), edges);
        assert!(matches!(
            apply_update(&mut g, &rename(10_000, "x")),
            Err(RepairError::TargetOutOfRange { .. })
        ));
    }

    /// Applies `ops` sequentially to the reference binary tree and returns its
    /// fingerprint.
    fn reference_after(
        bin: &sltgrammar::RhsTree,
        symbols: &SymbolTable,
        ops: &[UpdateOp],
    ) -> sltgrammar::fingerprint::Fingerprint {
        let mut bin = bin.clone();
        let mut symbols = symbols.clone();
        for op in ops {
            reference::apply_update(&mut bin, &mut symbols, op).unwrap();
        }
        tree_fingerprint(&bin, &symbols)
    }

    #[test]
    fn batched_renames_match_the_sequential_semantics_in_one_chunk() {
        let (mut g, bin, symbols) = setup(DOC);
        let elements: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t)))
            .map(|(i, _)| i)
            .collect();
        let ops: Vec<UpdateOp> = elements
            .iter()
            .step_by(2)
            .enumerate()
            .map(|(k, &idx)| UpdateOp::Rename {
                target: idx,
                label: format!("fresh{k}"),
            })
            .collect();
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        assert_eq!(stats.ops, ops.len());
        assert_eq!(stats.chunks, 1, "renames never cut the chunk");
    }

    #[test]
    fn batched_inserts_remap_later_targets_through_earlier_fragments() {
        let (mut g, bin, symbols) = setup(DOC);
        // Two inserts before the same element: the second op's target is the
        // element's shifted coordinate, exercising the inserted-region table.
        let idx = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let frag_a = parse_xml("<a><p/></a>").unwrap(); // 2 elements -> shift 4
        let frag_b = parse_xml("<b/>").unwrap();
        let ops = vec![
            UpdateOp::InsertBefore {
                target: idx,
                fragment: frag_a,
            },
            UpdateOp::InsertBefore {
                target: idx + 4,
                fragment: frag_b,
            },
            UpdateOp::Rename {
                target: idx + 4 + 2,
                label: "magazine".to_string(),
            },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        assert_eq!(stats.chunks, 1, "mappable inserts stay in one chunk");
    }

    #[test]
    fn targets_in_fresh_fragments_start_a_new_chunk() {
        let (mut g, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        let frag = parse_xml("<x><y/></x>").unwrap();
        let ops = vec![
            UpdateOp::InsertBefore {
                target: books[0],
                fragment: frag,
            },
            UpdateOp::Delete { target: books[0] + 1 }, // <y/> inside the fresh fragment
            UpdateOp::Rename {
                target: books[0],
                label: "shelf".to_string(),
            },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        // Op 2 targets inside the fragment op 1 inserted, so the first chunk
        // holds only op 1; the delete and the rename share the second chunk
        // (deletes no longer flush).
        assert_eq!(stats.chunks, 2);
    }

    #[test]
    fn batched_deletes_keep_later_targets_in_the_same_chunk() {
        let (mut g, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        // A book subtree occupies 6 binary preorder positions (the element
        // plus its 2-chapter content). Delete the second book, rename the
        // third (which slid into its place), then delete the fourth at its
        // shifted coordinate — all resolvable, so all one chunk.
        assert_eq!(books[2] - books[1], 6);
        let ops = vec![
            UpdateOp::Delete { target: books[1] },
            UpdateOp::Rename {
                target: books[1],
                label: "promoted".to_string(),
            },
            UpdateOp::Delete { target: books[3] - 6 },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        assert_eq!(stats.chunks, 1, "deletes no longer cut the chunk");
    }

    #[test]
    fn deleting_a_subtree_swallows_regions_planned_inside_it() {
        let (mut g, bin, symbols) = setup(DOC);
        let books: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.name(t) == "book"))
            .map(|(i, _)| i)
            .collect();
        let ops = vec![
            // Grow the second book's content by a fresh element...
            UpdateOp::InsertBefore {
                target: books[1] + 1,
                fragment: parse_xml("<x/>").unwrap(),
            },
            // ...delete a chapter inside it (at its shifted coordinate)...
            UpdateOp::Delete { target: books[1] + 3 },
            // ...then delete the whole book: the removed range encloses both
            // earlier regions, and the rename after it must still resolve to
            // the third book.
            UpdateOp::Delete { target: books[1] },
            UpdateOp::Rename {
                target: books[1],
                label: "survivor".to_string(),
            },
        ];
        let expected = reference_after(&bin, &symbols, &ops);
        let stats = apply_batch(&mut g, &ops).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), expected);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn deleting_at_a_null_position_fails_like_the_sequential_api() {
        let (mut g, bin, symbols) = setup(DOC);
        let null_idx = bin
            .preorder()
            .iter()
            .enumerate()
            .find(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if symbols.is_null(t)))
            .map(|(i, _)| i)
            .unwrap();
        // The rename before the null delete is spliced (the chunk's prefix
        // stays applied); the op after it is never planned.
        let ops = vec![
            UpdateOp::Rename {
                target: 0,
                label: "shelf".to_string(),
            },
            UpdateOp::Delete { target: null_idx },
            UpdateOp::Rename {
                target: 0,
                label: "never".to_string(),
            },
        ];
        let err = apply_batch(&mut g, &ops).unwrap_err();
        assert!(matches!(err, RepairError::InvalidUpdate { .. }));
        g.validate().unwrap();
        let expected = reference_after(
            &bin,
            &symbols,
            &[UpdateOp::Rename {
                target: 0,
                label: "shelf".to_string(),
            }],
        );
        assert_eq!(fingerprint(&g), expected);
    }

    #[test]
    fn empty_and_singleton_batches_behave_like_the_sequential_api() {
        let (mut g, bin, symbols) = setup(DOC);
        let stats = apply_batch(&mut g, &[]).unwrap();
        assert_eq!(stats.ops, 0);
        assert_eq!(stats.chunks, 0);
        let op = UpdateOp::Rename {
            target: 0,
            label: "shelf".to_string(),
        };
        let mut sequential = g.clone();
        apply_update(&mut sequential, &op).unwrap();
        apply_batch(&mut g, std::slice::from_ref(&op)).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&sequential));
        assert_eq!(
            fingerprint(&g),
            reference_after(&bin, &symbols, std::slice::from_ref(&op))
        );
    }

    #[test]
    fn batched_updates_reject_invalid_targets() {
        let (mut g, _, _) = setup(DOC);
        assert!(matches!(
            apply_batch(
                &mut g,
                &[UpdateOp::Delete { target: 100_000 }],
            ),
            Err(RepairError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn update_sequences_blow_the_grammar_up_only_moderately() {
        // A sequence of renames on a well-compressed document: each isolation
        // grows the grammar, but never beyond a factor 2 per update (Lemma 1);
        // in aggregate the blow-up stays far below repeated doubling because
        // later isolations reuse already-isolated paths.
        let mut doc = String::from("<log>");
        for _ in 0..50 {
            doc.push_str("<e><t/><m/></e>");
        }
        doc.push_str("</log>");
        let (mut g, bin, symbols) = setup(&doc);
        let compressed = g.edge_count();
        let element_positions: Vec<usize> = bin
            .preorder()
            .iter()
            .enumerate()
            .filter(|(_, &n)| matches!(bin.kind(n), NodeKind::Term(t) if !symbols.is_null(t)))
            .map(|(i, _)| i)
            .collect();
        for (k, &pos) in element_positions.iter().step_by(7).enumerate() {
            let op = UpdateOp::Rename {
                target: pos,
                label: format!("fresh{k}"),
            };
            apply_update(&mut g, &op).unwrap();
        }
        g.validate().unwrap();
        assert!(g.edge_count() > compressed);
        // Repeated isolation can at worst unfold the document; it never exceeds
        // (roughly) the uncompressed binary tree size.
        let uncompressed = bin.edge_count();
        assert!(g.edge_count() <= uncompressed + 10 * compressed);
    }
}
