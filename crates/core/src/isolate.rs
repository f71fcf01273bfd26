//! Path isolation (paper Section III-A).
//!
//! To update a node `u` of the derived tree `val(G)` we first make `u` appear
//! as an explicit terminal node in the start rule: starting from the start
//! rule's root we navigate towards `u` using the precomputed segment sizes
//! `size(A, 0..k)` and inline exactly the nonterminal references on the path
//! that produce `u`. Lemma 1 of the paper bounds the growth caused by a single
//! isolation by a factor of two, because every rule is inlined at most once.
//!
//! [`IsolationBatch`] is the isolation every update runs through (via
//! [`crate::update::apply_batch`]): the per-rule size tables are computed
//! once per session, subtree sizes are patched incrementally after each
//! inlining and splice instead of recomputed, and every nonterminal
//! reference on any target path is inlined at most once — shared path
//! prefixes are isolated once for the whole batch, so the Lemma-1
//! factor-two growth bound holds per *distinct* root-to-target path, not per
//! target. [`isolate_many`] exposes one such session over a target set.
//!
//! [`isolate`] is the paper's walk written out directly for one target,
//! recomputing every table per call. No update path uses it; it stays as
//! the reference the isolation property tests compare [`IsolationBatch`]
//! against (a singleton batch must reproduce it byte for byte).

use std::collections::HashMap;

use sltgrammar::derive::{own_sizes, segment_sizes, subtree_derived_sizes};
use sltgrammar::fingerprint::derived_size;
use sltgrammar::{Grammar, NodeId, NodeKind, NtId};

use crate::error::{RepairError, Result};

/// Statistics of one path isolation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationStats {
    /// Number of rules inlined into the start rule.
    pub inlinings: usize,
}

/// Makes the node with 0-based preorder index `target` of the derived tree
/// `val(G)` explicit in the start rule and returns its node id there — the
/// paper's `iso(G, u)`, as a standalone reference walk (see the module
/// docs): updates isolate through [`IsolationBatch`] instead.
pub fn isolate(g: &mut Grammar, target: u128) -> Result<(NodeId, IsolationStats)> {
    let total = derived_size(g);
    if target >= total {
        return Err(RepairError::TargetOutOfRange {
            index: target,
            size: total,
        });
    }
    let mut stats = IsolationStats::default();
    let own = own_sizes(g);
    let segments: HashMap<NtId, Vec<u128>> = segment_sizes(g);
    let start = g.start();

    let mut sizes = subtree_derived_sizes(&g.rule(start).rhs, &own);
    let mut node = g.rule(start).rhs.root();
    let mut remaining = target;

    loop {
        let kind = g.rule(start).rhs.kind(node);
        match kind {
            NodeKind::Term(_) => {
                if remaining == 0 {
                    return Ok((node, stats));
                }
                remaining -= 1;
                let children = g.rule(start).rhs.children(node).to_vec();
                let mut descended = false;
                for c in children {
                    let s = sizes[&c];
                    if remaining < s {
                        node = c;
                        descended = true;
                        break;
                    }
                    remaining -= s;
                }
                if !descended {
                    return Err(RepairError::TargetOutOfRange {
                        index: target,
                        size: total,
                    });
                }
            }
            NodeKind::Nt(callee) => {
                // Decide whether the target is produced by the callee itself or
                // by one of its argument subtrees; in the former case inline the
                // callee and continue inside the copy with the same offset.
                let segs = &segments[&callee];
                let args = g.rule(start).rhs.children(node).to_vec();
                let mut offset: u128 = 0;
                let mut decided: Option<NodeId> = None;
                let mut produced_by_callee = false;
                for (j, seg) in segs.iter().enumerate() {
                    if remaining < offset + seg {
                        produced_by_callee = true;
                        break;
                    }
                    offset += seg;
                    if j < args.len() {
                        let arg = args[j];
                        let s = sizes[&arg];
                        if remaining < offset + s {
                            decided = Some(arg);
                            break;
                        }
                        offset += s;
                    }
                }
                if produced_by_callee {
                    let new_root = {
                        let callee_rhs = g.rule(callee).rhs.clone();
                        g.rule_mut(start).rhs.inline_at(node, &callee_rhs)
                    };
                    stats.inlinings += 1;
                    // Sizes of the freshly inlined nodes are missing; recompute.
                    sizes = subtree_derived_sizes(&g.rule(start).rhs, &own);
                    node = new_root;
                } else if let Some(arg) = decided {
                    remaining -= offset;
                    node = arg;
                } else {
                    return Err(RepairError::TargetOutOfRange {
                        index: target,
                        size: total,
                    });
                }
            }
            NodeKind::Param(_) => {
                unreachable!("the start rule has rank 0 and contains no parameters")
            }
        }
    }
}

/// A batch path-isolation session.
///
/// Construction computes `own_sizes`, `segment_sizes` and the start rule's
/// subtree sizes **once**; every subsequent isolation through the same session
/// reuses them, patching the subtree-size table incrementally after each
/// inlining (arena node ids are never reused, so entries of surviving nodes
/// stay valid). The session is only coherent as long as the grammar is mutated
/// exclusively through it: callers that splice the start rule (updates) must
/// finish all isolations of a chunk before splicing, and must report every
/// splice through [`note_inserted`](Self::note_inserted) /
/// [`note_removed`](Self::note_removed) so the size table and the cached
/// derived size follow the document. Splices only ever edit the start rule, so
/// `own_sizes`/`segment_sizes` stay valid across them (and across
/// [`Grammar::gc`], which never renumbers surviving rules) — one session can
/// therefore span a whole multi-chunk [`crate::update::apply_batch`] call,
/// keeping the Lemma-1 factor-two growth bound per *distinct* isolated path
/// for the entire batch.
#[derive(Debug)]
pub struct IsolationBatch {
    own: HashMap<NtId, u128>,
    segments: HashMap<NtId, Vec<u128>>,
    sizes: HashMap<NodeId, u128>,
    total: u128,
    stats: IsolationStats,
}

impl IsolationBatch {
    /// Prepares a batch session for the current grammar (one O(grammar) pass).
    pub fn new(g: &Grammar) -> Self {
        let own = own_sizes(g);
        let sizes = subtree_derived_sizes(&g.rule(g.start()).rhs, &own);
        IsolationBatch {
            segments: segment_sizes(g),
            // The start rule has rank 0: its own size is the derived size.
            total: own[&g.start()],
            own,
            sizes,
            stats: IsolationStats::default(),
        }
    }

    /// Inlinings performed through this session so far.
    pub fn stats(&self) -> IsolationStats {
        self.stats
    }

    /// Number of nodes of the derived tree (cached at session start and
    /// maintained across splices reported through
    /// [`note_inserted`](Self::note_inserted) /
    /// [`note_removed`](Self::note_removed)).
    pub fn derived_size(&self) -> u128 {
        self.total
    }

    /// Derived subtree size of an explicit start-rule node, per the session's
    /// size table.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a start-rule node the session has sized (every
    /// node reachable at session start or touched by an isolation is).
    pub fn subtree_size(&self, node: NodeId) -> u128 {
        self.sizes[&node]
    }

    /// Records an insert splice: the fragment rooted at the fresh start-rule
    /// node `frag_root` was grafted in, growing the derived tree by `grown`
    /// nodes. Sizes of the fresh fragment nodes are filled in (the grafted old
    /// subtree keeps its entries — arena ids are never recycled) and every
    /// ancestor of the graft point grows by `grown`.
    pub fn note_inserted(&mut self, g: &Grammar, frag_root: NodeId, grown: u128) {
        self.fill_sizes(g, frag_root);
        let rhs = &g.rule(g.start()).rhs;
        let mut cur = rhs.parent(frag_root);
        while let Some(p) = cur {
            *self
                .sizes
                .get_mut(&p)
                .expect("ancestors of a splice point are sized") += grown;
            cur = rhs.parent(p);
        }
        self.total += grown;
    }

    /// Records a delete splice: a subtree of `removed` derived nodes was
    /// spliced out from under `parent` (`None` when the start rule's root
    /// itself was replaced). Entries of the detached nodes are left behind;
    /// they are never re-attached, so the stale entries are unreachable.
    pub fn note_removed(&mut self, g: &Grammar, parent: Option<NodeId>, removed: u128) {
        let rhs = &g.rule(g.start()).rhs;
        let mut cur = parent;
        while let Some(p) = cur {
            let s = self
                .sizes
                .get_mut(&p)
                .expect("ancestors of a splice point are sized");
            *s -= removed;
            cur = rhs.parent(p);
        }
        self.total -= removed;
    }

    /// Isolates a single target through the session (sizes are reused and
    /// patched, shared prefixes with earlier isolations are already explicit).
    pub fn isolate_one(&mut self, g: &mut Grammar, target: u128) -> Result<NodeId> {
        Ok(self.isolate_sorted(g, &[target])?[0])
    }

    /// Isolates every target of the strictly increasing list `targets` in one
    /// walk of the start rule, returning their start-rule node ids in order.
    ///
    /// Each nonterminal reference on any target path is inlined at most once;
    /// targets sharing a path prefix share its isolation cost.
    pub fn isolate_sorted(&mut self, g: &mut Grammar, targets: &[u128]) -> Result<Vec<NodeId>> {
        debug_assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets must be strictly increasing"
        );
        for &t in targets {
            if t >= self.total {
                return Err(RepairError::TargetOutOfRange {
                    index: t,
                    size: self.total,
                });
            }
        }
        let mut resolved: Vec<Option<NodeId>> = vec![None; targets.len()];
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let start = g.start();
        let root = g.rule(start).rhs.root();
        // Work items: a start-rule node plus the targets that fall into its
        // subtree, as (offset within the subtree, output slot), sorted by
        // offset. LIFO with right-to-left pushes yields a preorder walk.
        let all: Vec<(u128, usize)> = targets.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut stack: Vec<(NodeId, Vec<(u128, usize)>)> = vec![(root, all)];

        while let Some((mut node, mut pending)) = stack.pop() {
            loop {
                let kind = g.rule(start).rhs.kind(node);
                match kind {
                    NodeKind::Term(_) => {
                        // Offsets are distinct, so at most one target rests here.
                        if pending.first().map(|&(rem, _)| rem) == Some(0) {
                            let (_, slot) = pending.remove(0);
                            resolved[slot] = Some(node);
                        }
                        if pending.is_empty() {
                            break;
                        }
                        let children = g.rule(start).rhs.children(node).to_vec();
                        let mut buckets: Vec<(NodeId, Vec<(u128, usize)>)> = Vec::new();
                        let mut k = 0;
                        let mut offset: u128 = 0;
                        for &c in &children {
                            let s = self.sizes[&c];
                            let mut bucket = Vec::new();
                            while k < pending.len() && pending[k].0 - 1 < offset + s {
                                bucket.push((pending[k].0 - 1 - offset, pending[k].1));
                                k += 1;
                            }
                            offset += s;
                            if !bucket.is_empty() {
                                buckets.push((c, bucket));
                            }
                        }
                        if k < pending.len() {
                            return Err(RepairError::TargetOutOfRange {
                                index: targets[pending[k].1],
                                size: self.total,
                            });
                        }
                        match self.schedule(&mut stack, buckets) {
                            Some((n, p)) => {
                                node = n;
                                pending = p;
                            }
                            None => break,
                        }
                    }
                    NodeKind::Nt(callee) => {
                        // Classify each target: produced by the callee's own
                        // content (some segment) or by an argument subtree.
                        let segs = &self.segments[&callee];
                        let args = g.rule(start).rhs.children(node).to_vec();
                        let mut any_in_callee = false;
                        let mut buckets: Vec<(NodeId, Vec<(u128, usize)>)> = Vec::new();
                        let mut k = 0;
                        let mut offset: u128 = 0;
                        for (j, &seg) in segs.iter().enumerate() {
                            while k < pending.len() && pending[k].0 < offset + seg {
                                any_in_callee = true;
                                k += 1;
                            }
                            offset += seg;
                            if j < args.len() {
                                let s = self.sizes[&args[j]];
                                let mut bucket = Vec::new();
                                while k < pending.len() && pending[k].0 < offset + s {
                                    bucket.push((pending[k].0 - offset, pending[k].1));
                                    k += 1;
                                }
                                offset += s;
                                if !bucket.is_empty() {
                                    buckets.push((args[j], bucket));
                                }
                            }
                        }
                        if k < pending.len() {
                            return Err(RepairError::TargetOutOfRange {
                                index: targets[pending[k].1],
                                size: self.total,
                            });
                        }
                        if any_in_callee {
                            // Inline once for the whole batch and re-classify
                            // every pending target inside the copy.
                            let new_root = {
                                let callee_rhs = g.rule(callee).rhs.clone();
                                g.rule_mut(start).rhs.inline_at(node, &callee_rhs)
                            };
                            self.stats.inlinings += 1;
                            self.fill_sizes(g, new_root);
                            node = new_root;
                        } else {
                            match self.schedule(&mut stack, buckets) {
                                Some((n, p)) => {
                                    node = n;
                                    pending = p;
                                }
                                None => break,
                            }
                        }
                    }
                    NodeKind::Param(_) => {
                        unreachable!("the start rule has rank 0 and contains no parameters")
                    }
                }
            }
        }
        Ok(resolved
            .into_iter()
            .map(|n| n.expect("every validated target resolves to a node"))
            .collect())
    }

    /// Continues with the leftmost child bucket and stacks the rest (pushed
    /// right-to-left so the walk stays preorder).
    fn schedule(
        &self,
        stack: &mut Vec<(NodeId, Vec<(u128, usize)>)>,
        buckets: Vec<(NodeId, Vec<(u128, usize)>)>,
    ) -> Option<(NodeId, Vec<(u128, usize)>)> {
        let mut iter = buckets.into_iter();
        let first = iter.next()?;
        let rest: Vec<_> = iter.collect();
        for item in rest.into_iter().rev() {
            stack.push(item);
        }
        Some(first)
    }

    /// Computes subtree sizes for the nodes freshly created by an inlining.
    /// Nodes already present in the table (the grafted argument subtrees and
    /// everything outside the copy) are reused, not descended into — arena ids
    /// are never recycled, so present entries are always current.
    fn fill_sizes(&mut self, g: &Grammar, root: NodeId) {
        let rhs = &g.rule(g.start()).rhs;
        let mut stack = vec![(root, false)];
        while let Some((n, children_done)) = stack.pop() {
            if self.sizes.contains_key(&n) {
                continue;
            }
            if children_done {
                let children_sum: u128 = rhs
                    .children(n)
                    .iter()
                    .map(|c| self.sizes[c])
                    .fold(0u128, |a, b| a.saturating_add(b));
                let size = match rhs.kind(n) {
                    NodeKind::Term(_) => children_sum.saturating_add(1),
                    NodeKind::Nt(b) => children_sum.saturating_add(self.own[&b]),
                    NodeKind::Param(_) => 0,
                };
                self.sizes.insert(n, size);
            } else {
                stack.push((n, true));
                for &c in rhs.children(n) {
                    if !self.sizes.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
            }
        }
    }
}

/// Makes every node of `targets` (0-based preorder indices of the derived
/// tree, duplicates allowed) explicit in the start rule with **one**
/// `own_sizes`/`segment_sizes` computation and one walk of the start rule.
/// Returns the node ids in the order of the input targets.
///
/// A singleton batch performs exactly the inlinings [`isolate`] would and
/// yields a byte-identical grammar (pinned by the batch-isolation property
/// suite).
pub fn isolate_many(g: &mut Grammar, targets: &[u128]) -> Result<(Vec<NodeId>, IsolationStats)> {
    let mut batch = IsolationBatch::new(g);
    let mut sorted: Vec<u128> = targets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let nodes = batch.isolate_sorted(g, &sorted)?;
    let by_target: HashMap<u128, NodeId> = sorted.into_iter().zip(nodes).collect();
    Ok((
        targets.iter().map(|t| by_target[t]).collect(),
        batch.stats(),
    ))
}

/// Reads the terminal label at preorder index `target` of the derived tree.
///
/// This is a **read-only** lookup: it resolves through freshly built
/// [`crate::navigate::NavTables`] and a positional cursor jump
/// ([`crate::navigate::Cursor::node_at_preorder`]) instead of isolating the
/// path, so the grammar is never mutated by a read. Holders with a cached
/// table snapshot ([`crate::session::CompressedDom`],
/// [`crate::store::DomStore`]) answer the same lookup without the O(grammar)
/// table build this convenience wrapper pays.
pub fn label_at(g: &Grammar, target: u128) -> Result<String> {
    let mut cursor = crate::navigate::Cursor::new(g);
    if !cursor.node_at_preorder(target) {
        return Err(RepairError::TargetOutOfRange {
            index: target,
            size: derived_size(g),
        });
    }
    Ok(cursor.label().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::text::parse_grammar;

    #[test]
    fn isolation_preserves_the_derived_tree_and_bounds_growth() {
        let mut g = parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap();
        let before = fingerprint(&g);
        let size_before = g.edge_count();
        let (_, stats) = isolate(&mut g, 7).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        assert!(stats.inlinings >= 1);
        // Lemma 1: |iso(G, u)| <= 2 |G| (edge counts; allow the small additive
        // slack caused by counting per-rule edges).
        assert!(g.edge_count() <= 2 * size_before + 2);
    }

    #[test]
    fn labels_along_the_derived_tree_match_val() {
        let g0 = parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap();
        let val = sltgrammar::derive::val(&g0).unwrap();
        let expected: Vec<String> = val
            .preorder()
            .iter()
            .map(|&n| match val.kind(n) {
                NodeKind::Term(t) => g0.symbols.name(t).to_string(),
                _ => unreachable!(),
            })
            .collect();
        for (i, want) in expected.iter().enumerate() {
            let got = label_at(&g0, i as u128).unwrap();
            assert_eq!(&got, want, "label mismatch at preorder index {i}");
        }
    }

    #[test]
    fn exponential_grammar_positions_are_reachable() {
        // The paper's G_exp example: a chain of doubling rules deriving a^1024
        // (as a monadic tree with a null leaf).
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=9 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A10 -> a(y1)");
        let g0 = parse_grammar(&text).unwrap();
        assert_eq!(derived_size(&g0), 1025);
        // Rename position 333 (0-based 332): only a logarithmic number of rules
        // must be inlined.
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (node, stats) = isolate(&mut g, 332).unwrap();
        assert!(g.rule(g.start()).rhs.kind(node).is_term());
        assert_eq!(fingerprint(&g), before);
        assert!(stats.inlinings <= 11);
        assert!(g.edge_count() <= 2 * g0.edge_count() + 2);
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let mut g = parse_grammar("S -> a(#,#)").unwrap();
        assert!(matches!(
            isolate(&mut g, 3),
            Err(RepairError::TargetOutOfRange { .. })
        ));
        assert!(isolate(&mut g, 2).is_ok());
    }

    #[test]
    fn isolating_an_already_explicit_node_does_not_inline() {
        let mut g = parse_grammar("S -> f(a(#,#),#)").unwrap();
        let (_, stats) = isolate(&mut g, 1).unwrap();
        assert_eq!(stats.inlinings, 0);
    }

    fn shared_grammar() -> Grammar {
        parse_grammar(
            "S -> f(A(B,B),#)\n\
             B -> A(#,#)\n\
             A -> a(#, a(y1, y2))",
        )
        .unwrap()
    }

    #[test]
    fn batched_isolation_resolves_every_target_like_single_isolation() {
        let g0 = shared_grammar();
        let total = derived_size(&g0);
        let targets: Vec<u128> = (0..total).collect();
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (nodes, _) = isolate_many(&mut g, &targets).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        // Every resolved node carries the label single isolation would find.
        for (i, &node) in nodes.iter().enumerate() {
            let got = match g.rule(g.start()).rhs.kind(node) {
                NodeKind::Term(t) => g.symbols.name(t).to_string(),
                other => panic!("expected terminal, got {other:?}"),
            };
            let want = label_at(&g0, i as u128).unwrap();
            assert_eq!(got, want, "label mismatch at preorder index {i}");
        }
        // Isolating everything at once at worst unfolds the document.
        assert!(g.edge_count() as u128 <= 2 * total);
    }

    #[test]
    fn batched_isolation_shares_path_prefixes() {
        // Two targets under the same deep chain: the batch must not inline the
        // chain twice.
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=9 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A10 -> a(y1)");
        let g0 = parse_grammar(&text).unwrap();
        let mut g = g0.clone();
        let (_, single) = isolate(&mut g, 332).unwrap();
        let mut g = g0.clone();
        let before = fingerprint(&g);
        let (nodes, batched) = isolate_many(&mut g, &[332, 333]).unwrap();
        g.validate().unwrap();
        assert_eq!(fingerprint(&g), before);
        assert_ne!(nodes[0], nodes[1]);
        // Adjacent positions share almost the whole path: the batch pays at
        // most one extra inlining over the single-target isolation.
        assert!(
            batched.inlinings <= single.inlinings + 1,
            "batch inlined {} vs single {}",
            batched.inlinings,
            single.inlinings
        );
    }

    #[test]
    fn batched_isolation_handles_duplicates_and_empty_batches() {
        let mut g = shared_grammar();
        let (nodes, _) = isolate_many(&mut g, &[4, 4, 2]).unwrap();
        assert_eq!(nodes[0], nodes[1]);
        assert_ne!(nodes[0], nodes[2]);
        let (none, stats) = isolate_many(&mut g, &[]).unwrap();
        assert!(none.is_empty());
        assert_eq!(stats.inlinings, 0);
    }

    #[test]
    fn batched_isolation_rejects_out_of_range_targets_before_mutating() {
        let mut g = shared_grammar();
        let before = g.edge_count();
        assert!(matches!(
            isolate_many(&mut g, &[0, 10_000]),
            Err(RepairError::TargetOutOfRange { .. })
        ));
        assert_eq!(g.edge_count(), before, "failed batch must not touch the grammar");
    }
}
